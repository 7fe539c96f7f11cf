"""Redundant-link simulator and duplication-avoidance analysis toolkit."""

from .da import (
    DaMode,
    DaParams,
    FailedCopyPolicy,
    TraceRequiredError,
)
from .metrics import (
    LatencyStats,
    MetricsReport,
    OracleSummary,
    compute_report,
    latency_stats,
    oracle_attempt_summary,
    report_to_dict,
    sweep,
    write_sweep_csv,
)
from .sim import (
    ChannelSetup,
    InterferenceParams,
    SimConfig,
    SimConfigError,
    generate_run,
)
from .trace import (
    AttemptTable,
    ChannelId,
    ChannelMeta,
    InvalidRunError,
    LogFormatError,
    PhyParams,
    RunLog,
    RunMeta,
    VIEW_ADAPTER,
    VIEW_FULL_TRACE,
    decode_log,
    encode_log,
    export_csv,
    read_log,
    validate_run,
    write_log,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
