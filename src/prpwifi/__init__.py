"""Redundant-link simulator and duplication-avoidance analysis toolkit."""

from .da import (
    DaFlags,
    DaMode,
    DaParams,
    FailedCopyPolicy,
    TraceRequiredError,
    oracle_saved_attempts,
    rda_flags,
    simplex_flags,
    tdd_flags,
    tdd_latency,
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
    Deferral,
    ErrorModel,
    InterferenceParams,
    SimConfig,
    SimConfigError,
    generate_run,
)
from .trace import (
    AttemptTable,
    AttemptTrace,
    ChannelId,
    ChannelMeta,
    CopyRecord,
    InvalidRunError,
    LinkOutcome,
    LogFormatError,
    MissingFrameDurationError,
    PacketRecord,
    PhyParams,
    RunLog,
    RunMeta,
    VIEW_ADAPTER,
    VIEW_FULL_TRACE,
    copy_latency,
    decode_log,
    encode_log,
    export_csv,
    final_attempt_start,
    link_outcome,
    read_log,
    receive_time,
    validate_run,
    write_log,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
