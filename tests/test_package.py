import prpwifi

PUBLIC = {
    # modules
    "da", "logblocks", "metrics", "sim", "trace",
    # da
    "DaMode", "DaParams", "FailedCopyPolicy", "TraceRequiredError",
    # metrics
    "LatencyStats", "MetricsReport", "OracleSummary", "compute_report", "latency_stats",
    "oracle_attempt_summary", "report_to_dict", "sweep", "write_sweep_csv",
    # sim
    "ChannelSetup", "InterferenceParams", "SimConfig",
    "SimConfigError", "generate_run",
    # trace
    "AttemptTable", "ChannelId", "ChannelMeta", "InvalidRunError", "LogFormatError",
    "PhyParams", "RunLog", "RunMeta", "VIEW_ADAPTER", "VIEW_FULL_TRACE", "decode_log",
    "encode_log", "export_csv", "read_log", "validate_run", "write_log",
}


def test_public_surface():
    """The top level holds the product surface only; the per-packet
    reference functions and records stay in ``prpwifi.trace`` and
    ``prpwifi.da``."""
    assert len(PUBLIC) == 39
    assert set(prpwifi.__all__) == PUBLIC and len(prpwifi.__all__) == 39
