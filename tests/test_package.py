import importlib.util
import sys
from pathlib import Path
from unittest import mock

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


def test_mutation_catalogue_is_current():
    """Every entry of ``scripts/mutants.py``, equivalent ones included, names
    a snippet that occurs exactly once in its file, and every entry that is
    run names tests that exist, so a refactor that moves what an entry
    mutates updates the entry with it."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("mutants", root / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # for its dataclass
        spec.loader.exec_module(module)
    names = [entry.name for entry in module.MUTANTS + module.EQUIVALENT]
    assert module.MUTANTS and module.EQUIVALENT and len(set(names)) == len(names)
    for entry in module.MUTANTS + module.EQUIVALENT:
        assert (root / entry.file).read_text().count(entry.snippet) == 1, entry.name
    for equivalent in module.EQUIVALENT:
        assert equivalent.reason, equivalent.name
    for mutant in module.MUTANTS:
        assert mutant.tests, mutant.name
        for test in mutant.tests:
            path, *scopes = test.split("::")
            source = (root / path).read_text()
            for scope in scopes:
                kind = "class" if scope.startswith("Test") else "def"
                assert f"{kind} {scope}(" in source or f"{kind} {scope}:" in source, test
