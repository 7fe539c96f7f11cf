"""Per-stage memory of one traced analysis or simulation, in fresh processes.

    python3 scripts/stages.py LOG
    python3 scripts/stages.py --config CONFIG

Run it from anywhere; it runs the program from the ``src/`` next to this
script. For a log it runs the stages of the benchmark's ``analyze --mode
rda`` (at its T_LRE, ``perfbench/workloads.py``) one after the other:
``read_log`` without validation (decode), ``validate_run`` (validate) and
``compute_report`` (report). For a config it runs the stages of
``simulate``: ``generate_run`` (simulate), which ends with its own
``validate_run``, and ``write_log`` of the run into a temporary directory
(encode).

For each stage it prints, in MB (10^6 bytes) of tracemalloc: ``peak``, the
most the process held during the stage, ``transient``, that peak minus what
was held when the stage began, and ``held``, what was held when it ended.
The last line is one JSON object with the stages and ``ru_maxrss_mb``, the
peak RSS of a second fresh process that runs the same stages untraced
(tracemalloc's own bookkeeping would inflate it).
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from prpwifi import metrics, sim, trace  # noqa: E402
from prpwifi.config import load_config  # noqa: E402
from prpwifi.da import DaMode, DaParams  # noqa: E402
from workloads import ANALYZE_TLRE_NS  # noqa: E402

MB = 1e6


def _stages(args: argparse.Namespace) -> list[tuple[str, Callable]]:
    """(name, call) of each stage; a call takes the run the previous stage
    returned, and returns the run."""
    if args.config:

        def encode(run):
            with tempfile.TemporaryDirectory() as directory:
                trace.write_log(run, Path(directory) / "run.jsonl")
            return run

        return [
            ("simulate", lambda _: sim.generate_run(load_config(args.config))),
            ("encode", encode),
        ]
    params = DaParams(DaMode.RDA, ANALYZE_TLRE_NS)

    def validate(run):
        trace.validate_run(run)
        return run

    def report(run):
        metrics.compute_report(run, params)
        return run

    return [
        ("decode", lambda _: trace.read_log(args.log, validate=False)),
        ("validate", validate),
        ("report", report),
    ]


def _traced(args: argparse.Namespace) -> dict:
    stages, result = {}, None
    tracemalloc.start()
    try:
        for name, call in _stages(args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            started = time.perf_counter()
            result = call(result)
            seconds = time.perf_counter() - started
            held, peak = tracemalloc.get_traced_memory()
            stages[name] = {
                "peak_mb": round(peak / MB, 2),
                "transient_mb": round((peak - before) / MB, 2),
                "held_mb": round(held / MB, 2),
                "traced_s": round(seconds, 3),
            }
            print(f"{name:9} peak {peak / MB:7.2f} MB  transient {(peak - before) / MB:7.2f} MB"
                  f"  held {held / MB:7.2f} MB  {seconds:6.3f} s (traced)", flush=True)
    finally:
        tracemalloc.stop()
    return stages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("log", nargs="?", help="a run log to analyze")
    source.add_argument("--config", help="a simulation config to run instead")
    parser.add_argument("--untraced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.untraced:
        result = None
        for _, call in _stages(args):
            result = call(result)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB)
        return 0
    child = subprocess.run(
        [sys.executable, __file__, "--untraced", *(argv if argv is not None else sys.argv[1:])],
        capture_output=True, text=True, check=True,
    )
    rss = round(float(child.stdout.split()[-1]), 1)
    stages = _traced(args)
    print(f"ru_maxrss {rss:.1f} MB (untraced)")
    print(json.dumps({"input": args.config or args.log, "stages": stages, "ru_maxrss_mb": rss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
