"""Per-stage memory of one traced analysis or simulation, in fresh processes.

    python3 scripts/stages.py LOG
    python3 scripts/stages.py --config CONFIG

Run it from anywhere; it runs the program from the ``src/`` next to this
script. For a log it runs the stages of the benchmark's ``analyze --mode
rda`` (at its T_LRE, ``perfbench/workloads.py``) one after the other:
``read_log`` without validation (decode), ``validate_run`` (validate) and
``compute_report`` (report). For a config it runs the stages of
``simulate``: ``generate_run`` (simulate), which ends with its own
``validate_run``, then ``write_log`` (encode) and ``export_csv`` (export),
the log and the CSV of ``simulate --out --csv``, of the run into a
temporary directory.

For each stage it prints, in MB (10^6 bytes) of tracemalloc: ``peak``, the
most the process held during the stage, ``transient``, that peak minus what
was held when the stage began, and ``held``, what was held when it ended.
A large log decodes on two processes, and tracemalloc sees only this one,
which holds the run. For a log it then prints how many blocks of packet
lines each decoder path took in one more decode, kept to one process so
that every block is counted: ``fixed`` (the fixed layout: every copy
carries both final durations and no trace), ``general`` (the block
grammar) and ``lines`` (line by line). The last line is one JSON object
with the stages, the block paths of a log, ``ru_maxrss_mb``, the peak RSS
of a second fresh process that runs the same stages untraced
(tracemalloc's own bookkeeping would inflate it), and
``children_ru_maxrss_mb``, the largest peak RSS of a process that one
forked there (0 if none): the child that parses a large log's second half
or, under ``--config``, the one that formats a large run's later blocks.
That RSS counts the pages the child shares with the process that forked
it, which holds the run: on the benchmark's traced config at seed 5 the
encoder's child peaked at 42.4 MB beside 56.1 MB, and at 10^6 packets at
354.6 MB beside 368.3 MB.
"""
from __future__ import annotations

import argparse
import contextlib
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
from prpwifi.logblocks import BlockParser  # noqa: E402
from workloads import ANALYZE_TLRE_NS  # noqa: E402

MB = 1e6
# the function that decodes a block on each decoder path
BLOCK_PATHS = {
    "fixed": (BlockParser, "_parse_fixed"),
    "general": (BlockParser, "_parse_general"),
    "lines": (trace, "_decode_lines"),
}


@contextlib.contextmanager
def _counted_block_paths(counts: dict[str, int]):
    """Counts in ``counts`` the blocks that each decoder path decodes, in a
    decode kept to this process, whose calls alone the counters see."""

    def counted(path, decode):
        def wrapper(*args):
            counts[path] += 1
            return decode(*args)

        return wrapper

    originals = {path: getattr(*where) for path, where in BLOCK_PATHS.items()}
    fork_bytes = trace._FORK_BYTES
    try:
        trace._FORK_BYTES = float("inf")
        for path, (owner, name) in BLOCK_PATHS.items():
            counts[path] = 0
            setattr(owner, name, counted(path, originals[path]))
        yield counts
    finally:
        trace._FORK_BYTES = fork_bytes
        for path, (owner, name) in BLOCK_PATHS.items():
            setattr(owner, name, originals[path])


def _stages(args: argparse.Namespace) -> list[tuple[str, Callable]]:
    """(name, call) of each stage; a call takes the run the previous stage
    returned, and returns the run."""
    if args.config:

        def encode(run):
            with tempfile.TemporaryDirectory() as directory:
                trace.write_log(run, Path(directory) / "run.jsonl")
            return run

        def export(run):
            with tempfile.TemporaryDirectory() as directory:
                trace.write_atomic(Path(directory) / "run.csv", lambda f: trace.export_csv(run, f))
            return run

        return [
            ("simulate", lambda _: sim.generate_run(load_config(args.config))),
            ("encode", encode),
            ("export", export),
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
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
            print(resource.getrusage(who).ru_maxrss * 1024 / MB)
        return 0
    child = subprocess.run(
        [sys.executable, __file__, "--untraced", *(argv if argv is not None else sys.argv[1:])],
        capture_output=True, text=True, check=True,
    )
    rss, children_rss = (round(float(mb), 1) for mb in child.stdout.split()[-2:])
    stages = _traced(args)
    result = {"input": args.config or args.log, "stages": stages}
    if args.log:
        with _counted_block_paths({}) as blocks:
            trace.read_log(args.log, validate=False)
        print("blocks   ", "  ".join(f"{path} {count}" for path, count in blocks.items()))
        result["blocks"] = blocks
    print(f"ru_maxrss {rss:.1f} MB, children {children_rss:.1f} MB (untraced)")
    print(json.dumps({**result, "ru_maxrss_mb": rss, "children_ru_maxrss_mb": children_rss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
