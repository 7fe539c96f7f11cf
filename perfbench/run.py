"""prpwifi benchmark: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--packets N]

Run from the repository root; the program is imported from ``src/``. A run
writes the workload's inputs from ``--seed`` (set-up), runs one unmeasured
warm-up op, then runs ops back to back for ``--seconds`` seconds, each an
in-process call of ``prpwifi.cli.main`` with stdout captured. Every op must
exit 0 and print (and write) exactly what the warm-up op did, and the
warm-up's output must pass the workload's check. ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced ones.

Times are reported in reference seconds: measured seconds scaled by
``CAL_REF_S`` over the time a fixed pure-Python loop takes right before and
right after the timed region. The host's speed drifts by up to 2x over
minutes, which the loop sees as well, so the ratio stays steady; raw wall
seconds are kept in the details.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit). The line before it carries the
details: provenance, raw and reference op-time quartiles and samples, and
any errors.
``--smoke`` runs every workload once, untraced and traced, at a small
``--packets`` and checks that every metric in BENCHMARK.json is reported
with its unit; it is a self-test, not a measurement.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import ANALYZE_TLRE_NS, PACKETS, WORKLOADS, Files, config_text, fingerprint

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 170
SMOKE_PACKETS = 2000
CAL_ITERATIONS = 2_000_000
CAL_REF_S = 0.2  # a reference second: the loop takes CAL_REF_S on the reference host

END_TO_END_UNITS = {"op_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "success_rate": "ratio"}
TIME_UNITS = ("s", "ms", "us")  # layer metrics scaled to reference seconds


class SetupError(RuntimeError):
    """Set-up could not produce the workload's inputs."""


@dataclass
class Op:
    seconds: float
    fingerprint: tuple
    stdouts: list[str]
    stderrs: list[str]
    log_bytes: int


def _calibrate() -> float:
    """Seconds the fixed reference loop takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


class RefClock:
    """Scale factors from measured to reference seconds.

    Call ``scale()`` right after each timed region: it runs the reference
    loop and scales the region by the mean of that run and the previous one,
    i.e. the host's speed just before and just after the region.
    """

    def __init__(self) -> None:
        self.samples = [_calibrate()]

    def scale(self) -> float:
        self.samples.append(_calibrate())
        return CAL_REF_S / statistics.mean(self.samples[-2:])


def _child(argv: list[str]) -> str:
    """Run a helper interpreter on the program's sources; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def set_up(workload, files: Files, seed: int, packets: int) -> float:
    """Write the config and any input log; return the seconds it took."""
    started = time.perf_counter()
    Path(files.config).write_text(config_text(workload, seed, packets))
    if workload.builds_log:
        _child(["-m", "prpwifi.cli", "simulate", files.config, "--out", files.input_log])
    return time.perf_counter() - started


def run_op(workload, files: Files, seed: int, recorder=None) -> Op:
    """One op: the workload's CLI calls in this process, timed together."""
    from prpwifi.cli import main as cli_main

    if os.path.exists(files.output_log):
        os.unlink(files.output_log)
    seconds = 0.0
    codes, stdouts, stderrs = [], [], []
    for argv in workload.argvs(files, seed):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = recorder.enter(tracing.CLI_SPAN) if recorder else None
            started = time.perf_counter()
            try:
                code = cli_main(argv)
            except Exception:  # an op that crashes is counted, not fatal
                code = None
                traceback.print_exc(file=err)
            seconds += time.perf_counter() - started
            if recorder:
                recorder.leave(span)
        codes.append(code)
        stdouts.append(out.getvalue())
        stderrs.append(err.getvalue())
    digest, log_bytes = None, 0
    if os.path.exists(files.output_log):
        data = Path(files.output_log).read_bytes()
        digest, log_bytes = hashlib.sha256(data).hexdigest(), len(data)
    return Op(seconds, fingerprint(codes, stdouts, digest), stdouts, stderrs, log_bytes)


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def _loadavg_1m() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _provenance(seed: int, packets: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "seed": seed,
        "packets": packets,
    }


def measure(workload, files: Files, seed: int, seconds: float, traced: bool,
            reference: Op, clock: RefClock):
    """Ops until ``seconds`` have passed (at least one; pairs when traced).

    Returns untraced (raw, reference) op seconds, traced (raw, reference,
    recorder, scale, log bytes) tuples and the number of ops whose output
    differs from the reference op's.
    """
    plain, traces, differing = [], [], 0
    deadline = time.perf_counter() + seconds
    while not (traces if traced else plain) or time.perf_counter() < deadline:
        gc.collect()
        op = run_op(workload, files, seed)
        scale = clock.scale()
        plain.append((op.seconds, op.seconds * scale))
        differing += op.fingerprint != reference.fingerprint
        if traced:
            gc.collect()
            with tracing.recording() as recorder:
                op = run_op(workload, files, seed, recorder)
            scale = clock.scale()
            traces.append((op.seconds, op.seconds * scale, recorder, scale, op.log_bytes))
            differing += op.fingerprint != reference.fingerprint
    return plain, traces, differing


def run_workload(name: str, seed: int, seconds: float, traced: bool, packets: int):
    """Set up, warm up, measure and check one workload; return (detail, result)."""
    workload = WORKLOADS[name]
    load_start = _loadavg_1m()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        files = Files(str(work / "run.cfg"), str(work / "input.jsonl"),
                      str(work / "output.jsonl"))
        clock = RefClock()
        setups = []  # (raw, reference) seconds per set-up
        for _ in range(1 if traced else SETUP_REPEATS):
            raw = set_up(workload, files, seed, packets)
            setups.append((raw, raw * clock.scale()))
        exact = None
        if workload.needs_oracle:
            exact = Fraction(_child([str(HERE / "oracle.py"), files.input_log,
                                     str(ANALYZE_TLRE_NS)]).strip())
            clock.scale()  # restart the host-speed baseline after the oracle
        gc.collect()
        reference = run_op(workload, files, seed)  # the warm-up op
        warmup_ref_s = reference.seconds * clock.scale()
        plain, traces, differing = measure(workload, files, seed, seconds, traced,
                                           reference, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

        errors = [f"{argv[0]} exited {code}: {err.strip()[-2000:]}"
                  for argv, code, err in zip(workload.argvs(files, seed),
                                             reference.fingerprint[0], reference.stderrs)
                  if code != 0]
        if not errors:
            try:
                errors = workload.check(reference.stdouts, files, exact)
            except Exception as exc:  # output the check cannot parse is an error
                errors = [f"check failed: {exc!r}"]
        attempted = len(plain) + len(traces)
        failed = attempted if errors else differing
        if differing:
            errors.append(f"{differing} ops printed or wrote other bytes than the warm-up op")

        if traced:
            metrics, missing = _layer_metrics(workload, plain, traces)
            if missing:
                failed = max(failed, len(traces))
                errors.append("missing layer metrics: " + ", ".join(sorted(missing)))
        else:
            metrics = {
                "op_s": statistics.median(ref for _, ref in plain),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(ref for _, ref in setups) + warmup_ref_s,
                "success_rate": (attempted - failed) / attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = _provenance(seed, packets)
    provenance.update(loadavg_1m_start=load_start, loadavg_1m_end=_loadavg_1m())
    detail = {
        "workload": name,
        "trace": int(traced),
        "provenance": provenance,
        "op_s_raw": _quartiles([raw for raw, _ in plain]),
        "op_s": _quartiles([ref for _, ref in plain]),
        "traced_op_s": _quartiles([t[1] for t in traces]) if traces else None,
        "setup_s_raw": {"build": [raw for raw, _ in setups], "warmup": reference.seconds},
        "setup_s": {"build": [ref for _, ref in setups], "warmup": warmup_ref_s},
        "calibration_s": clock.samples,
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / attempted,
        "errors": errors,
    }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def _layer_metrics(workload, plain: list, traces: list) -> tuple[dict, set[str]]:
    """Median per-op layer values over the traced ops, plus the overhead."""
    per_op = []
    missing = set()
    for _, _, recorder, scale, log_bytes in traces:
        values = tracing.layer_values(recorder, log_bytes)
        per_op.append({name: value * scale if tracing.LAYER_METRICS[name][0] in TIME_UNITS
                       else value for name, value in values.items()})
        missing |= tracing.missing_metrics(recorder, workload.expected_spans)
    metrics = {
        name: {"value": statistics.median(v[name] for v in per_op), "unit": unit}
        for name, (unit, _) in tracing.LAYER_METRICS.items()
        if name not in missing
    }
    untraced = statistics.median(ref for _, ref in plain)
    traced = statistics.median(t[1] for t in traces)
    metrics["bench.trace_overhead_pct"] = {
        "value": (traced - untraced) / untraced * 100, "unit": "%"}
    return metrics, missing


def smoke(packets: int) -> int:
    """Run every workload once, untraced and traced, at ``packets`` packets
    and check that each reports exactly BENCHMARK.json's metrics and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("smoke: BENCHMARK.json names other workloads than workloads.py")
        return 1
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [str(HERE / "run.py"), "--workload", name, "--seed", "1",
                    "--seconds", "0", "--trace", str(trace), "--packets", str(packets)]
            started = time.perf_counter()
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            problems = [] if result else [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
            if result:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != wanted[trace]:
                    problems.append(f"metrics/units {got} != BENCHMARK.json {wanted[trace]}")
                if not result["correct"] or result["failed"]:
                    problems.append("incorrect: " + "; ".join(json.loads(lines[-2])["errors"]))
            ok &= not problems
            print(f"{name:18} trace={trace} {time.perf_counter() - started:5.1f}s "
                  f"{'ok' if not problems else 'FAIL ' + ' | '.join(problems)}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--packets", type=int,
                        help="packets per run; lower it only for --smoke checks")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "prpwifi" / "__init__.py").is_file():
        print(f"error: no prpwifi package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args.packets or SMOKE_PACKETS)
    if args.workload is None:
        parser.error("--workload is required")
    detail, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.packets or PACKETS)
    for error in detail["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
