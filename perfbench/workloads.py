"""The four benchmark workloads: inputs, CLI calls and output checks.

Every workload uses ROADMAP's criterion-5 config (10^5 packets, 4 ms
period, 2 % attempt loss, desk-scale bursts, one interferer on A and two on
B); the benchmark seed becomes the config seed. An op is one or two
in-process calls of ``prpwifi.cli.main``. Why each workload exists is
recorded in BENCHMARK.json and README.md.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

CONFIG_TEMPLATE = """\
channels = A,B
packets = {packets}
period = 4ms
seed = {seed}
full_trace = {full_trace}
loss_prob = {loss_prob}
payload_airtime = 300us
burst_spacing = 400us
burst_mean = 3
burst_cap = 12
gap_mean = 2.8ms
gap_cap = 280ms
A.interferers = 1
B.interferers = 2
"""
LOSS_PROB = 0.02
PACKETS = 50_000
ANALYZE_TLRE_NS = 50_000  # analyze-trace's `--tlre`, also given to the oracle
TLRE_ROWS = 21
TD_ROWS = 25

# `simulate` reports its own wall time on stdout; it is masked before the
# byte-identity check.
_WALL = re.compile(r"wall=[0-9.]+s")


@dataclass(frozen=True)
class Files:
    config: str
    input_log: str
    output_log: str


def _simulate(files: Files, seed: int) -> list[list[str]]:
    return [["simulate", files.config, "--out", files.output_log]]


def _analyze(files: Files, seed: int) -> list[list[str]]:
    return [["analyze", "--log", files.input_log, "--mode", "rda",
             "--tlre", f"{ANALYZE_TLRE_NS // 1000}us"]]


def _sweeps(files: Files, seed: int) -> list[list[str]]:
    return [
        ["sweep", "--log", files.input_log, "--param", "tlre",
         "--range", "0:1000us", "--step", "50us"],
        ["sweep", "--log", files.input_log, "--param", "td",
         "--range=-300us:300us", "--step", "25us"],
    ]


def _validate_deferral(files: Files, seed: int) -> list[list[str]]:
    return [["validate-deferral", files.config, "--td-list=-100us,100us",
             "--seeds", str(seed)]]


def check_simulated_log(stdouts: list[str], files: Files, exact: Fraction | None) -> list[str]:
    """The log decodes with validation, and mean attempts per channel lie
    within 3 standard errors of the truncated-geometric closed form."""
    from prpwifi.trace import read_log

    run = read_log(files.output_log, validate=True)
    n = run.meta.n_packets
    errors = []
    for channel, phy in run.phy_by_channel().items():
        mean, var = truncated_geometric(LOSS_PROB, phy.retry_limit)
        observed = sum(p.copies[channel].attempts for p in run.packets) / n
        if abs(observed - mean) > 3 * math.sqrt(var / n):
            errors.append(
                f"channel {channel.label}: mean attempts {observed:.5f}, "
                f"closed form {mean:.5f} +- 3 SE"
            )
    return errors


def check_analyze(stdouts: list[str], files: Files, exact: Fraction | None) -> list[str]:
    e_pct = json.loads(stdouts[0])["link"]["e_pct"]
    # the report renders 100*e to 4 significant digits; rounding is monotone
    bound = float(f"{float(100 * exact):.4g}")
    if e_pct > bound:
        return [f"link e {e_pct}% exceeds the exact oracle's {bound}%"]
    return []


def check_sweeps(stdouts: list[str], files: Files, exact: Fraction | None) -> list[str]:
    tlre, td = (list(csv.DictReader(io.StringIO(text))) for text in stdouts)
    if len(tlre) != TLRE_ROWS or len(td) != TD_ROWS:
        return [f"expected {TLRE_ROWS} and {TD_ROWS} rows, got {len(tlre)} and {len(td)}"]
    errors = []
    e_bar = [float(row["e_bar"]) for row in tlre]
    if any(b > a for a, b in zip(e_bar, e_bar[1:])):
        errors.append("e_bar increases with T_LRE")
    metrics = [c for c in tlre[0] if c not in ("mode", "T_LRE_us", "T_D_us")]
    rda0 = [r for r in tlre if float(r["T_LRE_us"]) == 0.0]
    td0 = [r for r in td if float(r["T_D_us"]) == 0.0]
    if len(rda0) != 1 or len(td0) != 1:
        errors.append("no unique T_LRE = 0 or T_D = 0 row")
    elif [rda0[0][c] for c in metrics] != [td0[0][c] for c in metrics]:
        errors.append("T_D = 0 row differs from the T_LRE = 0 RDA row")
    return errors


def check_validate_deferral(
    stdouts: list[str], files: Files, exact: Fraction | None
) -> list[str]:
    return [] if "validation passed" in stdouts[0] else ["validation did not pass"]


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: Callable[[Files, int], list[list[str]]]  # the CLI calls of one op
    # checks the (byte-identical) outputs of the run's ops; returns errors
    check: Callable[[list[str], Files, Fraction | None], list[str]]
    full_trace: bool
    builds_log: bool  # set-up writes ``input_log`` with `prpwifi simulate`
    needs_oracle: bool  # set-up computes the exact oracle on ``input_log``
    # spans every op must open; a silent one makes its layer metrics missing
    expected_spans: frozenset[str]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-trace", _simulate, check_simulated_log,
            full_trace=True, builds_log=False, needs_oracle=False,
            expected_spans=frozenset(
                {"sim.generate_run", "sim.interference", "trace.validate", "trace.encode"}
            ),
        ),
        Workload(
            "analyze-trace", _analyze, check_analyze,
            full_trace=True, builds_log=True, needs_oracle=True,
            expected_spans=frozenset(
                {"trace.decode", "trace.validate", "metrics.compute_report",
                 "metrics.latency_stats"}
            ),
        ),
        Workload(
            "sweep-adapter", _sweeps, check_sweeps,
            full_trace=False, builds_log=True, needs_oracle=False,
            expected_spans=frozenset(
                {"trace.decode", "trace.validate", "metrics.sweep",
                 "metrics.latency_stats"}
            ),
        ),
        Workload(
            "validate-deferral", _validate_deferral, check_validate_deferral,
            full_trace=False, builds_log=False, needs_oracle=False,
            expected_spans=frozenset(
                {"sim.generate_run", "sim.interference", "trace.validate",
                 "metrics.compute_report", "metrics.latency_stats"}
            ),
        ),
    )
}


def config_text(workload: Workload, seed: int, packets: int) -> str:
    return CONFIG_TEMPLATE.format(
        packets=packets, seed=seed, full_trace=str(workload.full_trace).lower(),
        loss_prob=LOSS_PROB,
    )


def fingerprint(codes: list[int | None], stdouts: list[str], log_digest: str | None) -> tuple:
    """What must be byte-identical across the ops of one run."""
    return tuple(codes), tuple(_WALL.sub("wall=", out) for out in stdouts), log_digest


def truncated_geometric(p: float, limit: int) -> tuple[float, float]:
    """Mean and variance of the attempt count with per-attempt loss ``p``."""
    pmf = {k: p ** (k - 1) * (1 - p) for k in range(1, limit)}
    pmf[limit] = p ** (limit - 1)
    mean = sum(k * q for k, q in pmf.items())
    return mean, sum(k * k * q for k, q in pmf.items()) - mean * mean
