"""Spectrum-consumption and communication-quality metrics.

Every ratio is kept as an exact rational internally and only rounded at
rendering time (4 significant digits, percentage style). Latency statistics
use nearest-rank percentiles (rank = ceil(q*n), 1-based) and population
standard deviation. They are computed in numpy: an int64 sort, and the sum
and sum of squares from int64 limb products combined as Python ints, so
both sums are exact for any int64 latencies.

Reports are computed over the run's per-channel columns for any channel
count; the per-packet functions of :mod:`prpwifi.da` define the same
quantities, and the test suite cross-checks every report against them.
A sweep reduces each delivered-latency population once: the channels', the
link's on recorded timestamps, and the virtually displaced link's once per
distinct ``T_D``. Early flags are per-copy leads compared with a threshold
set by ``T_LRE`` and ``T_D``; the leads are computed once per sweep and
failed-copy policy, so a grid point only compares and counts.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .da import DaMode, DaParams, FailedCopyPolicy, TraceRequiredError
from .trace import TIME_LIMIT_NS, RunLog, final_starts, receive_times

MISS_THRESHOLDS_NS = (10_000_000, 100_000_000)  # 10 ms and 100 ms deadlines

_MEDIAN_Q = Fraction(1, 2)
_P9999_Q = Fraction(9999, 10000)

_ALWAYS = np.iinfo(np.int64).max  # neutral in minima; never summed


class SweepError(ValueError):
    """Failure at one sweep grid point; carries the point index."""

    def __init__(self, point: int, cause: Exception):
        super().__init__(f"sweep point {point}: {cause}")
        self.point = point


@dataclass(frozen=True, slots=True)
class LatencyStats:
    mean_ns: float
    std_ns: float
    median_ns: int
    p99_99_ns: int
    max_ns: int
    population: int
    over_10ms: int  # samples above each of MISS_THRESHOLDS_NS
    over_100ms: int


def _nearest_rank(ordered: np.ndarray, q: Fraction) -> int:
    # exact rational arithmetic: rank = ceil(q*n), 1-based
    rank = max(1, math.ceil(q * len(ordered)))
    return int(ordered[rank - 1])


_LIMB_BITS = 24  # three limbs hold any offset below 2^64
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)
_SUM_CHUNK = 1 << 15  # limb products are < 2^48, so chunk sums stay < 2^63


def _exact_sums(ordered: np.ndarray) -> tuple[int, int]:
    """Exact sum and sum of squares of a sorted int64 array, as Python ints.

    Values are taken relative to the smallest one; the offsets (below 2^64,
    held as uint64) are split into as many 24-bit limbs as the span from
    the smallest to the largest needs (one below 2^24, two below 2^48,
    else three). Limbs are built, summed and multiplied in int64 a chunk at
    a time, small enough not to overflow, as (2^24 - 1)^2 x 2^15 < 2^63,
    and to stay in cache; the chunk results are combined as Python ints.
    """
    n = len(ordered)
    base = int(ordered[0])
    shift = np.uint64(base % (1 << 64))
    width = max(1, -(-(int(ordered[-1]) - base).bit_length() // _LIMB_BITS))
    t1 = t2 = 0  # sum and sum of squares of the offsets
    # every chunk's limbs are written into the same rows
    rows = np.empty((width, min(n, _SUM_CHUNK)), dtype=np.uint64)
    for lo in range(0, n, _SUM_CHUNK):
        chunk = ordered[lo : lo + _SUM_CHUNK].view(np.uint64)
        limbs = rows[:, : len(chunk)]
        np.subtract(chunk, shift, out=limbs[0])
        for k in range(1, width):
            np.right_shift(limbs[0], np.uint64(_LIMB_BITS * k), out=limbs[k])
        # all but the top limb, which is below 2^24, are masked
        limbs[:-1] &= _LIMB_MASK
        limbs = limbs.view(np.int64)
        for i in range(width):
            t1 += int(limbs[i].sum()) << (_LIMB_BITS * i)
            for j in range(i, width):
                term = int(np.dot(limbs[i], limbs[j])) << (_LIMB_BITS * (i + j))
                t2 += term if i == j else 2 * term
    # x = base + offset
    return n * base + t1, n * base * base + 2 * base * t1 + t2


def latency_stats(samples: Sequence[int] | np.ndarray) -> LatencyStats | None:
    """Statistics over a delivered-latency population; ``None`` when empty."""
    ordered = np.sort(np.asarray(samples, dtype=np.int64))
    n = len(ordered)
    if n == 0:
        return None
    s1, s2 = _exact_sums(ordered)
    # population variance from exact integer sums: (n*s2 - s1^2) / n^2
    var = Fraction(n * s2 - s1 * s1, n * n)
    within = np.searchsorted(ordered, MISS_THRESHOLDS_NS, side="right").tolist()
    return LatencyStats(
        mean_ns=s1 / n,
        std_ns=math.sqrt(var),
        median_ns=_nearest_rank(ordered, _MEDIAN_Q),
        p99_99_ns=_nearest_rank(ordered, _P9999_Q),
        max_ns=int(ordered[-1]),
        population=n,
        over_10ms=n - within[0],
        over_100ms=n - within[1],
    )


@dataclass(frozen=True, slots=True)
class ChannelMetrics:
    early_bar: Fraction
    simplex_bar: Fraction
    attempts_bar: Fraction
    efficiency: Fraction
    latency: LatencyStats | None
    miss_10ms: Fraction | None
    miss_100ms: Fraction | None
    loss: Fraction


@dataclass(frozen=True, slots=True)
class LinkMetrics:
    early_bar: Fraction
    simplex_bar: Fraction
    attempts_bar_pow: Fraction
    efficiency_pow: Fraction
    efficiency_floor: Fraction  # lower bound on DA efficiency
    load_vs_pow: Fraction  # upper bound, 1 when no DA
    load_vs_simplex: Fraction  # upper bound vs a single conventional channel
    latency: LatencyStats | None
    miss_10ms: Fraction | None
    miss_100ms: Fraction | None
    loss: Fraction


@dataclass(frozen=True, slots=True)
class MetricsReport:
    params: DaParams  # as applied: ``t_d_ns`` is the displacement analyzed
    lost_copy_charge: int  # attempts charged per lost copy
    n_packets: int
    log_deferral_ns: int
    channels: dict[str, ChannelMetrics]
    link: LinkMetrics


def _resolve(run: RunLog, params: DaParams) -> tuple[int, bool]:
    """Effective displacement, and whether it is virtual, which sets the
    offsets c of the early thresholds T_LRE + c (``_Derived``).

    Logs generated with real request displacement are analyzed on their
    recorded timestamps (the displacement is already physical); a TDD
    request must then either leave ``t_d_ns`` at zero or match the log.
    Non-deferred logs are displaced virtually. A virtual |T_D|, like a real
    one, must stay below the period, and below ``TIME_LIMIT_NS`` so that
    shifted times stay int64.
    """
    t_d = params.t_d_ns
    if params.mode is not DaMode.TDD:
        return t_d, False
    if len(run.channels) != 2:
        raise ValueError("TDD analysis is defined for duplex logs only")
    if run.meta.deferral_ns != 0:
        if t_d not in (0, run.meta.deferral_ns):
            raise ValueError(
                "log already carries a real displacement of "
                f"{run.meta.deferral_ns} ns; omit t_d or pass the same value"
            )
        return run.meta.deferral_ns, False
    if abs(t_d) >= run.meta.period_ns:
        raise ValueError(
            f"virtual displacement of {t_d} ns: |T_D| must be smaller than "
            f"the generation period of {run.meta.period_ns} ns"
        )
    if abs(t_d) >= TIME_LIMIT_NS:
        raise ValueError(f"virtual displacement of {t_d} ns: |T_D| must be below 2^62 ns")
    return t_d, True


@dataclass(frozen=True, slots=True)
class _Accumulated:
    """Raw per-run tallies, independent of the evaluation path."""

    early_sum: list[int]
    simplex_sum: list[int]
    simplex_link_count: int
    attempts_delivered: list[int]
    lost_count: list[int]
    max_delivered_attempts: int
    chan_latency: list[LatencyStats | None]
    link_latency: LatencyStats | None
    link_lost: int


def _other_ends(run: RunLog) -> list[np.ndarray]:
    """Per channel, the (n,) least end among each copy's other delivered
    copies; _ALWAYS where none was delivered."""
    ends = list(np.where(run.lost, _ALWAYS, run.end))
    return [reduce(np.minimum, ends[:j] + ends[j + 1 :]) for j in range(len(ends))]


def _leads(run: RunLog, policy: FailedCopyPolicy) -> np.ndarray:
    """(m, n) copy leads: the final-attempt start minus the least end among
    the packet's other delivered copies; below any T_LRE - |T_D| where the
    policy drops the copy (-_ALWAYS) or none other was delivered (<= -2^62).
    The oracle policy keeps lost copies, so each needs its ``Td``, which
    every traced copy carries (``da.policy_final_start``). Built in place,
    so only the leads and the ends are held at once."""
    if policy is FailedCopyPolicy.ORACLE and (run.lost & (run.td == 0)).any():
        raise TraceRequiredError("oracle policy needs traces or frame durations for lost copies")
    lead = final_starts(run)
    for row, others in zip(lead, _other_ends(run)):
        row -= others
    if policy is FailedCopyPolicy.PESSIMISTIC_ZERO:
        lead[run.lost] = -_ALWAYS
    return lead


@dataclass(frozen=True, slots=True)
class _Derived:
    """Arrays derived from a run's columns, shared by the grid points of one
    ``compute_report`` or ``sweep`` call.

    Copy j is early iff the failed-copy policy keeps it and its lead
    (``_leads``, built once per policy) exceeds T_LRE + c_j, with c =
    (T_D, -T_D) under a virtual duplex displacement, else 0 (``da.tdd_flags``);
    a packet is simplex on the link iff m - 1 copies are early and single.
    On a run that ``validate_run`` accepts, attempts start before their
    copies end, so at T_LRE >= 0 the quickest copy is never early and needs
    no mask, nor does any attempt in ``oracle_attempt_summary``. A grid point
    costs a few boolean passes over the leads, plus one ``latency_stats``
    call per new displacement."""

    run: RunLog
    single: np.ndarray  # (m, n) bool, copies sent in one attempt
    attempts_delivered: list[int]  # attempts summed over delivered copies
    max_delivered_attempts: int
    lost_count: list[int]
    link_lost: int  # packets lost on every channel
    chan_latency: list[LatencyStats | None]
    # built on first use: the leads per failed-copy policy, the link split,
    # and the link latency per virtual T_D (None on recorded timestamps)
    _memo: dict = field(default_factory=dict)

    def once(self, key: object, build: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


def _link_split(run: RunLog) -> tuple[np.ndarray, np.ndarray, int, np.ndarray | int]:
    """Duplex link samples, each copy's latency from channel A's request
    (lat): lat_B where both copies arrived, then the A-only and B-only ones;
    delta = lat_A - lat_B where both arrived; the first B-only sample; and
    per sample the request skew req_B - req_A, or 0 where no packet has one."""
    latency = receive_times(run)
    latency -= run.req[0]
    a, b = ~run.lost
    both = a & b
    parts = ((1, both), (0, a & ~b), (1, b & ~a))
    base = np.concatenate([latency[j][k] for j, k in parts])
    skew = run.req[1] - run.req[0]
    skew = np.concatenate([skew[k] for _, k in parts]) if skew.any() else 0
    return base, latency[0][both] - latency[1][both], np.count_nonzero(a), skew


def _link_latencies(cols: _Derived, t_d: int | None) -> np.ndarray:
    """PRP link latencies from each packet's earliest request, on recorded
    timestamps (``t_d`` None) or under a virtual displacement ``t_d`` with
    requests and receptions shifted by s = (s_A, s_B), s_B - s_A = T_D. From
    A's request, with skew sigma, the earliest request is min(s_A, sigma +
    s_B) = s_A + min(0, sigma + T_D); where both copies arrived, the
    earliest reception is min(lat_A + s_A, lat_B + s_B) = lat_B + s_A +
    min(delta, T_D)."""
    run = cols.run
    if t_d is None:
        first = receive_times(run)
        first[run.lost] = _ALWAYS
        first = first.min(axis=0)
        first -= run.req.min(axis=0)
        return first[~run.lost.all(axis=0)]
    base, delta, b_only, skew = cols.once("split", lambda: _link_split(run))
    samples = base - np.minimum(skew + t_d, 0)
    samples[: len(delta)] += np.minimum(delta, t_d)
    samples[b_only:] += t_d
    return samples


def _derive(run: RunLog) -> _Derived:
    # each row of the receive times becomes its channel's latencies in place
    rx = receive_times(run)
    delivered = ~run.lost
    for r, q in zip(rx, run.req):
        r -= q
    return _Derived(
        run=run,
        single=run.attempts == 1,
        attempts_delivered=[int(w.sum(where=ok)) for w, ok in zip(run.attempts, delivered)],
        max_delivered_attempts=int(run.attempts.max(where=delivered, initial=0)),
        lost_count=_counts(run.lost),
        link_lost=int(np.count_nonzero(~delivered.any(axis=0))),
        chan_latency=[latency_stats(r[ok]) for r, ok in zip(rx, delivered)],
    )


def _counts(flags: np.ndarray) -> list[int]:
    return [int(np.count_nonzero(row)) for row in flags]


def _accumulate(cols: _Derived, params: DaParams, t_d: int, virtual: bool) -> _Accumulated:
    """Vectorized evaluation of the per-packet definitions, for any number
    of channels (virtual displacement, like TDD itself, is duplex only)."""
    m = len(cols.lost_count)
    # the link latencies first, while no leads are held beside their transients
    key = t_d if virtual else None
    link = cols.once(key, lambda: latency_stats(_link_latencies(cols, key)))
    early_sum, simplex_sum, simplex_link = [0] * m, [0] * m, 0
    if params.mode is not DaMode.POW:
        offsets = (t_d, -t_d) if virtual else (0,) * m
        policy = params.failed_copy_policy
        lead = cols.once(policy, lambda: _leads(cols.run, policy))
        early = np.stack([row > params.t_lre_ns + c for row, c in zip(lead, offsets)])
        simplex = early & cols.single
        early_sum, simplex_sum = _counts(early), _counts(simplex)
        # a sum in the narrowest dtype that holds m, ten times faster than in int64
        per_packet = np.add.reduce(simplex, axis=0, dtype=np.min_scalar_type(m))
        simplex_link = int(np.count_nonzero(per_packet == m - 1))
    return _Accumulated(
        early_sum, simplex_sum, simplex_link, cols.attempts_delivered, cols.lost_count,
        cols.max_delivered_attempts, cols.chan_latency, link, cols.link_lost,
    )


def _quality(stats: LatencyStats | None, lost: int, n: int) -> dict:
    """The latency, deadline-miss and loss fields of a channel or the link;
    ``stats`` holds the delivered packets, so misses are a share of them."""
    miss = [None, None] if stats is None else [
        Fraction(k, stats.population) for k in (stats.over_10ms, stats.over_100ms)
    ]
    return {"latency": stats, "miss_10ms": miss[0], "miss_100ms": miss[1], "loss": Fraction(lost, n)}


def _assemble(
    run: RunLog, params: DaParams, t_d: int, acc: _Accumulated
) -> MetricsReport:
    channels = run.channels
    n = run.meta.n_packets
    # a fixed charge, else the measured maximum, else the largest retry limit
    charge = params.lost_copy_attempts or acc.max_delivered_attempts or max(
        phy.retry_limit for phy in run.phy_by_channel().values()
    )

    channel_metrics: dict[str, ChannelMetrics] = {}
    for j, c in enumerate(channels):
        w_bar = Fraction(acc.attempts_delivered[j] + acc.lost_count[j] * charge, n)
        channel_metrics[c.label] = ChannelMetrics(
            early_bar=Fraction(acc.early_sum[j], n),
            simplex_bar=Fraction(acc.simplex_sum[j], n),
            attempts_bar=w_bar,
            efficiency=1 / w_bar,
            **_quality(acc.chan_latency[j], acc.lost_count[j], n),
        )

    e_bar_link = sum((m.early_bar for m in channel_metrics.values()), Fraction(0))
    w_bar_pow = sum((m.attempts_bar for m in channel_metrics.values()), Fraction(0))
    link = LinkMetrics(
        early_bar=e_bar_link,
        simplex_bar=Fraction(acc.simplex_link_count, n),
        attempts_bar_pow=w_bar_pow,
        efficiency_pow=1 / w_bar_pow,
        efficiency_floor=1 / (w_bar_pow - e_bar_link),
        load_vs_pow=1 - e_bar_link / w_bar_pow,
        load_vs_simplex=len(channels) * (1 - e_bar_link / w_bar_pow),
        **_quality(acc.link_latency, acc.link_lost, n),
    )
    return MetricsReport(
        params=replace(params, t_d_ns=t_d),
        lost_copy_charge=charge,
        n_packets=n,
        log_deferral_ns=run.meta.deferral_ns,
        channels=channel_metrics,
        link=link,
    )


def _evaluate(run: RunLog, params: DaParams, cols: _Derived) -> MetricsReport:
    params.validate()
    t_d, virtual = _resolve(run, params)
    return _assemble(run, params, t_d, _accumulate(cols, params, t_d, virtual))


def compute_report(run: RunLog, params: DaParams) -> MetricsReport:
    """Evaluate all per-channel and link metrics of a run under one
    duplication-avoidance configuration."""
    return _evaluate(run, params, _derive(run))


def sweep(run: RunLog, grid: Sequence[DaParams]) -> list[MetricsReport]:
    """Evaluate one report per grid point, all from the same base log, so
    different mechanisms and parameters are compared on identical data.

    The points share the arrays derived from the run, so each latency
    population is reduced once for the whole grid."""
    if not grid:
        raise ValueError("sweep grid must not be empty")
    cols = _derive(run)
    reports = []
    for point, params in enumerate(grid):
        try:
            reports.append(_evaluate(run, params, cols))
        except ValueError as exc:
            raise SweepError(point, exc) from exc
    return reports


@dataclass(frozen=True, slots=True)
class OracleSummary:
    """Exact attempt accounting from per-attempt traces."""

    attempts_bar_pow: Fraction  # recorded attempts per packet, all channels
    attempts_bar_da: Fraction  # ditto after exact early termination
    early_bar_exact: Fraction  # mean count of copies with >= 1 saved attempt


def oracle_attempt_summary(run: RunLog, t_lre_ns: int, t_d_ns: int = 0) -> OracleSummary:
    """Aggregate the exact oracle of ``da.oracle_saved_attempts`` over a
    full-trace log that ``validate_run`` accepts, with T_LRE and T_D checked
    and resolved as a report's. An attempt is kept iff its start minus its
    copy's ``_other_ends`` is at most the copy's T_LRE + c (``_Derived``), so
    a copy loses an attempt iff its ``_leads`` lead under the oracle policy
    exceeds it."""
    params = DaParams(DaMode.TDD if t_d_ns else DaMode.RDA, t_lre_ns, t_d_ns)
    params.validate()
    t_d, virtual = _resolve(run, params)
    t = run.trace
    if t is None or not t.lengths().all():
        raise TraceRequiredError("exact early-termination analysis needs per-attempt traces")
    n, dropped, early = run.meta.n_packets, 0, 0
    offsets = (t_d, -t_d) if virtual else (0,) * len(run.channels)
    for j, (others, c) in enumerate(zip(_other_ends(run), offsets)):
        rows = t.offsets[j * n : (j + 1) * n + 1]
        # starts increase, so the attempts a copy drops end its trace
        drop = t.start[rows[0] : rows[-1]] - np.repeat(others, np.diff(rows)) > t_lre_ns + c
        dropped += int(np.count_nonzero(drop))
        early += int(np.count_nonzero(drop[rows[1:] - rows[0] - 1]))
    attempts = int(run.attempts.sum())
    return OracleSummary(Fraction(attempts, n), Fraction(attempts - dropped, n), Fraction(early, n))


# --- rendering ---------------------------------------------------------------


def _sig4(value: Fraction | float) -> float:
    return float(f"{float(value):.4g}")


def _pct(value: Fraction | None) -> float | None:
    return None if value is None else _sig4(100 * value)


def _latency_dict(stats: LatencyStats | None) -> dict | None:
    if stats is None:
        return None
    return {
        "mean_us": _sig4(stats.mean_ns / 1000),
        "std_us": _sig4(stats.std_ns / 1000),
        "median_us": _sig4(stats.median_ns / 1000),
        "p99_99_us": _sig4(stats.p99_99_ns / 1000),
        "max_us": _sig4(stats.max_ns / 1000),
        "population": stats.population,
    }


def _quality_dict(m: ChannelMetrics | LinkMetrics) -> dict:
    return {"latency": _latency_dict(m.latency), "miss_10ms_pct": _pct(m.miss_10ms),
            "miss_100ms_pct": _pct(m.miss_100ms), "loss_pct": _pct(m.loss)}


def report_to_dict(report: MetricsReport) -> dict:
    def channel_dict(m: ChannelMetrics) -> dict:
        return {
            "e_pct": _pct(m.early_bar),
            "z_pct": _pct(m.simplex_bar),
            "w_mean": _sig4(m.attempts_bar),
            "eta_pct": _pct(m.efficiency),
            **_quality_dict(m),
        }

    link, params = report.link, report.params
    return {
        "params": {
            "mode": params.mode.value,
            "t_lre_us": params.t_lre_ns / 1000,
            "t_d_us": params.t_d_ns / 1000,
            "failed_copy_policy": params.failed_copy_policy.value,
            "lost_copy_policy": "measured-max" if params.lost_copy_attempts is None else "fixed",
            "lost_copy_charge": report.lost_copy_charge,
        },
        "n_packets": report.n_packets,
        "log_deferral_us": report.log_deferral_ns / 1000,
        "channels": {label: channel_dict(m) for label, m in report.channels.items()},
        "link": {
            "e_pct": _pct(link.early_bar),
            "z_pct": _pct(link.simplex_bar),
            "w_pow_mean": _sig4(link.attempts_bar_pow),
            "eta_pow_pct": _pct(link.efficiency_pow),
            "eta_check_pct": _pct(link.efficiency_floor),
            "theta_hat_pct": _pct(link.load_vs_pow),
            "Theta_hat_pct": _pct(link.load_vs_simplex),
            **_quality_dict(link),
        },
    }


SWEEP_CSV_COLUMNS = (
    "mode",
    "T_LRE_us",
    "T_D_us",
    "e_bar",
    "z_bar",
    "theta_hat",
    "Theta_hat",
    "eta_check",
    "d_mean_us",
    "d_p9999_us",
    "loss_pct",
    "miss10ms_pct",
    "miss100ms_pct",
)


def write_sweep_csv(reports: Iterable[MetricsReport], sink: IO[str]) -> None:
    """One row per grid point, ready for plotting."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for report in reports:
        link = report.link
        lat = link.latency
        writer.writerow(
            [
                report.params.mode.value,
                report.params.t_lre_ns / 1000,
                report.params.t_d_ns / 1000,
                _sig4(link.early_bar),
                _sig4(link.simplex_bar),
                _sig4(link.load_vs_pow),
                _sig4(link.load_vs_simplex),
                _sig4(link.efficiency_floor),
                _sig4(lat.mean_ns / 1000) if lat else "",
                _sig4(lat.p99_99_ns / 1000) if lat else "",
                _pct(link.loss),
                _pct(link.miss_10ms) if link.miss_10ms is not None else "",
                _pct(link.miss_100ms) if link.miss_100ms is not None else "",
            ]
        )
