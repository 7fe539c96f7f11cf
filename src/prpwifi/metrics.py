"""Spectrum-consumption and communication-quality metrics.

Every ratio is kept as an exact rational internally and only rounded at
rendering time (4 significant digits, percentage style). Latency statistics
use nearest-rank percentiles (rank = ceil(q*n), 1-based) and population
standard deviation. They are computed in numpy: an int64 sort, and the sum
and sum of squares from int64 limb products combined as Python ints, so
both sums are exact for any int64 latencies.

Reports are computed over the run's per-channel columns for any channel
count. The per-packet functions of :mod:`prpwifi.da` define the same
quantities; the test suite evaluates them packet by packet as the
reference report and cross-checks every report against it.
Each delivered-latency population is reduced once per call: a sweep
computes the channel populations once, the link population on recorded
timestamps once, and the virtually displaced link population once per
distinct ``T_D``. Termination margins are computed once per displacement:
a copy is terminated early iff its margin exceeds ``T_LRE``, so a grid
point only counts margins.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import IO, Iterable, Sequence

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


_LIMB_BITS = 22  # three limbs hold any offset below 2^64
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)
_SUM_CHUNK = 1 << 18  # limb products are < 2^44, so chunk sums stay < 2^62


def _exact_sums(ordered: np.ndarray) -> tuple[int, int]:
    """Exact sum and sum of squares of a sorted int64 array, as Python ints.

    Values are taken relative to the smallest one; the offsets (below 2^64,
    held as uint64) are split into as many 22-bit limbs as the span from
    the smallest to the largest needs (one below 2^22, two below 2^44,
    else three). Limb sums and limb dot products are taken in int64 over
    chunks small enough not to overflow, then combined as Python ints.
    """
    n = len(ordered)
    base = int(ordered[0])
    offsets = ordered.view(np.uint64) - np.uint64(base % (1 << 64))
    width = max(1, -(-(int(ordered[-1]) - base).bit_length() // _LIMB_BITS))
    # limbs are masked in place, all but the top one, which is below 2^22
    limbs = [offsets] + [offsets >> np.uint64(_LIMB_BITS * k) for k in range(1, width)]
    for limb in limbs[:-1]:
        limb &= _LIMB_MASK
    limbs = [limb.view(np.int64) for limb in limbs]
    t1 = t2 = 0  # sum and sum of squares of the offsets
    for lo in range(0, n, _SUM_CHUNK):
        chunk = [limb[lo : lo + _SUM_CHUNK] for limb in limbs]
        for i in range(width):
            t1 += int(chunk[i].sum()) << (_LIMB_BITS * i)
            for j in range(i, width):
                term = int(np.dot(chunk[i], chunk[j])) << (_LIMB_BITS * (i + j))
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
    """Effective displacement and whether flags use recorded timestamps.

    Logs generated with real request displacement are analyzed on their
    recorded timestamps (the displacement is already physical); a TDD
    request must then either leave ``t_d_ns`` at zero or match the log.
    Non-deferred logs are displaced virtually.
    """
    if params.mode is not DaMode.TDD:
        return params.t_d_ns, True
    if len(run.channels) != 2:
        raise ValueError("TDD analysis is defined for duplex logs only")
    if run.meta.deferral_ns != 0:
        if params.t_d_ns not in (0, run.meta.deferral_ns):
            raise ValueError(
                "log already carries a real displacement of "
                f"{run.meta.deferral_ns} ns; omit t_d or pass the same value"
            )
        return run.meta.deferral_ns, True
    return params.t_d_ns, False


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


def _quickest(
    values: np.ndarray, shift: tuple[int, ...], delivered: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per packet: an (m, n) mask of the delivered copy with the least value,
    row j shifted by ``shift[j]`` (ties go to the first channel), that value
    (0 where none was delivered; lost copies compare as _ALWAYS) and whether one was."""
    own = np.zeros(values.shape, dtype=bool)
    own[0] = delivered[0]
    best = np.where(delivered[0], values[0] + shift[0], _ALWAYS)
    # selections: np.where on the (nearly all true) delivery masks, bool algebra for the rest
    for j in range(1, len(values)):
        row = np.where(delivered[j], values[j] + shift[j], _ALWAYS)
        own[j] = row < best  # strict, so a tie stays with the earlier copy
        own[:j] &= ~own[j]
        best = np.minimum(best, row)
    found = delivered.any(axis=0)
    return own, np.where(found, best, 0), found


def _oracle_starts(run: RunLog, start: np.ndarray) -> np.ndarray:
    """``start`` (``trace.final_starts``) with the last traced start of each
    lost copy that has a trace (``da.policy_final_start``)."""
    lost, known = run.lost, run.has_td
    t = run.trace
    if t is not None:
        traced = lost & t.present & (t.lengths().reshape(lost.shape) > 0)
        start = np.where(traced, t.per_copy(t.start), start)
        known = known | traced
    if (lost & ~known).any():
        raise TraceRequiredError("oracle policy needs traces or frame durations for lost copies")
    return start


@dataclass(frozen=True, slots=True)
class _Derived:
    """Arrays derived from a run's columns, shared by the grid points of one
    ``compute_report`` or ``sweep`` call; margins kept for one displacement."""

    run: RunLog
    rx: np.ndarray  # (m, n) receive times, valid where delivered
    start: np.ndarray  # (m, n) final-attempt starts, valid where has_td
    latency: np.ndarray  # (m, n) receive minus request times
    single: np.ndarray  # (m, n) bool, copies sent in one attempt
    attempts_delivered: list[int]  # attempts summed over delivered copies
    max_delivered_attempts: int
    lost_count: list[int]
    link_lost: int  # packets lost on every channel
    chan_latency: list[LatencyStats | None]
    _margins: dict[tuple, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    _populations: dict[tuple | None, LatencyStats | None] = field(default_factory=dict)

    def margins(self, policy: FailedCopyPolicy, shift: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """(m, n) copy and (n,) link margins, row j's requests shifted by
        ``shift[j]``. A copy is terminated early iff its margin (shifted
        final-attempt start minus the cross-ACK, the quickest delivered
        copy's shifted end) exceeds T_LRE, a packet is simplex on the link
        iff the least margin of its other copies, 0 unless sent in one
        attempt, does. A copy never early gets 0 (T_LRE >= 0)."""
        key = (policy, shift)
        if key not in self._margins:
            self._margins.clear()
            run = self.run
            own, quickest_end, found = _quickest(run.end, shift, ~run.lost)
            pessimistic = policy is FailedCopyPolicy.PESSIMISTIC_ZERO
            tw = self.start if pessimistic else _oracle_starts(run, self.start)
            margin = tw - quickest_end + np.array(shift)[:, None]
            # bool products (not masked writes, slow on dense masks) zero never-early copies
            margin *= ~(own | run.lost) if pessimistic else ~own & found
            link = np.maximum(margin * self.single, own * _ALWAYS).min(axis=0)
            self._margins[key] = margin, link
        return self._margins[key]

    def link_latency(self, shift: tuple[int, ...], recorded: bool) -> LatencyStats | None:
        """PRP link latency on recorded timestamps, or with each channel's
        requests virtually displaced by its entry of ``shift``."""
        key = None if recorded else shift
        if key not in self._populations:
            values = self.rx if recorded else self.latency
            _, latency, found = _quickest(values, shift, ~self.run.lost)
            if recorded:  # from the earliest request
                latency -= self.run.req.min(axis=0)
            self._populations[key] = latency_stats(latency[found])
        return self._populations[key]


def _shift(run: RunLog, t_d: int, recorded: bool) -> tuple[int, ...]:
    """Per-channel request shift of a (duplex, if virtual) displacement. A
    virtual |T_D|, like a real one, must stay below the period, and below
    ``TIME_LIMIT_NS`` so that shifted times stay int64."""
    if recorded:
        return (0,) * len(run.channels)
    if abs(t_d) >= run.meta.period_ns:
        raise ValueError(
            f"virtual displacement of {t_d} ns: |T_D| must be smaller than "
            f"the generation period of {run.meta.period_ns} ns"
        )
    if abs(t_d) >= TIME_LIMIT_NS:
        raise ValueError(f"virtual displacement of {t_d} ns: |T_D| must be below 2^62 ns")
    return (max(0, -t_d), max(0, t_d))


def _derive(run: RunLog) -> _Derived:
    rx = receive_times(run)
    delivered = ~run.lost
    latency = rx - run.req
    return _Derived(
        run=run,
        rx=rx,
        start=final_starts(run),
        latency=latency,
        single=run.attempts == 1,
        attempts_delivered=[int(w[ok].sum()) for w, ok in zip(run.attempts, delivered)],
        max_delivered_attempts=int(run.attempts[delivered].max()) if delivered.any() else 0,
        lost_count=_counts(run.lost),
        link_lost=int(np.count_nonzero(~delivered.any(axis=0))),
        chan_latency=[latency_stats(lat[ok]) for lat, ok in zip(latency, delivered)],
    )


def _counts(flags: np.ndarray) -> list[int]:
    return [int(np.count_nonzero(row)) for row in flags]


def _accumulate(
    cols: _Derived, params: DaParams, t_d: int, recorded: bool
) -> _Accumulated:
    """Vectorized evaluation of the per-packet definitions, for any number
    of channels (virtual displacement, like TDD itself, is duplex only)."""
    m = len(cols.lost_count)
    shift = _shift(cols.run, t_d, recorded)
    early_sum, simplex_sum, simplex_link = [0] * m, [0] * m, 0
    if params.mode is not DaMode.POW:
        margin, link = cols.margins(params.failed_copy_policy, shift)
        early = margin > params.t_lre_ns
        early_sum, simplex_sum = _counts(early), _counts(early & cols.single)
        simplex_link = int(np.count_nonzero(link > params.t_lre_ns))
    return _Accumulated(
        early_sum, simplex_sum, simplex_link, cols.attempts_delivered, cols.lost_count,
        cols.max_delivered_attempts, cols.chan_latency, cols.link_latency(shift, recorded),
        cols.link_lost,
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
    t_d, recorded = _resolve(run, params)
    return _assemble(run, params, t_d, _accumulate(cols, params, t_d, recorded))


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
    full-trace log whose trace starts ascend within each copy (which
    ``validate_run`` checks): each copy but the quickest of a packet
    delivered on the link keeps the attempts whose shifted start is at
    most the cross-ACK plus ``t_lre_ns``."""
    t = run.trace
    if t is None or not t.present.all():
        raise TraceRequiredError("exact early-termination analysis needs per-attempt traces")
    m, n = len(run.channels), run.meta.n_packets
    if t_d_ns != 0 and m != 2:
        raise ValueError("deferred-operation analysis needs a duplex packet")
    shift = _shift(run, t_d_ns, t_d_ns == 0)
    own, quickest_end, found = _quickest(run.end, shift, ~run.lost)
    # an attempt is kept iff its start plus its copy's lead is <= T_LRE
    lead = np.subtract(np.array(shift)[:, None], quickest_end).ravel()
    lengths = t.lengths()
    kept_before = np.cumsum(np.append(0, t.start + np.repeat(lead, lengths) <= t_lre_ns))
    counted = kept_before[t.offsets[1:]] - kept_before[t.offsets[:-1]]
    attempts = run.attempts.ravel()
    kept = np.where((counted == lengths) | (own | ~found).ravel(), attempts, counted)
    return OracleSummary(
        attempts_bar_pow=Fraction(int(attempts.sum()), n),
        attempts_bar_da=Fraction(int(kept.sum()), n),
        early_bar_exact=Fraction(int(np.count_nonzero(kept < attempts)), n),
    )


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
