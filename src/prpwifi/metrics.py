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
distinct ``T_D``.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterable, Sequence

import numpy as np

from .da import (
    DaMode,
    DaParams,
    FailedCopyPolicy,
    TraceRequiredError,
    oracle_saved_attempts,
)
from .trace import RunLog

MISS_THRESHOLDS_NS = (10_000_000, 100_000_000)  # 10 ms and 100 ms deadlines

_MEDIAN_Q = Fraction(1, 2)
_P9999_Q = Fraction(9999, 10000)

_FAR = 1 << 62  # orders lost copies last in minima
_TW_EXCLUDED = -(1 << 62)  # forces the termination test false


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
    held as uint64) are split into three 22-bit limbs. Limb sums and limb
    dot products are taken in int64 over chunks small enough not to
    overflow, then combined as Python ints.
    """
    n = len(ordered)
    base = int(ordered[0])
    offsets = ordered.view(np.uint64) - np.uint64(base % (1 << 64))
    limbs = [
        ((offsets >> np.uint64(_LIMB_BITS * k)) & _LIMB_MASK).astype(np.int64)
        for k in range(3)
    ]
    t1 = t2 = 0  # sum and sum of squares of the offsets
    for lo in range(0, n, _SUM_CHUNK):
        chunk = [limb[lo : lo + _SUM_CHUNK] for limb in limbs]
        for i in range(3):
            t1 += int(chunk[i].sum()) << (_LIMB_BITS * i)
            for j in range(i, 3):
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
    return LatencyStats(
        mean_ns=s1 / n,
        std_ns=math.sqrt(var),
        median_ns=_nearest_rank(ordered, _MEDIAN_Q),
        p99_99_ns=_nearest_rank(ordered, _P9999_Q),
        max_ns=int(ordered[-1]),
        population=n,
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
class ReportParams:
    mode: DaMode
    t_lre_ns: int
    t_d_ns: int
    failed_copy_policy: FailedCopyPolicy
    lost_copy_policy: str  # "measured-max" or "fixed"
    lost_copy_charge: int


@dataclass(frozen=True, slots=True)
class MetricsReport:
    params: ReportParams
    n_packets: int
    log_deferral_ns: int
    channels: dict[str, ChannelMetrics]
    link: LinkMetrics

    def same_metrics(self, other: "MetricsReport") -> bool:
        """Equality of every measured quantity, ignoring the params echo."""
        return (
            self.n_packets == other.n_packets
            and self.channels == other.channels
            and self.link == other.link
        )


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
class _Population:
    """One delivered-latency population, reduced to what reports use."""

    stats: LatencyStats | None
    miss: tuple[int, int]  # samples above each of MISS_THRESHOLDS_NS


def _population(samples: np.ndarray) -> _Population:
    miss = (
        int((samples > MISS_THRESHOLDS_NS[0]).sum()),
        int((samples > MISS_THRESHOLDS_NS[1]).sum()),
    )
    return _Population(latency_stats(samples), miss)


@dataclass(frozen=True, slots=True)
class _Accumulated:
    """Raw per-run tallies, independent of the evaluation path."""

    early_sum: list[int]
    simplex_sum: list[int]
    simplex_link_count: int
    attempts_delivered: list[int]
    lost_count: list[int]
    max_delivered_attempts: int
    chan_latency: list[_Population]
    link_latency: _Population
    link_lost: int


@dataclass(frozen=True, slots=True)
class _Derived:
    """Arrays derived from a run's columns, shared by the grid points of one
    ``compute_report`` or ``sweep`` call.

    Final-attempt starts per failed-copy policy and latency populations are
    computed on first use and kept.
    """

    run: RunLog
    rx: np.ndarray  # (m, n) receive times, valid where delivered
    start: np.ndarray  # (m, n) final-attempt starts, valid where delivered
    attempts_delivered: list[int]  # attempts summed over delivered copies
    max_delivered_attempts: int
    _tw: dict[FailedCopyPolicy, np.ndarray] = field(default_factory=dict)
    _populations: dict[tuple, _Population] = field(default_factory=dict)

    def tw(self, policy: FailedCopyPolicy) -> np.ndarray:
        """(m, n) final-attempt starts for the termination test (those of
        ``da.policy_final_start``), with _TW_EXCLUDED where the policy
        excludes a lost copy."""
        if policy not in self._tw:
            run = self.run
            lost = run.lost
            tw = np.where(lost, _TW_EXCLUDED, self.start)
            if policy is not FailedCopyPolicy.PESSIMISTIC_ZERO and lost.any():
                timeout = _per_channel(run, "ack_timeout_ns")
                final = run.end - (run.td + timeout)
                known = run.has_td
                t = run.trace
                if t is not None:
                    traced = t.present & (t.lengths().reshape(lost.shape) > 0)
                    final = np.where(traced, t.per_copy(t.start), final)
                    known = known | traced
                if (lost & ~known).any():
                    raise TraceRequiredError(
                        "oracle policy needs traces or frame durations for lost copies"
                    )
                tw = np.where(lost, final, tw)
            self._tw[policy] = tw
        return self._tw[policy]

    def channel_latency(self, j: int) -> _Population:
        key = ("channel", j)
        if key not in self._populations:
            run = self.run
            samples = (self.rx[j] - run.req[j])[~run.lost[j]]
            self._populations[key] = _population(samples)
        return self._populations[key]

    def link_latency(self, t_d: int, recorded: bool) -> _Population:
        """PRP link latency on recorded timestamps, or with the second
        channel's requests virtually displaced by ``t_d``."""
        key = ("link", None) if recorded else ("link", t_d)
        if key not in self._populations:
            run = self.run
            lost = run.lost
            if recorded:
                arrival = np.where(lost, _FAR, self.rx).min(axis=0)
                latency = arrival - run.req.min(axis=0)
            else:
                own = self.rx - run.req + _shift(t_d)
                latency = np.where(lost, _FAR, own).min(axis=0)
            self._populations[key] = _population(latency[~lost.all(axis=0)])
        return self._populations[key]


def _per_channel(run: RunLog, name: str) -> np.ndarray:
    """(m, 1) PHY parameter ``name`` of each channel."""
    return np.array([[getattr(cm.phy, name)] for cm in run.meta.channels])


def _shift(t_d: int) -> np.ndarray:
    """(2, 1) request shift of a virtual displacement by ``t_d``."""
    return np.array([[max(0, -t_d)], [max(0, t_d)]])


def _derive(run: RunLog) -> _Derived:
    # the reconstructions of trace.receive_time and trace.final_attempt_start
    rx = run.end - (_per_channel(run, "sifs_ns") + run.ta)
    delivered = ~run.lost
    return _Derived(
        run=run,
        rx=rx,
        start=rx - run.td,
        attempts_delivered=[
            int(w[ok].sum()) for w, ok in zip(run.attempts, delivered)
        ],
        max_delivered_attempts=(
            int(run.attempts[delivered].max()) if delivered.any() else 0
        ),
    )


def _counts(flags: np.ndarray) -> list[int]:
    return [int(np.count_nonzero(row)) for row in flags]


def _accumulate(
    cols: _Derived, params: DaParams, t_d: int, recorded: bool
) -> _Accumulated:
    """Vectorized evaluation of the per-packet definitions, for any number
    of channels (virtual displacement, like TDD itself, is duplex only)."""
    run = cols.run
    lost = run.lost
    lost_link = lost.all(axis=0)
    early = simplex = np.zeros_like(lost)
    simplex_link = 0
    if params.mode is not DaMode.POW:
        shift = 0 if recorded else _shift(t_d)
        # the cross-ACK fires at the quickest delivered (shifted) end
        ends = np.where(lost, _FAR, run.end + shift)
        quickest = ends.argmin(axis=0)
        columns = np.arange(lost.shape[1])
        tw = cols.tw(params.failed_copy_policy)
        early = ~lost_link & (ends[quickest, columns] + params.t_lre_ns < tw + shift)
        early[quickest, columns] = False
        simplex = early & (run.attempts == 1)
        # a simplex packet has every copy but the quickest's prevented
        fully = simplex.copy()
        fully[quickest, columns] = True
        simplex_link = int(np.count_nonzero(fully.all(axis=0) & ~lost_link))
    return _Accumulated(
        early_sum=_counts(early),
        simplex_sum=_counts(simplex),
        simplex_link_count=simplex_link,
        attempts_delivered=cols.attempts_delivered,
        lost_count=_counts(lost),
        max_delivered_attempts=cols.max_delivered_attempts,
        chan_latency=[cols.channel_latency(j) for j in range(len(lost))],
        link_latency=cols.link_latency(t_d, recorded),
        link_lost=int(np.count_nonzero(lost_link)),
    )


def _assemble(
    run: RunLog, params: DaParams, t_d: int, acc: _Accumulated
) -> MetricsReport:
    channels = run.channels
    phy_by = run.phy_by_channel()
    n = run.meta.n_packets

    if params.lost_copy_attempts is not None:
        lost_policy, charge = "fixed", params.lost_copy_attempts
    else:
        lost_policy = "measured-max"
        charge = acc.max_delivered_attempts or max(
            phy_by[c].retry_limit for c in channels
        )

    channel_metrics: dict[str, ChannelMetrics] = {}
    for j, c in enumerate(channels):
        attempts_total = acc.attempts_delivered[j] + acc.lost_count[j] * charge
        delivered = n - acc.lost_count[j]
        w_bar = Fraction(attempts_total, n)
        latency = acc.chan_latency[j]
        channel_metrics[c.label] = ChannelMetrics(
            early_bar=Fraction(acc.early_sum[j], n),
            simplex_bar=Fraction(acc.simplex_sum[j], n),
            attempts_bar=w_bar,
            efficiency=1 / w_bar,
            latency=latency.stats,
            miss_10ms=Fraction(latency.miss[0], delivered) if delivered else None,
            miss_100ms=Fraction(latency.miss[1], delivered) if delivered else None,
            loss=Fraction(acc.lost_count[j], n),
        )

    e_bar_link = sum((m.early_bar for m in channel_metrics.values()), Fraction(0))
    w_bar_pow = sum((m.attempts_bar for m in channel_metrics.values()), Fraction(0))
    delivered_link = n - acc.link_lost
    link_latency = acc.link_latency
    link = LinkMetrics(
        early_bar=e_bar_link,
        simplex_bar=Fraction(acc.simplex_link_count, n),
        attempts_bar_pow=w_bar_pow,
        efficiency_pow=1 / w_bar_pow,
        efficiency_floor=1 / (w_bar_pow - e_bar_link),
        load_vs_pow=1 - e_bar_link / w_bar_pow,
        load_vs_simplex=len(channels) * (1 - e_bar_link / w_bar_pow),
        latency=link_latency.stats,
        miss_10ms=(
            Fraction(link_latency.miss[0], delivered_link) if delivered_link else None
        ),
        miss_100ms=(
            Fraction(link_latency.miss[1], delivered_link) if delivered_link else None
        ),
        loss=Fraction(acc.link_lost, n),
    )
    return MetricsReport(
        params=ReportParams(
            mode=params.mode,
            t_lre_ns=params.t_lre_ns,
            t_d_ns=t_d,
            failed_copy_policy=params.failed_copy_policy,
            lost_copy_policy=lost_policy,
            lost_copy_charge=charge,
        ),
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


def oracle_attempt_summary(
    run: RunLog, t_lre_ns: int, t_d_ns: int = 0
) -> OracleSummary:
    """Aggregate the exact oracle over a full-trace log."""
    n = run.meta.n_packets
    total_pow = 0
    total_da = 0
    early_exact = 0
    for packet in run.packets:
        kept = oracle_saved_attempts(packet, t_lre_ns, t_d_ns)
        for c, copy in packet.copies.items():
            total_pow += copy.attempts
            total_da += kept[c]
            if kept[c] < copy.attempts:
                early_exact += 1
    return OracleSummary(
        attempts_bar_pow=Fraction(total_pow, n),
        attempts_bar_da=Fraction(total_da, n),
        early_bar_exact=Fraction(early_exact, n),
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


def report_to_dict(report: MetricsReport) -> dict:
    def channel_dict(m: ChannelMetrics) -> dict:
        return {
            "e_pct": _pct(m.early_bar),
            "z_pct": _pct(m.simplex_bar),
            "w_mean": _sig4(m.attempts_bar),
            "eta_pct": _pct(m.efficiency),
            "latency": _latency_dict(m.latency),
            "miss_10ms_pct": _pct(m.miss_10ms),
            "miss_100ms_pct": _pct(m.miss_100ms),
            "loss_pct": _pct(m.loss),
        }

    link = report.link
    return {
        "params": {
            "mode": report.params.mode.value,
            "t_lre_us": report.params.t_lre_ns / 1000,
            "t_d_us": report.params.t_d_ns / 1000,
            "failed_copy_policy": report.params.failed_copy_policy.value,
            "lost_copy_policy": report.params.lost_copy_policy,
            "lost_copy_charge": report.params.lost_copy_charge,
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
            "latency": _latency_dict(link.latency),
            "miss_10ms_pct": _pct(link.miss_10ms),
            "miss_100ms_pct": _pct(link.miss_100ms),
            "loss_pct": _pct(link.loss),
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
