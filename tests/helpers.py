"""Shared builders for hand-made logs and desk-scale simulation setups, and
the reference specifications that the product paths are checked against
(interference from general intervals, the sequential MAC, the f-string
encoder, the fixed-layout block grammar, PRP pairing, the per-packet
report, the per-packet oracle summary and virtual deferral by shifted
columns)."""
from __future__ import annotations

import json
import math
import random
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from prpwifi import (
    ChannelId,
    ChannelMeta,
    ChannelSetup,
    DaMode,
    DaParams,
    InterferenceParams,
    InvalidRunError,
    LatencyStats,
    MetricsReport,
    OracleSummary,
    PhyParams,
    RunLog,
    RunMeta,
    SimConfig,
    SimConfigError,
    VIEW_ADAPTER,
    VIEW_FULL_TRACE,
    latency_stats,
)
from prpwifi.da import (
    DEFAULT_VIRTUAL_DEFER_LIMIT_NS,
    DaFlags,
    oracle_saved_attempts,
    rda_flags,
    tdd_flags,
    tdd_latency,
)
from prpwifi.metrics import MISS_THRESHOLDS_NS, _Accumulated, _assemble, _resolve
from prpwifi.sim import _acquire, bulk_stream, mac_stream
from prpwifi.trace import (
    AttemptTrace,
    CopyRecord,
    PacketRecord,
    _meta_to_dict,
    final_attempt_start,
    receive_time,
)

CH_A = ChannelId(0, "A")
CH_B = ChannelId(1, "B")

# PHY used by hand-built logs: numbers chosen so reconstructions are easy to
# follow (success tail 334 us, failure tail 360 us).
HAND_PHY = PhyParams(
    sifs_ns=10_000,
    ack_timeout_ns=60_000,
    data_frame_ns=300_000,
    ack_frame_ns=24_000,
)
SUCCESS_TAIL_NS = 334_000  # data + sifs + ack
FAIL_TAIL_NS = 360_000  # data + ack timeout

# Interference profile for fast runs: same ~30% duty cycle per interferer as
# the default pattern but on a ~70x shorter timescale, so short periods keep
# latencies well below the generation period.
DESK_INTERFERENCE = InterferenceParams(
    interferer_count=1,
    payload_airtime_ns=300_000,
    intra_burst_spacing_ns=400_000,
    burst_len_mean=3.0,
    burst_len_cap=12,
    gap_mean_ns=2_800_000,
    gap_cap_ns=280_000_000,
)
DESK_PERIOD_NS = 4_000_000


def desk_interference(count: int) -> InterferenceParams:
    return InterferenceParams(
        interferer_count=count,
        payload_airtime_ns=DESK_INTERFERENCE.payload_airtime_ns,
        intra_burst_spacing_ns=DESK_INTERFERENCE.intra_burst_spacing_ns,
        burst_len_mean=DESK_INTERFERENCE.burst_len_mean,
        burst_len_cap=DESK_INTERFERENCE.burst_len_cap,
        gap_mean_ns=DESK_INTERFERENCE.gap_mean_ns,
        gap_cap_ns=DESK_INTERFERENCE.gap_cap_ns,
    )


def desk_config(
    n_packets: int,
    seed: int,
    interferers_b: int = 2,
    interferers_a: int = 0,
    loss_prob: float = 0.02,
    full_trace: bool = True,
    period_ns: int = DESK_PERIOD_NS,
) -> SimConfig:
    return SimConfig(
        channels=(
            ChannelSetup(
                channel=CH_A,
                interference=desk_interference(interferers_a),
                loss_prob=loss_prob,
            ),
            ChannelSetup(
                channel=CH_B,
                interference=desk_interference(interferers_b),
                loss_prob=loss_prob,
            ),
        ),
        n_packets=n_packets,
        period_ns=period_ns,
        seed=seed,
        emit_full_trace=full_trace,
    )


def make_success_copy(
    request_ns: int,
    end_ns: int,
    attempts: int = 1,
    phy: PhyParams = HAND_PHY,
    trace: tuple[AttemptTrace, ...] | None = None,
) -> CopyRecord:
    return CopyRecord(
        lost=False,
        request_ns=request_ns,
        end_ns=end_ns,
        attempts=attempts,
        final_data_ns=phy.data_frame_ns,
        final_ack_ns=phy.ack_frame_ns,
        trace=trace,
    )


def make_lost_copy(
    request_ns: int,
    end_ns: int,
    attempts: int,
    phy: PhyParams = HAND_PHY,
    with_duration: bool = False,
    trace: tuple[AttemptTrace, ...] | None = None,
) -> CopyRecord:
    return CopyRecord(
        lost=True,
        request_ns=request_ns,
        end_ns=end_ns,
        attempts=attempts,
        final_data_ns=phy.data_frame_ns if (with_duration or trace) else None,
        final_ack_ns=None,
        trace=trace,
    )


def make_run(
    packets: list[PacketRecord],
    phy: PhyParams = HAND_PHY,
    period_ns: int = 100_000_000,
    deferral_ns: int = 0,
    view: str = VIEW_ADAPTER,
    channels: tuple[ChannelId, ...] = (CH_A, CH_B),
) -> RunLog:
    meta = RunMeta(
        n_packets=len(packets),
        period_ns=period_ns,
        seed=0,
        view=view,
        channels=tuple(ChannelMeta(channel=c, phy=phy) for c in channels),
        deferral_ns=deferral_ns,
    )
    return RunLog.from_packets(meta, packets)


def trace_from_starts(
    starts: list[int], lost: bool, phy: PhyParams = HAND_PHY
) -> tuple[AttemptTrace, ...]:
    """Attempt traces at the given start times; only the last may succeed."""
    entries = []
    for pos, start in enumerate(starts):
        last = pos == len(starts) - 1
        ok = last and not lost
        entries.append(
            AttemptTrace(
                start_ns=start,
                data_ns=phy.data_frame_ns,
                ack_ns=phy.ack_frame_ns if ok else None,
            )
        )
    return tuple(entries)


def copy_from_starts(
    request_ns: int, starts: list[int], lost: bool, phy: PhyParams = HAND_PHY
) -> CopyRecord:
    """Build a fully consistent traced copy from its attempt start times."""
    trace = trace_from_starts(starts, lost, phy)
    tail = FAIL_TAIL_NS if lost else SUCCESS_TAIL_NS
    return CopyRecord(
        lost=lost,
        request_ns=request_ns,
        end_ns=starts[-1] + tail,
        attempts=len(starts),
        final_data_ns=phy.data_frame_ns,
        final_ack_ns=None if lost else phy.ack_frame_ns,
        trace=trace,
    )


# The four-packet worked example: all copies delivered, flags at T_LRE = 0
# come out as e_A = (1,0,0,1) with w_A = (2,1,1,1) and e_B = (0,1,0,0) with
# w_B = (1,1,3,2).
WORKED_E_A = (1, 0, 0, 1)
WORKED_E_B = (0, 1, 0, 0)
WORKED_W_A = (2, 1, 1, 1)
WORKED_W_B = (1, 1, 3, 2)


def worked_example_run() -> RunLog:
    period = 100_000_000
    # per packet: (end_A - request, w_A, end_B - request, w_B), chosen so the
    # final-attempt reconstruction yields the flag pattern above
    rows = [
        (934_000, 2, 400_000, 1),  # B quickest; A's final start 600us > 400us
        (400_000, 1, 800_000, 1),  # A quickest; B's final start 466us > 400us
        (400_000, 1, 700_000, 3),  # A quickest; B's final start 366us < 400us
        (934_000, 1, 500_000, 2),  # B quickest; A's final start 600us > 500us
    ]
    packets = []
    for i, (end_a, w_a, end_b, w_b) in enumerate(rows):
        request = i * period
        packets.append(
            PacketRecord(
                index=i + 1,
                copies={
                    CH_A: make_success_copy(request, request + end_a, w_a),
                    CH_B: make_success_copy(request, request + end_b, w_b),
                },
            )
        )
    return make_run(packets, period_ns=period)


def copy_latency(copy: CopyRecord, phy: PhyParams) -> int:
    """Transmission latency of a delivered copy on its own channel."""
    return receive_time(copy, phy) - copy.request_ns


def frac(num: int, den: int) -> Fraction:
    return Fraction(num, den)


def latency_stats_spec(samples: list[int]) -> LatencyStats | None:
    """Pure-Python statistics that ``metrics.latency_stats`` must reproduce
    exactly: nearest-rank median and 99.99th percentile (rank = ceil(q*n),
    1-based), mean and population standard deviation from exact integer
    sums, and the samples above each deadline."""
    n = len(samples)
    if n == 0:
        return None
    ordered = sorted(samples)
    s1 = sum(ordered)
    s2 = sum(x * x for x in ordered)
    var = Fraction(n * s2 - s1 * s1, n * n)

    def nearest_rank(q: Fraction) -> int:
        return ordered[max(1, math.ceil(q * n)) - 1]

    return LatencyStats(
        mean_ns=s1 / n,
        std_ns=math.sqrt(var),
        median_ns=nearest_rank(Fraction(1, 2)),
        p99_99_ns=nearest_rank(Fraction(9999, 10000)),
        max_ns=ordered[-1],
        population=n,
        over_10ms=sum(x > MISS_THRESHOLDS_NS[0] for x in ordered),
        over_100ms=sum(x > MISS_THRESHOLDS_NS[1] for x in ordered),
    )


def _copy_error_spec(copy: CopyRecord, phy: PhyParams) -> str | None:
    """The message of the first copy or trace check that ``copy`` fails."""
    if copy.request_ns < 0:
        return "request time must be non-negative"
    if copy.end_ns <= copy.request_ns:
        return "end of transmission must follow the request"
    if copy.end_ns >= 1 << 62:
        return "end of transmission must come before 2^62 ns"
    if copy.attempts < 1:
        return "attempt count must be >= 1"
    if not copy.lost:
        if copy.final_data_ns is None or copy.final_ack_ns is None:
            return "delivered copies need both frame durations"
    elif copy.final_ack_ns is not None:
        return "lost copies carry no ACK duration"
    if any(d is not None and d <= 0 for d in (copy.final_data_ns, copy.final_ack_ns)):
        return "frame durations must be positive"
    if copy.final_data_ns is not None and final_attempt_start(copy, phy) < copy.request_ns:
        return "the final attempt must not start before the request"
    if copy.trace is not None:
        if len(copy.trace) != copy.attempts:
            return "trace length must equal the attempt count"
        for prev, cur in zip(copy.trace, copy.trace[1:]):
            if cur.start_ns <= prev.start_ns:
                return "attempt starts must strictly increase"
        if any(a.data_ns <= 0 or (a.ack_ns or 0) < 0 for a in copy.trace):
            return "attempt frame durations must be positive"
        if any(a.succeeded for a in copy.trace[:-1]):
            return "only the final attempt may succeed"
        if copy.trace[-1].succeeded == copy.lost:
            return "trace outcome contradicts the loss flag"
        last = copy.trace[-1]
        if (copy.final_data_ns, copy.final_ack_ns) != (last.data_ns, last.ack_ns):
            return "final frame durations must be the last attempt's"
    return None


def validate_run_spec(run: RunLog) -> None:
    """Per-packet pass over every structural invariant, in the order that
    ``trace.validate_run`` must reproduce: the first offending packet, and
    for it the first failing check, decide the message, which names the
    packet by its position, and the channel of a copy or trace check."""
    run.meta.validate()
    packets = run.packets
    if len(packets) != run.meta.n_packets:
        raise InvalidRunError(
            f"meta says {run.meta.n_packets} packets, log has {len(packets)}"
        )
    channels = run.channels
    phy_by = run.phy_by_channel()
    last_end = {c: -1 for c in channels}
    for number, packet in enumerate(packets, start=1):
        error = None
        if packet.index != number:
            error = f"packet indices must run 1..N without gaps (saw {packet.index})"
        elif run.meta.deferral_ns == 0:
            requests = [packet.copies[c].request_ns for c in channels]
            if max(requests) - min(requests) > run.meta.request_epsilon_ns:
                error = "request skew exceeds epsilon"
        else:  # a displacement needs a duplex link (RunMeta.validate)
            skew = (
                packet.copies[channels[1]].request_ns
                - packet.copies[channels[0]].request_ns
            )
            if skew != run.meta.deferral_ns:
                error = (
                    f"request skew {skew} does not match "
                    f"the recorded displacement {run.meta.deferral_ns}"
                )
        if error is not None:
            raise InvalidRunError(f"packet {number}: {error}")
        for channel in channels:
            copy = packet.copies[channel]
            error = _copy_error_spec(copy, phy_by[channel])
            if error is None and copy.trace is not None:
                if copy.trace[0].start_ns <= last_end[channel]:
                    error = "attempts overlap the previous packet"
                elif final_attempt_start(copy, phy_by[channel]) != copy.trace[-1].start_ns:
                    error = "final-attempt reconstruction mismatch"
            if error is not None:
                raise InvalidRunError(f"packet {number}, channel {channel.label}: {error}")
            last_end[channel] = copy.end_ns


def lossy_config(n_packets: int, seed: int, full_trace: bool) -> SimConfig:
    """Interfered desk run with lost copies on either channel and on the
    link (retry limit 2 at 30 % attempt loss)."""
    config = desk_config(
        n_packets, seed, interferers_a=1, loss_prob=0.3, full_trace=full_trace
    )
    channels = tuple(replace(c, phy=PhyParams(retry_limit=2)) for c in config.channels)
    return replace(config, channels=channels)


# --- interference (the specification of sim.interference_arrays) -----------


def _interferer_intervals_spec(
    params: InterferenceParams,
    horizon_ns: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Busy intervals of a single interferer up to the horizon, each built
    as a (start, end) pair; bursts are drawn in chunks sized from the
    horizon."""
    spacing = params.intra_burst_spacing_ns
    airtime = params.payload_airtime_ns
    cycle_estimate = params.burst_len_mean * spacing + params.gap_mean_ns
    chunk = max(16, int(horizon_ns / cycle_estimate * 1.3) + 8)

    starts_chunks: list[np.ndarray] = []
    ends_chunks: list[np.ndarray] = []
    t = 0
    while t < horizon_ns:
        counts = rng.exponential(params.burst_len_mean, size=chunk)
        counts = np.minimum(counts.astype(np.int64) + 1, params.burst_len_cap)
        gaps = rng.exponential(params.gap_mean_ns, size=chunk)
        gaps = np.minimum(gaps.astype(np.int64), params.gap_cap_ns)
        spans = (counts - 1) * spacing + airtime
        # each cycle: idle gap, then the burst
        cycle = gaps + spans
        burst_starts = t + np.cumsum(cycle) - spans
        total = int(counts.sum())
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        intra = (np.arange(total, dtype=np.int64) - offsets) * spacing
        pkt_starts = np.repeat(burst_starts, counts) + intra
        starts_chunks.append(pkt_starts)
        ends_chunks.append(pkt_starts + airtime)
        t = int(burst_starts[-1] + spans[-1])
    starts = np.concatenate(starts_chunks)
    ends = np.concatenate(ends_chunks)
    keep = starts < horizon_ns
    return starts[keep], ends[keep]


def _merge_intervals_spec(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Union of general (start, end) intervals, touching ones merged."""
    if len(starts) == 0:
        return starts, ends
    order = np.argsort(starts, kind="stable")
    s = starts[order]
    e = np.maximum.accumulate(ends[order])
    new_group = np.empty(len(s), dtype=bool)
    new_group[0] = True
    new_group[1:] = s[1:] > e[:-1]
    idx = np.flatnonzero(new_group)
    group_ends = np.append(idx[1:], len(s)) - 1
    return s[idx], e[group_ends]


def interference_arrays_spec(
    params: InterferenceParams,
    horizon_ns: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """``sim.interference_arrays`` from general intervals, without its
    ``TIME_LIMIT_NS`` sentinel: every packet of every interferer as a
    (start, end) pair, then their union. It is only defined where no draw
    or sum passes int64."""
    if horizon_ns <= 0:
        raise SimConfigError("horizon must be positive")
    params.validate()
    if params.interferer_count == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    child_seeds = rng.integers(0, 1 << 63, size=params.interferer_count)
    all_starts = []
    all_ends = []
    for child_seed in child_seeds:
        child = np.random.default_rng(int(child_seed))
        s, e = _interferer_intervals_spec(params, horizon_ns, child)
        all_starts.append(s)
        all_ends.append(e)
    return _merge_intervals_spec(np.concatenate(all_starts), np.concatenate(all_ends))


# --- sequential MAC (the specification of sim._simulate_channel) -------------


@dataclass(slots=True)
class ChannelState:
    """Mutable per-channel MAC state and output columns.

    The state is the busy intervals, the scan position in them, and the
    time the adapter becomes free after its previous copy. Each simulated
    copy appends its loss flag, end of transmission, attempt count and
    final DATA duration; with traces, each attempt appends its start, DATA
    duration and outcome.
    """

    busy_starts: list[int]
    busy_ends: list[int]
    cursor: int = 0
    free_at_ns: int = 0
    lost: list[bool] = field(default_factory=list)
    end: list[int] = field(default_factory=list)
    attempts: list[int] = field(default_factory=list)
    final_data: list[int] = field(default_factory=list)
    attempt_start: list[int] = field(default_factory=list)
    attempt_data: list[int] = field(default_factory=list)
    attempt_ok: list[bool] = field(default_factory=list)


def simulate_copy(
    state: ChannelState,
    request_ns: int,
    phy: PhyParams,
    loss_prob: float,
    backoff_rng: random.Random,
    error_rng: random.Random,
    collect_trace: bool = True,
) -> None:
    """Transmit one packet copy (initial try plus retries up to the limit)
    and append its outcome to the state's columns.

    The contention window starts at cw_min and doubles after each failed
    attempt, saturating at cw_max. A successful attempt ends with
    DATA + SIFS + ACK, a failed one with DATA + ACK timeout; medium
    acquisition reserves the longer of the two so the outcome never
    retroactively conflicts with interference.
    """
    t = max(request_ns, state.free_at_ns)
    sifs_ack = phy.sifs_ns + phy.ack_frame_ns
    ack_to = phy.ack_timeout_ns
    tail = sifs_ack if sifs_ack > ack_to else ack_to
    difs = phy.difs_ns
    slot = phy.slot_ns
    cw_max = phy.cw_max
    retry_limit = phy.retry_limit
    fixed_data = None if phy.data_frame_schedule_ns else phy.data_frame_ns
    backoff_uniform = backoff_rng.random
    error_uniform = error_rng.random
    starts = state.busy_starts
    ends = state.busy_ends
    k = state.cursor
    n_busy = len(starts)
    trace_start = state.attempt_start
    trace_data = state.attempt_data
    trace_ok = state.attempt_ok

    cw = phy.cw_min
    attempt = 0
    while True:
        attempt += 1
        # uniform backoff draw in [0, cw]; one draw per attempt
        slots = int(backoff_uniform() * (cw + 1))
        data_ns = fixed_data if fixed_data is not None else int(phy.data_frame_for_attempt(attempt))
        if k >= n_busy:
            start = t + difs + slots * slot  # idle medium from here on
        else:
            start, k = _acquire(starts, ends, k, t, difs, slot, slots, data_ns + tail)
        ok = error_uniform() >= loss_prob
        end = start + data_ns + (sifs_ack if ok else ack_to)
        if collect_trace:
            trace_start.append(start)
            trace_data.append(data_ns)
            trace_ok.append(ok)
        t = end
        if ok or attempt == retry_limit:
            break
        cw = min(2 * cw + 1, cw_max)
    state.cursor = k
    state.free_at_ns = end
    state.lost.append(not ok)
    state.end.append(end)
    state.attempts.append(attempt)
    state.final_data.append(data_ns)


def simulate_channel_spec(setup: ChannelSetup, config: SimConfig, request_offset_ns: int):
    """One channel's columns from the sequential MAC, keyed like
    ``sim._simulate_channel``'s (attempt rows only with traces). The
    interference horizon is the last undeferred request plus the margin,
    whatever ``request_offset_ns``."""
    label = setup.channel.label
    horizon = (config.n_packets - 1) * config.period_ns + config.interference_margin_ns
    busy_s, busy_e = interference_arrays_spec(
        setup.interference,
        horizon,
        bulk_stream(config.seed, setup.seed_salt, label, "interference"),
    )
    state = ChannelState(busy_starts=busy_s.tolist(), busy_ends=busy_e.tolist())
    backoff_rng = mac_stream(config.seed, setup.seed_salt, label, "backoff")
    error_rng = mac_stream(config.seed, setup.seed_salt, label, "error")
    n, period = config.n_packets, config.period_ns
    for i in range(n):
        simulate_copy(
            state,
            i * period + request_offset_ns,
            setup.phy,
            setup.loss_prob,
            backoff_rng,
            error_rng,
            collect_trace=config.emit_full_trace,
        )
    lost = np.array(state.lost, dtype=bool)
    delivered = ~lost
    # adapter view: the driver exposes no frame durations for lost copies
    carried = np.ones(n, dtype=bool) if config.emit_full_trace else delivered
    copies = {
        "lost": lost,
        "req": np.arange(n, dtype=np.int64) * period + request_offset_ns,
        "end": np.array(state.end, dtype=np.int64),
        "attempts": np.array(state.attempts, dtype=np.int64),
        "td": np.where(carried, np.array(state.final_data, dtype=np.int64), 0),
        "ta": np.where(delivered, setup.phy.ack_frame_ns, 0),
    }
    if not config.emit_full_trace:
        return copies, None
    attempts = {
        "start": np.array(state.attempt_start, dtype=np.int64),
        "data": np.array(state.attempt_data, dtype=np.int64),
        "ack": np.where(state.attempt_ok, setup.phy.ack_frame_ns, 0),
    }
    return copies, attempts


# --- f-string encoder (the specification of trace.encode_log) ----------------


def _encode_copies_spec(run: RunLog, j: int) -> list[str]:
    """JSON text of channel ``j``'s copies."""
    head = '{"ch":%s,"l":' % json.dumps(run.meta.channels[j].channel.label)
    n = len(run.index)
    traces: list[str | None] = [None] * n
    t = run.trace
    if t is not None:
        offsets = t.offsets[j * n : (j + 1) * n + 1]
        rows = slice(offsets[0], offsets[-1])
        entries = [
            f'{{"tW":{s},"Td":{d},"Ta":{a},"ok":1}}' if a else f'{{"tW":{s},"Td":{d},"ok":0}}'
            for s, d, a in zip(t.start[rows].tolist(), t.data[rows].tolist(), t.ack[rows].tolist())
        ]
        bounds = (offsets - offsets[0]).tolist()
        for pos in np.flatnonzero(np.diff(offsets)).tolist():
            traces[pos] = ",".join(entries[bounds[pos] : bounds[pos + 1]])
    columns = (
        run.lost[j].astype(np.int64).tolist(),
        run.req[j].tolist(),
        run.end[j].tolist(),
        run.attempts[j].tolist(),
        run.td[j].tolist(),
        run.ta[j].tolist(),
        traces,
    )
    return [
        f'{head}{lost},"t_T":{req},"t_X":{end},"w":{w}'
        + (f',"Td":{td}' if td else "")
        + (f',"Ta":{ta}' if ta else "")
        + ("}" if trace is None else f',"trace":[{trace}]}}')
        for lost, req, end, w, td, ta, trace in zip(*columns)
    ]


def encode_log_spec(run: RunLog) -> str:
    """The text ``encode_log`` writes for ``run``: the meta header, then one
    line per packet, formatted one f-string per copy and trace entry."""
    header = json.dumps(_meta_to_dict(run.meta), separators=(",", ":"))
    copies = [_encode_copies_spec(run, j) for j in range(len(run.channels))]
    return "".join(
        [header + "\n"]
        + [
            f'{{"i":{index},"copies":[{",".join(line)}]}}\n'
            for index, *line in zip(run.index.tolist(), *copies)
        ]
    )


# --- fixed-layout block grammar (the specification of BlockParser's check) ---

_POSITIVE_SPEC = r"[1-9][0-9]{0,17}+"
_NUMBER_SPEC = r"-?+(?:0|%s)" % _POSITIVE_SPEC
# a copy entry after its '{"ch":<label>' when it carries both final
# durations (positive) and no trace
_FIXED_REST_SPEC = (
    r',"l":N,"t_T":N,"t_X":N,"w":N,"Td":P,"Ta":P\}'
).replace("P", _POSITIVE_SPEC).replace("N", _NUMBER_SPEC)


def fixed_layout_spec(labels) -> re.Pattern:
    """The grammar of a block of packet lines in the fixed layout for
    channels labelled ``labels``: whole lines, each the packet index, then
    per channel the copy's fields with both final durations and no trace;
    numbers of at most 18 digits without leading zeros."""
    copies = ",".join(
        r'\{"ch":' + re.escape(json.dumps(label)) + _FIXED_REST_SPEC for label in labels
    )
    return re.compile(r'(?:\{"i":%s,"copies":\[%s\]\}\n)*+' % (_NUMBER_SPEC, copies))


# --- virtual deferral by shifted columns --------------------------------------


def virtual_defer(
    run: RunLog,
    t_d_ns: int,
    max_offset_ns: int = DEFAULT_VIRTUAL_DEFER_LIMIT_NS,
    force: bool = False,
) -> RunLog:
    """Shift one channel of a duplex log in post-processing.

    Positive ``t_d_ns`` delays every timestamp of the second channel
    (request, end of transmission, and any trace starts) leaving
    all other quantities untouched; negative values delay the first
    channel. The log's recorded relative displacement is updated, so
    successive shifts compose additively. Shifts whose cumulative
    displacement exceeds ``max_offset_ns`` are refused unless forced,
    since channel stationarity only supports small offsets.
    """
    if t_d_ns == 0:
        return run
    if len(run.channels) != 2:
        raise ValueError("virtual deferral needs a duplex log")
    total = run.meta.deferral_ns + t_d_ns
    if not force and (abs(t_d_ns) > max_offset_ns or abs(total) > max_offset_ns):
        raise ValueError(
            f"virtual displacement of {t_d_ns} ns (cumulative {total} ns) exceeds "
            f"the {max_offset_ns} ns stationarity guard; pass force=True to override"
        )
    j = 1 if t_d_ns > 0 else 0
    offset = abs(t_d_ns)
    shift = np.zeros_like(run.req)
    shift[j] = offset
    trace = run.trace
    if trace is not None:
        n = len(run.index)
        start = trace.start.copy()
        start[trace.offsets[j * n] : trace.offsets[(j + 1) * n]] += offset
        trace = replace(trace, start=start)
    return replace(
        run,
        meta=replace(run.meta, deferral_ns=total),
        req=run.req + shift,
        end=run.end + shift,
        trace=trace,
    )


# --- PRP pairing (the link latency on recorded timestamps) --------------------


@dataclass(frozen=True, slots=True)
class LinkOutcome:
    """PRP pairing result for one packet across all channels."""

    lost: bool
    latency_ns: int | None
    quickest: ChannelId | None


def link_outcome(
    packet: PacketRecord, phy: Mapping[ChannelId, PhyParams]
) -> LinkOutcome:
    """Apply PRP pairing rules to one packet.

    The packet is lost on the link only if every copy is lost. Latency is
    measured from the earliest transmission request among the copies (the
    primary channel's, when requests are deferred) to the earliest receive
    time. The quickest channel is the one whose ACK ends first; ties break
    to the lowest channel index.
    """
    request_ns = min(c.request_ns for c in packet.copies.values())
    quickest: ChannelId | None = None
    quickest_end: int | None = None
    best_latency: int | None = None
    for channel in sorted(packet.copies):
        copy = packet.copies[channel]
        if copy.lost:
            continue
        if quickest_end is None or copy.end_ns < quickest_end:
            quickest, quickest_end = channel, copy.end_ns
        latency = receive_time(copy, phy[channel]) - request_ns
        if best_latency is None or latency < best_latency:
            best_latency = latency
    return LinkOutcome(
        lost=quickest is None, latency_ns=best_latency, quickest=quickest
    )


# --- per-packet report (the specification of metrics.compute_report) ---------


def _accumulate_reference(
    run: RunLog, params: DaParams, t_d: int, recorded: bool
) -> _Accumulated:
    """Per-packet evaluation with the functions of :mod:`prpwifi.da`."""
    channels = run.channels
    phy_by = run.phy_by_channel()
    mode = params.mode
    policy = params.failed_copy_policy
    t_lre = params.t_lre_ns
    m = len(channels)
    pos = {c: j for j, c in enumerate(channels)}

    early_sum = [0] * m
    simplex_sum = [0] * m
    attempts_delivered = [0] * m
    lost_count = [0] * m
    chan_latencies: list[list[int]] = [[] for _ in range(m)]
    max_delivered_attempts = 0
    simplex_link_count = 0
    link_latencies: list[int] = []
    link_lost = 0

    for packet in run.packets:
        if mode is not DaMode.POW:
            if recorded:
                flags: DaFlags = rda_flags(packet, t_lre, phy_by, policy)
            else:
                flags = tdd_flags(packet, t_d, t_lre, phy_by, policy)
            for c, v in flags.early.items():
                if v:
                    early_sum[pos[c]] += 1
            for c, v in flags.simplex.items():
                if v:
                    simplex_sum[pos[c]] += 1
            if flags.simplex_link:
                simplex_link_count += 1

        for j, c in enumerate(channels):
            copy = packet.copies[c]
            if copy.lost:
                lost_count[j] += 1
                continue
            if copy.attempts > max_delivered_attempts:
                max_delivered_attempts = copy.attempts
            attempts_delivered[j] += copy.attempts
            chan_latencies[j].append(copy_latency(copy, phy_by[c]))

        if recorded:
            link_latency = link_outcome(packet, phy_by).latency_ns
        else:
            link_latency = tdd_latency(packet, t_d, phy_by)
        if link_latency is None:
            link_lost += 1
        else:
            link_latencies.append(link_latency)

    return _Accumulated(
        early_sum,
        simplex_sum,
        simplex_link_count,
        attempts_delivered,
        lost_count,
        max_delivered_attempts,
        [latency_stats(np.array(s, dtype=np.int64)) for s in chan_latencies],
        latency_stats(np.array(link_latencies, dtype=np.int64)),
        link_lost,
    )


def compute_report_reference(run: RunLog, params: DaParams) -> MetricsReport:
    """Same result as ``compute_report`` via the per-packet functions of
    :mod:`prpwifi.da` only; slower, used to cross-check the vectorized
    path."""
    t_d, offsets, _ = _resolve(run, params)
    # nonzero offsets mark a virtual T_D; the spec displaces by T_D itself,
    # so a sign error in the offsets is not shared with the report
    return _assemble(run, params, t_d, _accumulate_reference(run, params, t_d, not any(offsets)))


def oracle_attempt_summary_spec(run: RunLog, t_lre_ns: int, t_d_ns: int = 0) -> OracleSummary:
    """Same result as ``metrics.oracle_attempt_summary`` via
    :func:`prpwifi.da.oracle_saved_attempts`, packet by packet, with the
    displacement resolved as ``compute_report_reference`` resolves it."""
    params = DaParams(DaMode.TDD if t_d_ns else DaMode.RDA, t_lre_ns, t_d_ns)
    t_d, offsets, _ = _resolve(run, params)
    n = run.meta.n_packets
    total_pow = total_da = early_exact = 0
    for packet in run.packets:
        kept = oracle_saved_attempts(packet, t_lre_ns, t_d if any(offsets) else 0)
        for c, copy in packet.copies.items():
            total_pow += copy.attempts
            total_da += kept[c]
            early_exact += kept[c] < copy.attempts
    return OracleSummary(
        attempts_bar_pow=Fraction(total_pow, n),
        attempts_bar_da=Fraction(total_da, n),
        early_bar_exact=Fraction(early_exact, n),
    )
