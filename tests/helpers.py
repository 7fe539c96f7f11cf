"""Shared builders for hand-made logs and desk-scale simulation setups."""
from __future__ import annotations

import math
from fractions import Fraction

from prpwifi import (
    AttemptTrace,
    ChannelId,
    ChannelMeta,
    ChannelSetup,
    CopyRecord,
    ErrorModel,
    InterferenceParams,
    LatencyStats,
    PacketRecord,
    PhyParams,
    RunLog,
    RunMeta,
    SimConfig,
    VIEW_ADAPTER,
    VIEW_FULL_TRACE,
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
                errors=ErrorModel(loss_prob),
            ),
            ChannelSetup(
                channel=CH_B,
                interference=desk_interference(interferers_b),
                errors=ErrorModel(loss_prob),
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
    return RunLog(meta=meta, packets=tuple(packets))


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
                ordinal=pos + 1,
                start_ns=start,
                data_ns=phy.data_frame_ns,
                ack_ns=phy.ack_frame_ns if ok else None,
                succeeded=ok,
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


def frac(num: int, den: int) -> Fraction:
    return Fraction(num, den)


def latency_stats_spec(samples: list[int]) -> LatencyStats | None:
    """Pure-Python statistics that ``metrics.latency_stats`` must reproduce
    exactly: nearest-rank median and 99.99th percentile (rank = ceil(q*n),
    1-based), and mean and population standard deviation from exact
    integer sums."""
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
    )
