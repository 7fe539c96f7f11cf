from __future__ import annotations

import copy
import io
import json

import pytest
from hypothesis import settings, strategies as st

from prpwifi import (
    ChannelId,
    ChannelMeta,
    ChannelSetup,
    InterferenceParams,
    PhyParams,
    RunLog,
    RunMeta,
    SimConfig,
    VIEW_ADAPTER,
    VIEW_FULL_TRACE,
    encode_log,
    generate_run,
)
from prpwifi.trace import AttemptTrace, CopyRecord, PacketRecord

from helpers import CH_A, CH_B, copy_from_starts, desk_config, lossy_config, make_run

# Every property test draws the same examples on every run; a test's own
# @settings (example count, deadline) still apply on top of this profile.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def traced_run() -> RunLog:
    """Small interfered duplex run with full traces, shared across tests."""
    return generate_run(desk_config(n_packets=800, seed=11, interferers_b=2))


@pytest.fixture(scope="session")
def adapter_run() -> RunLog:
    """Adapter-view sibling of a similar setup (separate seed)."""
    return generate_run(
        desk_config(n_packets=800, seed=12, interferers_b=2, full_trace=False)
    )


# --- hypothesis strategies ---------------------------------------------------
#
# Packets are built trace-first so that every structural invariant (ordered
# starts, reconstruction identity, loss consistency) holds by construction.

_GAP = st.integers(min_value=400_000, max_value=5_000_000)


@st.composite
def traced_copies(draw, request_ns: int = 0, lost: bool | None = None):
    if lost is None:
        lost = draw(st.booleans())
    n_attempts = draw(st.integers(min_value=1, max_value=4))
    start = request_ns + draw(st.integers(min_value=34_000, max_value=2_000_000))
    starts = [start]
    for _ in range(n_attempts - 1):
        starts.append(starts[-1] + 360_000 + draw(_GAP))
    return copy_from_starts(request_ns, starts, lost)


@st.composite
def duplex_packets(draw, index: int = 1, request_ns: int = 0):
    copy_a = draw(traced_copies(request_ns))
    copy_b = draw(traced_copies(request_ns))
    return PacketRecord(index=index, copies={CH_A: copy_a, CH_B: copy_b})


@st.composite
def duplex_runs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    period = 30_000_000
    packets = []
    for i in range(n):
        packets.append(draw(duplex_packets(index=i + 1, request_ns=i * period)))
    return make_run(packets, period_ns=period, view=VIEW_FULL_TRACE)


# --- malformed logs ----------------------------------------------------------
#
# A small valid log (either view, lost copies included) with one field of
# one line changed: a wrong type, an out-of-range or merely odd int, another
# channel label, a deleted key or list entry (missing copy, trace shorter
# than ``w``), or a duplicated list entry (duplicate copy, extra attempt).


def _encoded(full_trace: bool) -> list[str]:
    buf = io.StringIO()
    encode_log(generate_run(lossy_config(12, seed=3, full_trace=full_trace)), buf)
    return buf.getvalue().splitlines()


_VALID_LOGS = (_encoded(True), _encoded(False))
_ODD_VALUES = (
    "x", "A", "B", "Z", 1.5, True, None, [], {}, 0, -1, 1, 2, 7,
    2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**70,
)


def _slots(node, path=()):
    """Paths to every dict value and list entry below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


@st.composite
def mutated_logs(draw) -> str:
    lines = list(draw(st.sampled_from(_VALID_LOGS)))
    line = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    record = json.loads(lines[line])
    path = draw(st.sampled_from(list(_slots(record))))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(("set", "set", "set", "delete", "duplicate")))
    if action == "set":
        parent[key] = draw(st.sampled_from(_ODD_VALUES))
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [parent[key], parent[key]]
    lines[line] = json.dumps(record)
    return "\n".join(lines) + "\n"


# --- logs in the encoder's layout ---------------------------------------------
#
# Runs that only need to be encodable, not valid: 2 or 3 channels with
# labels that hold digits, '-', ':', '"', braces, brackets or non-ASCII, any int
# the block grammar accepts (up to +-(10^18 - 1)) and any positive one for a
# frame duration, lost copies without frame durations, and traces that are
# absent or hold one to three attempts with and without an ACK duration.
# Non-positive durations and empty traces are malformed lines, which
# ``NONPOSITIVE_DURATIONS`` and ``test_trace.py`` draw instead.

_LABELS = ("A", "B", "ch-2", "7", "a:1", 'q"5', 'x,{"}', "\u00e9", "\u03a9-0", "[x]", "-1")
_BIG = 10**18 - 1
_VALUES = st.one_of(
    st.sampled_from((0, 1, -1, 2, 300_000, _BIG, -_BIG)),
    st.integers(min_value=-_BIG, max_value=_BIG),
)
_DURATIONS = st.one_of(
    st.sampled_from((1, 2, 300_000, _BIG)), st.integers(min_value=1, max_value=_BIG)
)
_OPTIONAL_DURATIONS = st.none() | _DURATIONS
NONPOSITIVE_DURATIONS = st.one_of(
    st.sampled_from((0, -1, -_BIG)), st.integers(min_value=-_BIG, max_value=0)
)


@st.composite
def _attempts(draw) -> tuple[AttemptTrace, ...]:
    size = draw(st.integers(min_value=1, max_value=3))
    return tuple(
        AttemptTrace(
            ordinal=k + 1,
            start_ns=draw(_VALUES),
            data_ns=draw(_DURATIONS),
            ack_ns=draw(_OPTIONAL_DURATIONS),
        )
        for k in range(size)
    )


_TRACES = st.none() | _attempts()


@st.composite
def encodable_runs(draw, fixed_layout: bool = False) -> RunLog:
    """A full-trace run, or with ``fixed_layout`` an adapter-view run in
    which every copy has both final durations."""
    m = draw(st.integers(min_value=2, max_value=3))
    labels = draw(st.lists(st.sampled_from(_LABELS), min_size=m, max_size=m, unique=True))
    channels = tuple(ChannelId(j, label) for j, label in enumerate(labels))
    n = draw(st.integers(min_value=1, max_value=5))
    meta = RunMeta(
        n_packets=n,
        period_ns=1_000_000,
        seed=0,
        view=VIEW_ADAPTER if fixed_layout else VIEW_FULL_TRACE,
        channels=tuple(ChannelMeta(channel, PhyParams()) for channel in channels),
    )
    packets = [
        PacketRecord(
            index=draw(_VALUES),
            copies={
                channel: CopyRecord(
                    lost=draw(st.booleans()),
                    request_ns=draw(_VALUES),
                    end_ns=draw(_VALUES),
                    attempts=draw(_VALUES),
                    final_data_ns=draw(_DURATIONS if fixed_layout else _OPTIONAL_DURATIONS),
                    final_ack_ns=draw(_DURATIONS if fixed_layout else _OPTIONAL_DURATIONS),
                    trace=None if fixed_layout else draw(_TRACES),
                )
                for channel in channels
            },
        )
        for _ in range(n)
    ]
    return RunLog.from_packets(meta, packets)


# --- simulation configs --------------------------------------------------------

_FRAME_NS = st.integers(min_value=20_000, max_value=600_000)


@st.composite
def _phy(draw) -> PhyParams:
    cw_min = draw(st.sampled_from([0, 1, 3, 7, 15, 31]))
    return PhyParams(
        cw_min=cw_min,
        cw_max=cw_min + draw(st.sampled_from([0, 1, 100, 1023, 5000])),
        retry_limit=draw(st.integers(min_value=1, max_value=21)),
        data_frame_ns=draw(_FRAME_NS),
        ack_frame_ns=draw(st.integers(min_value=10_000, max_value=60_000)),
        data_frame_schedule_ns=draw(
            st.none() | st.lists(_FRAME_NS, min_size=1, max_size=4).map(tuple)
        ),
    )


@st.composite
def _interference(draw) -> InterferenceParams:
    burst_len_mean = draw(st.sampled_from([1.0, 3.0, 10.0]))
    gap_mean_ns = draw(st.integers(min_value=300_000, max_value=5_000_000))
    return InterferenceParams(
        interferer_count=draw(st.integers(min_value=0, max_value=3)),
        payload_airtime_ns=draw(st.integers(min_value=50_000, max_value=600_000)),
        intra_burst_spacing_ns=draw(st.integers(min_value=100_000, max_value=800_000)),
        burst_len_mean=burst_len_mean,
        burst_len_cap=int(burst_len_mean) * draw(st.sampled_from([1, 4])),
        gap_mean_ns=gap_mean_ns,
        gap_cap_ns=gap_mean_ns * 100,
    )


@st.composite
def sim_configs(draw) -> SimConfig:
    """Valid duplex configs across the MAC's regimes: contention windows
    from 0, retry limits 1-21, certain and no loss, per-attempt frame
    schedules, 0-3 interferers, and periods from shorter than one copy
    (queues that never drain) to milliseconds, with or without deferral."""
    period = draw(
        st.integers(min_value=100_000, max_value=1_000_000)
        | st.integers(min_value=1_000_000, max_value=10_000_000)
    )
    offset = draw(st.none() | st.integers(min_value=1 - period, max_value=period - 1))
    return SimConfig(
        channels=tuple(
            ChannelSetup(
                channel=channel,
                phy=draw(_phy()),
                interference=draw(_interference()),
                loss_prob=draw(st.sampled_from([0.0, 0.02, 0.3, 1.0])),
            )
            for channel in (CH_A, CH_B)
        ),
        n_packets=draw(st.integers(min_value=50, max_value=2000)),
        period_ns=period,
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        deferral_ns=0 if offset is None else offset,
    )
