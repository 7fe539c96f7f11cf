from __future__ import annotations

import copy
import io
import json

import pytest
from hypothesis import strategies as st

from prpwifi import PacketRecord, RunLog, VIEW_FULL_TRACE, encode_log, generate_run

from helpers import CH_A, CH_B, copy_from_starts, desk_config, lossy_config, make_run


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
