"""Deterministic duplex-link simulator.

Each channel runs a DCF-style MAC: DIFS sensing plus uniform backoff with
contention-window doubling, retries up to the retry limit, and deferral
around busy intervals produced by bursty interfering stations. Interference
only occupies the medium; whether an attempt fails is decided solely by the
per-attempt error model, so the whole-attempt error assumption holds by
construction and no attempt ever overlaps a busy interval on its channel.

Reproducibility: every (channel, purpose) pair draws from its own named
substream derived from the master seed, so reruns are bit-identical and
changing one channel's salt perturbs only that channel's records.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .trace import (
    ATTEMPT_COLUMNS,
    COPY_COLUMNS,
    AttemptTable,
    ChannelId,
    ChannelMeta,
    PhyParams,
    RunLog,
    RunMeta,
    TIME_LIMIT_NS,
    VIEW_ADAPTER,
    VIEW_FULL_TRACE,
    attempt_offsets,
    validate_run,
)

class SimConfigError(ValueError):
    """Invalid simulation configuration."""


@dataclass(frozen=True, slots=True)
class InterferenceParams:
    """Bursty interfering traffic on one channel.

    Each interferer repeatedly emits a burst of packets (count drawn from an
    exponential distribution, then clamped to the cap) whose transmission
    requests are evenly spaced, followed by an exponentially distributed
    idle gap, also clamped. Defaults: bursts of mean 300 packets capped at
    1500 at 1500-byte payloads, requests every 400 us, gaps of mean 200 ms
    capped at 20 s.
    """

    interferer_count: int = 0
    payload_airtime_ns: int = 300_000
    intra_burst_spacing_ns: int = 400_000
    burst_len_mean: float = 300.0
    burst_len_cap: int = 1500
    gap_mean_ns: int = 200_000_000
    gap_cap_ns: int = 20_000_000_000

    def validate(self) -> None:
        """Raise :class:`SimConfigError` naming the config key at fault."""
        for key, value in (
            ("payload_airtime", self.payload_airtime_ns),
            ("burst_spacing", self.intra_burst_spacing_ns),
            ("burst_mean", self.burst_len_mean),
            ("gap_mean", self.gap_mean_ns),
        ):
            if not value > 0:
                raise SimConfigError(f"{key} must be positive")
        if self.burst_len_cap < self.burst_len_mean:
            raise SimConfigError("burst_cap must be >= burst_mean")
        if self.gap_cap_ns < self.gap_mean_ns:
            raise SimConfigError("gap_cap must be >= gap_mean")


@dataclass(frozen=True, slots=True)
class ChannelSetup:
    channel: ChannelId
    phy: PhyParams = PhyParams()
    interference: InterferenceParams = InterferenceParams()
    # per-attempt loss probability; an error hits the attempt as a whole
    # (DATA and ACK together), never the ACK alone
    loss_prob: float = 0.0
    seed_salt: str = ""


@dataclass(frozen=True, slots=True)
class SimConfig:
    channels: tuple[ChannelSetup, ...]
    n_packets: int
    period_ns: int = 100_000_000
    seed: int = 1
    # real transmission deferral: the second channel's requests trail the
    # first's by this much; a negative value defers the first channel
    deferral_ns: int = 0
    emit_full_trace: bool = True
    # Interference is materialized up to the last undeferred request plus
    # this margin, whatever the deferral; the medium is treated as idle
    # beyond it (only the run tail is affected).
    interference_margin_ns: int = 2_000_000_000

    def validate(self) -> None:
        if len(self.channels) != 2:
            raise SimConfigError("duplex link required: exactly two channels")
        try:
            _run_meta(self).validate()  # packets, period, channels and PHY
        except ValueError as exc:
            raise SimConfigError(str(exc)) from None
        for cs in self.channels:
            try:
                cs.interference.validate()
                if not 0.0 <= cs.loss_prob <= 1.0:
                    raise SimConfigError("loss_prob must be within [0, 1]")
            except ValueError as exc:
                raise SimConfigError(f"channel {cs.channel.label}: {exc}") from None
        if abs(self.deferral_ns) >= self.period_ns:
            raise SimConfigError("|deferral| must be smaller than the generation period")
        horizon = (self.n_packets - 1) * self.period_ns + self.interference_margin_ns
        if horizon <= 0:
            raise SimConfigError(
                "margin must keep the interference horizon positive: "
                f"(packets - 1) x period + margin = {horizon} ns"
            )
        # every simulated time stays below the TIME_LIMIT_NS sentinel: no
        # copy ends past the last busy interval, which starts before the
        # interference horizon, or past its request, which |deferral| may
        # move later, by more than every attempt of the run at its longest
        for cs in self.channels:
            phy = cs.phy
            busy_until = horizon + abs(self.deferral_ns) + cs.interference.payload_airtime_ns
            attempts = self.n_packets * phy.retry_limit * (
                phy.difs_ns
                + phy.cw_max * phy.slot_ns
                + max(phy.data_frame_schedule_ns or (phy.data_frame_ns,))
                + max(phy.sifs_ns + phy.ack_frame_ns, phy.ack_timeout_ns)
            )
            if busy_until + attempts >= TIME_LIMIT_NS:
                raise SimConfigError(
                    f"channel {cs.channel.label}: the worst-case end time reaches the "
                    "simulator's limit of 2^62 ns: packets x retry_limit x (difs + "
                    "cw_max x slot + longest data_frame + max(sifs + ack_frame, "
                    f"ack_timeout)) = {attempts} ns after (packets - 1) x period + "
                    f"|deferral| + margin + payload_airtime = {busy_until} ns"
                )
            if cs.interference.interferer_count:
                where = f"channel {cs.channel.label}: "
                _synthesis_caps(cs.interference, horizon, where)

    def request_offsets(self) -> tuple[int, int]:
        """Per-channel request displacement (first, second channel)."""
        return (max(0, -self.deferral_ns), max(0, self.deferral_ns))


# --- rng substreams ---------------------------------------------------------


def mac_stream(seed: int, salt: str, label: str, purpose: str) -> random.Random:
    """Sequential draw stream for per-attempt MAC decisions."""
    return random.Random(f"{seed}/{salt}/{label}/{purpose}")


def bulk_stream(seed: int, salt: str, label: str, purpose: str) -> np.random.Generator:
    """Vectorized draw stream (interference synthesis)."""
    digest = hashlib.sha256(f"{seed}/{salt}/{label}/{purpose}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# --- interference -----------------------------------------------------------


def _synthesis_caps(
    params: InterferenceParams, horizon_ns: int, where: str = ""
) -> tuple[int, int, int]:
    """Bursts drawn per chunk (about 1.3 horizons' worth), and the caps on a
    burst's packet count and gap: a gap or burst as long as the horizon
    moves every later burst past it, so longer ones change nothing below it.
    A config whose chunk at these caps could pass int64 is refused."""
    spacing = params.intra_burst_spacing_ns
    cycle_estimate = params.burst_len_mean * spacing + params.gap_mean_ns
    chunk = max(16, int(horizon_ns / cycle_estimate * 1.3) + 8)
    count_cap = min(params.burst_len_cap, horizon_ns // spacing + 2)
    gap_cap = min(params.gap_cap_ns, horizon_ns)
    cycle = gap_cap + (count_cap - 1) * spacing + params.payload_airtime_ns
    if horizon_ns + chunk * cycle >= 1 << 63:
        raise SimConfigError(
            f"{where}interference synthesis could exceed int64: horizon + bursts per chunk x "
            "(min(gap_cap, horizon) + (min(burst_cap, horizon / burst_spacing + 2) - 1) x "
            f"burst_spacing + payload_airtime) = {horizon_ns} + {chunk} x {cycle} ns"
        )
    return chunk, count_cap, gap_cap


def _interferer_starts(params: InterferenceParams, horizon_ns: int, rng, caps) -> np.ndarray:
    """Sorted busy-interval starts of a single interferer before the
    horizon, its bursts drawn a chunk at a time."""
    spacing, airtime = params.intra_burst_spacing_ns, params.payload_airtime_ns
    chunk, count_cap, gap_cap = caps
    parts, t = [], 0
    while t < horizon_ns:
        # draws are clipped to 2^62 before the cast, above either cap
        counts = np.minimum(rng.exponential(params.burst_len_mean, size=chunk), TIME_LIMIT_NS)
        counts = np.minimum(counts.astype(np.int64) + 1, count_cap)
        gaps = np.minimum(rng.exponential(params.gap_mean_ns, size=chunk), TIME_LIMIT_NS)
        gaps = np.minimum(gaps.astype(np.int64), gap_cap)
        # each cycle: idle gap, then the burst; bursts from the horizon on
        # are dropped
        spans = (counts - 1) * spacing + airtime
        ends = t + np.cumsum(gaps + spans)
        counts = counts[: np.searchsorted(ends - spans, horizon_ns)]
        # a burst's packets start every spacing; its first starts a gap
        # plus an airtime after the previous burst's last
        step = np.full(int(counts.sum()), spacing, dtype=np.int64)
        step[np.cumsum(counts) - counts] = gaps[: len(counts)] + airtime
        step[:1] = t + gaps[0]
        parts.append(np.cumsum(step))
        t = int(ends[-1])
    starts = np.concatenate(parts)
    return starts[: np.searchsorted(starts, horizon_ns)]


def interference_arrays(
    params: InterferenceParams, horizon_ns: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Merged busy intervals of all interferers on one channel, starting
    before the horizon, closed by a ``TIME_LIMIT_NS`` one."""
    if horizon_ns <= 0:
        raise SimConfigError("horizon must be positive")
    params.validate()
    s = np.empty(0, dtype=np.int64)
    if params.interferer_count:
        caps = _synthesis_caps(params, horizon_ns)
        child_seeds = rng.integers(0, 1 << 63, size=params.interferer_count)
        rngs = (np.random.default_rng(int(c)) for c in child_seeds)
        s = np.concatenate([_interferer_starts(params, horizon_ns, r, caps) for r in rngs])
        s.sort(kind="stable")  # a merge of the interferers' sorted runs
    # every interval lasts one airtime: a start more than an airtime after
    # the previous one opens a busy interval, which ends an airtime after
    # its last start
    airtime = params.payload_airtime_ns
    opens = np.flatnonzero(np.diff(s) > airtime)
    close = np.full(1, TIME_LIMIT_NS, dtype=np.int64)
    starts = np.concatenate((s[:1], s[1:][opens], close))
    ends = np.concatenate((s[:-1][opens], s[-1:], close))
    ends[: len(s) and len(opens) + 1] += airtime
    return starts, ends


# --- per-channel MAC --------------------------------------------------------
#
# The MAC is computed with numpy from the same draws as a loop that calls
# random() once per attempt on each of the channel's two mac_streams; the
# tests keep that loop as the specification.

# Copies are simulated in blocks of at most _BLOCK attempts (and at least
# one copy), so no per-attempt array outgrows the budget however lossy the
# channel. A wave jumps each attempt over whole idle gaps with the channel's
# gap table, so it times every copy it is given; a round after round 0 needs
# more than _ROUND_HEADS heads, and fewer are left to the replay. A gap table
# is built _GAP_CHUNK gaps at a time.
_BLOCK, _ROUND_HEADS, _GAP_CHUNK = 1 << 15, 32, 1 << 15


def _uniforms(rng: random.Random) -> Callable[[int], np.ndarray]:
    """``draw(n)``, the next ``n`` values of ``rng.random()``, bit for bit
    (``rng`` itself does not advance): its Mersenne Twister state is loaded
    into numpy's MT19937, whose 32-bit outputs are then combined in pairs
    as CPython's ``genrand_res53`` combines them."""
    state = rng.getstate()[1]
    bits = np.random.MT19937()
    key = np.array(state[:-1], dtype=np.uint32)
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": state[-1]}}

    def draw(n: int) -> np.ndarray:
        raw = bits.random_raw(2 * n)
        return ((raw[0::2] >> 5) * 67108864 + (raw[1::2] >> 6)) / 9007199254740992.0

    return draw


def _ordinals(u, loss_prob: float, retry_limit: int):
    """Success flag and ordinal of the attempts with error draws ``u``, the
    first starting a copy, and the last attempt of each copy that ends."""
    ok = u >= loss_prob
    j = np.arange(len(u))
    success = np.maximum.accumulate(np.where(ok, j, -1))
    ordinal = (j - np.append(-1, success[:-1]) - 1) % retry_limit + 1
    return ok, ordinal, np.flatnonzero(ok | (ordinal == retry_limit))


def _outcomes(draw, n: int, loss_prob: float, retry_limit: int):
    """Per block, the copies whose attempts fit in ``_BLOCK`` (at least
    one): the success flag and ordinal of each attempt, and each copy's
    last attempt. A copy ends at a success (error draw >= loss_prob) or at
    its ``retry_limit``-th failure, so an attempt's ordinal is its distance
    from the previous success, modulo the retry limit; draws left over
    from a block start the next one."""
    mean = retry_limit if loss_prob == 1 else (1 - loss_prob**retry_limit) / (1 - loss_prob)
    u = ok = ordinal = last = np.empty(0, dtype=np.int64)
    while n:
        # the copies ending inside the budget are known once it is drawn,
        # or once every copy left has ended; draws come at least 1024 at a
        # time, so small budgets do not draw per block
        m = min(n, max(1, int(np.searchsorted(last, _BLOCK))))
        if len(last) < m or len(u) < _BLOCK and len(last) < n:
            wanted = int((n - len(last)) * mean * 1.02) + 64
            u = np.concatenate((u, draw(min(wanted, max(_BLOCK - len(u), retry_limit, 1024)))))
            ok, ordinal, last = _ordinals(u, loss_prob, retry_limit)
            continue
        size = last[m - 1] + 1
        yield ok[:size], ordinal[:size], last[:m]
        # the rest starts with a copy, so its outcomes stand
        u, ok, ordinal, last, n = u[size:], ok[size:], ordinal[size:], last[m:] - size, n - m


def _acquire(starts, ends, k: int, t: int, difs: int, slot: int, slots: int, span: int):
    """Earliest start time for an attempt of length ``span`` from time ``t``,
    plus the advanced busy cursor.

    Models DIFS sensing plus backoff countdown: the countdown only runs
    while the medium is idle, freezes when a busy interval begins, and
    resumes after the medium has been idle for DIFS again. The attempt must
    also fit entirely before the next busy interval, otherwise the station
    keeps waiting; interfering traffic therefore delays transmissions but
    never collides with them.
    """
    n = len(starts)
    pending = slots
    while True:
        while k < n and ends[k] <= t:
            k += 1
        if k < n and starts[k] <= t:
            t = ends[k]
            k += 1
            continue
        next_busy = starts[k] if k < n else TIME_LIMIT_NS
        ready = t + difs + pending * slot
        if ready + span <= next_busy:
            return ready, k
        if next_busy > t + difs:
            ticked = (next_busy - t - difs) // slot
            if ticked > pending:
                ticked = pending
            pending -= ticked
        t = ends[k]
        k += 1


def _gap_table(starts, ends, difs: int, slot: int, spans):
    """Gap table ``(ticks, fits)`` of busy intervals closed by a
    ``TIME_LIMIT_NS`` one, where gap ``i`` is the idle time before interval
    ``i``: ``ticks[i]`` sums the whole backoff slots,
    ``max(0, (gap - difs) // slot)``, of gaps 1 to ``i - 1``, and
    ``fits[span]`` lists the gaps that hold DIFS plus ``span``. A countdown
    only ever starts part way into gap 0, so gap 0 counts no ticks; the gap
    before ``TIME_LIMIT_NS`` holds any attempt of a valid config, so no sum needs
    its ticks. The table is int32 unless its sums or indices might not fit,
    and it is built in chunks of gaps, so no temporary is as wide.
    """
    # the sums are at most the time to the last interval's end over the
    # slot: below 2^62 even at a 1 ns slot, as every time is below TIME_LIMIT_NS
    n = len(starts)
    last = int(ends[-2]) if n > 1 else 0
    dtype = np.int32 if last // slot < 2**31 - 1 and n < 2**31 else np.int64
    ticks = np.zeros(n, dtype=dtype)
    found: dict[int, list] = {span: [] for span in spans}
    for lo in range(1, n - 1, _GAP_CHUNK):
        hi = min(lo + _GAP_CHUNK, n - 1)
        gaps = starts[lo:hi] - ends[lo - 1 : hi - 1]  # gaps lo to hi - 1
        for span, at in found.items():
            at.append(np.flatnonzero(gaps >= difs + span) + lo)
        gaps -= difs
        gaps //= slot
        np.maximum(gaps, 0, out=gaps)
        np.cumsum(gaps, out=ticks[lo + 1 : hi + 1])
        ticks[lo + 1 : hi + 1] += ticks[lo]
    fits = {span: np.concatenate((*at, [n - 1])).astype(dtype) for span, at in found.items()}
    return ticks, fits


def _acquire_lanes(busy, difs: int, slot: int, t, pending, span) -> np.ndarray:
    """``_acquire`` for many attempts at once, in a fixed number of array
    operations however many busy intervals an attempt waits through.
    ``busy`` holds the busy intervals closed by a ``TIME_LIMIT_NS`` one and
    their gap table (``_gap_table``)."""
    starts, ends, ticks, fits = busy
    # the gap a lane starts in, part way, as _acquire counts it
    k = np.searchsorted(ends, t, side="right")
    inside = starts[k] <= t
    t = np.where(inside, ends[k], t)
    k += inside
    out = t + difs + pending * slot
    lane = np.flatnonzero(out + span > starts[k])
    if not len(lane):
        return out
    k, t, pending, span = k[lane] + 1, t[lane], pending[lane], span[lane]
    pending -= np.clip((starts[k - 1] - t - difs) // slot, 0, pending)
    # gaps from k on are whole: the countdown ends in the first gap j >= k
    # whose ticks, with those of gaps k to j - 1, reach the pending count
    # (j = k at a count of 0), and the attempt starts there if it fits. A
    # key past the last sum means the gap before TIME_LIMIT_NS; keys take the
    # table's dtype, so that the search does not convert the table.
    before = ticks[k]
    key = np.minimum(before + pending, ticks[-1] + 1).astype(ticks.dtype)
    j = np.maximum(np.searchsorted(ticks, key) - 1, k)
    ready = ends[j - 1] + difs + (pending - (ticks[j] - before)) * slot
    # else its count is 0 from then on, and it starts DIFS into the first
    # later gap that holds DIFS plus its span
    late = ready + span > starts[j]
    for s, gaps in fits.items():
        x = np.flatnonzero(late & (span == s))
        ready[x] = ends[gaps[np.searchsorted(gaps, (j[x] + 1).astype(gaps.dtype))] - 1] + difs
    out[lane] = ready
    return out


def _waves(busy, phy: PhyParams, tail: int, block, lane, t):
    """Time copies ``lane`` of a block from times ``t`` through all their
    attempts, in waves, one per attempt ordinal. ``block`` holds the
    block's ``first``, ``last``, ``slots``, ``data`` and ``dur``, and the
    ``start`` and ``end`` arrays written here. A wave times each of its
    copies' attempts over whole idle gaps at once (``_acquire_lanes``), so
    every copy it is given ends."""
    first, last, slots, data, dur, start, end = block
    a = first[lane]
    while len(lane):
        s = start[a] = _acquire_lanes(busy, phy.difs_ns, phy.slot_ns, t, slots[a], data[a] + tail)
        t = s + dur[a]
        done = a == last[lane]
        end[lane[done]] = t[done]
        lane, a, t = lane[~done], a[~done] + 1, t[~done]


def _attempt_starts(busy, phy: PhyParams, tail: int, free_at: int, req, last, slots, data, dur):
    """Start of every attempt of a block (an attempt reserves its DATA plus
    ``tail``) and end of every copy, each copy beginning at its request or
    when the previous copy ends (the first at ``free_at``), whichever is
    later. ``busy`` holds the busy intervals closed by a ``TIME_LIMIT_NS`` one
    and their gap table.

    Copies are timed, each from a time ``t_in``, in numpy waves, one per
    attempt ordinal, which jump each attempt over whole idle gaps. A copy
    is off if no round has timed it, or if a round timed it from another
    time than ``max(req, previous end)``. Round 0 times from their requests
    the copies that a queue of the bare service times does not queue; each
    later round times again, from its predecessor's end, each off copy
    whose predecessor is not off, while a round has more than
    ``_ROUND_HEADS`` such heads and at most half as many as the round
    before. The copies still off are replayed in order with the scalar
    ``_acquire``. Until then every end is a lower bound of the real one: a
    copy timed from too early a time ends too early, and an untimed one
    ends at -1.
    """
    ends = busy[1]
    difs, slot = phy.difs_ns, phy.slot_ns
    first = np.append(0, last[:-1] + 1)
    start, end = np.empty(len(slots), dtype=np.int64), np.full(len(req), -1, dtype=np.int64)
    t_in = np.full(len(req), -1, dtype=np.int64)  # every time is >= 0
    block = (first, last, slots, data, dur, start, end)
    # copy ends without interference (a queue of the bare service times) are
    # lower bounds of the real ones: a copy whose predecessor's bound passes
    # its request is queued, so round 0 leaves it out
    service = np.add.reduceat(difs + slots * slot + dur, first)
    done_by = np.cumsum(service)
    bound = done_by + np.maximum(free_at, np.maximum.accumulate(req - done_by + service))
    heads, t_from = np.flatnonzero(np.append(free_at, bound[:-1]) <= req), req
    del service, done_by, bound  # free before the waves
    previous = len(req)
    while True:
        t_in[heads] = t_from[heads]
        _waves(busy, phy, tail, block, heads, t_from[heads])
        t_from = np.maximum(req, np.append(free_at, end[:-1]))
        off = t_in != t_from
        heads = np.flatnonzero(off & ~np.append(False, off[:-1]))
        # chains that do not halve the heads per round are long, so the
        # replay takes them; later rounds time at most len(req) copies
        if len(heads) <= _ROUND_HEADS or 2 * len(heads) > previous:
            break
        previous = len(heads)
    # replay the copies still off, in order; a replay can put successors
    # off. The memoryviews hand the scalar path Python ints without
    # building lists.
    todo = np.flatnonzero(off)
    busy_s, busy_e = map(memoryview, busy[:2])
    req_mv, t_in_mv, first_mv, last_mv = map(memoryview, (req, t_in, first, last))
    start_mv, end_mv, slots_mv, data_mv, dur_mv = map(memoryview, (start, end, slots, data, dur))
    c = 0
    k_at = ends.searchsorted(t_from[todo], "right").tolist()
    for x, k in zip(todo.tolist(), k_at):
        if x < c:
            continue
        c, t = x, end_mv[x - 1] if x else free_at
        while c < len(req):
            t = max(t, req_mv[c])
            if t == t_in_mv[c]:
                break
            for a in range(first_mv[c], last_mv[c] + 1):
                s, k = _acquire(busy_s, busy_e, k, t, difs, slot, slots_mv[a], data_mv[a] + tail)
                start_mv[a] = s
                t = s + dur_mv[a]
            end_mv[c] = t
            c += 1
    return start, end


# --- run generation ---------------------------------------------------------

# One channel's share of a run, keyed like the fields of RunLog and
# AttemptTable: its copy columns, each of shape (n,), and its attempt rows
# (None without traces).
_Channel = tuple[dict[str, np.ndarray], dict[str, np.ndarray] | None]


def _build_medium(setup: ChannelSetup, config: SimConfig) -> tuple:
    """Channel ``setup``'s medium, which times it in every run of ``config``
    whatever the deferral: its busy intervals up to the interference
    horizon, closed by a ``TIME_LIMIT_NS`` one, and their gap table
    (``_gap_table``)."""
    phy = setup.phy
    # the horizon does not move with the deferral, so real and virtual
    # deferral see the same medium; every simulated time stays below the
    # sentinel, so every simulated run validates
    horizon = (config.n_packets - 1) * config.period_ns + config.interference_margin_ns
    starts, ends = interference_arrays(
        setup.interference,
        horizon,
        bulk_stream(config.seed, setup.seed_salt, setup.channel.label, "interference"),
    )
    tail = max(phy.sifs_ns + phy.ack_frame_ns, phy.ack_timeout_ns)
    spans = {data + tail for data in phy.data_frame_schedule_ns or (phy.data_frame_ns,)}
    return (starts, ends, *_gap_table(starts, ends, phy.difs_ns, phy.slot_ns, spans))


def _simulate_channel(
    setup: ChannelSetup, config: SimConfig, request_offset_ns: int, busy: tuple
) -> _Channel:
    """The channel's columns, its requests displaced by ``request_offset_ns``,
    timed on the medium ``busy`` (``_build_medium``)."""
    label, phy = setup.channel.label, setup.phy
    error_draws = _uniforms(mac_stream(config.seed, setup.seed_salt, label, "error"))
    backoff_draws = _uniforms(mac_stream(config.seed, setup.seed_salt, label, "backoff"))
    # the contention window starts at cw_min and doubles per failed attempt;
    # the backoff is int(random() * (cw + 1)) slots
    cw = [phy.cw_min]
    while len(cw) < phy.retry_limit and cw[-1] < phy.cw_max:
        cw.append(min(2 * cw[-1] + 1, phy.cw_max))
    window = np.array(cw, dtype=np.int64) + 1
    # success ends with SIFS + ACK, failure with the ACK timeout; acquisition
    # reserves the longer of the two
    sifs_ack, ack_to = phy.sifs_ns + phy.ack_frame_ns, phy.ack_timeout_ns
    tail = max(sifs_ack, ack_to)
    n, loss_prob = config.n_packets, setup.loss_prob

    def requests(lo: int, hi: int) -> np.ndarray:
        # made per block, so that only the busy intervals and their gap
        # table are held at full size while the blocks run
        return np.arange(lo, hi, dtype=np.int64) * config.period_ns + request_offset_ns

    parts, free_at, i = [], 0, 0
    for ok, ordinal, last in _outcomes(error_draws, n, loss_prob, phy.retry_limit):
        slots = (backoff_draws(len(ok)) * window[np.minimum(ordinal, len(cw)) - 1]).astype(np.int64)
        data = phy.data_frame_for_attempt(ordinal)
        dur = data + np.where(ok, sifs_ack, ack_to)
        req = requests(i, i + len(last))
        start, end = _attempt_starts(busy, phy, tail, free_at, req, last, slots, data, dur)
        free_at, i = int(end[-1]), i + len(last)
        trace = (start, data, ok) if config.emit_full_trace else ()
        parts.append((end, np.diff(last, prepend=-1), ok[last], data[last], *trace))
    del busy  # the columns below may reuse its memory
    end, attempts, delivered, td, *trace = (np.concatenate(c) for c in zip(*parts))
    # adapter view: the driver exposes no frame durations for lost copies
    if not config.emit_full_trace:
        td = np.where(delivered, td, 0)
    ta = np.where(delivered, phy.ack_frame_ns, 0)
    copies = dict(lost=~delivered, req=requests(0, n), end=end, attempts=attempts, td=td, ta=ta)
    if not trace:
        return copies, None
    start, data, ok = trace
    return copies, dict(start=start, data=data, ack=np.where(ok, phy.ack_frame_ns, 0))


def _busiest_first(config: SimConfig) -> list[int]:
    """The channel indices, the one with the most interferers (the most busy
    intervals, the largest gap table) first; the first one on a tie."""
    return sorted((0, 1), key=lambda j: -config.channels[j].interference.interferer_count)


class RunFamily:
    """The runs of one config that differ at most in their deferral: the run
    of ``base_config`` and one per entry of ``displacements``.

    Each channel's medium is built once, for every planned run that
    simulates the channel, and dropped after the last of them; a run outside
    the plan is as exact, on a medium built again. The base config's run
    is kept once generated, and a later run takes from it each channel
    whose request offset is the same in both configs. ``order`` lists the
    indices of ``displacements`` in the order to run them after the base
    run: those that move the quieter channel come last, so that the busiest
    channel's medium, the largest, is dropped soonest.
    """

    def __init__(self, base_config: SimConfig, displacements: Iterable[int] = ()):
        self.base_config, self.base_run = base_config, None
        base = base_config.request_offsets()
        offsets = [replace(base_config, deferral_ns=d).request_offsets() for d in displacements]
        moved = [[o[j] != base[j] for j in (0, 1)] for o in offsets]
        self._uses = [1 + sum(m[j] for m in moved) for j in (0, 1)]
        quieter = _busiest_first(base_config)[1]
        self.order = sorted(range(len(moved)), key=lambda i: moved[i][quieter])
        self._media: dict[int, tuple] = {}

    def _reused(self, config: SimConfig) -> dict[int, _Channel]:
        """The columns of the base run's channels that ``config``'s run shares."""
        if replace(config, deferral_ns=self.base_config.deferral_ns) != self.base_config:
            raise SimConfigError("config differs from its run family's base beyond the deferral")
        run = self.base_run
        if run is None:
            return {}
        n, t = len(run.index), run.trace
        pairs = enumerate(zip(config.request_offsets(), self.base_config.request_offsets()))
        return {
            j: (
                {name: getattr(run, name)[j] for name in COPY_COLUMNS},
                None if t is None else {
                    name: getattr(t, name)[t.offsets[j * n] : t.offsets[(j + 1) * n]]
                    for name in ATTEMPT_COLUMNS
                },
            )
            for j, (ours, theirs) in pairs
            if ours == theirs
        }

    def _medium(self, j: int) -> tuple:
        """Channel ``j``'s medium, for the next run that simulates it."""
        medium = self._media.pop(j, None)
        if medium is None:
            medium = _build_medium(self.base_config.channels[j], self.base_config)
        self._uses[j] -= 1
        if self._uses[j] > 0:
            self._media[j] = medium
        return medium


def _run_meta(config: SimConfig) -> RunMeta:
    return RunMeta(
        n_packets=config.n_packets,
        period_ns=config.period_ns,
        seed=config.seed,
        view=VIEW_FULL_TRACE if config.emit_full_trace else VIEW_ADAPTER,
        channels=tuple(
            ChannelMeta(
                channel=setup.channel,
                phy=setup.phy,
                interferer_count=setup.interference.interferer_count,
                seed_salt=setup.seed_salt,
            )
            for setup in config.channels
        ),
        deferral_ns=config.deferral_ns,
    )


def generate_run(config: SimConfig, family: RunFamily | None = None) -> RunLog:
    """Generate a full duplex run; identical config and seed reproduce it
    bit-for-bit, and each channel evolves from its own substreams.

    ``family`` is a :class:`RunFamily` whose base config differs from
    ``config`` at most in its deferral; one from any other config is refused
    with :class:`SimConfigError`. A channel's records depend only on the
    config apart from the deferral and on its own request offset, so a
    channel whose offset is the family's base run's is taken from that run,
    and the others are timed on the family's media.
    """
    config.validate()
    if family is None:
        family = RunFamily(config)
    offsets = config.request_offsets()
    channels = family._reused(config)
    # the busiest channel's medium, simulated first, is never held beside
    # another channel's columns
    for j in _busiest_first(config):
        if j not in channels:
            # the medium is handed over, not held here, so that it goes as
            # soon as the family has dropped it and the MAC is done with it
            channels[j] = _simulate_channel(
                config.channels[j], config, offsets[j], family._medium(j)
            )
    copies = {name: np.stack([channels[j][0][name] for j in (0, 1)]) for name in COPY_COLUMNS}
    trace = None
    if config.emit_full_trace:
        # every copy's trace holds exactly its attempts
        trace = AttemptTable(
            offsets=attempt_offsets(copies["attempts"]),
            **{name: np.concatenate([channels[j][1][name] for j in (0, 1)])
               for name in ATTEMPT_COLUMNS},
        )
    # the run holds copies of the channels' columns: validate it beside
    # nothing else
    del channels
    run = RunLog(
        meta=_run_meta(config),
        index=np.arange(1, config.n_packets + 1, dtype=np.int64),
        trace=trace,
        **copies,
    )
    validate_run(run)  # attempt ordering and reconstruction identities
    if family.base_run is None and config == family.base_config:
        family.base_run = run
    return run
