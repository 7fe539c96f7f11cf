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
from dataclasses import dataclass, field, replace

import numpy as np

from .trace import (
    AttemptTable,
    ChannelId,
    ChannelMeta,
    PhyParams,
    RunLog,
    RunMeta,
    VIEW_ADAPTER,
    VIEW_FULL_TRACE,
    validate_run,
)

# Sentinel "no more busy intervals" time; far beyond any simulated horizon.
_FOREVER = 1 << 62


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
        if self.interferer_count < 0:
            raise SimConfigError("interferer_count must be >= 0")
        if self.payload_airtime_ns <= 0 or self.intra_burst_spacing_ns <= 0:
            raise SimConfigError("interference airtime and spacing must be positive")
        if self.burst_len_mean <= 0 or self.gap_mean_ns <= 0:
            raise SimConfigError("interference means must be positive")
        if self.burst_len_cap < self.burst_len_mean:
            raise SimConfigError("burst_len_cap must be >= burst_len_mean")
        if self.gap_cap_ns < self.gap_mean_ns:
            raise SimConfigError("gap_cap_ns must be >= gap_mean_ns")


@dataclass(frozen=True, slots=True)
class ErrorModel:
    """Per-attempt loss probability.

    An error hits the attempt as a whole (DATA and ACK together), never the
    ACK alone.
    """

    attempt_loss_prob: float = 0.0

    def validate(self) -> None:
        if not 0.0 <= self.attempt_loss_prob <= 1.0:
            raise SimConfigError("loss probabilities must be within [0, 1]")


@dataclass(frozen=True, slots=True)
class ChannelSetup:
    channel: ChannelId
    phy: PhyParams = PhyParams()
    interference: InterferenceParams = InterferenceParams()
    errors: ErrorModel = ErrorModel()
    seed_salt: str = ""


@dataclass(frozen=True, slots=True)
class Deferral:
    """Real transmission deferral: the secondary channel's requests trail the
    primary's by |offset_ns|. A positive offset defers the channel other
    than ``primary``; a negative offset swaps the roles.
    """

    offset_ns: int
    primary: str | None = None


@dataclass(frozen=True, slots=True)
class SimConfig:
    channels: tuple[ChannelSetup, ...]
    n_packets: int
    period_ns: int = 100_000_000
    seed: int = 1
    deferral: Deferral | None = None
    emit_full_trace: bool = True
    # Interference is materialized up to the last request plus this margin;
    # the medium is treated as idle beyond it (only the run tail is affected).
    interference_margin_ns: int = 2_000_000_000

    def validate(self) -> None:
        if self.n_packets < 1:
            raise SimConfigError("n_packets must be >= 1")
        if self.period_ns <= 0:
            raise SimConfigError("period must be positive")
        if len(self.channels) != 2:
            raise SimConfigError("duplex link required: exactly two channels")
        labels = [cs.channel.label for cs in self.channels]
        indices = [cs.channel.index for cs in self.channels]
        if len(set(labels)) != 2 or len(set(indices)) != 2:
            raise SimConfigError("channel labels and indices must be unique")
        if list(indices) != sorted(indices):
            raise SimConfigError("channels must be listed in index order")
        for cs in self.channels:
            cs.phy.validate()
            cs.interference.validate()
            cs.errors.validate()
        if self.deferral is not None:
            if abs(self.deferral.offset_ns) >= self.period_ns:
                raise SimConfigError(
                    "|deferral| must be smaller than the generation period"
                )
            if self.deferral.primary is not None and self.deferral.primary not in labels:
                raise SimConfigError(
                    f"deferral primary {self.deferral.primary!r} is not a channel"
                )

    def request_offsets(self) -> tuple[int, int]:
        """Per-channel request displacement (first, second channel)."""
        if self.deferral is None or self.deferral.offset_ns == 0:
            return (0, 0)
        offset = self.deferral.offset_ns
        primary_label = self.deferral.primary or self.channels[0].channel.label
        primary_pos = 0 if self.channels[0].channel.label == primary_label else 1
        # positive offset defers the non-primary channel, negative the primary
        deferred_pos = (1 - primary_pos) if offset > 0 else primary_pos
        offsets = [0, 0]
        offsets[deferred_pos] = abs(offset)
        return (offsets[0], offsets[1])


# --- rng substreams ---------------------------------------------------------


def mac_stream(seed: int, salt: str, label: str, purpose: str) -> random.Random:
    """Sequential draw stream for per-attempt MAC decisions."""
    return random.Random(f"{seed}/{salt}/{label}/{purpose}")


def bulk_stream(seed: int, salt: str, label: str, purpose: str) -> np.random.Generator:
    """Vectorized draw stream (interference synthesis)."""
    digest = hashlib.sha256(f"{seed}/{salt}/{label}/{purpose}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# --- interference -----------------------------------------------------------


def _interferer_intervals(
    params: InterferenceParams,
    horizon_ns: int,
    rng: np.random.Generator,
    chunk_horizon_ns: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Busy intervals of a single interferer up to the horizon.

    Bursts are drawn in chunks sized from ``chunk_horizon_ns``, so for a
    given chunk horizon a longer horizon only appends draws.
    """
    spacing = params.intra_burst_spacing_ns
    airtime = params.payload_airtime_ns
    cycle_estimate = params.burst_len_mean * spacing + params.gap_mean_ns
    chunk = max(16, int(chunk_horizon_ns / cycle_estimate * 1.3) + 8)

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


def _merge_intervals(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
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


def interference_arrays(
    params: InterferenceParams,
    horizon_ns: int,
    rng: np.random.Generator,
    chunk_horizon_ns: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merged busy intervals of all interferers on one channel, starting
    before the horizon.

    The random draws depend on ``chunk_horizon_ns`` (default: the horizon)
    but not on the horizon itself: with the same chunk horizon, the
    intervals up to a horizon are a prefix of those up to a later one (the
    last merged interval may extend further).
    """
    if chunk_horizon_ns is None:
        chunk_horizon_ns = horizon_ns
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
        s, e = _interferer_intervals(params, horizon_ns, child, chunk_horizon_ns)
        all_starts.append(s)
        all_ends.append(e)
    return _merge_intervals(np.concatenate(all_starts), np.concatenate(all_ends))


# --- per-channel MAC --------------------------------------------------------


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


def _acquire(
    starts: list[int],
    ends: list[int],
    k: int,
    t: int,
    difs: int,
    slot: int,
    slots: int,
    span: int,
) -> tuple[int, int]:
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
        next_busy = starts[k] if k < n else _FOREVER
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


def simulate_copy(
    state: ChannelState,
    request_ns: int,
    phy: PhyParams,
    errors: ErrorModel,
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
    loss_prob = errors.attempt_loss_prob
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
        data_ns = fixed_data if fixed_data is not None else phy.data_frame_for_attempt(attempt)
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


# --- run generation ---------------------------------------------------------

# One channel's share of a run, keyed like the fields of RunLog and
# AttemptTable: its copy columns, each of shape (n,), and its attempt rows
# (None without traces).
_COPY_COLUMNS = ("lost", "req", "end", "attempts", "td", "has_td", "ta", "has_ta")
_ATTEMPT_COLUMNS = ("start", "data", "ack", "has_ack", "ok")
_Channel = tuple[dict[str, np.ndarray], dict[str, np.ndarray] | None]


def _simulate_channel(
    setup: ChannelSetup, config: SimConfig, request_offset_ns: int
) -> _Channel:
    label = setup.channel.label
    # a deferred channel draws the interference of its undeferred run and
    # only extends it, so real and virtual deferral see the same medium
    undeferred = (config.n_packets - 1) * config.period_ns + config.interference_margin_ns
    busy_s, busy_e = interference_arrays(
        setup.interference,
        undeferred + request_offset_ns,
        bulk_stream(config.seed, setup.seed_salt, label, "interference"),
        chunk_horizon_ns=undeferred,
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
            setup.errors,
            backoff_rng,
            error_rng,
            collect_trace=config.emit_full_trace,
        )
    lost = np.array(state.lost, dtype=bool)
    delivered = ~lost
    # adapter view: the driver exposes no frame durations for lost copies
    has_td = np.ones(n, dtype=bool) if config.emit_full_trace else delivered
    copies = {
        "lost": lost,
        "req": np.arange(n, dtype=np.int64) * period + request_offset_ns,
        "end": np.array(state.end, dtype=np.int64),
        "attempts": np.array(state.attempts, dtype=np.int64),
        "td": np.where(has_td, np.array(state.final_data, dtype=np.int64), 0),
        "has_td": has_td,
        "ta": np.where(delivered, setup.phy.ack_frame_ns, 0),
        "has_ta": delivered,
    }
    if not config.emit_full_trace:
        return copies, None
    ok = np.array(state.attempt_ok, dtype=bool)
    attempts = {
        "start": np.array(state.attempt_start, dtype=np.int64),
        "data": np.array(state.attempt_data, dtype=np.int64),
        "ack": np.where(ok, setup.phy.ack_frame_ns, 0),
        "has_ack": ok,
        "ok": ok,
    }
    return copies, attempts


def _channel_of(run: RunLog, j: int) -> _Channel:
    """Channel ``j``'s columns of an existing run."""
    copies = {name: getattr(run, name)[j] for name in _COPY_COLUMNS}
    t = run.trace
    if t is None:
        return copies, None
    n = len(run.index)
    rows = slice(t.offsets[j * n], t.offsets[(j + 1) * n])
    return copies, {name: getattr(t, name)[rows] for name in _ATTEMPT_COLUMNS}


def _run_meta(config: SimConfig) -> RunMeta:
    offsets = config.request_offsets()
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
        deferral_ns=offsets[1] - offsets[0],
        request_epsilon_ns=0,
    )


def generate_run(
    config: SimConfig, base: tuple[SimConfig, RunLog] | None = None
) -> RunLog:
    """Generate a full duplex run; identical config and seed reproduce it
    bit-for-bit, and each channel evolves from its own substreams.

    ``base`` is an earlier ``(base_config, generate_run(base_config))``
    where ``base_config`` differs from ``config`` at most in its deferral.
    A channel's records depend only on the config apart from the deferral
    and on its own request offset, so channels whose offset is the same in
    both configs are taken from the base run instead of simulated again.
    A base from any other config is refused with :class:`SimConfigError`.
    """
    config.validate()
    offsets = config.request_offsets()
    reused: tuple[int, ...] = ()
    if base is not None:
        base_config, base_run = base
        if replace(base_config, deferral=None) != replace(
            config, deferral=None
        ) or base_run.meta != _run_meta(base_config):
            raise SimConfigError("base run was generated from another config")
        base_offsets = base_config.request_offsets()
        reused = tuple(j for j in (0, 1) if base_offsets[j] == offsets[j])
    channels = [
        _channel_of(base[1], j)
        if j in reused
        else _simulate_channel(setup, config, offset)
        for j, (setup, offset) in enumerate(zip(config.channels, offsets))
    ]
    copies = {name: np.stack([c[name] for c, _ in channels]) for name in _COPY_COLUMNS}
    trace = None
    if config.emit_full_trace:
        # every copy's trace holds exactly its attempts
        offsets = np.zeros(copies["attempts"].size + 1, dtype=np.int64)
        np.cumsum(copies["attempts"], out=offsets[1:])
        trace = AttemptTable(
            offsets=offsets,
            present=np.ones_like(copies["lost"]),
            **{name: np.concatenate([a[name] for _, a in channels]) for name in _ATTEMPT_COLUMNS},
        )
    run = RunLog(
        meta=_run_meta(config),
        index=np.arange(1, config.n_packets + 1, dtype=np.int64),
        trace=trace,
        **copies,
    )
    validate_run(run)  # attempt ordering and reconstruction identities
    return run
