"""Domain model for transmission logs on a redundant Wi-Fi link.

A run is an ordered sequence of packets; each packet has one copy per
physical channel, recorded as the adapter-visible tuple (loss flag, request
and end-of-transmission timestamps, attempt count, final frame durations)
plus, when the source is the simulator, the per-attempt ground-truth trace.

In memory a run is columnar (:class:`RunLog`): one array of shape
(channels, packets) per field, and the traces as one flat attempt table
with per-copy offsets (:class:`AttemptTable`, the Arrow list layout). The
per-packet records (:class:`PacketRecord`, :class:`CopyRecord`,
:class:`AttemptTrace`) are the input of the per-packet reference functions;
``RunLog.packets`` builds them on demand and ``RunLog.from_packets`` turns
them into columns.

All timestamps and durations are integer nanoseconds on a single time base,
so every reconstruction below is exact integer arithmetic.
"""
from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from array import array
from dataclasses import dataclass, field, fields, replace
from typing import IO, Callable, Mapping, Sequence

import numpy as np

from .logblocks import BlockParser, line_blocks

TimeNs = int
DurationNs = int

LOG_FORMAT = "prpwifi-runlog"
LOG_VERSION = 1

VIEW_FULL_TRACE = "full-trace"
VIEW_ADAPTER = "adapter-only"

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class LogFormatError(ValueError):
    """Malformed log input; ``record_index`` is the offending line (1-based)."""

    def __init__(self, message: str, record_index: int | None = None):
        if record_index is not None:
            message = f"record {record_index}: {message}"
        super().__init__(message)
        self.record_index = record_index


class MissingFrameDurationError(ValueError):
    """A reconstruction needed a frame duration the record does not carry."""


class InvalidRunError(ValueError):
    """A run log violates a structural invariant."""


@dataclass(frozen=True, order=True, slots=True)
class ChannelId:
    """One physical channel of the redundant link (index breaks ties)."""

    index: int
    label: str


@dataclass(frozen=True, slots=True)
class PhyParams:
    """Per-channel MAC/PHY timing parameters.

    Frame durations model a fixed payload at a fixed rate; an optional
    per-attempt schedule stands in for rate-fallback behaviour (attempt
    ordinals beyond the schedule reuse its last entry).
    """

    sifs_ns: int = 16_000
    ack_timeout_ns: int = 50_000
    slot_ns: int = 9_000
    difs_ns: int = 34_000
    cw_min: int = 15
    cw_max: int = 1023
    retry_limit: int = 21
    data_frame_ns: int = 300_000
    ack_frame_ns: int = 24_000
    data_frame_schedule_ns: tuple[int, ...] | None = None

    def data_frame_for_attempt(self, ordinal: int) -> int:
        if self.data_frame_schedule_ns:
            idx = min(ordinal, len(self.data_frame_schedule_ns)) - 1
            return self.data_frame_schedule_ns[idx]
        return self.data_frame_ns

    def validate(self) -> None:
        durations = (
            self.sifs_ns,
            self.ack_timeout_ns,
            self.slot_ns,
            self.difs_ns,
            self.data_frame_ns,
            self.ack_frame_ns,
        )
        if any(d <= 0 for d in durations):
            raise ValueError("PHY durations must be positive")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")
        if not 0 <= self.cw_min <= self.cw_max:
            raise ValueError("need 0 <= cw_min <= cw_max")
        if self.data_frame_schedule_ns is not None:
            if not self.data_frame_schedule_ns:
                raise ValueError("data_frame_schedule_ns must not be empty")
            if any(d <= 0 for d in self.data_frame_schedule_ns):
                raise ValueError("scheduled frame durations must be positive")


@dataclass(frozen=True, slots=True)
class AttemptTrace:
    """Ground truth for one transmission attempt (simulator view only)."""

    ordinal: int
    start_ns: TimeNs
    data_ns: DurationNs
    ack_ns: DurationNs | None
    succeeded: bool


@dataclass(frozen=True, slots=True)
class CopyRecord:
    """Transmission record of one packet copy on one channel.

    ``final_data_ns``/``final_ack_ns`` describe the last attempt's DATA and
    ACK frames. Adapter-view records of lost copies carry neither (the
    hardware reports no frame durations once the retry limit is exceeded);
    delivered copies always carry both.
    """

    lost: bool
    request_ns: TimeNs
    end_ns: TimeNs
    attempts: int
    final_data_ns: DurationNs | None
    final_ack_ns: DurationNs | None
    trace: tuple[AttemptTrace, ...] | None = None


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One generated packet with its per-channel copies."""

    index: int
    copies: dict[ChannelId, CopyRecord]


@dataclass(frozen=True, slots=True)
class ChannelMeta:
    """Channel description stored in the log header."""

    channel: ChannelId
    phy: PhyParams
    interferer_count: int = 0
    seed_salt: str = ""


@dataclass(frozen=True, slots=True)
class RunMeta:
    n_packets: int
    period_ns: DurationNs
    seed: int
    view: str
    channels: tuple[ChannelMeta, ...]
    # Relative request displacement of the second channel w.r.t. the first
    # (negative when the first channel is the deferred one).
    deferral_ns: int = 0
    request_epsilon_ns: int = 0

    def validate(self) -> None:
        if self.n_packets < 1:
            raise InvalidRunError("a run must contain at least one packet")
        if self.period_ns <= 0:
            raise InvalidRunError("generation period must be positive")
        if self.view not in (VIEW_FULL_TRACE, VIEW_ADAPTER):
            raise InvalidRunError(f"unknown view {self.view!r}")
        if len(self.channels) < 2:
            raise InvalidRunError("a redundant link needs at least two channels")
        labels = [cm.channel.label for cm in self.channels]
        indices = [cm.channel.index for cm in self.channels]
        if len(set(labels)) != len(labels) or len(set(indices)) != len(indices):
            raise InvalidRunError("channel labels and indices must be unique")
        if list(indices) != sorted(indices):
            raise InvalidRunError("channels must be listed in index order")
        for cm in self.channels:
            cm.phy.validate()


class _Columns:
    """Base of the dataclasses that hold numpy columns: the arrays become
    read-only after construction, and equality compares them by value."""

    __slots__ = ()

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class AttemptTable(_Columns):
    """Per-attempt traces of a run as one flat table (Arrow list layout).

    Copies are numbered channel-major: copy ``j * n + i`` is packet ``i`` on
    channel ``j``. Its attempts are rows ``offsets[k]`` to ``offsets[k + 1]``
    in order. ``present`` marks the copies that carry a trace at all; a copy
    without one has no rows. ``ack`` is 0 where ``has_ack`` is false.
    """

    offsets: np.ndarray  # (m * n + 1,) int64
    present: np.ndarray  # (m, n) bool
    start: np.ndarray  # (rows,) int64, start on air
    data: np.ndarray  # (rows,) int64, DATA duration
    ack: np.ndarray  # (rows,) int64, ACK duration
    has_ack: np.ndarray  # (rows,) bool
    ok: np.ndarray  # (rows,) bool

    def lengths(self) -> np.ndarray:
        """(m * n,) trace length per copy, 0 where no trace is present."""
        return np.diff(self.offsets)

    def per_copy(self, values: np.ndarray, first: bool = False) -> np.ndarray:
        """(m, n) value of each copy's last (or first) attempt row, taken
        from the per-row ``values``; 0 where the copy has no attempts."""
        has_rows = self.offsets[1:] > self.offsets[:-1]
        rows = self.offsets[:-1] if first else self.offsets[1:] - 1
        out = np.zeros(len(has_rows), dtype=values.dtype)
        out[has_rows] = values[rows[has_rows]]
        return out.reshape(self.present.shape)


@dataclass(frozen=True, eq=False)
class RunLog(_Columns):
    """A run as per-channel columns.

    Every copy column has shape (channels, packets), channels in meta
    order. ``td``/``ta`` are the final attempt's DATA and ACK durations
    where ``has_td``/``has_ta`` is set and 0 elsewhere. ``index`` is each
    packet's recorded index (1..N in a valid run). ``trace`` holds the
    per-attempt ground truth, or is None when no copy carries a trace.
    Arrays are read-only; equality compares them by value.
    """

    meta: RunMeta
    index: np.ndarray  # (n,) int64
    lost: np.ndarray  # (m, n) bool
    req: np.ndarray  # (m, n) int64, request times
    end: np.ndarray  # (m, n) int64, end-of-transmission times
    attempts: np.ndarray  # (m, n) int64
    td: np.ndarray  # (m, n) int64
    has_td: np.ndarray  # (m, n) bool
    ta: np.ndarray  # (m, n) int64
    has_ta: np.ndarray  # (m, n) bool
    trace: AttemptTable | None = None

    @property
    def channels(self) -> tuple[ChannelId, ...]:
        return tuple(cm.channel for cm in self.meta.channels)

    def phy_by_channel(self) -> dict[ChannelId, PhyParams]:
        return {cm.channel: cm.phy for cm in self.meta.channels}

    def channel_by_label(self, label: str) -> ChannelId:
        for cm in self.meta.channels:
            if cm.channel.label == label:
                return cm.channel
        raise KeyError(label)

    @property
    def packets(self) -> tuple[PacketRecord, ...]:
        """Per-packet records, built from the columns on every access.

        This is the input of the per-packet reference functions in
        :mod:`prpwifi.da`; it costs one object per copy and attempt.
        """
        channels = self.channels
        n = len(self.index)
        traces: list[tuple[AttemptTrace, ...] | None] = [None] * (len(channels) * n)
        if self.trace is not None:
            t = self.trace
            rows = list(
                zip(
                    t.start.tolist(),
                    t.data.tolist(),
                    _optional(t.ack, t.has_ack),
                    t.ok.tolist(),
                )
            )
            offsets = t.offsets.tolist()
            for k in np.flatnonzero(t.present.ravel()).tolist():
                traces[k] = tuple(
                    AttemptTrace(pos, *row)
                    for pos, row in enumerate(rows[offsets[k] : offsets[k + 1]], start=1)
                )
        copies = []
        for j in range(len(channels)):
            columns = (
                self.lost[j].tolist(),
                self.req[j].tolist(),
                self.end[j].tolist(),
                self.attempts[j].tolist(),
                _optional(self.td[j], self.has_td[j]),
                _optional(self.ta[j], self.has_ta[j]),
                traces[j * n : (j + 1) * n],
            )
            copies.append([CopyRecord(*row) for row in zip(*columns)])
        return tuple(
            PacketRecord(index, dict(zip(channels, packet_copies)))
            for index, *packet_copies in zip(self.index.tolist(), *copies)
        )

    @classmethod
    def from_packets(cls, meta: RunMeta, packets: Sequence[PacketRecord]) -> RunLog:
        """Columns of per-packet records (hand-made logs, tests); each packet
        needs exactly one copy per channel of ``meta``."""
        copies = []
        for channel in (cm.channel for cm in meta.channels):
            for p in packets:
                if channel not in p.copies or len(p.copies) != len(meta.channels):
                    raise InvalidRunError(f"packet {p.index}: missing channel copies")
                copies.append(p.copies[channel])
        rows = [
            (
                c.lost, c.request_ns, c.end_ns, c.attempts,
                c.final_data_ns or 0, c.final_data_ns is not None,
                c.final_ack_ns or 0, c.final_ack_ns is not None,
            )
            for c in copies
        ]
        attempts = [
            (a.start_ns, a.data_ns, a.ack_ns or 0, a.ack_ns is not None, a.succeeded)
            for c in copies
            if c.trace is not None
            for a in c.trace
        ]
        return _from_rows(
            meta,
            np.array([p.index for p in packets], dtype=np.int64),
            np.array(rows, dtype=np.int64),
            np.array(
                [-1 if c.trace is None else len(c.trace) for c in copies], dtype=np.int64
            ),
            np.array(attempts, dtype=np.int64),
        )


def _optional(values: np.ndarray, present: np.ndarray) -> list[int | None]:
    return [v if p else None for v, p in zip(values.tolist(), present.tolist())]


_COPY_FIELDS = ("l", "t_T", "t_X", "w", "Td", "Td", "Ta", "Ta")
_ATTEMPT_FIELDS = ("tW", "Td", "Ta", "Ta", "ok")


def _from_rows(
    meta: RunMeta,
    index: np.ndarray,
    copies: np.ndarray,
    lengths: np.ndarray,
    attempts: np.ndarray,
) -> RunLog:
    """Build a run from channel-major copy rows (the fields of
    ``_COPY_FIELDS``, presence flags after each duration), per-copy trace
    lengths (-1 where a copy has no trace) and the attempt rows of all
    traced copies in the same order (``_ATTEMPT_FIELDS``)."""
    m, n = len(meta.channels), len(index)
    lost, req, end, w, td, has_td, ta, has_ta = (
        copies.reshape(m, n, len(_COPY_FIELDS)).transpose(2, 0, 1).copy()
    )
    trace = None
    if (lengths >= 0).any():
        offsets = np.zeros(m * n + 1, dtype=np.int64)
        np.cumsum(np.maximum(lengths, 0), out=offsets[1:])
        start, data, ack, has_ack, ok = (
            attempts.reshape(-1, len(_ATTEMPT_FIELDS)).T.copy()
        )
        trace = AttemptTable(
            offsets=offsets,
            present=(lengths >= 0).reshape(m, n),
            start=start,
            data=data,
            ack=ack,
            has_ack=has_ack.astype(bool),
            ok=ok.astype(bool),
        )
    return RunLog(
        meta=meta,
        index=index,
        lost=lost.astype(bool),
        req=req,
        end=end,
        attempts=w,
        td=td,
        has_td=has_td.astype(bool),
        ta=ta,
        has_ta=has_ta.astype(bool),
        trace=trace,
    )


@dataclass(frozen=True, slots=True)
class LinkOutcome:
    """PRP pairing result for one packet across all channels."""

    lost: bool
    latency_ns: DurationNs | None
    quickest: ChannelId | None


def final_attempt_start(copy: CopyRecord, phy: PhyParams) -> TimeNs:
    """Start-on-air of the copy's last attempt, reconstructed from its end.

    A delivered copy ends with DATA + SIFS + ACK, a lost one with DATA
    followed by the full ACK timeout. Lost adapter-view copies carry no
    DATA duration, in which case the reconstruction is impossible and a
    :class:`MissingFrameDurationError` is raised; callers that tolerate
    this (bound analyses) must substitute their own policy.
    """
    if copy.lost:
        if copy.final_data_ns is None:
            raise MissingFrameDurationError(
                "lost copy has no recorded DATA frame duration"
            )
        return copy.end_ns - (copy.final_data_ns + phy.ack_timeout_ns)
    assert copy.final_data_ns is not None and copy.final_ack_ns is not None
    return copy.end_ns - (copy.final_data_ns + phy.sifs_ns + copy.final_ack_ns)


def receive_time(copy: CopyRecord, phy: PhyParams) -> TimeNs:
    """Estimated arrival of the packet at the recipient (delivered copies only)."""
    if copy.lost:
        raise ValueError("receive time is undefined for lost copies")
    assert copy.final_ack_ns is not None
    return copy.end_ns - (phy.sifs_ns + copy.final_ack_ns)


def copy_latency(copy: CopyRecord, phy: PhyParams) -> DurationNs:
    """Transmission latency of a delivered copy on its own channel."""
    return receive_time(copy, phy) - copy.request_ns


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
    quickest_end: TimeNs | None = None
    best_latency: DurationNs | None = None
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


_SMALL = 1 << 60  # sums of up to four int64 terms below this cannot wrap


def _exact(test: Callable[..., np.ndarray], *operands) -> np.ndarray:
    """``test`` applied elementwise with Python-int arithmetic.

    It runs on the int64 operands first; the elements where some operand
    reaches 2^60 in magnitude, so that int64 arithmetic might wrap, are
    evaluated again on Python ints.
    """
    result = test(*operands)
    large = np.zeros(result.shape, dtype=bool)
    for x in operands:
        large |= (x >= _SMALL) | (x <= -_SMALL)
    if large.any():
        result[large] = test(
            *(x[large].astype(object) if isinstance(x, np.ndarray) else x for x in operands)
        )
    return result


def validate_run(run: RunLog, request_epsilon_ns: int | None = None) -> None:
    """Check every structural invariant of a run log.

    ``request_epsilon_ns`` bounds the allowed request-time skew between
    channels on non-deferred runs (defaults to the value stored in the
    meta header; the simulator emits perfectly aligned requests). The
    checks run over whole columns; the error names the first offending
    packet, and for it the first failing check in per-packet order.
    """
    meta = run.meta
    meta.validate()
    n = len(run.index)
    if n != meta.n_packets:
        raise InvalidRunError(f"meta says {meta.n_packets} packets, log has {n}")
    if request_epsilon_ns is None:
        request_epsilon_ns = meta.request_epsilon_ns
    req, end = run.req, run.end

    # (bad packets, message) in the order a per-packet pass checks them
    checks: list[tuple[np.ndarray, Callable[[int], str]]] = [
        (
            run.index != np.arange(1, n + 1),
            lambda i: f"packet indices must run 1..N without gaps (saw {run.index[i]})",
        )
    ]
    if meta.deferral_ns == 0:
        skewed = _exact(
            lambda hi, lo, eps: hi - lo > eps,
            req.max(axis=0),
            req.min(axis=0),
            request_epsilon_ns,
        )
        checks.append((skewed, lambda i: f"packet {i + 1}: request skew exceeds epsilon"))
    elif len(meta.channels) == 2:
        mismatch = _exact(lambda a, b, d: b - a != d, req[0], req[1], meta.deferral_ns)
        checks.append(
            (
                mismatch,
                lambda i: (
                    f"packet {i + 1}: request skew {int(req[1, i]) - int(req[0, i])} "
                    f"does not match the recorded displacement {meta.deferral_ns}"
                ),
            )
        )

    t = run.trace
    if t is not None:
        lengths = t.lengths()
        copy_of = np.repeat(np.arange(lengths.size), lengths)

        def copies_of(bad_rows: np.ndarray) -> np.ndarray:
            flags = np.zeros(lengths.size, dtype=bool)
            flags[copy_of[bad_rows]] = True
            return flags.reshape(req.shape)

        is_last = np.zeros(len(t.start), dtype=bool)
        is_last[t.offsets[1:][lengths > 0] - 1] = True
        unordered = np.zeros(len(t.start), dtype=bool)
        unordered[1:] = (copy_of[1:] == copy_of[:-1]) & (t.start[1:] <= t.start[:-1])
        per_copy = (
            lengths.reshape(req.shape),
            copies_of(unordered),
            copies_of(t.ok & ~is_last),
            t.per_copy(t.ok),
            copies_of(t.has_ack != t.ok),
            t.per_copy(t.start, first=True),
            t.per_copy(t.start),
        )

    for j, cm in enumerate(meta.channels):
        lost, w = run.lost[j], run.attempts[j]
        checks += [
            (req[j] < 0, lambda i: "request time must be non-negative"),
            (end[j] <= req[j], lambda i: "end of transmission must follow the request"),
            (w < 1, lambda i: "attempt count must be >= 1"),
            (
                ~lost & ~(run.has_td[j] & run.has_ta[j]),
                lambda i: "delivered copies need both frame durations",
            ),
        ]
        if t is None:
            continue
        length, unordered_j, early_ok, last_ok, ack_mismatch, first, last = (
            x[j] for x in per_copy
        )
        traced = t.present[j]
        nonempty = traced & (length > 0)
        previous_end = np.concatenate(([-1], end[j, :-1]))
        # the reconstruction of final_attempt_start
        phy = cm.phy
        tail = np.where(lost, phy.ack_timeout_ns, phy.sifs_ns)
        ack = np.where(lost, 0, run.ta[j])
        mismatch = _exact(
            lambda x, d, k, a, s: x - (d + k + a) != s,
            end[j], run.td[j], tail, ack, last,
        )
        checks += [
            (traced & (length != w), lambda i: "trace length must equal the attempt count"),
            (traced & unordered_j, lambda i: "attempt starts must strictly increase"),
            (traced & early_ok, lambda i: "only the final attempt may succeed"),
            (nonempty & (last_ok == lost), lambda i: "trace outcome contradicts the loss flag"),
            (
                traced & ack_mismatch,
                lambda i: "an attempt carries an ACK duration iff it succeeded",
            ),
            (
                nonempty & (first <= previous_end),
                lambda i: f"packet {i + 1}: attempts overlap the previous packet",
            ),
            (
                nonempty & run.has_td[j] & mismatch,
                lambda i: f"packet {i + 1}: final-attempt reconstruction mismatch",
            ),
        ]

    failure: tuple[int, Callable[[int], str]] | None = None
    for bad, message in checks:
        if bad.any():
            i = int(np.argmax(bad))
            if failure is None or i < failure[0]:
                failure = (i, message)
    if failure is not None:
        raise InvalidRunError(failure[1](failure[0]))


# --- serialization ---------------------------------------------------------
#
# Log file layout: JSON lines. The first line is the meta header, every
# following line is one packet:
#   {"i": 1, "copies": [{"ch": "A", "l": 0, "t_T": ..., "t_X": ..., "w": ...,
#                        "Td": ..., "Ta": ..., "trace": [...]}, ...]}
# Optional fields (Td, Ta, trace) are omitted when absent. Trace entries are
# {"tW": ..., "Td": ..., "Ta": ..., "ok": 0|1} with Ta omitted on failures.


def _phy_to_dict(phy: PhyParams) -> dict:
    d = {
        "sifs": phy.sifs_ns,
        "ack_timeout": phy.ack_timeout_ns,
        "slot": phy.slot_ns,
        "difs": phy.difs_ns,
        "cw_min": phy.cw_min,
        "cw_max": phy.cw_max,
        "retry_limit": phy.retry_limit,
        "data_frame": phy.data_frame_ns,
        "ack_frame": phy.ack_frame_ns,
    }
    if phy.data_frame_schedule_ns is not None:
        d["data_frame_schedule"] = list(phy.data_frame_schedule_ns)
    return d


def _phy_from_dict(d: dict) -> PhyParams:
    schedule = d.get("data_frame_schedule")
    return PhyParams(
        sifs_ns=d["sifs"],
        ack_timeout_ns=d["ack_timeout"],
        slot_ns=d["slot"],
        difs_ns=d["difs"],
        cw_min=d["cw_min"],
        cw_max=d["cw_max"],
        retry_limit=d["retry_limit"],
        data_frame_ns=d["data_frame"],
        ack_frame_ns=d["ack_frame"],
        data_frame_schedule_ns=tuple(schedule) if schedule is not None else None,
    )


def _meta_to_dict(meta: RunMeta) -> dict:
    return {
        "format": LOG_FORMAT,
        "version": LOG_VERSION,
        "n": meta.n_packets,
        "t_m": meta.period_ns,
        "seed": meta.seed,
        "view": meta.view,
        "deferral_td": meta.deferral_ns,
        "epsilon": meta.request_epsilon_ns,
        "channels": [
            {
                "ch": cm.channel.label,
                "index": cm.channel.index,
                "interferers": cm.interferer_count,
                "seed_salt": cm.seed_salt,
                "phy": _phy_to_dict(cm.phy),
            }
            for cm in meta.channels
        ],
    }


def _header_ints(meta: RunMeta) -> list[tuple[str, object]]:
    """Header fields the columns compute with; each must be an int64."""
    values: list[tuple[str, object]] = [
        ("n", meta.n_packets),
        ("t_m", meta.period_ns),
        ("deferral_td", meta.deferral_ns),
        ("epsilon", meta.request_epsilon_ns),
    ]
    for cm in meta.channels:
        label = cm.channel.label
        values.append((f"{label}.index", cm.channel.index))
        for key, value in _phy_to_dict(cm.phy).items():
            entries = value if key == "data_frame_schedule" else [value]
            values += [(f"{label}.{key}", v) for v in entries]
    return values


def _not_int(d: dict, required: tuple[str, ...], optional: tuple[str, ...]) -> str:
    """Name of the first field of ``d`` that is not an int; optional fields
    may also be absent or null."""
    for key in required:
        if type(d[key]) is not int:
            return key
    return next(k for k in optional if type(d.get(k, 0)) not in (int, type(None)))


_ENCODE_BLOCK = 4096  # packets formatted per write, to bound memory


def _encode_copies(run: RunLog, j: int, lo: int, hi: int) -> list[str]:
    """JSON text of channel ``j``'s copies of packets ``lo`` to ``hi``."""
    head = '{"ch":%s,"l":' % json.dumps(run.meta.channels[j].channel.label)
    traces: list[str | None] = [None] * (hi - lo)
    t = run.trace
    if t is not None:
        n = len(run.index)
        offsets = t.offsets[j * n + lo : j * n + hi + 1]
        rows = slice(offsets[0], offsets[-1])
        entries = [
            f'{{"tW":{s},"Td":{d},"Ta":{a},"ok":{ok}}}'
            if has_ack
            else f'{{"tW":{s},"Td":{d},"ok":{ok}}}'
            for s, d, a, has_ack, ok in zip(
                t.start[rows].tolist(),
                t.data[rows].tolist(),
                t.ack[rows].tolist(),
                t.has_ack[rows].tolist(),
                t.ok[rows].astype(np.int64).tolist(),
            )
        ]
        bounds = (offsets - offsets[0]).tolist()
        for pos in np.flatnonzero(t.present[j, lo:hi]).tolist():
            traces[pos] = ",".join(entries[bounds[pos] : bounds[pos + 1]])
    columns = (
        run.lost[j, lo:hi].astype(np.int64).tolist(),
        run.req[j, lo:hi].tolist(),
        run.end[j, lo:hi].tolist(),
        run.attempts[j, lo:hi].tolist(),
        run.td[j, lo:hi].tolist(),
        run.has_td[j, lo:hi].tolist(),
        run.ta[j, lo:hi].tolist(),
        run.has_ta[j, lo:hi].tolist(),
        traces,
    )
    return [
        f'{head}{lost},"t_T":{req},"t_X":{end},"w":{w}'
        + (f',"Td":{td}' if has_td else "")
        + (f',"Ta":{ta}' if has_ta else "")
        + ("}" if trace is None else f',"trace":[{trace}]}}')
        for lost, req, end, w, td, has_td, ta, has_ta, trace in zip(*columns)
    ]


def encode_log(run: RunLog, sink: IO[str]) -> None:
    """Write a run as JSON lines (meta header, then one packet per line)."""
    run.meta.validate()
    n = len(run.index)
    if n != run.meta.n_packets:
        raise InvalidRunError("packet count does not match meta")
    sink.write(json.dumps(_meta_to_dict(run.meta), separators=(",", ":")))
    sink.write("\n")
    for lo in range(0, n, _ENCODE_BLOCK):
        hi = min(lo + _ENCODE_BLOCK, n)
        copies = [_encode_copies(run, j, lo, hi) for j in range(len(run.channels))]
        sink.write(
            "".join(
                f'{{"i":{index},"copies":[{",".join(line)}]}}\n'
                for index, *line in zip(run.index[lo:hi].tolist(), *copies)
            )
        )


def _decode_meta(header: str) -> RunMeta:
    try:
        meta_dict = json.loads(header)
    except (ValueError, RecursionError) as exc:
        raise LogFormatError(f"meta header is not valid JSON: {exc}", 1) from exc
    if type(meta_dict) is not dict:
        raise LogFormatError("meta header must be a JSON object", 1)
    if meta_dict.get("format") != LOG_FORMAT:
        raise LogFormatError("not a run log (bad format marker)", 1)
    if meta_dict.get("version") != LOG_VERSION:
        raise LogFormatError(f"unsupported version {meta_dict.get('version')}", 1)
    try:
        channels = tuple(
            ChannelMeta(
                channel=ChannelId(index=c["index"], label=c["ch"]),
                phy=_phy_from_dict(c["phy"]),
                interferer_count=c.get("interferers", 0),
                seed_salt=c.get("seed_salt", ""),
            )
            for c in meta_dict["channels"]
        )
        meta = RunMeta(
            n_packets=meta_dict["n"],
            period_ns=meta_dict["t_m"],
            seed=meta_dict["seed"],
            view=meta_dict["view"],
            channels=channels,
            deferral_ns=meta_dict.get("deferral_td", 0),
            request_epsilon_ns=meta_dict.get("epsilon", 0),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise LogFormatError(f"bad meta header: {exc}", 1) from exc
    for name, value in _header_ints(meta):
        if type(value) is not int or not _INT64_MIN <= value <= _INT64_MAX:
            raise LogFormatError(f"header field {name!r} must be an int64", 1)
    try:
        meta.validate()
    except (ValueError, TypeError) as exc:
        raise LogFormatError(f"bad meta header: {exc}", 1) from exc
    return meta


def _extend(out: array, row: tuple, names: tuple[str, ...], record_index: int) -> None:
    """Append a row of decoded ints to an int64 array; a value outside the
    int64 range raises :class:`LogFormatError` naming its field."""
    try:
        out.extend(row)
    except OverflowError:
        name = next(k for k, v in zip(names, row) if not _INT64_MIN <= v <= _INT64_MAX)
        raise LogFormatError(
            f"field {name!r} is outside the int64 range", record_index
        ) from None


def _decode_copy(
    d: dict,
    position: Mapping[str, int],
    record_index: int,
    copies: array,
    lengths: array,
    attempts: array,
) -> int:
    """Append one copy entry's fields to the int64 row arrays and return its
    channel position. Every timestamp, duration and count must be an int
    (``bool`` and ``float`` are rejected) to keep times in integer ns."""
    try:
        label = d["ch"]
        lost = d["l"]
        request_ns, end_ns, w = d["t_T"], d["t_X"], d["w"]
        data_ns, ack_ns = d.get("Td"), d.get("Ta")
        if not (
            type(lost) is int
            and type(request_ns) is int
            and type(end_ns) is int
            and type(w) is int
            and (data_ns is None or type(data_ns) is int)
            and (ack_ns is None or type(ack_ns) is int)
        ):
            name = _not_int(d, ("l", "t_T", "t_X", "w"), ("Td", "Ta"))
            raise LogFormatError(f"field {name!r} must be an integer", record_index)
        trace_entries = d.get("trace")
        if trace_entries is not None and type(trace_entries) is not list:
            raise LogFormatError("'trace' must be a list", record_index)
        for e in trace_entries or ():
            start, data, ack, ok = e["tW"], e["Td"], e.get("Ta"), e["ok"]
            if not (
                type(start) is int
                and type(data) is int
                and (ack is None or type(ack) is int)
                and type(ok) is int
            ):
                name = _not_int(e, ("tW", "Td", "ok"), ("Ta",))
                raise LogFormatError(
                    f"trace field {name!r} must be an integer", record_index
                )
            row = (start, data, ack or 0, ack is not None, ok != 0)
            _extend(attempts, row, _ATTEMPT_FIELDS, record_index)
        j = position.get(label) if type(label) is str else None
    except (KeyError, TypeError) as exc:
        raise LogFormatError(f"bad copy entry: {exc}", record_index) from exc
    if j is None:
        raise LogFormatError(f"unknown channel {label!r}", record_index)
    row = (
        lost != 0, request_ns, end_ns, w,
        data_ns or 0, data_ns is not None, ack_ns or 0, ack_ns is not None,
    )
    _extend(copies, row, _COPY_FIELDS, record_index)
    lengths.append(-1 if trace_entries is None else len(trace_entries))
    return j


@dataclass
class _FileRows:
    """Decoded int64 rows in file order: per packet line its index and the
    channel position of each copy, per copy its ``_COPY_FIELDS`` row and
    trace length (-1 without a trace), per attempt its ``_ATTEMPT_FIELDS``
    row."""

    index: array = field(default_factory=lambda: array("q"))
    positions: array = field(default_factory=lambda: array("q"))
    copies: array = field(default_factory=lambda: array("q"))
    lengths: array = field(default_factory=lambda: array("q"))
    attempts: array = field(default_factory=lambda: array("q"))

    def extend(
        self,
        m: int,
        index: np.ndarray,
        copies: np.ndarray,
        lengths: np.ndarray,
        attempts: np.ndarray,
    ) -> None:
        """Append the rows of packet lines whose ``m`` copies are in
        channel order."""
        self.index.frombytes(index.tobytes())
        self.positions.frombytes(np.tile(np.arange(m, dtype=np.int64), len(index)).tobytes())
        self.copies.frombytes(copies.tobytes())
        self.lengths.frombytes(lengths.tobytes())
        self.attempts.frombytes(attempts.tobytes())


def _require_utf8(raw: str, lineno: int) -> None:
    """Reject a line that cannot be UTF-8 text. :func:`read_log` reads with
    ``errors="surrogateescape"``, which turns each byte that is not UTF-8
    into a lone surrogate."""
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(raw[exc.start])
        what = (
            f"byte 0x{code - 0xDC00:02x}" if 0xDC80 <= code <= 0xDCFF
            else f"character U+{code:04X}"
        )
        raise LogFormatError(
            f"{what} at column {exc.start + 1} is not valid UTF-8", lineno
        ) from None


def _decode_lines(
    lines: Sequence[str], first_lineno: int, position: Mapping[str, int], rows: _FileRows
) -> None:
    """Decode packet lines of any JSON layout one by one with ``json.loads``;
    ``first_lineno`` is the line number of ``lines[0]``. Each line needs
    exactly one copy per channel."""
    m = len(position)
    for lineno, raw in enumerate(lines, start=first_lineno):
        if not raw.isascii():
            _require_utf8(raw, lineno)
        if not raw.strip():
            continue
        try:
            d = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise LogFormatError(f"invalid JSON: {exc}", lineno) from exc
        try:
            packet_index = d["i"]
            entries = d["copies"]
        except (KeyError, TypeError) as exc:
            raise LogFormatError(f"bad packet record: {exc}", lineno) from exc
        if type(packet_index) is not int:
            raise LogFormatError("packet index 'i' must be an integer", lineno)
        if type(entries) is not list:
            raise LogFormatError("'copies' must be a list", lineno)
        line_positions = [
            _decode_copy(e, position, lineno, rows.copies, rows.lengths, rows.attempts)
            for e in entries
        ]
        if len(set(line_positions)) != len(line_positions):
            labels = [entry["ch"] for entry in entries]
            duplicate = next(x for x in labels if labels.count(x) > 1)
            raise LogFormatError(f"duplicate copy for channel {duplicate!r}", lineno)
        if len(line_positions) != m:
            raise LogFormatError(
                f"packet {packet_index}: missing channel copies", lineno
            )
        _extend(rows.index, (packet_index,), ("i",), lineno)
        rows.positions.extend(line_positions)


_DECODE_BLOCK = 1 << 16  # characters of packet lines per block, to bound memory


def decode_log(
    source: IO[str],
    validate: bool = True,
    request_epsilon_ns: int | None = None,
) -> RunLog:
    """Read a run written by :func:`encode_log`.

    Raises :class:`LogFormatError` (carrying the record index) on malformed
    input; with ``validate`` the decoded run is also checked against all
    structural invariants. ``request_epsilon_ns`` overrides the allowed
    request skew recorded in the header (for logs imported from real
    testbeds, whose request times only approximately coincide).

    Packet lines in the encoder's exact layout are parsed in blocks; any
    other JSON layout is decoded line by line, with the same result.
    """
    header = source.readline()
    if not header:
        raise LogFormatError("empty input, expected a meta header")
    if not header.isascii():
        _require_utf8(header, 1)
    meta = _decode_meta(header)
    labels = [cm.channel.label for cm in meta.channels]
    position = {label: j for j, label in enumerate(labels)}
    m = len(position)
    parser = BlockParser(labels, _COPY_FIELDS, _ATTEMPT_FIELDS)

    decoded = _FileRows()
    lineno = 2
    for block in line_blocks(source, _DECODE_BLOCK):
        parsed = parser.parse(block)
        if parsed is None:  # split at '\n' only, as iterating the source would
            lines = io.StringIO(block, newline="\n").readlines()
            _decode_lines(lines, lineno, position, decoded)
        else:
            decoded.extend(m, *parsed)
        lineno += block.count("\n")

    # file order (packet-major, channels in line order) to channel-major
    n = len(decoded.index)
    order = np.argsort(
        np.frombuffer(decoded.positions, dtype=np.int64) * n + np.arange(m * n) // m,
        kind="stable",
    )
    file_lengths = np.frombuffer(decoded.lengths, dtype=np.int64)
    file_offsets = np.concatenate(([0], np.cumsum(np.maximum(file_lengths, 0))))
    kept = np.maximum(file_lengths[order], 0)
    offsets = np.concatenate(([0], np.cumsum(kept)))
    rows = np.repeat(file_offsets[:-1][order] - offsets[:-1], kept) + np.arange(offsets[-1])
    channel_major = (
        np.frombuffer(decoded.index, dtype=np.int64).copy(),
        np.frombuffer(decoded.copies, dtype=np.int64).reshape(-1, len(_COPY_FIELDS))[order],
        file_lengths[order],
        np.frombuffer(decoded.attempts, dtype=np.int64).reshape(-1, len(_ATTEMPT_FIELDS))[rows],
    )
    # free the file-order rows before _from_rows copies, and its input after
    del decoded, file_lengths
    run = _from_rows(meta, *channel_major)
    del channel_major
    if validate:
        try:
            validate_run(run, request_epsilon_ns=request_epsilon_ns)
        except InvalidRunError as exc:
            raise LogFormatError(str(exc)) from exc
    return run


def write_atomic(path: str | os.PathLike, write: Callable[[IO[str]], None]) -> None:
    """Create or replace a text file atomically: ``write`` fills a temp file
    in the same directory, which is then renamed over ``path``."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as sink:
            write(sink)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_log(run: RunLog, path: str | os.PathLike) -> None:
    """Atomically write a run log file."""
    write_atomic(path, lambda sink: encode_log(run, sink))


def read_log(
    path: str | os.PathLike,
    validate: bool = True,
    request_epsilon_ns: int | None = None,
) -> RunLog:
    with open(path, encoding="utf-8", errors="surrogateescape") as source:
        return decode_log(
            source, validate=validate, request_epsilon_ns=request_epsilon_ns
        )


CSV_COLUMNS = ("i", "ch", "l", "t_T", "t_X", "w", "Td", "Ta")


def export_csv(run: RunLog, sink: IO[str]) -> None:
    """Flat spreadsheet export: one row per packet copy."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    index = run.index.tolist()
    per_channel = [
        zip(
            index,
            [channel.label] * len(index),
            run.lost[j].astype(np.int64).tolist(),
            run.req[j].tolist(),
            run.end[j].tolist(),
            run.attempts[j].tolist(),
            [td if has else "" for td, has in zip(run.td[j].tolist(), run.has_td[j].tolist())],
            [ta if has else "" for ta, has in zip(run.ta[j].tolist(), run.has_ta[j].tolist())],
        )
        for j, channel in enumerate(run.channels)
    ]
    writer.writerows(row for rows in zip(*per_channel) for row in rows)


def shift_copy(copy: CopyRecord, offset_ns: int) -> CopyRecord:
    """Displace a copy in time (request, end, and any trace starts)."""
    if offset_ns == 0:
        return copy
    trace = copy.trace
    if trace is not None:
        trace = tuple(replace(a, start_ns=a.start_ns + offset_ns) for a in trace)
    return replace(
        copy,
        request_ns=copy.request_ns + offset_ns,
        end_ns=copy.end_ns + offset_ns,
        trace=trace,
    )
