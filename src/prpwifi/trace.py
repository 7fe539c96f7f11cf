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
import stat
import tempfile
from dataclasses import dataclass, fields, replace
from typing import IO, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .logblocks import COPY_KEYS, ENTRY_KEYS, BlockFormatter, BlockParser, line_blocks

VIEW_FULL_TRACE = "full-trace"
VIEW_ADAPTER = "adapter-only"

# every end of transmission in a valid run, and so every attempt start,
# lies below this, so a time plus a displacement of less than it stays an
# int64
TIME_LIMIT_NS = 1 << 62


class LogFormatError(ValueError):
    """Malformed log input; ``record_index`` is the offending line (1-based)."""

    def __init__(self, message: str, record_index: int | None = None):
        if record_index is not None:
            message = f"record {record_index}: {message}"
        super().__init__(message)
        self.record_index = record_index


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

    def data_frame_for_attempt(self, ordinal: np.ndarray) -> np.ndarray:
        """DATA duration of each attempt, by 1-based ordinal."""
        frames = np.array(self.data_frame_schedule_ns or (self.data_frame_ns,), dtype=np.int64)
        return frames[np.minimum(ordinal, len(frames)) - 1]

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
    start_ns: int
    data_ns: int
    ack_ns: int | None

    @property
    def succeeded(self) -> bool:
        """An attempt succeeded iff it carries an ACK duration."""
        return self.ack_ns is not None


@dataclass(frozen=True, slots=True)
class CopyRecord:
    """Transmission record of one packet copy on one channel.

    ``final_data_ns``/``final_ack_ns`` describe the last attempt's DATA and
    ACK frames. Adapter-view records of lost copies carry neither (the
    hardware reports no frame durations once the retry limit is exceeded);
    delivered copies always carry both.
    """

    lost: bool
    request_ns: int
    end_ns: int
    attempts: int
    final_data_ns: int | None
    final_ack_ns: int | None
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
    period_ns: int
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
        if self.request_epsilon_ns < 0:
            raise InvalidRunError("request skew epsilon must be >= 0")
        if len(self.channels) < 2:
            raise InvalidRunError("a redundant link needs at least two channels")
        if self.deferral_ns != 0 and len(self.channels) != 2:
            raise InvalidRunError("a request displacement needs a duplex link")
        labels = [cm.channel.label for cm in self.channels]
        indices = [cm.channel.index for cm in self.channels]
        if len(set(labels)) != len(labels) or len(set(indices)) != len(indices):
            raise InvalidRunError("channel labels and indices must be unique")
        if list(indices) != sorted(indices):
            raise InvalidRunError("channels must be listed in index order")
        for cm in self.channels:
            try:
                cm.phy.validate()
                if cm.interferer_count < 0:
                    raise ValueError("interferers must be >= 0")
            except ValueError as exc:
                raise InvalidRunError(f"channel {cm.channel.label}: {exc}") from None


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
    in order; a copy carries a trace iff it has rows. ``ack`` is 0 where an
    attempt carries no ACK duration, and an attempt succeeded iff it
    carries one.
    """

    offsets: np.ndarray  # (m * n + 1,) int64
    start: np.ndarray  # (rows,) int64, start on air
    data: np.ndarray  # (rows,) int64, DATA duration
    ack: np.ndarray  # (rows,) int64, ACK duration

    def lengths(self) -> np.ndarray:
        """(m * n,) trace length per copy, 0 where it carries no trace."""
        return np.diff(self.offsets)


@dataclass(frozen=True, eq=False)
class RunLog(_Columns):
    """A run as per-channel columns.

    Every copy column has shape (channels, packets), channels in meta
    order. ``td``/``ta`` are the final attempt's DATA and ACK durations,
    0 where the copy carries none. ``index`` is each
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
    ta: np.ndarray  # (m, n) int64
    trace: AttemptTable | None = None

    @property
    def channels(self) -> tuple[ChannelId, ...]:
        return tuple(cm.channel for cm in self.meta.channels)

    def phy_by_channel(self) -> dict[ChannelId, PhyParams]:
        return {cm.channel: cm.phy for cm in self.meta.channels}

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
            rows = list(zip(t.start.tolist(), t.data.tolist(), _optional(t.ack)))
            offsets = t.offsets.tolist()
            for k in np.flatnonzero(t.lengths()).tolist():
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
                _optional(self.td[j]),
                _optional(self.ta[j]),
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
        needs exactly one copy per channel of ``meta``. A carried frame
        duration of 0 and an empty trace have no column form, since 0
        means not carried, and are refused."""
        channels = [cm.channel for cm in meta.channels]
        copies = []
        for p in packets:
            if len(p.copies) != len(channels) or not all(c in p.copies for c in channels):
                raise InvalidRunError(f"packet {p.index}: missing channel copies")
            for channel in channels:
                c = p.copies[channel]
                acks = [a.ack_ns for a in c.trace or ()]
                if c.trace == () or 0 in (c.final_data_ns, c.final_ack_ns, *acks):
                    what = "trace must not be empty" if c.trace == () else "duration must not be 0"
                    where = f"packet {p.index}, channel {channel.label}"
                    raise InvalidRunError(f"{where}: a carried {what}")
                copies.append(c)
        rows = [
            (c.lost, c.request_ns, c.end_ns, c.attempts, c.final_data_ns or 0, c.final_ack_ns or 0)
            for c in copies
        ]
        m, n = len(channels), len(packets)
        table = np.array(rows, dtype=np.int64).reshape(n, m, len(COPY_KEYS)).T
        lengths = np.array([len(c.trace or ()) for c in copies], dtype=np.int64).reshape(n, m).T
        trace = None
        if lengths.any():
            attempts = [
                (a.start_ns, a.data_ns, a.ack_ns or 0)
                for j in range(m)
                for c in copies[j::m]
                for a in c.trace or ()
            ]
            columns = np.array(attempts, dtype=np.int64).T.copy()
            trace = AttemptTable(attempt_offsets(lengths), **dict(zip(ATTEMPT_COLUMNS, columns)))
        return RunLog(
            meta=meta,
            index=np.array([p.index for p in packets], dtype=np.int64),
            trace=trace,
            **dict(zip(COPY_COLUMNS, [table[0].astype(bool), *table[1:].copy()])),
        )


def _optional(values: np.ndarray) -> list[int | None]:
    return [v or None for v in values.tolist()]


# The RunLog and AttemptTable columns that hold the fields of COPY_KEYS
# and ENTRY_KEYS, in the same order.
COPY_COLUMNS = ("lost", "req", "end", "attempts", "td", "ta")
ATTEMPT_COLUMNS = ("start", "data", "ack")


def attempt_offsets(lengths: np.ndarray) -> np.ndarray:
    """``AttemptTable.offsets`` of copies whose traces have ``lengths``,
    given in channel-major copy order (any shape)."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def final_attempt_start(copy: CopyRecord, phy: PhyParams) -> int:
    """Start-on-air of the copy's last attempt, reconstructed from its end.

    A delivered copy ends with DATA + SIFS + ACK, a lost one with DATA
    followed by the full ACK timeout. Lost adapter-view copies carry no
    DATA duration, so callers must not ask for theirs
    (``da.policy_final_start`` applies the failed-copy policy first).
    """
    assert copy.final_data_ns is not None
    if copy.lost:
        return copy.end_ns - (copy.final_data_ns + phy.ack_timeout_ns)
    assert copy.final_ack_ns is not None
    return copy.end_ns - (copy.final_data_ns + phy.sifs_ns + copy.final_ack_ns)


def receive_time(copy: CopyRecord, phy: PhyParams) -> int:
    """Estimated arrival of the packet at the recipient (delivered copies only)."""
    if copy.lost:
        raise ValueError("receive time is undefined for lost copies")
    assert copy.final_ack_ns is not None
    return copy.end_ns - (phy.sifs_ns + copy.final_ack_ns)


# --- columnar reconstruction ------------------------------------------------


def _per_channel(run: RunLog, name: str) -> np.ndarray:
    """(m, 1) PHY parameter ``name`` of each channel."""
    return np.array([[getattr(cm.phy, name)] for cm in run.meta.channels])


def _final_starts(end, td, ta, lost, sifs, ack_timeout) -> np.ndarray:
    """The rule of :func:`final_attempt_start` over arrays of any dtype."""
    return end - (td + np.where(lost, ack_timeout, sifs + ta))


def receive_times(run: RunLog) -> np.ndarray:
    """(m, n) :func:`receive_time` of every copy, valid where it was
    delivered."""
    rx = _per_channel(run, "sifs_ns") + run.ta
    return np.subtract(run.end, rx, out=rx)


def final_starts(run: RunLog) -> np.ndarray:
    """(m, n) :func:`final_attempt_start` of every copy, lost ones
    included, valid where ``td`` is carried. Where they are valid, neither this
    int64 arithmetic nor that of :func:`receive_times` can wrap on a run
    that passed :func:`validate_run`."""
    return _final_starts(
        run.end, run.td, run.ta, run.lost,
        _per_channel(run, "sifs_ns"), _per_channel(run, "ack_timeout_ns"),
    )


_SMALL = 1 << 60  # sums of up to four int64 terms below this cannot wrap


def _exact(test: Callable[..., np.ndarray], *operands) -> np.ndarray:
    """``test`` applied elementwise with Python-int arithmetic.

    It runs on the int64 operands first; the elements where some operand
    reaches 2^60 in magnitude, so that int64 arithmetic might wrap, are
    evaluated again on Python ints. Operands broadcast to the result.
    """
    result = test(*operands)
    large = np.zeros(result.shape, dtype=bool)
    for x in operands:
        large |= (x >= _SMALL) | (x <= -_SMALL)
    if large.any():
        result[large] = test(
            *(np.broadcast_to(x, large.shape)[large].astype(object) for x in operands)
        )
    return result


def validate_run(run: RunLog) -> None:
    """Check every structural invariant of a run log over whole columns.
    The error names the first offending packet, and for it the first
    failing check in per-packet order, with its channel for a copy check.
    Without a recorded displacement, requests may differ by the header's
    ``request_epsilon_ns`` (the simulator aligns them exactly).

    Each check's mask is reduced to its least offending copy as soon as it
    is built, and its operands are built just before it, so validation
    holds a few per-copy arrays beside the run at a time."""
    meta = run.meta
    meta.validate()
    n = len(run.index)
    if n != meta.n_packets:
        raise InvalidRunError(f"meta says {meta.n_packets} packets, log has {n}")
    req, end, lost = run.req, run.end, run.lost

    # (packet, channel, check, message) of each failing check. The checks
    # run in the order a per-packet pass checks them: an (n,) mask flags
    # packets and an (m, n) mask copies; a packet's own checks, at channel
    # -1, come before those of its copies, channel by channel
    failures: list[tuple[int, int, int, str]] = []

    def check(bad: np.ndarray, message: str) -> None:
        packets = bad if bad.ndim == 1 else bad.any(axis=0)
        if packets.any():
            i = int(np.argmax(packets))
            j = -1 if bad.ndim == 1 else int(np.argmax(bad[:, i]))
            failures.append((i, j, len(failures), message))

    check(
        run.index != np.arange(1, n + 1), "packet indices must run 1..N without gaps (saw {index})"
    )
    if meta.deferral_ns == 0:
        check(
            _exact(
                lambda hi, lo, eps: hi - lo > eps,
                req.max(axis=0),
                req.min(axis=0),
                meta.request_epsilon_ns,
            ),
            "request skew exceeds epsilon",
        )
    else:
        check(
            _exact(lambda a, b, d: b - a != d, req[0], req[1], meta.deferral_ns),
            "request skew {skew} does not match the recorded displacement {deferral}",
        )
    check(req < 0, "request time must be non-negative")
    check(end <= req, "end of transmission must follow the request")
    check(end >= TIME_LIMIT_NS, "end of transmission must come before 2^62 ns")
    check(run.attempts < 1, "attempt count must be >= 1")
    known = run.td != 0
    check(~lost & (~known | (run.ta == 0)), "delivered copies need both frame durations")
    check((run.td < 0) | (run.ta < 0), "frame durations must be positive")
    # a copy that passes the checks on its durations and final start has a
    # final start and a receive time that int64 arithmetic computes exactly;
    # they come before the reconstruction mismatch, which relies on it
    starts_early = _exact(
        lambda *x: _final_starts(*x[:-1]) < x[-1],
        end, run.td, run.ta, lost,
        _per_channel(run, "sifs_ns"), _per_channel(run, "ack_timeout_ns"), req,
    )
    check(known & starts_early, "the final attempt must not start before the request")
    del known, starts_early

    t = run.trace
    if t is not None and len(t.start):  # take() below needs rows
        first, past = t.offsets[:-1], t.offsets[1:]  # each copy's first row, and past its last
        traced = (past > first).reshape(req.shape)

        def copies_of(bad_rows: np.ndarray) -> np.ndarray:
            """(m, n) flags of the copies that hold the attempt rows
            ``bad_rows``."""
            flags = np.zeros(first.size, dtype=bool)
            flags[np.searchsorted(t.offsets, bad_rows, side="right") - 1] = True
            return flags.reshape(req.shape)

        def of_row(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
            """(m, n) ``values`` at each copy's row in ``rows``, valid where
            the copy is traced."""
            return values.take(rows, mode="clip").reshape(req.shape)

        check(
            traced & (np.diff(t.offsets).reshape(req.shape) != run.attempts),
            "trace length must equal the attempt count",
        )
        # bounds[r]: a trace starts at row r; bounds[r + 1]: one ends at row r
        bounds = np.zeros(len(t.start) + 1, dtype=bool)
        bounds[t.offsets] = True
        check(
            copies_of(np.flatnonzero((t.start[1:] <= t.start[:-1]) & ~bounds[1:-1]) + 1),
            "attempt starts must strictly increase",
        )
        check(
            copies_of(np.flatnonzero((t.data <= 0) | (t.ack < 0))),
            "attempt frame durations must be positive",
        )
        check(
            copies_of(np.flatnonzero((t.ack != 0) & ~bounds[1:])),
            "only the final attempt may succeed",
        )
        del bounds
        check(
            traced & ((of_row(t.ack, past - 1) != 0) == lost),
            "trace outcome contradicts the loss flag",
        )
        check(
            traced & ((run.td != of_row(t.data, past - 1)) | (run.ta != of_row(t.ack, past - 1))),
            "final frame durations must be the last attempt's",
        )
        # the first attempt must start after the channel's previous end
        starts = of_row(t.start, first)
        check(
            traced & np.concatenate((starts[:, :1] < 0, starts[:, 1:] <= end[:, :-1]), axis=1),
            "attempts overlap the previous packet",
        )
        del starts
        # past the final-frame check, a traced copy's final start is known
        check(
            traced & (final_starts(run) != of_row(t.start, past - 1)),
            "final-attempt reconstruction mismatch",
        )

    # the least (packet, channel, check) fails; its message names the
    # packet, and the channel if any
    if failures:
        i, j, _, message = min(failures)
        where = f"packet {i + 1}" + (f", channel {run.channels[j].label}" if j >= 0 else "")
        message = message.format(
            index=run.index[i], skew=int(req[1, i]) - int(req[0, i]), deferral=meta.deferral_ns
        )
        raise InvalidRunError(f"{where}: {message}")


# --- serialization ---------------------------------------------------------
#
# Log file layout: JSON lines. The first line is the meta header, every
# following line is one packet:
#   {"i": 1, "copies": [{"ch": "A", "l": 0, "t_T": ..., "t_X": ..., "w": ...,
#                        "Td": ..., "Ta": ..., "trace": [...]}, ...]}
# Optional fields (Td, Ta, trace) are omitted when absent. Trace entries are
# {"tW": ..., "Td": ..., "Ta": ..., "ok": 0|1} with Ta omitted on failures:
# "ok" is nonzero iff the entry carries Ta, so the run keeps no flag for it.
# A Td or Ta that a line carries is positive, and a trace holds at least one
# entry: a run stores 0 and no rows for what a copy does not carry.


# The meta header is one JSON object, described once by the table below and
# walked by _meta_to_dict and _meta_from_dict. A _Level is one object: the
# dataclass it holds and its keys in order as (key, field, kind). A kind is a
# _Scalar, a _Level (the object under the key; under key None, one whose keys
# sit in the enclosing object), a list of one _Level, or under field None a
# constant. Only an optional scalar may be absent, where its field is None.
# Ranges are left to the dataclasses' validate().


class _Scalar(NamedTuple):
    what: str  # what a value must be, for the error message
    test: Callable[[object], bool]
    optional: bool = False


class _Level(NamedTuple):
    cls: type
    keys: tuple[tuple[str | None, str | None, object], ...]


def _is_int64(value: object) -> bool:
    return type(value) is int and -(1 << 63) <= value < 1 << 63


_INT64 = _Scalar("an int64", _is_int64)
_STR = _Scalar("a string", lambda v: type(v) is str)
# also the PHY keys of config files; a field ending in ``_ns`` is a duration
PHY_HEADER = _Level(PhyParams, (
    ("sifs", "sifs_ns", _INT64),
    ("ack_timeout", "ack_timeout_ns", _INT64),
    ("slot", "slot_ns", _INT64),
    ("difs", "difs_ns", _INT64),
    ("cw_min", "cw_min", _INT64),
    ("cw_max", "cw_max", _INT64),
    ("retry_limit", "retry_limit", _INT64),
    ("data_frame", "data_frame_ns", _INT64),
    ("ack_frame", "ack_frame_ns", _INT64),
    ("data_frame_schedule", "data_frame_schedule_ns", _Scalar(
        "a list of int64s", lambda v: type(v) is list and all(map(_is_int64, v)), optional=True
    )),
))
_HEADER = _Level(RunMeta, (
    ("format", None, "prpwifi-runlog"),
    ("version", None, 1),
    ("n", "n_packets", _INT64),
    ("t_m", "period_ns", _INT64),
    # config files take any int seed and only format it into stream names
    ("seed", "seed", _Scalar("an integer", lambda v: type(v) is int)),
    ("view", "view", _STR),
    ("deferral_td", "deferral_ns", _INT64),
    ("epsilon", "request_epsilon_ns", _INT64),
    ("channels", "channels", [_Level(ChannelMeta, (
        (None, "channel", _Level(ChannelId, (("ch", "label", _STR), ("index", "index", _INT64)))),
        ("interferers", "interferer_count", _INT64),
        ("seed_salt", "seed_salt", _STR),
        ("phy", "phy", PHY_HEADER),
    ))]),
))


def _meta_to_dict(obj: object, level: _Level = _HEADER) -> dict:
    """The header object of ``obj``, a dataclass of ``level``."""
    d: dict = {}
    for key, field, kind in level.keys:
        value = kind if field is None else getattr(obj, field)
        if key is None:
            d.update(_meta_to_dict(value, kind))
        elif isinstance(kind, _Level):
            d[key] = _meta_to_dict(value, kind)
        elif isinstance(kind, list):
            d[key] = [_meta_to_dict(v, kind[0]) for v in value]
        elif value is not None or not kind.optional:
            d[key] = list(value) if type(value) is tuple else value
    return d


def _meta_from_dict(d: object, level: _Level = _HEADER, prefix: str = "") -> object:
    """The dataclass of ``level`` held by the header object ``d``. Raise
    :class:`LogFormatError` at record 1 naming the first key, as ``prefix +
    key``, that is missing, of the wrong kind or unknown."""
    if type(d) is not dict:
        what = f"header key {prefix[:-1]!r}" if prefix else "meta header"
        raise LogFormatError(f"{what} must be a JSON object", 1)
    values = {}
    for key, field, kind in level.keys:
        name, value = prefix + (key or ""), d.get(key)
        if key is None:
            value = _meta_from_dict({k: d[k] for k, _, _ in kind.keys if k in d}, kind, prefix)
        elif key not in d:
            if not (isinstance(kind, _Scalar) and kind.optional):
                raise LogFormatError(f"header key {name!r} is missing", 1)
        elif field is None:
            if type(value) is not type(kind) or value != kind:
                raise LogFormatError(f"header key {name!r} must be {kind!r}", 1)
            continue
        elif isinstance(kind, _Level):
            value = _meta_from_dict(value, kind, name + ".")
        elif isinstance(kind, list):
            if type(value) is not list:
                raise LogFormatError(f"header key {name!r} must be a list", 1)
            # a channel's keys are named after its label, where it has one
            labels = [e.get("ch") if type(e) is dict else None for e in value]
            value = tuple(
                _meta_from_dict(e, kind[0], f"{lb}." if type(lb) is str else f"{name}[{j}].")
                for j, (e, lb) in enumerate(zip(value, labels))
            )
        elif not kind.test(value):
            raise LogFormatError(f"header key {name!r} must be {kind.what}", 1)
        values[field] = tuple(value) if type(value) is list else value
    # the object's keys: the level's own and those of the levels under key None
    names = {n for k, _, kind in level.keys for n in ([k] if k else [e[0] for e in kind.keys])}
    unknown = sorted(d.keys() - names)
    if unknown:
        raise LogFormatError(f"unknown header key {prefix + unknown[0]!r}", 1)
    return level.cls(**values)


def _check_numbers(d: dict, required: tuple, optional: tuple, what: str, record_index: int) -> None:
    """Raise :class:`LogFormatError` naming the first field of ``d`` that is
    not an int64, then the first frame duration (``Td``, ``Ta``) that is
    not positive; optional fields may also be absent, but not null."""
    for key in required + optional:
        if not _is_int64(d.get(key)) and (key in required or key in d):
            raise LogFormatError(f"{what} {key!r} must be an int64", record_index)
    for key in ("Td", "Ta"):
        if d.get(key, 1) <= 0:
            raise LogFormatError(f"{what} {key!r} must be positive", record_index)


def _check_keys(d: dict, allowed: frozenset, what: str, record_index: int) -> None:
    if not allowed.issuperset(d):
        raise LogFormatError(f"unknown {what} key {min(d.keys() - allowed)!r}", record_index)


_ENCODE_BLOCK = 4096  # packets formatted per write, to bound memory


def encode_log(run: RunLog, sink: IO[str]) -> None:
    """Write a run as JSON lines (meta header, then one packet per line)."""
    run.meta.validate()
    n = len(run.index)
    if n != run.meta.n_packets:
        raise InvalidRunError("packet count does not match meta")
    sink.write(json.dumps(_meta_to_dict(run.meta), separators=(",", ":")) + "\n")
    formatter = BlockFormatter([c.label for c in run.channels])
    columns = [getattr(run, name) for name in COPY_COLUMNS]
    m, t = len(run.channels), run.trace
    if t is not None:
        first_rows, trace_lengths = t.offsets[:-1].reshape(m, n), t.lengths().reshape(m, n)
    for lo in range(0, n, _ENCODE_BLOCK):
        hi = min(lo + _ENCODE_BLOCK, n)
        copies = [c[:, lo:hi].T.ravel() for c in columns]  # packet-major
        if t is None:
            lengths = np.zeros(m * (hi - lo), dtype=np.int64)
            attempts = [np.zeros(0, dtype=np.int64)] * len(ENTRY_KEYS)
        else:
            lengths = trace_lengths[:, lo:hi].T.ravel()
            # the attempt rows of the block's copies, in packet-major order
            before = np.cumsum(lengths) - lengths
            rows = np.repeat(first_rows[:, lo:hi].T.ravel() - before, lengths)
            rows += np.arange(len(rows))
            attempts = [getattr(t, name)[rows] for name in ATTEMPT_COLUMNS]
        sink.write(formatter.format(run.index[lo:hi], copies, lengths, attempts))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    d = dict(pairs)
    if len(d) < len(pairs):
        keys = [key for key, _ in pairs]
        raise LogFormatError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return d


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
# the keys of a packet line, of one of its copies and of a trace entry
_PACKET_KEYS = frozenset(("i", "copies"))
_COPY_ENTRY_KEYS = frozenset(("ch", "trace", *COPY_KEYS))
_TRACE_ENTRY_KEYS = frozenset((*ENTRY_KEYS, "ok"))


def _loads(raw: str, what: str, record_index: int) -> object:
    """The JSON value of one record; no object in it may repeat a key."""
    try:
        return _DECODER.decode(raw)
    except LogFormatError as exc:  # from _unique_keys
        raise LogFormatError(str(exc), record_index) from None
    except (ValueError, RecursionError) as exc:
        raise LogFormatError(f"{what}: {exc}", record_index) from exc


def _decode_meta(header: str) -> RunMeta:
    meta = _meta_from_dict(_loads(header, "meta header is not valid JSON", 1))
    try:
        meta.validate()
    except ValueError as exc:
        raise LogFormatError(f"bad meta header: {exc}", 1) from exc
    return meta


def _decode_copy(
    d: dict, position: Mapping[str, int], record_index: int
) -> tuple[int, tuple, int, list[tuple]]:
    """(channel position, ``COPY_KEYS`` row, trace length, ``ENTRY_KEYS``
    rows) of one copy entry. Every timestamp, duration and count must be an
    int64 (``bool`` and ``float`` are rejected) to keep times in integer ns,
    every ``Td`` and ``Ta`` positive and a trace non-empty, and a trace
    entry's ``ok`` nonzero iff it carries ``Ta``."""
    try:
        label = d["ch"]
        lost, request_ns, end_ns, w = d["l"], d["t_T"], d["t_X"], d["w"]
        data_ns, ack_ns = d.get("Td", 0), d.get("Ta", 0)
        _check_numbers(d, ("l", "t_T", "t_X", "w"), ("Td", "Ta"), "field", record_index)
        _check_keys(d, _COPY_ENTRY_KEYS, "copy", record_index)
        trace_entries = d.get("trace")
        if "trace" in d and type(trace_entries) is not list:
            raise LogFormatError("'trace' must be a list", record_index)
        if trace_entries == []:
            raise LogFormatError("'trace' must not be empty", record_index)
        attempts = []
        for e in trace_entries or ():
            start, data, ack, ok = e["tW"], e["Td"], e.get("Ta", 0), e["ok"]
            _check_numbers(e, ("tW", "Td", "ok"), ("Ta",), "trace field", record_index)
            _check_keys(e, _TRACE_ENTRY_KEYS, "trace", record_index)
            if (ok != 0) != ("Ta" in e):
                raise LogFormatError(
                    "an attempt carries an ACK duration iff it succeeded", record_index
                )
            attempts.append((start, data, ack))
        j = position.get(label) if type(label) is str else None
    except (KeyError, TypeError) as exc:
        raise LogFormatError(f"bad copy entry: {exc}", record_index) from exc
    if j is None:
        raise LogFormatError(f"unknown channel {label!r}", record_index)
    return j, (lost != 0, request_ns, end_ns, w, data_ns, ack_ns), len(attempts), attempts


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
    block: str, first_lineno: int, position: Mapping[str, int]
) -> tuple[np.ndarray, ...]:
    """Decode the lines of ``block`` (split at ``"\\n"`` only, as iterating
    the log splits them), in any JSON layout, one by one with ``json.loads``;
    ``first_lineno`` is the number of the first. Each line needs exactly one
    copy per channel. Returns rows laid out as :meth:`BlockParser.parse`
    returns them, each line's copies in channel order."""
    m = len(position)
    index, copies, lengths, attempts = [], [], [], []
    for lineno, raw in enumerate(io.StringIO(block, newline="\n"), start=first_lineno):
        if not raw.isascii():
            _require_utf8(raw, lineno)
        if not raw.strip():
            continue
        d = _loads(raw, "invalid JSON", lineno)
        try:
            packet_index = d["i"]
            entries = d["copies"]
        except (KeyError, TypeError) as exc:
            raise LogFormatError(f"bad packet record: {exc}", lineno) from exc
        _check_keys(d, _PACKET_KEYS, "packet", lineno)
        if not _is_int64(packet_index):
            raise LogFormatError("packet index 'i' must be an int64", lineno)
        if type(entries) is not list:
            raise LogFormatError("'copies' must be a list", lineno)
        decoded = [_decode_copy(e, position, lineno) for e in entries]
        if len({c[0] for c in decoded}) != len(decoded):
            labels = [entry["ch"] for entry in entries]
            duplicate = next(x for x in labels if labels.count(x) > 1)
            raise LogFormatError(f"duplicate copy for channel {duplicate!r}", lineno)
        if len(decoded) != m:
            raise LogFormatError(
                f"packet {packet_index}: missing channel copies", lineno
            )
        index.append(packet_index)
        for _, row, length, rows in sorted(decoded, key=lambda c: c[0]):
            copies.append(row)
            lengths.append(length)
            attempts += rows
    return (
        np.array(index, dtype=np.int64),
        np.array(copies, dtype=np.int64).reshape(-1, len(COPY_KEYS)),
        np.array(lengths, dtype=np.int64),
        np.array(attempts, dtype=np.int64).reshape(-1, len(ENTRY_KEYS)),
    )


_DECODE_BLOCK = 1 << 18  # characters of packet lines per block, to bound memory
_FIRST_CAPACITY = 1 << 16  # packets decoded before the columns grow, from a stream


def _extended(a: np.ndarray, count: int, size: int) -> np.ndarray:
    """``a`` with its last axis of ``count`` decoded packets made room for
    ``size``."""
    out = np.empty((*a.shape[:-1], size), dtype=a.dtype)
    out[..., :count] = a[..., :count]
    return out


def _first_capacity(source: IO[str], header: str, meta: RunMeta) -> int:
    """Packets to make room for before any is decoded: the header's count,
    but from a regular file no more than the bytes after the header can
    hold, at one byte per label character and one digit per number, and
    otherwise no more than ``_FIRST_CAPACITY``. Too small an estimate only
    costs a growth."""
    try:
        status = os.fstat(source.fileno())
    except (AttributeError, OSError, ValueError):  # no file behind the source
        status = None
    if status is None or not stat.S_ISREG(status.st_mode):
        return min(meta.n_packets, _FIRST_CAPACITY)
    copies = ",".join(
        '{"ch":"%s","l":0,"t_T":0,"t_X":0,"w":0}' % ("x" * len(cm.channel.label))
        for cm in meta.channels
    )
    shortest = len('{"i":0,"copies":[%s]}' % copies)
    rest = status.st_size - len(header.encode())
    return min(meta.n_packets, max(rest, 0) // shortest)


def decode_log(source: IO[str], validate: bool = True) -> RunLog:
    """Read a run written by :func:`encode_log`.

    Raises :class:`LogFormatError` (carrying the record index) on malformed
    input; with ``validate`` the run is also checked by :func:`validate_run`,
    whose error names the offending packet and, for a copy check, its
    channel. Only the header's ``epsilon`` bounds the request skew (logs
    from real testbeds, whose requests only nearly coincide, set it).

    A ``Td`` or ``Ta`` that a line carries, of a copy or of a trace entry,
    must be positive and a ``trace`` non-empty: the run stores 0 and no
    attempt rows for what a copy does not carry. A trace entry's ``ok`` is
    nonzero iff the entry carries ``Ta``.

    Packet lines in the encoder's exact layout are parsed in blocks; any
    other JSON layout, and any line that breaks those rules, is decoded
    line by line, with the same result or error.
    """
    header = source.readline()
    if not header:
        raise LogFormatError("empty input, expected a meta header")
    if not header.isascii():
        _require_utf8(header, 1)
    meta = _decode_meta(header)
    labels = [cm.channel.label for cm in meta.channels]
    position = {label: j for j, label in enumerate(labels)}
    parser = BlockParser(labels)
    m = len(labels)

    # channel-major columns of the packets decoded so far: the loss flags,
    # the int64 copy fields after l in one buffer, and the trace lengths
    size = _first_capacity(source, header, meta)
    index = np.empty(size, dtype=np.int64)
    lost = np.empty((m, size), dtype=bool)
    ints = np.empty((len(COPY_KEYS) - 1, m, size), dtype=np.int64)
    lengths = np.empty((m, size), dtype=np.int64)
    # per attempt column, one buffer per channel whose first rows[j]
    # entries hold channel j's attempts so far: the run's channel-major
    # column is their concatenation, so no whole-run gather is needed
    grown = [[np.empty(0, dtype=np.int64)] * m for _ in ATTEMPT_COLUMNS]
    rows = [0] * m
    count, lineno = 0, 2
    for block in line_blocks(source, _DECODE_BLOCK):
        if (parsed := parser.parse(block)) is None:
            parsed = _decode_lines(block, lineno, position)
            lineno += block.count("\n") - len(parsed[0])  # the lines without a packet
        lineno += len(parsed[0])  # a line per packet, cheaper than counting lines
        block_index, block_copies, block_lengths, block_attempts = parsed
        stop = count + len(block_index)
        if stop > size:
            size = max(stop, 2 * size)
            if stop <= meta.n_packets:
                size = min(size, meta.n_packets)
            index, lost, ints, lengths = (
                _extended(a, count, size) for a in (index, lost, ints, lengths)
            )
        index[count:stop] = block_index
        copies = block_copies.reshape(-1, m, len(COPY_KEYS)).T
        lost[:, count:stop], ints[..., count:stop] = copies[0], copies[1:]
        lengths[:, count:stop] = block_lengths.reshape(-1, m).T
        if len(block_attempts):
            channel_of = np.repeat(np.arange(len(block_lengths)) % m, block_lengths)
            for j in range(m):
                attempts = block_attempts[channel_of == j].T
                end = rows[j] + attempts.shape[1]
                if end > len(grown[0][j]):
                    # room for as many attempts per packet as seen so far
                    # over all the packets there is room for, and 1/8 more
                    room = end * size // stop * 9 // 8
                    for buffers in grown:
                        buffers[j] = _extended(buffers[j], rows[j], room)
                for buffers, column in zip(grown, attempts):
                    buffers[j][rows[j]:end] = column
                rows[j] = end
        count = stop

    # the buffers reach their final size when the header's count is right;
    # otherwise the run keeps copies, so it holds no slack
    index, lost, ints = (
        a if a.shape[-1] == count else a[..., :count].copy() for a in (index, lost, ints)
    )
    offsets = attempt_offsets(lengths[:, :count]) if any(rows) else None
    del lengths
    trace = None
    if offsets is not None:
        # one column at a time, each channel's buffer freed once copied
        columns = {}
        for name, buffers in zip(ATTEMPT_COLUMNS, grown):
            columns[name] = np.concatenate([b[:r] for b, r in zip(buffers, rows)])
            buffers.clear()
        trace = AttemptTable(offsets=offsets, **columns)
    run = RunLog(meta=meta, index=index, trace=trace, **dict(zip(COPY_COLUMNS, [lost, *ints])))
    del index, lost, ints  # free what the run does not hold before validation
    if validate:
        try:
            validate_run(run)
        except InvalidRunError as exc:
            raise LogFormatError(str(exc)) from exc
    return run


def write_atomic(path: str | os.PathLike, write: Callable[[IO[str]], None]) -> None:
    """Create or replace a text file atomically: ``write`` fills a temp file
    in the same directory, which is then renamed over ``path``. An
    ``OSError`` names ``path``, and no temp file is left behind."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as sink:
            write(sink)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            # name the requested path, not the random temp file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def write_log(run: RunLog, path: str | os.PathLike) -> None:
    """Atomically write a run log file."""
    write_atomic(path, lambda sink: encode_log(run, sink))


def read_log(path: str | os.PathLike, validate: bool = True) -> RunLog:
    with open(path, encoding="utf-8", errors="surrogateescape") as source:
        return decode_log(source, validate=validate)


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
            [td or "" for td in run.td[j].tolist()],
            [ta or "" for ta in run.ta[j].tolist()],
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
