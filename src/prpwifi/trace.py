"""Domain model for transmission logs on a redundant Wi-Fi link.

A run is an ordered sequence of packets; each packet has one copy per
physical channel, recorded as the adapter-visible tuple (loss flag, request
and end-of-transmission timestamps, attempt count, final frame durations)
plus, when the source is the simulator, the per-attempt ground-truth trace.

All timestamps and durations are integer nanoseconds on a single time base,
so every reconstruction below is exact integer arithmetic.
"""
from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, replace
from typing import IO, Callable, Mapping

TimeNs = int
DurationNs = int

LOG_FORMAT = "prpwifi-runlog"
LOG_VERSION = 1

VIEW_FULL_TRACE = "full-trace"
VIEW_ADAPTER = "adapter-only"


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

    def validate(self) -> None:
        if self.request_ns < 0:
            raise InvalidRunError("request time must be non-negative")
        if self.end_ns <= self.request_ns:
            raise InvalidRunError("end of transmission must follow the request")
        if self.attempts < 1:
            raise InvalidRunError("attempt count must be >= 1")
        if not self.lost:
            if self.final_data_ns is None or self.final_ack_ns is None:
                raise InvalidRunError("delivered copies need both frame durations")
        if self.trace is not None:
            if len(self.trace) != self.attempts:
                raise InvalidRunError("trace length must equal the attempt count")
            for prev, cur in zip(self.trace, self.trace[1:]):
                if cur.start_ns <= prev.start_ns:
                    raise InvalidRunError("attempt starts must strictly increase")
            if any(a.succeeded for a in self.trace[:-1]):
                raise InvalidRunError("only the final attempt may succeed")
            if self.trace[-1].succeeded == self.lost:
                raise InvalidRunError("trace outcome contradicts the loss flag")
            for a in self.trace:
                if (a.ack_ns is not None) != a.succeeded:
                    raise InvalidRunError(
                        "an attempt carries an ACK duration iff it succeeded"
                    )


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


@dataclass(frozen=True, slots=True)
class RunLog:
    meta: RunMeta
    packets: tuple[PacketRecord, ...]

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


def validate_run(run: RunLog, request_epsilon_ns: int | None = None) -> None:
    """Check every structural invariant of a run log.

    ``request_epsilon_ns`` bounds the allowed request-time skew between
    channels on non-deferred runs (defaults to the value stored in the
    meta header; the simulator emits perfectly aligned requests).
    """
    run.meta.validate()
    if len(run.packets) != run.meta.n_packets:
        raise InvalidRunError(
            f"meta says {run.meta.n_packets} packets, log has {len(run.packets)}"
        )
    if request_epsilon_ns is None:
        request_epsilon_ns = run.meta.request_epsilon_ns
    channels = run.channels
    phy_by = run.phy_by_channel()
    last_end = {c: -1 for c in channels}
    expected = 1
    for packet in run.packets:
        if packet.index != expected:
            raise InvalidRunError(
                f"packet indices must run 1..N without gaps (saw {packet.index})"
            )
        expected += 1
        if set(packet.copies) != set(channels):
            raise InvalidRunError(f"packet {packet.index}: missing channel copies")
        if run.meta.deferral_ns == 0:
            requests = [packet.copies[c].request_ns for c in channels]
            if max(requests) - min(requests) > request_epsilon_ns:
                raise InvalidRunError(
                    f"packet {packet.index}: request skew exceeds epsilon"
                )
        elif len(channels) == 2:
            skew = (
                packet.copies[channels[1]].request_ns
                - packet.copies[channels[0]].request_ns
            )
            if skew != run.meta.deferral_ns:
                raise InvalidRunError(
                    f"packet {packet.index}: request skew {skew} does not match "
                    f"the recorded displacement {run.meta.deferral_ns}"
                )
        for channel in channels:
            copy = packet.copies[channel]
            copy.validate()
            if copy.trace is not None:
                if copy.trace[0].start_ns <= last_end[channel]:
                    raise InvalidRunError(
                        f"packet {packet.index}: attempts overlap the previous packet"
                    )
                if copy.final_data_ns is not None:
                    # reconstruction identity: recorded start must match exactly
                    if final_attempt_start(copy, phy_by[channel]) != copy.trace[-1].start_ns:
                        raise InvalidRunError(
                            f"packet {packet.index}: final-attempt reconstruction mismatch"
                        )
            last_end[channel] = copy.end_ns


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


def _copy_to_dict(channel: ChannelId, copy: CopyRecord) -> dict:
    d: dict = {
        "ch": channel.label,
        "l": int(copy.lost),
        "t_T": copy.request_ns,
        "t_X": copy.end_ns,
        "w": copy.attempts,
    }
    if copy.final_data_ns is not None:
        d["Td"] = copy.final_data_ns
    if copy.final_ack_ns is not None:
        d["Ta"] = copy.final_ack_ns
    if copy.trace is not None:
        entries = []
        for a in copy.trace:
            e: dict = {"tW": a.start_ns, "Td": a.data_ns}
            if a.ack_ns is not None:
                e["Ta"] = a.ack_ns
            e["ok"] = int(a.succeeded)
            entries.append(e)
        d["trace"] = entries
    return d


def _not_int(d: dict, required: tuple[str, ...], optional: tuple[str, ...]) -> str:
    """Name of the first field of ``d`` that is not an int; optional fields
    may also be absent or null."""
    for key in required:
        if type(d[key]) is not int:
            return key
    return next(k for k in optional if type(d.get(k, 0)) not in (int, type(None)))


def _trace_from_list(entries: list, record_index: int) -> tuple[AttemptTrace, ...]:
    trace = []
    for pos, e in enumerate(entries, start=1):
        start_ns, data_ns, ack_ns, ok = e["tW"], e["Td"], e.get("Ta"), e["ok"]
        if not (
            type(start_ns) is int
            and type(data_ns) is int
            and (ack_ns is None or type(ack_ns) is int)
            and type(ok) is int
        ):
            name = _not_int(e, ("tW", "Td", "ok"), ("Ta",))
            raise LogFormatError(
                f"trace field {name!r} must be an integer", record_index
            )
        trace.append(AttemptTrace(pos, start_ns, data_ns, ack_ns, bool(ok)))
    return tuple(trace)


def _copy_from_dict(
    d: dict, by_label: Mapping[str, ChannelId], record_index: int
) -> tuple[ChannelId, CopyRecord]:
    """Decode one copy entry; every timestamp, duration and count must be an
    int (``bool`` and ``float`` are rejected) to keep times in integer ns."""
    try:
        label = d["ch"]
        lost = d["l"]
        request_ns, end_ns, attempts = d["t_T"], d["t_X"], d["w"]
        data_ns, ack_ns = d.get("Td"), d.get("Ta")
        if not (
            type(lost) is int
            and type(request_ns) is int
            and type(end_ns) is int
            and type(attempts) is int
            and (data_ns is None or type(data_ns) is int)
            and (ack_ns is None or type(ack_ns) is int)
        ):
            name = _not_int(d, ("l", "t_T", "t_X", "w"), ("Td", "Ta"))
            raise LogFormatError(f"field {name!r} must be an integer", record_index)
        trace_entries = d.get("trace")
        trace = None
        if trace_entries is not None:
            if type(trace_entries) is not list:
                raise LogFormatError("'trace' must be a list", record_index)
            trace = _trace_from_list(trace_entries, record_index)
        channel = by_label.get(label) if type(label) is str else None
    except (KeyError, TypeError) as exc:
        raise LogFormatError(f"bad copy entry: {exc}", record_index) from exc
    if channel is None:
        raise LogFormatError(f"unknown channel {label!r}", record_index)
    copy = CopyRecord(
        lost=bool(lost),
        request_ns=request_ns,
        end_ns=end_ns,
        attempts=attempts,
        final_data_ns=data_ns,
        final_ack_ns=ack_ns,
        trace=trace,
    )
    return channel, copy


def encode_log(run: RunLog, sink: IO[str]) -> None:
    """Write a run as JSON lines (meta header, then one packet per line)."""
    run.meta.validate()
    if len(run.packets) != run.meta.n_packets:
        raise InvalidRunError("packet count does not match meta")
    sink.write(json.dumps(_meta_to_dict(run.meta), separators=(",", ":")))
    sink.write("\n")
    for packet in run.packets:
        line = {
            "i": packet.index,
            "copies": [
                _copy_to_dict(ch, packet.copies[ch]) for ch in sorted(packet.copies)
            ],
        }
        sink.write(json.dumps(line, separators=(",", ":")))
        sink.write("\n")


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
    """
    lines = iter(enumerate(source, start=1))
    try:
        _, header = next(lines)
    except StopIteration:
        raise LogFormatError("empty input, expected a meta header") from None
    try:
        meta_dict = json.loads(header)
    except json.JSONDecodeError as exc:
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
    except (KeyError, TypeError) as exc:
        raise LogFormatError(f"bad meta header: {exc}", 1) from exc
    try:
        meta.validate()
    except (InvalidRunError, TypeError) as exc:
        raise LogFormatError(f"bad meta header: {exc}", 1) from exc

    by_label = {cm.channel.label: cm.channel for cm in meta.channels}
    packets = []
    for lineno, raw in lines:
        if not raw.strip():
            continue
        try:
            d = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"invalid JSON: {exc}", lineno) from exc
        try:
            index = d["i"]
            entries = d["copies"]
        except (KeyError, TypeError) as exc:
            raise LogFormatError(f"bad packet record: {exc}", lineno) from exc
        if type(index) is not int:
            raise LogFormatError("packet index 'i' must be an integer", lineno)
        if type(entries) is not list:
            raise LogFormatError("'copies' must be a list", lineno)
        copies = dict(_copy_from_dict(entry, by_label, lineno) for entry in entries)
        if len(copies) != len(entries):
            labels = [entry["ch"] for entry in entries]
            duplicate = next(x for x in labels if labels.count(x) > 1)
            raise LogFormatError(f"duplicate copy for channel {duplicate!r}", lineno)
        packets.append(PacketRecord(index=index, copies=copies))
    run = RunLog(meta=meta, packets=tuple(packets))
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
    with open(path) as source:
        return decode_log(
            source, validate=validate, request_epsilon_ns=request_epsilon_ns
        )


CSV_COLUMNS = ("i", "ch", "l", "t_T", "t_X", "w", "Td", "Ta")


def export_csv(run: RunLog, sink: IO[str]) -> None:
    """Flat spreadsheet export: one row per packet copy."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for packet in run.packets:
        for channel in sorted(packet.copies):
            c = packet.copies[channel]
            writer.writerow(
                [
                    packet.index,
                    channel.label,
                    int(c.lost),
                    c.request_ns,
                    c.end_ns,
                    c.attempts,
                    c.final_data_ns if c.final_data_ns is not None else "",
                    c.final_ack_ns if c.final_ack_ns is not None else "",
                ]
            )


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
