"""Duplication-avoidance post-analysis of run logs.

Works on the adapter-view tuples alone (reconstruction of final-attempt
starts gives sound lower bounds on what early termination would save) and,
when per-attempt traces are carried, computes the exact number of saved
attempts per copy. Deferred operation is analyzed either from logs with
real request displacement or virtually, by shifting one channel of a
non-deferred log in post-processing.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping

from .trace import (
    ChannelId,
    CopyRecord,
    PacketRecord,
    PhyParams,
    final_attempt_start,
    receive_time,
    shift_copy,
)

# Default guard on virtual displacement; channel conditions are only
# short-term stationary, so large shifts would not mimic a real run.
DEFAULT_VIRTUAL_DEFER_LIMIT_NS = 1_000_000


class DaMode(str, Enum):
    POW = "pow"
    RDA = "rda"
    TDD = "tdd"


class FailedCopyPolicy(str, Enum):
    # Lost copies never count as early-terminated (adapter view cannot
    # reconstruct their final attempt start; keeps the bound pessimistic).
    PESSIMISTIC_ZERO = "pessimistic-zero"
    # Use the recorded final DATA duration, which every traced copy carries,
    # to evaluate lost copies too.
    ORACLE = "oracle"


class TraceRequiredError(ValueError):
    """An exact (oracle) computation was asked of a log without traces."""


@dataclass(frozen=True, slots=True)
class DaParams:
    """Analysis mode and knobs.

    ``lost_copy_attempts`` charges lost copies in the attempt averages:
    ``None`` charges the maximum attempt count measured among delivered
    copies of the log, an integer charges that fixed value.
    """

    mode: DaMode = DaMode.POW
    t_lre_ns: int = 0
    t_d_ns: int = 0
    failed_copy_policy: FailedCopyPolicy = FailedCopyPolicy.PESSIMISTIC_ZERO
    lost_copy_attempts: int | None = None

    def validate(self) -> None:
        if self.t_lre_ns < 0:
            raise ValueError("reaction latency must be non-negative")
        if self.lost_copy_attempts is not None and self.lost_copy_attempts < 1:
            raise ValueError("fixed lost-copy attempt charge must be >= 1")
        if self.t_d_ns != 0 and self.mode is not DaMode.TDD:
            raise ValueError("a request displacement applies to tdd mode only")


@dataclass(frozen=True, slots=True)
class DaFlags:
    """Per-packet early-termination (e) and simplex (z) conditions."""

    early: dict[ChannelId, bool]
    simplex: dict[ChannelId, bool]
    quickest: ChannelId | None

    @property
    def early_link(self) -> bool:
        return any(self.early.values())

    @property
    def early_count(self) -> int:
        return sum(self.early.values())

    @property
    def simplex_link(self) -> bool:
        if self.quickest is None:
            return False
        return all(v for c, v in self.simplex.items() if c != self.quickest)


def policy_final_start(
    copy: CopyRecord, phy: PhyParams, policy: FailedCopyPolicy
) -> int | None:
    """Final-attempt start used by the termination test; ``None`` marks a
    lost copy the policy excludes (its e flag stays false)."""
    if copy.lost and policy is FailedCopyPolicy.PESSIMISTIC_ZERO:
        return None
    if copy.final_data_ns is None:  # only a lost copy may lack it
        raise TraceRequiredError(
            "oracle policy needs traces or frame durations for lost copies"
        )
    return final_attempt_start(copy, phy)


def _all_false(packet: PacketRecord) -> DaFlags:
    return DaFlags(
        early={c: False for c in packet.copies},
        simplex={c: False for c in packet.copies},
        quickest=None,
    )


def rda_flags(
    packet: PacketRecord,
    t_lre_ns: int,
    phy: Mapping[ChannelId, PhyParams],
    failed_copy_policy: FailedCopyPolicy = FailedCopyPolicy.PESSIMISTIC_ZERO,
) -> DaFlags:
    """Early-termination flags for reactive operation.

    The cross-ACK fires when the quickest channel's ACK ends; transmission
    of a copy counts as terminated early when the cross-ACK, delayed by the
    reaction latency, strictly precedes the start of the copy's final
    attempt. Packets lost on every channel produce no cross-ACK and carry
    all-false flags. Computed from final attempts only, so a true flag
    means at least one attempt is saved (lower-bound semantics).
    """
    delivered = [c for c, copy in packet.copies.items() if not copy.lost]
    if not delivered:
        return _all_false(packet)
    quickest = min(delivered, key=lambda c: (packet.copies[c].end_ns, c.index))
    xack_ns = packet.copies[quickest].end_ns
    early: dict[ChannelId, bool] = {}
    for channel, copy in packet.copies.items():
        if channel == quickest:
            early[channel] = False
            continue
        start = policy_final_start(copy, phy[channel], failed_copy_policy)
        early[channel] = start is not None and xack_ns + t_lre_ns < start
    return DaFlags(
        early=early, simplex={c: False for c in packet.copies}, quickest=quickest
    )


def simplex_flags(packet: PacketRecord, flags: DaFlags) -> DaFlags:
    """Fill the z flags: a copy was (provably) never sent at all when its
    only attempt was the one that got terminated early."""
    simplex = {
        c: flags.early[c] and packet.copies[c].attempts == 1 for c in packet.copies
    }
    if flags.quickest is not None:
        simplex[flags.quickest] = False
    return replace(flags, simplex=simplex)


def _duplex_pair(packet: PacketRecord) -> tuple[ChannelId, ChannelId]:
    if len(packet.copies) != 2:
        raise ValueError("deferred-operation analysis needs a duplex packet")
    first, second = sorted(packet.copies)
    return first, second


def tdd_flags(
    packet: PacketRecord,
    t_d_ns: int,
    t_lre_ns: int,
    phy: Mapping[ChannelId, PhyParams],
    failed_copy_policy: FailedCopyPolicy = FailedCopyPolicy.PESSIMISTIC_ZERO,
) -> DaFlags:
    """Early-termination flags under a virtual request displacement.

    Evaluates the asymmetric termination conditions on a non-deferred
    duplex packet as if the second channel's requests trailed the first's
    by ``t_d_ns`` (negative values defer the first channel instead). With
    ``t_d_ns = 0`` this reduces exactly to :func:`rda_flags`.
    """
    first, second = _duplex_pair(packet)
    c1, c2 = packet.copies[first], packet.copies[second]
    s1 = policy_final_start(c1, phy[first], failed_copy_policy)
    s2 = policy_final_start(c2, phy[second], failed_copy_policy)
    early = {
        second: (not c1.lost) and s2 is not None and c1.end_ns + t_lre_ns < s2 + t_d_ns,
        first: (not c2.lost) and s1 is not None and c2.end_ns + t_d_ns + t_lre_ns < s1,
    }
    quickest: ChannelId | None = None
    if not c1.lost and not c2.lost:
        quickest = first if c1.end_ns <= c2.end_ns + t_d_ns else second
    elif not c1.lost:
        quickest = first
    elif not c2.lost:
        quickest = second
    if quickest is not None:
        early[quickest] = False
    return DaFlags(
        early=early, simplex={c: False for c in packet.copies}, quickest=quickest
    )


def tdd_latency(
    packet: PacketRecord,
    t_d_ns: int,
    phy: Mapping[ChannelId, PhyParams],
) -> int | None:
    """Link latency of a non-deferred packet under virtual displacement:
    the deferred channel's copy is requested and arrives ``|t_d_ns|``
    later, and latency runs from the earliest displaced request to the
    earliest displaced arrival. ``None`` when lost on both channels. At
    ``t_d_ns = 0`` it is the link latency on recorded timestamps.
    """
    first, second = _duplex_pair(packet)
    shift = {first: max(0, -t_d_ns), second: max(0, t_d_ns)}
    arrivals = [
        receive_time(copy, phy[c]) + shift[c] for c, copy in packet.copies.items() if not copy.lost
    ]
    if not arrivals:
        return None
    return min(arrivals) - min(copy.request_ns + shift[c] for c, copy in packet.copies.items())


def oracle_saved_attempts(
    packet: PacketRecord, t_lre_ns: int, t_d_ns: int = 0
) -> dict[ChannelId, int]:
    """Exact per-channel attempt count under early termination.

    Requires per-attempt traces. For each channel other than the quickest,
    the result is the number of attempts whose start on air precedes the
    cross-ACK plus the reaction latency (the first attempt at or past that
    instant, and all later ones, are prevented). The quickest channel keeps
    all its attempts, as do all channels when the packet is lost on the
    whole link. ``t_d_ns`` applies a virtual displacement first. A negative
    ``t_lre_ns`` is refused, as reports refuse it.
    """
    DaParams(t_lre_ns=t_lre_ns).validate()
    for copy in packet.copies.values():
        if copy.trace is None:
            raise TraceRequiredError(
                "exact early-termination analysis needs per-attempt traces"
            )
    copies = packet.copies
    if t_d_ns != 0:
        first, second = _duplex_pair(packet)
        copies = {
            first: shift_copy(copies[first], max(0, -t_d_ns)),
            second: shift_copy(copies[second], max(0, t_d_ns)),
        }

    delivered = [c for c, copy in copies.items() if not copy.lost]
    if not delivered:
        return {c: copy.attempts for c, copy in copies.items()}
    quickest = min(delivered, key=lambda c: (copies[c].end_ns, c.index))
    xack_ns = copies[quickest].end_ns
    saved: dict[ChannelId, int] = {}
    for channel, copy in copies.items():
        if channel == quickest:
            saved[channel] = copy.attempts
            continue
        kept = copy.attempts
        for attempt in copy.trace:
            if xack_ns + t_lre_ns < attempt.start_ns:
                kept = attempt.ordinal - 1
                break
        saved[channel] = kept
    return saved
