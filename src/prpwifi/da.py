"""Duplication-avoidance post-analysis of run logs.

Works on the adapter-view tuples alone (reconstruction of final-attempt
starts gives sound lower bounds on what early termination would save) and,
when per-attempt traces are carried, computes the exact number of saved
attempts per copy. Deferred operation is analyzed either from logs with
real request displacement or virtually, by shifting one channel of a
non-deferred log in post-processing.
"""
from __future__ import annotations

import math
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


def rda_flags(
    packet: PacketRecord,
    t_lre_ns: int,
    phy: Mapping[ChannelId, PhyParams],
    failed_copy_policy: FailedCopyPolicy = FailedCopyPolicy.PESSIMISTIC_ZERO,
) -> DaFlags:
    """Early-termination (e) and simplex (z) flags for reactive operation.

    The cross-ACK fires when the quickest channel's ACK ends; transmission
    of a copy counts as terminated early when the cross-ACK, delayed by the
    reaction latency, strictly precedes the start of the copy's final
    attempt. Packets lost on every channel produce no cross-ACK and carry
    all-false flags; the failed-copy policy still applies to each of their
    copies. Computed from final attempts only, so a true flag means at
    least one attempt is saved (lower-bound semantics). A copy's z flag
    marks it as (provably) never sent: it is early and its only attempt is
    the one terminated.
    """
    starts = {
        c: policy_final_start(copy, phy[c], failed_copy_policy) for c, copy in packet.copies.items()
    }
    delivered = [c for c, copy in packet.copies.items() if not copy.lost]
    quickest = min(delivered, key=lambda c: (packet.copies[c].end_ns, c.index), default=None)
    xack_ns = math.inf if quickest is None else packet.copies[quickest].end_ns
    early = {
        c: c != quickest and start is not None and xack_ns + t_lre_ns < start
        for c, start in starts.items()
    }
    simplex = {c: early[c] and packet.copies[c].attempts == 1 for c in packet.copies}
    return DaFlags(early=early, simplex=simplex, quickest=quickest)


def displaced(packet: PacketRecord, t_d_ns: int) -> PacketRecord:
    """A duplex packet as if one channel's requests had been deferred by
    ``|t_d_ns|``: the second channel's copy moved ``t_d_ns`` later, or, for a
    negative ``t_d_ns``, the first channel's moved ``-t_d_ns`` later
    (:func:`~prpwifi.trace.shift_copy`). The one displacement rule of this
    module: TDD is RDA on the displaced packet.
    """
    if len(packet.copies) != 2:
        raise ValueError("deferred-operation analysis needs a duplex packet")
    first, second = sorted(packet.copies)
    deferred = second if t_d_ns > 0 else first
    moved = shift_copy(packet.copies[deferred], abs(t_d_ns))
    return replace(packet, copies={**packet.copies, deferred: moved})


def tdd_flags(
    packet: PacketRecord,
    t_d_ns: int,
    t_lre_ns: int,
    phy: Mapping[ChannelId, PhyParams],
    failed_copy_policy: FailedCopyPolicy = FailedCopyPolicy.PESSIMISTIC_ZERO,
) -> DaFlags:
    """Early-termination flags under a virtual request displacement: the
    :func:`rda_flags` of the :func:`displaced` packet, so at ``t_d_ns = 0``
    they are the packet's own."""
    return rda_flags(displaced(packet, t_d_ns), t_lre_ns, phy, failed_copy_policy)


def tdd_latency(
    packet: PacketRecord,
    t_d_ns: int,
    phy: Mapping[ChannelId, PhyParams],
) -> int | None:
    """Link latency of a non-deferred packet under virtual displacement: the
    earliest arrival minus the earliest request of the :func:`displaced`
    packet. ``None`` when lost on both channels. At ``t_d_ns = 0`` it is
    the link latency on recorded timestamps.
    """
    copies = displaced(packet, t_d_ns).copies
    arrivals = [receive_time(copy, phy[c]) for c, copy in copies.items() if not copy.lost]
    if not arrivals:
        return None
    return min(arrivals) - min(copy.request_ns for copy in copies.values())


def oracle_saved_attempts(
    packet: PacketRecord, t_lre_ns: int, t_d_ns: int = 0
) -> dict[ChannelId, int]:
    """Exact per-channel attempt count under early termination.

    Requires per-attempt traces. For each channel other than the quickest,
    the result is the number of attempts whose start on air precedes the
    cross-ACK plus the reaction latency (the first attempt at or past that
    instant, and all later ones, are prevented). The quickest channel keeps
    all its attempts, as do all channels when the packet is lost on the
    whole link. A nonzero ``t_d_ns`` applies :func:`displaced` first. A
    negative ``t_lre_ns`` is refused, as reports refuse it.
    """
    DaParams(t_lre_ns=t_lre_ns).validate()
    for copy in packet.copies.values():
        if copy.trace is None:
            raise TraceRequiredError(
                "exact early-termination analysis needs per-attempt traces"
            )
    if t_d_ns:
        packet = displaced(packet, t_d_ns)
    copies = packet.copies

    delivered = [c for c, copy in copies.items() if not copy.lost]
    quickest = min(delivered, key=lambda c: (copies[c].end_ns, c.index), default=None)
    xack_ns = math.inf if quickest is None else copies[quickest].end_ns
    # a copy keeps the attempts ahead of its first one past the cross-ACK
    return {
        c: copy.attempts if c == quickest else next(
            (k for k, a in enumerate(copy.trace) if xack_ns + t_lre_ns < a.start_ns),
            copy.attempts,
        )
        for c, copy in copies.items()
    }
