import pytest
from hypothesis import given

from prpwifi import (
    TraceRequiredError,
)
from prpwifi.trace import PacketRecord
from prpwifi.da import (
    DaFlags,
    FailedCopyPolicy,
    oracle_saved_attempts,
    rda_flags,
    simplex_flags,
    tdd_flags,
    tdd_latency,
)

from conftest import duplex_packets
from helpers import (
    CH_A,
    CH_B,
    HAND_PHY,
    copy_from_starts,
    link_outcome,
    make_lost_copy,
    make_run,
    make_success_copy,
    virtual_defer,
)

PHY_BY = {CH_A: HAND_PHY, CH_B: HAND_PHY}

US = 1_000


def spec_packet():
    """A quickest with its ACK ending at 500 us; B delivered at 900 us, so
    B's final attempt started at 566 us."""
    return PacketRecord(
        index=1,
        copies={
            CH_A: make_success_copy(0, 500 * US),
            CH_B: make_success_copy(0, 900 * US),
        },
    )


class TestRdaFlags:
    def test_terminable_at_small_reaction_latency(self):
        flags = rda_flags(spec_packet(), 50 * US, PHY_BY)
        assert flags.quickest == CH_A
        assert flags.early == {CH_A: False, CH_B: True}  # 550 < 566

    def test_not_terminable_at_larger_reaction_latency(self):
        flags = rda_flags(spec_packet(), 100 * US, PHY_BY)
        assert flags.early == {CH_A: False, CH_B: False}  # 600 >= 566

    def test_equality_means_already_started(self):
        # strict inequality: the cross-ACK landing exactly at the attempt
        # start saves nothing
        flags = rda_flags(spec_packet(), 66 * US, PHY_BY)
        assert flags.early[CH_B] is False  # 500 + 66 == 566
        assert rda_flags(spec_packet(), 65_999, PHY_BY).early[CH_B] is True

    def test_all_lost_gives_all_false(self):
        p = PacketRecord(
            index=1,
            copies={
                CH_A: make_lost_copy(0, 2_000 * US, 21, with_duration=True),
                CH_B: make_lost_copy(0, 3_000 * US, 21, with_duration=True),
            },
        )
        flags = rda_flags(p, 0, PHY_BY)
        assert flags.quickest is None
        assert not flags.early_link and not any(flags.early.values())

    def test_lost_copy_policies(self):
        # B delivered quickly; A lost with its last attempt starting late
        p = PacketRecord(
            index=1,
            copies={
                CH_A: make_lost_copy(0, 5_000 * US, 4, with_duration=True),
                CH_B: make_success_copy(0, 400 * US),
            },
        )
        pessimistic = rda_flags(p, 0, PHY_BY)
        assert pessimistic.early[CH_A] is False
        oracle = rda_flags(p, 0, PHY_BY, FailedCopyPolicy.ORACLE)
        assert oracle.early[CH_A] is True  # final start 4640us > xack 400us

    def test_oracle_policy_without_data_raises(self):
        p = PacketRecord(
            index=1,
            copies={
                CH_A: make_lost_copy(0, 5_000 * US, 4),
                CH_B: make_success_copy(0, 400 * US),
            },
        )
        with pytest.raises(TraceRequiredError):
            rda_flags(p, 0, PHY_BY, FailedCopyPolicy.ORACLE)


class TestSimplexFlags:
    def build(self, attempts_b):
        p = PacketRecord(
            index=1,
            copies={
                CH_A: make_success_copy(0, 500 * US),
                CH_B: make_success_copy(0, 900 * US, attempts=attempts_b),
            },
        )
        return p, simplex_flags(p, rda_flags(p, 0, PHY_BY))

    def test_single_attempt_terminated_is_simplex(self):
        _, flags = self.build(attempts_b=1)
        assert flags.simplex == {CH_A: False, CH_B: True}
        assert flags.simplex_link

    def test_multiple_attempts_not_simplex(self):
        _, flags = self.build(attempts_b=3)
        assert flags.simplex == {CH_A: False, CH_B: False}
        assert not flags.simplex_link

    def test_quickest_never_simplex(self):
        p, flags = self.build(attempts_b=1)
        assert flags.quickest == CH_A
        assert flags.simplex[CH_A] is False

    def test_implications(self):
        for attempts in (1, 2):
            p, flags = self.build(attempts)
            for c in p.copies:
                assert not flags.simplex[c] or flags.early[c]
            assert not flags.simplex_link or flags.early_link


class TestTddFlags:
    def test_spec_example_positive_displacement(self):
        # end_A 500us, B final start 566us, T_LRE 50us, T_D +200us: 550 < 766
        flags = tdd_flags(spec_packet(), 200 * US, 50 * US, PHY_BY)
        assert flags.early[CH_B] is True
        # e_A: 900 + 200 + 50 = 1150us against A's final start 166us
        assert flags.early[CH_A] is False

    def test_zero_displacement_equals_rda(self):
        for t_lre in (0, 50 * US, 100 * US):
            a = rda_flags(spec_packet(), t_lre, PHY_BY)
            b = tdd_flags(spec_packet(), 0, t_lre, PHY_BY)
            assert a == b

    @given(duplex_packets())
    def test_zero_displacement_equals_rda_random(self, packet):
        for t_lre in (0, 120 * US):
            assert tdd_flags(packet, 0, t_lre, PHY_BY) == rda_flags(
                packet, t_lre, PHY_BY
            )

    @given(duplex_packets())
    def test_componentwise_monotonicity_in_displacement(self, packet):
        grid = range(-400 * US, 401 * US, 50 * US)
        previous_b, previous_a = None, None
        for t_d in grid:
            flags = tdd_flags(packet, t_d, 30 * US, PHY_BY)
            if previous_b is not None:
                assert flags.early[CH_B] >= previous_b
                assert flags.early[CH_A] <= previous_a
            previous_b, previous_a = flags.early[CH_B], flags.early[CH_A]

    def test_non_duplex_rejected(self):
        c = ChannelIdTriple()
        with pytest.raises(ValueError):
            tdd_flags(c.packet, 0, 0, c.phy)


class ChannelIdTriple:
    """Helper three-channel packet for n-plex cases."""

    def __init__(self):
        from prpwifi import ChannelId

        self.ch_c = ChannelId(2, "C")
        self.phy = {CH_A: HAND_PHY, CH_B: HAND_PHY, self.ch_c: HAND_PHY}
        self.packet = PacketRecord(
            index=1,
            copies={
                CH_A: make_success_copy(0, 500 * US),
                CH_B: make_success_copy(0, 900 * US, attempts=2),
                self.ch_c: make_success_copy(0, 1_200 * US, attempts=1),
            },
        )


class TestNplexFlags:
    def test_rda_over_three_channels(self):
        t = ChannelIdTriple()
        flags = simplex_flags(t.packet, rda_flags(t.packet, 0, t.phy))
        assert flags.quickest == CH_A
        assert flags.early == {CH_A: False, CH_B: True, t.ch_c: True}
        assert flags.early_count == 2
        # simplex on the link needs every non-quickest channel fully prevented
        assert flags.simplex == {CH_A: False, CH_B: False, t.ch_c: True}
        assert not flags.simplex_link


class TestTddLatency:
    def test_formula(self):
        p = PacketRecord(
            index=1,
            copies={
                CH_A: make_success_copy(0, 3_000 * US + 34 * US),
                CH_B: make_success_copy(0, 2_000 * US + 34 * US),
            },
        )
        assert tdd_latency(p, 500 * US, PHY_BY) == 2_500 * US

    def test_zero_equals_link_latency(self, traced_run):
        phy = traced_run.phy_by_channel()
        for p in traced_run.packets:
            assert tdd_latency(p, 0, phy) == link_outcome(p, phy).latency_ns

    def test_single_survivor(self):
        p = PacketRecord(
            index=1,
            copies={
                CH_A: make_lost_copy(0, 9_000 * US, 21, with_duration=True),
                CH_B: make_success_copy(0, 2_000 * US + 34 * US),
            },
        )
        assert tdd_latency(p, 500 * US, PHY_BY) == 2_500 * US

    @given(duplex_packets())
    def test_never_better_than_plain_link(self, packet):
        base = link_outcome(packet, PHY_BY).latency_ns
        for t_d in (-300 * US, -50 * US, 0, 50 * US, 300 * US):
            deferred = tdd_latency(packet, t_d, PHY_BY)
            assert (deferred is None) == (base is None)
            if base is not None:
                assert deferred >= base


class TestVirtualDefer:
    def test_zero_is_identity(self, traced_run):
        assert virtual_defer(traced_run, 0) is traced_run

    def test_positive_shift_moves_second_channel(self, traced_run):
        shifted = virtual_defer(traced_run, 100 * US)
        assert shifted.meta.deferral_ns == 100 * US
        for before, after in zip(traced_run.packets, shifted.packets):
            assert after.copies[CH_A] == before.copies[CH_A]
            b0, b1 = before.copies[CH_B], after.copies[CH_B]
            assert b1.request_ns == b0.request_ns + 100 * US
            assert b1.end_ns == b0.end_ns + 100 * US
            assert b1.attempts == b0.attempts and b1.lost == b0.lost
            assert all(
                a.start_ns == b.start_ns + 100 * US
                for a, b in zip(b1.trace, b0.trace)
            )

    def test_negative_shift_moves_first_channel(self, traced_run):
        shifted = virtual_defer(traced_run, -80 * US)
        assert shifted.meta.deferral_ns == -80 * US
        p0, p1 = traced_run.packets[0], shifted.packets[0]
        assert p1.copies[CH_B] == p0.copies[CH_B]
        assert p1.copies[CH_A].request_ns == p0.copies[CH_A].request_ns + 80 * US

    def test_double_shift_is_additive(self, traced_run):
        once = virtual_defer(virtual_defer(traced_run, 50 * US), 50 * US)
        assert once == virtual_defer(traced_run, 100 * US)

    def test_guard_refuses_large_offsets(self, traced_run):
        with pytest.raises(ValueError):
            virtual_defer(traced_run, 1_500 * US)
        shifted = virtual_defer(traced_run, 1_500 * US, force=True)
        assert shifted.meta.deferral_ns == 1_500 * US


class TestOracle:
    def test_two_attempts_cancelled(self):
        # B runs 4 attempts; the cross-ACK (A's end at 1000us) lands between
        # attempts 2 and 3
        copy_a = copy_from_starts(0, [666 * US], lost=False)
        starts_b = [100 * US, 800 * US, 1_500 * US, 2_200 * US]
        copy_b = copy_from_starts(0, starts_b, lost=False)
        p = PacketRecord(index=1, copies={CH_A: copy_a, CH_B: copy_b})
        assert copy_a.end_ns == 1_000 * US
        saved = oracle_saved_attempts(p, t_lre_ns=0)
        assert saved == {CH_A: 1, CH_B: 2}

    def test_no_termination_possible(self):
        copy_a = copy_from_starts(0, [2_666 * US], lost=False)  # ends at 3000us
        copy_b = copy_from_starts(0, [100 * US, 800 * US], lost=False)
        p = PacketRecord(index=1, copies={CH_A: copy_a, CH_B: copy_b})
        assert oracle_saved_attempts(p, 0)[CH_B] == 2

    def test_full_prevention(self):
        copy_a = copy_from_starts(0, [66 * US], lost=False)  # ends at 400us
        copy_b = copy_from_starts(0, [500 * US], lost=False)
        p = PacketRecord(index=1, copies={CH_A: copy_a, CH_B: copy_b})
        assert oracle_saved_attempts(p, 0)[CH_B] == 0

    def test_lost_on_link_keeps_everything(self):
        copy_a = copy_from_starts(0, [100 * US, 900 * US], lost=True)
        copy_b = copy_from_starts(0, [200 * US], lost=True)
        p = PacketRecord(index=1, copies={CH_A: copy_a, CH_B: copy_b})
        assert oracle_saved_attempts(p, 0) == {CH_A: 2, CH_B: 1}

    def test_requires_traces(self):
        p = spec_packet()
        with pytest.raises(TraceRequiredError):
            oracle_saved_attempts(p, 0)

    @given(duplex_packets())
    def test_bounds_against_adapter_flags(self, packet):
        for t_lre in (0, 50 * US, 500 * US):
            for t_d in (0, -150 * US, 150 * US):
                saved = oracle_saved_attempts(packet, t_lre, t_d)
                flags = tdd_flags(packet, t_d, t_lre, PHY_BY)
                exact_flags = tdd_flags(
                    packet, t_d, t_lre, PHY_BY, FailedCopyPolicy.ORACLE
                )
                for c, copy in packet.copies.items():
                    assert 0 <= saved[c] <= copy.attempts
                    # adapter-view flag is sound: at least one attempt saved
                    if flags.early[c]:
                        assert saved[c] <= copy.attempts - 1
                    # with full information the final-attempt test is exact
                    assert exact_flags.early[c] == (saved[c] < copy.attempts)
                    z = exact_flags.early[c] and copy.attempts == 1
                    if z:
                        assert saved[c] == 0

    @given(duplex_packets())
    def test_monotone_in_reaction_latency(self, packet):
        previous = None
        for t_lre in (0, 100 * US, 400 * US, 1_000 * US):
            saved = oracle_saved_attempts(packet, t_lre)
            if previous is not None:
                for c in packet.copies:
                    assert saved[c] >= previous[c]
            previous = saved


def test_flags_dataclass_properties():
    p = spec_packet()
    flags = simplex_flags(p, rda_flags(p, 50 * US, PHY_BY))
    assert isinstance(flags, DaFlags)
    assert flags.early_link and flags.early_count == 1
