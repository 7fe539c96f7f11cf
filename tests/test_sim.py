import io
import math
import statistics
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest

from prpwifi import (
    ChannelId,
    ChannelSetup,
    ChannelState,
    Deferral,
    ErrorModel,
    InterferenceParams,
    PhyParams,
    SimConfig,
    SimConfigError,
    encode_log,
    generate_run,
    simulate_copy,
    validate_run,
)
from prpwifi import sim
from prpwifi.sim import bulk_stream, interference_arrays, mac_stream

from helpers import CH_A, CH_B, DESK_PERIOD_NS, desk_config, desk_interference


def clean_config(n=4, seed=1, loss=0.0, **kwargs):
    return SimConfig(
        channels=(
            ChannelSetup(channel=CH_A, errors=ErrorModel(loss)),
            ChannelSetup(channel=CH_B, errors=ErrorModel(loss)),
        ),
        n_packets=n,
        period_ns=DESK_PERIOD_NS,
        seed=seed,
        **kwargs,
    )


class TestGenerateRun:
    def test_clean_channel_single_attempt(self):
        run = generate_run(clean_config(n=1))
        validate_run(run)
        for c in run.channels:
            copy = run.packets[0].copies[c]
            assert copy.attempts == 1 and not copy.lost
            # end - start must be exactly data + sifs + ack
            phy = run.phy_by_channel()[c]
            assert copy.end_ns - copy.trace[-1].start_ns == (
                phy.data_frame_ns + phy.sifs_ns + phy.ack_frame_ns
            )

    def test_certain_loss_exhausts_retry_limit(self):
        run = generate_run(clean_config(n=3, loss=1.0))
        retry_limit = run.phy_by_channel()[CH_A].retry_limit
        for packet in run.packets:
            for copy in packet.copies.values():
                assert copy.lost and copy.attempts == retry_limit

    def test_same_seed_is_byte_identical(self):
        cfg = desk_config(n_packets=300, seed=42)
        a, b = generate_run(cfg), generate_run(cfg)
        assert a == b
        bufs = []
        for run in (a, b):
            buf = io.StringIO()
            encode_log(run, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_channel_substreams_are_isolated(self):
        cfg = desk_config(n_packets=300, seed=5, interferers_b=1)
        base = generate_run(cfg)
        salted = replace(
            cfg,
            channels=(cfg.channels[0], replace(cfg.channels[1], seed_salt="x")),
        )
        other = generate_run(salted)
        assert [p.copies[CH_A] for p in base.packets] == [
            p.copies[CH_A] for p in other.packets
        ]
        assert [p.copies[CH_B] for p in base.packets] != [
            p.copies[CH_B] for p in other.packets
        ]

    def test_non_duplex_rejected(self):
        cfg = clean_config()
        with pytest.raises(SimConfigError):
            generate_run(replace(cfg, channels=cfg.channels[:1]))


def merged_busy(cfg, channel_pos):
    """Rebuild the busy intervals a generated run used for one channel."""
    setup = cfg.channels[channel_pos]
    offsets = cfg.request_offsets()
    horizon = (
        (cfg.n_packets - 1) * cfg.period_ns
        + offsets[channel_pos]
        + cfg.interference_margin_ns
    )
    stream = bulk_stream(cfg.seed, setup.seed_salt, setup.channel.label, "interference")
    starts, ends = interference_arrays(setup.interference, horizon, stream)
    return starts.tolist(), ends.tolist()


class TestAttemptOrderingAndCarrierSense:
    def test_invariants_on_interfered_run(self):
        cfg = desk_config(n_packets=400, seed=9, interferers_b=2, interferers_a=1)
        run = generate_run(cfg)
        validate_run(run)
        for pos, channel in enumerate(run.channels):
            starts, ends = merged_busy(cfg, pos)
            previous_end = -1
            for packet in run.packets:
                copy = packet.copies[channel]
                for attempt in copy.trace:
                    assert attempt.start_ns > previous_end
                    end = attempt.start_ns + attempt.data_ns + (
                        cfg.channels[pos].phy.sifs_ns + attempt.ack_ns
                        if attempt.succeeded
                        else cfg.channels[pos].phy.ack_timeout_ns
                    )
                    # the on-air interval must fall into an idle gap
                    k = bisect_right(starts, attempt.start_ns) - 1
                    if k >= 0:
                        assert ends[k] <= attempt.start_ns
                    if k + 1 < len(starts):
                        assert end <= starts[k + 1]
                    previous_end = end


class TestSimulateCopy:
    class ScriptedRng:
        def __init__(self, values):
            self.values = list(values)

        def random(self):
            return self.values.pop(0)

    def test_two_forced_failures_then_success(self):
        state = ChannelState(busy_starts=[], busy_ends=[])
        phy = PhyParams()
        simulate_copy(
            state,
            request_ns=0,
            phy=phy,
            errors=ErrorModel(attempt_loss_prob=0.5),
            backoff_rng=self.ScriptedRng([0.0, 0.0, 0.0]),
            error_rng=self.ScriptedRng([0.1, 0.2, 0.9]),
        )
        assert state.attempts == [3] and state.lost == [False]
        assert state.attempt_ok == [False, False, True]
        starts = state.attempt_start
        assert starts[0] < starts[1] < starts[2]
        assert state.end == [starts[2] + phy.data_frame_ns + phy.sifs_ns + phy.ack_frame_ns]

    def test_retry_limit_21_all_failures(self):
        state = ChannelState(busy_starts=[], busy_ends=[])
        simulate_copy(
            state,
            request_ns=0,
            phy=PhyParams(retry_limit=21),
            errors=ErrorModel(attempt_loss_prob=1.0),
            backoff_rng=mac_stream(1, "", "A", "backoff"),
            error_rng=mac_stream(1, "", "A", "error"),
        )
        assert state.lost == [True] and state.attempts == [21]
        assert len(state.attempt_start) == 21 and not any(state.attempt_ok)

    def test_data_frame_schedule_applies_per_attempt(self):
        state = ChannelState(busy_starts=[], busy_ends=[])
        phy = PhyParams(data_frame_schedule_ns=(300_000, 500_000))
        simulate_copy(
            state,
            0,
            phy,
            ErrorModel(0.5),
            self.ScriptedRng([0.0, 0.0, 0.0]),
            self.ScriptedRng([0.1, 0.1, 0.9]),
        )
        assert state.attempt_data == [300_000, 500_000, 500_000]
        assert state.final_data == [500_000]


class TestInterference:
    def test_no_interferers_is_empty(self):
        stream = bulk_stream(1, "", "A", "interference")
        starts, ends = interference_arrays(InterferenceParams(), 60_000_000_000, stream)
        assert len(starts) == 0 and len(ends) == 0

    def test_non_positive_horizon_rejected(self):
        stream = bulk_stream(1, "", "A", "interference")
        with pytest.raises(SimConfigError):
            interference_arrays(InterferenceParams(), 0, stream)

    def test_gaps_are_capped(self):
        params = desk_interference(1)
        stream = bulk_stream(3, "", "B", "interference")
        starts, ends = interference_arrays(params, 60_000_000_000, stream)
        busy = list(zip(starts.tolist(), ends.tolist()))
        assert busy, "expected some interference"
        for (s0, e0), (s1, e1) in zip(busy, busy[1:]):
            assert e0 <= s1  # merged and ordered
            assert s1 - e0 <= params.gap_cap_ns

    def test_occupancy_grows_with_interferer_count(self):
        horizon = 60_000_000_000

        def busy_fraction(count, seed):
            stream = bulk_stream(seed, "", "B", "interference")
            starts, ends = interference_arrays(desk_interference(count), horizon, stream)
            return int((np.minimum(ends, horizon) - starts).sum()) / horizon

        for count_low, count_high in [(1, 4)]:
            low = statistics.mean(busy_fraction(count_low, s) for s in range(10))
            high = statistics.mean(busy_fraction(count_high, s) for s in range(10))
            assert high > low

    @pytest.mark.parametrize("extra_ns", [1, 250_000, 40_000_000, 3_000_000_000])
    def test_later_horizon_extends_the_same_draws(self, extra_ns):
        # 1013 periods of 3.9 ms plus the 2 s margin: +250 us changes the
        # chunk size a horizon-sized draw would use
        horizon = 1013 * 3_900_000 + 2_000_000_000

        def busy(horizon_ns):
            stream = bulk_stream(1, "", "B", "interference")
            return interference_arrays(
                desk_interference(2), horizon_ns, stream, chunk_horizon_ns=horizon
            )

        (s0, e0), (s1, e1) = busy(horizon), busy(horizon + extra_ns)
        k = len(s0)
        assert s0[-1] < horizon and (k == len(s1) or s1[k] >= horizon)
        assert np.array_equal(s0, s1[:k])
        assert np.array_equal(e0[:-1], e1[: k - 1]) and e0[-1] <= e1[k - 1]


class TestRealDeferral:
    def test_deferred_channel_extends_base_interference(self, monkeypatch):
        # period 3.9 ms, 1014 packets, T_D 250 us, seed 1: the deferral used
        # to change the deferred channel's interference draws
        busy = []

        def recording(*args, **kwargs):
            busy.append(interference_arrays(*args, **kwargs))
            return busy[-1]

        monkeypatch.setattr(sim, "interference_arrays", recording)
        cfg = desk_config(1014, seed=1, period_ns=3_900_000, full_trace=False)
        generate_run(cfg)
        generate_run(replace(cfg, deferral=Deferral(offset_ns=250_000)))
        (_, (s0, e0)), (_, (s1, e1)) = busy[:2], busy[2:]
        k = len(s0)
        assert np.array_equal(s0, s1[:k]) and np.array_equal(e0[:-1], e1[: k - 1])

    def test_zero_offset_equals_plain_run(self):
        cfg = desk_config(n_packets=200, seed=6)
        assert generate_run(replace(cfg, deferral=None)) == generate_run(
            replace(cfg, deferral=Deferral(offset_ns=0))
        )

    def test_positive_offset_defers_second_channel(self):
        cfg = replace(desk_config(300, seed=8), deferral=Deferral(offset_ns=100_000))
        run = generate_run(cfg)
        validate_run(run)
        assert run.meta.deferral_ns == 100_000
        for p in run.packets:
            assert p.copies[CH_B].request_ns - p.copies[CH_A].request_ns == 100_000

    def test_negative_offset_swaps_roles(self):
        cfg = replace(desk_config(300, seed=8), deferral=Deferral(offset_ns=-100_000))
        run = generate_run(cfg)
        assert run.meta.deferral_ns == -100_000
        for p in run.packets:
            assert p.copies[CH_A].request_ns - p.copies[CH_B].request_ns == 100_000

    def test_explicit_primary_channel(self):
        # naming B as primary makes a positive offset defer A
        cfg = replace(
            desk_config(50, seed=8),
            deferral=Deferral(offset_ns=100_000, primary="B"),
        )
        run = generate_run(cfg)
        assert run.meta.deferral_ns == -100_000
        for p in run.packets:
            assert p.copies[CH_A].request_ns - p.copies[CH_B].request_ns == 100_000

    def test_outcomes_match_base_run_under_constant_error_rate(self):
        # timing shifts consume the same per-attempt draws, so per-copy
        # outcomes are identical to the non-deferred run
        cfg = desk_config(400, seed=13, interferers_b=2)
        base = generate_run(cfg)
        deferred = generate_run(replace(cfg, deferral=Deferral(offset_ns=250_000)))
        for p_base, p_def in zip(base.packets, deferred.packets):
            for c in (CH_A, CH_B):
                assert p_base.copies[c].attempts == p_def.copies[c].attempts
                assert p_base.copies[c].lost == p_def.copies[c].lost

    def test_offset_at_least_period_rejected(self):
        cfg = replace(
            desk_config(10, seed=1), deferral=Deferral(offset_ns=DESK_PERIOD_NS)
        )
        with pytest.raises(SimConfigError):
            generate_run(cfg)

    @pytest.mark.parametrize("t_d_us", [-250, 100])
    def test_reused_base_channel_equals_full_run(self, t_d_us):
        # criterion 5's config: desk bursts, one interferer on A, two on B
        cfg = desk_config(600, seed=201, interferers_a=1, full_trace=False)
        deferred = replace(cfg, deferral=Deferral(offset_ns=t_d_us * 1_000))
        reused = generate_run(deferred, (cfg, generate_run(cfg)))
        assert reused == generate_run(deferred)

    def test_reuse_with_traces(self):
        cfg = desk_config(300, seed=4, interferers_a=1)
        deferred = replace(cfg, deferral=Deferral(offset_ns=-150_000))
        assert generate_run(deferred, (cfg, generate_run(cfg))) == generate_run(deferred)

    def test_reuse_refused_for_another_config(self):
        cfg = desk_config(200, seed=201, interferers_a=1, full_trace=False)
        deferred = replace(cfg, deferral=Deferral(offset_ns=100_000))
        other_seed = replace(cfg, seed=202)
        with pytest.raises(SimConfigError):
            generate_run(deferred, (other_seed, generate_run(other_seed)))
        # the run must come from the config it is paired with
        with pytest.raises(SimConfigError):
            generate_run(deferred, (cfg, generate_run(other_seed)))
        other_loss = replace(
            cfg,
            channels=tuple(replace(c, errors=ErrorModel(0.3)) for c in cfg.channels),
        )
        with pytest.raises(SimConfigError):
            generate_run(deferred, (other_loss, generate_run(other_loss)))


class TestMacSanity:
    @staticmethod
    def truncated_geometric(p, limit):
        """Independent pmf of the attempt count with i.i.d. failures."""
        pmf = {k: (p ** (k - 1)) * (1 - p) for k in range(1, limit)}
        pmf[limit] = p ** (limit - 1)
        assert math.isclose(sum(pmf.values()), 1.0)
        mean = sum(k * q for k, q in pmf.items())
        var = sum(k * k * q for k, q in pmf.items()) - mean * mean
        return mean, var

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_mean_attempts_matches_closed_form(self, p):
        n = 20_000
        run = generate_run(clean_config(n=n, seed=77, loss=p))
        limit = run.phy_by_channel()[CH_A].retry_limit
        mean, var = self.truncated_geometric(p, limit)
        for c in run.channels:
            observed = statistics.mean(pk.copies[c].attempts for pk in run.packets)
            assert abs(observed - mean) <= 3 * math.sqrt(var / n)
