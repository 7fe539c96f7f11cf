import io
import math
import statistics
import tracemalloc
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prpwifi import (
    ChannelId,
    ChannelSetup,
    InterferenceParams,
    PhyParams,
    SimConfig,
    SimConfigError,
    encode_log,
    generate_run,
    validate_run,
)
from prpwifi import sim
from prpwifi.sim import RunFamily, bulk_stream, interference_arrays, mac_stream
from prpwifi.trace import TIME_LIMIT_NS

from helpers import (
    CH_A,
    CH_B,
    DESK_PERIOD_NS,
    ChannelState,
    _merge_intervals_spec,
    desk_config,
    desk_interference,
    interference_arrays_spec,
    simulate_channel_spec,
    simulate_copy,
)
from conftest import sim_configs


def clean_config(n=4, seed=1, loss=0.0, **kwargs):
    return SimConfig(
        channels=(
            ChannelSetup(channel=CH_A, loss_prob=loss),
            ChannelSetup(channel=CH_B, loss_prob=loss),
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


class TestMedium:
    """ROADMAP item 3(c): no attempt meets a busy interval of its channel,
    and every attempt starts at least DIFS after the last busy interval
    before it."""

    @settings(max_examples=40, deadline=None)
    @given(config=sim_configs())
    def test_attempts_keep_clear_of_interference(self, config):
        run = generate_run(config)
        t, n = run.trace, config.n_packets
        # the busy intervals as _simulate_channel draws them
        undeferred = (n - 1) * config.period_ns + config.interference_margin_ns
        for j, (setup, offset) in enumerate(zip(config.channels, config.request_offsets())):
            starts, ends = interference_arrays(
                setup.interference,
                undeferred + offset,
                bulk_stream(config.seed, setup.seed_salt, setup.channel.label, "interference"),
                chunk_horizon_ns=undeferred,
            )
            phy = setup.phy
            rows = slice(t.offsets[j * n], t.offsets[(j + 1) * n])
            start = t.start[rows]
            # what an attempt reserves: its DATA and the longer of its tails
            reserved = start + t.data[rows] + max(phy.sifs_ns + phy.ack_frame_ns, phy.ack_timeout_ns)
            # the last busy interval that starts at or before each attempt,
            # and the next one
            k = np.searchsorted(starts, start, side="right") - 1
            before, after = k >= 0, k + 1 < len(starts)
            assert (ends[k[before]] + phy.difs_ns <= start[before]).all()
            assert (reserved[after] <= starts[k[after] + 1]).all()


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
            loss_prob=0.5,
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
            loss_prob=1.0,
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
            0.5,
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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("payload_airtime_ns", 0, "payload_airtime must be positive"),
            ("intra_burst_spacing_ns", -1, "burst_spacing must be positive"),
            ("burst_len_mean", 0.0, "burst_mean must be positive"),
            ("burst_len_mean", math.nan, "burst_mean must be positive"),
            ("gap_mean_ns", 0, "gap_mean must be positive"),
            ("burst_len_cap", 299, "burst_cap must be >= burst_mean"),
            ("gap_cap_ns", 199_999_999, "gap_cap must be >= gap_mean"),
        ],
    )
    def test_errors_name_the_config_key(self, field, value, message):
        with pytest.raises(SimConfigError) as exc:
            replace(InterferenceParams(), **{field: value}).validate()
        assert str(exc.value) == message

    def test_negative_interferer_count_names_the_channel(self):
        cfg = desk_config(2, seed=1)
        intf = replace(InterferenceParams(), interferer_count=-1)
        cfg = replace(cfg, channels=(cfg.channels[0], replace(cfg.channels[1], interference=intf)))
        with pytest.raises(SimConfigError) as exc:
            cfg.validate()
        assert str(exc.value) == "channel B: interferers must be >= 0"

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


@st.composite
def synthesis_cases(draw):
    """Interference parameters, a horizon and a chunk horizon: packets that
    overlap within a burst (airtime above the spacing), touch (equal) or
    leave gaps, bursts of one packet, 0-4 interferers, and gaps from
    shorter than an airtime to longer than a burst."""
    spacing = draw(st.integers(min_value=50_000, max_value=800_000))
    airtime = draw(
        st.sampled_from([spacing, spacing + 1, spacing - 1])
        | st.integers(min_value=1, max_value=3 * spacing)
    )
    burst_len_mean = draw(st.sampled_from([0.5, 1.0, 3.0, 10.0]))
    burst_len_cap = draw(st.sampled_from([1, 2, 12, 40]).filter(lambda c: c >= burst_len_mean))
    gap_mean_ns = draw(st.integers(min_value=1_000, max_value=5_000_000))
    params = InterferenceParams(
        interferer_count=draw(st.integers(min_value=0, max_value=4)),
        payload_airtime_ns=airtime,
        intra_burst_spacing_ns=spacing,
        burst_len_mean=burst_len_mean,
        burst_len_cap=burst_len_cap,
        gap_mean_ns=gap_mean_ns,
        gap_cap_ns=gap_mean_ns * draw(st.sampled_from([1, 3, 100])),
    )
    horizon = draw(st.integers(min_value=1, max_value=300_000_000))
    chunk_horizon = draw(st.none() | st.integers(min_value=1, max_value=600_000_000))
    return params, horizon, chunk_horizon, draw(st.integers(min_value=0, max_value=2**32))


def exact_interference(params, horizon_ns, rng):
    """Merged busy intervals drawn as the simulator draws them, computed in
    Python ints: the reference where int64 sums of the draws would wrap."""
    spacing, airtime = params.intra_burst_spacing_ns, params.payload_airtime_ns
    cycle_estimate = params.burst_len_mean * spacing + params.gap_mean_ns
    chunk = max(16, int(horizon_ns / cycle_estimate * 1.3) + 8)
    starts = []
    for child_seed in rng.integers(0, 1 << 63, size=params.interferer_count):
        child, t = np.random.default_rng(int(child_seed)), 0
        while t < horizon_ns:
            counts = child.exponential(params.burst_len_mean, size=chunk).tolist()
            gaps = child.exponential(params.gap_mean_ns, size=chunk).tolist()
            for count, gap in zip(counts, gaps):
                count = min(int(count) + 1, params.burst_len_cap)
                first = t + min(int(gap), params.gap_cap_ns)
                before = min(count, max(0, -((first - horizon_ns) // spacing)))
                starts += [first + j * spacing for j in range(before)]
                t = first + (count - 1) * spacing + airtime
    s = np.array(sorted(starts), dtype=np.int64)
    return _merge_intervals_spec(s, s + airtime)


class TestSynthesis:
    """``interference_arrays`` against the general-interval spec in
    ``helpers`` and, where int64 sums of the draws wrap, against Python
    ints."""

    @settings(max_examples=200, deadline=None)
    @given(case=synthesis_cases())
    def test_equals_general_interval_spec(self, case):
        params, horizon, chunk_horizon, seed = case
        got = interference_arrays(params, horizon, np.random.default_rng(seed), chunk_horizon)
        want = interference_arrays_spec(
            params, horizon, np.random.default_rng(seed), chunk_horizon
        )
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and np.array_equal(g, w)

    def test_horizon_inside_a_burst(self):
        # packets overlap within a burst, so a merged interval is a burst:
        # horizons just before, at and just after its first packet's start,
        # and at its second packet's start
        params = replace(desk_interference(3), payload_airtime_ns=500_000)

        def stream():
            return bulk_stream(2, "", "B", "interference")

        chunk_horizon = 2_000_000_000
        starts, _ = interference_arrays_spec(params, chunk_horizon, stream())
        middle = starts[len(starts) // 2]
        for horizon in (middle - 1, middle, middle + 1, middle + 400_000):
            got = interference_arrays(params, int(horizon), stream(), chunk_horizon)
            want = interference_arrays_spec(params, int(horizon), stream(), chunk_horizon)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert got[0][-1] < horizon

    @pytest.mark.parametrize(
        "params, horizon_ns, bursts",
        [
            # gaps of mean 10^9 s capped at 4*10^9 s, on the bench horizon
            # and on one of 4*10^17 ns, where some bursts come before it:
            # the sum of a 16-burst chunk's gaps passes int64
            (dict(gap_mean_ns=10**18, gap_cap_ns=4 * 10**18), 49_999 * 4_000_000 + 2_000_000_000, False),
            (dict(gap_mean_ns=10**18, gap_cap_ns=4 * 10**18), 4 * 10**17, True),
            # gap or burst-length draws at or above 2^63, which a plain cast
            # to int64 turns into INT64_MIN
            (dict(gap_mean_ns=1 << 62, gap_cap_ns=1 << 62), 4 * 10**17, True),
            (dict(burst_len_mean=float(1 << 62), burst_len_cap=1 << 62), 2_000_000_000, True),
            # bursts of mean 10^17 packets: (count - 1) x spacing passes
            # int64, and their packets past the horizon would not fit in
            # memory
            (dict(burst_len_mean=1e17, burst_len_cap=10**18), 2_000_000_000, True),
            # a burst longer than the horizon that starts at 0 or 1 ns, with
            # 999 ns of the horizon left after its last whole spacing: no
            # later burst may start before the horizon
            (
                dict(
                    payload_airtime_ns=1, intra_burst_spacing_ns=1000, burst_len_mean=1e12,
                    burst_len_cap=10**15, gap_mean_ns=1, gap_cap_ns=1,
                ),
                999_999,
                True,
            ),
        ],
    )
    def test_equals_python_int_draws(self, params, horizon_ns, bursts):
        params = replace(desk_interference(2), **params)
        nonempty = 0
        for seed in range(8):
            got = interference_arrays(params, horizon_ns, bulk_stream(seed, "", "B", "interference"))
            want = exact_interference(params, horizon_ns, bulk_stream(seed, "", "B", "interference"))
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert len(got[0]) == 0 or 0 <= got[0][0] <= got[0][-1] < horizon_ns
            nonempty += len(got[0]) > 0
        assert bool(nonempty) == bursts

    def test_config_past_int64_rejected(self):
        # a 2^61 ns horizon with gaps capped past it: 16 gaps at the cap
        # overflow int64
        cfg = desk_config(2, seed=1)
        intf = replace(desk_interference(1), gap_mean_ns=10**18, gap_cap_ns=4 * 10**18)
        cfg = replace(
            cfg,
            period_ns=1 << 61,
            channels=(cfg.channels[0], replace(cfg.channels[1], interference=intf)),
        )
        with pytest.raises(SimConfigError, match=r"channel B: interference synthesis .*gap_cap"):
            cfg.validate()
        with pytest.raises(SimConfigError, match="gap_cap"):
            interference_arrays(intf, 1 << 61, bulk_stream(1, "", "B", "interference"))
        # with no interferer on B nothing is drawn, and the config passes
        quiet = replace(cfg.channels[1], interference=replace(intf, interferer_count=0))
        replace(cfg, channels=(cfg.channels[0], quiet)).validate()


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
        generate_run(replace(cfg, deferral_ns=250_000))
        # each medium comes closed by the sentinel, which is not compared
        (_, (s0, e0, _)), (_, (s1, e1, _)) = busy[:2], busy[2:]
        k = len(s0) - 1
        assert np.array_equal(s0[:k], s1[:k]) and np.array_equal(e0[: k - 1], e1[: k - 1])

    def test_positive_offset_defers_second_channel(self):
        cfg = replace(desk_config(300, seed=8), deferral_ns=100_000)
        run = generate_run(cfg)
        validate_run(run)
        assert run.meta.deferral_ns == 100_000
        for p in run.packets:
            assert p.copies[CH_B].request_ns - p.copies[CH_A].request_ns == 100_000

    def test_negative_offset_swaps_roles(self):
        cfg = replace(desk_config(300, seed=8), deferral_ns=-100_000)
        run = generate_run(cfg)
        assert run.meta.deferral_ns == -100_000
        for p in run.packets:
            assert p.copies[CH_A].request_ns - p.copies[CH_B].request_ns == 100_000

    def test_outcomes_match_base_run_under_constant_error_rate(self):
        # timing shifts consume the same per-attempt draws, so per-copy
        # outcomes are identical to the non-deferred run
        cfg = desk_config(400, seed=13, interferers_b=2)
        base = generate_run(cfg)
        deferred = generate_run(replace(cfg, deferral_ns=250_000))
        for p_base, p_def in zip(base.packets, deferred.packets):
            for c in (CH_A, CH_B):
                assert p_base.copies[c].attempts == p_def.copies[c].attempts
                assert p_base.copies[c].lost == p_def.copies[c].lost

    def test_offset_at_least_period_rejected(self):
        cfg = replace(desk_config(10, seed=1), deferral_ns=DESK_PERIOD_NS)
        with pytest.raises(SimConfigError):
            generate_run(cfg)

    @pytest.mark.parametrize("t_d_us", [-250, 100])
    def test_reused_base_channel_equals_full_run(self, t_d_us):
        # criterion 5's config: desk bursts, one interferer on A, two on B
        cfg = desk_config(600, seed=201, interferers_a=1, full_trace=False)
        deferred = replace(cfg, deferral_ns=t_d_us * 1_000)
        family = RunFamily(cfg, [t_d_us * 1_000])
        generate_run(cfg, family)
        assert generate_run(deferred, family) == generate_run(deferred)

    def test_reuse_with_traces(self):
        cfg = desk_config(300, seed=4, interferers_a=1)
        deferred = replace(cfg, deferral_ns=-150_000)
        family = RunFamily(cfg, [-150_000])
        generate_run(cfg, family)
        assert generate_run(deferred, family) == generate_run(deferred)

    def test_reuse_refused_for_another_config(self):
        cfg = desk_config(200, seed=201, interferers_a=1, full_trace=False)
        deferred = replace(cfg, deferral_ns=100_000)
        other_seed = replace(cfg, seed=202)
        other_loss = replace(
            cfg,
            channels=tuple(replace(c, loss_prob=0.3) for c in cfg.channels),
        )
        for other in (other_seed, other_loss, replace(cfg, emit_full_trace=True)):
            family = RunFamily(other, [100_000])
            generate_run(other, family)
            with pytest.raises(SimConfigError, match="run family"):
                generate_run(deferred, family)


def assert_family_runs_equal_fresh_runs(config, displacements):
    """Each run of ``config``'s family over ``displacements`` (the base run
    first) equals the run generated alone, in both views."""
    for full_trace in (True, False):
        base = replace(config, emit_full_trace=full_trace)
        family = RunFamily(base, displacements)
        assert generate_run(base, family) == generate_run(base)
        for d in displacements:
            deferred = replace(base, deferral_ns=d)
            assert generate_run(deferred, family) == generate_run(deferred), d


class TestRunFamily:
    """A run family builds each channel's medium once, up to the latest
    horizon its runs need, and cuts it to each run's own horizon."""

    @settings(max_examples=12, deadline=None)
    @given(config=sim_configs(), data=st.data())
    def test_family_runs_equal_fresh_runs(self, config, data):
        """T_D = 0, one of each sign and a second of one sign, at the
        default margin, one period or 1 ns; at 1 ns every run's last copy
        runs past its horizon."""
        period = config.period_ns
        positive = st.integers(min_value=1, max_value=period - 1)
        td = [0, data.draw(positive, label="T_D+"), -data.draw(positive, label="T_D-")]
        td.append(data.draw(positive, label="second T_D") * (1 if td[1] % 2 else -1))
        margin = data.draw(st.sampled_from([config.interference_margin_ns, 1, period]))
        config = replace(config, deferral_ns=0, interference_margin_ns=margin)
        assert_family_runs_equal_fresh_runs(config, td)

    @pytest.mark.parametrize(
        "config",
        [
            desk_config(300, seed=5, interferers_a=1, loss_prob=1.0),
            replace(
                desk_config(300, seed=5, interferers_a=1, period_ns=500_000),
                interference_margin_ns=1_000_000,
            ),
        ],
        ids=["certain-loss", "period-below-service"],
    )
    def test_copies_past_the_horizon(self, config):
        # the queue never drains: both channels' last copies end past the
        # interference horizon of every run
        run = generate_run(config)
        horizon = (config.n_packets - 1) * config.period_ns + config.interference_margin_ns
        assert (run.end[:, -1] > horizon + config.period_ns).all()
        assert_family_runs_equal_fresh_runs(config, [0, 100_000, -150_000, 250_000])

    def test_runs_outside_the_plan_are_exact(self):
        # an unplanned displacement, the base config again, and the planned
        # one twice; a medium that was dropped or does not serve the run's
        # offset is built for it: 2 media for the base run, then 1 for
        # -200 us and 1 for the second +100 us
        cfg = desk_config(300, seed=201, interferers_a=1, full_trace=False)
        displacements = (0, -200_000, 0, 100_000, 100_000)
        fresh = [generate_run(replace(cfg, deferral_ns=d)) for d in displacements]
        family = RunFamily(cfg, [100_000])
        with mock.patch.object(sim, "interference_arrays", wraps=interference_arrays) as media:
            for d, run in zip(displacements, fresh):
                assert generate_run(replace(cfg, deferral_ns=d), family) == run, d
        assert media.call_count == 4

    @settings(max_examples=60, deadline=None)
    @given(config=sim_configs(), data=st.data())
    def test_cut_equals_the_medium_drawn_to_its_horizon(self, config, data):
        """A medium cut to an offset's horizon holds the intervals, ticks
        and fitting gaps of the medium drawn up to that horizon alone; a
        margin of 1 ns puts the horizons among the busy intervals."""
        config = replace(config, interference_margin_ns=data.draw(st.sampled_from([1, 10**9])))
        offset = st.integers(min_value=0, max_value=config.period_ns - 1)
        offsets = data.draw(st.lists(offset, min_size=1, max_size=4))
        for setup in config.channels:
            medium = sim._build_medium(setup, config, offsets)
            for offset in offsets:
                starts, ends, ticks, fits = medium.cut(offset)
                want = sim._build_medium(setup, config, [offset]).busy
                assert np.array_equal(starts, want[0]) and np.array_equal(ends, want[1])
                assert ticks.tolist() == want[2].tolist()
                assert fits.keys() == want[3].keys()
                assert all(fits[s].tolist() == f.tolist() for s, f in want[3].items())

    def test_interval_straddling_the_shorter_horizon(self):
        """Overlapping packets merge each burst into one interval. At seed 1
        one opens before channel B's base horizon and goes on past it: the
        base run ends it one airtime after its last start before the
        horizon, and B's last copy starts in the time this leaves idle."""
        intf = replace(desk_interference(3), payload_airtime_ns=500_000)
        config = desk_config(200, seed=1, interferers_b=3)
        config = replace(
            config,
            channels=(config.channels[0], replace(config.channels[1], interference=intf)),
            interference_margin_ns=1,
        )
        deferred = replace(config, deferral_ns=300_000)
        family = RunFamily(config, [300_000])
        base = generate_run(config, family)
        medium = family._media[1]  # kept for the deferred run
        starts, ends = medium.busy[:2]
        horizon = (config.n_packets - 1) * config.period_ns + 1
        k = int(np.searchsorted(starts, horizon))
        assert starts[k - 1] < horizon < medium.cut_ends[0] < ends[k - 1]
        assert medium.cut_ends[0] < base.trace.start[-1] < ends[k - 1]
        assert base == generate_run(config)
        assert generate_run(deferred, family) == generate_run(deferred)


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


class TestUniformBridge:
    """``sim._uniforms`` rebuilds ``random.Random.random()`` from numpy's
    MT19937. It relies on CPython's ``genrand_res53``: two 32-bit outputs
    a, b give ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``."""

    def test_equals_random_for_a_named_stream(self):
        rng = mac_stream(5, "", "A", "backoff")
        draw = sim._uniforms(rng)
        got = np.concatenate([draw(1), draw(623), draw(100_000)])
        assert got.tolist() == [rng.random() for _ in range(100_624)]

    def test_state_mid_block(self):
        rng = mac_stream(7919, "salt", "B", "error")
        for _ in range(1000):
            rng.random()
        assert 0 < rng.getstate()[1][-1] < 624  # position inside the 624-word block
        got = sim._uniforms(rng)(100_000)
        assert got.tolist() == [rng.random() for _ in range(100_000)]

    def test_backoff_slots_equal_int_of_product(self):
        # int(random() * (cw + 1)) per attempt, as numpy computes it per array
        u = np.concatenate(
            [sim._uniforms(mac_stream(1, "", "A", "backoff"))(500), [0.0, 0.5, 1 - 2**-53]]
        )
        for cw in range(1024):
            window = np.full(len(u), cw + 1, dtype=np.int64)
            assert (u * window).astype(np.int64).tolist() == [int(x * (cw + 1)) for x in u.tolist()]


def assert_channels_match_spec(config):
    """Every channel of ``config`` comes out of the batched MAC exactly as
    out of the sequential one, column for column, in both views."""
    for full_trace in (True, False):
        cfg = replace(config, emit_full_trace=full_trace)
        for setup, offset in zip(cfg.channels, cfg.request_offsets()):
            got = sim._simulate_channel(setup, cfg, offset)
            want = simulate_channel_spec(setup, cfg, offset)
            for got_columns, want_columns in zip(got, want):
                assert (got_columns is None) == (want_columns is None)
                assert (got_columns or {}).keys() == (want_columns or {}).keys()
                for name, column in (want_columns or {}).items():
                    where = f"{setup.channel.label} {name} full_trace={full_trace}"
                    assert got_columns[name].dtype == column.dtype, where
                    assert np.array_equal(got_columns[name], column), where


def closed(starts, ends):
    return tuple(np.array([*b, TIME_LIMIT_NS], dtype=np.int64) for b in (starts, ends))


def acquire_lanes_and_scalar(starts, ends, difs, slot, lanes):
    """Starts of the attempts ``lanes`` (``(t, pending, span)`` each) from
    ``sim._acquire_lanes`` over ``starts``/``ends`` closed by ``TIME_LIMIT_NS``,
    and from the scalar ``sim._acquire`` over the unclosed lists."""
    busy = closed(starts, ends)
    t, pending, span = (np.array(c, dtype=np.int64) for c in zip(*lanes))
    busy += sim._gap_table(*busy, difs, slot, set(span.tolist()))
    got = sim._acquire_lanes(busy, difs, slot, t, pending, span)
    want = [sim._acquire(starts, ends, 0, t, difs, slot, p, s)[0] for t, p, s in lanes]
    return got.tolist(), want


@st.composite
def busy_and_lanes(draw):
    """A few dozen busy intervals (gaps of 0 included) on the scale of DIFS,
    slot and span, and lanes from anywhere up to past the last one."""
    difs, slot = draw(st.integers(0, 40)), draw(st.integers(1, 12))
    starts, ends, t = [], [], 0
    for _ in range(draw(st.integers(0, 30))):
        t += draw(st.integers(0, 120))
        starts.append(t)
        t += draw(st.integers(1, 60))
        ends.append(t)
    spans = st.sampled_from(draw(st.lists(st.integers(1, 100), min_size=1, max_size=3)))
    lane = st.tuples(st.integers(0, t + 50), st.integers(0, 40), spans)
    return starts, ends, difs, slot, draw(st.lists(lane, min_size=1, max_size=40))


class TestGapJump:
    """``sim._acquire_lanes``, which jumps over whole idle gaps with the gap
    table, against the scalar ``sim._acquire``, lane by lane."""

    @settings(max_examples=400, deadline=None)
    @given(case=busy_and_lanes())
    def test_equals_scalar_acquire(self, case):
        got, want = acquire_lanes_and_scalar(*case)
        assert got == want
        # the table built a few gaps at a time is the same table
        starts, ends, difs, slot, lanes = case
        spans = {span for _, _, span in lanes}
        whole = sim._gap_table(*closed(starts, ends), difs, slot, spans)
        with mock.patch.object(sim, "_GAP_CHUNK", 3):
            chunked = sim._gap_table(*closed(starts, ends), difs, slot, spans)
        assert whole[0].tolist() == chunked[0].tolist()
        assert {s: f.tolist() for s, f in whole[1].items()} == {
            s: f.tolist() for s, f in chunked[1].items()
        }

    def test_edge_cases(self):
        # DIFS 10, slot 5; whole gaps of 30 (4 ticks), 8 (shorter than
        # DIFS), 60 (10 ticks) and 580 (114 ticks), then the one before
        # TIME_LIMIT_NS
        starts, ends = [100, 230, 308, 400, 1000], [200, 300, 340, 420, 1010]
        cases = [
            (150, 0, 10, 210),  # starts inside an interval
            (200, 0, 10, 210),  # starts at an interval's end
            (210, 0, 10, 220),  # fits exactly in the gap it starts in
            # 4 of 7 ticks in the first gap, none in the short one, and an
            # exact fit (365 + 35 = 400) where the countdown ends
            (200, 7, 35, 365),
            # ... which a frame 1 ns longer misses: it waits at a count of
            # 0 for the next gap that holds DIFS plus its span
            (200, 7, 36, 430),
            # the count reaches 0 in the gap it starts in, and the frame
            # skips the gap shorter than DIFS
            (200, 4, 20, 350),
            (150, 3, 50, 350),  # ... and the one it fits exactly (60 = 10 + 50)
            (420, 200, 10, 1450),  # counts down into the last gap
            (0, 0, 1000, 1020),  # fits no gap before the last one
            (1005, 3, 10, 1035),  # starts inside the last interval
        ]
        got, want = acquire_lanes_and_scalar(starts, ends, 10, 5, [c[:3] for c in cases])
        assert got == want == [c[3] for c in cases]

    def test_countdown_search_starts_at_the_lane(self):
        # gaps 1 and 2 tick no slot (12 and 11 < DIFS + slot) and gap 1
        # holds a 2 ns frame: a lane that waits out gap 2 is not placed in
        # gap 1, behind it
        starts, ends = [100, 212, 311, 500], [200, 300, 400, 600]
        got, want = acquire_lanes_and_scalar(starts, ends, 10, 5, [(300, 0, 2), (250, 1, 2)])
        assert got == want == [410, 415]

    def test_one_ns_slot_sums_stay_in_int64(self):
        # at a 1 ns slot every idle ns is a tick, and one gap holds nearly
        # 2^62 of them
        starts, ends = [10, 2**62 - 100], [20, 2**62 - 50]
        ticks = sim._gap_table(*closed(starts, ends), 2, 1, {3})[0]
        assert ticks.tolist() == [0, 0, 2**62 - 122]
        lanes = [(0, 5, 3), (0, 2**61, 3), (15, 2**60, 2**40), (2**62 - 60, 10, 3)]
        lanes.append((0, 2**62 - 110, 3))  # counts down into the last gap
        got, want = acquire_lanes_and_scalar(starts, ends, 2, 1, lanes)
        assert got == want
        assert got[1] == 2**61 + 14 and got[4] == 2**62 - 44

    @pytest.mark.parametrize("last_end, dtype", [(2**31 - 2, np.int32), (2**31 - 1, np.int64)])
    def test_table_is_int32_while_its_sums_fit(self, last_end, dtype):
        # at a 1 ns slot the sums approach the last end; a count that runs
        # past every sum is clipped before the search, not wrapped
        starts, ends = [10, last_end - 20], [20, last_end]
        assert sim._gap_table(*closed(starts, ends), 2, 1, {3})[0].dtype == dtype
        lanes = [(0, 2**31 - 100, 3), (0, 2**40, 3), (25, 0, 3)]
        got, want = acquire_lanes_and_scalar(starts, ends, 2, 1, lanes)
        assert got == want
        assert got[1] == last_end + 2 + 2**40 - 8 - (last_end - 42)


@contextmanager
def recorded_rounds():
    """One record per MAC block, of the rounds of ``_attempt_starts``:
    ``req``, the block's requests; ``lanes``, the lane count of its first
    ``_acquire_lanes`` call, made by round 0 (None without a call);
    ``heads``, the copies each later round timed; ``queued``, the copies
    round 0 timed from their request that a later round's new end queued;
    and ``chained``, the copies that the scalar replay changed after the
    last round, right after a copy it also changed."""
    blocks = []
    waves, acquire_lanes, attempt_starts = sim._waves, sim._acquire_lanes, sim._attempt_starts

    def recorded_waves(busy, phy, tail, block, lane, t):
        record = blocks[-1]
        if record.round_0:  # the block's first call
            record.round_0 = False
            return waves(busy, phy, tail, block, lane, t)
        end = block[6]
        ended = end.copy()
        waves(busy, phy, tail, block, lane, t)
        record.heads.append(len(lane))
        record.retimed[lane] = True
        after = lane[lane + 1 < len(record.req)] + 1
        after = after[~record.retimed[after] & (ended[after] >= 0)]
        record.queued += int((end[after - 1] > record.req[after]).sum())
        record.rounds_end = end.copy()

    def recorded_lanes(busy, difs, slot, t, *args):
        if blocks[-1].lanes is None:
            blocks[-1].lanes = len(t)
        return acquire_lanes(busy, difs, slot, t, *args)

    def recorded_starts(busy, phy, tail, free_at, req, *args):
        record = SimpleNamespace(req=req, lanes=None, round_0=True, heads=[])
        record.queued, record.chained, record.rounds_end = 0, 0, None
        record.retimed = np.zeros(len(req), dtype=bool)
        blocks.append(record)
        start, end = attempt_starts(busy, phy, tail, free_at, req, *args)
        if record.rounds_end is not None:
            replayed = record.rounds_end != end
            record.chained = int((replayed[1:] & replayed[:-1]).sum())
        return start, end

    with mock.patch.object(sim, "_waves", recorded_waves), mock.patch.object(
        sim, "_acquire_lanes", recorded_lanes
    ), mock.patch.object(sim, "_attempt_starts", recorded_starts):
        yield blocks


class TestBatchedMac:
    """``sim._simulate_channel`` against the sequential MAC in ``helpers``;
    the derandomized property run takes 14-18 s on a 2-CPU host (Python
    3.11, numpy 2.4)."""

    @settings(max_examples=150, deadline=None)
    @given(config=sim_configs(), block=st.sampled_from([5, 64, sim._BLOCK]))
    def test_equals_sequential_spec(self, config, block):
        # small blocks carry the leftover error draws and the time the
        # adapter is free across many block boundaries
        with mock.patch.object(sim, "_BLOCK", block):
            assert_channels_match_spec(config)

    def test_retry_limit_70_certain_loss(self):
        # windows double 69 times: saturated at the default cw_max on A and
        # at 2**20 slots (a 9.4 s backoff) on B
        config = clean_config(n=60, seed=3, loss=1.0)
        phys = (PhyParams(retry_limit=70), PhyParams(retry_limit=70, cw_min=0, cw_max=2**20))
        config = replace(
            config,
            channels=tuple(replace(c, phy=phy) for c, phy in zip(config.channels, phys)),
        )
        assert_channels_match_spec(config)
        run = generate_run(config)
        assert (run.attempts == 70).all() and run.lost.all()

    def test_saturated_500us_period(self):
        # copies last longer than the period on average, so the adapter
        # queue grows for the whole run
        config = desk_config(2000, seed=5, interferers_a=1, period_ns=500_000)
        assert_channels_match_spec(config)
        with mock.patch.object(sim, "_BLOCK", 64):
            assert_channels_match_spec(config)
        run = generate_run(config)
        assert (run.end[:, -1] - run.req[:, -1] > 100 * config.period_ns).all()

    def test_fix_up_rounds(self):
        # a 3 ms period on busy channels queues hundreds of short chains,
        # which halve from round to round
        config = desk_config(2000, seed=3, interferers_a=2, interferers_b=2, period_ns=3_000_000)
        for block in (5, 64, sim._BLOCK):
            with mock.patch.object(sim, "_BLOCK", block):
                assert_channels_match_spec(config)
        with recorded_rounds() as blocks:
            generate_run(config)
        assert len(blocks) == 2  # one block per channel
        for record in blocks:
            # rounds of more than _ROUND_HEADS heads, each at most half the last
            assert len(record.heads) >= 2
            assert min(record.heads) > sim._ROUND_HEADS
            assert all(2 * b <= a for a, b in zip(record.heads, record.heads[1:]))
            assert record.queued > 0  # queued by a round's new end
            assert record.chained > 0  # chains the replay finishes

    def test_round_0_leaves_out_copies_the_service_times_queue(self):
        # a certain-loss copy (21 attempts) outlasts many periods, so the
        # bare service times queue every copy of a block but the first, and
        # all of the next block; in a saturated run, a fifth to a quarter
        lossy = desk_config(2000, seed=5, loss_prob=1.0, full_trace=False)
        saturated = desk_config(2000, seed=5, interferers_a=1, period_ns=500_000)
        lossy_lanes, saturated_lanes = [(1560, 1), (440, None)] * 2, [(2000, 1502), (2000, 1569)]
        for config, lanes in ((lossy, lossy_lanes), (saturated, saturated_lanes)):
            with recorded_rounds() as blocks:
                generate_run(config)
            assert [(len(record.req), record.lanes) for record in blocks] == lanes

    def test_busiest_channel_is_simulated_first(self):
        # its busy intervals and gap table are the largest, so they are
        # never held beside another channel's columns
        for (on_a, on_b), order in (((1, 2), [CH_B, CH_A]), ((2, 2), [CH_A, CH_B])):
            config = desk_config(50, seed=5, interferers_a=on_a, interferers_b=on_b)
            simulate = mock.Mock(side_effect=sim._simulate_channel)
            with mock.patch.object(sim, "_simulate_channel", simulate):
                run = generate_run(config)
            assert [call.args[0].channel for call in simulate.call_args_list] == order
            assert run.channels == (CH_A, CH_B)

    def test_scalar_replays_on_the_bench_config(self):
        """The rounds leave the scalar ``_acquire`` at most 200 calls on the
        bench config's 10^5 copies (80 at seed 5; 8747 after round 0
        alone)."""
        config = desk_config(50_000, seed=5, interferers_a=1, interferers_b=2, full_trace=False)
        with mock.patch.object(sim, "_acquire", side_effect=sim._acquire) as acquire:
            run = generate_run(config)
        assert run.attempts.sum() > 100_000
        assert 0 < acquire.call_count <= 200

    def test_peak_memory_grows_only_by_the_output(self):
        """A block holds at most ``_BLOCK`` attempts, so at 21 attempts per
        copy, 4x the packets raise the peak of a channel's simulation by no
        more than its larger output columns (blocks of 8192 copies raised
        it by 9 MB)."""

        def peak_and_output(n):
            config = desk_config(
                n, seed=5, interferers_b=0, loss_prob=1.0, full_trace=False, period_ns=10**8
            )
            tracemalloc.start()
            try:
                copies, _ = sim._simulate_channel(config.channels[1], config, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (copies["attempts"] == 21).all()
            return peak, sum(column.nbytes for column in copies.values())

        peak_and_output(100)  # one-time allocations out of the way
        # both runs span several full blocks
        (peak, output), (peak_4n, output_4n) = peak_and_output(4000), peak_and_output(16000)
        assert peak_4n - peak <= output_4n - output
