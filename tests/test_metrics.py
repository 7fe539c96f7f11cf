import io
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prpwifi import (
    ChannelId,
    DaMode,
    DaParams,
    LatencyStats,
    PacketRecord,
    PhyParams,
    compute_report,
    generate_run,
    latency_stats,
    oracle_attempt_summary,
    rda_flags,
    report_to_dict,
    sweep,
    virtual_defer,
    write_sweep_csv,
)
from prpwifi import metrics
from prpwifi.da import FailedCopyPolicy, TraceRequiredError
from prpwifi.metrics import SweepError, compute_report_reference

from helpers import (
    CH_A,
    CH_B,
    HAND_PHY,
    WORKED_E_A,
    WORKED_E_B,
    WORKED_W_A,
    WORKED_W_B,
    desk_config,
    latency_stats_spec,
    make_lost_copy,
    make_run,
    make_success_copy,
    worked_example_run,
)

MS = 1_000_000


class TestLatencyStats:
    def test_constant_sample(self):
        stats = latency_stats([2 * MS, 2 * MS, 2 * MS])
        assert stats.mean_ns == 2 * MS
        assert stats.std_ns == 0
        assert stats.median_ns == 2 * MS
        assert stats.p99_99_ns == 2 * MS
        assert stats.max_ns == 2 * MS
        assert stats.population == 3

    def test_nearest_rank_median(self):
        stats = latency_stats([1 * MS, 2 * MS, 3 * MS, 4 * MS])
        assert stats.median_ns == 2 * MS  # rank ceil(0.5*4) = 2

    def test_p9999_rank_arithmetic(self):
        # rank = ceil(0.9999*n) exactly: n = 10^4 lands on rank 9999, one
        # below the max; a non-integer boundary rounds up
        samples = list(range(1, 10_001))
        stats = latency_stats(samples)
        assert stats.p99_99_ns == 9_999
        assert stats.median_ns == 5_000
        import math

        assert math.ceil(Fraction(9_999, 10_000) * 864_000) == 863_914

    def test_ordering_invariant(self, traced_run):
        phy = traced_run.phy_by_channel()
        from prpwifi import copy_latency

        samples = [
            copy_latency(p.copies[CH_B], phy[CH_B])
            for p in traced_run.packets
            if not p.copies[CH_B].lost
        ]
        stats = latency_stats(samples)
        assert stats.median_ns <= stats.p99_99_ns <= stats.max_ns

    def test_empty_population_is_absent(self):
        assert latency_stats([]) is None


def brute_force_worked_example():
    """Independent recomputation of the worked example from its raw flag and
    attempt-count patterns, without touching the metrics module."""
    n = 4
    e_bar_a = Fraction(sum(WORKED_E_A), n)
    e_bar_b = Fraction(sum(WORKED_E_B), n)
    e_link = e_bar_a + e_bar_b
    z_a = [ea and wa == 1 for ea, wa in zip(WORKED_E_A, WORKED_W_A)]
    z_b = [eb and wb == 1 for eb, wb in zip(WORKED_E_B, WORKED_W_B)]
    z_link = Fraction(sum(za or zb for za, zb in zip(z_a, z_b)), n)
    w_pow = Fraction(sum(WORKED_W_A) + sum(WORKED_W_B), n)
    return {
        "e_A": e_bar_a,
        "e_B": e_bar_b,
        "e_link": e_link,
        "z_link": z_link,
        "w_pow": w_pow,
        "eta_check": 1 / (w_pow - e_link),
        "theta_hat": 1 - e_link / w_pow,
        "Theta_hat": 2 * (1 - e_link / w_pow),
    }


_BOUND = 1 << 62


@st.composite
def populations(draw):
    """Int populations up to 2^62 in magnitude: short ones drawn value by
    value, long ones (up to a few thousand) from a drawn numpy seed."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-_BOUND, _BOUND), min_size=1, max_size=40))
    n = draw(st.integers(min_value=1, max_value=3000))
    high = 1 << draw(st.integers(min_value=0, max_value=62))
    low = -high if draw(st.booleans()) else 0
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return rng.integers(low, high, n, endpoint=True).tolist()


def assert_same_stats(got: LatencyStats, want: LatencyStats) -> None:
    assert got == want
    for f in fields(LatencyStats):
        # Python scalars only, so reports and JSON rendering are unaffected
        assert type(getattr(got, f.name)) is type(getattr(want, f.name))


class TestLatencyStatsExactness:
    @settings(max_examples=80, deadline=None)
    @given(populations())
    def test_matches_spec(self, samples):
        assert_same_stats(latency_stats(samples), latency_stats_spec(samples))

    def test_crosses_every_chunk_boundary(self):
        # more than two summation chunks, over the whole int64 range, where
        # n * max^2 is far beyond 2^63
        n = 2 * metrics._SUM_CHUNK + 3
        rng = np.random.default_rng(2022)
        samples = rng.integers(-(2**63), 2**63 - 1, n, endpoint=True).tolist()
        samples[:2] = [-(2**63), 2**63 - 1]
        assert_same_stats(latency_stats(samples), latency_stats_spec(samples))

    def test_accepts_int64_arrays(self):
        samples = [5 * MS, 1 * MS, 3 * MS, 3 * MS]
        assert_same_stats(
            latency_stats(np.array(samples, dtype=np.int64)),
            latency_stats_spec(samples),
        )


class TestWorkedExample:
    def test_brute_force_matches_frozen_values(self):
        ref = brute_force_worked_example()
        assert ref["e_link"] == Fraction(3, 4)
        assert ref["z_link"] == Fraction(1, 2)
        assert ref["w_pow"] == 3
        assert ref["eta_check"] == Fraction(4, 9)  # ~0.4444
        assert ref["theta_hat"] == Fraction(3, 4)
        assert ref["Theta_hat"] == Fraction(3, 2)

    def test_log_reproduces_flag_patterns(self):
        run = worked_example_run()
        phy = run.phy_by_channel()
        for packet, ea, eb in zip(run.packets, WORKED_E_A, WORKED_E_B):
            flags = rda_flags(packet, 0, phy)
            assert flags.early[CH_A] == bool(ea)
            assert flags.early[CH_B] == bool(eb)

    def test_report_matches_brute_force_exactly(self):
        run = worked_example_run()
        ref = brute_force_worked_example()
        report = compute_report(run, DaParams(mode=DaMode.RDA, t_lre_ns=0))
        assert report.channels["A"].early_bar == ref["e_A"] == Fraction(1, 2)
        assert report.channels["B"].early_bar == ref["e_B"] == Fraction(1, 4)
        assert report.link.early_bar == ref["e_link"]
        assert report.link.simplex_bar == ref["z_link"]
        assert report.channels["A"].attempts_bar == Fraction(5, 4)
        assert report.channels["B"].attempts_bar == Fraction(7, 4)
        assert report.link.attempts_bar_pow == ref["w_pow"]
        assert report.link.efficiency_floor == ref["eta_check"]
        assert report.link.load_vs_pow == ref["theta_hat"]
        assert report.link.load_vs_simplex == ref["Theta_hat"]


class TestComputeReport:
    def test_pow_mode_zeroes_da_fields(self, traced_run):
        report = compute_report(traced_run, DaParams(mode=DaMode.POW))
        assert report.link.early_bar == 0
        assert report.link.simplex_bar == 0
        assert report.link.load_vs_pow == 1
        assert report.link.load_vs_simplex == 2
        assert report.link.efficiency_floor == report.link.efficiency_pow

    def test_all_lost_run(self):
        run = generate_run(desk_config(50, seed=2, loss_prob=1.0, interferers_b=0))
        report = compute_report(run, DaParams(mode=DaMode.RDA))
        assert report.link.early_bar == 0
        assert report.link.load_vs_pow == 1
        assert report.link.latency is None
        assert report.link.loss == 1
        assert report.link.miss_10ms is None
        # no delivered copies anywhere: charge falls back to the retry limit
        assert report.params.lost_copy_charge == 21
        assert report.channels["A"].attempts_bar == 21

    def test_exact_identities(self, traced_run):
        report = compute_report(traced_run, DaParams(mode=DaMode.RDA, t_lre_ns=50_000))
        link = report.link
        per_channel = [m.early_bar for m in report.channels.values()]
        assert link.early_bar == sum(per_channel)
        assert link.simplex_bar <= link.early_bar
        assert link.attempts_bar_pow >= 2
        # eta_check = 1/(theta_hat * w_pow), exactly, by construction
        assert link.efficiency_floor == 1 / (link.load_vs_pow * link.attempts_bar_pow)
        # duplex: link simplex fraction is the sum of the channel fractions
        assert link.simplex_bar == sum(m.simplex_bar for m in report.channels.values())

    def test_tdd_zero_equals_rda(self, traced_run):
        for t_lre in (0, 100_000):
            rda = compute_report(traced_run, DaParams(mode=DaMode.RDA, t_lre_ns=t_lre))
            tdd = compute_report(
                traced_run, DaParams(mode=DaMode.TDD, t_lre_ns=t_lre, t_d_ns=0)
            )
            assert tdd.same_metrics(rda)

    def test_real_deferral_log_analyzed_on_recorded_timestamps(self):
        from prpwifi import Deferral

        cfg = replace(desk_config(300, seed=21), deferral=Deferral(offset_ns=120_000))
        run = generate_run(cfg)
        report = compute_report(run, DaParams(mode=DaMode.TDD))
        assert report.params.t_d_ns == 120_000
        with pytest.raises(ValueError):
            compute_report(run, DaParams(mode=DaMode.TDD, t_d_ns=50_000))

    def test_virtual_and_real_deferral_paths_agree_on_shifted_log(self, traced_run):
        # analyzing a virtually shifted log on its recorded timestamps must
        # equal the direct virtual analysis of the base log
        t_d = 150_000
        shifted = virtual_defer(traced_run, t_d)
        direct = compute_report(
            traced_run, DaParams(mode=DaMode.TDD, t_lre_ns=30_000, t_d_ns=t_d)
        )
        recorded = compute_report(
            shifted, DaParams(mode=DaMode.TDD, t_lre_ns=30_000, t_d_ns=t_d)
        )
        assert direct.same_metrics(recorded)

    def test_lost_copy_charge_policies(self):
        # one lost copy on A (2 recorded attempts); max delivered attempts is 4
        packets = [
            PacketRecord(
                index=1,
                copies={
                    CH_A: make_lost_copy(0, 2_000_000, 2, with_duration=True),
                    CH_B: make_success_copy(0, 700_000, attempts=4),
                },
            ),
            PacketRecord(
                index=2,
                copies={
                    CH_A: make_success_copy(100_000_000, 100_400_000),
                    CH_B: make_success_copy(100_000_000, 100_700_000),
                },
            ),
        ]
        run = make_run(packets)
        measured = compute_report(run, DaParams(mode=DaMode.POW))
        assert measured.params.lost_copy_policy == "measured-max"
        assert measured.params.lost_copy_charge == 4
        assert measured.channels["A"].attempts_bar == Fraction(4 + 1, 2)
        fixed = compute_report(
            run, DaParams(mode=DaMode.POW, lost_copy_attempts=7)
        )
        assert fixed.params.lost_copy_policy == "fixed"
        assert fixed.channels["A"].attempts_bar == Fraction(7 + 1, 2)

    def test_vector_path_equals_reference(self, traced_run, adapter_run):
        cases = [
            DaParams(mode=DaMode.POW),
            DaParams(mode=DaMode.RDA, t_lre_ns=0),
            DaParams(mode=DaMode.RDA, t_lre_ns=250_000),
            DaParams(mode=DaMode.TDD, t_lre_ns=50_000, t_d_ns=-180_000),
            DaParams(mode=DaMode.TDD, t_lre_ns=0, t_d_ns=220_000),
            DaParams(
                mode=DaMode.RDA,
                t_lre_ns=100_000,
                failed_copy_policy=FailedCopyPolicy.ORACLE,
            ),
        ]
        for run in (traced_run, adapter_run):
            for params in cases:
                if (
                    params.failed_copy_policy is FailedCopyPolicy.ORACLE
                    and run is adapter_run
                ):
                    continue
                assert compute_report(run, params) == compute_report_reference(
                    run, params
                )


class TestNplexReport:
    def build_run(self):
        ch_c = ChannelId(2, "C")
        packets = [
            PacketRecord(
                index=1,
                copies={
                    CH_A: make_success_copy(0, 500_000),
                    CH_B: make_success_copy(0, 900_000, attempts=2),
                    ch_c: make_success_copy(0, 1_200_000),
                },
            )
        ]
        return make_run(packets, channels=(CH_A, CH_B, ch_c)), ch_c

    def test_three_channel_aggregation(self):
        run, _ = self.build_run()
        report = compute_report(run, DaParams(mode=DaMode.RDA, t_lre_ns=0))
        assert report.link.early_bar == 2  # both non-quickest copies terminated
        assert report.link.attempts_bar_pow == 4
        assert report.link.load_vs_simplex == 3 * report.link.load_vs_pow

    def test_tdd_rejected(self):
        run, _ = self.build_run()
        with pytest.raises(ValueError):
            compute_report(run, DaParams(mode=DaMode.TDD))


class TestSweep:
    def test_singleton_equals_compute_report(self, traced_run):
        params = DaParams(mode=DaMode.RDA, t_lre_ns=0)
        assert sweep(traced_run, [params]) == [compute_report(traced_run, params)]

    def test_reaction_latency_sweep_is_monotone(self, traced_run):
        grid = [
            DaParams(mode=DaMode.RDA, t_lre_ns=t) for t in range(0, 1_000_001, 50_000)
        ]
        reports = sweep(traced_run, grid)
        assert len(reports) == 21
        values = [r.link.early_bar for r in reports]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_td_zero_point_matches_rda(self, traced_run):
        t_lre = 40_000
        grid = [
            DaParams(mode=DaMode.TDD, t_lre_ns=t_lre, t_d_ns=td)
            for td in (-100_000, 0, 100_000)
        ]
        reports = sweep(traced_run, grid)
        rda = compute_report(traced_run, DaParams(mode=DaMode.RDA, t_lre_ns=t_lre))
        assert reports[1].same_metrics(rda)

    def test_empty_grid_rejected(self, traced_run):
        with pytest.raises(ValueError):
            sweep(traced_run, [])

    def test_displacement_sweep_shape(self, traced_run):
        """Qualitative displacement behaviour on an interfered log: savings
        rise clearly once |T_D| passes the initial-attempt span, and the
        mean latency grows with |T_D| in either direction."""
        grid = [
            DaParams(mode=DaMode.TDD, t_lre_ns=0, t_d_ns=td * 1_000)
            for td in (-500, 0, 500)
        ]
        lo, mid, hi = sweep(traced_run, grid)
        assert hi.link.early_bar > mid.link.early_bar + Fraction(1, 10)
        assert lo.link.early_bar > mid.link.early_bar + Fraction(1, 10)
        assert hi.link.latency.mean_ns > mid.link.latency.mean_ns
        assert lo.link.latency.mean_ns > mid.link.latency.mean_ns

    def test_point_errors_carry_index(self):
        run, _ = TestNplexReport().build_run()
        grid = [DaParams(mode=DaMode.POW), DaParams(mode=DaMode.TDD)]
        with pytest.raises(SweepError) as exc:
            sweep(run, grid)
        assert exc.value.point == 1


@pytest.fixture(scope="module")
def lossy_runs():
    """Full-trace and adapter-view runs with lost copies on either channel
    and on the link (retry limit 2 at 35 % attempt loss)."""
    runs = {}
    for full_trace in (True, False):
        config = desk_config(
            n_packets=400, seed=21, loss_prob=0.35, full_trace=full_trace
        )
        channels = tuple(
            replace(c, phy=PhyParams(retry_limit=2)) for c in config.channels
        )
        runs[full_trace] = generate_run(replace(config, channels=channels))
    return runs


def mixed_grid(policies) -> list[DaParams]:
    """POW, RDA at several T_LRE and TDD with repeated and distinct T_D."""
    grid = [DaParams(mode=DaMode.POW, failed_copy_policy=p) for p in policies]
    for p in policies:
        grid += [
            DaParams(mode=DaMode.RDA, t_lre_ns=t, failed_copy_policy=p)
            for t in (0, 50_000, 400_000, 50_000)
        ]
        grid += [
            DaParams(mode=DaMode.TDD, t_lre_ns=t, t_d_ns=td, failed_copy_policy=p)
            for t, td in (
                (0, 0),
                (30_000, 100_000),
                (0, 100_000),
                (30_000, -250_000),
                (80_000, 0),
            )
        ]
    return grid


BOTH_POLICIES = tuple(FailedCopyPolicy)


class TestSweepSharing:
    @pytest.mark.parametrize("name", ["traced_run", "adapter_run"])
    def test_mixed_grid_equals_single_reports(self, name, request):
        run = request.getfixturevalue(name)
        grid = mixed_grid(BOTH_POLICIES)
        reports = sweep(run, grid)
        assert reports == [compute_report(run, p) for p in grid]
        assert reports == [compute_report_reference(run, p) for p in grid]

    def test_mixed_grid_with_lost_copies(self, lossy_runs):
        for full_trace, run in lossy_runs.items():
            lost = [[p.copies[c].lost for p in run.packets] for c in run.channels]
            assert all(any(flags) for flags in lost)
            assert any(a and b for a, b in zip(*lost))
            # adapter-view lost copies carry no frame durations: the oracle
            # policy is only available without flags there
            if full_trace:
                grid = mixed_grid(BOTH_POLICIES)
            else:
                grid = mixed_grid((FailedCopyPolicy.PESSIMISTIC_ZERO,)) + [
                    DaParams(mode=DaMode.POW, failed_copy_policy=FailedCopyPolicy.ORACLE)
                ]
            reports = sweep(run, grid)
            assert reports == [compute_report(run, p) for p in grid]
            assert reports == [compute_report_reference(run, p) for p in grid]

    def test_oracle_flags_need_traces_on_both_paths(self, lossy_runs):
        params = DaParams(mode=DaMode.RDA, failed_copy_policy=FailedCopyPolicy.ORACLE)
        for evaluate in (compute_report, compute_report_reference):
            with pytest.raises(TraceRequiredError):
                evaluate(lossy_runs[False], params)

    def test_each_population_reduced_once(self, adapter_run, monkeypatch):
        calls = []
        real = metrics.latency_stats

        def counted(samples):
            calls.append(len(samples))
            return real(samples)

        monkeypatch.setattr(metrics, "latency_stats", counted)
        tlre = [
            DaParams(mode=DaMode.RDA, t_lre_ns=t) for t in range(0, 1_000_001, 50_000)
        ]
        sweep(adapter_run, tlre)
        assert len(calls) == 3  # two channels and the recorded link
        calls.clear()
        td = [
            DaParams(mode=DaMode.TDD, t_d_ns=t)
            for t in range(-300_000, 300_001, 25_000)
        ]
        sweep(adapter_run, td)
        assert len(calls) == 2 + 25  # two channels and the link per T_D


class TestOracleSummary:
    def test_exact_bound_on_simulated_log(self, traced_run):
        for t_lre in (0, 100_000, 500_000):
            for t_d in (0, 120_000, -120_000):
                summary = oracle_attempt_summary(traced_run, t_lre, t_d)
                report = compute_report(
                    traced_run,
                    DaParams(mode=DaMode.TDD, t_lre_ns=t_lre, t_d_ns=t_d),
                )
                assert (
                    summary.attempts_bar_da
                    <= summary.attempts_bar_pow - report.link.early_bar
                )
                assert report.link.early_bar <= summary.early_bar_exact


class TestRendering:
    def test_report_dict_shape_and_rounding(self):
        report = compute_report(worked_example_run(), DaParams(mode=DaMode.RDA))
        d = report_to_dict(report)
        assert d["link"]["e_pct"] == 75.0
        assert d["link"]["eta_check_pct"] == 44.44  # 4 significant digits
        assert d["link"]["theta_hat_pct"] == 75.0
        assert d["link"]["Theta_hat_pct"] == 150.0
        assert d["channels"]["A"]["w_mean"] == 1.25
        assert d["params"]["mode"] == "rda"
        assert d["link"]["latency"]["population"] == 4

    def test_sweep_csv_columns(self, traced_run):
        grid = [DaParams(mode=DaMode.RDA, t_lre_ns=t) for t in (0, 50_000)]
        buf = io.StringIO()
        write_sweep_csv(sweep(traced_run, grid), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "mode,T_LRE_us,T_D_us,e_bar,z_bar,theta_hat,Theta_hat,eta_check,"
            "d_mean_us,d_p9999_us,loss_pct,miss10ms_pct,miss100ms_pct"
        )
        assert len(lines) == 3
        assert lines[1].startswith("rda,0.0,0.0,")
