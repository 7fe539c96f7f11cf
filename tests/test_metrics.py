import io
import json
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prpwifi import (
    ChannelId,
    DaMode,
    DaParams,
    LatencyStats,
    PhyParams,
    RunLog,
    VIEW_ADAPTER,
    VIEW_FULL_TRACE,
    compute_report,
    generate_run,
    latency_stats,
    oracle_attempt_summary,
    report_to_dict,
    sweep,
    validate_run,
    write_sweep_csv,
)
from prpwifi.trace import PacketRecord, write_log
from prpwifi import metrics
from prpwifi.cli import main
from prpwifi.da import (
    FailedCopyPolicy,
    TraceRequiredError,
    oracle_saved_attempts,
    policy_final_start,
    rda_flags,
    tdd_flags,
    tdd_latency,
)
from prpwifi.metrics import SweepError

from conftest import duplex_runs, sim_configs, traced_copies
from helpers import (
    CH_A,
    CH_B,
    FAIL_TAIL_NS,
    HAND_PHY,
    WORKED_E_A,
    WORKED_E_B,
    WORKED_W_A,
    WORKED_W_B,
    compute_report_reference,
    copy_from_starts,
    desk_config,
    latency_stats_spec,
    lossy_config,
    make_lost_copy,
    make_run,
    make_success_copy,
    oracle_attempt_summary_spec,
    virtual_defer,
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
        from helpers import copy_latency

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
    @example([10 * MS, 10 * MS + 1, 100 * MS, 100 * MS + 1])
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

    @pytest.mark.parametrize(
        "low, span",
        [
            (low, span)
            for low in (-(2**63), -(2**43), 0, 2**40)
            for span in (
                0, 1, 2**22 - 1, 2**22, 2**24 - 1, 2**24, 2**44 - 1, 2**44, 2**48 - 1, 2**48,
                2**63 - 2, 2**63 - 1, 2**64 - 1,
            )
            if low + span < 2**63
        ],
    )
    def test_exact_sums_at_limb_widths(self, low, span):
        # one limb below a span of 2^24, two below 2^48, else three; both
        # ends of the span are in the population. At the top of one and of
        # two limbs, two and a half summation chunks, and the worst case for
        # a chunk's limb products: every value but the first at the top
        tops = (2**24 - 1, 2**48 - 1, 2**64 - 1)
        n = 5 * metrics._SUM_CHUNK // 2 if span in tops or span == 2**44 - 1 else 1001
        rng = np.random.default_rng(span % 997 + low % 991)
        offsets = rng.integers(0, span, n, endpoint=True, dtype=np.uint64)
        offsets[:2] = [0, span]
        if span in tops:
            offsets[2:] = span
        values = sorted(low + int(o) for o in offsets.tolist())
        ordered = np.array(values, dtype=np.int64)
        assert metrics._exact_sums(ordered) == (sum(values), sum(v * v for v in values))

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
        assert report.lost_copy_charge == 21
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
            measured = (tdd.n_packets, tdd.channels, tdd.link)
            assert measured == (rda.n_packets, rda.channels, rda.link)

    def test_real_deferral_log_analyzed_on_recorded_timestamps(self):
        cfg = replace(desk_config(300, seed=21), deferral_ns=120_000)
        run = generate_run(cfg)
        report = compute_report(run, DaParams(mode=DaMode.TDD))
        assert report.params.t_d_ns == 120_000
        with pytest.raises(ValueError):
            compute_report(run, DaParams(mode=DaMode.TDD, t_d_ns=50_000))

    @pytest.mark.parametrize("mode", [DaMode.POW, DaMode.RDA])
    def test_displacement_outside_tdd_is_refused(self, traced_run, mode):
        message = "^a request displacement applies to tdd mode only$"
        for evaluate in (compute_report, compute_report_reference):
            with pytest.raises(ValueError, match=message):
                evaluate(traced_run, DaParams(mode=mode, t_d_ns=-1))

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
        measured = (direct.n_packets, direct.channels, direct.link)
        assert measured == (recorded.n_packets, recorded.channels, recorded.link)

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
        assert report_to_dict(measured)["params"]["lost_copy_policy"] == "measured-max"
        assert measured.lost_copy_charge == 4
        assert measured.channels["A"].attempts_bar == Fraction(4 + 1, 2)
        fixed = compute_report(
            run, DaParams(mode=DaMode.POW, lost_copy_attempts=7)
        )
        assert report_to_dict(fixed)["params"]["lost_copy_policy"] == "fixed"
        assert fixed.lost_copy_charge == 7
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

    def test_vector_path_equals_reference(self, lossy_runs):
        # a third channel C carrying the copies of A from another seed
        ch_c = ChannelId(2, "C")
        base = lossy_runs[True]
        other = generate_run(lossy_config(400, seed=22, full_trace=True))
        packets = [
            PacketRecord(p.index, {**p.copies, ch_c: q.copies[CH_A]})
            for p, q in zip(base.packets, other.packets)
        ]
        meta = replace(
            base.meta,
            channels=base.meta.channels + (replace(base.meta.channels[0], channel=ch_c),),
        )
        run = RunLog.from_packets(meta, packets)
        assert run.lost.all(axis=0).any()
        for params in mixed_grid(BOTH_POLICIES):
            if params.mode is not DaMode.TDD:
                assert compute_report(run, params) == compute_report_reference(run, params)

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
        measured = (reports[1].n_packets, reports[1].channels, reports[1].link)
        assert measured == (rda.n_packets, rda.channels, rda.link)

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

    def test_leads_and_link_split_built_once_per_policy(self, traced_run, monkeypatch):
        built = []
        for name in ("_leads", "_link_split"):
            real = getattr(metrics, name)

            def counted(run, *policy, _real=real, _name=name):
                built.append((_name, *policy))
                return _real(run, *policy)

            monkeypatch.setattr(metrics, name, counted)
        td = range(-300_000, 300_001, 25_000)
        sweep(traced_run, [DaParams(mode=DaMode.TDD, t_d_ns=t) for t in td])
        assert sorted(built) == [("_leads", FailedCopyPolicy.PESSIMISTIC_ZERO), ("_link_split",)]
        built.clear()
        # both policies, interleaved: the leads once per policy, the split
        # (which no policy changes) once
        grid = [
            DaParams(mode=DaMode.TDD, t_d_ns=t, failed_copy_policy=p)
            for t in td
            for p in BOTH_POLICIES
        ]
        sweep(traced_run, grid)
        assert sorted(built) == sorted(
            [("_leads", p) for p in BOTH_POLICIES] + [("_link_split",)]
        )
        built.clear()
        # recorded timestamps need no split
        tlre = range(0, 1_000_001, 50_000)
        sweep(traced_run, [DaParams(mode=DaMode.RDA, t_lre_ns=t) for t in tlre])
        assert built == [("_leads", FailedCopyPolicy.PESSIMISTIC_ZERO)]


def _adapter_view(run: RunLog) -> RunLog:
    """The run without traces; lost copies keep their frame durations, so
    the oracle policy still applies."""
    packets = [
        PacketRecord(p.index, {c: replace(copy, trace=None) for c, copy in p.copies.items()})
        for p in run.packets
    ]
    return RunLog.from_packets(replace(run.meta, view=VIEW_ADAPTER), packets)


def _margin_points(run: RunLog, t_d: int, policy: FailedCopyPolicy) -> list[int]:
    """T_LRE at the exact margin of every copy against every other copy of
    its packet (shifted final-attempt start minus shifted end), and 1 ns
    either side, where that is a valid T_LRE. This includes every copy's
    lead against the least end among its packet's other delivered copies.
    A displacement (``t_d`` other than 0) needs a duplex run."""
    phy = run.phy_by_channel()
    shift = dict.fromkeys(run.channels, 0)
    if t_d:
        first, second = run.channels
        shift = {first: max(0, -t_d), second: max(0, t_d)}
    points = {0}
    for packet in run.packets:
        for a, copy in packet.copies.items():
            start = policy_final_start(copy, phy[a], policy)
            if start is None:
                continue
            for b, other in packet.copies.items():
                margin = start + shift[a] - (other.end_ns + shift[b])
                points.update(margin + d for d in (-1, 0, 1) if margin + d >= 0)
    return sorted(points)


@st.composite
def sweep_cases(draw):
    """A duplex run, traced or not and with lost copies, and a grid whose
    T_LRE sit at the run's exact margins, under both failed-copy policies
    and with repeated and distinct T_D."""
    run = draw(duplex_runs())
    if draw(st.booleans()):
        run = _adapter_view(run)
    grid = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        mode = draw(st.sampled_from(DaMode))
        policy = draw(st.sampled_from(FailedCopyPolicy))
        t_d = 0
        if mode is DaMode.TDD:
            t_d = draw(
                st.sampled_from((0, 400_000, -400_000))
                | st.integers(min_value=-3_000_000, max_value=3_000_000)
            )
        t_lre = draw(st.sampled_from(_margin_points(run, t_d, policy)))
        grid.append(DaParams(mode, t_lre, t_d, policy))
    return run, grid


CH_C = ChannelId(2, "C")


@st.composite
def triplex_sweep_cases(draw):
    """A three-channel run, traced or not and with lost copies, and an RDA
    grid whose T_LRE sit at the run's exact leads, under both failed-copy
    policies. A packet's third copy may repeat the attempts of its first or
    second copy, or only that copy's final attempt, so that copies tie at
    the least end, with the same or a different attempt count."""
    period = 30_000_000
    packets = []
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        request = i * period
        copy_a = draw(traced_copies(request))
        copy_b = draw(traced_copies(request))
        tie = draw(st.sampled_from((copy_a, copy_b)))
        final_only = copy_from_starts(request, [tie.trace[-1].start_ns], tie.lost)
        copy_c = draw(st.sampled_from((tie, final_only)) | traced_copies(request))
        packets.append(PacketRecord(i + 1, {CH_A: copy_a, CH_B: copy_b, CH_C: copy_c}))
    run = make_run(
        packets, period_ns=period, view=VIEW_FULL_TRACE, channels=(CH_A, CH_B, CH_C)
    )
    if draw(st.booleans()):
        run = _adapter_view(run)
    grid = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        policy = draw(st.sampled_from(FailedCopyPolicy))
        t_lre = draw(st.sampled_from(_margin_points(run, 0, policy)))
        grid.append(DaParams(DaMode.RDA, t_lre, 0, policy))
    return run, grid


class TestSweepMargins:
    @settings(max_examples=150, deadline=None)
    @given(case=sweep_cases())
    def test_sweep_equals_reference_at_exact_margins(self, case):
        run, grid = case
        assert sweep(run, grid) == [compute_report_reference(run, p) for p in grid]

    @settings(max_examples=100, deadline=None)
    @given(case=triplex_sweep_cases())
    def test_three_channel_sweep_equals_reference_at_exact_leads(self, case):
        run, grid = case
        validate_run(run)
        assert sweep(run, grid) == [compute_report_reference(run, p) for p in grid]
        if run.trace is not None:
            for p in grid:
                expected = oracle_attempt_summary_spec(run, p.t_lre_ns)
                assert oracle_attempt_summary(run, p.t_lre_ns) == expected

    def test_ties_go_to_the_first_channel(self):
        def copy(*starts: int):
            return copy_from_starts(0, list(starts), lost=False)

        ch_c = ChannelId(2, "C")
        # packet 1: all three end together; packet 2: B and C end together,
        # before A
        packets = [
            PacketRecord(1, {CH_A: copy(100_000), CH_B: copy(100_000), ch_c: copy(100_000)}),
            PacketRecord(2, {CH_A: copy(100_000, 900_000), CH_B: copy(300_000), ch_c: copy(300_000)}),
        ]
        run = make_run(packets, view=VIEW_FULL_TRACE, channels=(CH_A, CH_B, ch_c))
        phy = run.phy_by_channel()
        quickest = [rda_flags(p, 0, phy).quickest for p in run.packets]
        assert quickest == [CH_A, CH_B]
        assert [p.copies[c].end_ns for p, c in zip(run.packets, quickest)] == [434_000, 634_000]
        for t_lre in (0, 50_000):
            params = DaParams(mode=DaMode.RDA, t_lre_ns=t_lre)
            assert compute_report(run, params) == compute_report_reference(run, params)
            assert oracle_attempt_summary(run, t_lre) == oracle_attempt_summary_spec(run, t_lre)

        # A ends where B ends once B is displaced by T_D = 200 us
        duplex = make_run(
            [PacketRecord(1, {CH_A: copy(500_000), CH_B: copy(300_000)})], view=VIEW_FULL_TRACE
        )
        assert tdd_flags(duplex.packets[0], 200_000, 0, duplex.phy_by_channel()).quickest == CH_A
        for t_d in (200_000, -200_000):
            params = DaParams(mode=DaMode.TDD, t_d_ns=t_d)
            assert sweep(duplex, [params]) == [compute_report_reference(duplex, params)]
            assert oracle_attempt_summary(duplex, 0, t_d) == oracle_attempt_summary_spec(
                duplex, 0, t_d
            )

        # B and C tie at the least end, C after an earlier attempt: B and C
        # keep their attempts, and only A's, which starts after the
        # cross-ACK, is dropped
        tied = make_run(
            [PacketRecord(1, {
                CH_A: copy(1_500_000), CH_B: copy(1_000_000), ch_c: copy(100_000, 1_000_000)
            })],
            view=VIEW_FULL_TRACE,
            channels=(CH_A, CH_B, ch_c),
        )
        validate_run(tied)
        summary = oracle_attempt_summary(tied, 0)
        assert summary == oracle_attempt_summary_spec(tied, 0)
        assert (summary.attempts_bar_da, summary.early_bar_exact) == (3, 1)

    def test_displacement_sweep_holds_one_displacement(self):
        run = generate_run(desk_config(n_packets=20_000, seed=13, full_trace=False))
        grid = [
            DaParams(mode=DaMode.TDD, t_d_ns=t) for t in range(-300_000, 300_001, 25_000)
        ]

        def peak(points: list[DaParams]) -> int:
            tracemalloc.start()
            try:
                sweep(run, points)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(grid) <= 1.5 * peak(grid[:1])


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

    @pytest.mark.parametrize("name", ["traced_run", "lossy_traced"])
    def test_equals_per_packet_spec(self, name, request, lossy_runs):
        run = lossy_runs[True] if name == "lossy_traced" else request.getfixturevalue(name)
        points = ((50_000, 0), (0, 0), (200_000, 0), (0, 100_000), (50_000, -150_000))
        for t_lre, t_d in points + ((2**70, -150_000),):
            expected = oracle_attempt_summary_spec(run, t_lre, t_d)
            assert oracle_attempt_summary(run, t_lre, t_d) == expected

    @settings(max_examples=100, deadline=None)
    @given(run=duplex_runs(), data=st.data())
    def test_equals_per_packet_spec_at_attempt_starts(self, run, data):
        t_d = data.draw(st.sampled_from((0, 300_000, -300_000)))
        # T_LRE where a trace entry's shifted start meets the cross-ACK
        first, second = run.channels
        shift = {first: max(0, -t_d), second: max(0, t_d)}
        points = {0}
        for packet in run.packets:
            for a, copy in packet.copies.items():
                for b, other in packet.copies.items():
                    for attempt in copy.trace:
                        gap = attempt.start_ns + shift[a] - other.end_ns - shift[b]
                        points.update(gap + d for d in (-1, 0, 1) if gap + d >= 0)
        t_lre = data.draw(st.sampled_from(sorted(points)))
        expected = oracle_attempt_summary_spec(run, t_lre, t_d)
        assert oracle_attempt_summary(run, t_lre, t_d) == expected

    def test_negative_reaction_latency_is_refused_as_reports_refuse_it(self, traced_run):
        refused = "^reaction latency must be non-negative$"
        with pytest.raises(ValueError, match=refused):
            compute_report(traced_run, DaParams(mode=DaMode.RDA, t_lre_ns=-1))
        for evaluate in (oracle_attempt_summary, oracle_attempt_summary_spec):
            for t_d in (0, 100_000):
                with pytest.raises(ValueError, match=refused):
                    evaluate(traced_run, -1, t_d)
        with pytest.raises(ValueError, match=refused):
            oracle_saved_attempts(traced_run.packets[0], -1)

    @settings(max_examples=25, deadline=None)
    @given(config=sim_configs(), data=st.data())
    def test_adapter_view_bounds_the_oracle_on_generated_runs(self, config, data):
        """The oracle equals its spec; under the oracle policy a report's
        e is the oracle's, and under the pessimistic one at most that; and
        the attempts the oracle keeps are at most W_pow - e. T_D is 0 or
        the run's real deferral, or a virtual one on a run without it."""
        run = generate_run(config)
        period = config.period_ns
        t_d = data.draw(
            st.sampled_from((0, config.deferral_ns)) if config.deferral_ns
            else st.just(0) | st.integers(min_value=1 - period, max_value=period - 1)
        )
        t_lre = data.draw(st.sampled_from((0, 1, 50_000, MS, 2**70)))
        summary = oracle_attempt_summary(run, t_lre, t_d)
        assert summary == oracle_attempt_summary_spec(run, t_lre, t_d)
        mode = DaMode.TDD if t_d else DaMode.RDA
        oracle, pessimistic = (
            compute_report(run, DaParams(mode, t_lre, t_d, policy)).link.early_bar
            for policy in (FailedCopyPolicy.ORACLE, FailedCopyPolicy.PESSIMISTIC_ZERO)
        )
        assert oracle == summary.early_bar_exact
        assert pessimistic <= summary.early_bar_exact
        assert summary.attempts_bar_da <= summary.attempts_bar_pow - oracle

    def test_real_displacement_resolves_as_reports_do(self):
        """A log deferred by 100 us already carries its displacement: a T_D
        of 100 us means its recorded timestamps, as T_D = 0 does, and any
        other nonzero T_D is refused with ``compute_report``'s error. The
        oracle used to shift such a log a second time (261 of 400 copies
        early at 100 us, 247 at 0) and to accept 200 us."""
        config = desk_config(400, seed=5, full_trace=True)
        run = generate_run(replace(config, deferral_ns=100_000))
        recorded = oracle_attempt_summary(run, 0)
        assert recorded.early_bar_exact == Fraction(247, 400)
        refused = "log already carries a real displacement of 100000 ns"
        with pytest.raises(ValueError, match=refused):
            compute_report(run, DaParams(mode=DaMode.TDD, t_d_ns=200_000))
        for evaluate in (oracle_attempt_summary, oracle_attempt_summary_spec):
            assert evaluate(run, 0, 100_000) == recorded
            with pytest.raises(ValueError, match=refused):
                evaluate(run, 0, 200_000)

    def test_non_duplex_displacement_is_refused_as_reports_refuse_it(self):
        """A displacement needs a duplex log: reports and the oracle refuse
        one on a 3-channel log with ``_resolve``'s one message, where the
        oracle used to give its own. At T_D = 0 the oracle counts the log."""
        ch_c = ChannelId(2, "C")
        copies = {c: copy_from_starts(0, [100_000, 900_000], lost=False) for c in (CH_A, CH_B)}
        copies[ch_c] = copy_from_starts(0, [300_000], lost=False)
        run = make_run(
            [PacketRecord(1, copies)], view=VIEW_FULL_TRACE, channels=(CH_A, CH_B, ch_c)
        )
        assert oracle_attempt_summary(run, 0).early_bar_exact == Fraction(2)
        refused = "^TDD analysis is defined for duplex logs only$"
        with pytest.raises(ValueError, match=refused):
            compute_report(run, DaParams(mode=DaMode.TDD, t_d_ns=100_000))
        with pytest.raises(ValueError, match=refused):
            oracle_attempt_summary(run, 0, 100_000)

    def test_builds_no_packet_records(self, traced_run, monkeypatch):
        def refuse(run):
            raise AssertionError("per-packet records were built")

        monkeypatch.setattr(RunLog, "packets", property(refuse))
        summary = oracle_attempt_summary(traced_run, 50_000, -150_000)
        assert summary.early_bar_exact > 0

    def test_displacement_stays_below_the_period(self, traced_run):
        period = traced_run.meta.period_ns
        oracle_attempt_summary(traced_run, 0, 1 - period)
        for t_d in (period, -period, 2**70):
            with pytest.raises(ValueError, match="smaller than the generation period"):
                oracle_attempt_summary(traced_run, 0, t_d)

    def test_needs_a_trace_on_every_copy(self, traced_run, adapter_run):
        packets = list(traced_run.packets[:3])
        packets[1] = PacketRecord(
            2, {**packets[1].copies, CH_B: replace(packets[1].copies[CH_B], trace=None)}
        )
        partial = RunLog.from_packets(replace(traced_run.meta, n_packets=3), packets)
        for run in (adapter_run, partial):
            for evaluate in (oracle_attempt_summary, oracle_attempt_summary_spec):
                with pytest.raises(TraceRequiredError):
                    evaluate(run, 0)


def _skewed(run: RunLog, epsilon_ns: int, seed: int) -> RunLog:
    """``run`` with each packet's copy on a random channel requested up to
    ``epsilon_ns`` later, and the header allowing that skew."""
    rng = np.random.default_rng(seed)
    n = run.meta.n_packets
    req = run.req.copy()
    req[rng.integers(0, 2, size=n), np.arange(n)] += rng.integers(0, epsilon_ns + 1, size=n)
    return replace(run, req=req, meta=replace(run.meta, request_epsilon_ns=epsilon_ns))


class TestSkewedLinkLatency:
    """Under a virtual T_D the link latency runs from the packet's earliest
    displaced request, also where the header's epsilon lets the requests
    of a packet differ. It used to run from each copy's own request."""

    def test_zero_displacement_is_the_recorded_latency(self, tmp_path, capsys):
        """Requests at 0 on A and 1 us on B, and B's copy arrives first, at
        466 us: at T_D = 0 TDD gave 465 us, RDA 466 us."""
        packet = PacketRecord(1, {
            CH_A: make_success_copy(0, 600_000),
            CH_B: make_success_copy(1_000, 500_000),
        })
        run = make_run([packet])
        run = replace(run, meta=replace(run.meta, request_epsilon_ns=1_000))
        validate_run(run)
        assert tdd_latency(run.packets[0], 0, run.phy_by_channel()) == 466_000
        path = tmp_path / "run.jsonl"
        write_log(run, path)
        for mode in ("rda", "tdd"):
            capsys.readouterr()
            assert main(["analyze", "--log", str(path), "--mode", mode, "--td", "0"]) == 0
            latency = json.loads(capsys.readouterr().out)["link"]["latency"]
            assert latency["mean_us"] == latency["max_us"] == 466.0
        for t_d in (-1_000, -999, 0, 1_000):
            params = DaParams(mode=DaMode.TDD, t_d_ns=t_d)
            assert compute_report(run, params) == compute_report_reference(run, params)

    @pytest.mark.parametrize("full_trace", [True, False], ids=["traced", "adapter"])
    def test_skewed_runs_report_as_the_reference(self, full_trace, lossy_runs):
        run = _skewed(lossy_runs[full_trace], 20_000, seed=3)
        validate_run(run)
        grid = [
            DaParams(mode=DaMode.TDD, t_lre_ns=50_000, t_d_ns=t_d)
            for t_d in (-300_000, -20_001, -1_000, -1, 0, 1_500, 20_000, 250_000)
        ]
        reports = sweep(run, grid)
        assert reports == [compute_report_reference(run, p) for p in grid]
        recorded = compute_report(run, DaParams(mode=DaMode.RDA, t_lre_ns=50_000))
        assert reports[4].link.latency == recorded.link.latency


class TestEndTimeLimit:
    """Ends of transmission below 2^62 ns and virtual displacements below
    2^62 ns keep every shifted time an int64."""

    def _run(self, end_ns: int, period_ns: int = 100 * MS) -> RunLog:
        packets = [
            PacketRecord(i + 1, {
                CH_A: make_success_copy(i * MS, i * MS + 400_000),
                CH_B: make_success_copy(i * MS, i * MS + 500_000),
            })
            for i in range(3)
        ]
        a = replace(packets[1].copies[CH_A], end_ns=end_ns)
        packets[1] = PacketRecord(2, {**packets[1].copies, CH_A: a})
        return make_run(packets, period_ns=period_ns)

    @pytest.mark.parametrize("t_d", [-3 * MS, 3 * MS, 0])
    def test_latest_valid_end_reports_as_the_reference(self, t_d):
        run = self._run(2**62 - 1)
        for mode in (DaMode.TDD, DaMode.RDA):
            params = DaParams(mode=mode, t_lre_ns=50_000, t_d_ns=t_d if mode is DaMode.TDD else 0)
            report = compute_report(run, params)
            assert report == compute_report_reference(run, params)

    def test_latest_valid_attempt_start_summarises_as_the_spec(self):
        """A lost copy whose end is 2^62 - 1, the latest valid one, and
        whose last attempt starts a failure's tail before it: displaced by
        a virtual T_D, the start stays an int64."""
        packets = [
            PacketRecord(i + 1, {
                CH_A: copy_from_starts(i * MS, [i * MS + 100_000], lost=False),
                CH_B: copy_from_starts(i * MS, [i * MS + 200_000], lost=False),
            })
            for i in range(3)
        ]
        b = copy_from_starts(2 * MS, [2 * MS + 100_000, 2**62 - 1 - FAIL_TAIL_NS], lost=True)
        assert b.end_ns == 2**62 - 1
        packets[2] = PacketRecord(3, {**packets[2].copies, CH_B: b})
        run = make_run(packets, view=VIEW_FULL_TRACE)
        validate_run(run)
        for t_d in (-3 * MS, 0, 3 * MS):
            expected = oracle_attempt_summary_spec(run, 50_000, t_d)
            assert oracle_attempt_summary(run, 50_000, t_d) == expected

    def test_displacement_stays_below_2_62_whatever_the_period(self):
        run = self._run(2**62 - 1, period_ns=2**63 - 1)
        compute_report(run, DaParams(mode=DaMode.TDD, t_d_ns=-(2**62 - 1)))
        for t_d in (2**62, -(2**62), 2**63 - 2):
            with pytest.raises(ValueError, match=r"\|T_D\| must be below 2\^62 ns"):
                compute_report(run, DaParams(mode=DaMode.TDD, t_d_ns=t_d))


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
