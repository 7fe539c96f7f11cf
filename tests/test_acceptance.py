"""Acceptance suite.

One test per criterion, each at its stated tolerance, printing a PASS line
on success (run with ``pytest tests/test_acceptance.py -v -s``). Simulated
channels use the desk-scale interference profile from ``helpers``.
"""
import json
import math
import statistics
import time
from fractions import Fraction

import pytest

from prpwifi import (
    DaMode,
    DaParams,
    compute_report,
    generate_run,
)
from prpwifi.da import oracle_saved_attempts, rda_flags, tdd_flags, tdd_latency
from prpwifi.cli import main
from prpwifi.metrics import sweep

from helpers import (
    CH_A,
    CH_B,
    WORKED_E_A,
    WORKED_E_B,
    WORKED_W_A,
    WORKED_W_B,
    desk_config,
    link_outcome,
    virtual_defer,
    worked_example_run,
)

US = 1_000
T_LRE_GRID_US = (0, 100, 500, 1000)
INTERFERER_LEVELS = (1, 2, 4)


@pytest.fixture(scope="module")
def oracle_runs():
    """Three traced duplex runs (10^4 packets; 1, 2, 4 interferers on B)."""
    return {
        level: generate_run(desk_config(10_000, seed=101, interferers_b=level))
        for level in INTERFERER_LEVELS
    }


@pytest.fixture(scope="module")
def validation_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "validation.cfg"
    path.write_text(
        "channels = A,B\n"
        "packets = 100000\n"
        "period = 4ms\n"
        "full_trace = false\n"
        "loss_prob = 0.02\n"
        "payload_airtime = 300us\n"
        "burst_spacing = 400us\n"
        "burst_mean = 3\n"
        "burst_cap = 12\n"
        "gap_mean = 2.8ms\n"
        "gap_cap = 280ms\n"
        "A.interferers = 1\n"
        "B.interferers = 2\n"
    )
    return path


def test_criterion_1_oracle_bounds(oracle_runs):
    """Adapter-view early-termination is a sound per-packet bound on the
    exact (full-trace) outcome, and saved attempts obey the load bound."""
    started = time.monotonic()
    for level, run in oracle_runs.items():
        phy = run.phy_by_channel()
        n = run.meta.n_packets
        for t_lre_us in T_LRE_GRID_US:
            t_lre = t_lre_us * US
            adapter_e = 0
            exact_e = 0
            total_pow = 0
            total_da = 0
            for packet in run.packets:
                flags = rda_flags(packet, t_lre, phy)
                kept = oracle_saved_attempts(packet, t_lre)
                pkt_w = 0
                pkt_kept = 0
                pkt_e = 0
                for c, copy in packet.copies.items():
                    assert 0 <= kept[c] <= copy.attempts
                    if flags.early[c]:
                        # at least one attempt is prevented for sure
                        assert kept[c] <= copy.attempts - 1
                        pkt_e += 1
                        adapter_e += 1
                    if kept[c] < copy.attempts:
                        exact_e += 1
                    pkt_w += copy.attempts
                    pkt_kept += kept[c]
                # packet-exact load bound
                assert pkt_kept <= pkt_w - pkt_e
                total_pow += pkt_w
                total_da += pkt_kept
            assert Fraction(adapter_e, n) <= Fraction(exact_e, n)
            assert Fraction(total_da, n) <= Fraction(total_pow - adapter_e, n)
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"oracle bound suite took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 1 PASS: oracle bounds hold packet-exactly on "
        f"{len(oracle_runs)} runs x {len(T_LRE_GRID_US)} reaction latencies "
        f"({elapsed:.1f}s)"
    )


def test_criterion_2_identities(oracle_runs):
    run = oracle_runs[2]
    for t_lre_us in (0, 100):
        rda = compute_report(run, DaParams(mode=DaMode.RDA, t_lre_ns=t_lre_us * US))
        tdd = compute_report(
            run, DaParams(mode=DaMode.TDD, t_lre_ns=t_lre_us * US, t_d_ns=0)
        )
        assert (tdd.n_packets, tdd.channels, tdd.link) == (rda.n_packets, rda.channels, rda.link)
    pow_report = compute_report(run, DaParams(mode=DaMode.POW))
    assert pow_report.link.load_vs_pow == 1
    assert pow_report.link.load_vs_simplex == 2
    assert pow_report.link.early_bar == 0 and pow_report.link.simplex_bar == 0
    assert virtual_defer(run, 0) is run
    assert virtual_defer(run, 0) == run
    print("ACCEPTANCE 2 PASS: TDD(T_D=0) == RDA, PoW load is exactly (1, 2), "
          "zero virtual displacement is the identity")


def test_criterion_3_monotonicity(oracle_runs):
    for level, run in oracle_runs.items():
        grid = [
            DaParams(mode=DaMode.RDA, t_lre_ns=t) for t in range(0, 1_000_001, 50_000)
        ]
        reports = sweep(run, grid)
        assert len(reports) == 21
        values = [r.link.early_bar for r in reports]
        assert all(a >= b for a, b in zip(values, values[1:])), (
            f"early-termination fraction not monotone for {level} interferers"
        )
    run = oracle_runs[2]
    phy = run.phy_by_channel()
    td_grid = [td * US for td in range(-250, 251, 25)]
    violations = 0
    for packet in run.packets:
        prev_b = prev_a = None
        for t_d in td_grid:
            flags = tdd_flags(packet, t_d, 0, phy)
            if prev_b is not None:
                if flags.early[CH_B] < prev_b or flags.early[CH_A] > prev_a:
                    violations += 1
            prev_b, prev_a = flags.early[CH_B], flags.early[CH_A]
    assert violations == 0
    print("ACCEPTANCE 3 PASS: e(T_LRE) non-increasing on 21-point grids; "
          "per-packet displacement monotonicity has zero violations")


def test_criterion_4_latency_dominance(oracle_runs):
    run = oracle_runs[2]
    phy = run.phy_by_channel()
    td_grid = [td * US for td in range(-250, 251, 50)]
    from helpers import copy_latency

    for packet in run.packets:
        outcome = link_outcome(packet, phy)
        if outcome.latency_ns is not None:
            # PRP pairing never underperforms any physical channel
            for c, copy in packet.copies.items():
                if not copy.lost:
                    assert outcome.latency_ns <= copy_latency(copy, phy[c])
        for t_d in td_grid:
            deferred = tdd_latency(packet, t_d, phy)
            assert (deferred is None) == (outcome.latency_ns is None)
            if deferred is not None:
                assert deferred >= outcome.latency_ns
    print("ACCEPTANCE 4 PASS: deferred latency dominates the plain link "
          "latency for every delivered packet at every swept displacement")


def test_criterion_5_virtual_vs_real_deferral(validation_config, capsys):
    started = time.monotonic()
    rc = main(
        [
            "validate-deferral",
            str(validation_config),
            "--td-list=-250us,-100us,-50us,50us,100us,250us",
            "--seeds",
            "201,202,203,204,205",
            "--tol-e",
            "0.05",
            "--tol-latency",
            "0.05",
        ]
    )
    elapsed = time.monotonic() - started
    table = capsys.readouterr().out
    assert rc == 0, f"validation failed:\n{table}"
    assert elapsed < 120, f"validation took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 PASS: virtual deferral matches real deferral within "
          f"tolerance for 6 displacements x 5 seeds ({elapsed:.1f}s)\n{table}")


def test_criterion_6_interference_trend(oracle_runs):
    seeds = (101, 102, 103)
    ordering_ok = 0
    simplex_ok = 0
    for seed in seeds:
        e_values = []
        z_top = None
        for level in INTERFERER_LEVELS:
            if seed == 101:
                run = oracle_runs[level]
            else:
                run = generate_run(
                    desk_config(10_000, seed=seed, interferers_b=level,
                                full_trace=False)
                )
            # precondition: the clean channel succeeds first try > 90%
            first_attempt = statistics.mean(
                p.copies[CH_A].attempts == 1 for p in run.packets
            )
            assert first_attempt > 0.9
            report = compute_report(run, DaParams(mode=DaMode.RDA, t_lre_ns=0))
            e_values.append(report.link.early_bar)
            if level == max(INTERFERER_LEVELS):
                z_top = report.link.simplex_bar
        if e_values[0] < e_values[1] < e_values[2]:
            ordering_ok += 1
        if z_top > Fraction(1, 2):
            simplex_ok += 1
    assert ordering_ok >= 2, f"strict ordering held for {ordering_ok}/3 seeds"
    assert simplex_ok >= 2, f"simplex fraction > 50% held for {simplex_ok}/3 seeds"
    print(f"ACCEPTANCE 6 PASS: early termination grows strictly with "
          f"interference ({ordering_ok}/3 seeds) and more than half of the "
          f"packets go simplex at the highest level ({simplex_ok}/3 seeds)")


def truncated_geometric(p, limit):
    pmf = {k: (p ** (k - 1)) * (1 - p) for k in range(1, limit)}
    pmf[limit] = p ** (limit - 1)
    mean = sum(k * q for k, q in pmf.items())
    var = sum(k * k * q for k, q in pmf.items()) - mean * mean
    return mean, var


def test_criterion_7_mac_sanity():
    n = 100_000
    for p in (0.1, 0.3):
        run = generate_run(
            desk_config(n, seed=55, interferers_b=0, loss_prob=p, full_trace=False)
        )
        limit = run.phy_by_channel()[CH_A].retry_limit
        mean, var = truncated_geometric(p, limit)
        tolerance = 3 * math.sqrt(var / n)
        for c in run.channels:
            observed = sum(pk.copies[c].attempts for pk in run.packets) / n
            assert abs(observed - mean) <= tolerance, (
                f"p={p} channel {c.label}: {observed:.5f} vs {mean:.5f} "
                f"(3SE={tolerance:.5f})"
            )
    print("ACCEPTANCE 7 PASS: attempt counts match the truncated-geometric "
          "closed form within 3 standard errors at p=0.1 and p=0.3")


def test_criterion_8_determinism(tmp_path, capsys):
    config = tmp_path / "det.cfg"
    config.write_text(
        "packets = 2000\nperiod = 4ms\nseed = 9\nloss_prob = 0.02\n"
        "payload_airtime = 300us\nburst_spacing = 400us\nburst_mean = 3\n"
        "burst_cap = 12\ngap_mean = 2.8ms\ngap_cap = 280ms\nB.interferers = 2\n"
    )
    logs = []
    reports = []
    for tag in ("first", "second"):
        log = tmp_path / f"{tag}.jsonl"
        report = tmp_path / f"{tag}.json"
        assert main(["simulate", str(config), "--out", str(log)]) == 0
        assert (
            main(
                ["analyze", "--log", str(log), "--mode", "rda", "--tlre", "100us",
                 "--out", str(report)]
            )
            == 0
        )
        logs.append(log.read_bytes())
        reports.append(report.read_bytes())
    capsys.readouterr()
    assert logs[0] == logs[1]
    assert reports[0] == reports[1]
    print("ACCEPTANCE 8 PASS: simulate and simulate->analyze are byte-identical "
          "across reruns with the same config and seed")


def test_criterion_9_metrics_micro_oracle():
    # independent brute-force recomputation from the raw flag/attempt patterns
    n = 4
    e_link = Fraction(sum(WORKED_E_A) + sum(WORKED_E_B), n)
    z_link = Fraction(
        sum(
            (ea and wa == 1) or (eb and wb == 1)
            for ea, wa, eb, wb in zip(WORKED_E_A, WORKED_W_A, WORKED_E_B, WORKED_W_B)
        ),
        n,
    )
    w_pow = Fraction(sum(WORKED_W_A) + sum(WORKED_W_B), n)
    eta_check = 1 / (w_pow - e_link)
    theta_hat = 1 - e_link / w_pow
    big_theta_hat = 2 * theta_hat

    assert e_link == Fraction(3, 4)
    assert z_link == Fraction(1, 2)
    assert w_pow == 3
    assert eta_check == Fraction(4, 9)
    assert math.isclose(float(eta_check), 0.4444, abs_tol=5e-5)
    assert theta_hat == Fraction(3, 4)
    assert big_theta_hat == Fraction(3, 2)

    report = compute_report(worked_example_run(), DaParams(mode=DaMode.RDA))
    assert report.link.early_bar == e_link
    assert report.link.simplex_bar == z_link
    assert report.link.attempts_bar_pow == w_pow
    assert report.link.efficiency_floor == eta_check
    assert report.link.load_vs_pow == theta_hat
    assert report.link.load_vs_simplex == big_theta_hat
    print("ACCEPTANCE 9 PASS: worked example reproduces e=0.75, z=0.5, "
          "w_pow=3.0, eta_check=4/9, theta_hat=0.75, Theta_hat=1.5 exactly")
