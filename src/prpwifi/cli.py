"""Command line entry point.

Subcommands:
    simulate           generate a run log from a config file
    analyze            evaluate one metrics report from a log
    sweep              reaction-latency or displacement sweeps as CSV
    validate-deferral  compare virtual against real request displacement

Exit codes: 0 success, 1 analysis/validation failure, 2 usage or config
error. All outputs are deterministic for a given config and seed; files
are written atomically (temp file + rename).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from fractions import Fraction
from io import StringIO

from .config import ConfigError, load_config
from .da import (
    DEFAULT_VIRTUAL_DEFER_LIMIT_NS,
    DaMode,
    DaParams,
    FailedCopyPolicy,
    TraceRequiredError,
)
from .metrics import (
    compute_report,
    report_to_dict,
    sweep,
    write_sweep_csv,
)
from .sim import Deferral, SimConfigError, generate_run
from .trace import (
    InvalidRunError,
    LogFormatError,
    export_csv,
    read_log,
    write_atomic,
    write_log,
)
from .units import ns_to_us, parse_duration_ns


def _emit(text: str, out: str | None) -> None:
    if out:
        write_atomic(out, lambda sink: sink.write(text))
    else:
        sys.stdout.write(text)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.interferers is not None:
        second = config.channels[1]
        config = replace(
            config,
            channels=(
                config.channels[0],
                replace(
                    second,
                    interference=replace(
                        second.interference, interferer_count=args.interferers
                    ),
                ),
            ),
        )
    if args.td is not None:
        offset = parse_duration_ns(args.td)
        config = replace(
            config, deferral=Deferral(offset_ns=offset) if offset else None
        )
    started = time.perf_counter()
    run = generate_run(config)
    write_log(run, args.out)
    if args.csv:
        write_atomic(args.csv, lambda sink: export_csv(run, sink))
    wall = time.perf_counter() - started
    losses = " ".join(
        f"{c.label}={sum(p.copies[c].lost for p in run.packets)}"
        for c in run.channels
    )
    print(f"N={run.meta.n_packets} losses {losses} wall={wall:.2f}s")
    return 0


def _da_params(args: argparse.Namespace, mode: DaMode) -> DaParams:
    if args.lost_attempts == "max":
        lost_attempts = None
    else:
        lost_attempts = int(args.lost_attempts)
    return DaParams(
        mode=mode,
        t_lre_ns=parse_duration_ns(args.tlre),
        t_d_ns=parse_duration_ns(args.td),
        failed_copy_policy=FailedCopyPolicy(args.failed_copy_policy),
        lost_copy_attempts=lost_attempts,
    )


def _read_log_arg(args: argparse.Namespace):
    epsilon = parse_duration_ns(args.epsilon) if args.epsilon is not None else None
    return read_log(args.log, request_epsilon_ns=epsilon)


def cmd_analyze(args: argparse.Namespace) -> int:
    run = _read_log_arg(args)
    report = compute_report(run, _da_params(args, DaMode(args.mode)))
    _emit(json.dumps(report_to_dict(report), indent=2) + "\n", args.out)
    return 0


def _grid_values(spec: str, step_ns: int) -> list[int]:
    if ":" not in spec:
        raise ConfigError(f"--range must be 'start:stop', got {spec!r}")
    start_text, stop_text = spec.split(":", 1)
    start = parse_duration_ns(start_text)
    stop = parse_duration_ns(stop_text)
    if step_ns <= 0:
        raise ConfigError("--step must be positive")
    if stop < start:
        raise ConfigError("--range stop must be >= start")
    return list(range(start, stop + 1, step_ns))


def cmd_sweep(args: argparse.Namespace) -> int:
    run = _read_log_arg(args)
    values = _grid_values(args.range, parse_duration_ns(args.step))
    t_lre = parse_duration_ns(args.tlre)
    if args.param == "tlre":
        grid = [DaParams(mode=DaMode.RDA, t_lre_ns=v) for v in values]
    else:
        grid = [DaParams(mode=DaMode.TDD, t_lre_ns=t_lre, t_d_ns=v) for v in values]
    reports = sweep(run, grid)
    buffer = StringIO()
    write_sweep_csv(reports, buffer)
    _emit(buffer.getvalue(), args.out)
    return 0


def _mean_fraction(values: list[Fraction]) -> Fraction:
    return sum(values, Fraction(0)) / len(values)


def cmd_validate_deferral(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    td_values = [parse_duration_ns(part) for part in args.td_list.split(",")]
    seeds = [int(part) for part in args.seeds.split(",")]
    if not td_values or not seeds:
        raise ConfigError("--td-list and --seeds must not be empty")
    if not args.force:
        over = [td for td in td_values if abs(td) > DEFAULT_VIRTUAL_DEFER_LIMIT_NS]
        if over:
            raise ConfigError(
                f"displacements beyond the {DEFAULT_VIRTUAL_DEFER_LIMIT_NS} ns "
                "stationarity guard; pass --force to run anyway"
            )
    t_lre = parse_duration_ns(args.tlre)

    # adapter-view runs: the comparison only uses final-attempt data
    base_config = replace(config, deferral=None, emit_full_trace=False)
    virt_e: dict[int, list[Fraction]] = {td: [] for td in td_values}
    virt_d: dict[int, list[float]] = {td: [] for td in td_values}
    real_e: dict[int, list[Fraction]] = {td: [] for td in td_values}
    real_d: dict[int, list[float]] = {td: [] for td in td_values}
    for seed in seeds:
        base = generate_run(replace(base_config, seed=seed))
        for td in td_values:
            virtual = compute_report(
                base, DaParams(mode=DaMode.TDD, t_lre_ns=t_lre, t_d_ns=td)
            )
            deferred = replace(base_config, seed=seed, deferral=Deferral(offset_ns=td))
            real = compute_report(
                generate_run(deferred), DaParams(mode=DaMode.TDD, t_lre_ns=t_lre)
            )
            virt_e[td].append(virtual.link.early_bar)
            real_e[td].append(real.link.early_bar)
            if virtual.link.latency is None or real.link.latency is None:
                raise InvalidRunError("no delivered packets; cannot compare latencies")
            virt_d[td].append(virtual.link.latency.mean_ns)
            real_d[td].append(real.link.latency.mean_ns)

    failures = 0
    print(
        f"{'T_D_us':>8} {'e_virt':>8} {'e_real':>8} {'|de|':>8} "
        f"{'d_virt_us':>10} {'d_real_us':>10} {'rel_dd':>8}  result"
    )
    for td in td_values:
        ev = _mean_fraction(virt_e[td])
        er = _mean_fraction(real_e[td])
        de = abs(float(ev - er))
        dv = sum(virt_d[td]) / len(virt_d[td])
        dr = sum(real_d[td]) / len(real_d[td])
        rel = abs(dv - dr) / dr if dr else float("inf")
        ok = de <= args.tol_e and rel <= args.tol_latency
        failures += not ok
        print(
            f"{ns_to_us(td):>8.1f} {float(ev):>8.4f} {float(er):>8.4f} {de:>8.4f} "
            f"{ns_to_us(dv):>10.1f} {ns_to_us(dr):>10.1f} {rel:>8.4f}  "
            f"{'pass' if ok else 'FAIL'}"
        )
    if failures:
        print(f"validation FAILED for {failures} of {len(td_values)} displacements")
        return 1
    print(f"validation passed for all {len(td_values)} displacements")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prpwifi",
        description=(
            "Simulate a redundant duplex Wi-Fi link and analyze duplication-"
            "avoidance performance from its transmission logs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a run log from a config file")
    sim.add_argument("config", help="key=value config file")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--out", required=True, help="output log path (JSON lines)")
    sim.add_argument(
        "--interferers",
        type=int,
        help="override the interferer count on the second channel",
    )
    sim.add_argument(
        "--td",
        help="override the request displacement (signed duration, e.g. 100us)",
    )
    sim.add_argument("--csv", help="also write a flat per-copy CSV export here")
    sim.set_defaults(func=cmd_simulate)

    def analysis_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tlre", default="0", help="reaction latency (e.g. 50us)")
        p.add_argument(
            "--td",
            default="0",
            help="request displacement for tdd mode (use --td=-100us for negatives)",
        )
        p.add_argument(
            "--failed-copy-policy",
            choices=[policy.value for policy in FailedCopyPolicy],
            default=FailedCopyPolicy.PESSIMISTIC_ZERO.value,
        )
        p.add_argument(
            "--lost-attempts",
            default="max",
            help="attempt charge for lost copies: 'max' (measured) or an integer",
        )
        p.add_argument(
            "--epsilon",
            help="allowed request skew when validating imported logs",
        )

    ana = sub.add_parser("analyze", help="compute a metrics report from a log")
    ana.add_argument("--log", required=True)
    ana.add_argument("--mode", choices=[m.value for m in DaMode], required=True)
    analysis_flags(ana)
    ana.add_argument("--out", help="write the JSON report here instead of stdout")
    ana.set_defaults(func=cmd_analyze)

    sw = sub.add_parser("sweep", help="evaluate a parameter grid as CSV")
    sw.add_argument("--log", required=True)
    sw.add_argument("--param", choices=["tlre", "td"], required=True)
    sw.add_argument("--range", required=True, help="start:stop (use = for negatives)")
    sw.add_argument("--step", required=True, help="grid step (e.g. 50us)")
    sw.add_argument("--tlre", default="0", help="fixed reaction latency for td sweeps")
    sw.add_argument(
        "--epsilon", help="allowed request skew when validating imported logs"
    )
    sw.add_argument("--out", help="write the CSV here instead of stdout")
    sw.set_defaults(func=cmd_sweep)

    vd = sub.add_parser(
        "validate-deferral",
        help="check that virtual displacement reproduces real displacement",
    )
    vd.add_argument("config", help="key=value config file (displacement ignored)")
    vd.add_argument(
        "--td-list",
        required=True,
        help="comma-separated signed displacements (use --td-list=-100us,100us)",
    )
    vd.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    vd.add_argument("--tlre", default="0")
    vd.add_argument(
        "--tol-e",
        type=float,
        default=0.05,
        help="max absolute difference of the early-termination fraction",
    )
    vd.add_argument(
        "--tol-latency",
        type=float,
        default=0.05,
        help="max relative difference of the mean link latency",
    )
    vd.add_argument("--force", action="store_true", help="skip the displacement guard")
    vd.set_defaults(func=cmd_validate_deferral)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        SimConfigError,
        LogFormatError,
        InvalidRunError,
        TraceRequiredError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
