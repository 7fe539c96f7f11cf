"""Command line entry point.

Subcommands:
    simulate           generate a run log from a config file
    analyze            evaluate one metrics report from a log
    sweep              reaction-latency or displacement sweeps as CSV
    validate-deferral  compare virtual against real request displacement

Exit codes: 0 success, 1 ``validate-deferral`` found a displacement
outside its tolerance, 2 any error (usage, config, log, or an analysis the
log cannot support). All outputs are deterministic for a given config and
seed; files are written atomically (temp file + rename).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from io import StringIO

from .config import ConfigError, load_config
from .da import DEFAULT_VIRTUAL_DEFER_LIMIT_NS, DaMode, DaParams, FailedCopyPolicy
from .metrics import (
    compute_report,
    report_to_dict,
    sweep,
    write_sweep_csv,
)
from .sim import RunFamily, generate_run
from .trace import InvalidRunError, export_csv, read_log, write_atomic, write_log
from .units import parse_duration_ns


def _flag(flag: str, value, parse=parse_duration_ns):
    """``parse(value)``, a flag's value parsed or checked; a bad value is
    reported with the flag."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _non_negative(text: str) -> int:
    value = parse_duration_ns(text)
    if value < 0:
        raise ValueError(f"duration {text!r} is negative")
    return value


def _attempt_charge(text: str) -> int | None:
    if text == "max":
        return None
    value = int(text)
    if value < 1:
        raise ValueError(f"charge {text!r} must be >= 1")
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        write_atomic(out, lambda sink: sink.write(text))
    else:
        sys.stdout.write(text)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.td is not None:
        config = replace(config, deferral_ns=_flag("--td", args.td))
    started = time.perf_counter()
    run = generate_run(config)
    write_log(run, args.out)
    if args.csv:
        write_atomic(args.csv, lambda sink: export_csv(run, sink))
    losses = " ".join(
        f"{c.label}={k}" for c, k in zip(run.channels, run.lost.sum(axis=1).tolist())
    )
    print(f"N={run.meta.n_packets} losses {losses}")
    print(f"wall={time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0


def _da_params(args: argparse.Namespace, mode: DaMode) -> DaParams:
    params = DaParams(
        mode=mode,
        t_lre_ns=_flag("--tlre", args.tlre, _non_negative),
        t_d_ns=_flag("--td", args.td),
        failed_copy_policy=FailedCopyPolicy(args.failed_copy_policy),
        lost_copy_attempts=_flag("--lost-attempts", args.lost_attempts, _attempt_charge),
    )
    # the other flags are checked as they are parsed: what validation can
    # still refuse is a displacement outside tdd mode
    _flag("--td", params, DaParams.validate)
    return params


def cmd_analyze(args: argparse.Namespace) -> int:
    run = read_log(args.log)
    report = compute_report(run, _da_params(args, DaMode(args.mode)))
    _emit(json.dumps(report_to_dict(report), indent=2) + "\n", args.out)
    return 0


def _grid_values(spec: str, step_ns: int) -> list[int]:
    if ":" not in spec:
        raise ConfigError(f"--range must be 'start:stop', got {spec!r}")
    start_text, stop_text = spec.split(":", 1)
    start = _flag("--range", start_text)
    stop = _flag("--range", stop_text)
    if step_ns <= 0:
        raise ConfigError("--step must be positive")
    if stop < start:
        raise ConfigError("--range stop must be >= start")
    return list(range(start, stop + 1, step_ns))


def cmd_sweep(args: argparse.Namespace) -> int:
    run = read_log(args.log)
    values = _grid_values(args.range, _flag("--step", args.step))
    if args.param == "tlre":
        if args.tlre is not None:
            raise ConfigError("--tlre: a fixed reaction latency applies to --param td only")
        grid = [DaParams(mode=DaMode.RDA, t_lre_ns=v) for v in values]
    else:
        t_lre = _flag("--tlre", "0" if args.tlre is None else args.tlre, _non_negative)
        grid = [DaParams(mode=DaMode.TDD, t_lre_ns=t_lre, t_d_ns=v) for v in values]
    reports = sweep(run, grid)
    buffer = StringIO()
    write_sweep_csv(reports, buffer)
    _emit(buffer.getvalue(), args.out)
    return 0


def _list_arg(flag: str, text: str, parse) -> list:
    """The parsed entries of a comma-separated flag value."""
    values = []
    for part in text.split(","):
        try:
            values.append(parse(part))
        except ValueError:
            raise ConfigError(f"{flag}: invalid entry {part!r} in {text!r}") from None
    return values


def cmd_validate_deferral(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    td_values = _list_arg("--td-list", args.td_list, parse_duration_ns)
    seeds = _list_arg("--seeds", args.seeds, int)
    if not args.force:
        over = [td for td in td_values if abs(td) > DEFAULT_VIRTUAL_DEFER_LIMIT_NS]
        if over:
            raise ConfigError(
                f"displacements beyond the {DEFAULT_VIRTUAL_DEFER_LIMIT_NS} ns "
                "stationarity guard; pass --force to run anyway"
            )
    t_lre = _flag("--tlre", args.tlre, _non_negative)

    # adapter-view runs: the comparison only uses final-attempt data
    base_config = replace(config, deferral_ns=0, emit_full_trace=False)
    # per displacement, the (e_virt, e_real, d_virt, d_real) of each seed
    results: list[list[tuple]] = [[] for _ in td_values]
    for seed in seeds:
        seed_config = replace(base_config, seed=seed)
        # each channel's medium is built once for the seed's runs, and the
        # undeferred channel of a deferred run is the base run's
        family = RunFamily(seed_config, td_values)
        base = generate_run(seed_config, family)
        virtual = [
            compute_report(base, DaParams(mode=DaMode.TDD, t_lre_ns=t_lre, t_d_ns=td))
            for td in td_values
        ]
        # the runs that defer the channel with the most interferers come
        # first, so that its medium, the largest, is dropped soonest
        counts = [setup.interference.interferer_count for setup in seed_config.channels]
        busier = 1 if counts[1] > counts[0] else -1  # the sign of a T_D that defers it
        for i in sorted(range(len(td_values)), key=lambda i: td_values[i] * busier < 0):
            real = compute_report(
                generate_run(replace(seed_config, deferral_ns=td_values[i]), family),
                DaParams(mode=DaMode.TDD, t_lre_ns=t_lre),
            )
            if virtual[i].link.latency is None or real.link.latency is None:
                raise InvalidRunError("no delivered packets; cannot compare latencies")
            results[i].append(
                (
                    virtual[i].link.early_bar,
                    real.link.early_bar,
                    virtual[i].link.latency.mean_ns,
                    real.link.latency.mean_ns,
                )
            )

    failures = 0
    print(
        f"{'T_D_us':>8} {'e_virt':>8} {'e_real':>8} {'|de|':>8} "
        f"{'d_virt_us':>10} {'d_real_us':>10} {'rel_dd':>8}  result"
    )
    for td, rows in zip(td_values, results):
        ev, er, dv, dr = (sum(column) / len(rows) for column in zip(*rows))
        de = abs(float(ev - er))
        rel = abs(dv - dr) / dr if dr else float("inf")
        ok = de <= args.tol_e and rel <= args.tol_latency
        failures += not ok
        print(
            f"{td / 1000:>8.1f} {float(ev):>8.4f} {float(er):>8.4f} {de:>8.4f} "
            f"{dv / 1000:>10.1f} {dr / 1000:>10.1f} {rel:>8.4f}  "
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
        "--td",
        help="override the request displacement (signed duration, e.g. 100us)",
    )
    sim.add_argument("--csv", help="also write a flat per-copy CSV export here")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="compute a metrics report from a log")
    ana.add_argument("--log", required=True)
    ana.add_argument("--mode", choices=[m.value for m in DaMode], required=True)
    ana.add_argument("--tlre", default="0", help="reaction latency (e.g. 50us)")
    ana.add_argument(
        "--td",
        default="0",
        help="request displacement, --mode tdd only (use --td=-100us for negatives)",
    )
    ana.add_argument(
        "--failed-copy-policy",
        choices=[policy.value for policy in FailedCopyPolicy],
        default=FailedCopyPolicy.PESSIMISTIC_ZERO.value,
    )
    ana.add_argument(
        "--lost-attempts",
        default="max",
        help="attempt charge for lost copies: 'max' (measured) or an integer",
    )
    ana.add_argument("--out", help="write the JSON report here instead of stdout")
    ana.set_defaults(func=cmd_analyze)

    sw = sub.add_parser("sweep", help="evaluate a parameter grid as CSV")
    sw.add_argument("--log", required=True)
    sw.add_argument("--param", choices=["tlre", "td"], required=True)
    sw.add_argument("--range", required=True, help="start:stop (use = for negatives)")
    sw.add_argument("--step", required=True, help="grid step (e.g. 50us)")
    sw.add_argument("--tlre", help="fixed reaction latency, --param td only (default 0)")
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
    except (ValueError, OSError) as exc:  # every error of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
