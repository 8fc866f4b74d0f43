"""Command-line front end: run, verify, sweep, print-config.

Exit codes: 0 ok, 1 check failure, 2 solver failure, 3 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .analysis import (
    check_energy_estimate,
    check_entropy_dissipation,
    check_evi_entropy,
    check_moment_bound,
    check_weak_form_step,
    tau_refinement_study,
    validate_refinement_settings,
)
from .errors import FracfilmError
from .fields import cosine_bump_test_function
from .jko import run as jko_run
from .scenario import (
    Scenario,
    ScenarioError,
    format_scenario,
    load_run_directory,
    load_scenario,
    validate_checks,
    write_run_directory,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SOLVER_FAILED = 2
EXIT_CONFIG_ERROR = 3


def _default_test_function(sc: Scenario):
    # gentle space-time bump: curvature small enough that the weak-form
    # discretization floor stays under the absolute slack at fine tau
    r_outer = 0.45 * sc.box_length
    r_inner = 0.3 * sc.box_length
    return cosine_bump_test_function(
        dim=sc.dimension, amplitude=0.1, freq=2.0, r_inner=r_inner, r_outer=r_outer
    )


def run_checks(sc: Scenario, traj, checks):
    validate_checks(checks, sc.dimension)
    reports = []
    for name in checks:
        if name == "energy_estimate":
            reports.append(check_energy_estimate(traj))
        elif name == "moment_bound":
            reports.append(check_moment_bound(traj))
        elif name == "entropy_dissipation":
            reports.append(check_entropy_dissipation(traj))
        elif name == "weak_form":
            reports.append(check_weak_form_step(traj, _default_test_function(sc)))
        elif name == "evi_entropy":
            final = traj.steps[-1].density if traj.steps else traj.initial
            reports.append(check_evi_entropy(traj.initial, final))
    return reports


def cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    out_arg = args.out or sc.output_dir
    if not out_arg:
        print("config error: no output directory (--out flag or output.dir key)", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    traj = jko_run(sc.initial_density(), sc.jko_config(), sc.num_steps)
    out = Path(out_arg)
    write_run_directory(out, sc, traj)
    if traj.status != "ok":
        print(f"solver failure: {traj.status}", file=sys.stderr)
        return EXIT_SOLVER_FAILED
    print(f"run complete: {traj.num_steps} steps -> {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    sc, traj = load_run_directory(args.run_dir)
    checks = list(sc.checks)
    if args.checks is not None:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not checks:
            raise ScenarioError(f"--checks {args.checks!r} names no check")
    reports = run_checks(sc, traj, checks)
    run_dir = Path(args.run_dir)
    all_passed = True
    for rep in reports:
        with open(run_dir / f"check_{rep.name}.json", "w") as fh:
            fh.write(rep.to_json())
            fh.write("\n")
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.name}: max violation {rep.max_violation:.3e} (tolerance {rep.tolerance:.3e})")
        all_passed &= rep.passed
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _sweep_one(payload):
    sc, out_dir = payload
    u0 = sc.initial_density()
    traj = jko_run(u0, sc.jko_config(), sc.num_steps)
    write_run_directory(out_dir, sc, traj)
    return traj.status


def _float_list(text: str, what: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ScenarioError(f"bad {what} list {text!r}") from None


def cmd_sweep(args) -> int:
    if args.threads < 1:
        raise ScenarioError(f"--threads must be at least 1, got {args.threads}")
    sc = load_scenario(args.scenario)
    out = Path(args.out)
    if args.tau_list:
        taus = _float_list(args.tau_list, "tau")
        horizon = args.horizon if args.horizon else sc.num_steps * sc.tau
        try:
            validate_refinement_settings(taus, horizon, args.r, sc.s)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        u0 = sc.initial_density()
        out.mkdir(parents=True, exist_ok=True)
        report = tau_refinement_study(
            u0, sc.jko_config(), tau_list=taus, horizon=horizon, r=args.r
        )
        with open(out / "tau_refinement.json", "w") as fh:
            json.dump(asdict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out / "tau_refinement.csv", "w") as fh:
            fh.write("tau_coarse,tau_fine,l2h_gap,sup_gap,rate\n")
            for i in range(len(report.l2h_gaps)):
                rate = report.rates[i - 1] if i >= 1 else float("nan")
                fh.write(
                    f"{report.taus[i]},{report.taus[i+1]},{report.l2h_gaps[i]!r},"
                    f"{report.sup_gaps[i]!r},{rate!r}\n"
                )
        print(f"tau sweep: gaps {report.l2h_gaps} cauchy_monotone={report.cauchy_monotone}")
        return EXIT_OK
    if args.s_list:
        # every order is checked before the first run starts
        subs = []
        for sv in _float_list(args.s_list, "s"):
            sub = replace(sc, s=sv, name=f"{sc.name}_s{sv:g}", raw_text="")
            try:
                sub.jko_config()
            except ValueError as exc:
                raise ScenarioError(str(exc)) from exc
            subs.append(sub)
        payloads = [(sub, out / f"s_{sub.s:g}") for sub in subs]
        # the pool starts all its workers at the first submit: no more than runs
        workers = min(args.threads, len(payloads))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                statuses = list(pool.map(_sweep_one, payloads))
        else:
            statuses = [_sweep_one(p) for p in payloads]
        bad = [s for s in statuses if s != "ok"]
        for sub, status in zip(subs, statuses):
            print(f"s = {sub.s:g}: {status}")
        return EXIT_OK if not bad else EXIT_SOLVER_FAILED
    raise ScenarioError("sweep needs --tau-list or --s-list")


def cmd_print_config(args) -> int:
    sc = load_scenario(args.scenario)
    sc.initial_density()  # refuse what `run` refuses before echoing it
    sys.stdout.write(format_scenario(sc))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracfilm",
        description="Spectral minimizing-movement solver and verification suite "
        "for the fractional thin-film equation on a periodic box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write a run directory")
    p_run.add_argument("--scenario", required=True, help="scenario file path")
    p_run.add_argument("--out", default="", help="run directory (default: scenario's output.dir)")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run analysis checks on a run directory")
    p_ver.add_argument("run_dir", help="run directory produced by `run`")
    p_ver.add_argument("--checks", default=None, help="comma list (default: scenario's checks)")
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="tau-refinement study or s sweep")
    p_sw.add_argument("--scenario", required=True)
    p_sw.add_argument("--out", required=True)
    p_sw.add_argument("--tau-list", default="", help="comma list, strictly decreasing")
    p_sw.add_argument("--s-list", default="", help="comma list of equation orders")
    p_sw.add_argument("--horizon", type=float, default=0.0, help="time horizon for tau sweeps")
    p_sw.add_argument("--r", type=float, default=0.5, help="comparison order r < s")
    p_sw.add_argument("--threads", type=int, default=1,
                      help="parallel scenario workers (at least 1; at most one per --s-list entry)")
    p_sw.set_defaults(func=cmd_sweep)

    p_pc = sub.add_parser("print-config", help="parse and echo a normalized scenario")
    p_pc.add_argument("--scenario", required=True)
    p_pc.set_defaults(func=cmd_print_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FracfilmError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILED


if __name__ == "__main__":
    sys.exit(main())
