"""Command-line front end: run, verify, sweep, print-config.

Exit codes: 0 ok, 1 check failure, 2 solver failure, 3 usage/config error.
"""

from __future__ import annotations

import argparse
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
from .jko import run as jko_run
from .scenario import (
    KNOWN_CHECKS,
    ScenarioError,
    format_scenario,
    load_run_directory,
    load_scenario,
    validate_checks,
    write_json,
    write_run_directory,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SOLVER_FAILED = 2
EXIT_CONFIG_ERROR = 3


def run_checks(traj, checks):
    validate_checks(checks, traj.config.grid.dim)
    reports = []
    for name in checks:
        if name == "energy_estimate":
            reports.append(check_energy_estimate(traj))
        elif name == "moment_bound":
            reports.append(check_moment_bound(traj))
        elif name == "entropy_dissipation":
            reports.append(check_entropy_dissipation(traj))
        elif name == "weak_form":
            reports.append(check_weak_form_step(traj))
        elif name == "evi_entropy":
            final = traj.steps[-1].density if traj.steps else traj.initial
            reports.append(check_evi_entropy(traj.initial, final))
    return reports


def _make_output_dirs(*dirs):
    """Create the output directories before any solve, so that a path that
    cannot be one is a config error found before the compute."""
    for d in dirs:
        try:
            d.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ScenarioError(f"cannot create output directory {d}: {exc.strerror}") from None


def cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    out_arg = args.out or sc.output_dir
    if not out_arg:
        print("config error: no output directory (--out flag or output.dir key)", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    u0 = sc.initial_density()
    out = Path(out_arg)
    _make_output_dirs(out)
    traj = jko_run(u0, sc.config, sc.num_steps)
    write_run_directory(out, sc, traj)
    if traj.status != "ok":
        print(f"solver failure: {traj.status}", file=sys.stderr)
        return EXIT_SOLVER_FAILED
    print(f"run complete: {traj.num_steps} steps -> {out}")
    return EXIT_OK


def _drop_verdicts(run_dir: Path):
    """Remove an earlier verify's check files from a run directory that
    verify refuses, so that no stale verdict survives the refusal."""
    if (run_dir / "manifest.json").is_file():
        for name in KNOWN_CHECKS:
            (run_dir / f"check_{name}.json").unlink(missing_ok=True)


def cmd_verify(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        sc, traj = load_run_directory(run_dir)
    except ScenarioError:
        _drop_verdicts(run_dir)
        raise
    if traj.status != "ok":  # a failed run is not judged
        _drop_verdicts(run_dir)
        print(f"solver failure: {traj.status}", file=sys.stderr)
        return EXIT_SOLVER_FAILED
    checks = list(sc.checks)
    if args.checks is not None:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not checks:
            raise ScenarioError(f"--checks {args.checks!r} names no check")
    reports = run_checks(traj, checks)
    all_passed = True
    for rep in reports:
        write_json(run_dir / f"check_{rep.name}.json", rep.to_dict())
        status = "PASS" if rep.passed else "FAIL"
        if rep.max_violation is None:
            print(f"{status} {rep.name}: cannot judge: {rep.extra['reason']}")
        else:
            print(f"{status} {rep.name}: max violation {rep.max_violation:.3e} "
                  f"(tolerance {rep.tolerance:.3e})")
        all_passed &= rep.passed
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _float_list(text: str, what: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ScenarioError(f"bad {what} list {text!r}") from None


def cmd_sweep(args) -> int:
    if args.s_list is not None and (args.horizon is not None or args.r is not None):
        raise ScenarioError("--horizon and --r apply to --tau-list sweeps only")
    sc = load_scenario(args.scenario)
    out = Path(args.out)
    if args.tau_list is not None:
        taus = _float_list(args.tau_list, "tau")
        horizon = sc.num_steps * sc.config.tau if args.horizon is None else args.horizon
        r = 0.5 if args.r is None else args.r
        try:
            validate_refinement_settings(taus, horizon, r, sc.config.s)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        u0 = sc.initial_density()
        _make_output_dirs(out)
        report = tau_refinement_study(u0, sc.config, tau_list=taus, horizon=horizon, r=r)
        write_json(out / "tau_refinement.json", asdict(report))
        with open(out / "tau_refinement.csv", "w") as fh:
            fh.write("tau_coarse,tau_fine,l2h_gap,sup_gap,rate\n")
            for i in range(len(report.l2h_gaps)):
                rate = report.rates[i - 1] if i >= 1 else None
                rate = float("nan") if rate is None else rate
                fh.write(
                    f"{report.taus[i]},{report.taus[i+1]},{report.l2h_gaps[i]!r},"
                    f"{report.sup_gaps[i]!r},{rate!r}\n"
                )
        print(f"tau sweep: gaps {report.l2h_gaps} cauchy_monotone={report.cauchy_monotone}")
        return EXIT_OK
    # every order is checked before the first run starts or directory is made
    runs = {}
    for sv in _float_list(args.s_list, "s"):
        try:
            config = replace(sc.config, s=sv)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        run_dir = out / f"s_{sv:g}"
        if run_dir in runs:
            raise ScenarioError(f"--s-list orders {runs[run_dir].config.s!r} and {sv!r} "
                                f"would share the run directory {run_dir.name}")
        runs[run_dir] = replace(sc, config=config, name=f"{sc.name}_s{sv:g}", raw_text="")
    u0 = sc.initial_density()
    _make_output_dirs(*runs)
    failed = False
    for run_dir, sub in runs.items():
        traj = jko_run(u0, sub.config, sub.num_steps)
        write_run_directory(run_dir, sub, traj)
        print(f"s = {sub.config.s:g}: {traj.status}")
        failed |= traj.status != "ok"
    return EXIT_SOLVER_FAILED if failed else EXIT_OK


def cmd_print_config(args) -> int:
    sc = load_scenario(args.scenario)
    sc.initial_density()  # refuse what `run` refuses before echoing it
    sys.stdout.write(format_scenario(sc))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error (exit 3) like any other refusal."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ScenarioError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    lists = p_sw.add_mutually_exclusive_group(required=True)
    lists.add_argument("--tau-list", help="comma list, strictly decreasing")
    lists.add_argument("--s-list", help="comma list of equation orders")
    p_sw.add_argument("--horizon", type=float,
                      help="time horizon for tau sweeps (default: num_steps * tau)")
    p_sw.add_argument("--r", type=float, help="comparison order r < s for tau sweeps (default 0.5)")
    p_sw.add_argument("--threads", type=int, choices=(1,), help="retired: sweeps run serially")
    p_sw.set_defaults(func=cmd_sweep)

    p_pc = sub.add_parser("print-config", help="parse and echo a normalized scenario")
    p_pc.add_argument("--scenario", required=True)
    p_pc.set_defaults(func=cmd_print_config)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FracfilmError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILED


if __name__ == "__main__":
    sys.exit(main())
