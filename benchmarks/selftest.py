"""Self-test of the benchmark on a 2-step ref1d run.

    python3 benchmarks/selftest.py

Checks that
  1. the tracing wrappers count exactly the calls an independent counter
     (sys.setprofile on the wrapped functions' code objects) sees;
  2. traced and plain run directories are byte-identical, and two traced
     runs give identical per-layer counts;
  3. the per-layer times of a traced run add up to its run time;
  4. the metric names and units the command prints match BENCHMARK.json;
  5. without fracfilm sources next to it the command exits non-zero and
     prints no result.
Prints one line per check and exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import scenarios
import tracing
import workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work" / "selftest"
STEPS = scenarios.STEPS["ref1d"]


def check(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def profiled_counts(cli, argv):
    """Calls an untraced front-end call makes through each traced binding,
    counted by sys.setprofile: a call of the bound function's code whose
    caller runs in the module that holds the binding."""
    names = {}
    for modname, attr, name in tracing.BINDINGS:
        names[(getattr(importlib.import_module(modname), attr).__code__, modname)] = name
    seen = dict.fromkeys(names.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None:
            name = names.get((frame.f_code, frame.f_back.f_globals.get("__name__")))
            if name:
                seen[name] += 1

    sys.setprofile(profile)
    try:
        code, *_ = workload.timed_cli(cli, argv, trace=False)
    finally:
        sys.setprofile(None)
    return code, seen


def span_counts(tracer):
    counts = tracing.counts(tracer.spans)
    return {name: counts.get(name, 0) for _, _, name in tracing.BINDINGS}


def nonzero(counts):
    return {k: v for k, v in counts.items() if v}


def command(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def main() -> int:
    workload.import_fracfilm()
    from fracfilm import cli

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    scenario = WORK / "scenario.cfg"
    scenario.write_text(scenarios.scenario_text("ref1d", scenarios.DEFAULT_SEED))
    kv = scenarios.parse_keys(scenario.read_text())

    # 1. wrapper counts against an independent count of an untraced run
    plain, traced = WORK / "plain", WORK / "traced"
    run_argv = ["run", "--scenario", str(scenario), "--out"]
    code, seen_run = profiled_counts(cli, run_argv + [str(plain)])
    check(code == 0, "untraced run exits 0")
    code, seen_verify = profiled_counts(cli, ["verify", str(plain)])
    check(code in workload.VERIFY_OK_CODES, "untraced verify runs every check")
    code, _, run_tracer, _ = workload.timed_cli(cli, run_argv + [str(traced)], trace=True)
    check(code == 0, "traced run exits 0")
    _, _, verify_tracer, _ = workload.timed_cli(cli, ["verify", str(traced)], trace=True)
    check(span_counts(run_tracer) == seen_run,
          f"run spans count what the profiler counts: {nonzero(seen_run)}")
    check(span_counts(verify_tracer) == seen_verify,
          f"verify spans count what the profiler counts: {nonzero(seen_verify)}")
    check(seen_run["jko.jko_step"] == STEPS, "one jko.jko_step call per step")

    # 2. tracing does not perturb results; counts repeat exactly
    check(workload.dir_digest(plain) == workload.dir_digest(traced),
          "traced and plain run directories are byte-identical")
    errors, _ = workload.check_run_directory(plain, kv)
    check(not errors, f"run directory passes the output checks {errors}")
    again = workload.repetition(cli, scenario, WORK / "again", kv, trace=True)
    check(again["counts"] == dict(tracing.counts(run_tracer.spans),
                                  **{"transport.sinkhorn_iters": 0}),
          "two traced runs give identical per-layer counts")

    # 3. per-layer times account for the traced run time
    lay = again["layers"]
    parts = (lay["transport.busy_s"] + lay["spectral.busy_s"] + lay["measure.busy_s"]
             + lay["jko.self_s"] + lay["scenario.write_s"] + lay["cli.self_s"])
    check(abs(parts - lay["run_s"]) <= 1e-9 * lay["run_s"] + 1e-9,
          f"layer times sum to the traced run time ({parts:.6f} vs {lay['run_s']:.6f} s)")

    # 4. printed metric names match BENCHMARK.json
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", "ref1d", "--seed", "0", "--seconds", "1",
                             "--trace", str(trace)])
        check(code == 0, f"command exits 0 with --trace {trace}")
        res = json.loads(buf.getvalue().strip().splitlines()[-1])
        check(sorted(res) == ["attempted", "correct", "failed", "metrics"]
              and res["correct"] is True and res["attempted"] >= 1,
              f"--trace {trace} prints a correct result line")
        printed = {k: v["unit"] for k, v in res["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in bench[key]}
        check(printed == declared, f"--trace {trace} metric names and units match {key}")

    # 5. no result without the program's sources
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = command(*bench["command"][1:], "--workload", "ref1d", "--seed", "0", "--seconds",
                   "1", "--trace", "0", cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "with only the benchmark files present the command fails without a result")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
