"""Benchmark of the fracfilm JKO solver, one workload per invocation.

    python3 benchmarks/run.py --workload ref1d|stiff1d|sink2d --seed N \
        --seconds S --trace 0|1

Generates the workload's scenario from the seed, then runs the workload in
one fresh process (benchmarks/workload.py): `fracfilm run` then `fracfilm
verify`, repeated for `--seconds`, every run directory checked.  Set-up is
timed in fresh processes before and after it.  Run and verify times are
rescaled to the reference machine's speed by the calibration the workload
process makes (benchmarks/calibration.py).  With `--trace 0` it reports the
end-to-end metrics, with `--trace 1` the per-layer ones.  The last line of
standard output is one JSON object; everything else about the run (seed,
scenario text, machine, raw samples) goes to
.bench_work/<workload>-seed<N>-trace<T>/result.json.

Exit codes: 0 result printed; 1 result printed but outputs incorrect;
2 no result (for example no fracfilm sources next to the benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import scenarios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
BLAS_THREADS = 1  # at or below nproc; one thread keeps shared machines steady
TIME_LIMIT_S = 170.0
# median time of one round of calibration.py on the reference machine (a
# 2-core Xeon VM) when nothing else slows it; run and verify times are
# reported at that machine's speed
CAL_REF_S = 0.012

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "transport.potential_calls": "count",
    "transport.value_calls": "count",
    "transport.busy_s": "s",
    "transport.share": "ratio",
    "transport.us_per_potential_call": "us",
    "transport.us_per_value_call": "us",
    "transport.sinkhorn_iters": "count",
    "transport.sinkhorn_iters_per_call": "count",
    "transport.failures": "count",
    "jko.steps": "count",
    "jko.gradient_evals_per_step": "count",
    "jko.objective_evals_per_step": "count",
    "jko.accepted_per_step": "count",
    "jko.accept_ratio": "ratio",
    "jko.self_s": "s",
    "jko.step_s.p50": "s",
    "jko.kkt_max": "1",
    "spectral.calls": "count",
    "spectral.busy_s": "s",
    "spectral.us_per_call": "us",
    "spectral.share": "ratio",
    "measure.calls": "count",
    "measure.busy_s": "s",
    "analysis.energy_estimate_s": "s",
    "analysis.moment_bound_s": "s",
    "analysis.entropy_dissipation_s": "s",
    "analysis.weak_form_s": "s",
    "analysis.evi_entropy_s": "s",
    "analysis.self_s": "s",
    "analysis.busy_s": "s",
    "scenario.write_s": "s",
    "scenario.load_s": "s",
    "scenario.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "unconverged_share": "ratio",
    "checks_failed_share": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "git_commit": git_commit()}


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def rescaled(res: dict) -> dict:
    """Run and verify times at the reference machine's speed: each
    repetition's times divided by the mean of the two calibration rounds
    it took (workload.py), then the median over repetitions."""
    speed = CAL_REF_S / np.mean(res["calibration_s"], axis=1)
    return {
        "run_s": float(np.median(np.array(res["run_s"]) * speed)),
        "verify_s": float(np.median(np.median(res["verify_s"], axis=1) * speed)),
    }


def fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    ap.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "fracfilm" / "__init__.py").is_file():
        return fail(f"no fracfilm sources under {ROOT / 'src'}")
    text = scenarios.scenario_text(args.workload, args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.cfg"
    scenario.write_text(text)
    env = child_env()

    def child(script, *extra):
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / script), *extra], env=env, cwd=ROOT,
                capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            return None, f"{script} exceeded the {TIME_LIMIT_S:.0f} s limit"
        if proc.returncode != 0 or not proc.stdout.strip():
            return None, f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return proc.stdout.strip().splitlines()[-1], None

    # set-up probes before and after the workload process, so that their
    # median spans the whole run
    probes = [("setup_probe.py", str(scenario))] * (0 if args.trace else SETUP_PROBES)
    main_run = ("workload.py", "--scenario", str(scenario), "--work", str(work),
                "--seconds", str(args.seconds), "--trace", str(args.trace))
    setup = []
    for cmd in probes + [main_run] + probes:
        line, err = child(*cmd)
        if err:
            return fail(err)
        if cmd is main_run:
            res = json.loads(line)
        else:
            setup.append(float(line))

    if args.trace:
        values = dict(res["layers"], unconverged_share=res["unconverged_share"],
                      checks_failed_share=res["checks_failed_share"])
        units = PER_LAYER
    else:
        values = dict(rescaled(res), setup_s=statistics.median(setup),
                      peak_rss_mb=res["peak_rss_mb"])
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    out = {
        "correct": not res["errors"],
        "attempted": res["steps_requested"],
        "failed": res["steps_unreached"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scenario_text": text, "blas_threads_set": BLAS_THREADS,
        "cal_ref_s": CAL_REF_S,
        "machine": machine(), "setup_s": setup, "workload_result": res, "output": out,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for e in res["errors"]:
        print(f"benchmark: INCORRECT: {e}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
