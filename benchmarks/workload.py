"""One workload in one fresh process: repeated `fracfilm run` then `verify`.

    python3 benchmarks/workload.py --scenario FILE --work DIR --seconds S --trace 0|1

Each repetition runs the front end in-process exactly as `fracfilm run
--scenario FILE --out DIR/repN` and then `fracfilm verify DIR/repN`
VERIFY_REPS times.  Repetitions continue until `--seconds` have passed,
and there are always at least two, so every invocation can compare run
directories byte for byte.  With `--trace 1` repetitions alternate
untraced and traced; the traced ones give the per-layer figures and the
untraced ones the tracing overhead.

Other tenants of a shared machine change its speed for seconds to
minutes.  Each untraced repetition therefore also times one round of
calibration.py's kernels after its run and one after its verify calls;
run.py divides the times by these rounds.

Every repetition's run directory is read back and checked; a violation is
reported in "errors" and never folded into a figure.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import calibration
import scenarios
import tracing

ROOT = Path(__file__).resolve().parents[1]
VERIFY_REPS = 5
MASS_TOL = 1e-12
VERIFY_OK_CODES = (0, 1)  # 1: a check reported FAIL, a verdict and not an error


def import_fracfilm():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import fracfilm

    where = Path(fracfilm.__file__).resolve().parent
    if where != (ROOT / "src" / "fracfilm").resolve():
        raise ImportError(f"fracfilm imported from {where}, not from this checkout")
    return fracfilm


def blas_threads():
    """Thread count the BLAS backing numpy reports, or None if unknown."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_context() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def timed_cli(cli, argv, trace: bool):
    """Run the front end once; (exit code, seconds, tracer or None, output)."""
    tracer = tracing.Tracer() if trace else None
    hooks = tracer.installed() if tracer else contextlib.nullcontext()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), hooks:
        t0 = time.perf_counter()
        with tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext():
            code = cli.main(argv)
        t1 = time.perf_counter()
    return code, t1 - t0, tracer, buf.getvalue()


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir())


def check_run_directory(out: Path, kv: dict) -> tuple:
    """Read a verified run directory back; (errors, figures)."""
    errors = []
    steps = int(kv["time.num_steps"])
    dim, n = int(kv["dimension"]), int(kv["grid.n"])
    cell = (float(kv["grid.box_length"]) / n) ** dim
    manifest = json.loads((out / "manifest.json").read_text())
    if manifest.get("status") != "ok":
        errors.append(f"{out.name}: trajectory status {manifest.get('status')!r}")
    rows = (out / "diagnostics.csv").read_text().splitlines()
    header, rows = rows[0].split(","), [r.split(",") for r in rows[1:]]
    if len(rows) != steps or manifest.get("num_steps") != steps:
        errors.append(f"{out.name}: {len(rows)} steps written, {steps} requested")
    for k in range(len(rows) + 1):
        snap = out / f"density_{k:06d}.txt"
        if not snap.is_file():
            errors.append(f"{out.name}: snapshot {k} missing")
            continue
        u = np.loadtxt(snap, ndmin=2)[:, -1]
        mass = cell * float(np.sum(u))
        if u.size != n ** dim or np.min(u) < 0 or abs(mass - 1.0) > MASS_TOL:
            errors.append(f"{out.name}: snapshot {k} has {u.size} values, min {np.min(u):.3e}, "
                          f"mass 1{mass - 1.0:+.3e}")
    kkt = [float(r[header.index("kkt_residual")]) for r in rows]
    checks = [c.strip() for c in kv["checks"].split(",")]
    verdicts = []
    for c in checks:
        path = out / f"check_{c}.json"
        if not path.is_file():
            errors.append(f"{out.name}: no verdict for check {c}")
            continue
        verdicts.append(bool(json.loads(path.read_text())["passed"]))
    figures = {
        "steps_unreached": steps - len(rows),
        "steps_unconverged": sum(1 for r in kkt if r > float(kv["inner.grad_tol"])),
        "accepted_total": sum(int(r[header.index("inner_iters")]) for r in rows),
        "kkt_max": max(kkt) if kkt else 0.0,
        "checks_run": len(checks),
        "checks_failed": verdicts.count(False),
    }
    return errors, figures


def repetition(cli, scenario: Path, out: Path, kv: dict, trace: bool) -> dict:
    steps = int(kv["time.num_steps"])
    run_code, run_s, run_tracer, run_out = timed_cli(
        cli, ["run", "--scenario", str(scenario), "--out", str(out)], trace)
    rep = {"trace": trace, "run_s": run_s, "run_exit_code": run_code,
           "bytes_written": dir_bytes(out), "verify_s": [], "verify_exit_codes": []}
    if not trace:
        rep["calibration"] = [calibration.timed_round()]
    verify_layers = []
    for _ in range(VERIFY_REPS):
        code, secs, tracer, verify_out = timed_cli(cli, ["verify", str(out)], trace)
        rep["verify_s"].append(secs)
        rep["verify_exit_codes"].append(code)
        if tracer:
            verify_layers.append(tracing.verify_phase_metrics(tracer.spans))
    if not trace:
        rep["calibration"].append(calibration.timed_round())
    errors, figures = check_run_directory(out, kv)
    if run_code != 0:
        errors.append(f"{out.name}: run exit code {run_code}: {run_out.strip()}")
    bad = [c for c in rep["verify_exit_codes"] if c not in VERIFY_OK_CODES]
    if bad:
        errors.append(f"{out.name}: verify exit codes {bad}: {verify_out.strip()}")
    rep.update(figures, errors=errors, digest=dir_digest(out))
    if run_tracer:
        run_tracer.write(out.parent / f"{out.name}.trace.json")
        layers = tracing.run_phase_metrics(run_tracer.spans, figures["accepted_total"], steps)
        for key in verify_layers[0]:
            layers[key] = statistics.median(v[key] for v in verify_layers)
        layers["scenario.bytes_written"] = rep["bytes_written"]
        layers["jko.kkt_max"] = figures["kkt_max"]
        rep["layers"] = layers
        rep["counts"] = tracing.counts(run_tracer.spans)
        rep["counts"]["transport.sinkhorn_iters"] = layers["transport.sinkhorn_iters"]
    return rep


def layer_summary(reps) -> tuple:
    """Per-layer figures: medians over traced repetitions; counts must agree."""
    traced = [r for r in reps if r["trace"]]
    plain = [r for r in reps if not r["trace"]]
    errors = []
    if any(r["counts"] != traced[0]["counts"] for r in traced[1:]):
        errors.append("per-layer counts differ between traced repetitions")
    # counts agree across traced repetitions (checked above), times take the median
    layers = {k: v if isinstance(v, int) else statistics.median(r["layers"][k] for r in traced)
              for k, v in traced[0]["layers"].items()}
    layers.pop("run_s")
    layers.pop("verify_s")
    layers["trace.overhead_s"] = min(r["run_s"] for r in traced) - min(r["run_s"] for r in plain)
    return layers, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scenario", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_fracfilm()
    except ImportError as exc:
        print(f"cannot import fracfilm from this checkout: {exc}", file=sys.stderr)
        return 2
    from fracfilm import cli

    kv = scenarios.parse_keys(args.scenario.read_text())
    reps = []
    start = time.perf_counter()
    while True:
        trace = bool(args.trace) and len(reps) % 2 == 1
        t0 = time.perf_counter()
        reps.append(repetition(cli, args.scenario, args.work / f"rep{len(reps)}", kv, trace))
        took = time.perf_counter() - t0
        # stop after a whole untraced/traced pair, once one more would overrun
        if len(reps) >= 2 and not (args.trace and trace is False):
            if time.perf_counter() - start + took * (1 + args.trace) > args.seconds:
                break

    errors = [e for r in reps for e in r["errors"]]
    if len({r["digest"] for r in reps}) != 1:
        errors.append("run directories of repeated runs are not byte-identical")
    plain = [r for r in reps if not r["trace"]]
    rounds = np.array([r["calibration"] for r in plain])  # repetition, round, kernel
    first = reps[0]
    result = {
        "errors": errors,
        "repetitions": len(reps),
        "steps_requested": len(reps) * int(kv["time.num_steps"]),
        "steps_unreached": sum(r["steps_unreached"] for r in reps),
        "unconverged_share": (first["steps_unconverged"] + first["steps_unreached"])
        / int(kv["time.num_steps"]),
        "checks_failed_share": first["checks_failed"] / first["checks_run"],
        "run_s": [r["run_s"] for r in plain],
        "verify_s": [r["verify_s"] for r in plain],
        "calibration_s": rounds.sum(axis=2).tolist(),
        "calibration_kernels_s": dict(zip((k.__name__ for k in calibration.KERNELS),
                                          np.median(rounds, axis=(0, 1)).tolist())),
        "run_exit_codes": [r["run_exit_code"] for r in reps],
        "verify_exit_codes": [r["verify_exit_codes"] for r in reps],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "context": run_context(),
    }
    if args.trace:
        result["layers"], layer_errors = layer_summary(reps)
        result["errors"] += layer_errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
