"""The contract between the package and the benchmark's tracer.

`benchmarks/tracing.py` wraps package functions by module and attribute
name and reads `transport.w2`'s arguments and result.  These tests load it
by file path, as the benchmark does, and check that every name it wraps
still exists and that a traced run and verify record what its per-layer
metrics read.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from fracfilm.cli import main
from fracfilm.scenario import load_run_directory

ROOT = Path(__file__).resolve().parents[1]
TRACING_PATH = ROOT / "benchmarks" / "tracing.py"

ONE_STEP_1D = """\
name = traced1d
dimension = 1
grid.n = 128
grid.box_length = 40.0
equation.s = 1.0
time.tau = 1e-3
time.num_steps = 1
initial.kind = gaussian
initial.center = 0.0
initial.variance = 1.0
inner.grad_tol = 1e-7
checks = energy_estimate, moment_bound, entropy_dissipation, weak_form, evi_entropy
"""

ONE_STEP_2D = """\
name = traced2d
dimension = 2
grid.n = 16
grid.box_length = 12.0
equation.s = 1.0
time.tau = 1e-2
time.num_steps = 1
initial.kind = gaussian
initial.center = 0.0, 0.0
initial.variance = 1.0
transport.epsilon = 0.2
transport.tol = 1e-7
inner.max_iters = 2
inner.grad_tol = 1e-3
checks = energy_estimate
"""


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(tracing, argv):
    tracer = tracing.Tracer()
    with tracer.installed():
        code = main(argv)
    return code, tracer.spans


def run_dir(tmp_path, text):
    scen = tmp_path / "scenario.cfg"
    scen.write_text(text)
    return scen, tmp_path / "run"


def test_every_binding_is_a_plain_function(tracing):
    for modname, attr, _ in tracing.BINDINGS:
        assert inspect.isfunction(getattr(importlib.import_module(modname), attr)), (modname, attr)


def test_setup_probe_prints_its_seconds():
    # the probe warms PeriodicGrid caches by name, `_phase` included
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "setup_probe.py"), str(ROOT / "scenarios" / "reference.cfg")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    assert float(line) > 0


def test_benchmark_selftest_passes_every_check():
    # the self-test prints one line per check and writes only under the
    # ignored .bench_work/; a renamed package function fails one of them
    done = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 17 and all(line.startswith("ok") for line in lines), done.stdout


def test_1d_run_records_one_potential_call_per_evaluation(tracing, tmp_path):
    # every call of a step returns the potential; the spans are the record's calls
    scen, out = run_dir(tmp_path, ONE_STEP_1D)
    code, spans = traced(tracing, ["run", "--scenario", str(scen), "--out", str(out)])
    assert code == 0
    calls = [sp for sp in spans if sp["name"] == "transport.w2"]
    assert all(sp["potential"] is True and sp["method"] == "exact_1d" for sp in calls)
    assert tracing.counts(spans)["jko.jko_step"] == 1
    (rec,) = load_run_directory(out)[1].steps
    assert len(calls) == rec.transport_calls > 1


def test_2d_run_records_sinkhorn_passes(tracing, tmp_path):
    scen, out = run_dir(tmp_path, ONE_STEP_2D)
    code, spans = traced(tracing, ["run", "--scenario", str(scen), "--out", str(out)])
    assert code == 0
    calls = [sp for sp in spans if sp["name"] == "transport.w2"]
    assert calls
    assert all(sp["method"] == "sinkhorn" and sp["iterations"] > 0 for sp in calls)
    # the first call, at u_prev, runs no main pass but counts the passes of
    # u_prev's self-potential; the spans add up to the step's recorded passes
    (rec,) = load_run_directory(out)[1].steps
    assert len(calls) == rec.transport_calls
    assert sum(sp["iterations"] for sp in calls) == rec.sinkhorn_iters


def test_verify_records_one_span_per_check(tracing, tmp_path):
    scen, out = run_dir(tmp_path, ONE_STEP_1D)
    assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
    _, spans = traced(tracing, ["verify", str(out)])
    counts = tracing.counts(spans)
    assert {name: counts.get(f"analysis.{name}", 0) for name in tracing.CHECKS} == dict.fromkeys(tracing.CHECKS, 1)


U0_SPANS = ["spectral.energy_of_values", "measure.entropy", "measure.second_moment",
            "measure.boundary_shell_mass"]


def ancestors(spans, sp):
    """The names of the spans that enclose `sp`, innermost first."""
    names = []
    while sp["parent"] is not None:
        sp = spans[sp["parent"]]
        names.append(sp["name"])
    return names


def test_run_computes_u0_scalars_where_the_trajectory_is_built(tracing, tmp_path):
    # the writer only reads the trajectory: no span sits under it, so the
    # benchmark, which counts a scenario span whole, counts no call twice
    scen, out = run_dir(tmp_path, ONE_STEP_1D)
    code, spans = traced(tracing, ["run", "--scenario", str(scen), "--out", str(out)])
    assert code == 0
    assert not [sp for sp in spans if "scenario.write_run_directory" in ancestors(spans, sp)]
    below_run = [sp["name"] for sp in spans if ancestors(spans, sp) == ["jko.run"]]
    assert sorted(below_run) == sorted(U0_SPANS + ["jko.jko_step"])


def test_verify_computes_u0_scalars_on_load(tracing, tmp_path):
    # u0's scalars are computed when the loaded trajectory is built, so no
    # check's span depends on the order of the checks
    scen, out = run_dir(tmp_path, ONE_STEP_1D)
    assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
    _, spans = traced(tracing, ["verify", str(out)])
    u0 = [sp for sp in spans if sp["name"] in U0_SPANS]
    assert sorted(sp["name"] for sp in u0) == sorted(U0_SPANS)
    assert all(ancestors(spans, sp) == ["scenario.load_run_directory"] for sp in u0)
    assert not [sp for sp in spans if sp["name"].split(".")[0] in ("spectral", "measure")
                and any(name.startswith("analysis.") for name in ancestors(spans, sp))]
