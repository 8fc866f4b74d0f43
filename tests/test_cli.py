import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import fracfilm
from fracfilm import (
    InnerConfig,
    PeriodicGrid,
    TransportConfig,
    contraction_field,
    gaussian_density,
    pushforward_with_drift,
    sobolev_norm_sq,
)
from fracfilm.cli import main
from fracfilm.scenario import (
    KNOWN_KEYS,
    Scenario,
    ScenarioError,
    format_scenario,
    load_run_directory,
    parse_scenario,
)

FAST_SCENARIO = """\
name = smoke
dimension = 1
grid.n = 128
grid.box_length = 40.0
equation.s = 1.0
time.tau = 1e-3
time.num_steps = 4
initial.kind = gaussian
initial.center = 0.0
initial.variance = 1.0
inner.grad_tol = 1e-7
checks = energy_estimate, moment_bound
"""

UNIFORM_SCENARIO = """\
name = flat
dimension = 1
grid.n = 64
grid.box_length = 40.0
equation.s = 1.0
time.tau = 1e-2
time.num_steps = 3
initial.kind = uniform
checks = energy_estimate
"""

# one Sinkhorn step on a 16 x 16 grid
SINKHORN_2D_SCENARIO = FAST_SCENARIO.replace("dimension = 1", "dimension = 2").replace(
    "grid.n = 128", "grid.n = 16").replace("grid.box_length = 40.0", "grid.box_length = 12.0").replace(
    "initial.center = 0.0", "initial.center = 0.0 0.0").replace(
    "time.num_steps = 4", "time.num_steps = 1\ntransport.epsilon = 0.2\ntransport.tol = 1e-7")


def write_scenario(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def readme_key_table():
    """The keys listed in the README's scenario-key table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Supported keys:", 1)[1].split("\n\n", 2)[1]
    return {line.split()[0] for line in table.splitlines()
            if line.startswith("    ") and not line.startswith("     ")}


def written_keys(text):
    return {line.split(" = ", 1)[0] for line in text.splitlines()}


class TestParsing:
    def test_round_trip_normalized_form(self):
        # doc-drift guard: the README documents exactly the keys the parser
        # knows, and the normalized form writes only those and reparses equal
        assert readme_key_table() == set(KNOWN_KEYS)
        sc = parse_scenario(FAST_SCENARIO)
        text = format_scenario(sc)
        assert written_keys(text) <= set(KNOWN_KEYS)
        again = parse_scenario(text)
        assert replace(again, raw_text="") == replace(sc, raw_text="")
        assert format_scenario(again) == format_scenario(sc)

    @pytest.mark.parametrize(
        "line, key",
        [("inner.grad_tl = 1e-3", "inner.grad_tl"), ("equation.s = 2.0", "equation.s")],
        ids=["misspelt", "repeated"],
    )
    def test_unknown_or_repeated_key_named(self, line, key):
        with pytest.raises(ScenarioError, match=key):
            parse_scenario(FAST_SCENARIO + line + "\n")

    @pytest.mark.parametrize(
        "text, method",
        [(FAST_SCENARIO, "exact"), (SINKHORN_2D_SCENARIO, "sinkhorn")],
        ids=["one_d", "two_d"],
    )
    def test_retired_keys_at_fixed_values_change_nothing(self, tmp_path, text, method):
        # old texts and manifests carry these lines; at these values they
        # select what the code always does now
        old = text + (f"inner.obj_tol = 0.0\noutput.snapshot_stride = 1\n"
                      f"transport.method = {method}\n")
        assert replace(parse_scenario(old), raw_text="") == replace(parse_scenario(text), raw_text="")
        outs = []
        for name, body in (("new", text), ("old", old)):
            out = tmp_path / name
            assert main(["run", "--scenario", str(write_scenario(tmp_path, body, f"{name}.cfg")),
                         "--out", str(out)]) == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
        assert files == sorted(p.name for p in outs[1].iterdir() if p.name != "manifest.json")
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_required_keys_only_take_the_class_defaults(self):
        text = ("grid.n = 64\ngrid.box_length = 40.0\nequation.s = 1.0\n"
                "time.tau = 1e-3\ntime.num_steps = 1\n")
        sc = parse_scenario(text)
        assert sc.transport == TransportConfig()
        assert sc.inner == InnerConfig()
        assert sc == Scenario(name="unnamed", dimension=1, n=64, box_length=40.0, s=1.0,
                              tau=1e-3, num_steps=1, initial_kind="gaussian", raw_text=text)

    def test_comments_and_blanks_ignored(self):
        sc = parse_scenario("# header\n\n" + FAST_SCENARIO + "\n# tail\n")
        assert sc.name == "smoke"

    def test_mixture_components(self):
        text = FAST_SCENARIO.replace(
            "initial.kind = gaussian",
            "initial.kind = gaussian_mixture\ninitial.components = 0.5 : -1.0 : 0.25 ; 0.5 : 1.0 : 0.25",
        )
        sc = parse_scenario(text)
        u = sc.initial_density()
        assert abs(u.mass() - 1.0) <= 1e-12

    def test_unknown_check_rejected(self):
        from fracfilm.scenario import ScenarioError

        with pytest.raises(ScenarioError):
            parse_scenario(FAST_SCENARIO.replace("moment_bound", "frobnicate"))

    def test_evi_entropy_needs_dimension_one(self):
        from fracfilm.scenario import ScenarioError

        text = FAST_SCENARIO.replace("dimension = 1", "dimension = 2").replace(
            "checks = energy_estimate, moment_bound", "checks = energy_estimate, evi_entropy"
        )
        with pytest.raises(ScenarioError, match="evi_entropy"):
            parse_scenario(text)

    def test_malformed_line_rejected(self):
        from fracfilm.scenario import ScenarioError

        with pytest.raises(ScenarioError):
            parse_scenario("name reference\n")

    @pytest.mark.parametrize(
        "kind_lines",
        [
            "initial.kind = gaussian",
            "initial.kind = gaussian_mixture\ninitial.components = 1.0 : 0.0 : 1.0",
            "initial.kind = uniform",
            "initial.kind = from_file\ninitial.path = u0.txt",
        ],
        ids=["gaussian", "gaussian_mixture", "uniform", "from_file"],
    )
    def test_readme_key_table_lists_every_written_key(self, kind_lines):
        sc = parse_scenario(FAST_SCENARIO.replace("initial.kind = gaussian", kind_lines))
        text = format_scenario(replace(sc, output_dir="runs/smoke"))
        assert written_keys(text) - readme_key_table() == set()


class TestRun:
    def test_uniform_run_zero_energies(self, tmp_path):
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3  # header + num_steps
        energies = [float(r.split(",")[2]) for r in rows[1:]]
        assert all(abs(e) < 1e-14 for e in energies)

    def test_missing_initial_file_exits_3(self, tmp_path, capsys):
        text = FAST_SCENARIO.replace(
            "initial.kind = gaussian", "initial.kind = from_file\ninitial.path = /nonexistent/u0.txt"
        )
        scen = write_scenario(tmp_path, text)
        code = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 3
        assert "/nonexistent/u0.txt" in capsys.readouterr().err

    def test_bad_scenario_exits_3(self, tmp_path):
        scen = write_scenario(tmp_path, "grid.n = 128\n")  # missing required keys
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r")]) == 3

    @pytest.mark.parametrize(
        "old, new",
        [
            ("grid.n = 128", "grid.n = 255"),
            ("equation.s = 1.0", "equation.s = -1"),
            ("dimension = 1", "dimension = 2\ntransport.method = exact"),
            ("checks =", "transport.epsilon = nan\nchecks ="),
            ("checks =", "transport.tol = 0\nchecks ="),
            ("checks =", "transport.max_iter = 0\nchecks ="),
            ("inner.grad_tol = 1e-7", "inner.grad_tol = nan\ninner.max_iters = 2"),
            ("checks =", "inner.obj_tol = inf\nchecks ="),
            ("checks =", "inner.obj_tol = 1e-6\nchecks ="),
            ("checks =", "transport.method = sinkhorn\nchecks ="),
            ("checks =", "output.snapshot_stride = 0\nchecks ="),
            ("checks =", "output.snapshot_stride = 2\nchecks ="),
            ("inner.grad_tol = 1e-7", "inner.grad_tl = 1e-7"),
            ("checks =", "time.tau = 1e-2\nchecks ="),
            ("grid.n = 128", "grid.n = inf"),
        ],
        ids=["odd_n", "negative_s", "exact_in_2d", "nan_epsilon", "zero_transport_tol",
             "zero_transport_max_iter", "nan_grad_tol", "infinite_obj_tol", "nonzero_obj_tol",
             "sinkhorn_in_1d", "zero_snapshot_stride", "snapshot_stride_2", "misspelt_key",
             "repeated_key", "infinite_grid_n"],
    )
    def test_invalid_setting_exits_3(self, tmp_path, capsys, old, new):
        scen = write_scenario(tmp_path, FAST_SCENARIO.replace(old, new))
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r")]) == 3
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_output_dir_key_is_the_fallback(self, tmp_path):
        out = tmp_path / "from_key"
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO + f"output.dir = {out}\n")
        assert main(["run", "--scenario", str(scen)]) == 0
        assert (out / "diagnostics.csv").exists()

    def test_no_output_dir_anywhere_exits_3(self, tmp_path):
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        assert main(["run", "--scenario", str(scen)]) == 3

    def test_from_file_initial_datum_round_trip(self, tmp_path):
        scen = write_scenario(tmp_path, FAST_SCENARIO)
        out1 = tmp_path / "run1"
        assert main(["run", "--scenario", str(scen), "--out", str(out1)]) == 0
        text = FAST_SCENARIO.replace(
            "initial.kind = gaussian",
            f"initial.kind = from_file\ninitial.path = {out1 / 'density_000000.txt'}",
        ).replace("time.num_steps = 4", "time.num_steps = 1")
        scen2 = write_scenario(tmp_path, text, "scenario2.cfg")
        assert main(["run", "--scenario", str(scen2), "--out", str(tmp_path / "run2")]) == 0


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify")
    scen = write_scenario(tmp, FAST_SCENARIO)
    out = tmp / "run"
    assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
    return out


class TestVerify:
    def test_all_checks_pass(self, run_dir):
        assert main(["verify", str(run_dir)]) == 0
        for name in ("energy_estimate", "moment_bound"):
            doc = json.loads((run_dir / f"check_{name}.json").read_text())
            assert doc["passed"]
            assert set(doc) >= {"name", "tolerance", "max_violation", "passed", "series"}

    def test_corrupted_energy_column_fails(self, run_dir, tmp_path):
        import shutil

        bad = tmp_path / "bad_run"
        shutil.copytree(run_dir, bad)
        csv = (bad / "diagnostics.csv").read_text().splitlines()
        parts = csv[2].split(",")
        parts[2] = format(float(parts[2]) + 1e-3, ".17g")  # bump one energy upward
        csv[2] = ",".join(parts)
        (bad / "diagnostics.csv").write_text("\n".join(csv) + "\n")
        assert main(["verify", str(bad), "--checks", "energy_estimate"]) == 1

    def test_unknown_check_exits_3(self, run_dir):
        assert main(["verify", str(run_dir), "--checks", "bogus"]) == 3

    @pytest.mark.parametrize("checks", [",", " , ", ""], ids=["comma", "blank_items", "empty"])
    def test_checks_flag_naming_no_check_exits_3(self, run_dir, capsys, checks):
        assert main(["verify", str(run_dir), "--checks", checks]) == 3
        assert "names no check" in capsys.readouterr().err

    def test_scenario_with_empty_checks_key_runs_none(self, tmp_path):
        text = UNIFORM_SCENARIO.replace("checks = energy_estimate", "checks =")
        out = tmp_path / "nochecks"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, text)), "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        assert not list(out.glob("check_*.json"))

    def test_evi_entropy_in_2d_exits_3(self, tmp_path, capsys):
        text = UNIFORM_SCENARIO.replace("dimension = 1", "dimension = 2").replace(
            "grid.n = 64", "grid.n = 8"
        ).replace("time.num_steps = 3", "time.num_steps = 0")
        out = tmp_path / "run2d"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, text)), "--out", str(out)]) == 0
        assert main(["verify", str(out), "--checks", "evi_entropy"]) == 3
        assert "evi_entropy" in capsys.readouterr().err
        assert not (out / "check_evi_entropy.json").exists()

    def test_round_trip_diagnostics_bit_exact(self, run_dir):
        from fracfilm import energy_of_values, entropy, second_moment

        sc, traj = load_run_directory(run_dir)
        grid = sc.grid()
        for rec in traj.steps:
            assert energy_of_values(rec.density.values, grid, sc.s) == pytest.approx(
                rec.energy, abs=1e-12
            )
            assert entropy(rec.density) == pytest.approx(rec.entropy, abs=1e-12)
            assert second_moment(rec.density) == pytest.approx(rec.second_moment, abs=1e-12)

    def test_stop_reason_round_trips(self, tmp_path):
        text = FAST_SCENARIO.replace("inner.grad_tol = 1e-7", "inner.grad_tol = 1e-7\ninner.max_iters = 5")
        out = tmp_path / "capped"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, text)), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "diagnostics.csv").read_text().splitlines()]
        column = rows[0].index("stop_reason")
        assert [r[column] for r in rows[1:]] == ["max_iters"] * 4
        _, traj = load_run_directory(out)
        assert [rec.stop_reason for rec in traj.steps] == ["max_iters"] * 4

    def test_transport_counters_round_trip(self, tmp_path):
        # 1D: the exact path makes no Sinkhorn pass; d = 2: every call does
        one_d = FAST_SCENARIO.replace("inner.grad_tol = 1e-7", "inner.grad_tol = 1e-7\ninner.max_iters = 5")
        two_d = one_d.replace("dimension = 1", "dimension = 2").replace(
            "grid.n = 128", "grid.n = 16").replace("grid.box_length = 40.0", "grid.box_length = 12.0").replace(
            "initial.center = 0.0", "initial.center = 0.0 0.0").replace(
            "time.num_steps = 4", "time.num_steps = 1\ntransport.epsilon = 0.2\ntransport.tol = 1e-7")
        for name, text in (("one_d", one_d), ("two_d", two_d)):
            out = tmp_path / name
            assert main(["run", "--scenario", str(write_scenario(tmp_path, text)), "--out", str(out)]) == 0
            rows = [r.split(",") for r in (out / "diagnostics.csv").read_text().splitlines()]
            assert rows[0][-3:] == ["stop_reason", "transport_calls", "sinkhorn_iters"]
            _, traj = load_run_directory(out)
            counters = [(rec.transport_calls, rec.sinkhorn_iters) for rec in traj.steps]
            assert counters == [(int(r[-2]), int(r[-1])) for r in rows[1:]]
            assert all(calls > 5 for calls, _ in counters)
            if name == "one_d":
                assert all(iters == 0 for _, iters in counters)
            else:
                assert all(iters > calls for calls, iters in counters)
            csv = (out / "diagnostics.csv").read_text()
            for bad in ("-1", "1.5", "x"):
                lines = csv.splitlines()
                parts = lines[1].split(",")
                parts[-1] = bad
                lines[1] = ",".join(parts)
                (out / "diagnostics.csv").write_text("\n".join(lines) + "\n")
                with pytest.raises(ScenarioError):
                    load_run_directory(out)

    def test_unknown_stop_reason_rejected(self, run_dir, tmp_path):
        import shutil

        # polish_floor: the stop reason of the retired mirror-descent solver
        for reason in ("done", "polish_floor"):
            bad = tmp_path / f"bad_run_{reason}"
            shutil.copytree(run_dir, bad)
            csv = (bad / "diagnostics.csv").read_text().replace(",converged,", f",{reason},", 1)
            (bad / "diagnostics.csv").write_text(csv)
            with pytest.raises(ScenarioError):
                load_run_directory(bad)

    def test_manifest_scenario_reparses_identically(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        sc = parse_scenario(manifest["scenario_text"])
        assert format_scenario(sc) == format_scenario(parse_scenario(FAST_SCENARIO))


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        scen = write_scenario(tmp_path, FAST_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", str(scen), "--out", str(out1)]) == 0
        assert main(["run", "--scenario", str(scen), "--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestSweep:
    def test_tau_sweep_single_entry(self, tmp_path):
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--scenario", str(scen), "--out", str(out), "--tau-list", "4e-3",
             "--horizon", "8e-3"]
        )
        assert code == 0
        doc = json.loads((out / "tau_refinement.json").read_text())
        assert doc["l2h_gaps"] == []

    def test_tau_sweep_pair_monotone_trivially(self, tmp_path):
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "sweep2"
        code = main(
            ["sweep", "--scenario", str(scen), "--out", str(out), "--tau-list", "4e-3,2e-3",
             "--horizon", "8e-3"]
        )
        assert code == 0
        doc = json.loads((out / "tau_refinement.json").read_text())
        assert doc["cauchy_monotone"]
        assert (out / "tau_refinement.csv").exists()

    def test_bad_tau_list_exits_3(self, tmp_path):
        # every bad refinement setting is a config error (3), never a
        # traceback; the scenario has s = 1, so r = 2 is out of range
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        for extra in (["--tau-list", "1e-3,2e-3"],
                      ["--tau-list", "1e-3,-1e-3"],
                      ["--tau-list", "1e-3,nan"],
                      ["--tau-list", "1e-3", "--horizon", "-1"],
                      ["--tau-list", "1e-3", "--r", "2"]):
            code = main(["sweep", "--scenario", str(scen), "--out", str(tmp_path / "x")] + extra)
            assert code == 3, extra

    @pytest.mark.parametrize(
        "extra",
        [["--s-list", "1,-1"], ["--s-list", "1,-1", "--threads", "2"], ["--s-list", "1,abc"],
         ["--s-list", "1,nan"], ["--tau-list", "4e-3,abc"]],
        ids=["negative_s", "negative_s_parallel", "word_in_s", "nan_s", "word_in_tau"],
    )
    def test_bad_list_exits_3_before_any_run(self, tmp_path, capsys, extra):
        # every entry is checked first: no order runs and no --out is made
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "bad"
        assert main(["sweep", "--scenario", str(scen), "--out", str(out)] + extra) == 3
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_tau_sweep_run_exits_2(self, tmp_path, capsys):
        # a starved Sinkhorn solver fails the first step: the same solver
        # failure (exit 2) as `fracfilm run`, not a traceback
        scen = write_scenario(tmp_path, SINKHORN_2D_SCENARIO + "transport.max_iter = 2\n")
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "run")]) == 2
        code = main(["sweep", "--scenario", str(scen), "--out", str(tmp_path / "sweep"),
                     "--tau-list", "2e-2,1e-2"])
        assert code == 2
        assert "solver failure: refinement run at tau=0.02 failed" in capsys.readouterr().err

    def test_s_sweep_runs_and_verifies(self, tmp_path):
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "ssweep"
        code = main(["sweep", "--scenario", str(scen), "--out", str(out), "--s-list", "0.5,1.5"])
        assert code == 0
        for sv in ("0.5", "1.5"):
            rd = out / f"s_{sv}"
            assert rd.is_dir()
            assert main(["verify", str(rd)]) == 0

    def test_s_sweep_parallel_workers(self, tmp_path):
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "par"
        code = main(["sweep", "--scenario", str(scen), "--out", str(out),
                     "--s-list", "0.5,1.0", "--threads", "2"])
        assert code == 0
        assert (out / "s_0.5" / "diagnostics.csv").exists()
        assert (out / "s_1" / "diagnostics.csv").exists()

    def test_sweep_without_lists_exits_3(self, tmp_path):
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        assert main(["sweep", "--scenario", str(scen), "--out", str(tmp_path / "y")]) == 3


class TestPrintConfig:
    def test_echo_normalized(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, FAST_SCENARIO)
        assert main(["print-config", "--scenario", str(scen)]) == 0
        out = capsys.readouterr().out
        assert "grid.n = 128" in out
        assert parse_scenario(out).name == "smoke"


STARTUP_PROBE = """\
import json
import sys

import fracfilm as ff
from fracfilm.cli import main

for scen in sys.argv[1:]:
    assert main(["run", "--scenario", scen, "--out", scen + ".run"]) == 0
    assert main(["verify", scen + ".run"]) in (0, 1)  # 1: a FAIL verdict, not an error
leaked = sorted(m for m in sys.modules if m.startswith("scipy"))
grid = ff.PeriodicGrid(1, 256, 40.0)
u = ff.gaussian_density(grid, 0.0, 1.0)
pushed, drift = ff.pushforward_with_drift(u, ff.contraction_field(1, 9.0, 14.0), 1e-2)
norm = ff.sobolev_norm_sq(u.values, grid, 0.5)
loaded = [m in sys.modules for m in ("scipy.ndimage", "scipy.special")]
print(json.dumps({"leaked": leaked, "loaded": loaded, "pushed": pushed.values.tolist(),
                  "drift": drift, "norm": norm}))
"""


class TestStartup:
    def test_run_and_verify_never_import_scipy(self, tmp_path):
        # a fresh interpreter, since this one has loaded scipy already: run
        # and verify (every check in 1D, a Sinkhorn run in d = 2) must leave
        # scipy out; the two functions that need it load it on first use
        one_d = FAST_SCENARIO.replace("time.num_steps = 4", "time.num_steps = 2").replace(
            "checks = energy_estimate, moment_bound",
            "checks = energy_estimate, moment_bound, entropy_dissipation, weak_form, evi_entropy")
        scens = [str(write_scenario(tmp_path, text, f"{name}.cfg"))
                 for name, text in (("one_d", one_d), ("two_d", SINKHORN_2D_SCENARIO))]
        src = str(Path(fracfilm.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", STARTUP_PROBE, *scens],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert len(list(Path(scens[0] + ".run").glob("check_*.json"))) == 5
        got = json.loads(done.stdout.splitlines()[-1])
        assert got["leaked"] == []
        assert got["loaded"] == [True, True]
        grid = PeriodicGrid(1, 256, 40.0)
        u = gaussian_density(grid, 0.0, 1.0)
        pushed, drift = pushforward_with_drift(u, contraction_field(1, 9.0, 14.0), 1e-2)
        assert got["pushed"] == pushed.values.tolist()
        assert got["drift"] == drift
        assert got["norm"] == sobolev_norm_sq(u.values, grid, 0.5)
