import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fracfilm
from fracfilm import (
    InnerConfig,
    JkoConfig,
    PeriodicGrid,
    TransportConfig,
    contraction_field,
    derivative_identity_check,
    gaussian_density,
    pushforward_with_drift,
    sobolev_norm_sq,
)
from fracfilm.cli import build_parser, main, run_checks
from fracfilm.scenario import (
    CSV_COLUMNS,
    KNOWN_CHECKS,
    KNOWN_KEYS,
    Scenario,
    ScenarioError,
    format_scenario,
    load_run_directory,
    load_scenario,
    parse_scenario,
    validate_checks,
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


def read_strict_json(path):
    """The JSON document at `path`; ValueError on a bare NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def write_scenario(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def readme_key_rows():
    """The README's scenario-key table: each key and the text of its row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Supported keys:", 1)[1].split("\n\n", 2)[1]
    rows = {}
    for line in table.splitlines():
        if line.startswith("     "):  # continues the row above
            rows[key] += " " + line.strip()
        else:
            key, _, text = line.strip().partition(" ")
            rows[key] = text.strip()
    return rows


def written_keys(text):
    return {line.split(" = ", 1)[0] for line in text.splitlines()}


class TestParsing:
    def test_round_trip_normalized_form(self):
        # doc-drift guard: the README documents exactly the keys the parser
        # knows, and the normalized form writes only those and reparses equal
        assert set(readme_key_rows()) == set(KNOWN_KEYS)
        sc = parse_scenario(FAST_SCENARIO)
        text = format_scenario(sc)
        assert written_keys(text) <= set(KNOWN_KEYS)
        again = parse_scenario(text)
        assert replace(again, raw_text="") == replace(sc, raw_text="")
        assert format_scenario(again) == format_scenario(sc)

    def test_readme_checks_row_matches_the_registry(self):
        # doc-drift guard: the README's `checks` row lists exactly the known
        # checks, and marks "dimension 1 only" exactly those refused at d = 2
        row = readme_key_rows()["checks"]
        match = re.fullmatch(r"comma list: ([^(]*?)(?: \((.*): dimension 1 only\))?", row)
        assert match, row
        assert [c.strip() for c in match[1].split(",")] == KNOWN_CHECKS
        one_d_only = {c.strip() for c in (match[2] or "").split(",") if c.strip()}
        refused = set()
        for name in KNOWN_CHECKS:
            try:
                validate_checks([name], 2)
            except ScenarioError:
                refused.add(name)
        assert one_d_only == refused

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
        assert sc.config.transport == TransportConfig()
        assert sc.config.inner == InnerConfig()
        config = JkoConfig(grid=PeriodicGrid(1, 64, 40.0), s=1.0, tau=1e-3)
        assert sc == Scenario(name="unnamed", config=config, num_steps=1,
                              initial_kind="gaussian", raw_text=text)

    def test_initial_datum_lives_on_the_configured_grid(self):
        sc = parse_scenario(FAST_SCENARIO)
        assert sc.initial_density().grid is sc.config.grid

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
        assert written_keys(text) - set(readme_key_rows()) == set()


class TestRun:
    def test_uniform_run_zero_energies(self, tmp_path):
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3  # header + num_steps
        energies = [float(r.split(",")[2]) for r in rows[1:]]
        assert all(abs(e) < 1e-14 for e in energies)

    def test_failed_step_exits_2_and_writes_the_run(self, tmp_path, capsys, monkeypatch):
        # a line search that may try no step fails step 1; the run directory
        # still records the initial density and the failure
        import fracfilm.jko

        monkeypatch.setattr(fracfilm.jko, "_ALPHA_MIN", 2.0)
        scen = write_scenario(tmp_path, FAST_SCENARIO)
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 2
        assert "solver failure: failed:step=1:StagnationError" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"].startswith("failed:step=1:StagnationError")
        assert manifest["num_steps"] == 0
        assert (out / "diagnostics.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"
        assert sorted(p.name for p in out.glob("density_*.txt")) == ["density_000000.txt"]

    def test_missing_initial_file_exits_3(self, tmp_path, capsys):
        text = FAST_SCENARIO.replace(
            "initial.kind = gaussian", "initial.kind = from_file\ninitial.path = /nonexistent/u0.txt"
        )
        scen = write_scenario(tmp_path, text)
        code = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 3
        assert "/nonexistent/u0.txt" in capsys.readouterr().err

    def test_nan_in_initial_file_exits_3(self, tmp_path, capsys):
        (tmp_path / "u0.txt").write_text("\n".join(["1.0"] * 127 + ["nan"]) + "\n")
        text = FAST_SCENARIO.replace(
            "initial.kind = gaussian", f"initial.kind = from_file\ninitial.path = {tmp_path / 'u0.txt'}"
        )
        scen = write_scenario(tmp_path, text)
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r")]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

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
            ("initial.variance = 1.0", "initial.variance = inf"),
            ("initial.variance = 1.0", "initial.variance = nan"),
            ("initial.kind = gaussian", "initial.kind = gaussian_mixture\n"
             "initial.components = 0.5 : -1.0 : 1.0 ; 0.5 : 1.0 : inf"),
            ("equation.s = 1.0", "equation.s = 200"),
            ("grid.box_length = 40.0", "grid.box_length = 1e-160"),
            ("checks = energy_estimate, moment_bound", "checks ="),
        ],
        ids=["odd_n", "negative_s", "exact_in_2d", "nan_epsilon", "zero_transport_tol",
             "zero_transport_max_iter", "nan_grad_tol", "infinite_obj_tol", "nonzero_obj_tol",
             "sinkhorn_in_1d", "zero_snapshot_stride", "snapshot_stride_2", "misspelt_key",
             "repeated_key", "infinite_grid_n", "infinite_variance", "nan_variance",
             "infinite_component_variance", "overflowing_symbol", "tiny_box", "empty_checks"],
    )
    def test_invalid_setting_exits_3(self, tmp_path, capsys, old, new):
        scen = write_scenario(tmp_path, FAST_SCENARIO.replace(old, new))
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r")]) == 3
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "old, new, cause",
        [
            ("grid.n = 128", "grid.n = abc", "grid.n"),
            ("time.num_steps = 4", "time.num_steps = -1", "time.num_steps"),
            ("initial.kind = gaussian", "initial.kind = gaussian_mixture\n"
             "initial.components = 1.0 : 0.0", "expected weight : center : variance"),
            ("initial.kind = gaussian", "initial.kind = gaussian_mixture", "initial.components"),
            ("initial.kind = gaussian", "initial.kind = foo", "foo"),
            ("initial.kind = gaussian", "initial.kind = from_file\ninitial.path = {rows}",
             "has 100 rows, grid needs 128"),
            ("initial.kind = gaussian", "initial.kind = gaussian_mixture\n"
             "initial.components = 0.0 : -1.0 : 1.0 ; 0.0 : 1.0 : 1.0", "zero density"),
            ("initial.kind = gaussian", "initial.kind = gaussian_mixture\n"
             "initial.components = 1.5 : -1.0 : 1.0 ; -0.5 : 1.0 : 1.0", "weight"),
            ("initial.center = 0.0", "initial.center = inf", "center"),
            ("initial.center = 0.0", "initial.center = 0.0 0.0",
             "center has 2 coordinates, dimension is 1"),
            ("initial.kind = gaussian", "initial.kind = gaussian_mixture\n"
             "initial.components = 1.0 : 0.0 0.0 : 1.0", "center has 2 coordinates, dimension is 1"),
            ("inner.grad_tol = 1e-7", "inner.grad_tol = 1e-7\ninner.max_iters = 0",
             "inner max_iters must be at least 1, got 0"),
            ("inner.grad_tol = 1e-7", "inner.grad_tol = 0", "inner grad_tol must be finite and positive, got 0.0"),
            ("inner.grad_tol = 1e-7", "inner.grad_tol = nan", "inner grad_tol must be finite and positive, got nan"),
        ],
        ids=["word_grid_n", "negative_num_steps", "component_with_two_fields",
             "mixture_without_components", "unknown_kind", "wrong_row_count", "zero_weights",
             "negative_weight", "infinite_center", "center_beyond_dimension",
             "component_center_beyond_dimension", "zero_max_iters", "zero_grad_tol", "nan_grad_tol"],
    )
    def test_refused_setting_names_its_cause(self, tmp_path, capsys, old, new, cause):
        # each such scenario is refused (3) before any --out is made
        rows = tmp_path / "u0.txt"
        rows.write_text("\n".join(["1.0"] * 100) + "\n")
        scen = write_scenario(tmp_path, FAST_SCENARIO.replace(old, new.format(rows=rows)))
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and cause in err, err
        assert not (tmp_path / "r").exists()

    def test_missing_scenario_file_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        assert main(["run", "--scenario", str(missing), "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and str(missing) in err
        assert not (tmp_path / "r").exists()

    def test_output_dir_key_is_the_fallback(self, tmp_path):
        out = tmp_path / "from_key"
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO + f"output.dir = {out}\n")
        assert main(["run", "--scenario", str(scen)]) == 0
        assert (out / "diagnostics.csv").exists()

    @pytest.mark.parametrize(
        "extra",
        [[], ["--tau-list", "2e-2,1e-2"], ["--s-list", "0.5,1.5"]],
        ids=["run", "tau_sweep", "s_sweep"],
    )
    @pytest.mark.parametrize("below", [False, True], ids=["out_is_a_file", "out_below_a_file"])
    def test_unusable_out_exits_3_before_any_solve(self, tmp_path, capsys, monkeypatch, extra,
                                                   below):
        # such an --out used to end the command in a traceback after the compute
        def solver(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(fracfilm.cli, "jko_run", solver)
        monkeypatch.setattr(fracfilm.cli, "tau_refinement_study", solver)
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n")
        out = blocker / "run" if below else blocker
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        command = ["sweep"] if extra else ["run"]
        assert main(command + ["--scenario", str(scen), "--out", str(out)] + extra) == 3
        assert "cannot create output directory" in capsys.readouterr().err
        assert blocker.read_text() == "a file\n"

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

    def test_from_file_single_column(self, tmp_path):
        # a snapshot holds the header `# u` and one value per line; a file
        # with a coordinate column before each value (the older snapshot
        # layout) is the same datum
        scen = write_scenario(tmp_path, FAST_SCENARIO.replace("time.num_steps = 4", "time.num_steps = 1"))
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "run1")]) == 0
        snapshot = tmp_path / "run1" / "density_000000.txt"
        lines = snapshot.read_text().splitlines()
        assert lines[0] == "# u" and len(lines) == 129
        assert all(len(line.split()) == 1 for line in lines[1:])
        x = PeriodicGrid(1, 128, 40.0).axis_coords
        legacy = tmp_path / "legacy.txt"
        legacy.write_text("# x0 u\n" + "".join(f"{xi:.17g} {v}\n" for xi, v in zip(x, lines[1:])))
        outs = []
        for name, path in (("two", legacy), ("one", snapshot)):
            text = FAST_SCENARIO.replace(
                "initial.kind = gaussian", f"initial.kind = from_file\ninitial.path = {path}"
            ).replace("time.num_steps = 4", "time.num_steps = 1")
            out = tmp_path / name
            assert main(["run", "--scenario", str(write_scenario(tmp_path, text, f"{name}.cfg")),
                         "--out", str(out)]) == 0
            outs.append(out)
        for k in range(2):
            f = f"density_{k:06d}.txt"
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        assert (outs[0] / "diagnostics.csv").read_bytes() == (outs[1] / "diagnostics.csv").read_bytes()

    def test_2d_snapshot_round_trips_bit_exact(self, tmp_path):
        # one value per cell, row-major, read back to the same floats
        from fracfilm.scenario import _read_density_file, write_density_file

        grid = PeriodicGrid(2, 12, 6.0)
        u = gaussian_density(grid, (0.3, -0.7), 0.9)
        path = tmp_path / "u.txt"
        write_density_file(path, u)
        lines = path.read_text().splitlines()
        assert lines[0] == "# u" and len(lines) == grid.size + 1
        assert np.array_equal(_read_density_file(path, grid), u.values)


def set_diagnostics_cell(column, cell):
    """An edit of diagnostics.csv that puts `cell` in `column` of the second step."""
    def edit(text):
        lines = text.splitlines()
        parts = lines[2].split(",")
        parts[lines[0].split(",").index(column)] = cell
        lines[2] = ",".join(parts)
        return "\n".join(lines) + "\n"
    return edit


def drop_scenario_text(text):
    manifest = json.loads(text)
    del manifest["scenario_text"]
    return json.dumps(manifest)


def set_status(status):
    """An edit of manifest.json that records the run's status as `status`."""
    def edit(text):
        manifest = json.loads(text)
        manifest["status"] = status
        return json.dumps(manifest)
    return edit


def scale_middle_value(factor):
    """An edit of a density snapshot that multiplies its middle value by `factor`."""
    def edit(text):
        lines = text.splitlines()
        mid = len(lines) // 2
        lines[mid] = repr(factor * float(lines[mid]))
        return "\n".join(lines) + "\n"
    return edit


def drop_first_diagnostics_row(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:1] + lines[2:])


def drop_last_diagnostics_row(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:-1])


def drop_last_cell_of_second_row(text):
    lines = text.splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    return "\n".join(lines) + "\n"


def delete_file(text):
    """An edit that deletes the file."""
    return None


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

    def test_corrupt_snapshot_value_exits_3(self, run_dir, tmp_path, capsys):
        import shutil

        bad = tmp_path / "bad_snapshot"
        shutil.copytree(run_dir, bad)
        snap = bad / "density_000002.txt"
        lines = snap.read_text().splitlines()
        lines[5] = "0.1 abc"
        snap.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad)]) == 3
        assert "density_000002.txt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, edit, message",
        [("diagnostics.csv", set_diagnostics_cell("energy", "abc"), "malformed diagnostics row"),
         ("diagnostics.csv", set_diagnostics_cell("k", "x"), "malformed diagnostics row"),
         ("manifest.json", lambda text: text[: len(text) // 2], "not JSON"),
         ("manifest.json", drop_scenario_text, "scenario_text"),
         ("density_000002.txt", scale_middle_value(-1.0), "density_000002.txt"),
         ("density_000002.txt", scale_middle_value(1.5), "density_000002.txt"),
         ("diagnostics.csv", drop_first_diagnostics_row, "diagnostics.csv"),
         ("manifest.json", delete_file, "no manifest.json"),
         ("diagnostics.csv", delete_file, "no diagnostics.csv"),
         ("diagnostics.csv", lambda text: text.replace("energy", "energie", 1),
          "unexpected diagnostics columns"),
         ("diagnostics.csv", drop_last_cell_of_second_row, f": {len(CSV_COLUMNS) - 1} cells"),
         ("density_000002.txt", delete_file, "density snapshot for step 2 missing"),
         ("diagnostics.csv", set_diagnostics_cell("energy", "nan"), "not a finite number: 'nan'"),
         ("diagnostics.csv", set_diagnostics_cell("kkt_residual", "inf"), "not a finite number: 'inf'"),
         ("diagnostics.csv", drop_last_diagnostics_row, "finished 4 steps but has rows for 3")],
        ids=["energy_abc", "k_x", "manifest_not_json", "manifest_without_scenario_text",
             "negated_snapshot_value", "snapshot_value_times_1.5", "first_row_deleted",
             "no_manifest", "no_diagnostics", "wrong_header", "short_row", "missing_snapshot",
             "energy_nan", "kkt_inf", "last_row_deleted"],
    )
    def test_malformed_run_directory_exits_3(self, run_dir, tmp_path, capsys, name, edit, message):
        # a config error (3) naming the file or cause, never a traceback (the
        # first seven used to exit 1, energy_nan wrote NaN into its check
        # file and exited 1, last_row_deleted was judged and passed); an edit
        # that returns None deletes the file
        import shutil

        bad = tmp_path / "bad_run"
        shutil.copytree(run_dir, bad, ignore=shutil.ignore_patterns("check_*.json"))
        text = edit((bad / name).read_text())
        if text is None:
            (bad / name).unlink()
        else:
            (bad / name).write_text(text)
        assert main(["verify", str(bad)]) == 3
        assert message in capsys.readouterr().err
        assert not list(bad.glob("check_*.json"))

    @pytest.mark.parametrize(
        "name, edit, code",
        [("diagnostics.csv", set_diagnostics_cell("energy", "nan"), 3),
         ("manifest.json", set_status("failed:step=3:StagnationError"), 2)],
        ids=["energy_nan", "failed_status"],
    )
    def test_refusal_removes_earlier_verdicts(self, run_dir, tmp_path, name, edit, code):
        # the check files of an earlier verify used to survive the refusal
        # and still say "passed": true; a bad --checks argument on the good
        # directory is no refusal of the run and keeps them
        import shutil

        bad = tmp_path / "run"
        shutil.copytree(run_dir, bad, ignore=shutil.ignore_patterns("check_*.json"))
        assert main(["verify", str(bad)]) == 0
        verdicts = {p.name: p.read_bytes() for p in bad.glob("check_*.json")}
        assert len(verdicts) == 2
        for checks in ("bogus", ","):
            assert main(["verify", str(bad), "--checks", checks]) == 3
        assert {p.name: p.read_bytes() for p in bad.glob("check_*.json")} == verdicts
        (bad / name).write_text(edit((bad / name).read_text()))
        assert main(["verify", str(bad)]) == code
        assert not list(bad.glob("check_*.json"))

    def test_failed_run_is_not_judged(self, tmp_path, capsys):
        # a starved Sinkhorn solver fails the first step: verify reports the
        # run's status with the solver-failure code (2) and judges nothing;
        # it used to print PASS for both checks and exit 0
        scen = write_scenario(tmp_path, SINKHORN_2D_SCENARIO + "transport.max_iter = 2\n")
        out = tmp_path / "failed"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 2
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("solver failure: failed:step=1:ConvergenceError")
        assert captured.out == ""
        assert not list(out.glob("check_*.json"))

    def test_evi_entropy_on_rough_data_fails_with_its_reason(self, tmp_path, capsys):
        # a step datum: the spectral heat flow of the final density rings
        # below its negativity floor.  verify used to end in a ValueError
        # with no check file written; now evi_entropy fails with the reason
        # and every requested check file is strict JSON
        x = PeriodicGrid(1, 256, 40.0).axis_coords
        np.savetxt(tmp_path / "step.txt", (np.abs(x) < 3.0).astype(float))
        text = FAST_SCENARIO.replace("grid.n = 128", "grid.n = 256").replace(
            "initial.kind = gaussian", f"initial.kind = from_file\ninitial.path = {tmp_path / 'step.txt'}"
        ).replace("time.num_steps = 4", "time.num_steps = 2").replace(
            "checks = energy_estimate, moment_bound", "checks = " + ", ".join(KNOWN_CHECKS))
        out = tmp_path / "step"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, text)), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert re.search("^FAIL evi_entropy: cannot judge: heat flow produced negativity",
                         capsys.readouterr().out, re.M)
        docs = {name: read_strict_json(out / f"check_{name}.json") for name in KNOWN_CHECKS}
        evi = docs["evi_entropy"]
        assert not evi["passed"] and evi["max_violation"] is None and evi["series"] == []
        assert evi["extra"]["reason"].startswith("heat flow produced negativity")

    def test_one_grid_per_run_directory(self, run_dir):
        _, traj = load_run_directory(run_dir)
        assert traj.config.grid is traj.initial.grid is traj.steps[-1].density.grid

    def test_unknown_check_exits_3(self, run_dir):
        assert main(["verify", str(run_dir), "--checks", "bogus"]) == 3

    @pytest.mark.parametrize("checks", [",", " , ", ""], ids=["comma", "blank_items", "empty"])
    def test_checks_flag_naming_no_check_exits_3(self, run_dir, capsys, checks):
        assert main(["verify", str(run_dir), "--checks", checks]) == 3
        assert "names no check" in capsys.readouterr().err

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
        for rec in traj.steps:
            assert energy_of_values(rec.density.values, sc.config.grid, sc.config.s) == pytest.approx(
                rec.energy, abs=1e-12
            )
            assert entropy(rec.density) == pytest.approx(rec.entropy, abs=1e-12)
            assert second_moment(rec.density) == pytest.approx(rec.second_moment, abs=1e-12)

    def test_stop_reason_round_trips(self, tmp_path):
        text = FAST_SCENARIO.replace("inner.grad_tol = 1e-7", "inner.grad_tol = 1e-7\ninner.max_iters = 1")
        out = tmp_path / "capped"
        assert main(["run", "--scenario", str(write_scenario(tmp_path, text)), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "diagnostics.csv").read_text().splitlines()]
        column = rows[0].index("stop_reason")
        assert [r[column] for r in rows[1:]] == ["max_iters"] * 4
        _, traj = load_run_directory(out)
        assert [rec.stop_reason for rec in traj.steps] == ["max_iters"] * 4

    def test_transport_counters_round_trip(self, tmp_path):
        # 1D: the exact path makes no Sinkhorn pass and the face solve no
        # Krylov application; d = 2: every transport call and Newton solve does
        one_d = FAST_SCENARIO.replace("inner.grad_tol = 1e-7", "inner.grad_tol = 1e-7\ninner.max_iters = 1")
        two_d = one_d.replace("dimension = 1", "dimension = 2").replace(
            "grid.n = 128", "grid.n = 16").replace("grid.box_length = 40.0", "grid.box_length = 12.0").replace(
            "initial.center = 0.0", "initial.center = 0.0 0.0").replace(
            "time.num_steps = 4", "time.num_steps = 1\ntransport.epsilon = 0.2\ntransport.tol = 1e-7")
        for name, text in (("one_d", one_d), ("two_d", two_d)):
            out = tmp_path / name
            assert main(["run", "--scenario", str(write_scenario(tmp_path, text)), "--out", str(out)]) == 0
            rows = [r.split(",") for r in (out / "diagnostics.csv").read_text().splitlines()]
            names = ["transport_calls", "sinkhorn_iters", "krylov_applications", "krylov_unmet"]
            assert rows[0][-5:] == ["stop_reason"] + names
            _, traj = load_run_directory(out)
            counters = [tuple(getattr(rec, c) for c in names) for rec in traj.steps]
            assert counters == [tuple(int(v) for v in r[-4:]) for r in rows[1:]]
            # the call at u_prev and at least one line-search trial
            assert all(calls >= 2 and unmet == 0 for calls, _, _, unmet in counters)
            if name == "one_d":
                assert all(iters == apps == 0 for _, iters, apps, _ in counters)
            else:
                assert all(iters > calls and apps > 0 for calls, iters, apps, _ in counters)
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
    @pytest.mark.parametrize("text", [FAST_SCENARIO, SINKHORN_2D_SCENARIO], ids=["one_d", "two_d"])
    def test_rerun_byte_identical(self, tmp_path, text):
        scen = write_scenario(tmp_path, text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", str(scen), "--out", str(out1)]) == 0
        assert main(["run", "--scenario", str(scen), "--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("text,checks", [
        (FAST_SCENARIO, "energy_estimate,moment_bound,entropy_dissipation,weak_form,evi_entropy"),
        (SINKHORN_2D_SCENARIO, "energy_estimate,moment_bound,entropy_dissipation,weak_form"),
    ], ids=["one_d", "two_d"])
    def test_verify_twice_byte_identical(self, tmp_path, text, checks):
        scen = write_scenario(tmp_path, text)
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
        # some checks FAIL on these coarse fixtures (exit 1): the verdicts
        # and files must repeat all the same
        codes, written = [], []
        for _ in range(2):
            codes.append(main(["verify", str(out), "--checks", checks]))
            written.append({p.name: p.read_bytes() for p in sorted(out.glob("check_*.json"))})
        assert codes[0] in (0, 1) and codes[0] == codes[1]
        assert len(written[0]) == len(checks.split(","))
        assert written[0] == written[1]


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
        [["--s-list", "1,-1"], ["--s-list", "1,abc"], ["--s-list", "1,nan"],
         ["--tau-list", "4e-3,abc"], ["--tau-list", "2e-3,1e-3", "--s-list", "0.5,1.5"],
         ["--s-list", "0.5,1.5", "--horizon", "5", "--r", "3"], ["--tau-list", "2e-3", "--horizon", "0"],
         ["--tau-list", "2e-3,1e-3", "--r=-inf"], ["--s-list", "1,300"]],
        ids=["negative_s", "word_in_s", "nan_s", "word_in_tau", "tau_and_s_lists",
             "s_list_with_tau_flags", "zero_horizon", "infinite_r", "overflowing_s"],
    )
    def test_bad_list_exits_3_before_any_run(self, tmp_path, capsys, extra):
        # every entry is checked first: no order runs and no --out is made;
        # a flag the sweep would ignore (a second list, --horizon or --r on an
        # s sweep) is refused, and an explicit --horizon 0 is not the default;
        # --r=-inf (a bare -inf parses as a flag) used to run every solve; at
        # s = 300 the symbol (max |xi|^2)^(1 + s) = 25.3^301 overflows, and the
        # order used to end its run in a traceback (exit 1)
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "bad"
        assert main(["sweep", "--scenario", str(scen), "--out", str(out)] + extra) == 3
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--tau-list", "2e-3,1e-3"], ["--s-list", "1,2"]],
                             ids=["tau_list", "s_list"])
    def test_bad_initial_datum_exits_3(self, tmp_path, capsys, extra):
        # an infinite variance used to end the sweep in a traceback (exit 1)
        text = FAST_SCENARIO.replace("initial.variance = 1.0", "initial.variance = inf")
        scen = write_scenario(tmp_path, text)
        assert main(["sweep", "--scenario", str(scen), "--out", str(tmp_path / "x")] + extra) == 3
        assert "variance must be finite" in capsys.readouterr().err

    def test_failed_tau_sweep_run_exits_2(self, tmp_path, capsys):
        # a starved Sinkhorn solver fails the first step: the same solver
        # failure (exit 2) as `fracfilm run`, not a traceback
        scen = write_scenario(tmp_path, SINKHORN_2D_SCENARIO + "transport.max_iter = 2\n")
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "run")]) == 2
        code = main(["sweep", "--scenario", str(scen), "--out", str(tmp_path / "sweep"),
                     "--tau-list", "2e-2,1e-2"])
        assert code == 2
        assert "solver failure: refinement run at tau=0.02 failed" in capsys.readouterr().err

    def test_tau_sweep_with_zero_gaps_writes_strict_json(self, tmp_path):
        # uniform data never moves, so every gap is 0 and no rate exists:
        # null in the JSON (not Infinity), nan in the CSV
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "flat"
        code = main(["sweep", "--scenario", str(scen), "--out", str(out), "--tau-list", "4e-3,2e-3,1e-3",
                     "--horizon", "8e-3"])
        assert code == 0
        doc = read_strict_json(out / "tau_refinement.json")
        assert doc["l2h_gaps"] == [0.0, 0.0]
        assert doc["rates"] == [None]
        assert doc["cauchy_monotone"] is True  # a pair of zero gaps does not increase
        rows = (out / "tau_refinement.csv").read_text().splitlines()
        assert [row.split(",")[-1] for row in rows[1:]] == ["nan", "nan"]

    def test_s_sweep_runs_and_verifies(self, tmp_path):
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "ssweep"
        code = main(["sweep", "--scenario", str(scen), "--out", str(out), "--s-list", "0.5,1.5"])
        assert code == 0
        for sv in ("0.5", "1.5"):
            rd = out / f"s_{sv}"
            assert rd.is_dir()
            assert main(["verify", str(rd)]) == 0

    def test_s_sweep_is_run_at_each_order(self, tmp_path):
        # a sweep order writes the bytes `fracfilm run` writes at that order;
        # only the manifest differs (normalised text, name <name>_s<order>)
        out = tmp_path / "ssweep"
        scen = write_scenario(tmp_path, FAST_SCENARIO)
        assert main(["sweep", "--scenario", str(scen), "--out", str(out), "--s-list", "0.5,1.5"]) == 0
        for sv in ("0.5", "1.5"):
            one = write_scenario(tmp_path, FAST_SCENARIO.replace("equation.s = 1.0", f"equation.s = {sv}"),
                                 name=f"s{sv}.cfg")
            ran, swept = tmp_path / f"run_{sv}", out / f"s_{sv}"
            assert main(["run", "--scenario", str(one), "--out", str(ran)]) == 0
            names = sorted(p.name for p in ran.iterdir() if p.name != "manifest.json")
            assert names == sorted(p.name for p in swept.iterdir() if p.name != "manifest.json")
            assert "diagnostics.csv" in names and "density_000004.txt" in names
            for name in names:
                assert (swept / name).read_bytes() == (ran / name).read_bytes(), (sv, name)

    def test_sweep_without_lists_exits_3(self, tmp_path):
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        assert main(["sweep", "--scenario", str(scen), "--out", str(tmp_path / "y")]) == 3

    @pytest.mark.parametrize("s_list", ["1,1", "1,1.0000001"], ids=["equal", "same_name"])
    def test_orders_sharing_a_run_directory_exit_3(self, tmp_path, capsys, s_list):
        # both orders used to be run into s_1, the second over the first
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "clash"
        code = main(["sweep", "--scenario", str(scen), "--out", str(out), "--s-list", s_list])
        assert code == 3
        second = s_list.split(",")[1]
        assert f"orders 1.0 and {float(second)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3", "2"])
    def test_threads_other_than_one_exits_3(self, tmp_path, capsys, threads):
        # --threads is retired: sweeps run serially, and only 1 is accepted
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "t"
        code = main(["sweep", "--scenario", str(scen), "--out", str(out),
                     "--s-list", "0.5,1.0", "--threads", threads])
        assert code == 3
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_one_runs(self, tmp_path, capsys):
        # old command lines that pass --threads 1 still run every order
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        out = tmp_path / "t1"
        code = main(["sweep", "--scenario", str(scen), "--out", str(out),
                     "--s-list", "0.5,1.0", "--threads", "1"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["s = 0.5: ok", "s = 1: ok"]
        assert sorted(p.name for p in out.iterdir()) == ["s_0.5", "s_1"]


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--scenario", "x.cfg", "--out", "o", "--s-list", "1", "--bogus", "1"],
         ["run"],
         ["sweep", "--scenario", "x.cfg", "--out", "o", "--s-list", "1", "--threads", "x"],
         ["sweep", "--scenario", "x.cfg", "--out", "o", "--s-list", "1", "--threads", "2"]],
        ids=["unknown_flag", "missing_required_flag", "bad_int", "retired_value"],
    )
    def test_usage_error_exits_3(self, capsys, argv):
        # argparse's own errors are usage errors (3), not solver failures (2)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: fracfilm")
        assert "config error: " in err

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=["top", "sweep"])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: fracfilm" in capsys.readouterr().out

    def test_python_m_fracfilm_runs_the_cli(self):
        # `python3 -m fracfilm` from a checkout, with only src/ on the path
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "fracfilm", "print-config",
             "--scenario", str(root / "scenarios" / "reference.cfg")],
            env={**os.environ, "PYTHONPATH": str(Path(fracfilm.__file__).resolve().parents[1])},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("name = reference\n")

    def test_readme_commands_parse(self):
        # doc-drift guard: every `fracfilm ...` line of the README's Commands
        # block parses, so a retired value or a misspelt flag fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Commands:", 1)[1].split("\n\n", 2)[1]
        commands = block.replace("\\\n", " ").splitlines()
        assert len(commands) >= 5
        for line in commands:
            argv = shlex.split(line)
            assert argv[0] == "fracfilm", line
            build_parser().parse_args(argv[1:])

    def test_readme_layout_names_every_module(self):
        # doc-drift guard: the README's Layout block lists exactly the
        # modules of the package
        root = Path(__file__).resolve().parents[1]
        block = (root / "README.md").read_text().split("## Layout", 1)[1].split("\n\n", 2)[1]
        listed = [line.split()[0] for line in block.splitlines()]
        modules = sorted(str(p.relative_to(root)) for p in (root / "src" / "fracfilm").glob("*.py"))
        assert sorted(listed) == modules
        assert len(listed) == len(set(listed))


class TestPrintConfig:
    def test_echo_normalized(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, FAST_SCENARIO)
        assert main(["print-config", "--scenario", str(scen)]) == 0
        out = capsys.readouterr().out
        assert "grid.n = 128" in out
        assert parse_scenario(out).name == "smoke"

    @pytest.mark.parametrize(
        "old, new, message",
        [("initial.variance = 1.0", "initial.variance = inf", "variance must be finite"),
         ("initial.kind = gaussian", "initial.kind = from_file\ninitial.path = /nonexistent/u0.txt",
          "/nonexistent/u0.txt")],
        ids=["infinite_variance", "missing_file"],
    )
    def test_initial_datum_run_refuses_exits_3(self, tmp_path, capsys, old, new, message):
        # such a scenario used to be echoed with exit 0
        scen = write_scenario(tmp_path, FAST_SCENARIO.replace(old, new))
        assert main(["print-config", "--scenario", str(scen)]) == 3
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


STARTUP_PROBE = """\
import importlib.abc
import json
import sys

leaked = []  # every scipy import the probe attempts, each refused


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] == "scipy":
            leaked.append(name)
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())

import fracfilm as ff
from fracfilm.cli import main

random = []  # numpy.random loaded, after each run, verify, push-forward and identity
for scen in sys.argv[1:]:
    assert main(["run", "--scenario", scen, "--out", scen + ".run"]) == 0
    random.append("numpy.random" in sys.modules)
    assert main(["verify", scen + ".run"]) in (0, 1)  # 1: a FAIL verdict, not an error
    random.append("numpy.random" in sys.modules)
grid = ff.PeriodicGrid(1, 256, 40.0)
u = ff.gaussian_density(grid, 0.0, 1.0)
field = ff.contraction_field(1, 9.0, 14.0)
pushed, drift = ff.pushforward_with_drift(u, field, 1e-2)
random.append("numpy.random" in sys.modules)
norm = ff.sobolev_norm_sq(u.values, grid, 0.5)
identity = ff.derivative_identity_check(u, field, 1.5).to_dict()
random.append("numpy.random" in sys.modules)
print(json.dumps({"leaked": leaked, "random": random, "pushed": pushed.values.tolist(),
                  "drift": drift, "norm": norm, "identity": identity}))
"""


class TestStartup:
    def test_run_and_verify_never_import_scipy(self, tmp_path):
        # a fresh interpreter that refuses every scipy import, since this one
        # has loaded scipy already: run and verify (every check in 1D, a
        # Sinkhorn run in d = 2), the push-forward, the kink-corrected norm
        # and the derivative identity work without it, and none of them
        # loads numpy.random
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
        assert got["random"] == [False] * 6  # field checks sample fixed point sets
        grid = PeriodicGrid(1, 256, 40.0)
        u = gaussian_density(grid, 0.0, 1.0)
        field = contraction_field(1, 9.0, 14.0)
        pushed, drift = pushforward_with_drift(u, field, 1e-2)
        assert got["pushed"] == pushed.values.tolist()
        assert got["drift"] == drift
        assert got["norm"] == sobolev_norm_sq(u.values, grid, 0.5)
        assert got["identity"] == derivative_identity_check(u, field, 1.5).to_dict()
        assert got["identity"]["passed"]

    @pytest.mark.parametrize("name", ["FAST_SCENARIO", "SINK2D_SCENARIO"])
    def test_run_and_verify_emit_no_warning(self, tmp_path, name):
        # a fresh interpreter with every warning an error: a numpy
        # RuntimeWarning on the run or verify path fails the command
        scen = write_scenario(tmp_path, globals()[name])
        out = tmp_path / "run"
        env = {**os.environ, "PYTHONPATH": str(Path(fracfilm.__file__).resolve().parents[1])}
        for argv in (["run", "--scenario", str(scen), "--out", str(out)], ["verify", str(out)]):
            done = subprocess.run([sys.executable, "-W", "error", "-m", "fracfilm", *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr


# the d = 2 Sinkhorn benchmark workload (sink2d) at its default mixture, three steps
SINK2D_SCENARIO = """\
name = sink2d
dimension = 2
grid.n = 48
grid.box_length = 16.0
equation.s = 1.0
time.tau = 1e-2
time.num_steps = 3
initial.kind = gaussian_mixture
initial.components = 0.6 : -1.0 0.5 : 0.8 ; 0.4 : 1.2 -0.6 : 1.0
transport.epsilon = 0.1
transport.max_iter = 5000
transport.tol = 1e-7
inner.max_iters = 3
inner.grad_tol = 1e-3
checks = energy_estimate, moment_bound, entropy_dissipation, weak_form
"""


@pytest.fixture(scope="module")
def sink2d_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sink2d")
    out = tmp / "run"
    assert main(["run", "--scenario", str(write_scenario(tmp, SINK2D_SCENARIO)), "--out", str(out)]) == 0
    return out


class TestSinkhorn2DRun:
    def test_first_step_sinkhorn_passes(self, sink2d_run):
        # over-relaxed warm starts: the first step took 601 passes without them
        row = (sink2d_run / "diagnostics.csv").read_text().splitlines()[1].split(",")
        assert int(row[11]) <= 400

    def test_three_steps_converge_and_pass_every_check(self, sink2d_run):
        sc, traj = load_run_directory(sink2d_run)
        assert [rec.stop_reason for rec in traj.steps] == ["converged"] * 3
        for k in range(4):
            assert abs(traj.density_at_step(k).mass() - 1.0) <= 1e-12
        initial = json.loads((sink2d_run / "manifest.json").read_text())["initial"]["energy"]
        energies = [initial] + [rec.energy for rec in traj.steps]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert main(["verify", str(sink2d_run)]) == 0
        for name in sc.checks:
            assert json.loads((sink2d_run / f"check_{name}.json").read_text())["passed"]


def count_initial_energies(monkeypatch, initial):
    """Make every module binding of `energy_of_values` count its calls on the
    values of the density `initial`; returns the list that collects them."""
    original = fracfilm.energy_of_values
    calls = []

    def counting(values, grid, s):
        if np.array_equal(values, initial.values):
            calls.append(s)
        return original(values, grid, s)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fracfilm" and getattr(module, "energy_of_values", None) is original:
            monkeypatch.setattr(module, "energy_of_values", counting)
    return calls


class TestInitialScalarsOnce:
    def test_one_initial_energy_per_verify_in_1d(self, run_dir, monkeypatch):
        _, traj = load_run_directory(run_dir)
        calls = count_initial_energies(monkeypatch, traj.initial)
        assert [rep.name for rep in run_checks(traj, KNOWN_CHECKS)] == KNOWN_CHECKS
        assert len(calls) == 1

    def test_one_initial_energy_per_verify_in_2d(self, sink2d_run, monkeypatch):
        _, traj = load_run_directory(sink2d_run)
        checks = [c for c in KNOWN_CHECKS if c != "evi_entropy"]
        calls = count_initial_energies(monkeypatch, traj.initial)
        assert [rep.name for rep in run_checks(traj, checks)] == checks
        assert len(calls) == 1

    def test_one_initial_energy_per_run(self, tmp_path, monkeypatch):
        # the manifest's initial block holds the one energy of u0 a run computes
        scen = write_scenario(tmp_path, FAST_SCENARIO)
        calls = count_initial_energies(monkeypatch, load_scenario(scen).initial_density())
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "run")]) == 0
        assert len(calls) == 1


class TestContinuumNormOffRunAndVerify:
    def test_no_sobolev_norm_call_at_fractional_order(self, tmp_path, monkeypatch):
        # at s = 0.5 the entropy check's order 1 + s is fractional, where the
        # continuum norm would differ from the scheme's lattice sum
        calls = []
        original = fracfilm.spectral.sobolev_norm_sq

        def counting(*args, **kwargs):
            calls.append(args[2:])
            return original(*args, **kwargs)

        for module in (fracfilm.spectral, fracfilm.analysis):
            monkeypatch.setattr(module, "sobolev_norm_sq", counting)
        text = FAST_SCENARIO.replace("equation.s = 1.0", "equation.s = 0.5").replace(
            "time.num_steps = 4", "time.num_steps = 2").replace(
            "checks = energy_estimate, moment_bound", f"checks = {', '.join(KNOWN_CHECKS)}")
        scen = write_scenario(tmp_path, text)
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
        assert main(["verify", str(out)]) in (0, 1)
        assert len(list(out.glob("check_*.json"))) == len(KNOWN_CHECKS)
        assert calls == []


# the stiff1d benchmark workload at its default mixture: one s = 2 step to a
# cap of 500 iterations
STIFF1D_SCENARIO = """\
name = stiff1d
dimension = 1
grid.n = 256
grid.box_length = 40.0
equation.s = 2.0
time.tau = 1e-3
time.num_steps = 1
initial.kind = gaussian_mixture
initial.components = 0.6 : -1.5 : 0.8 ; 0.4 : 2.0 : 1.2
inner.max_iters = 500
inner.grad_tol = 1e-8
checks = energy_estimate, moment_bound, entropy_dissipation, weak_form, evi_entropy
"""


def run_and_verify_in_subprocess(scen, out, threads):
    """`python -m fracfilm run` then `verify` at `threads` BLAS threads; the
    exit codes and every file of the run directory."""
    env = {**os.environ, "PYTHONPATH": str(Path(fracfilm.__file__).resolve().parents[1])}
    env.update({f"{lib}_NUM_THREADS": str(threads) for lib in ("OPENBLAS", "OMP", "MKL")})
    codes = []
    for argv in (["run", "--scenario", str(scen), "--out", str(out)], ["verify", str(out)]):
        done = subprocess.run([sys.executable, "-m", "fracfilm", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode in (0, 1, 2), done.stderr
        codes.append(done.returncode)
    return codes, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestBlasThreads:
    @pytest.mark.parametrize("text", [
        FAST_SCENARIO,
        SINK2D_SCENARIO,
        pytest.param(STIFF1D_SCENARIO, marks=pytest.mark.xfail(
            strict=False, reason="ROADMAP item 3: the 1D face LU depends on the BLAS threads")),
    ], ids=["one_d", "sink2d", "stiff1d"])
    def test_run_directory_independent_of_blas_threads(self, tmp_path, text):
        scen = write_scenario(tmp_path, text)
        one = run_and_verify_in_subprocess(scen, tmp_path / "one", 1)
        two = run_and_verify_in_subprocess(scen, tmp_path / "two", 2)
        assert one[0] == two[0]
        assert sorted(one[1]) == sorted(two[1])
        differing = [name for name in one[1] if one[1][name] != two[1][name]]
        assert differing == []
