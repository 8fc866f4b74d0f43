import json
from dataclasses import replace
from pathlib import Path

import pytest

from fracfilm.cli import main
from fracfilm.scenario import format_scenario, load_run_directory, parse_scenario

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
inner.obj_tol = 0.0
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


def write_scenario(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParsing:
    def test_round_trip_normalized_form(self):
        sc = parse_scenario(FAST_SCENARIO)
        again = parse_scenario(format_scenario(sc))
        assert format_scenario(again) == format_scenario(sc)

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
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("Supported keys:", 1)[1].split("\n\n", 2)[1]
        documented = {line.split()[0] for line in table.splitlines() if line.startswith("    ")}
        sc = parse_scenario(FAST_SCENARIO.replace("initial.kind = gaussian", kind_lines))
        text = format_scenario(replace(sc, output_dir="runs/smoke"))
        written = {line.split(" = ", 1)[0] for line in text.splitlines()}
        assert written - documented == set()


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
        ],
        ids=["odd_n", "negative_s", "exact_in_2d"],
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
        scen = write_scenario(tmp_path, UNIFORM_SCENARIO)
        assert (
            main(["sweep", "--scenario", str(scen), "--out", str(tmp_path / "x"),
                  "--tau-list", "1e-3,2e-3"])
            == 3
        )

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
