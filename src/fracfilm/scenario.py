"""Scenario files, run directories, and trajectory (de)serialization.

A scenario is a flat key-value text file with dotted section names:

    name = reference
    dimension = 1
    grid.n = 256
    grid.box_length = 40.0
    equation.s = 1.0
    time.tau = 1e-3
    time.num_steps = 50
    initial.kind = gaussian          # gaussian | gaussian_mixture | uniform | from_file
    initial.center = 0.0             # space-separated vector for d > 1
    initial.variance = 1.0
    checks = energy_estimate, moment_bound

Lines starting with '#' and blank lines are ignored; '#' also starts an
inline comment.  Values are numbers, words, or comma-separated lists;
mixture components are 'weight : center : variance' triples separated by
;' with space-separated center vectors.  A key outside `KNOWN_KEYS`, or
one given twice, is an error.  The transport backend follows from the
dimension: exact quantile transport in 1D, Sinkhorn otherwise.  So that old
texts and manifests still load, the `RETIRED_KEYS` are accepted at the
value that selects today's behaviour, and refused at any other.

A parsed `Scenario` carries the run's `JkoConfig` (grid, order, step and
solver settings), built once; building it validates those settings.

A run directory contains diagnostics.csv (17 significant digits, one row
per step), one density_??????.txt snapshot per step (k = 0 included), and
manifest.json echoing the scenario text verbatim.  Every JSON file the
package writes goes through `write_json`, which refuses NaN and Infinity.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .jko import STOP_REASONS, InnerConfig, JkoConfig, StepRecord, Trajectory
from .measure import GridDensity, gaussian_density, gaussian_mixture_density, uniform_density
from .spectral import PeriodicGrid
from .transport import TransportConfig


def _count(cell: str) -> int:
    if not re.fullmatch("[0-9]+", cell):
        raise ValueError(f"not a count: {cell!r}")
    return int(cell)


def _finite(cell: str) -> float:
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {cell!r}")
    return x


def _stop_reason(cell: str) -> str:
    if cell not in STOP_REASONS:
        raise ValueError(f"unknown stop reason {cell!r}")
    return cell


# diagnostics.csv, one (column, StepRecord field, cell parser) per column.
# Float cells are written with `_fmt` and must read back finite, the others
# with `str`.  The `k` and `t` columns have no field: they are the row's
# position k, counted from 1, and k * tau.
DIAGNOSTIC_COLUMNS = (
    ("k", None, _count),
    ("t", None, _finite),
    ("energy", "energy", _finite),
    ("entropy", "entropy", _finite),
    ("second_moment", "second_moment", _finite),
    ("w2_sq_step", "w2_sq_to_prev", _finite),
    ("inner_iters", "inner_iterations", _count),
    ("kkt_residual", "kkt_residual", _finite),
    ("boundary_mass", "boundary_mass", _finite),
    ("stop_reason", "stop_reason", _stop_reason),
    ("transport_calls", "transport_calls", _count),
    ("sinkhorn_iters", "sinkhorn_iters", _count),
    ("krylov_applications", "krylov_applications", _count),
    ("krylov_unmet", "krylov_unmet", _count),
)
CSV_COLUMNS = [column for column, _, _ in DIAGNOSTIC_COLUMNS]

DEFAULT_CHECKS = ["energy_estimate", "moment_bound", "entropy_dissipation", "weak_form"]
KNOWN_CHECKS = DEFAULT_CHECKS + ["evi_entropy"]


class ScenarioError(ValueError):
    """Malformed scenario file or inconsistent settings."""


def validate_checks(checks, dimension: int) -> None:
    """Reject unknown check names, and `evi_entropy` (exact 1D transport) unless d = 1."""
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise ScenarioError(f"unknown check {c!r}; known: {', '.join(KNOWN_CHECKS)}")
        if c == "evi_entropy" and dimension != 1:
            raise ScenarioError(
                f"check 'evi_entropy' uses exact 1D transport and needs dimension 1, got {dimension}"
            )


@dataclass(frozen=True)
class Scenario:
    """One run: carries the `JkoConfig` it runs, plus its step count, initial
    datum, checks and output directory."""

    name: str
    config: JkoConfig
    num_steps: int
    initial_kind: str
    initial_center: tuple = (0.0,)
    initial_variance: float = 1.0
    initial_components: tuple = ()
    initial_path: Optional[str] = None
    checks: tuple = tuple(DEFAULT_CHECKS)
    output_dir: Optional[str] = None
    raw_text: str = ""

    def initial_density(self) -> GridDensity:
        """The initial datum; ScenarioError when its settings or file are bad."""
        grid = self.config.grid
        kind = self.initial_kind
        try:
            if kind == "gaussian":
                return gaussian_density(grid, np.array(self.initial_center), self.initial_variance)
            if kind == "gaussian_mixture":
                comps = [(w, np.array(c), v) for (w, c, v) in self.initial_components]
                return gaussian_mixture_density(grid, comps)
            if kind == "uniform":
                return uniform_density(grid)
            if kind == "from_file":
                path = Path(self.initial_path or "")
                if not path.is_file():
                    raise ScenarioError(f"initial datum file not found: {path}")
                vals = _read_density_file(path, grid)
                return GridDensity.normalized(grid, vals)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        raise ScenarioError(f"unknown initial datum kind {kind!r}")


def _parse_kv(text: str) -> dict:
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key in kv:
            raise ScenarioError(f"line {lineno}: key {key!r} given twice")
        kv[key] = val.strip()
    return kv


def _as_float(kv, key, default=None):
    if key not in kv:
        if default is None:
            raise ScenarioError(f"missing required key {key!r}")
        return default
    try:
        return float(kv[key])
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: not a number: {kv[key]!r}") from exc


def _as_int(kv, key, default=None):
    v = _as_float(kv, key, default)
    if not np.isfinite(v) or v != int(v):
        raise ScenarioError(f"key {key!r}: expected an integer, got {v}")
    return int(v)


def _as_vector(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def parse_scenario(text: str) -> Scenario:
    kv = _parse_kv(text)
    try:
        scenario = _scenario_from_keys(kv, text)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    if scenario.num_steps < 0:
        raise ScenarioError("time.num_steps must be nonnegative")
    return scenario


KNOWN_KEYS = (
    "name", "dimension", "grid.n", "grid.box_length", "equation.s", "time.tau",
    "time.num_steps", "initial.kind", "initial.center", "initial.variance",
    "initial.components", "initial.path", "transport.epsilon", "transport.max_iter",
    "transport.tol", "inner.max_iters", "inner.grad_tol", "checks", "output.dir",
)
RETIRED_KEYS = ("inner.obj_tol", "output.snapshot_stride", "transport.method")


def _check_retired(kv: dict, dimension: int) -> None:
    """Accept a retired key only at the value that selects today's behaviour."""
    def refuse(key, allowed):
        raise ScenarioError(f"retired key {key!r} accepts only {allowed}, got {kv[key]!r}")

    if "inner.obj_tol" in kv and _as_float(kv, "inner.obj_tol") != 0:
        refuse("inner.obj_tol", "0 (no objective-decrease stop)")
    if "output.snapshot_stride" in kv and _as_int(kv, "output.snapshot_stride") != 1:
        refuse("output.snapshot_stride", "1 (every step is written)")
    backend = "exact" if dimension == 1 else "sinkhorn"
    if kv.get("transport.method", "auto") not in ("auto", backend):
        refuse("transport.method", f"'auto' or {backend!r} in dimension {dimension}")


def _scenario_from_keys(kv: dict, text: str) -> Scenario:
    unknown = [key for key in kv if key not in KNOWN_KEYS + RETIRED_KEYS]
    if unknown:
        raise ScenarioError(f"unknown scenario key {unknown[0]!r}")
    kind = kv.get("initial.kind", "gaussian")
    components = ()
    if kind == "gaussian_mixture":
        spec = kv.get("initial.components", "")
        comps = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            fields = [p.strip() for p in part.split(":")]
            if len(fields) != 3:
                raise ScenarioError(f"mixture component {part!r}: expected weight : center : variance")
            comps.append((float(fields[0]), _as_vector(fields[1]), float(fields[2])))
        if not comps:
            raise ScenarioError("gaussian_mixture initial datum needs initial.components")
        components = tuple(comps)
    checks = kv.get("checks", ", ".join(DEFAULT_CHECKS))
    checks = tuple(c.strip() for c in checks.split(",") if c.strip())
    if not checks:
        raise ScenarioError(f"checks {kv['checks']!r} names no check")
    dimension = _as_int(kv, "dimension", 1)
    _check_retired(kv, dimension)
    validate_checks(checks, dimension)
    config = JkoConfig(
        grid=PeriodicGrid(dimension, _as_int(kv, "grid.n"), _as_float(kv, "grid.box_length")),
        s=_as_float(kv, "equation.s"),
        tau=_as_float(kv, "time.tau"),
        inner=InnerConfig(
            max_iters=_as_int(kv, "inner.max_iters", InnerConfig.max_iters),
            grad_tol=_as_float(kv, "inner.grad_tol", InnerConfig.grad_tol),
        ),
        transport=TransportConfig(
            epsilon=_as_float(kv, "transport.epsilon", TransportConfig.epsilon),
            max_iter=_as_int(kv, "transport.max_iter", TransportConfig.max_iter),
            tol=_as_float(kv, "transport.tol", TransportConfig.tol),
        ),
    )
    return Scenario(
        name=kv.get("name", "unnamed"),
        config=config,
        num_steps=_as_int(kv, "time.num_steps"),
        initial_kind=kind,
        initial_center=(_as_vector(kv["initial.center"]) if "initial.center" in kv
                        else Scenario.initial_center),
        initial_variance=_as_float(kv, "initial.variance", Scenario.initial_variance),
        initial_components=components,
        initial_path=kv.get("initial.path"),
        checks=checks,
        output_dir=kv.get("output.dir"),
        raw_text=text,
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    return parse_scenario(path.read_text())


def format_scenario(sc: Scenario) -> str:
    """Normalized flat key-value rendering (reparses to an equal Scenario)."""
    cfg = sc.config
    lines = [
        f"name = {sc.name}",
        f"dimension = {cfg.grid.dim}",
        f"grid.n = {cfg.grid.n}",
        f"grid.box_length = {cfg.grid.box_length!r}",
        f"equation.s = {cfg.s!r}",
        f"time.tau = {cfg.tau!r}",
        f"time.num_steps = {sc.num_steps}",
        f"initial.kind = {sc.initial_kind}",
    ]
    if sc.initial_kind == "gaussian":
        lines.append("initial.center = " + " ".join(repr(c) for c in sc.initial_center))
        lines.append(f"initial.variance = {sc.initial_variance!r}")
    elif sc.initial_kind == "gaussian_mixture":
        comps = " ; ".join(
            f"{w!r} : {' '.join(repr(x) for x in c)} : {v!r}" for (w, c, v) in sc.initial_components
        )
        lines.append(f"initial.components = {comps}")
    elif sc.initial_kind == "from_file":
        lines.append(f"initial.path = {sc.initial_path}")
    lines += [
        f"transport.epsilon = {cfg.transport.epsilon!r}",
        f"transport.max_iter = {cfg.transport.max_iter}",
        f"transport.tol = {cfg.transport.tol!r}",
        f"inner.max_iters = {cfg.inner.max_iters}",
        f"inner.grad_tol = {cfg.inner.grad_tol!r}",
        "checks = " + ", ".join(sc.checks),
    ]
    if sc.output_dir:
        lines.append(f"output.dir = {sc.output_dir}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# run directory I/O


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _density_filename(k: int) -> str:
    return f"density_{k:06d}.txt"


def write_density_file(path, u: GridDensity):
    """The header `# u`, then one value per cell, row-major, to 17
    significant digits ('%.17g' % x == _fmt(x)), so values round-trip
    bit-exactly.  The coordinates follow from the grid and are not written."""
    values = u.values.ravel().tolist()
    with open(path, "w") as fh:
        fh.write("# u\n")
        fh.write(("%.17g\n" * len(values)) % tuple(values))


def _read_density_file(path, grid: PeriodicGrid) -> np.ndarray:
    """The last column of a density file: one value per grid cell.  Snapshots
    hold the value alone; files with coordinate columns before it (the
    layout of older snapshots) load too."""
    try:
        with warnings.catch_warnings():  # an empty file is reported below
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(path, usecols=-1, ndmin=1)
    except ValueError as exc:
        raise ScenarioError(f"density file {path} is malformed: {exc}") from None
    if arr.size != grid.size:
        raise ScenarioError(
            f"density file {path} has {arr.size} rows, grid needs {grid.size}"
        )
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"density file {path} holds a non-finite value")
    return arr.reshape(grid.shape)


def _diagnostic_cells(k: int, rec: StepRecord, tau: float):
    """The diagnostics.csv cells of step k, column by column."""
    position = {"k": k, "t": k * tau}
    for column, attr, parse in DIAGNOSTIC_COLUMNS:
        x = position[column] if attr is None else getattr(rec, attr)
        yield _fmt(x) if parse is _finite else str(x)


def write_run_directory(out_dir, sc: Scenario, traj: Trajectory):
    """Persist diagnostics CSV, density snapshots, and the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "diagnostics.csv", "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for k, rec in enumerate(traj.steps, start=1):
            fh.write(",".join(_diagnostic_cells(k, rec, sc.config.tau)) + "\n")
    for k in range(traj.num_steps + 1):
        write_density_file(out / _density_filename(k), traj.density_at_step(k))
    manifest = {
        "scenario_text": sc.raw_text or format_scenario(sc),
        "code_version": _package_version(),
        "status": traj.status,
        "num_steps": traj.num_steps,
        "initial": {
            "energy": traj.initial_energy,
            "entropy": traj.initial_entropy,
            "second_moment": traj.initial_moment,
            "boundary_mass": traj.initial_boundary_mass,
        },
    }
    write_json(out / "manifest.json", manifest)


def write_json(path, doc) -> None:
    """Write `doc` as strict JSON (no NaN or Infinity), indented, keys sorted."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _package_version() -> str:
    from . import __version__

    return __version__


def _read_snapshot(run: Path, k: int, grid: PeriodicGrid) -> GridDensity:
    snap = run / _density_filename(k)
    if not snap.is_file():
        raise ScenarioError(f"density snapshot for step {k} missing ({snap})")
    values = _read_density_file(snap, grid)
    try:
        return GridDensity(grid, values)
    except ValueError as exc:  # a negative value, or a mass other than 1
        raise ScenarioError(f"density snapshot {snap}: {exc}") from None


def load_run_directory(run_dir):
    """Rebuild (Scenario, Trajectory) from a run directory.

    Snapshot values and CSV diagnostics round-trip float64 exactly (17
    significant digits), so reconstructed records match the in-memory run.
    A malformed directory, a non-finite diagnostics cell, a row whose `k`
    is not its row number, or a finished run (status ok) without one row
    per step raises ScenarioError.
    """
    run = Path(run_dir)
    manifest_path = run / "manifest.json"
    if not manifest_path.is_file():
        raise ScenarioError(f"not a run directory (no manifest.json): {run}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise ScenarioError(f"manifest {manifest_path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("scenario_text"), str):
        raise ScenarioError(f"manifest {manifest_path} holds no scenario_text")
    sc = parse_scenario(manifest["scenario_text"])
    grid = sc.config.grid
    initial = _read_snapshot(run, 0, grid)
    csv_path = run / "diagnostics.csv"
    if not csv_path.is_file():
        raise ScenarioError(f"not a run directory (no diagnostics.csv): {run}")
    rows = []
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        if header != CSV_COLUMNS:
            raise ScenarioError(f"unexpected diagnostics columns {header}")
        for k, line in enumerate(fh, start=1):
            parts = line.strip().split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ScenarioError(f"malformed diagnostics row {line!r}: {len(parts)} cells")
            try:
                cells = [parse(c) for c, (_, _, parse) in zip(parts, DIAGNOSTIC_COLUMNS)]
            except ValueError as exc:
                raise ScenarioError(f"malformed diagnostics row {line!r}: {exc}") from None
            if cells[0] != k:  # a row that skips or repeats a step
                raise ScenarioError(f"diagnostics {csv_path}: row {k} holds step {cells[0]}")
            rows.append({attr: x for x, (_, attr, _) in zip(cells, DIAGNOSTIC_COLUMNS) if attr})
    steps = [StepRecord(density=_read_snapshot(run, k, grid), **row)
             for k, row in enumerate(rows, start=1)]
    traj = Trajectory(sc.config, initial, steps, status=manifest.get("status", "ok"))
    if traj.status == "ok" and traj.num_steps != sc.num_steps:
        raise ScenarioError(f"diagnostics {csv_path}: the run finished {sc.num_steps} steps "
                            f"but has rows for {traj.num_steps}")
    return sc, traj
