"""Seeded workload generator: one scenario text per (workload, seed).

The program only ever sees the text this module returns.  Seed 0 gives the
default mixtures; any other seed draws new weights and centres (stiff1d)
or a new position of the mixture (sink2d), as set out below.  Variances,
grids and solver settings never depend on the seed, so a seed changes the
data but not the kind of work.

`ref1d` is the shipped reference scenario and ignores the seed.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

# Mixture components as (weight, centre, variance); weights of a mixture sum
# to one.
#
# stiff1d draws the first weight and every centre coordinate from the
# (low, high) ranges below, which include the default.  Box half-width 20:
# the widest component has sd 1.1, so |c| <= 2.3 keeps the mass at least
# 16 sd from the box edge.  Every step runs to inner.max_iters, so the
# solver's work does not depend on the draw.
#
# sink2d moves the whole default mixture by a whole number of grid cells,
# up to `shift_cells` per axis.  Changing its shape instead changes the
# number of line-search backtracks in the capped step by up to 1.8x (36 to
# 64 objective evaluations over five draws), and run_s would then measure
# the draw rather than the code; a shift by whole cells leaves the work
# unchanged to within 1 %.  Box half-width 8: the default already puts the
# unit-variance component 6.8 sd from the edge (a 10 sd margin does not
# fit in this box); the largest shift brings it to 6.1 sd.
_MIXTURES = {
    "stiff1d": {
        "default": ((0.6, (-1.5,), 0.8), (0.4, (2.0,), 1.2)),
        "weight": (0.5, 0.7),
        "centres": (((-1.8, -1.2),), ((1.7, 2.3),)),
    },
    "sink2d": {
        "default": ((0.6, (-1.0, 0.5), 0.8), (0.4, (1.2, -0.6), 1.0)),
        "shift_cells": 2,
        "cell": 16.0 / 48,
    },
}

# Per workload: steps per repetition and the scenario body.  `{components}`
# is filled by the generator.  A repetition is kept to one or two seconds,
# so that a run holds many of them: ref1d is scenarios/reference.cfg with 2
# of its 50 steps and the 1D-only evi_entropy check added to its checks;
# stiff1d makes one step to an iteration cap of 1000; sink2d is the d = 2
# step of the solver tests with inner.max_iters cut from 60 to 3 (one step
# costs 42 s at 60 on a 2-core Xeon).  Each step still ends unconverged,
# and at the shorter caps the checks give the same verdicts (stiff1d at
# 1000 and 2000; sink2d at 3, 5, 20 and 60).
_BODIES = {
    "ref1d": """\
name = ref1d
dimension = 1
grid.n = 256
grid.box_length = 40.0
equation.s = 1.0
time.tau = 1e-3
time.num_steps = {steps}
initial.kind = gaussian
initial.center = 0.0
initial.variance = 1.0
inner.grad_tol = 1e-8
inner.obj_tol = 0.0
checks = energy_estimate, moment_bound, entropy_dissipation, weak_form, evi_entropy
output.snapshot_stride = 1
""",
    "stiff1d": """\
name = stiff1d
dimension = 1
grid.n = 256
grid.box_length = 40.0
equation.s = 2.0
time.tau = 1e-3
time.num_steps = {steps}
initial.kind = gaussian_mixture
initial.components = {components}
inner.max_iters = 500
inner.grad_tol = 1e-8
inner.obj_tol = 0.0
checks = energy_estimate, moment_bound, entropy_dissipation, weak_form, evi_entropy
output.snapshot_stride = 1
""",
    "sink2d": """\
name = sink2d
dimension = 2
grid.n = 48
grid.box_length = 16.0
equation.s = 1.0
time.tau = 1e-2
time.num_steps = {steps}
initial.kind = gaussian_mixture
initial.components = {components}
transport.method = sinkhorn
transport.epsilon = 0.1
transport.max_iter = 5000
transport.tol = 1e-7
inner.max_iters = 3
inner.grad_tol = 1e-3
inner.obj_tol = 0.0
checks = energy_estimate, moment_bound, entropy_dissipation, weak_form
output.snapshot_stride = 1
""",
}

STEPS = {"ref1d": 2, "stiff1d": 1, "sink2d": 1}
WORKLOADS = tuple(_BODIES)


def _components(workload: str, seed: int):
    spec = _MIXTURES[workload]
    if seed == DEFAULT_SEED:
        return spec["default"]
    rng = random.Random(f"{workload}:{seed}")
    if "shift_cells" in spec:
        k = spec["shift_cells"]
        shift = [rng.randint(-k, k) * spec["cell"] for _ in spec["default"][0][1]]
        return tuple((w, tuple(x + d for x, d in zip(c, shift)), v)
                     for w, c, v in spec["default"])
    w1 = round(rng.uniform(*spec["weight"]), 3)
    weights = (w1, round(1.0 - w1, 3))
    return tuple(
        (w, tuple(round(rng.uniform(lo, hi), 3) for lo, hi in ranges), var)
        for w, ranges, (_, _, var) in zip(weights, spec["centres"], spec["default"])
    )


def _format_components(components) -> str:
    return " ; ".join(
        f"{w!r} : {' '.join(repr(x) for x in c)} : {v!r}" for w, c, v in components
    )


def scenario_text(workload: str, seed: int) -> str:
    """The scenario file for `workload` and `seed`."""
    if workload not in _BODIES:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    fill = {"steps": STEPS[workload]}
    if workload in _MIXTURES:
        fill["components"] = _format_components(_components(workload, seed))
    return _BODIES[workload].format(**fill)


def parse_keys(text: str) -> dict:
    """Flat `key = value` map of a scenario text, read independently of the
    program's own parser so that output checks do not trust it."""
    kv = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, val = line.split("=", 1)
            kv[key.strip()] = val.strip()
    return kv
