from pathlib import Path

import pytest

from fracfilm import run
from fracfilm.scenario import load_scenario


@pytest.fixture(scope="session")
def reference_trajectory():
    """The reference scenario as shipped in `scenarios/reference.cfg`."""
    sc = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "reference.cfg")
    return run(sc.initial_density(), sc.config, sc.num_steps)
