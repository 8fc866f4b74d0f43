"""Set-up cost of a fresh process: import, parse, initial density, grid caches.

    python3 benchmarks/setup_probe.py SCENARIO_FILE

Prints the seconds taken.  The run itself rebuilds all of this, so set-up
is timed in processes of its own.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import fracfilm  # noqa: E402
from fracfilm.scenario import parse_scenario  # noqa: E402

if Path(fracfilm.__file__).resolve().parent != (ROOT / "src" / "fracfilm").resolve():
    sys.exit(f"fracfilm imported from {fracfilm.__file__}, not from this checkout")

sc = parse_scenario(Path(sys.argv[1]).read_text())
grid = sc.initial_density().grid
for cached in ("axis_coords", "axis_freqs", "coords", "radius_sq", "freq_sq", "_phase"):
    getattr(grid, cached)
print(repr(time.perf_counter() - _T0))
