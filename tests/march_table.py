"""Time the blocked response march against the per-step march.

For a thermal flat band of n_modes in {16, 64, 256, 1024} and grids of
n_steps in {1024, 4096} on [0, 20], prints one JSON object: per size the
median wall time of `solve_response` (blocked) and of the per-step march
kept in tests/conftest.py, and each one's max |G| error on the grid
against the exact modal oracle of perfbench/modal_oracle.py. Run from the
root of a checkout with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python tests/march_table.py
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

from conftest import marched_response  # noqa: E402
from modal_oracle import ModalOracle  # noqa: E402
from nmqfi.bath import ContinuousSpectrum, OccupationModel, discretize  # noqa: E402
from nmqfi.response import TimeGrid, solve_response  # noqa: E402

MODES = (16, 64, 256, 1024)
STEPS = (1024, 4096)
REPEATS = 3


def timed(solver, bath, grid):
    times, resp = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        resp = solver(bath, grid)
        times.append(time.perf_counter() - start)
    return statistics.median(times), resp


def main():
    spec = ContinuousSpectrum("flat", scale=0.02, cutoff=2.0,
                              occupation=OccupationModel("thermal", 0.5))
    rows = []
    for n_modes in MODES:
        bath = discretize(spec, n_modes, 1.0)
        oracle = ModalOracle(bath.coupling_sq, bath.frequencies,
                             bath.occupations, bath.probe_frequency)
        for n_steps in STEPS:
            grid = TimeGrid(20.0, n_steps)
            exact = oracle.g(grid.times())
            row = {"n_modes": n_modes, "n_steps": n_steps}
            for label, solver in (("step", marched_response),
                                  ("blocked", solve_response)):
                wall, resp = timed(solver, bath, grid)
                row[f"{label}_ms"] = round(1e3 * wall, 2)
                row[f"{label}_g_max_err"] = float(
                    np.abs(resp.g_samples - exact).max())
            row["speedup"] = round(row["step_ms"] / row["blocked_ms"], 2)
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)
    print(json.dumps({"bath": "flat band, scale 0.02, cutoff 2, thermal 0.5, "
                              "omega0 1, t_end 20",
                      "repeats": REPEATS, "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
