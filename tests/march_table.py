"""Time the engine's Chebyshev routes against the routes they replaced.

Prints one JSON object with three tables. In the first two each row
gives the median wall time of `solve_response` (the Chebyshev route) and
of `blocked_response` (the march kept in tests/march.py) and each one's
max |G| error on the grid against the exact modal oracle of
perfbench/modal_oracle.py:

- `scaling`: a thermal flat band of n_modes in {16, 64, 256, 1024} on
  grids of n_steps in {1024, 4096} on [0, 20];
- `jobs`: the bath and grid of every job of the benchmark's workloads
  (perfbench/jobs.py, seed 11) that solves a response.

The third, `propagator`, has one row per flat band of the scaling table:
the median wall time of `DiscreteBath.propagate` (the series) and of the
dense eigh oracle `dense_propagate` of tests/conftest.py for the probe
row of U(tau) at 33 times on [0, 20], each on a freshly built bath, and
the max |difference| between them.

Run from the root of a checkout with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python tests/march_table.py
"""

import json
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import jobs  # noqa: E402
from conftest import dense_propagate  # noqa: E402
from march import blocked_response  # noqa: E402
from modal_oracle import ModalOracle  # noqa: E402
from nmqfi.bath import ContinuousSpectrum, OccupationModel, discretize  # noqa: E402
from nmqfi.config import validate  # noqa: E402
from nmqfi.response import TimeGrid, solve_response  # noqa: E402

MODES = (16, 64, 256, 1024)
STEPS = (1024, 4096)
REPEATS = 5
JOB_SEED = 11
# Subcommands whose run solves no response.
NO_RESPONSE = {"correlation"}


def timed(solver, *args):
    times, result = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = solver(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def row(bath, grid, **labels) -> dict:
    """Both routes' median times and max |G| errors on one bath and grid."""
    oracle = ModalOracle(bath.coupling_sq, bath.frequencies,
                         bath.occupations, bath.probe_frequency)
    exact = oracle.g(grid.times())
    out = {**labels, "n_modes": bath.n_modes, "n_steps": grid.n_steps}
    for label, solver in (("march", blocked_response),
                          ("route", solve_response)):
        wall, resp = timed(solver, bath, grid)
        out[f"{label}_ms"] = round(1e3 * wall, 3)
        out[f"{label}_g_max_err"] = float(np.abs(resp.g_samples - exact).max())
    out["speedup"] = round(out["march_ms"] / out["route_ms"], 1)
    print(json.dumps(out), file=sys.stderr)
    return out


def propagator_row(spec, n_modes: int) -> dict:
    """Median times of the series and the dense eigh for the probe row of
    U(tau) on a fresh bath, and the max |difference| between them."""
    taus = np.linspace(0.0, 20.0, 33)
    w = np.eye(1, n_modes + 1)[0]
    out, rows = {"n_modes": n_modes, "n_times": taus.size}, {}
    for label, route in (("series", lambda bath: bath.propagate(w, taus)),
                         ("eigh", lambda bath: dense_propagate(bath, w, taus))):
        wall, rows[label] = timed(lambda: route(discretize(spec, n_modes, 1.0)))
        out[f"{label}_ms"] = round(1e3 * wall, 3)
    out["max_abs_diff"] = float(np.abs(rows["series"] - rows["eigh"]).max())
    print(json.dumps(out), file=sys.stderr)
    return out


def main():
    spec = ContinuousSpectrum("flat", scale=0.02, cutoff=2.0,
                              occupation=OccupationModel("thermal", 0.5))
    scaling = [row(discretize(spec, n_modes, 1.0), TimeGrid(20.0, n_steps))
               for n_modes in MODES for n_steps in STEPS]
    per_job = []
    for workload in ("single_shot", "shipped", "cadence"):
        for job in jobs.generate(workload, random.Random(JOB_SEED),
                                 ROOT / "scenarios"):
            if job.subcommand in NO_RESPONSE:
                continue
            cfg = validate(job.config)
            bath = cfg.bath()
            per_job.append(row(bath, cfg.grid(bath), workload=workload,
                               job=job.name))
    propagator = [propagator_row(spec, n_modes) for n_modes in MODES]
    print(json.dumps({"scaling_bath": "flat band, scale 0.02, cutoff 2, "
                                      "thermal 0.5, omega0 1, t_end 20",
                      "job_seed": JOB_SEED, "repeats": REPEATS,
                      "scaling": scaling, "jobs": per_job,
                      "propagator": propagator}, indent=1))


if __name__ == "__main__":
    main()
