"""The benchmark's oracle checks, run in-process on its own jobs.

Each workload's jobs (the shipped scenarios and the generated single-shot
and cadence jobs at seed 5) run through `cli.main`; every output must pass
`perfbench/checks.py`, and every cadence optimum must lie within
`SHORTFALL_TOL` of the dense oracle scan. The benchmark itself marks a
failing job only after its timed runs.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from nmqfi.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import jobs  # noqa: E402

JOBS = [job for workload, seed in (("shipped", 0), ("single_shot", 5),
                                   ("cadence", 5))
        for job in jobs.generate(workload, random.Random(seed),
                                 ROOT / "scenarios")]


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job.name)
def test_job_output_passes_the_benchmark_checks(job, tmp_path):
    config, out = tmp_path / f"{job.name}.json", tmp_path / f"{job.name}.out"
    config.write_text(json.dumps(job.config))
    assert main(job.argv(str(config), str(out))) == 0
    result = checks.check(job, out.read_text())
    assert result.ok, result.problems
    assert all(short <= checks.SHORTFALL_TOL
               for _, short in result.shortfalls), result.shortfalls
