"""Compare the CLI outputs of two nmqfi checkouts, scenario by scenario.

    python tests/compare_outputs.py PARENT CHANGE

Runs every file in scenarios/ (the union of both checkouts' file names,
each checkout reading its own copy) through `python -m nmqfi.cli` of each
checkout, with the default format, `--format csv` and `--format json`.
The subcommand is the file-name prefix: `qfi_noiseless_pi.json` runs
`qfi`. Each `estimate_*` scenario also runs once with `--seed 3`. Then
runs the single_shot and cadence benchmark jobs that
perfbench/jobs.py (of this file's checkout) generates for seeds 5 and 7,
each job's config through both checkouts. Compares stdout bytes and exit
codes, prints one line per difference, and exits 1 if there is any, else
0. BLAS runs on one thread so reruns are deterministic. pytest does not
collect this file.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

FORMATS = (None, "csv", "json")
SEED = 3   # the --seed of the extra run of each estimate_* scenario
GENERATED_WORKLOADS = ("single_shot", "cadence")
GENERATED_SEEDS = (5, 7)


def run(checkout: Path, subcommand: str, config: Path, fmt, seed=None):
    """(exit code, stdout bytes) of one CLI run of the checkout."""
    args = [sys.executable, "-m", "nmqfi.cli", subcommand, "--config", str(config)]
    if fmt:
        args += ["--format", fmt]
    if seed is not None:
        args += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(args, cwd=checkout, env=env, capture_output=True,
                          check=False)
    return proc.returncode, proc.stdout


def difference(old, new):
    """One line describing how two runs differ, or None if they agree."""
    if old is None or new is None:
        return f"missing in {'PARENT' if old is None else 'CHANGE'}"
    if old[0] != new[0]:
        return f"exit code {old[0]} -> {new[0]}"
    if old[1] != new[1]:
        return f"stdout differs ({len(old[1])} -> {len(new[1])} bytes)"
    return None


def scenario_runs(parent: Path, change: Path):
    """(label, parent run, change run) for every scenario and format, and
    for every estimate scenario with --seed."""
    names = sorted({p.name for root in (parent, change)
                    for p in (root / "scenarios").glob("*.json")})
    for name in names:
        subcommand = name.split("_")[0]
        variants = [(fmt, None) for fmt in FORMATS]
        if subcommand == "estimate":
            variants.append((None, SEED))
        for fmt, seed in variants:
            old, new = ((run(root, subcommand, root / "scenarios" / name, fmt, seed)
                         if (root / "scenarios" / name).is_file() else None)
                        for root in (parent, change))
            label = f"{name} --format {fmt or 'default'}"
            yield label + ("" if seed is None else f" --seed {seed}"), old, new


def generated_runs(parent: Path, change: Path, scratch: Path):
    """(label, parent run, change run) for every generated benchmark job."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import jobs

    for workload in GENERATED_WORKLOADS:
        for seed in GENERATED_SEEDS:
            for job in jobs.generate(workload, random.Random(seed),
                                     change / "scenarios"):
                config = scratch / f"{workload}_{seed}_{job.name}.json"
                config.write_text(json.dumps(job.config))
                yield (f"{workload} seed {seed} {job.name}",
                       *(run(root, job.subcommand, config, job.fmt)
                         for root in (parent, change)))


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tests/compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    counts = {}
    with tempfile.TemporaryDirectory() as scratch:
        for kind, runs in (("scenario runs", scenario_runs(parent, change)),
                           ("generated jobs",
                            generated_runs(parent, change, Path(scratch)))):
            total = differences = 0
            for label, old, new in runs:
                total += 1
                problem = difference(old, new)
                if problem:
                    print(f"{label}: {problem}")
                    differences += 1
            counts[kind] = (total, differences)
    for kind, (total, differences) in counts.items():
        print(f"{total} {kind}: {differences} difference(s)")
    return 1 if any(d for _, d in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
