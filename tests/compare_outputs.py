"""Compare the CLI outputs of two nmqfi checkouts, scenario by scenario.

    python tests/compare_outputs.py PARENT CHANGE

Runs every file in scenarios/ (the union of both checkouts' file names,
each checkout reading its own copy) through `python -m nmqfi.cli` of each
checkout, with the default format, `--format csv` and `--format json`.
The subcommand is the file-name prefix: `qfi_noiseless_pi.json` runs
`qfi`. Each `estimate_*` scenario also runs once with `--seed 3`. The
two shipped cadence scenarios also run with each force kind they do not
ship (a table with knots inside the window, a sinusoid, a pulse):
`sequential_nonmarkov` through `sequential` in json and csv,
`sweep_scaling` through `sweep`. Two single-shot scenarios also run with
prepared states they do not ship (coherent, thermal, squeezed at r = 20 on
the aligned axis, squeezed at r = 0.6 off it, a matrix):
`qfi_noiseless_pi` through `qfi`, `estimate_cramer_rao` through
`estimate`. The refusal cases of tests/test_cli.py (of this file's
checkout), those of its `MISSING_INPUT` and `PAST_THE_GRID` tables, also
run, each case's edit of its base scenario through its subcommand. Then runs the
single_shot and cadence benchmark jobs that perfbench/jobs.py (of this
file's checkout) generates for seeds 5 and 7, each job's config through
both checkouts. Compares exit codes, stdout bytes and stderr bytes (the
checkout's own path read as one placeholder, so a message naming a file
of the checkout compares equal), prints one line per difference, and
exits 1 if there is any, else 0. When both outputs of a differing run
parse as CSV or JSON with the same columns (JSON: the leaf keys, a list's
items sharing their key), the line also sizes the change: the columns
that moved, the cells moved, the largest absolute difference, and the
largest difference relative to its column's largest magnitude, each with
its column. BLAS runs on one thread so reruns are deterministic. pytest
does not collect this file.
"""

import json
import math
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
# Cadence scenarios rerun with other force kinds: (file, subcommand, formats).
FORCE_VARIANT_RUNS = (("sequential_nonmarkov.json", "sequential", ("json", "csv")),
                      ("sweep_scaling.json", "sweep", (None,)))
# Single-shot scenarios rerun with other prepared states: (file, subcommand).
INIT_VARIANT_RUNS = (("qfi_noiseless_pi.json", "qfi"),
                     ("estimate_cramer_rao.json", "estimate"))
INIT_VARIANTS = {
    "coherent": {"kind": "coherent", "alpha_re": 0.7, "alpha_im": -0.4},
    "thermal": {"kind": "thermal", "nbar": 1.5},
    # the window's phase(D) - phase(G) is pi/2
    "squeezed_aligned_r20": {"kind": "squeezed", "r": 20.0,
                             "axis_angle": math.pi / 2},
    "squeezed_misaligned": {"kind": "squeezed", "r": 0.6, "axis_angle": 0.9},
    "matrix": {"kind": "matrix", "cov": [[1.2, 0.3], [0.3, 0.9]],
               "mean_re": 0.2},
}
FORCE_VARIANTS = {
    "table": {"kind": "table", "times": [0.0, 0.3, 0.7, 4.0],
              "values": [0.0, 2.0, -1.0, 0.5]},
    "sinusoid": {"kind": "sinusoid", "amplitude": 1.0,
                 "frequency": 3.0, "phase": 0.4,
                 "support": [0.0, 100.0]},
    "pulse": {"kind": "gaussian_pulse", "center": 0.5, "width": 0.15,
              "support": [0.0, 1.0]},
}


def run(checkout: Path, subcommand: str, config: Path, fmt, seed=None):
    """(exit code, stdout bytes, stderr bytes) of one CLI run of the
    checkout; subcommand may carry flags ("sequential --format csv")."""
    args = [sys.executable, "-m", "nmqfi.cli", *subcommand.split(), "--config",
            str(config)]
    if fmt:
        args += ["--format", fmt]
    if seed is not None:
        args += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(args, cwd=checkout, env=env, capture_output=True,
                          check=False)
    return (proc.returncode, proc.stdout,
            proc.stderr.replace(bytes(checkout), b"CHECKOUT"))


def columns(text: bytes):
    """{column: [cells]} of a CSV or JSON output, or None if it is neither."""
    try:
        payload = json.loads(text)
    except ValueError:
        lines = text.decode().splitlines()
        if len(lines) < 2:
            return None
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        if any(len(row) != len(header) for row in rows):
            return None
        try:
            return {name: [float(row[j]) for row in rows]
                    for j, name in enumerate(header)}
        except ValueError:
            return None
    table = {}

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}/{key}" if path else key)
        elif isinstance(value, list):
            for item in value:
                walk(item, path)
        else:
            table.setdefault(path, []).append(value)

    walk(payload, "")
    return table


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def size(old: bytes, new: bytes):
    """How far the cells of two outputs with the same columns moved, or None.

    Each moved column is listed with its count of moved cells and its
    largest shift relative to the column's largest magnitude.
    """
    a, b = columns(old), columns(new)
    if a is None or b is None or a.keys() != b.keys() or any(
            len(a[k]) != len(b[k]) for k in a):
        return None
    moved, worst_abs, worst_rel = [], (0.0, ""), (0.0, "")
    for name in a:
        pairs = [(x, y) for x, y in zip(a[name], b[name])
                 if x != y and not (_number(x) and _number(y)
                                    and math.isnan(x) and math.isnan(y))]
        if not pairs:
            continue
        if not all(_number(x) and _number(y) for x, y in pairs):
            return f"non-numeric change in {name}"
        scale = max((abs(v) for v in a[name] + b[name]
                     if _number(v) and not math.isnan(v)), default=0.0)
        # a cell that turns nan (or stops being nan) moves without bound
        shift = max(math.inf if math.isnan(x - y) else abs(x - y)
                    for x, y in pairs)
        rel = shift / scale if scale else math.inf
        moved.append(f"{name} x{len(pairs)} (rel {rel:.2g})")
        worst_abs = max(worst_abs, (shift, name))
        worst_rel = max(worst_rel, (rel, name))
    return (f"moved {', '.join(moved)}; largest absolute {worst_abs[0]:.2g} "
            f"({worst_abs[1]}), largest relative {worst_rel[0]:.2g} "
            f"({worst_rel[1]})")


def difference(old, new):
    """One line describing how two runs differ, or None if they agree."""
    if old is None or new is None:
        return f"missing in {'PARENT' if old is None else 'CHANGE'}"
    if old[0] != new[0]:
        return f"exit code {old[0]} -> {new[0]}"
    if old[1] != new[1]:
        sized = size(old[1], new[1])
        return (f"stdout differs ({len(old[1])} -> {len(new[1])} bytes)"
                + (f": {sized}" if sized else ""))
    if old[2] != new[2]:
        return f"stderr {old[2].decode()!r} -> {new[2].decode()!r}"
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


def force_variant_runs(parent: Path, change: Path, scratch: Path):
    """(label, parent run, change run) for every cadence force variant."""
    for name, subcommand, formats in FORCE_VARIANT_RUNS:
        raw = json.loads((change / "scenarios" / name).read_text())
        for kind, force in FORCE_VARIANTS.items():
            config = scratch / f"{kind}_{name}"
            config.write_text(json.dumps({**raw, "force": force}))
            for fmt in formats:
                yield (f"{name} force {kind} --format {fmt or 'default'}",
                       *(run(root, subcommand, config, fmt)
                         for root in (parent, change)))


def init_variant_runs(parent: Path, change: Path, scratch: Path):
    """(label, parent run, change run) for every prepared-state variant."""
    for name, subcommand in INIT_VARIANT_RUNS:
        raw = json.loads((change / "scenarios" / name).read_text())
        for label, init in INIT_VARIANTS.items():
            config = scratch / f"{label}_{name}"
            config.write_text(json.dumps(
                {**raw, "probe": {**raw["probe"], "init": init}}))
            yield (f"{name} init {label}",
                   *(run(root, subcommand, config, None)
                     for root in (parent, change)))


def refusal_runs(parent: Path, change: Path, scratch: Path):
    """(label, parent run, change run) for every case of tests/test_cli.py's
    MISSING_INPUT and PAST_THE_GRID tables."""
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here), str(here.parent / "src")]
    import test_cli

    for table in (test_cli.MISSING_INPUT, test_cli.PAST_THE_GRID):
        for case, (base, subcommand, edit, *_) in sorted(table.items()):
            raw = json.loads((change / "scenarios" / f"{base}.json").read_text())
            edit(raw)
            config = scratch / f"refused_{case}.json"
            config.write_text(json.dumps(raw))
            yield (f"{base}.json refused {case}",
                   *(run(root, subcommand, config, None)
                     for root in (parent, change)))


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
                           ("force variant runs",
                            force_variant_runs(parent, change, Path(scratch))),
                           ("init variant runs",
                            init_variant_runs(parent, change, Path(scratch))),
                           ("refusal runs",
                            refusal_runs(parent, change, Path(scratch))),
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
