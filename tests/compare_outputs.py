"""Compare the CLI outputs of two nmqfi checkouts, run by run.

    python tests/compare_outputs.py PARENT CHANGE

Runs every case of the corpus, tests/failures.py (of this file's
checkout), through `python -m nmqfi.cli` of each checkout: its edit of
its base scenario (read from this file's checkout) through its subcommand
and flags. The corpus holds every shipped scenario by default, in each
format its subcommand emits and, for estimate, with `--seed 3`; the
cadence scenarios with each force kind they do not ship; the single-shot
scenarios with prepared states they do not ship; and every input the CLI
refuses or fails on. Then runs the single_shot and cadence benchmark jobs
that perfbench/jobs.py (of this file's checkout) generates for seeds 5
and 7, each job's config through both checkouts. Compares exit codes,
stdout bytes and stderr bytes (the checkout's own path read as one
placeholder, so a message naming a file of the checkout compares equal),
prints one line per difference, then one count line per corpus table and
one for the generated jobs, and exits 1 if there is any difference, else
0. When both outputs of a differing run parse as CSV or JSON with the same
columns (JSON: the leaf keys, a list's items sharing their key), the line
also sizes the change: the columns that moved, the cells moved, the
largest absolute difference, and the largest difference relative to its
column's largest magnitude, each with its column. BLAS runs on one thread
so reruns are deterministic. pytest does not collect this file.
"""

import json
import math
import os
import random
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import failures

GENERATED_WORKLOADS = ("single_shot", "cadence")
GENERATED_SEEDS = (5, 7)


def run(checkout: Path, command: str, config: Path):
    """(exit code, stdout bytes, stderr bytes) of one CLI run of the
    checkout; command is the subcommand and its flags ("sequential --format
    csv")."""
    args = [sys.executable, "-m", "nmqfi.cli", *command.split(), "--config",
            str(config)]
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
    if old[0] != new[0]:
        return f"exit code {old[0]} -> {new[0]}"
    if old[1] != new[1]:
        sized = size(old[1], new[1])
        return (f"stdout differs ({len(old[1])} -> {len(new[1])} bytes)"
                + (f": {sized}" if sized else ""))
    if old[2] != new[2]:
        return f"stderr {old[2].decode()!r} -> {new[2].decode()!r}"
    return None


def corpus_runs(parent: Path, change: Path, scratch: Path, table: str):
    """(label, parent run, change run) for every case of a corpus table."""
    config = scratch / "case.json"
    for name, case in sorted(failures.TABLES[table].items()):
        config.write_bytes(failures.scenario_bytes(case, change / "scenarios"))
        yield (f"{table}/{name} ({case.base}.json, {case.command})",
               *(run(root, case.command, config) for root in (parent, change)))


def generated_runs(parent: Path, change: Path, scratch: Path):
    """(label, parent run, change run) for every generated benchmark job."""
    generate = runpy.run_path(str(Path(__file__).resolve().parent.parent
                                  / "perfbench" / "jobs.py"))["generate"]
    for workload in GENERATED_WORKLOADS:
        for seed in GENERATED_SEEDS:
            for job in generate(workload, random.Random(seed),
                                change / "scenarios"):
                config = scratch / f"{workload}_{seed}_{job.name}.json"
                config.write_text(json.dumps(job.config))
                command = job.subcommand + (f" --format {job.fmt}"
                                            if job.fmt else "")
                yield (f"{workload} seed {seed} {job.name}",
                       *(run(root, command, config)
                         for root in (parent, change)))


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tests/compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    counts = {}
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        kinds = {f"{table} runs": corpus_runs(parent, change, scratch, table)
                 for table in failures.TABLES}
        kinds["generated jobs"] = generated_runs(parent, change, scratch)
        for kind, runs in kinds.items():
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
