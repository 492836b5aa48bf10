"""Compare the CLI outputs of two nmqfi checkouts, scenario by scenario.

    python tests/compare_outputs.py PARENT CHANGE

Runs every file in scenarios/ (the union of both checkouts' file names,
each checkout reading its own copy) through `python -m nmqfi.cli` of each
checkout, with the default format, `--format csv` and `--format json`.
The subcommand is the file-name prefix: `qfi_noiseless_pi.json` runs
`qfi`. Compares stdout bytes and exit codes, prints one line per
difference, and exits 1 if there is any, else 0. BLAS runs on one thread
so reruns are deterministic. pytest does not collect this file.
"""

import os
import subprocess
import sys
from pathlib import Path

FORMATS = (None, "csv", "json")


def run(checkout: Path, scenario: str, fmt):
    """(exit code, stdout bytes) of one CLI run, or None if the file is missing."""
    path = checkout / "scenarios" / scenario
    if not path.is_file():
        return None
    args = [sys.executable, "-m", "nmqfi.cli", scenario.split("_")[0],
            "--config", str(path)]
    if fmt:
        args += ["--format", fmt]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(args, cwd=checkout, env=env, capture_output=True,
                          check=False)
    return proc.returncode, proc.stdout


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tests/compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    names = sorted({p.name for root in (parent, change)
                    for p in (root / "scenarios").glob("*.json")})
    differences = 0
    for name in names:
        for fmt in FORMATS:
            label = f"{name} --format {fmt or 'default'}"
            old, new = run(parent, name, fmt), run(change, name, fmt)
            if old is None or new is None:
                print(f"{label}: missing in {'PARENT' if old is None else 'CHANGE'}")
            elif old[0] != new[0]:
                print(f"{label}: exit code {old[0]} -> {new[0]}")
            elif old[1] != new[1]:
                print(f"{label}: stdout differs ({len(old[1])} -> {len(new[1])} bytes)")
            else:
                continue
            differences += 1
    print(f"{len(names)} scenarios x {len(FORMATS)} formats: "
          f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
