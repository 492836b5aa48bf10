"""Package import: each engine module runs only when a command first uses
it, and numpy only at the first engine call."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nmqfi
import failures
from conftest import CHILD_ENV

ROOT = Path(__file__).resolve().parent.parent

# Prints the nmqfi modules whose bodies have run: a module registered
# lazily keeps its loader's own module type until an attribute is read.
EXECUTED = ("import sys, types; print(sorted(name for name, mod in "
            "sys.modules.items() if name.split('.')[0] == 'nmqfi' "
            "and type(mod) is types.ModuleType))")


# numpy._core runs with numpy's own body, so its absence means numpy never ran
NUMPY_RAN = "print('numpy._core' in sys.modules)"


def _lines(code: str) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=CHILD_ENV, cwd=ROOT)
    return proc.stdout.splitlines()


def _executed(code: str) -> list[str]:
    return eval(_lines(f"{code}; {EXECUTED}")[-1])


def test_setup_runs_only_cli_config_and_errors():
    # a modes table, an empty one and a continuum block
    code = ("import sys, nmqfi.cli; "
            "[nmqfi.cli.config.load_config(f'scenarios/{name}.json') for name "
            "in ('sequential_nonmarkov', 'qfi_noiseless_pi', "
            "'qfi_ohmic_thermal')]")
    *_, numpy_ran, executed = _lines(f"{code}; {NUMPY_RAN}; {EXECUTED}")
    assert numpy_ran == "False"
    assert eval(executed) == ["nmqfi", "nmqfi.cli", "nmqfi.config",
                              "nmqfi.errors"]


def test_refused_scenario_exits_2_without_numpy(tmp_path):
    raw = json.loads((ROOT / "scenarios/qfi_noiseless_pi.json").read_text())
    raw["window"]["t"] = 2 * raw["grid"]["t_end"]
    cfg = tmp_path / "long_window.json"
    cfg.write_text(json.dumps(raw))
    code = ("import sys; from nmqfi.cli import main; "
            f"print(main(['qfi', '--config', {str(cfg)!r}])); {NUMPY_RAN}")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=CHILD_ENV, cwd=ROOT)
    assert proc.stdout.splitlines() == ["2", "False"]
    assert "longer than grid.t_end" in proc.stderr


def test_front_end_failures_exit_without_numpy(tmp_path):
    # every front_end case of the failure corpus in one child process: none
    # may load numpy, and each prints exactly its line
    cases = [case for _, case in sorted(failures.CORPUS.items())
             if case.stage == failures.FRONT_END]
    configs = [tmp_path / f"{n}.json" for n in range(len(cases))]
    runs = []
    for case, cfg in zip(cases, configs):
        cfg.write_bytes(failures.scenario_bytes(case, ROOT / "scenarios"))
        runs.append([*case.command.split(), "--config", str(cfg)])
    code = ("import sys; from nmqfi.cli import main; "
            f"print([main(args) for args in {runs!r}]); {NUMPY_RAN}")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=CHILD_ENV, cwd=ROOT)
    assert proc.stdout.splitlines() == [str([c.code for c in cases]), "False"]
    assert proc.stderr == "".join(case.stderr(cfg)
                                  for case, cfg in zip(cases, configs))


def test_cli_keeps_a_numpy_imported_before_it():
    code = ("import sys, numpy; import nmqfi.cli; "
            "print(sys.modules['numpy'] is numpy is nmqfi.cli.np)")
    assert _lines(code)[-1] == "True"


def test_cli_import_without_numpy_names_it():
    # -S leaves site-packages, and numpy with it, off the path
    proc = subprocess.run([sys.executable, "-S", "-c", "import nmqfi.cli"],
                          capture_output=True, text=True, env=CHILD_ENV,
                          cwd=ROOT)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "ModuleNotFoundError: No module named 'numpy'")


def test_response_run_executes_no_window_or_cadence_module(tmp_path):
    out = str(tmp_path / "response.csv")
    code = ("from nmqfi.cli import main; "
            "assert main(['response', '--config', "
            f"'scenarios/response_narrowband.json', '--out', {out!r}]) == 0")
    assert _executed(code) == ["nmqfi", "nmqfi.bath", "nmqfi.cli",
                               "nmqfi.config", "nmqfi.errors",
                               "nmqfi.response"]


@pytest.mark.parametrize("name", ["no_such_name", "constant", "sinusoid",
                                  "gaussian_pulse", "DiscreteBath",
                                  "solve_response", "ConfigError"])
def test_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(nmqfi, name)


def test_module_run_under_warnings_as_errors():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nmqfi.cli", "qfi", "--config",
         "scenarios/qfi_noiseless_pi.json"],
        capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert '"form": "aligned"' in proc.stdout


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme,
                       re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", sketch], capture_output=True,
                          text=True, env=CHILD_ENV, cwd=ROOT)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 2
