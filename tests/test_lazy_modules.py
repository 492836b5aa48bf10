"""Package import: each engine module runs only when a command first uses it."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nmqfi

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# The names the package exported through its eager import block, by module.
EXPORTS = {
    "bath": ["BathMoments", "ContinuousSpectrum", "DiscreteBath",
             "OccupationModel", "bare_correlation", "discretize",
             "memory_kernel", "moments"],
    "correlation": ["CorrelationResult", "bath_correlation"],
    "errors": ["AlignmentError", "ConfigError", "ConsistencyError",
               "ConvergenceError", "CoverageError", "EstimationError",
               "NmqfiError", "SolverInstabilityError"],
    "force": ["ConstantForce", "ForceModulation", "GaussianPulseForce",
              "SinusoidForce", "TabulatedForce", "constant", "gaussian_pulse",
              "sinusoid"],
    "metrology": ["EstimationResult", "QfiResult", "best_state",
                  "best_state_variance", "energy_for_script_e",
                  "fisher_quadrature", "optimal_angle", "qfi_aligned",
                  "qfi_best_state", "qfi_general", "script_e",
                  "simulate_estimation"],
    "probe": ["CovarianceSnapshot", "GaussianProbeInit", "WindowTerms",
              "covariance_snapshot", "displacement", "noise_term",
              "quadrature_mean", "quadrature_variance",
              "rotated_max_variance_angle", "variance_p", "window_terms"],
    "response": ["ResponseFunction", "TimeGrid", "default_grid",
                 "markov_closed_form", "markov_decay_rate", "solve_response"],
    "sequential": ["ForceWindowIntegrals", "MarkovSeqResult", "SeqResult",
                   "SequentialScheme", "default_tau_bounds", "markov_seq",
                   "optimize_tau", "seq_qfi", "seq_qfi_asymptotic",
                   "tau_opt_asymptotic", "xi_and_c"],
}

# Prints the nmqfi modules whose bodies have run: a module registered
# lazily keeps its loader's own module type until an attribute is read.
EXECUTED = ("import sys, types; print(sorted(name for name, mod in "
            "sys.modules.items() if name.split('.')[0] == 'nmqfi' "
            "and type(mod) is types.ModuleType))")


def _executed(code: str) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", f"{code}; {EXECUTED}"],
                          capture_output=True, text=True, check=True, env=ENV,
                          cwd=ROOT)
    return eval(proc.stdout.splitlines()[-1])


def test_setup_runs_only_cli_config_and_errors():
    code = ("import nmqfi.cli; "
            "nmqfi.cli.config.load_config('scenarios/qfi_noiseless_pi.json')")
    assert _executed(code) == ["nmqfi", "nmqfi.cli", "nmqfi.config",
                               "nmqfi.errors"]


def test_response_run_executes_no_window_or_cadence_module(tmp_path):
    out = str(tmp_path / "response.csv")
    code = ("from nmqfi.cli import main; "
            "assert main(['response', '--config', "
            f"'scenarios/response_narrowband.json', '--out', {out!r}]) == 0")
    assert _executed(code) == ["nmqfi", "nmqfi.bath", "nmqfi.cli",
                               "nmqfi.config", "nmqfi.errors",
                               "nmqfi.response"]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_exported_name_is_its_module_attribute(module):
    source = sys.modules[f"nmqfi.{module}"]
    for name in EXPORTS[module]:
        assert getattr(nmqfi, name) is getattr(source, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(nmqfi, "no_such_name")


def test_module_run_under_warnings_as_errors():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nmqfi.cli", "qfi", "--config",
         "scenarios/qfi_noiseless_pi.json"],
        capture_output=True, text=True, env=ENV, cwd=ROOT)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert '"form": "aligned"' in proc.stdout


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme,
                       re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", sketch], capture_output=True,
                          text=True, env=ENV, cwd=ROOT)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 2
