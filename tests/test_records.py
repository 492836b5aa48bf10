"""The contract of the public record types.

Each record's constructor is pinned: parameter names, order and defaults,
all positional-or-keyword. Assigning or deleting any attribute raises
AttributeError, every array a validating record holds is read-only, and
importing the CLI loads no `dataclasses` (records generate no code).
"""

import inspect
import subprocess
import sys

import numpy as np
import pytest

from conftest import CHILD_ENV
from nmqfi.bath import (BathMoments, ContinuousSpectrum, DiscreteBath,
                        OccupationModel)
from nmqfi.config import ScenarioConfig
from nmqfi.correlation import CorrelationResult
from nmqfi.force import (ConstantForce, ForceModulation, GaussianPulseForce,
                         SinusoidForce, TabulatedForce)
from nmqfi.metrology import EstimationResult, QfiResult
from nmqfi.probe import CovarianceSnapshot, GaussianProbeInit, WindowTerms
from nmqfi.response import ResponseFunction, TimeGrid
from nmqfi.sequential import (ForceWindowIntegrals, MarkovSeqResult,
                              SeqResult, SequentialScheme)

_BATH = DiscreteBath([0.25], [1.0], [0.0], 1.0)
_SUPPORT = (0.0, 1.0)
_FOREVER = (0.0, np.inf)

# Record name: (constructor parameters, a name alone when required and
# (name, default) otherwise; the arguments of an example instance).
RECORDS = {
    "QfiResult": (["value", "numerator_abs_d_sq",
                   "denominator_variance_or_det", "form"],
                  (1.0, 1.0, 1.0, "general")),
    "EstimationResult": (["estimate", "empirical_mse", "crb", "ratio_to_crb",
                          "replications", "nu"], (0.1, 0.2, 0.3, 0.4, 5, 6)),
    "CorrelationResult": (["total", "born", "interaction"], (1j, 1j, 0j)),
    "SeqResult": (["total_qfi", "repetitions", "tau_used",
                   ("hit_bound", False)], (1.0, 2, 0.5)),
    "ForceWindowIntegrals": (["xi", "c_coeff"], (1.0, 2.0)),
    "MarkovSeqResult": (["tau_opt", "total_qfi_bound"], (0.1, 2.0)),
    "BathMoments": (["k_squared", "script_n", "omega_p", "chi_q"],
                    (1.0, 1.0, (1.0,) * 5, ())),
    "CovarianceSnapshot": (["var_x_theta", "var_p_theta", "det_sigma"],
                           (0.5, 0.5, 0.25)),
    "WindowTerms": (["tau", "g", "n_b", "disp", "omega0"],
                    (0.5, 1 + 0j, 0.0, 0j, 1.0)),
    "DiscreteBath": (["coupling_sq", "frequencies", "occupations",
                      "probe_frequency"], ([0.25], [1.0], [0.0], 1.0)),
    "OccupationModel": (["kind", ("temperature", 0.0), ("value", 0.0)],
                        ("thermal", 1.0)),
    "ContinuousSpectrum": (["family", "scale", "cutoff", ("exponent", 1.0),
                            ("cutoff_shape", "hard"),
                            ("occupation", ("zero", 0.0, 0.0))],
                           ("flat", 0.1, 2.0)),
    "ForceModulation": (["support"], (_SUPPORT,)),
    "ConstantForce": ([("amplitude", 1.0), ("support", _FOREVER)],
                      (2.0, _SUPPORT)),
    "SinusoidForce": ([("amplitude", 1.0), ("angular_frequency", 1.0),
                       ("phase", 0.0), ("support", _FOREVER)],
                      (2.0, 3.0, 0.4, _SUPPORT)),
    "GaussianPulseForce": (["center", "width", ("support", _FOREVER)],
                           (0.5, 0.2, _SUPPORT)),
    "TabulatedForce": (["times", "values", ("support", None)],
                       ((0.0, 1.0), (0.0, 2.0), _SUPPORT)),
    "GaussianProbeInit": (["mean_amplitude", ("nbar", 0.0), ("r", 0.0),
                           ("axis", 0.0)], (0.5, 0.2, 0.7, 1.1)),
    "TimeGrid": (["t_end", "n_steps"], (1.0, 8)),
    "ResponseFunction": (["grid", "g_samples", "g_dot_samples", "bath"],
                         (TimeGrid(1.0, 2), np.ones(3, complex),
                          np.zeros(3, complex), _BATH)),
    "SequentialScheme": (["total_window", "interval"], (1.0, 0.5)),
    "ScenarioConfig": (["raw"], ({},)),
}


def _record(name):
    """The record class, imported above from the module that defines it."""
    return globals()[name]


def _default(value):
    """A default as plain data: the occupation model by its fields."""
    if isinstance(value, OccupationModel):
        return value.kind, value.temperature, value.value
    return value


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_constructor_signature_matches_the_table(name):
    params = inspect.signature(_record(name)).parameters.values()
    assert [p.name if p.default is p.empty else (p.name, _default(p.default))
            for p in params] == RECORDS[name][0]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    fields, args = RECORDS[name]
    record = _record(name)(*args)
    for field in [f if isinstance(f, str) else f[0] for f in fields]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1.0


@pytest.mark.parametrize("name", ["DiscreteBath", "ResponseFunction"])
def test_held_arrays_are_read_only(name):
    record = _record(name)(*RECORDS[name][1])
    arrays = [v for v in vars(record).values() if isinstance(v, np.ndarray)]
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = 5.0


def test_cli_import_loads_no_dataclasses():
    code = "import nmqfi.cli, sys; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=CHILD_ENV)
    assert proc.stdout.strip() == "False"
