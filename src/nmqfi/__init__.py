"""Force estimation with an oscillator probe in an arbitrary Gaussian bath.

The engine solves the probe's exact open-system response, builds the
Gaussian moments it induces, and evaluates the quantum Fisher information
together with the optimal probe state, optimal quadrature measurement, and
the optimal cadence of a repeated prepare-sense-measure protocol.

Importing the package runs only `errors`. Every other engine module but
`cli` is registered lazily: it compiles and runs when one of its
attributes is first read, so a command runs only the modules it calls.
`cli` is left to the normal import, because `python -m nmqfi.cli` runs it
as `__main__`.
"""

import importlib.util as _util
import sys as _sys

from .errors import (AlignmentError, ConfigError, ConsistencyError,
                     ConvergenceError, CoverageError, EstimationError,
                     NmqfiError, SolverInstabilityError)

for _name in ("_quad", "bath", "config", "correlation", "force", "metrology",
              "probe", "response", "sequential"):
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _module = _util.module_from_spec(_spec)
    _sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)

# The public names each module exports; reading one loads its module.
_EXPORTS = {
    "bath": ("BathMoments", "ContinuousSpectrum", "DiscreteBath",
             "OccupationModel", "bare_correlation", "discretize",
             "memory_kernel", "moments"),
    "correlation": ("CorrelationResult", "bath_correlation"),
    "force": ("ConstantForce", "ForceModulation", "GaussianPulseForce",
              "SinusoidForce", "TabulatedForce"),
    "metrology": ("EstimationResult", "QfiResult", "best_state",
                  "best_state_variance", "energy_for_script_e",
                  "fisher_quadrature", "optimal_angle", "qfi_aligned",
                  "qfi_best_state", "qfi_general", "script_e",
                  "simulate_estimation"),
    "probe": ("CovarianceSnapshot", "GaussianProbeInit", "WindowTerms",
              "covariance_snapshot", "displacement", "noise_term",
              "quadrature_mean", "quadrature_variance", "variance_p",
              "window_terms"),
    "response": ("ResponseFunction", "TimeGrid", "default_grid",
                 "markov_closed_form", "markov_decay_rate", "solve_response"),
    "sequential": ("ForceWindowIntegrals", "MarkovSeqResult", "SeqResult",
                   "SequentialScheme", "default_tau_bounds", "markov_seq",
                   "optimize_tau", "seq_qfi", "seq_qfi_asymptotic",
                   "tau_opt_asymptotic", "xi_and_c"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = ["AlignmentError", "ConfigError", "ConsistencyError",
           "ConvergenceError", "CoverageError", "EstimationError",
           "NmqfiError", "SolverInstabilityError", *_SOURCE]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SOURCE:
        return getattr(globals()[_SOURCE[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
