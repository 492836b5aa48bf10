"""Force estimation with an oscillator probe in an arbitrary Gaussian bath.

The engine solves the probe's exact open-system response, builds the
Gaussian moments it induces, and evaluates the quantum Fisher information
together with the optimal probe state, optimal quadrature measurement, and
the optimal cadence of a repeated prepare-sense-measure protocol.
"""

from .bath import (BathMoments, ContinuousSpectrum, DiscreteBath,
                   OccupationModel, bare_correlation, discretize,
                   memory_kernel, moments)
from .correlation import CorrelationResult, bath_correlation
from .errors import (AlignmentError, ConfigError, ConsistencyError,
                     ConvergenceError, CoverageError, EstimationError,
                     NmqfiError, SolverInstabilityError)
from .force import (ConstantForce, ForceModulation, GaussianPulseForce,
                    SinusoidForce, TabulatedForce, constant, gaussian_pulse,
                    sinusoid)
from .metrology import (EstimationResult, QfiResult, best_state,
                        best_state_variance, energy_for_script_e,
                        fisher_quadrature, markov_qfi, optimal_angle,
                        qfi_aligned, qfi_best_state, qfi_general, script_e,
                        short_time_qfi, simulate_estimation)
from .probe import (CovarianceSnapshot, GaussianProbeInit, WindowTerms,
                    covariance_snapshot, displacement, noise_term,
                    quadrature_mean, quadrature_variance,
                    rotated_max_variance_angle, variance_p, window_terms)
from .response import (ResponseFunction, TimeGrid, default_grid,
                       markov_closed_form, markov_decay_rate, solve_response)
from .sequential import (ForceWindowIntegrals, MarkovSeqResult, SeqResult,
                         SequentialScheme, default_tau_bounds, markov_seq,
                         optimize_tau, seq_qfi, seq_qfi_asymptotic,
                         tau_opt_asymptotic, xi_and_c)

__version__ = "0.1.0"
