"""Quantum Fisher information, optimal states and measurements, estimation.

The force amplitude enters only the first moments, so every Fisher
quantity here is amplitude-independent; units are 1/amplitude^2 with the
probe-frequency normalization of the coupling absorbed in the modulation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, EstimationError
from .probe import (GaussianProbeInit, WindowTerms, covariance_snapshot, phase,
                    variance_p)

_ALIGNMENT_TOL = 1e-6


def script_e(energy: float) -> float:
    """Squeezing-enhanced energy factor E + sqrt(E^2 - 1/4)."""
    if energy < 0.5:
        raise ValueError("mean energy below the vacuum value 1/2")
    return energy + np.sqrt(max(energy * energy - 0.25, 0.0))


def energy_for_script_e(se: float) -> float:
    """Inverse of script_e: the mean energy giving a target factor."""
    if se < 0.5:
        raise ValueError("script_e is bounded below by 1/2")
    return 0.5 * (se + 0.25 / se)


class QfiResult(NamedTuple):
    """One Fisher-information evaluation with its assembled pieces."""

    value: float
    numerator_abs_d_sq: float
    denominator_variance_or_det: float
    form: str    # "general" | "aligned" | "best_state"


def optimal_angle(w: WindowTerms) -> float:
    """Measurement angle phase(D) - omega0 (t - t0) of the best quadrature."""
    return float(phase(w.disp) - w.omega0 * w.tau)


def best_state(energy: float, w: WindowTerms) -> GaussianProbeInit:
    """Squeezed state maximizing the window's Fisher information at fixed energy.

    Squeeze magnitude r = ln(2 script_e)/2 with the anti-squeezed axis at
    phase(D) - phase(G), reduced mod pi; the minimum-variance quadrature,
    of variance 1/(4 script_e), is the P quadrature at that angle.
    """
    return GaussianProbeInit(0.0, r=0.5 * np.log(2.0 * script_e(energy)),
                             axis=phase(w.disp) - phase(w.g))


def best_state_variance(energy: float, w: WindowTerms) -> float:
    """P variance |G|^2 / (4 script_e) + n_B of the window's best state.

    The denominator of the best-state Fisher information; a cadence's
    steps share it, so for a cadence record it divides every |D_k|^2.
    """
    return abs(w.g) ** 2 * 0.25 / script_e(energy) + w.n_b


@np.errstate(over="ignore")    # overflow is reported inf
def qfi_general(init: GaussianProbeInit, w: WindowTerms) -> QfiResult:
    """QFI of any prepared Gaussian state: the mean-shift information.

    |D|^2 Var X(theta*) / det Sigma at the optimal angle theta*, which the
    homodyne quadrature along Sigma^-1 dmu/dF attains; the recorded
    denominator det / Var X is the effective conjugate variance. Var X is
    an aligned squeezed state's large variance, so no squeeze cancels
    digits. The form is "aligned" when P(theta*) attains the QFI: D is
    zero, the state is isotropic, or its axis lies within 1e-6 of
    phase(D) - phase(G) mod pi, which the window turns onto theta*.
    """
    snap = covariance_snapshot(init, w, optimal_angle(w))
    offset = (init.axis - phase(w.disp) + phase(w.g)) % np.pi
    aligned = (abs(w.disp) == 0.0 or init.is_isotropic
               or min(offset, np.pi - offset) <= _ALIGNMENT_TOL)
    d_sq, variance = abs(w.disp) ** 2, snap.det_sigma / snap.var_x_theta
    return QfiResult(value=float(d_sq / variance), numerator_abs_d_sq=d_sq,
                     denominator_variance_or_det=float(variance),
                     form="aligned" if aligned else "general")


def qfi_aligned(init: GaussianProbeInit, w: WindowTerms) -> QfiResult:
    """qfi_general's result for a state it labels "aligned", which the
    P(theta*) quadrature measures at the QFI; AlignmentError otherwise."""
    result = qfi_general(init, w)
    if result.form != "aligned":
        raise AlignmentError("initial state is not variance-aligned for this window")
    return result


def qfi_best_state(energy: float, w: WindowTerms) -> QfiResult:
    """qfi_general of the best state of the mean energy, form "best_state":
    its denominator is best_state_variance to rounding, 1/(4 script_e) in a
    noiseless bath (the Heisenberg-limit line linear in script_e)."""
    return qfi_general(best_state(energy, w), w)._replace(form="best_state")


def fisher_quadrature(theta: float, init: GaussianProbeInit,
                      w: WindowTerms) -> float:
    """Classical Fisher information of the P(theta) quadrature record.

    |D|^2 cos^2(theta + omega0 (t-t0) - phase(D)) / <Delta^2 P(theta)>;
    maximal at the optimal angle where the cosine is one.
    """
    rotation = theta + w.omega0 * w.tau - phase(w.disp)
    var = variance_p(init, w, theta)
    return float(abs(w.disp) ** 2 * np.cos(rotation) ** 2 / var)


class EstimationResult(NamedTuple):
    """Monte-Carlo estimation summary over independent replications."""

    estimate: float          # first replication's maximum-likelihood estimate
    empirical_mse: float
    crb: float               # 1 / (nu * fisher)
    ratio_to_crb: float
    replications: int
    nu: int


def simulate_estimation(fisher: float, f_true: float, nu: int, seed: int,
                        replications: int = 2000) -> EstimationResult:
    """Simulate nu best-quadrature measurements and average the outcomes.

    `fisher` is the information per measurement, the QFI of the state,
    which the homodyne quadrature along Sigma^-1 dmu/dF attains. Its
    outcome is Gaussian with mean linear in the amplitude and
    amplitude-independent variance, so the maximum-likelihood estimate
    from nu outcomes follows exactly N(f_true, 1 / (nu fisher)): each
    replication's error sqrt(crb) z is drawn directly, and the MSE reads
    the errors, so a force too large to resolve them keeps them; work and
    memory are O(replications), whatever nu. Streams come from a
    counter-based Philox generator keyed on `seed`, so replications are
    reproducible and splittable. A bound 1 / (nu fisher) that is not
    finite and positive raises EstimationError.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    with np.errstate(over="ignore", divide="ignore"):
        crb = float(1.0 / (nu * np.float64(fisher)))
    if not 0.0 < crb < np.inf:
        raise EstimationError(f"Fisher information {float(fisher)!r} of {nu} "
                              f"measurements has no finite positive bound")
    rng = np.random.Generator(np.random.Philox(seed))
    errors = np.sqrt(crb) * rng.standard_normal(replications)
    with np.errstate(over="ignore"):    # an error past floats reads inf
        mse = float(np.mean(errors ** 2))
    return EstimationResult(estimate=float(f_true + errors[0]),
                            empirical_mse=mse, crb=crb, ratio_to_crb=mse / crb,
                            replications=replications, nu=nu)
