"""Quantum Fisher information, optimal states and measurements, estimation.

The force amplitude enters only the first moments, so every Fisher
quantity here is amplitude-independent; units are 1/amplitude^2 with the
probe-frequency normalization of the coupling absorbed in the modulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import adaptive_simpson
from .errors import AlignmentError, EstimationError
from .force import ForceModulation
from .probe import (GaussianProbeInit, Window, WindowTerms,
                    covariance_snapshot, phase, quadrature_mean,
                    rotated_max_variance_angle, variance_p)

_ALIGNMENT_TOL = 1e-6
# Relative tolerance of markov_qfi's envelope integral; a window of 120
# periods needs 2^17 panels to reach it, past adaptive_simpson's default.
_MARKOV_REL_TOL, _MARKOV_MAX_PANELS = 1e-12, 1 << 18


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


@dataclass(frozen=True)
class QfiResult:
    """One Fisher-information evaluation with its assembled pieces."""

    value: float
    numerator_abs_d_sq: float
    denominator_variance_or_det: float
    form: str    # "general" | "aligned" | "best_state" | "markov"


def optimal_angle(w: WindowTerms) -> float:
    """Measurement angle phase(D) - omega0 (t - t0) of the best quadrature."""
    return float(phase(w.disp) - w.omega0 * w.tau)


def best_state(energy: float, w: WindowTerms) -> GaussianProbeInit:
    """Squeezed state maximizing the window's Fisher information at fixed energy.

    Squeeze magnitude r = ln(2 script_e)/2 with the anti-squeezed axis at
    phase(D) - phase(G), reduced mod pi; the minimum-variance quadrature,
    of variance 1/(4 script_e), is the P quadrature at that angle.
    """
    axis = phase(w.disp) - phase(w.g)
    return GaussianProbeInit.squeezed(
        0.5 * np.log(2.0 * script_e(energy)),
        0.5 * float(np.mod(2.0 * axis, 2.0 * np.pi)))


def best_state_variance(energy: float, w: WindowTerms) -> float:
    """P variance |G|^2 / (4 script_e) + n_B of the window's best state.

    The denominator of the best-state Fisher information; a cadence's
    steps share it, so for a cadence record it divides every |D_k|^2.
    """
    return abs(w.g) ** 2 * 0.25 / script_e(energy) + w.n_b


def _qfi(w: WindowTerms, variance: float, form: str) -> QfiResult:
    """|D|^2 over the variance of the measured quadrature."""
    return QfiResult(value=float(abs(w.disp) ** 2 / variance),
                     numerator_abs_d_sq=abs(w.disp) ** 2,
                     denominator_variance_or_det=float(variance), form=form)


def qfi_general(init: GaussianProbeInit, w: WindowTerms) -> QfiResult:
    """QFI for any Gaussian initial state.

    |D|^2 / det Sigma times the evolved variance of X at the optimal
    angle; the recorded denominator det/var is the effective conjugate
    variance (equal to the P variance when the state is aligned).
    """
    snap = covariance_snapshot(init, w, optimal_angle(w))
    return _qfi(w, snap.det_sigma / snap.var_x_theta, "general")


def qfi_aligned(init: GaussianProbeInit, w: WindowTerms) -> QfiResult:
    """QFI |D|^2 / <Delta^2 P(optimal angle)> for aligned initial states.

    Valid when the evolved maximal-variance angle matches the optimal
    measurement angle (isotropic states always qualify); raises
    AlignmentError otherwise, in which case qfi_general applies.
    """
    if abs(w.disp) > 0.0 and not init.is_isotropic:
        target = np.mod(optimal_angle(w), np.pi)
        evolved = rotated_max_variance_angle(init.max_variance_angle(), w)
        diff = abs(evolved - target) % np.pi
        if min(diff, np.pi - diff) > _ALIGNMENT_TOL:
            raise AlignmentError("initial state is not variance-aligned for this window")
    return _qfi(w, variance_p(init, w, optimal_angle(w)), "aligned")


def qfi_best_state(energy: float, w: WindowTerms) -> QfiResult:
    """QFI reached by the optimal squeezed state of the given mean energy.

    Denominator |G|^2 / (4 script_e) + n_B; noiseless baths reduce it to
    1/(4 script_e), the Heisenberg-limit line linear in script_e.
    """
    return _qfi(w, best_state_variance(energy, w), "best_state")


def fisher_quadrature(theta: float, init: GaussianProbeInit,
                      w: WindowTerms) -> float:
    """Classical Fisher information of the P(theta) quadrature record.

    |D|^2 cos^2(theta + omega0 (t-t0) - phase(D)) / <Delta^2 P(theta)>;
    maximal at the optimal angle where the cosine is one.
    """
    rotation = theta + w.omega0 * w.tau - phase(w.disp)
    var = variance_p(init, w, theta)
    return float(abs(w.disp) ** 2 * np.cos(rotation) ** 2 / var)


@dataclass(frozen=True)
class EstimationResult:
    """Monte-Carlo estimation summary over independent replications."""

    estimate: float          # first replication's maximum-likelihood estimate
    empirical_mse: float
    crb: float               # 1 / (nu * qfi)
    ratio_to_crb: float
    replications: int
    nu: int


def simulate_estimation(init: GaussianProbeInit, w: WindowTerms,
                        f_true: float, nu: int, seed: int,
                        replications: int = 2000) -> EstimationResult:
    """Simulate nu best-quadrature measurements and average the outcomes.

    The outcome of P(optimal angle) is Gaussian with mean linear in the
    amplitude (slope |D|) and amplitude-independent variance, so the
    maximum-likelihood estimator is the sample mean mapped through the
    line. The mean of nu outcomes N(mu, var) is exactly N(mu, var / nu),
    so each replication's sample mean is drawn directly: work and memory
    are O(replications), whatever nu. Streams come from a counter-based
    Philox generator keyed on `seed`, so replications are reproducible
    and splittable.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    slope = abs(w.disp)
    if slope == 0.0:
        raise EstimationError("zero displacement: the force leaves no signature")
    theta = optimal_angle(w)
    intercept = quadrature_mean(init, w, theta + 0.5 * np.pi, 0.0)
    var = variance_p(init, w, theta)
    qfi = slope ** 2 / var
    rng = np.random.Generator(np.random.Philox(seed))
    means = rng.normal(loc=intercept + slope * f_true,
                       scale=np.sqrt(var / nu), size=replications)
    estimates = (means - intercept) / slope
    mse = float(np.mean((estimates - f_true) ** 2))
    crb = 1.0 / (nu * qfi)
    return EstimationResult(estimate=float(estimates[0]), empirical_mse=mse,
                            crb=crb, ratio_to_crb=mse / crb,
                            replications=replications, nu=nu)


def short_time_qfi(init: GaussianProbeInit, force: ForceModulation,
                   omega0: float, t0: float, tau: float) -> float:
    """Two-term small-window expansion of the aligned QFI.

    omega0^2 tau^2 [zeta(t0)^2 + zeta(t0) zeta'(t0) tau] over the initial
    P variance at the noiseless displacement angle. The bath enters only
    at fourth order in tau, so no bath argument appears.
    """
    z = float(force.value(t0))
    zdot = float(force.derivative(t0))
    if z == 0.0:
        return 0.0
    d0 = omega0 * adaptive_simpson(
        lambda u: np.asarray(force.value(u)) * np.exp(1j * omega0 * (u - t0)),
        t0, t0 + tau, rel_tol=1e-11)
    var0 = init.variance(phase(d0) + 0.5 * np.pi)
    return float(omega0 ** 2 * tau ** 2 * (z * z + z * zdot * tau) / var0)


def markov_qfi(init: GaussianProbeInit, gamma: float, n_thermal: float,
               force: ForceModulation, omega0: float, window: Window) -> float:
    """Closed-form QFI under an exponential response envelope.

    Numerator omega0^2 |int zeta(u) e^{i omega0 (u-t0)} e^{-gamma (t-u)/2} du|^2;
    denominator e^{-gamma (t-t0)} <Delta^2 P(phase(D))>_0
    + (n_thermal + 1/2)(1 - e^{-gamma (t-t0)}).
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    t0, t1 = window
    lo, hi = force.clipped(t0, t1)
    if hi <= lo:
        return 0.0
    integral = adaptive_simpson(
        lambda u: (np.asarray(force.value(u)) * np.exp(1j * omega0 * (u - t0))
                   * np.exp(-0.5 * gamma * (t1 - u))),
        lo, hi, rel_tol=_MARKOV_REL_TOL, max_panels=_MARKOV_MAX_PANELS)
    num = omega0 ** 2 * abs(integral) ** 2
    decay = np.exp(-gamma * (t1 - t0))
    denom = decay * init.variance(phase(integral) + 0.5 * np.pi) \
        + (n_thermal + 0.5) * (1.0 - decay)
    return float(num / denom)
