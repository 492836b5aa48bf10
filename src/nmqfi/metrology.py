"""Quantum Fisher information, optimal states and measurements, estimation.

The force amplitude enters only the first moments, so every Fisher
quantity here is amplitude-independent; units are 1/amplitude^2 with the
probe-frequency normalization of the coupling absorbed in the modulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import adaptive_simpson
from .bath import DiscreteBath
from .errors import AlignmentError, EstimationError
from .force import ForceModulation
from .probe import (DisplacementCoefficient, GaussianProbeInit, Window,
                    covariance_snapshot, displacement, noise_term,
                    quadrature_mean, rotated_max_variance_angle, variance_p)
from .response import ResponseFunction

_ALIGNMENT_TOL = 1e-6

# Monte-Carlo outcomes are drawn in row chunks of at most this many draws.
_MC_CHUNK_DRAWS = 1 << 20


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
class BestStateSpec:
    """Optimal squeezed probe state for a given window and mean energy."""

    energy: float
    script_e: float
    squeeze_r: float
    squeeze_phase: float    # argument of the squeezing parameter, in [0, 2pi)

    @property
    def min_variance(self) -> float:
        return 0.25 / self.script_e

    @property
    def axis_angle(self) -> float:
        """Angle of the anti-squeezed (max variance) quadrature."""
        return 0.5 * self.squeeze_phase

    def to_init(self) -> GaussianProbeInit:
        return GaussianProbeInit.squeezed(self.squeeze_r, self.axis_angle)


@dataclass(frozen=True)
class QfiResult:
    """One Fisher-information evaluation with its assembled pieces."""

    value: float
    numerator_abs_d_sq: float
    denominator_variance_or_det: float
    form: str    # "general" | "aligned" | "best_state" | "markov"


def optimal_angle(disp: DisplacementCoefficient, omega0: float,
                  window: Window) -> float:
    """Measurement angle phase(D) - omega0 (t - t0) of the best quadrature."""
    t0, t1 = window
    return float(disp.phase - omega0 * (t1 - t0))


def best_state(energy: float, disp: DisplacementCoefficient,
               response: ResponseFunction, window: Window) -> BestStateSpec:
    """Squeezed state maximizing the window's Fisher information at fixed energy.

    Squeeze magnitude r = ln(2 script_e)/2 with the squeezing argument
    2 (phase(D) - phase(G)); the minimum-variance quadrature is the P
    quadrature at angle phase(D) - phase(G).
    """
    se = script_e(energy)
    t0, t1 = window
    phase_g = float(response.phase(t1 - t0))
    axis = disp.phase - phase_g
    return BestStateSpec(energy=float(energy), script_e=se,
                         squeeze_r=0.5 * np.log(2.0 * se),
                         squeeze_phase=float(np.mod(2.0 * axis, 2.0 * np.pi)))


def _is_aligned(init: GaussianProbeInit, disp: DisplacementCoefficient,
                response: ResponseFunction, omega0: float,
                window: Window) -> bool:
    if init.is_isotropic:
        return True
    t0, t1 = window
    target = np.mod(optimal_angle(disp, omega0, window), np.pi)
    evolved = rotated_max_variance_angle(init.max_variance_angle(), response,
                                         omega0, window)
    diff = abs(evolved - target) % np.pi
    return min(diff, np.pi - diff) <= _ALIGNMENT_TOL


def qfi_general(init: GaussianProbeInit, bath: DiscreteBath,
                response: ResponseFunction, force: ForceModulation,
                omega0: float, window: Window) -> QfiResult:
    """QFI for any Gaussian initial state.

    |D|^2 / det Sigma times the evolved variance of X at the optimal
    angle; the recorded denominator det/var is the effective conjugate
    variance (equal to the P variance when the state is aligned).
    """
    disp = displacement(response, force, omega0, window)
    theta = optimal_angle(disp, omega0, window)
    snap = covariance_snapshot(init, response, bath, theta, omega0, window)
    effective = snap.det_sigma / snap.var_x_theta
    value = disp.magnitude ** 2 / effective
    return QfiResult(value=float(value),
                     numerator_abs_d_sq=disp.magnitude ** 2,
                     denominator_variance_or_det=float(effective),
                     form="general")


def qfi_aligned(init: GaussianProbeInit, bath: DiscreteBath,
                response: ResponseFunction, force: ForceModulation,
                omega0: float, window: Window) -> QfiResult:
    """QFI |D|^2 / <Delta^2 P(optimal angle)> for aligned initial states.

    Valid when the evolved maximal-variance angle matches the optimal
    measurement angle (isotropic states always qualify); raises
    AlignmentError otherwise, in which case qfi_general applies.
    """
    disp = displacement(response, force, omega0, window)
    if disp.magnitude > 0.0 and not _is_aligned(init, disp, response, omega0,
                                                window):
        raise AlignmentError("initial state is not variance-aligned for this window")
    theta = optimal_angle(disp, omega0, window)
    var = variance_p(init, response, bath, theta, omega0, window)
    return QfiResult(value=float(disp.magnitude ** 2 / var),
                     numerator_abs_d_sq=disp.magnitude ** 2,
                     denominator_variance_or_det=float(var),
                     form="aligned")


def qfi_best_state(energy: float, bath: DiscreteBath,
                   response: ResponseFunction, force: ForceModulation,
                   omega0: float, window: Window) -> QfiResult:
    """QFI reached by the optimal squeezed state of the given mean energy.

    Denominator |G|^2 / (4 script_e) + n_B; noiseless baths reduce it to
    1/(4 script_e), the Heisenberg-limit line linear in script_e.
    """
    se = script_e(energy)
    disp = displacement(response, force, omega0, window)
    t0, t1 = window
    g_abs = abs(response.g(t1 - t0))
    denom = g_abs ** 2 * 0.25 / se + noise_term(response, bath, window)
    return QfiResult(value=float(disp.magnitude ** 2 / denom),
                     numerator_abs_d_sq=disp.magnitude ** 2,
                     denominator_variance_or_det=float(denom),
                     form="best_state")


def fisher_quadrature(theta: float, init: GaussianProbeInit, bath: DiscreteBath,
                      response: ResponseFunction, force: ForceModulation,
                      omega0: float, window: Window) -> float:
    """Classical Fisher information of the P(theta) quadrature record.

    |D|^2 cos^2(theta + omega0 (t-t0) - phase(D)) / <Delta^2 P(theta)>;
    maximal at the optimal angle where the cosine is one.
    """
    disp = displacement(response, force, omega0, window)
    t0, t1 = window
    rotation = theta + omega0 * (t1 - t0) - disp.phase
    var = variance_p(init, response, bath, theta, omega0, window)
    return float(disp.magnitude ** 2 * np.cos(rotation) ** 2 / var)


@dataclass(frozen=True)
class EstimationResult:
    """Monte-Carlo estimation summary over independent replications."""

    estimate: float          # first replication's maximum-likelihood estimate
    empirical_mse: float
    crb: float               # 1 / (nu * qfi)
    ratio_to_crb: float
    replications: int
    nu: int


def simulate_estimation(init: GaussianProbeInit, bath: DiscreteBath,
                        response: ResponseFunction, force: ForceModulation,
                        omega0: float, window: Window, f_true: float,
                        nu: int, seed: int,
                        replications: int = 2000) -> EstimationResult:
    """Simulate nu best-quadrature measurements and average the outcomes.

    The outcome of P(optimal angle) is Gaussian with mean linear in the
    amplitude (slope |D|) and amplitude-independent variance, so the
    maximum-likelihood estimator is the sample mean mapped through the
    line. Streams come from a counter-based Philox generator keyed on
    `seed`, so replications are reproducible and splittable; drawing them
    in row chunks changes neither the stream nor any row's mean.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    disp = displacement(response, force, omega0, window)
    if disp.magnitude == 0.0:
        raise EstimationError("zero displacement: the force leaves no signature")
    theta = optimal_angle(disp, omega0, window)
    slope = disp.magnitude
    intercept = quadrature_mean(init, response, disp, theta + 0.5 * np.pi,
                                0.0, omega0, window)
    var = variance_p(init, response, bath, theta, omega0, window)
    qfi = slope ** 2 / var
    rng = np.random.Generator(np.random.Philox(seed))
    rows = max(1, _MC_CHUNK_DRAWS // nu)
    means = np.concatenate([
        rng.normal(loc=intercept + slope * f_true, scale=np.sqrt(var),
                   size=(min(rows, replications - r), nu)).mean(axis=1)
        for r in range(0, replications, rows)])
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
    phase_d0 = float(np.mod(np.angle(d0), 2.0 * np.pi)) if d0 != 0 else 0.0
    var0 = init.variance(phase_d0 + 0.5 * np.pi)
    return float(omega0 ** 2 * tau ** 2 * (z * z + z * zdot * tau) / var0)


def markov_qfi(init: GaussianProbeInit, gamma: float, n_thermal: float,
               force: ForceModulation, omega0: float, window: Window,
               rel_tol: float = 1e-10) -> float:
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
        lo, hi, rel_tol=rel_tol)
    num = omega0 ** 2 * abs(integral) ** 2
    phase_d = float(np.mod(np.angle(integral), 2.0 * np.pi)) if integral != 0 else 0.0
    decay = np.exp(-gamma * (t1 - t0))
    denom = decay * init.variance(phase_d + 0.5 * np.pi) \
        + (n_thermal + 0.5) * (1.0 - decay)
    return float(num / denom)
