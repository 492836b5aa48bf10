"""Exact Heisenberg-picture Gaussian moments of the probe oscillator.

Conventions: quadratures X(theta) = (a^dag e^{i theta} + a e^{-i theta})/sqrt(2)
and P(theta) = X(theta + pi/2); the vacuum covariance is diag(1/2, 1/2).
Every expectation is taken in the initial (uncorrelated) probe-bath state
with operators evolved over a window [t0, t].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ._quad import adaptive_simpson
from .errors import ConsistencyError, retired
from .force import ForceModulation
from .response import ResponseFunction

Window = tuple[float, float]

_MIN_DET = 0.25 * (1.0 - 1e-9)

# Batched windows are integrated this many at a time, which bounds the
# quadrature's node arrays however many windows a call carries.
_WINDOW_CHUNK = 256

_DISPLACEMENT_REL_TOL = 1e-10


def _check_window(window: Window) -> tuple[float, float]:
    t0, t1 = (np.asarray(t, dtype=float)[()] for t in window)
    if np.any(t1 < t0):
        raise ValueError("window must satisfy t0 <= t")
    return t0, t1


@dataclass(frozen=True, eq=False)
class GaussianProbeInit:
    """Initial Gaussian probe state: mean amplitude and 2x2 covariance.

    The covariance is over (X, P) at theta = 0 and must satisfy the
    uncertainty bound det >= 1/4, with equality exactly for pure states.
    """

    mean_amplitude: complex
    covariance: np.ndarray

    def __post_init__(self):
        raw = np.array(self.covariance, dtype=float)
        if raw.shape != (2, 2):
            raise ValueError("covariance must be 2x2")
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            cov = 0.5 * (raw + raw.T)
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance entries must be finite")
        if abs(raw[0, 1] - raw[1, 0]) > 1e-12 * (1.0 + abs(raw).max()):
            raise ValueError("covariance must be symmetric")
        cov.setflags(write=False)
        if np.linalg.det(cov) < _MIN_DET or cov[0, 0] <= 0 or cov[1, 1] <= 0:
            raise ValueError("covariance violates the uncertainty bound det >= 1/4")
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "mean_amplitude", complex(self.mean_amplitude))

    @classmethod
    def vacuum(cls) -> "GaussianProbeInit":
        return cls(0.0, 0.5 * np.eye(2))

    @classmethod
    def coherent(cls, alpha: complex) -> "GaussianProbeInit":
        return cls(alpha, 0.5 * np.eye(2))

    @classmethod
    def thermal(cls, nbar: float) -> "GaussianProbeInit":
        if nbar < 0:
            raise ValueError("nbar must be >= 0")
        return cls(0.0, (nbar + 0.5) * np.eye(2))

    @classmethod
    def squeezed(cls, r: float, axis_angle: float = 0.0,
                 mean_amplitude: complex = 0.0) -> "GaussianProbeInit":
        """Pure squeezed state with max-variance quadrature X(axis_angle).

        Variances along/against the axis are e^{2r}/2 and e^{-2r}/2.
        """
        c, s = np.cos(axis_angle), np.sin(axis_angle)
        rot = np.array([[c, -s], [s, c]])
        # a squeeze too large for floats leaves entries the constructor rejects
        with np.errstate(over="ignore", invalid="ignore"):
            big, small = 0.5 * np.exp(2.0 * r), 0.5 * np.exp(-2.0 * r)
            cov = rot @ np.diag([big, small]) @ rot.T
        return cls(mean_amplitude, cov)

    def variance(self, theta: float) -> float:
        """Initial variance of X(theta)."""
        v = np.array([np.cos(theta), np.sin(theta)])
        return float(v @ self.covariance @ v)

    def mean_x(self, theta) -> Union[float, np.ndarray]:
        """Initial mean of X(theta) = sqrt(2) Re(<a> e^{-i theta})."""
        return np.sqrt(2.0) * np.real(self.mean_amplitude * np.exp(-1j * np.asarray(theta)))

    @property
    def trace(self) -> float:
        return float(np.trace(self.covariance))

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.covariance))

    @property
    def is_pure(self) -> bool:
        return abs(self.det - 0.25) <= 1e-9

    @property
    def mean_energy(self) -> float:
        """<a^dag a> + 1/2 in units of the probe quantum."""
        return 0.5 * self.trace + abs(self.mean_amplitude) ** 2

    @property
    def is_isotropic(self) -> bool:
        c = self.covariance
        tol = 1e-9 * self.trace
        return abs(c[0, 0] - c[1, 1]) <= tol and abs(c[0, 1]) <= tol

    def max_variance_angle(self) -> float:
        """Angle in [0, pi) of the maximum-variance quadrature.

        For an isotropic covariance every angle is extremal; returns 0.
        """
        if self.is_isotropic:
            return 0.0
        c = self.covariance
        ang = 0.5 * np.arctan2(2.0 * c[0, 1], c[0, 0] - c[1, 1])
        return float(np.mod(ang, np.pi))


def phase(z) -> float:
    """arg z in [0, 2pi); zero by convention where z vanishes."""
    if z == 0:
        return 0.0
    return float(np.mod(np.angle(z), 2.0 * np.pi))


@dataclass(frozen=True)
class CovarianceSnapshot:
    """Evolved second moments at one window, in the frame of angle theta."""

    var_x_theta: float
    var_p_theta: float
    det_sigma: float


def displacement(response: ResponseFunction, force: ForceModulation,
                 window: Window) -> Union[complex, np.ndarray]:
    """Displacement coefficient omega0 * int zeta(u) e^{i omega0 (u-t0)} G(t-u) du.

    omega0 is the probe frequency of the response's bath. The integral
    runs over the window clipped to the force support; an empty
    intersection gives zero. Window ends that are arrays (broadcast
    together) give one value per window, each integrated to the same
    tolerance; a scalar window is a batch of one. Windows are integrated in
    groups of similar clipped length, at most _WINDOW_CHUNK at a time.
    """
    t0, t1 = _check_window(window)
    response.require_coverage(np.max(t1 - t0))
    omega0 = response.bath.probe_frequency

    def integral(s0, s1, lo, hi):
        def integrand(u):
            return (force.value(u)
                    * np.exp(1j * omega0 * (u - s0[..., None]))
                    * response.g(s1[..., None] - u))

        return adaptive_simpson(integrand, lo, hi, rel_tol=_DISPLACEMENT_REL_TOL)

    lo, hi = force.clipped(t0, t1)
    starts, ends, lo, hi = (np.ravel(v)
                            for v in np.broadcast_arrays(t0, t1, lo, hi))
    val = np.zeros(ends.shape, dtype=complex)
    # Windows within a factor of two in clipped length need about the same
    # panel count, so they share quadrature passes; mixing them would refine
    # every short window to the node count of the longest. Empty windows
    # stay exactly zero.
    live = hi > lo
    octave = np.floor(np.log2(np.where(live, hi - lo, 1.0)))
    for level in np.unique(octave[live]):
        group = np.flatnonzero(live & (octave == level))
        for i in range(0, group.size, _WINDOW_CHUNK):
            rows = group[i:i + _WINDOW_CHUNK]
            val[rows] = integral(starts[rows], ends[rows], lo[rows], hi[rows])
    return omega0 * val.reshape(np.shape(t1))


def noise_term(response: ResponseFunction, window: Window) -> float:
    """Bath-injected quadrature noise n_B, identical for every angle.

    sum_n (N_n + 1/2) |U_0n(tau)|^2 over the bath amplitudes of the modal
    propagator of the response's bath (DiscreteBath.propagate), tau = t - t0;
    zero exactly for an empty bath or a zero-length window.
    """
    t0, t1 = _check_window(window)
    response.require_coverage(t1 - t0)
    bath = response.bath
    if bath.n_modes == 0 or t1 == t0:
        return 0.0
    probe_row = np.eye(1, bath.n_modes + 1)[0]
    bath_amps = bath.propagate(probe_row, t1 - t0)[1:]
    return float(np.abs(bath_amps) ** 2 @ (bath.occupations + 0.5))


@dataclass(frozen=True, eq=False)
class WindowTerms:
    """Everything a sensing window contributes: G(tau), n_B(tau) and D.

    tau = t - t0 is the elapsed time. For a cadence, disp holds the
    displacement of every step; the steps share tau, so g and n_b stay
    scalars.
    """

    tau: float
    g: complex
    n_b: float
    disp: Union[complex, np.ndarray]
    omega0: float


def window_terms(response: ResponseFunction, window: Window,
                 disp=0j) -> WindowTerms:
    """G and n_B of the window, with the displacement the caller computed.

    The only place a window's G(tau) and n_B are evaluated; every moment,
    Fisher and cadence formula reads them from the returned record.
    """
    t0, t1 = _check_window(window)
    tau = t1 - t0
    return WindowTerms(tau=float(tau), g=response.g(tau),
                       n_b=noise_term(response, window), disp=disp,
                       omega0=response.bath.probe_frequency)


def quadrature_mean(init: GaussianProbeInit, w: WindowTerms, theta: float,
                    force_amplitude: float) -> float:
    """Mean of X(theta) after the window.

    |G| <X[theta + omega0 (t-t0) - phase(G)]>_0
    + F |D| sin[theta + omega0 (t-t0) - phase(D)].
    """
    rotation = theta + w.omega0 * w.tau
    free = abs(w.g) * init.mean_x(rotation - np.angle(w.g))
    driven = force_amplitude * abs(w.disp) * np.sin(rotation - phase(w.disp))
    return float(free + driven)


def quadrature_variance(init: GaussianProbeInit, w: WindowTerms,
                        theta: float) -> float:
    """Variance of X(theta) after the window.

    |G|^2 <Delta^2 X[theta + omega0 (t-t0) - phase(G)]>_0 + n_B(t, t0).
    """
    rotated = theta + w.omega0 * w.tau - np.angle(w.g)
    return abs(w.g) ** 2 * init.variance(rotated) + w.n_b


def variance_p(init: GaussianProbeInit, w: WindowTerms, theta: float) -> float:
    """Variance of P(theta) = X(theta + pi/2) after the window."""
    return quadrature_variance(init, w, theta + 0.5 * np.pi)


def covariance_snapshot(init: GaussianProbeInit, w: WindowTerms,
                        theta: float) -> CovarianceSnapshot:
    """Full second-moment snapshot in the theta frame.

    The cross term comes from the variance at theta + pi/4; the covariance
    determinant is computed both from the 2x2 matrix and from the closed
    combination |G|^4 det0 + |G|^2 tr0 n_B + n_B^2, which must agree to
    1e-8 relative.
    """
    g2, n_b = abs(w.g) ** 2, w.n_b
    rot = theta + w.omega0 * w.tau - np.angle(w.g)
    var_t = g2 * init.variance(rot) + n_b
    var_p = g2 * init.variance(rot + 0.5 * np.pi) + n_b
    var_d = g2 * init.variance(rot + 0.25 * np.pi) + n_b
    cross = var_d - 0.5 * (var_t + var_p)
    det_matrix = var_t * var_p - cross * cross
    det_closed = (g2 * g2 * init.det + g2 * init.trace * n_b + n_b * n_b)
    scale = max(abs(det_closed), 0.25)
    if abs(det_matrix - det_closed) > 1e-8 * scale:
        raise ConsistencyError(
            f"determinant routes disagree: {det_matrix!r} vs {det_closed!r}")
    return CovarianceSnapshot(var_x_theta=float(var_t), var_p_theta=float(var_p),
                              det_sigma=float(det_closed))


def rotated_max_variance_angle(theta_m0: float, w: WindowTerms) -> float:
    """Angle of maximal variance after the window, reduced mod pi.

    The affine map theta_m0 + phase(G) - omega0 (t - t0).
    """
    return float(np.mod(theta_m0 + np.angle(w.g) - w.omega0 * w.tau, np.pi))


mode_displacement = retired("mode_displacement")
