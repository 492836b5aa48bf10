"""Exact Heisenberg-picture Gaussian moments of the probe oscillator.

Conventions: quadratures X(theta) = (a^dag e^{i theta} + a e^{-i theta})/sqrt(2)
and P(theta) = X(theta + pi/2); the vacuum covariance is diag(1/2, 1/2).
Every expectation is taken in the initial (uncorrelated) probe-bath state
with operators evolved over a window [t0, t].
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from ._quad import adaptive_simpson
from .errors import ConsistencyError, Frozen, retired
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


class GaussianProbeInit(Frozen):
    """Initial Gaussian probe state: mean amplitude and 2x2 covariance.

    The covariance is over (X, P) at theta = 0 and must satisfy the
    uncertainty bound det >= 1/4, with equality exactly for pure states.
    """

    def __init__(self, mean_amplitude: complex, covariance: np.ndarray):
        raw = np.array(covariance, dtype=float)
        if raw.shape != (2, 2):
            raise ValueError("covariance must be 2x2")
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            cov = 0.5 * (raw + raw.T)
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance entries must be finite")
        if abs(raw[0, 1] - raw[1, 0]) > 1e-12 * (1.0 + abs(raw).max()):
            raise ValueError("covariance must be symmetric")
        cov.setflags(write=False)
        vars(self).update(covariance=cov)
        if self.det < _MIN_DET or cov[0, 0] <= 0 or cov[1, 1] <= 0:
            raise ValueError("covariance violates the uncertainty bound det >= 1/4")
        vars(self).update(mean_amplitude=complex(mean_amplitude))

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

    def variance(self, theta) -> Union[float, np.ndarray]:
        """Initial variance of X(theta), elementwise over an array theta."""
        v = np.stack((np.cos(theta), np.sin(theta)), axis=-1)
        var = (v[..., None, :] @ self.covariance @ v[..., :, None])[..., 0, 0]
        return var if var.ndim else float(var)

    def mean_x(self, theta) -> Union[float, np.ndarray]:
        """Initial mean of X(theta) = sqrt(2) Re(<a> e^{-i theta})."""
        return np.sqrt(2.0) * np.real(self.mean_amplitude * np.exp(-1j * np.asarray(theta)))

    @property
    def trace(self) -> float:
        return float(np.trace(self.covariance))

    @property
    @np.errstate(over="ignore")   # a finite state's det may be inf
    def det(self) -> float:
        return float(np.linalg.det(self.covariance))

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


def phase(z) -> Union[float, np.ndarray]:
    """arg z in [0, 2pi), elementwise; zero by convention where z vanishes."""
    arg = np.where(np.equal(z, 0), 0.0, np.mod(np.angle(z), 2.0 * np.pi))
    return arg if arg.ndim else float(arg)


class CovarianceSnapshot(NamedTuple):
    """Evolved second moments in the frame of angle theta, per window."""

    var_x_theta: Union[float, np.ndarray]
    var_p_theta: Union[float, np.ndarray]
    det_sigma: Union[float, np.ndarray]


def displacement(response: ResponseFunction, force: ForceModulation,
                 window: Window) -> Union[complex, np.ndarray]:
    """Displacement coefficient omega0 * int zeta(u) e^{i omega0 (u-t0)} G(t-u) du.

    omega0 is the probe frequency of the response's bath. The integral
    sums the force's smooth pieces of the window (ForceModulation.pieces);
    none gives zero. Window ends that are arrays (broadcast together) give
    one value per window, each integrated to the same tolerance; a scalar
    window is a batch of one. Each piece integrates its nonempty windows,
    whatever their lengths, _WINDOW_CHUNK at a time.
    """
    t0, t1 = _check_window(window)
    response.require_coverage(np.max(t1 - t0, initial=0.0))
    omega0 = response.bath.probe_frequency

    def integral(s0, s1, lo, hi):
        def integrand(u):
            return (force.value(u)
                    * np.exp(1j * omega0 * (u - s0[..., None]))
                    * response.g(s1[..., None] - u))

        return adaptive_simpson(integrand, lo, hi, rel_tol=_DISPLACEMENT_REL_TOL)

    starts, ends = (np.ravel(v) for v in np.broadcast_arrays(t0, t1))
    val = np.zeros(ends.shape, dtype=complex)
    # An empty piece adds exactly zero; under a table force most are empty.
    for lo, hi in force.pieces(starts, ends):
        live = np.flatnonzero(hi > lo)
        for i in range(0, live.size, _WINDOW_CHUNK):
            rows = live[i:i + _WINDOW_CHUNK]
            val[rows] += integral(starts[rows], ends[rows], lo[rows], hi[rows])
    return omega0 * val.reshape(np.shape(t1))


def noise_term(response: ResponseFunction,
               window: Window) -> Union[float, np.ndarray]:
    """Bath-injected quadrature noise n_B, identical for every angle.

    sum_n (N_n + 1/2) |U_0n(tau)|^2 over the bath amplitudes of the modal
    propagator of the response's bath (DiscreteBath.propagate), tau = t - t0;
    zero exactly for an empty bath or a zero-length window. Array window
    ends give each window its scalar call's value, _WINDOW_CHUNK at a time.
    """
    t0, t1 = _check_window(window)
    tau = np.asarray(t1 - t0, dtype=float)
    response.require_coverage(tau.max(initial=0.0))
    bath = response.bath
    probe_row = np.eye(1, bath.n_modes + 1)[0]
    taus, n_b = tau.reshape(-1, 1), np.zeros(tau.size)
    for i in range(0, tau.size, _WINDOW_CHUNK):
        rows = slice(i, i + _WINDOW_CHUNK)
        bath_amps = bath.propagate(probe_row, taus[rows])[..., 1:]
        n_b[rows] = (np.abs(bath_amps) ** 2 @ (bath.occupations + 0.5))[:, 0]
    n_b = np.where(tau > 0, n_b.reshape(tau.shape), 0.0)
    return n_b if tau.ndim else float(n_b)


class WindowTerms(NamedTuple):
    """Everything a sensing window contributes: G(tau), n_B(tau) and D.

    tau = t - t0 is the elapsed time. For a cadence, disp holds the
    displacement of every step; the steps share tau, so g and n_b stay
    scalars. A record of array windows holds arrays of tau, g and n_b.
    """

    tau: Union[float, np.ndarray]
    g: Union[complex, np.ndarray]
    n_b: Union[float, np.ndarray]
    disp: Union[complex, np.ndarray]
    omega0: float


def window_terms(response: ResponseFunction, window: Window,
                 disp=0j) -> WindowTerms:
    """G and n_B of the window, with the displacement the caller computed.

    The only place a window's G(tau) and n_B are evaluated; every moment,
    Fisher and cadence formula reads them from the returned record; array
    window ends give a record of arrays from one g and one noise_term call.
    """
    t0, t1 = _check_window(window)
    tau = t1 - t0
    return WindowTerms(tau=tau if np.ndim(tau) else float(tau),
                       g=response.g(tau),
                       n_b=noise_term(response, window), disp=disp,
                       omega0=response.bath.probe_frequency)


def quadrature_mean(init: GaussianProbeInit, w: WindowTerms, theta: float,
                    force_amplitude: float) -> Union[float, np.ndarray]:
    """Mean of X(theta) after the window, one per window of an array record.

    |G| <X[theta + omega0 (t-t0) - phase(G)]>_0
    + F |D| sin[theta + omega0 (t-t0) - phase(D)].
    """
    rotation = theta + w.omega0 * w.tau
    free = abs(w.g) * init.mean_x(rotation - np.angle(w.g))
    driven = force_amplitude * abs(w.disp) * np.sin(rotation - phase(w.disp))
    mean = free + driven
    return mean if np.ndim(mean) else float(mean)


def quadrature_variance(init: GaussianProbeInit, w: WindowTerms,
                        theta: float) -> Union[float, np.ndarray]:
    """Variance of X(theta) after the window.

    |G|^2 <Delta^2 X[theta + omega0 (t-t0) - phase(G)]>_0 + n_B(t, t0).
    """
    rotated = theta + w.omega0 * w.tau - np.angle(w.g)
    return abs(w.g) ** 2 * init.variance(rotated) + w.n_b


def variance_p(init: GaussianProbeInit, w: WindowTerms, theta: float) -> float:
    """Variance of P(theta) = X(theta + pi/2) after the window."""
    return quadrature_variance(init, w, theta + 0.5 * np.pi)


@np.errstate(over="ignore", invalid="ignore")
def covariance_snapshot(init: GaussianProbeInit, w: WindowTerms,
                        theta: float) -> CovarianceSnapshot:
    """Full second-moment snapshot in the theta frame, per window.

    The cross term comes from the variance at theta + pi/4; the covariance
    determinant is computed both from the 2x2 matrix and from the closed
    combination |G|^4 det0 + |G|^2 tr0 n_B + n_B^2, which must agree to
    1e-8 relative in every window; a state whose moments overflow fails
    the check, which names the first failing row of an array record.
    """
    g2, n_b = abs(w.g) ** 2, w.n_b
    rot = theta + w.omega0 * w.tau - np.angle(w.g)
    var_t = g2 * init.variance(rot) + n_b
    var_p = g2 * init.variance(rot + 0.5 * np.pi) + n_b
    var_d = g2 * init.variance(rot + 0.25 * np.pi) + n_b
    cross = var_d - 0.5 * (var_t + var_p)
    det_matrix = var_t * var_p - cross * cross
    det_closed = (g2 * g2 * init.det + g2 * init.trace * n_b + n_b * n_b)
    bad = ~(abs(det_matrix - det_closed)
            <= 1e-8 * np.maximum(abs(det_closed), 0.25))
    if np.any(bad):
        i = np.argmax(bad)
        row = f" at row {i + 1}" if np.ndim(bad) else ""
        raise ConsistencyError(
            f"determinant routes disagree{row}: "
            f"{float(np.ravel(det_matrix)[i])!r} vs "
            f"{float(np.ravel(det_closed)[i])!r}")
    return CovarianceSnapshot(*(v if np.ndim(v) else float(v)
                                for v in (var_t, var_p, det_closed)))


def rotated_max_variance_angle(theta_m0: float, w: WindowTerms) -> float:
    """Angle of maximal variance after the window, reduced mod pi.

    The affine map theta_m0 + phase(G) - omega0 (t - t0).
    """
    return float(np.mod(theta_m0 + np.angle(w.g) - w.omega0 * w.tau, np.pi))


mode_displacement = retired("mode_displacement")
