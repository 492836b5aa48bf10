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
from .errors import Frozen, retired
from .force import ForceModulation
from .response import ResponseFunction

Window = tuple[float, float]

_EPS = np.finfo(float).eps

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
    """Initial Gaussian probe state in Williamson form.

    Mean amplitude, occupation nbar >= 0, squeeze r and axis: the covariance
    over (X, P) at theta = 0 is (nbar + 1/2) R(axis) diag(e^{2r}, e^{-2r})
    R(axis)^T, of det (nbar + 1/2)^2 (1/4 exactly for pure states) and
    finite trace (2 nbar + 1) cosh 2r. A negative r is stored as -r about
    the axis turned by pi/2, so X(axis), axis in [0, pi), has most variance.
    The largest mean quadrature sqrt(2) |mean amplitude| must be finite.
    """

    def __init__(self, mean_amplitude: complex, nbar: float = 0.0,
                 r: float = 0.0, axis: float = 0.0):
        if r < 0:
            r, axis = -r, axis + 0.5 * np.pi
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            vars(self).update(mean_amplitude=complex(mean_amplitude),
                              nbar=float(nbar), r=float(r),
                              axis=float(np.mod(axis, np.pi)))
            mean = np.sqrt(2.0) * np.hypot(self.mean_amplitude.real,
                                           self.mean_amplitude.imag)
            finite = np.isfinite(self.trace + self.axis + mean)
        if not (nbar >= 0 and finite):
            raise ValueError("a state needs nbar >= 0, a finite axis, a "
                             "finite trace (2 nbar + 1) cosh 2r and a finite "
                             "mean quadrature sqrt(2) |alpha|")

    @classmethod
    def vacuum(cls) -> "GaussianProbeInit":
        return cls(0.0)

    @classmethod
    def coherent(cls, alpha: complex) -> "GaussianProbeInit":
        return cls(alpha)

    @classmethod
    def thermal(cls, nbar: float) -> "GaussianProbeInit":
        return cls(0.0, nbar)

    @classmethod
    def squeezed(cls, r: float, axis_angle: float = 0.0,
                 mean_amplitude: complex = 0.0) -> "GaussianProbeInit":
        """Pure state of variance e^{2r}/2 along X(axis_angle), e^{-2r}/2 across."""
        return cls(mean_amplitude, 0.0, r, axis_angle)

    @classmethod
    def from_covariance(cls, mean_amplitude: complex,
                        covariance) -> "GaussianProbeInit":
        """The state of a symmetric 2x2 covariance over (X, P).

        The engine's one eigen-decomposition: the larger eigenvalue
        top = tr/2 + hypot((c00 - c11)/2, c01) lies along the axis
        atan2(2 c01, c00 - c11)/2, nbar + 1/2 = sqrt(det) and
        e^{2r} = top / (nbar + 1/2). det = c00 (c11 - c01^2 / c00), which
        cannot overflow, must reach 1/4 (1 - 1e-9) less its rounding
        8 eps (c00 c11 + c01^2); a det below 1/4 reads as 1/4.
        """
        raw = np.array(covariance, dtype=float)
        if raw.shape != (2, 2) or not (np.isfinite(raw).all() and abs(
                raw[0, 1] - raw[1, 0]) <= 1e-12 * (1.0 + abs(raw).max())):
            raise ValueError("covariance must be a finite symmetric 2x2 matrix")
        (c00, c01), (_, c11) = 0.5 * raw + 0.5 * raw.T
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            lean = c01 * (c01 / c00)                   # c01^2 / c00
            floor = lean * (1 - 8 * _EPS) + 0.25 * (1.0 - 1e-9) / c00
        if not (c00 > 0 and c11 * (1 + 8 * _EPS) >= floor):
            raise ValueError("covariance violates the uncertainty bound det >= 1/4")
        half_diff = 0.5 * (c00 - c11)
        top = 0.5 * c00 + 0.5 * c11 + np.hypot(half_diff, c01)
        nu = max(0.5, np.sqrt(c00) * np.sqrt(max(c11 - lean, 0.0)))
        return cls(mean_amplitude, nu - 0.5, max(0.5 * np.log(top / nu), 0.0),
                   0.5 * np.arctan2(c01, half_diff))

    def variance(self, theta) -> Union[float, np.ndarray]:
        """Initial variance of X(theta), elementwise over an array theta:
        (nbar + 1/2)(e^{2r} cos^2(theta - axis) + e^{-2r} sin^2(theta - axis)),
        two non-negative terms, so no squeeze makes it cancel."""
        phi = np.asarray(theta, dtype=float) - self.axis
        var = (self.nbar + 0.5) * (np.exp(2.0 * self.r) * np.cos(phi) ** 2
                                   + np.exp(-2.0 * self.r) * np.sin(phi) ** 2)
        return var if var.ndim else float(var)

    def mean_x(self, theta) -> Union[float, np.ndarray]:
        """Initial mean of X(theta) = sqrt(2) Re(<a> e^{-i theta})."""
        return np.sqrt(2.0) * np.real(self.mean_amplitude * np.exp(-1j * np.asarray(theta)))

    @property
    def trace(self) -> float:
        """(2 nbar + 1) cosh 2r: the sum of the two principal variances."""
        return float((self.nbar + 0.5) * (np.exp(2 * self.r) + np.exp(-2 * self.r)))

    @property
    def det(self) -> float:
        return (self.nbar + 0.5) * (self.nbar + 0.5)   # inf past 1.3e154

    @property
    def is_isotropic(self) -> bool:
        """Both (2 nbar + 1) sinh 2r cos 2axis = c00 - c11 and
        (nbar + 1/2) sinh 2r sin 2axis = c01 within 1e-9 of the trace."""
        spread = np.tanh(2.0 * self.r)
        return bool(spread * abs(np.cos(2.0 * self.axis)) <= 1e-9
                    and spread * abs(np.sin(2.0 * self.axis)) <= 2e-9)


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


@np.errstate(over="ignore", invalid="ignore")   # overflow is reported inf
def quadrature_mean(init: GaussianProbeInit, w: WindowTerms, theta: float,
                    force_amplitude: float) -> Union[float, np.ndarray]:
    """Mean of X(theta) after the window, one per window of an array record.

    |G| <X[theta + omega0 (t-t0) - phase(G)]>_0
    + F |D| sin[theta + omega0 (t-t0) - phase(D)]; a mean that overflows
    reads inf (or nan).
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


@np.errstate(over="ignore", invalid="ignore")   # overflow is reported inf
def covariance_snapshot(init: GaussianProbeInit, w: WindowTerms,
                        theta: float) -> CovarianceSnapshot:
    """Variances of X(theta) and P(theta) and the covariance determinant
    |G|^4 det0 + |G|^2 tr0 n_B + n_B^2, per window; a state whose moments
    overflow reports them as inf."""
    g2, n_b = abs(w.g) ** 2, w.n_b
    det = g2 * g2 * init.det + g2 * init.trace * n_b + n_b * n_b
    return CovarianceSnapshot(*(v if np.ndim(v) else float(v) for v in (
        quadrature_variance(init, w, theta), variance_p(init, w, theta), det)))


mode_displacement = retired("mode_displacement")
