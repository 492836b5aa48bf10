"""Bath response function: exact evaluation and closed-form limits.

The response G(tau) is the complex amplitude multiplying the initial probe
quadratures after tracing out the bath, the probe amplitude of the global
unitary, e^{i omega0 tau} <0|e^{-i H tau}|0>. It solves

    dG/dtau = - integral_0^tau kernel(tau - s) G(s) ds,   G(0) = 1,

with the memory kernel of :mod:`nmqfi.bath`. |G| <= 1 always; the noiseless
limit is G == 1, a single resonant mode gives a pure cosine, and a broad
flat band approaches an exponential envelope.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .bath import (BLOCK_ENTRIES, ContinuousSpectrum, DiscreteBath,
                   chebyshev_sum, moments, n_terms)
from .errors import CoverageError, Frozen, SolverInstabilityError, covers

_ABS_G_SLACK = 1e-6

# Orders per block product of the assembly: at most _ORDERS, and at most
# BLOCK_ENTRIES Bessel values, which bounds its working memory.
_ORDERS = 128

# Fewest steps default_grid gives, however slow the probe and kernel rates.
_FLOOR_STEPS = 1024


class TimeGrid(Frozen):
    """Uniform grid on [0, t_end] with n_steps intervals."""

    def __init__(self, t_end: float, n_steps: int):
        if n_steps < 2:
            raise ValueError("n_steps must be >= 2")
        if not t_end > 0:
            raise ValueError("t_end must be > 0")
        vars(self).update(t_end=t_end, n_steps=n_steps)

    @property
    def h(self) -> float:
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        return self.h * np.arange(self.n_steps + 1)


def default_grid(bath: DiscreteBath, t_end: float) -> TimeGrid:
    """Grid sized so the step resolves both the probe and the kernel rates.

    Targets h * max(Omega_2, omega0) <= 0.02 with a floor on the step count;
    a count above 2^53, an infinite one included, raises ValueError.
    """
    rate = max(moments(bath).omega(2), bath.probe_frequency)
    # as Python floats, a product past the float range is inf, with no warning
    steps = float(t_end) * float(rate) / 0.02
    if not steps <= 2 ** 53:
        raise ValueError(f"the default grid for grid.t_end {t_end!r} has more "
                         f"than 2^53 steps: give grid.n_steps")
    return TimeGrid(float(t_end), max(_FLOOR_STEPS, math.ceil(steps)))


def _hermite_eval(query: np.ndarray, h: float, y: np.ndarray,
                  dy: np.ndarray, slope: bool = False) -> np.ndarray:
    """Cubic Hermite interpolation of samples y with derivatives dy.

    slope=True gives the interpolant's derivative in query instead.
    """
    n = y.shape[0] - 1
    idx = np.clip(np.floor(query / h).astype(int), 0, n - 1)
    s = query / h - idx
    s2 = s * s
    if slope:
        d00 = 6.0 * (s2 - s)          # d h00/ds; d h01/ds is its negative
        return (d00 * (y[idx] - y[idx + 1]) / h
                + (3.0 * s2 - 4.0 * s + 1.0) * dy[idx]
                + (3.0 * s2 - 2.0 * s) * dy[idx + 1])
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return (h00 * y[idx] + (h10 * h) * dy[idx]
            + h01 * y[idx + 1] + (h11 * h) * dy[idx + 1])


class ResponseFunction(Frozen):
    """Sampled response G and its derivative on a uniform grid from 0.

    Off-grid queries use cubic Hermite interpolation built from the stored
    derivative; g_dot is the derivative of that same interpolant. Both
    raise CoverageError past the grid, the engine's one coverage guard.
    The solved bath, with its probe frequency, travels with the response.
    Immutable; safe for concurrent reads.
    """

    def __init__(self, grid: TimeGrid, g_samples: np.ndarray,
                 g_dot_samples: np.ndarray, bath: DiscreteBath):
        for samples in (g_samples, g_dot_samples):
            samples.setflags(write=False)
        vars(self).update(grid=grid, g_samples=g_samples,
                          g_dot_samples=g_dot_samples, bath=bath)

    @property
    def t_end(self) -> float:
        return self.grid.t_end

    def require_coverage(self, tau: float) -> None:
        if not covers(self.t_end, tau):
            raise CoverageError(
                f"response solved on [0, {self.t_end:g}] cannot cover tau={tau:g}")

    def _eval(self, tau, slope: bool) -> Union[complex, np.ndarray]:
        arr = np.atleast_1d(np.asarray(tau, dtype=float))
        if arr.size:
            self.require_coverage(float(arr.min()))
            self.require_coverage(float(arr.max()))
        clipped = np.clip(arr, 0.0, self.t_end)
        out = _hermite_eval(clipped, self.grid.h, self.g_samples,
                            self.g_dot_samples, slope)
        return out[0] if np.ndim(tau) == 0 else out

    def g(self, tau) -> Union[complex, np.ndarray]:
        """G at elapsed time tau (scalar or array)."""
        return self._eval(tau, slope=False)

    def g_dot(self, tau) -> Union[complex, np.ndarray]:
        """dG/dtau at elapsed time tau: the derivative of the g interpolant."""
        return self._eval(tau, slope=True)


def _expand(times: np.ndarray, count: int, shift: float, a: float,
            rows) -> np.ndarray:
    """sum_k c_k(a t) e^{i shift t} R_k per time t over k < count, with the
    coefficients of chebyshev_sum and R_k the rows rows(k0, k1) builds."""
    span = max(1, min(_ORDERS, BLOCK_ENTRIES // times.size))
    total, norm = chebyshev_sum(a * times, count, span,
                                lambda k0, c: c @ rows(k0, k0 + c.shape[1]))
    return total * (np.exp(1j * shift * times) / norm)[:, None]


def solve_response(bath: DiscreteBath, grid: TimeGrid) -> ResponseFunction:
    """G and dG/dtau on the grid, exact to rounding: G(tau) = e^{i omega0 tau}
    <0|e^{-i H tau}|0>, from the Chebyshev series of DiscreteBath.propagate
    (H's spectrum in b -+ a, DiscreteBath.series). Index qB + r
    (B = isqrt(n_steps + 1), 1 once a h >= 1) splits each time into s + t;
    by e^{-i H t} = sum_k c_k(t) T_k, G(s + t) e^{-i omega0 (s + t)} =
    sum_jk c_j(s) c_k(t) (mu_j+k + mu_|j-k|)/2 with mu_k = e0.T_k e0, T_k =
    T_k((H - b)/a); dG/dtau uses the moments of -i (H - omega0). Cost
    O((n_modes + n_anchors K_B) K + n_steps K_B) for K = n_terms(a t_end)
    and K_B one offset span's. Raises ConfigError when K passes MAX_TERMS
    and SolverInstabilityError when |G| passes 1 + 1e-6."""
    n_out = grid.n_steps
    if bath.k_squared == 0.0:       # no mode carries weight: G is identically one
        ones = np.ones(n_out + 1, dtype=complex)
        return ResponseFunction(grid, ones, 0.0 * ones, bath)
    omega0 = bath.probe_frequency
    a, b, _ = bath.series(grid.t_end)
    h, shift = grid.h, omega0 - b
    width = math.isqrt(n_out + 1) if a * h < 1.0 else 1
    n_anchor = -(-(n_out + 1) // width)
    both = np.empty((2, n_anchor, width), dtype=complex)      # G, dG/dtau
    offsets, anchors = h * np.arange(width), h * width * np.arange(n_anchor)
    n_off = int(math.ceil(n_terms(a * offsets[-1]))) if width > 1 else 1
    n_all = int(math.ceil(n_terms(a * anchors[-1])))
    # from v_k = T_k e0: mu_2k = 2 v_k.v_k - 1, mu_2k+1 = 2 v_k+1.v_k - mu_1
    d0 = (omega0 - b) / a
    vectors = bath.chebyshev_vectors(np.eye(1, bath.n_modes + 1)[0], a, b)
    v1 = next(vectors)
    mu = np.empty(n_all + n_off + 1)
    for m in range(0, n_all + n_off, 2):
        mu[m] = 2.0 * (v1[0] * v1[0] + v1[1:] @ v1[1:]) - 1.0
        v0, v1 = v1, next(vectors)
        mu[m + 1] = 2.0 * (v1[0] * v0[0] + v1[1:] @ v0[1:]) - d0
    # of -i (H - omega0): -i [a (mu_{m+1} + mu_{|m-1|}) / 2 + (b - omega0) mu_m]
    nu = -0.5j * a * (mu[1:] + np.append(mu[1], mu[:-2])) + 1j * shift * mu[:-1]
    orders, eye = np.arange(n_off), np.eye(n_off)

    def pairs(k0, k1):         # rows k0..k1-1 of (m_{j+k} + m_{|j-k|}) / 2
        j = np.arange(k0, k1)[:, None]
        return 0.5 * np.hstack([m[j + orders] + m[abs(j - orders)] for m in (mu, nu)])
    inner = _expand(anchors, n_all, shift, a, pairs).reshape(n_anchor, 2, n_off)
    right = _expand(offsets, n_off, shift, a, lambda k0, k1: eye[k0:k1]).T
    np.matmul(inner.transpose(1, 0, 2), right, out=both)
    g, g_dot = both.reshape(2, -1)[:, :n_out + 1]
    g[0], g_dot[0] = 1.0, 0.0
    over = np.flatnonzero(~(np.abs(g) <= 1.0 + _ABS_G_SLACK))
    if over.size:
        raise SolverInstabilityError(f"|G| reached {abs(g[over[0]]):.8f} at "
                                     f"tau={over[0] * h:g}, outside the unit disc")
    return ResponseFunction(grid, g, g_dot, bath)


def markov_closed_form(gamma: float, tau) -> Union[float, np.ndarray]:
    """Broadband rotating-wave envelope exp(-gamma tau / 2)."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return np.exp(-0.5 * gamma * np.asarray(tau, dtype=float))


def markov_decay_rate(spectrum: ContinuousSpectrum, probe_frequency: float) -> float:
    """Golden-rule rate gamma such that |G| tracks exp(-gamma tau / 2).

    For a broad band containing the probe frequency the response amplitude
    decays at pi times the coupling density at resonance, so gamma is
    2 pi * density(omega0).
    """
    return float(2.0 * np.pi * spectrum.density(probe_frequency))
