"""Bath response function: Volterra solver and closed-form limits.

The response G(tau) is the complex amplitude multiplying the initial probe
quadratures after tracing out the bath. It solves

    dG/dtau = - integral_0^tau kernel(tau - s) G(s) ds,   G(0) = 1,

with the memory kernel of :mod:`nmqfi.bath`. |G| <= 1 always; the noiseless
limit is G == 1, a single resonant mode gives a pure cosine, and a broad
flat band approaches an exponential envelope.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .bath import ContinuousSpectrum, DiscreteBath, moments
from .errors import CoverageError, Frozen, SolverInstabilityError, covers

_ABS_G_SLACK = 1e-6

# Internal marching runs on a grid this many times finer than the requested
# one; the scheme stays second order in the grid step while the error
# constant drops by the square of the factor.
_REFINE = 4

# Inner steps the march advances per block (a multiple of _REFINE).
_BLOCK = 64

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


def solve_response(bath: DiscreteBath, grid: TimeGrid) -> ResponseFunction:
    """March the response equation with an implicit product-trapezoid scheme.

    On the inner step h, b_j = sum_{i<j} w_i g_i k_{j-i} is the trapezoid
    memory sum (w_0 = 1/2, else 1; k_m = sum_n |K_n|^2 e^{i delta_n m h})
    and the step is the trapezoid rule on dG/dtau, implicit in g_j:

        g_j = (g_{j-1} + h/2 gd_{j-1} - h^2/2 b_j) / (1 + h^2 K^2 / 4),
        gd_j = -h (b_j + K^2 g_j / 2).

    The march advances _BLOCK inner steps at a time. History older than
    the block enters b through the per-mode state
    a_J[n] = sum_{i<J} w_i g_i e^{i delta_n (J-i) h}, one matrix-vector
    product per block; the steps inside the block form one lower-triangular
    linear system, whose inverse is built once per call. Cost scales with
    n_steps * n_modes, not n_steps**2. Marching runs on a grid _REFINE
    times finer than requested and stores every _REFINE-th sample. Global
    error is O(h^2) in the requested step.

    Raises SolverInstabilityError when |G| at any inner step leaves the
    unit disc by more than 1e-6, the signature of a step too coarse for
    the kernel.
    """
    n_out = grid.n_steps
    g = np.empty(n_out + 1, dtype=complex)
    g_dot = np.empty(n_out + 1, dtype=complex)
    ksq = bath.k_squared
    g[0], g_dot[0] = 1.0, 0.0

    if ksq == 0.0:            # no mode carries weight: G is identically one
        g[:], g_dot[:] = 1.0, 0.0
        return ResponseFunction(grid, g, g_dot, bath)

    h = grid.h / _REFINE
    n_int = n_out * _REFINE
    delta = bath.detunings
    i_delta = 1j * delta
    # ahead[p, n] = e^{i delta_n (B-p) h} carries step p of a block to the
    # block end; its rows reversed are the kernel phases of lags 1..B.
    ahead = np.exp(np.outer(np.arange(_BLOCK, 0, -1) * h, i_delta))
    lagged = bath.coupling_sq * ahead[::-1]          # E[m-1, n] = c_n e^{i delta_n m h}
    kern = lagged.sum(axis=1)                        # k_1 .. k_B
    store = slice(_REFINE - 1, None, _REFINE)        # block rows kept as samples

    # In-block memory: b = E a_J + toeplitz(k) x with x_q = w g at step q.
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    causal = lag >= 0
    toep = np.where(causal, kern[lag], 0.0)
    toep_kept = toep[store]
    # The B steps as one system M u = e_0 (g_0 + h/2 gd_0) - H (p + x_0 k)
    # in u = (g_1 .. g_B), with p = E a_J: M = D + H S, D the implicit
    # step, H the trapezoid pair and S the strictly lower memory matrix.
    eye, sub = np.eye(_BLOCK), np.eye(_BLOCK, k=-1)
    step = (1.0 + 0.25 * h * h * ksq) * eye - (1.0 - 0.25 * h * h * ksq) * sub
    pair = 0.5 * h * h * (eye + sub)
    strict = np.zeros((_BLOCK, _BLOCK), dtype=complex)
    strict[:, :-1] = toep[:, 1:]
    inverse = np.linalg.inv(step + pair @ strict)
    gain = inverse @ pair
    gain_k = gain @ kern
    lead = inverse[:, 0]

    state = np.zeros(delta.shape[0], dtype=complex)  # a_J
    g_prev, gd_prev, w_prev = 1.0 + 0.0j, 0.0 + 0.0j, 0.5
    for start in range(0, n_int, _BLOCK):
        r = min(_BLOCK, n_int - start)               # r is a multiple of _REFINE
        x0 = w_prev * g_prev
        past = lagged[:r] @ state
        u = (lead[:r] * (g_prev + 0.5 * h * gd_prev) - gain[:r, :r] @ past
             - x0 * gain_k[:r])
        over = np.abs(u) > 1.0 + _ABS_G_SLACK
        if over.any():
            first = int(np.argmax(over))
            raise SolverInstabilityError(
                f"|G| reached {abs(u[first]):.8f} at tau={(start + first + 1) * h:g}; "
                "refine the time grid for this kernel")
        x = np.concatenate(([x0], u[:-1]))
        kept = u[store]
        n_kept = kept.shape[0]
        b = past[store] + toep_kept[:n_kept, :r] @ x
        out = slice(start // _REFINE + 1, start // _REFINE + 1 + n_kept)
        g[out] = kept
        g_dot[out] = -h * (b + 0.5 * ksq * kept)
        if r == _BLOCK:
            state = ahead[0] * state + x @ ahead
        g_prev, gd_prev, w_prev = u[-1], g_dot[out.stop - 1], 1.0

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
