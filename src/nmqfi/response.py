"""Bath response function: Volterra solver, series expansions, closed-form limits.

The response G(tau) is the complex amplitude multiplying the initial probe
quadratures after tracing out the bath. It solves

    dG/dtau = - integral_0^tau kernel(tau - s) G(s) ds,   G(0) = 1,

with the memory kernel of :mod:`nmqfi.bath`. |G| <= 1 always; the noiseless
limit is G == 1, a single resonant mode gives a pure cosine, and a broad
flat band approaches an exponential envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .bath import ContinuousSpectrum, DiscreteBath, memory_kernel, moments
from .errors import ConvergenceError, CoverageError, SolverInstabilityError

_ABS_G_SLACK = 1e-6

# Internal marching runs on a grid this many times finer than the requested
# one; the scheme stays second order in the grid step while the error
# constant drops by the square of the factor.
_REFINE = 4


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with n_steps intervals."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError("n_steps must be >= 2")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def h(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t_start + self.h * np.arange(self.n_steps + 1)


def default_grid(bath: DiscreteBath, t_end: float, floor_steps: int = 1024) -> TimeGrid:
    """Grid sized so the step resolves both the probe and the kernel rates.

    Targets h * max(Omega_2, omega0) <= 0.02 with a floor on the step count.
    """
    rate = max(moments(bath, 2).omega(2), bath.probe_frequency)
    n = max(floor_steps, int(np.ceil(t_end * rate / 0.02)))
    return TimeGrid(0.0, float(t_end), n)


def _hermite_eval(query: np.ndarray, h: float, y: np.ndarray,
                  dy: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolation of samples y with derivatives dy."""
    n = y.shape[0] - 1
    idx = np.clip(np.floor(query / h).astype(int), 0, n - 1)
    s = query / h - idx
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return (h00 * y[idx] + (h10 * h) * dy[idx]
            + h01 * y[idx + 1] + (h11 * h) * dy[idx + 1])


@dataclass(frozen=True, eq=False)
class ResponseFunction:
    """Sampled response G and its derivative on a uniform grid from 0.

    Off-grid queries use cubic Hermite interpolation built from the stored
    derivative (and, for the derivative itself, from the stored second
    derivative). Immutable; safe for concurrent reads.
    """

    grid: TimeGrid
    g_samples: np.ndarray
    g_dot_samples: np.ndarray
    g_ddot_samples: np.ndarray
    bath: DiscreteBath

    @property
    def t_end(self) -> float:
        return self.grid.t_end

    def require_coverage(self, tau: float) -> None:
        if tau < -1e-12 or tau > self.t_end * (1.0 + 1e-12) + 1e-15:
            raise CoverageError(
                f"response solved on [0, {self.t_end:g}] cannot cover tau={tau:g}")

    def _eval(self, tau, y, dy) -> Union[complex, np.ndarray]:
        arr = np.atleast_1d(np.asarray(tau, dtype=float))
        if arr.size:
            lo, hi = float(arr.min()), float(arr.max())
            self.require_coverage(lo)
            self.require_coverage(hi)
        clipped = np.clip(arr, 0.0, self.t_end)
        out = _hermite_eval(clipped, self.grid.h, y, dy)
        return out[0] if np.ndim(tau) == 0 else out

    def g(self, tau) -> Union[complex, np.ndarray]:
        """G at elapsed time tau (scalar or array)."""
        return self._eval(tau, self.g_samples, self.g_dot_samples)

    def g_dot(self, tau) -> Union[complex, np.ndarray]:
        """dG/dtau at elapsed time tau."""
        return self._eval(tau, self.g_dot_samples, self.g_ddot_samples)

    def magnitude(self, tau) -> Union[float, np.ndarray]:
        return np.abs(self.g(tau))

    def phase(self, tau) -> Union[float, np.ndarray]:
        """arg G in [0, 2pi); zero by convention where G vanishes."""
        val = self.g(tau)
        ang = np.mod(np.angle(val), 2.0 * np.pi)
        return np.where(np.abs(val) > 0.0, ang, 0.0) if np.ndim(tau) else (
            ang if abs(val) > 0.0 else 0.0)


def solve_response(bath: DiscreteBath, grid: TimeGrid) -> ResponseFunction:
    """March the response equation with an implicit product-trapezoid scheme.

    The memory integral at each step uses trapezoid weights with the kernel
    split per mode into running phase accumulators (cost scales with
    n_steps * n_modes, not n_steps**2); the step itself is the trapezoid
    rule on dG/dtau, solved in closed form for the implicit endpoint.
    Marching runs on a grid _REFINE times finer than requested and stores
    every _REFINE-th sample. Global error is O(h^2) in the requested step.

    Raises SolverInstabilityError when |G| leaves the unit disc by more
    than 1e-6, the signature of a step too coarse for the kernel.
    """
    if grid.t_start != 0.0:
        raise ValueError("response grids must start at 0")
    n_out = grid.n_steps
    g = np.empty(n_out + 1, dtype=complex)
    g_dot = np.empty(n_out + 1, dtype=complex)
    g_ddot = np.empty(n_out + 1, dtype=complex)
    ksq = bath.k_squared
    g[0], g_dot[0], g_ddot[0] = 1.0, 0.0, -ksq

    if ksq == 0.0:            # no mode carries weight: G is identically one
        g[:], g_dot[:], g_ddot[:] = 1.0, 0.0, 0.0
        return ResponseFunction(grid, g, g_dot, g_ddot, bath)

    h = grid.h / _REFINE
    n_int = n_out * _REFINE
    delta = bath.detunings
    c = bath.coupling_sq.astype(complex)
    c_dot = c * (1j * delta)          # kernel-derivative coefficients
    kdot0 = complex(c_dot.sum())
    rot = np.exp(-1j * delta * h)
    phases = np.ones(delta.shape[0], dtype=complex)   # exp(-i delta tau_j)
    acc = np.zeros(delta.shape[0], dtype=complex)     # weighted history sums
    implicit = 1.0 + 0.25 * h * h * ksq
    g_prev = 1.0 + 0.0j
    gd_prev = 0.0 + 0.0j
    worst = 1.0

    for j in range(1, n_int + 1):
        acc += (0.5 if j == 1 else 1.0) * g_prev * phases
        if j % 1024:
            phases = phases * rot
        else:
            phases = np.exp(-1j * delta * (j * h))   # periodic exact refresh
        hist = np.conj(phases) * acc
        b = complex(np.dot(c, hist))
        g_j = (g_prev + 0.5 * h * gd_prev - 0.5 * h * h * b) / implicit
        gd_j = -h * (b + 0.5 * ksq * g_j)
        mag = abs(g_j)
        if mag > worst:
            worst = mag
            if worst > 1.0 + _ABS_G_SLACK:
                raise SolverInstabilityError(
                    f"|G| reached {worst:.8f} at tau={j * h:g}; "
                    "refine the time grid for this kernel")
        if j % _REFINE == 0:
            k = j // _REFINE
            g[k] = g_j
            g_dot[k] = gd_j
            g_ddot[k] = -ksq * g_j - h * (complex(np.dot(c_dot, hist))
                                          + 0.5 * kdot0 * g_j)
        g_prev, gd_prev = g_j, gd_j

    return ResponseFunction(grid, g, g_dot, g_ddot, bath)


def short_time_response(bath: DiscreteBath, tau) -> Union[complex, np.ndarray]:
    """Three-term expansion of G around zero elapsed time.

    1 - (K^2/2) tau^2 + i (tau^3/6) sum(|K_n|^2 (omega_n - omega0)); valid
    while tau stays well below every inverse moment frequency.
    """
    tau_arr = np.asarray(tau, dtype=float)
    ksq = bath.k_squared
    skew = -float(np.dot(bath.coupling_sq, bath.detunings)) if bath.n_modes else 0.0
    return 1.0 - 0.5 * ksq * tau_arr ** 2 + 1j * (tau_arr ** 3 / 6.0) * skew


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


# Detunings below this fraction of Omega_2 take the removable-singularity
# limit of the first-order bracket.
_RESONANT_FRACTION = 1e-6


def first_order_response(bath: DiscreteBath, tau: float) -> complex:
    """First (single-kernel) term of the response series at elapsed time tau.

    Per mode with detuning d = omega_n - omega0 the term is
    -|K|^2 [(1 - cos(d tau))/d^2 - i tau/d + i sin(d tau)/d^2]; the
    resonant limit of the bracket is tau^2/2.
    """
    if bath.n_modes == 0 or bath.k_squared == 0.0:
        return 0.0 + 0.0j
    d = -bath.detunings          # omega_n - omega0
    c = bath.coupling_sq
    omega2 = moments(bath, 2).omega(2)
    cut = _RESONANT_FRACTION * omega2
    resonant = np.abs(d) <= cut
    safe = np.where(resonant, 1.0, d)
    bracket = ((1.0 - np.cos(safe * tau)) / safe ** 2
               - 1j * tau / safe
               + 1j * np.sin(safe * tau) / safe ** 2)
    bracket = np.where(resonant, 0.5 * tau ** 2 + 0.0j, bracket)
    return complex(-np.dot(c, bracket))


def first_order_asymptote(spectrum: ContinuousSpectrum, tau: float,
                          probe_frequency: float) -> float:
    """Late-time slope form of the first-order real part for a continuum.

    Returns -(pi/2) tau times the coupling density at the probe frequency.
    """
    return float(-0.5 * np.pi * tau * spectrum.density(probe_frequency))


def long_time_first_order(bath_or_spectrum, tau: float,
                          probe_frequency: float | None = None):
    """First-order response term; continua produce the late-time asymptote."""
    if isinstance(bath_or_spectrum, DiscreteBath):
        return first_order_response(bath_or_spectrum, tau)
    if probe_frequency is None:
        raise ValueError("probe_frequency required for a continuous spectrum")
    return first_order_asymptote(bath_or_spectrum, tau, probe_frequency)


class _ExpPoly:
    """Finite sum of terms poly(t) * exp(i m delta t) on integer lattice m.

    Supports exactly what the single-mode series recursion needs: shift of
    the lattice index, scaling, and integration from zero.
    """

    def __init__(self, terms: dict[int, np.ndarray], delta: float):
        self.delta = delta
        self.terms = {m: np.asarray(p, dtype=complex) for m, p in terms.items()}

    @classmethod
    def one(cls, delta: float) -> "_ExpPoly":
        return cls({0: np.array([1.0 + 0.0j])}, delta)

    def scaled(self, factor: complex) -> "_ExpPoly":
        return _ExpPoly({m: p * factor for m, p in self.terms.items()}, self.delta)

    def shifted(self, dm: int) -> "_ExpPoly":
        return _ExpPoly({m + dm: p for m, p in self.terms.items()}, self.delta)

    def integral_from_zero(self) -> "_ExpPoly":
        """Antiderivative vanishing at t = 0."""
        out: dict[int, np.ndarray] = {}

        def add(m: int, poly: np.ndarray):
            if m in out:
                a, b = out[m], poly
                if a.shape[0] < b.shape[0]:
                    a, b = b, a
                a = a.copy()
                a[: b.shape[0]] += b
                out[m] = a
            else:
                out[m] = poly.astype(complex)

        for m, p in self.terms.items():
            alpha = 1j * m * self.delta
            if m == 0 or alpha == 0:
                ip = np.zeros(p.shape[0] + 1, dtype=complex)
                ip[1:] = p / np.arange(1, p.shape[0] + 1)
                add(0, ip)
                continue
            # integrate t^k exp(alpha t) by parts; collect the constant
            res = np.zeros(p.shape[0], dtype=complex)
            const = 0.0 + 0.0j
            for k in range(p.shape[0]):
                coeff = p[k]
                fac = 1.0 + 0.0j
                for j in range(k + 1):
                    # term t^(k-j) exp(alpha t) * (-1)^j k!/(k-j)! / alpha^(j+1)
                    term = coeff * fac * (-1.0) ** j / alpha ** (j + 1)
                    res[k - j] += term
                    if j < k:
                        fac *= (k - j)
                const -= coeff * fac * (-1.0) ** k / alpha ** (k + 1)
            add(m, res)
            add(0, np.array([const], dtype=complex))
        return _ExpPoly(out, self.delta)

    def eval(self, t: float) -> complex:
        total = 0.0 + 0.0j
        for m, p in self.terms.items():
            val = 0.0 + 0.0j
            for k in range(p.shape[0] - 1, -1, -1):
                val = val * t + p[k]
            total += val * np.exp(1j * m * self.delta * t)
        return complex(total)


def _dyson_single_mode(coupling_sq: float, delta: float, tau: float,
                       order: int) -> complex:
    """Closed-form partial sum for one mode via repeated integration."""
    total = 1.0 + 0.0j
    term = _ExpPoly.one(delta)
    for _ in range(order):
        inner = term.shifted(-1).integral_from_zero()       # e^{-i d s} f(s)
        outer = inner.shifted(1).scaled(-coupling_sq)       # -c e^{+i d u} (...)
        term = outer.integral_from_zero()
        total += term.eval(tau)
    return total


_DYSON_MAX_INTERVALS = 1 << 13


def _dyson_multi_mode(bath: DiscreteBath, tau: float, order: int,
                      tol: float = 1e-8) -> complex:
    """Grid iteration of the nested-integral terms, refined until stable."""
    value = None
    n = 256
    while n <= _DYSON_MAX_INTERVALS:
        s = np.linspace(0.0, tau, n + 1)
        h = tau / n
        kernel = np.asarray(memory_kernel(bath, s))
        term = np.ones(n + 1, dtype=complex)
        total = 1.0 + 0.0j
        for _ in range(order):
            half = term.copy()
            half[0] *= 0.5
            conv = np.convolve(kernel, half)[: n + 1]
            inner = h * (conv - 0.5 * kernel[0] * term)
            inner[0] = 0.0
            # cumulative trapezoid of inner, negated
            steps = 0.5 * h * (inner[1:] + inner[:-1])
            term = np.concatenate(([0.0], -np.cumsum(steps)))
            total += term[-1]
        if value is not None and abs(total - value) <= max(1e-14, tol * abs(total)):
            return complex(total)
        value = total
        n *= 2
    raise ConvergenceError(f"Dyson grid iteration at tau={tau:g} not converged "
                           f"on {_DYSON_MAX_INTERVALS} grid intervals")


def dyson_series(bath: DiscreteBath, tau: float, order: int) -> complex:
    """Partial sum of the response's nested-integral series up to `order`.

    Intended for K^2 tau^2 of order one or below. Single-mode baths use
    exact term-by-term integration; multi-mode baths fall back to a
    refined grid iteration, are capped at order 4 and raise
    ConvergenceError when the iteration does not settle.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order == 0 or bath.n_modes == 0:
        return 1.0 + 0.0j
    if bath.n_modes == 1:
        return _dyson_single_mode(float(bath.coupling_sq[0]),
                                  float(bath.detunings[0]), tau, order)
    if order > 4:
        raise ValueError("orders above 4 are unsupported for multi-mode baths; "
                         "use solve_response instead")
    return _dyson_multi_mode(bath, tau, order)


def solver_residual(resp: ResponseFunction) -> float:
    """Max trapezoid residual of the stored samples in the response equation."""
    grid = resp.grid
    tau = grid.times()
    kernel = np.asarray(memory_kernel(resp.bath, tau))
    worst = 0.0
    g = resp.g_samples
    for j in range(1, grid.n_steps + 1):
        integrand = kernel[j::-1] * g[: j + 1]
        integral = np.trapezoid(integrand, dx=grid.h)
        worst = max(worst, abs(resp.g_dot_samples[j] + integral))
    return worst
