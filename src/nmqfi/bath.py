"""Gaussian baths: discrete mode sets, continuous spectra, kernels and moments.

Units: frequencies and couplings are in rad/time with hbar = k_B = 1, so the
squared coupling |K|^2 carries rad^2/time^2 and all derived frequencies
(Omega_p, chi_q) are rates. Only |K_n|^2 ever enters a formula; coupling
phases are never represented.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from typing import NamedTuple, Union

import numpy as np

from .errors import ConfigError, Frozen


# Most Chebyshev terms of the propagator: past them, a bath's spectral
# half-width times grid.t_end is refused. A block of the series holds at
# most BLOCK_ENTRIES Bessel values, which bounds its working memory.
MAX_TERMS = BLOCK_ENTRIES = 2 ** 16


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class DiscreteBath(Frozen):
    """Bath modes as three read-only arrays plus the probe frequency.

    coupling_sq |K_n|^2, frequencies omega_n and occupations N_n are 1-D,
    of one length and >= 0. The arrays are copied and set read-only, as
    are the cached detunings, so the type is immutable and no cached array
    can fall out of step with the modes; an empty mode list is the
    noiseless limit (zero kernel, response identically one). Amplitudes
    evolve under H = [[omega0, K^T], [K, diag(omega_n)]], K_n = sqrt(|K_n|^2):
    the rotating-wave (N+1)-mode Friedrichs (Fano-Anderson) model.
    """

    def __init__(self, coupling_sq: np.ndarray, frequencies: np.ndarray,
                 occupations: np.ndarray, probe_frequency: float):
        arrays = dict(coupling_sq=coupling_sq, frequencies=frequencies,
                      occupations=occupations)
        for name, values in arrays.items():
            arr = np.array(values, dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-D array")
            if (arr < 0).any():
                raise ValueError(f"{name} must be >= 0")
            arrays[name] = _read_only(arr)
        if len({arr.size for arr in arrays.values()}) != 1:
            raise ValueError("coupling_sq, frequencies and occupations differ in length")
        if (arrays["occupations"] > 1.34e154).any():   # n_B <= N + 1/2
            raise ValueError("occupations above 1.34e154 overflow (N + 1/2)^2")
        if probe_frequency <= 0:
            raise ValueError("probe_frequency must be > 0")
        vars(self).update(arrays, probe_frequency=float(probe_frequency))

    @property
    def n_modes(self) -> int:
        return self.coupling_sq.size

    @cached_property
    def detunings(self) -> np.ndarray:
        """probe_frequency - mode frequency, the rotating-frame rates."""
        return _read_only(self.probe_frequency - self.frequencies)

    @property
    def k_squared(self) -> float:
        return float(self.coupling_sq.sum())

    @property
    def script_n(self) -> float:
        return float(np.dot(self.coupling_sq, self.occupations + 0.5))

    def series(self, t_end: float) -> tuple[float, float, int]:
        """(a, b, K): Weyl's inequality puts the spectrum of H in b -+ a (b
        the middle of omega0 and the mode frequencies, a half their spread
        plus ||K|| and at least the smallest float), and K terms expand
        e^{-i H t} for t <= t_end. K past MAX_TERMS is a ConfigError naming
        grid.t_end, which bounds every time a run propagates to."""
        diag = np.append(self.frequencies, self.probe_frequency)
        lo, hi, t_end = float(diag.min()), float(diag.max()), float(t_end)
        a = max(0.5 * (hi - lo) + math.sqrt(self.k_squared), np.finfo(float).tiny)
        if not n_terms(a * t_end) <= MAX_TERMS:
            raise ConfigError(f"grid.t_end {t_end!r} needs more than {MAX_TERMS} Chebyshev"
                              f" terms at the bath's spectral half-width {a:.6g}")
        return a, 0.5 * (hi + lo), math.ceil(n_terms(a * t_end))

    def chebyshev_vectors(self, w: np.ndarray, a: float, b: float):
        """T_k((H - b)/a) w for k = 0, 1, ..., by the three-term recurrence
        from T_-1 w = T_1 w: one O(N) arrowhead product per order."""
        diag = (np.append(self.probe_frequency, self.frequencies) - b) / a
        k = np.sqrt(self.coupling_sq) / a

        def arrow(v):                  # (H - b) v / a
            y = diag * v
            y[0] += k @ v[1:]
            y[1:] += k * v[0]
            return y
        prev = arrow(w)
        while True:
            yield w
            prev, w = w, 2.0 * arrow(w) - prev

    def propagate(self, w, tau) -> np.ndarray:
        """Row w^T U(tau) of the amplitude propagator U(tau) = e^{-i H tau}.

        w weights the probe (index 0) and the modes (1..N); tau >= 0, and
        the result has shape tau.shape + (N+1,): U_0n(tau) is the bath-mode
        content of the probe amplitude, in the unrotated frame. The series
        of solve_response, e^{-i b tau} sum_k c_k(tau) T_k w, one order past
        series(max tau), costs O(K N) per tau for K orders; each order is
        added elementwise, so a tau's bits do not depend on the other taus.
        """
        w, tau = np.asarray(w, dtype=float), np.asarray(tau, dtype=float)
        t = tau.ravel()
        a, b, n = self.series(t.max(initial=0.0))
        out = np.empty((t.size, w.size), dtype=complex)
        chunk = max(1, BLOCK_ENTRIES // (n + 1))
        for i in range(0, t.size, chunk):
            c, norm = chebyshev_sum(a * t[i:i + chunk], n + 1, n + 1, lambda k0, c: c)
            acc = np.zeros((2, c.shape[0], w.size))     # even, odd orders
            for k, v in zip(range(n + 1), self.chebyshev_vectors(w, a, b)):
                acc[k % 2] += np.multiply.outer((c.real, c.imag)[k % 2][:, k], v)
            out[i:i + chunk] = (acc[0] + 1j * acc[1]) * (
                np.exp(-1j * b * t[i:i + chunk]) / norm)[:, None]
        return out.reshape(tau.shape + w.shape)


def n_terms(x):
    """Terms kept of e^{-i x y}, |y| <= 1: past them J_k(x) is below rounding."""
    return x + 8.0 * np.cbrt(x) + 30.0


def chebyshev_sum(z: np.ndarray, count: int, span: int, term):
    """sum of term(k0, c) over blocks of span orders from the top down, and
    the normaliser that divides it: c[:, i] holds the coefficient of order
    k = k0 + i < count, unnormalised, of e^{-i z y} = sum_k c_k T_k(y),
    c_k = e_k (-i)^k J_k(z) (e_0 = 1, else 2), elementwise in z >= 0.
    Miller's recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, normalised by J_0 +
    2 sum J_2k = 1, seeds each z with 1e-300 at order n_terms(z) (at 2 below
    z = 1e-8, where J_3 / J_1 < 1e-17) and at most count - 1, so no value
    leaves [1e-300, 1e301].
    """
    start = np.where(z < 1e-8, 2, np.ceil(n_terms(z))).clip(max=count - 1)
    inv = 2.0 / np.maximum(z, 1e-300)
    weights = np.append(1.0, np.resize([-2j, -2.0, 2j, 2.0], count - 1))
    block = np.empty((span, z.size))
    total = even = 0.0
    j1 = j2 = np.zeros(z.size)                     # J_{k+1}, J_{k+2}
    for k in range(count - 1, -1, -1):
        j1, j2 = (k + 1) * inv * j1 - j2, j1
        j1[start == k] = 1e-300
        k0 = k - k % span
        block[k - k0] = j1
        if k == k0:
            k1 = min(k0 + span, count)
            # row by row: a one-column sum(axis=0) would sum pairwise
            even = even + reduce(np.add, block[k0 % 2:k1 - k0:2])
            total = total + term(k0, block[:k1 - k0].T * weights[k0:k1])
    return total, 2.0 * even - j1


class OccupationModel(Frozen):
    """How mode occupations are assigned when discretizing a continuum."""

    def __init__(self, kind: str,             # "zero" | "thermal" | "constant"
                 temperature: float = 0.0,    # rad/time, thermal kind only
                 value: float = 0.0):         # constant kind only
        if kind not in ("zero", "thermal", "constant"):
            raise ValueError(f"unknown occupation model {kind!r}")
        if kind == "thermal" and temperature <= 0:
            raise ValueError("thermal occupation needs temperature > 0")
        if kind == "constant" and value < 0:
            raise ValueError("constant occupation must be >= 0")
        vars(self).update(kind=kind, temperature=temperature, value=value)

    def occupation(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(omega)
        if self.kind == "constant":
            return np.full_like(omega, self.value)
        # a temperature far below omega overflows to the exact limit 1/inf = 0;
        # one so far above omega that omega/T underflows gives inf, which
        # the bath refuses as an overflowing occupation
        with np.errstate(over="ignore", divide="ignore"):
            return 1.0 / np.expm1(omega / self.temperature)


# Support of an exponentially cut spectrum is truncated here, in units of
# the cutoff; the density beyond 8 cutoffs is below 3.4e-4 of its peak.
_EXPONENTIAL_SUPPORT = 8.0


class ContinuousSpectrum(Frozen):
    """Coupling density g(omega)|K(omega)|^2 of a standard spectral family.

    family "flat" is a constant density on [0, cutoff]; family "ohmic"
    scales as omega**exponent (sub-ohmic below 1, super-ohmic above).
    """

    def __init__(self, family: str,           # "flat" | "ohmic"
                 scale: float,                # density prefactor
                 cutoff: float,               # omega_c, rad/time
                 exponent: float = 1.0,       # ohmic family only
                 cutoff_shape: str = "hard",  # "hard" | "exponential"
                 occupation: OccupationModel = OccupationModel("zero")):
        if family not in ("flat", "ohmic"):
            raise ValueError(f"unknown spectral family {family!r}")
        if cutoff_shape not in ("hard", "exponential"):
            raise ValueError(f"unknown cutoff shape {cutoff_shape!r}")
        if scale < 0:
            raise ValueError("scale must be >= 0")
        if cutoff <= 0:
            raise ValueError("cutoff must be > 0")
        if family == "ohmic" and exponent <= 0:
            raise ValueError("ohmic exponent must be > 0")
        vars(self).update(family=family, scale=scale, cutoff=cutoff,
                          exponent=exponent, cutoff_shape=cutoff_shape,
                          occupation=occupation)

    @property
    def support_limit(self) -> float:
        if self.cutoff_shape == "hard":
            return self.cutoff
        return _EXPONENTIAL_SUPPORT * self.cutoff

    def density(self, omega) -> np.ndarray:
        """Coupling density at omega (zero outside the support)."""
        omega = np.asarray(omega, dtype=float)
        inside = (omega >= 0) & (omega <= self.support_limit)
        base = np.full_like(omega, self.scale)
        if self.family == "ohmic":
            base = base * np.power(np.where(omega > 0, omega, 0.0), self.exponent)
        if self.cutoff_shape == "exponential":
            base = base * np.exp(-omega / self.cutoff)
        return np.where(inside, base, 0.0)


def discretize(spectrum: ContinuousSpectrum, n_modes: int,
               probe_frequency: float) -> DiscreteBath:
    """Replace a continuous spectrum by n_modes equal-width frequency bins.

    Each mode sits at its bin midpoint; its squared coupling is the
    midpoint-rule estimate of the density integral over the bin, so the
    coupling sum converges to the full spectral integral as n_modes grows.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    upper = spectrum.support_limit
    width = upper / n_modes
    mids = (np.arange(n_modes) + 0.5) * width
    coupling = spectrum.density(mids) * width
    occ = spectrum.occupation.occupation(mids)
    return DiscreteBath(coupling, mids, occ, probe_frequency)


def _weighted_phase_sum(bath: DiscreteBath, tau, weights: np.ndarray):
    """sum_n w_n exp(i delta_n tau), preserving the shape of tau."""
    tau_arr = np.asarray(tau, dtype=float)
    out = np.exp(1j * tau_arr[..., None] * bath.detunings) @ weights.astype(complex)
    return complex(out) if tau_arr.ndim == 0 else out


def memory_kernel(bath: DiscreteBath, tau) -> Union[complex, np.ndarray]:
    """Kernel sum(|K_n|^2 exp(i (omega0 - omega_n) tau)) driving the response.

    Hermitian in tau: kernel(-tau) = conj(kernel(tau)); kernel(0) equals
    the total squared coupling.
    """
    return _weighted_phase_sum(bath, tau, bath.coupling_sq)


def bare_correlation(bath: DiscreteBath, tau) -> Union[complex, np.ndarray]:
    """Free-bath correlation sum(|K_n|^2 (N_n + 1/2) exp(i (omega0 - omega_n) tau))."""
    return _weighted_phase_sum(bath, tau, bath.coupling_sq * (bath.occupations + 0.5))


# Highest moment order: Omega_p for p = 2 .. 6, chi_q for q = 1 .. 6.
_MAX_ORDER = 6


class BathMoments(NamedTuple):
    """Moment frequencies of the coupling spectrum.

    omega_p holds the unweighted moments for p = 2 .. 6; chi_q holds the
    occupation-weighted moment magnitudes for q = 1 .. 6 and is empty when
    the bath carries no noise weight (script_n == 0).
    """

    k_squared: float
    script_n: float
    omega_p: tuple[float, ...]
    chi_q: tuple[float, ...]

    def omega(self, p: int) -> float:
        if p < 2 or p > _MAX_ORDER:
            raise IndexError(f"omega_p defined for 2 <= p <= {_MAX_ORDER}")
        return self.omega_p[p - 2]

    def chi(self, q: int) -> float:
        if not self.chi_q:
            raise ValueError("chi moments undefined for a weightless bath")
        if q < 1 or q > _MAX_ORDER:
            raise IndexError(f"chi_q defined for 1 <= q <= {_MAX_ORDER}")
        return self.chi_q[q - 1]

    @property
    def fastest_rate(self) -> float:
        """Largest of all moment frequencies; its inverse bounds short-time windows."""
        rates = list(self.omega_p) + list(self.chi_q)
        return max(rates) if rates else 0.0


def moments(bath: DiscreteBath) -> BathMoments:
    """Moment frequencies Omega_p (p = 2..6) and chi_q (q = 1..6)."""
    ksq = bath.k_squared
    script_n = bath.script_n
    if bath.n_modes == 0 or ksq == 0.0:
        return BathMoments(ksq, script_n, (0.0,) * (_MAX_ORDER - 1), ())
    det = bath.detunings
    c = bath.coupling_sq
    omega_p = tuple(abs(float(np.dot(c, det ** (p - 2)))) ** (1.0 / p)
                    for p in range(2, _MAX_ORDER + 1))
    if script_n > 0.0:
        w = c * (bath.occupations + 0.5) / script_n
        chi_q = tuple(abs(float(np.dot(w, det ** q))) ** (1.0 / q)
                      for q in range(1, _MAX_ORDER + 1))
    else:
        chi_q = ()
    return BathMoments(ksq, script_n, omega_p, chi_q)
