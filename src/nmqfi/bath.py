"""Gaussian baths: discrete mode sets, continuous spectra, kernels and moments.

Units: frequencies and couplings are in rad/time with hbar = k_B = 1, so the
squared coupling |K|^2 carries rad^2/time^2 and all derived frequencies
(Omega_p, chi_q) are rates. Only |K_n|^2 ever enters a formula; coupling
phases are never represented.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .errors import Frozen


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class DiscreteBath(Frozen):
    """Bath modes as three read-only arrays plus the probe frequency.

    coupling_sq |K_n|^2, frequencies omega_n and occupations N_n are 1-D,
    of one length and >= 0. The arrays are copied and set read-only, as
    are the cached detunings and eigensystem, so the type is immutable and
    no cached array can fall out of step with the modes; an empty mode
    list is the noiseless limit (zero kernel, response identically one).
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

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and vectors of the probe-plus-bath amplitude generator.

        H = [[omega0, K^T], [K, diag(omega_n)]] with K_n = sqrt(|K_n|^2):
        the rotating-wave system is an (N+1)-mode Friedrichs (Fano-Anderson)
        model. Computed on first use only.
        """
        h = np.diag(np.concatenate(([self.probe_frequency], self.frequencies)))
        h[0, 1:] = h[1:, 0] = np.sqrt(self.coupling_sq)
        lam, vec = np.linalg.eigh(h)
        return _read_only(lam), _read_only(vec)

    def propagate(self, w, tau) -> np.ndarray:
        """Row w^T U(tau) of the amplitude propagator U = V e^{-i Lambda tau} V^T.

        w weights the probe (index 0) and the modes (1..N); the result has
        shape tau.shape + (N+1,). U_0n(tau) is the bath-mode content of the
        probe amplitude; the probe frame is not rotated.
        """
        lam, vec = self.eigensystem
        phases = np.exp(-1j * np.multiply.outer(np.asarray(tau, dtype=float), lam))
        return (phases * (np.asarray(w, dtype=float) @ vec)) @ vec.T


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
