"""Gaussian baths: discrete mode sets, continuous spectra, kernels and moments.

Units: frequencies and couplings are in rad/time with hbar = k_B = 1, so the
squared coupling |K|^2 carries rad^2/time^2 and all derived frequencies
(Omega_p, chi_q) are rates. Only |K_n|^2 ever enters a formula; coupling
phases are never represented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

import numpy as np


@dataclass(frozen=True)
class BathMode:
    """One harmonic mode of the environment."""

    coupling_sq: float        # |K|^2 >= 0
    frequency: float          # omega >= 0, rad/time
    occupation: float = 0.0   # mean excitation N >= 0

    def __post_init__(self):
        if self.coupling_sq < 0:
            raise ValueError("coupling_sq must be >= 0")
        if self.frequency < 0:
            raise ValueError("frequency must be >= 0")
        if self.occupation < 0:
            raise ValueError("occupation must be >= 0")


@dataclass(frozen=True, eq=False)
class DiscreteBath:
    """Ordered collection of bath modes plus the probe frequency.

    Immutable after construction; an empty mode list is the noiseless
    limit (zero kernel, response identically one).
    """

    modes: tuple[BathMode, ...]
    probe_frequency: float

    def __post_init__(self):
        if self.probe_frequency <= 0:
            raise ValueError("probe_frequency must be > 0")
        object.__setattr__(self, "modes", tuple(self.modes))

    @classmethod
    def from_arrays(cls, coupling_sq: Iterable[float], frequency: Iterable[float],
                    occupation: Iterable[float], probe_frequency: float) -> "DiscreteBath":
        modes = tuple(BathMode(float(c), float(w), float(n))
                      for c, w, n in zip(coupling_sq, frequency, occupation, strict=True))
        return cls(modes, float(probe_frequency))

    @classmethod
    def empty(cls, probe_frequency: float) -> "DiscreteBath":
        return cls((), float(probe_frequency))

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @cached_property
    def coupling_sq(self) -> np.ndarray:
        return np.array([m.coupling_sq for m in self.modes], dtype=float)

    @cached_property
    def frequencies(self) -> np.ndarray:
        return np.array([m.frequency for m in self.modes], dtype=float)

    @cached_property
    def occupations(self) -> np.ndarray:
        return np.array([m.occupation for m in self.modes], dtype=float)

    @cached_property
    def detunings(self) -> np.ndarray:
        """probe_frequency - mode frequency, the rotating-frame rates."""
        return self.probe_frequency - self.frequencies

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
        return np.linalg.eigh(h)

    def propagate(self, w, tau) -> np.ndarray:
        """Row w^T U(tau) of the amplitude propagator U = V e^{-i Lambda tau} V^T.

        w weights the probe (index 0) and the modes (1..N); the result has
        shape tau.shape + (N+1,). U_0n(tau) is the bath-mode content of the
        probe amplitude; the probe frame is not rotated.
        """
        lam, vec = self.eigensystem
        phases = np.exp(-1j * np.multiply.outer(np.asarray(tau, dtype=float), lam))
        return (phases * (np.asarray(w, dtype=float) @ vec)) @ vec.T


@dataclass(frozen=True)
class OccupationModel:
    """How mode occupations are assigned when discretizing a continuum."""

    kind: str                   # "zero" | "thermal" | "constant"
    temperature: float = 0.0    # rad/time, thermal kind only
    value: float = 0.0          # constant kind only

    def __post_init__(self):
        if self.kind not in ("zero", "thermal", "constant"):
            raise ValueError(f"unknown occupation model {self.kind!r}")
        if self.kind == "thermal" and self.temperature <= 0:
            raise ValueError("thermal occupation needs temperature > 0")
        if self.kind == "constant" and self.value < 0:
            raise ValueError("constant occupation must be >= 0")

    @classmethod
    def zero(cls) -> "OccupationModel":
        return cls("zero")

    @classmethod
    def thermal(cls, temperature: float) -> "OccupationModel":
        return cls("thermal", temperature=float(temperature))

    @classmethod
    def constant(cls, value: float) -> "OccupationModel":
        return cls("constant", value=float(value))

    def occupation(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(omega)
        if self.kind == "constant":
            return np.full_like(omega, self.value)
        return 1.0 / np.expm1(omega / self.temperature)


# Support of an exponentially cut spectrum is truncated here, in units of
# the cutoff; the density beyond 8 cutoffs is below 3.4e-4 of its peak.
_EXPONENTIAL_SUPPORT = 8.0


@dataclass(frozen=True)
class ContinuousSpectrum:
    """Coupling density g(omega)|K(omega)|^2 of a standard spectral family.

    family "flat" is a constant density on [0, cutoff]; family "ohmic"
    scales as omega**exponent (sub-ohmic below 1, super-ohmic above).
    """

    family: str                     # "flat" | "ohmic"
    scale: float                    # density prefactor
    cutoff: float                   # omega_c, rad/time
    exponent: float = 1.0           # ohmic family only
    cutoff_shape: str = "hard"      # "hard" | "exponential"
    occupation: OccupationModel = field(default_factory=OccupationModel.zero)

    def __post_init__(self):
        if self.family not in ("flat", "ohmic"):
            raise ValueError(f"unknown spectral family {self.family!r}")
        if self.cutoff_shape not in ("hard", "exponential"):
            raise ValueError(f"unknown cutoff shape {self.cutoff_shape!r}")
        if self.scale < 0:
            raise ValueError("scale must be >= 0")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be > 0")
        if self.family == "ohmic" and self.exponent <= 0:
            raise ValueError("ohmic exponent must be > 0")

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
    return DiscreteBath.from_arrays(coupling, mids, occ, probe_frequency)


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


@dataclass(frozen=True)
class BathMoments:
    """Moment frequencies of the coupling spectrum.

    omega_p holds the unweighted moments for p = 2 .. p_max; chi_q holds
    the occupation-weighted moment magnitudes for q = 1 .. p_max and is
    empty when the bath carries no noise weight (script_n == 0).
    """

    k_squared: float
    script_n: float
    omega_p: tuple[float, ...]
    chi_q: tuple[float, ...]
    p_max: int

    @property
    def chi_defined(self) -> bool:
        return len(self.chi_q) > 0

    def omega(self, p: int) -> float:
        if p < 2 or p > self.p_max:
            raise IndexError(f"omega_p defined for 2 <= p <= {self.p_max}")
        return self.omega_p[p - 2]

    def chi(self, q: int) -> float:
        if not self.chi_defined:
            raise ValueError("chi moments undefined for a weightless bath")
        if q < 1 or q > self.p_max:
            raise IndexError(f"chi_q defined for 1 <= q <= {self.p_max}")
        return self.chi_q[q - 1]

    @property
    def fastest_rate(self) -> float:
        """Largest of all moment frequencies; its inverse bounds short-time windows."""
        rates = list(self.omega_p) + list(self.chi_q)
        return max(rates) if rates else 0.0


def moments(bath: DiscreteBath, p_max: int = 6) -> BathMoments:
    """Moment frequencies Omega_p (p = 2..p_max) and chi_q (q = 1..p_max)."""
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    ksq = bath.k_squared
    script_n = bath.script_n
    if bath.n_modes == 0 or ksq == 0.0:
        omega_p = tuple(0.0 for _ in range(2, p_max + 1))
        return BathMoments(ksq, script_n, omega_p, (), p_max)
    det = bath.detunings
    c = bath.coupling_sq
    omega_p = tuple(abs(float(np.dot(c, det ** (p - 2)))) ** (1.0 / p)
                    for p in range(2, p_max + 1))
    if script_n > 0.0:
        w = c * (bath.occupations + 0.5) / script_n
        chi_q = tuple(abs(float(np.dot(w, det ** q))) ** (1.0 / q)
                      for q in range(1, p_max + 1))
    else:
        chi_q = ()
    return BathMoments(ksq, script_n, omega_p, chi_q, p_max)
