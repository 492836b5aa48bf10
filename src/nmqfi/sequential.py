"""Sequential prepare-sense-measure cadence: totals, optimum, asymptotics.

One protocol step re-prepares the optimal squeezed probe, senses for an
interval tau, and measures the best quadrature; the figure of merit is the
summed Fisher information of all steps inside a total window T. The
per-step denominator is step-independent because the response depends only
on elapsed time, so the sum trades per-step information against the number
of repetitions floor(T / tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._quad import adaptive_simpson
from .bath import BathMoments, DiscreteBath
from .errors import ConfigError, retired
from .force import ForceModulation
from .metrology import best_state_variance, script_e
from .probe import WindowTerms, displacement, window_terms
from .response import ResponseFunction

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Most repetition counts the tau search scans before its golden refinement.
_SCAN_POINTS = 64

_WINDOW_REL_TOL = 1e-9


@dataclass(frozen=True)
class SequentialScheme:
    """Cadence: total window, step interval, and the implied repetitions."""

    total_window: float
    interval: float

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError("interval must be > 0")
        if self.repetitions < 1:
            raise ValueError("total window shorter than one interval")

    @property
    def repetitions(self) -> int:
        return int(math.floor(self.total_window / self.interval * (1.0 + 1e-12)))

    def step_window(self, k):
        """Window of step k; an integer array k gives arrays of window ends."""
        t_k = k * self.interval
        return (t_k, t_k + self.interval)


@dataclass(frozen=True)
class SeqResult:
    """Total and per-step Fisher information for one cadence."""

    total_qfi: float
    per_step_qfi: tuple[float, ...]
    tau_used: float


@dataclass(frozen=True)
class ForceWindowIntegrals:
    """Window integrals of the modulation entering the asymptotics."""

    xi: float        # integral of zeta^2
    c_coeff: float   # (1/4) integral of (zeta'^2 + omega0^2 zeta^2)


def xi_and_c(force: ForceModulation, omega0: float,
             total_window: float) -> ForceWindowIntegrals:
    """Integrals xi and C over [0, T].

    C carries no boundary term: summed over the steps of a cadence, the
    [zeta zeta'] edge terms of the per-step displacements cancel to the
    order the two-term asymptotics keep, so C enters the optimum as the
    bare window integral.
    """
    lo, hi = force.clipped(0.0, total_window)

    def densities(t):
        z2 = force.value(t) ** 2
        return np.stack([z2, force.derivative(t) ** 2 + omega0 ** 2 * z2])

    xi, bulk = adaptive_simpson(densities, lo, hi, rel_tol=_WINDOW_REL_TOL).real
    return ForceWindowIntegrals(float(xi), float(0.25 * bulk))


def interval_terms(scheme: SequentialScheme, response: ResponseFunction,
                   force: ForceModulation) -> WindowTerms:
    """G(tau), n_B(tau) and every step's D_k (one batched displacement call).

    The energy-independent parts of the cadence total: step k carries
    |D_k|^2 / best_state_variance, and only the 1/(4 script_e) term of
    that denominator depends on the probe energy, so one record serves
    every energy.
    """
    tau = scheme.interval
    response.require_coverage(tau)
    steps = scheme.step_window(np.arange(scheme.repetitions))
    return window_terms(response, (0.0, tau),
                        displacement(response, force, steps))


def _per_step(w: WindowTerms, energy: float) -> np.ndarray:
    return abs(w.disp) ** 2 / best_state_variance(energy, w)


def seq_result(w: WindowTerms, energy: float) -> SeqResult:
    """The cadence total at one energy from an interval_terms record."""
    per_step = _per_step(w, energy)
    return SeqResult(total_qfi=float(per_step.sum()),
                     per_step_qfi=tuple(float(v) for v in per_step),
                     tau_used=w.tau)


def seq_qfi(scheme: SequentialScheme, energy: float, bath: DiscreteBath,
            response: ResponseFunction, force: ForceModulation,
            omega0: float) -> SeqResult:
    """Total Fisher information of the cadence with best-state re-preparation.

    The interval's energy-independent terms, then the energy step: the
    squared displacements of all steps over the step-independent
    denominator |G(tau)|^2 / (4 script_e) + n_B(tau).

    bath must be response.bath and omega0 its probe_frequency, else
    ValueError; ROADMAP item 1 drops both arguments.
    """
    if bath is not response.bath or omega0 != bath.probe_frequency:
        raise ValueError("seq_qfi needs bath = response.bath and "
                         "omega0 = bath.probe_frequency")
    return seq_result(interval_terms(scheme, response, force), energy)


@dataclass(frozen=True)
class TauOptimum:
    """Result of the cadence-interval search."""

    tau_opt: float
    seq: SeqResult
    hit_bound: bool


def default_tau_bounds(response: ResponseFunction, total_window: float,
                       moments: BathMoments) -> tuple[float, float]:
    """Search bracket [8 h, min(T, 5/Omega_2)] from the grid and kernel scales."""
    lower = 8.0 * response.grid.h
    omega2 = moments.omega(2)
    upper = min(total_window, response.t_end)
    if omega2 > 0:
        upper = min(upper, 5.0 / omega2)
    if upper <= lower:
        raise ConfigError("tau search bracket collapsed; refine the response "
                          "grid or give sequential.tau_bounds")
    return lower, upper


def optimize_tau(total_window: float, energy: float | Sequence[float],
                 response: ResponseFunction, force: ForceModulation,
                 tau_bounds: tuple[float, float]) -> TauOptimum | list[TauOptimum]:
    """Maximize the cadence total over the repetition lattice and the bracket ends.

    The total sum_k |D_k|^2 / denominator over nu = floor(T / tau) steps
    jumps where a step is gained, at the teeth tau = T / nu, and changes
    smoothly in between. Where it is monotone within each cell, its
    maximum over the bracket lies on a tooth or on a bracket end. The
    search scans at most _SCAN_POINTS log-spaced counts nu whose interval
    lies in the bracket, refines by integer golden section between the
    scan winner's neighbours, and compares the winner with the two ends.
    A maximum landing on the first or last scan point or on an end sets
    hit_bound so the caller can widen the bracket.

    A sequence of energies gives one TauOptimum per energy. The energies
    share one table of interval_terms keyed by interval, so each interval
    any of their searches visits costs one displacement call.
    """
    lo, hi = tau_bounds
    if not (0.0 < lo < hi):
        raise ValueError("tau_bounds must satisfy 0 < lower < upper")
    table: dict[float, WindowTerms] = {}

    def terms(tau: float) -> WindowTerms:
        if tau not in table:
            table[tau] = interval_terms(SequentialScheme(total_window, tau),
                                        response, force)
        return table[tau]

    nu_min = math.ceil(total_window / hi * (1.0 - 1e-12))
    nu_max = math.floor(total_window / lo * (1.0 + 1e-12))
    if nu_max - nu_min < _SCAN_POINTS:
        scan = list(range(nu_min, nu_max + 1))
    else:
        scan = sorted({int(v) for v in np.rint(np.geomspace(
            nu_min, nu_max, _SCAN_POINTS))})

    def search(energy: float) -> TauOptimum:
        totals: dict[float, float] = {}

        def total(tau: float) -> float:
            if tau not in totals:
                totals[tau] = float(_per_step(terms(tau), energy).sum())
            return totals[tau]

        def tooth(nu: int) -> float:
            return total(total_window / nu)

        best, hit_bound = None, True
        if scan:
            winner = max(range(len(scan)), key=lambda i: tooth(scan[i]))
            hit_bound = winner in (0, len(scan) - 1)
            a, b = scan[max(winner - 1, 0)], scan[min(winner + 1, len(scan) - 1)]
            while b - a > 2:
                c = b - round(_GOLDEN * (b - a))
                d = max(a + round(_GOLDEN * (b - a)), c + 1)
                if tooth(c) >= tooth(d):
                    b = d
                else:
                    a = c
            best = total_window / max(range(a, b + 1), key=tooth)
        for tau in (hi, lo):
            if best is None or total(tau) > total(best):
                best, hit_bound = tau, True
        seq = seq_result(table[best], energy)
        return TauOptimum(tau_opt=seq.tau_used, seq=seq, hit_bound=hit_bound)

    if np.ndim(energy) == 0:
        return search(float(energy))
    return [search(float(e)) for e in energy]


def tau_opt_asymptotic(energy: float, moments: BathMoments, xi: float,
                       c_coeff: float) -> float:
    """Two-term closed-form cadence interval for large squeezing factor.

    E^{-1/2} / (2 sqrt(N))
    + (8 K^2 xi + 3 chi_2^2 xi - 16 C) / (192 N^{3/2} xi) E^{-3/2},
    the maximizer of the implemented total expanded to fourth order in
    tau: summed |D|^2 = omega0^2 [xi tau - (C + K^2 xi) tau^3 / 3],
    |G|^2 = 1 - K^2 tau^2 and n_B = N tau^2 [1 - (K^2/3 + chi_2^2/12) tau^2].
    N is the occupation-weighted coupling sum and chi_2 the second
    occupation-weighted detuning moment. The paper prints the leading
    coefficient 1/(2 sqrt(3 N)): that maximizes the first-order truncation
    (tau/a)(1 - N tau^2/a), a = 1/(4 E), which fails at the optimum where
    N tau^2/a = 1; the total tau/(a + N tau^2) peaks at sqrt(a/N).
    Requires a noisy bath.
    """
    if moments.script_n <= 0:
        raise ValueError("noiseless bath: the cadence interval has no finite optimum")
    se = script_e(energy)
    n_w = moments.script_n
    lead = 0.5 / math.sqrt(n_w) * se ** -0.5
    if xi == 0:
        return lead
    ksq, chi2sq = moments.k_squared, moments.chi(2) ** 2
    second = ((8.0 * ksq * xi + 3.0 * chi2sq * xi - 16.0 * c_coeff)
              / (192.0 * n_w ** 1.5 * xi) * se ** -1.5)
    return lead + second


def seq_qfi_asymptotic(energy: float, moments: BathMoments, xi: float,
                       c_coeff: float, omega0: float = 1.0) -> float:
    """Two-term closed-form cadence total at the asymptotic optimum.

    xi / sqrt(N) E^{1/2}
    + (8 K^2 xi + chi_2^2 xi - 8 C) / (96 N^{3/2}) E^{-1/2}, the implemented
    total (expanded as in tau_opt_asymptotic) at its maximizer, scaled by
    omega0^2 to stay dimensionally consistent with the exact totals. The
    paper's sqrt(3) xi / (2 sqrt(N)) E^{1/2} is the total at its interval
    1/(2 sqrt(3 N E)), a factor 2/sqrt(3) below the maximum.
    """
    if moments.script_n <= 0:
        raise ValueError("noiseless bath: the cadence total is unbounded")
    se = script_e(energy)
    n_w = moments.script_n
    ksq, chi2sq = moments.k_squared, moments.chi(2) ** 2
    lead = xi / math.sqrt(n_w) * se ** 0.5
    second = ((8.0 * ksq * xi + chi2sq * xi - 8.0 * c_coeff)
              / (96.0 * n_w ** 1.5) * se ** -0.5)
    return omega0 ** 2 * (lead + second)


@dataclass(frozen=True)
class MarkovSeqResult:
    """Cadence optimum and ceiling under an exponential-envelope bath."""

    tau_opt: float
    total_qfi_bound: float
    noiseless: bool


def markov_seq(energy: float, gamma: float, n_thermal: float, xi: float,
               omega0: float = 1.0) -> MarkovSeqResult:
    """Closed-form cadence under Markovian noise: bounded total information.

    With A = gamma (n_thermal + 1/2): tau_opt = E^{-1/2} / (8 A) and the
    energy-independent ceiling omega0^2 xi / (3 A). gamma = 0 returns the noiseless
    flag instead of dividing by zero.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0.0:
        return MarkovSeqResult(tau_opt=math.nan, total_qfi_bound=math.inf,
                               noiseless=True)
    a = gamma * (n_thermal + 0.5)
    se = script_e(energy)
    return MarkovSeqResult(tau_opt=se ** -0.5 / (8.0 * a),
                           total_qfi_bound=omega0 ** 2 * xi / (3.0 * a),
                           noiseless=False)


step_noise_variance = retired("step_noise_variance")
