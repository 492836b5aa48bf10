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

import numpy as np

from ._quad import adaptive_simpson, simpson_weights
from .bath import BathMoments, DiscreteBath, bare_correlation
from .force import ConstantForce, ForceModulation
from .metrology import script_e
from .probe import displacement
from .response import ResponseFunction

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SequentialScheme:
    """Cadence: total window, step interval, and the implied repetitions."""

    total_window: float
    interval: float
    start: float = 0.0

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError("interval must be > 0")
        if self.repetitions < 1:
            raise ValueError("total window shorter than one interval")

    @property
    def repetitions(self) -> int:
        return int(math.floor(self.total_window / self.interval * (1.0 + 1e-12)))

    def step_window(self, k: int) -> tuple[float, float]:
        t_k = self.start + k * self.interval
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


def xi_and_c(force: ForceModulation, omega0: float, total_window: float,
             t0: float = 0.0, rel_tol: float = 1e-9) -> ForceWindowIntegrals:
    """Integrals xi and C over [t0, t0 + T].

    C carries no boundary term: summed over the steps of a cadence, the
    [zeta zeta'] edge terms of the per-step displacements cancel to the
    order the two-term asymptotics keep, so C enters the optimum as the
    bare window integral.
    """
    lo, hi = force.clipped(t0, t0 + total_window)
    if hi <= lo:
        return ForceWindowIntegrals(0.0, 0.0)
    xi = adaptive_simpson(lambda t: np.asarray(force.value(t)) ** 2,
                          lo, hi, rel_tol=rel_tol).real
    bulk = adaptive_simpson(
        lambda t: (np.asarray(force.derivative(t)) ** 2
                   + omega0 ** 2 * np.asarray(force.value(t)) ** 2),
        lo, hi, rel_tol=rel_tol).real
    return ForceWindowIntegrals(float(xi), float(0.25 * bulk))


def step_noise_variance(response: ResponseFunction, bath: DiscreteBath,
                        tau: float, rel_tol: float = 1e-8,
                        max_panels: int = 1 << 12) -> float:
    """Double integral of G(tau-s) G*(tau-s') C0(s-s') over the step square.

    Tensor-product Simpson with node doubling; the lag structure of C0 on
    a uniform grid reduces the double sum to a correlation, evaluated
    independently of the per-mode route used by the single-shot variance.
    """
    if bath.n_modes == 0 or tau <= 0.0:
        return 0.0
    response.require_coverage(tau)
    value = None
    n = 64
    while n <= max_panels:
        h = tau / n
        s = np.linspace(0.0, tau, n + 1)
        u = simpson_weights(n) * h * np.asarray(response.g(tau - s))
        lags = np.correlate(u, u, mode="full")          # lag d at index n + d
        diffs = (np.arange(2 * n + 1) - n) * h
        c0 = np.asarray(bare_correlation(bath, diffs))
        refined = float(np.real(np.dot(c0, lags)))
        if value is not None and abs(refined - value) <= max(1e-14, rel_tol * abs(refined)):
            return refined
        value = refined
        n *= 2
    return value


def seq_qfi(scheme: SequentialScheme, energy: float, bath: DiscreteBath,
            response: ResponseFunction, force: ForceModulation,
            omega0: float) -> SeqResult:
    """Total Fisher information of the cadence with best-state re-preparation.

    The step denominator |G(tau)|^2 / (4 script_e) + step noise is computed
    once; numerators are the per-step squared displacements. A constant
    force on the uniform schedule makes every numerator identical, which
    is exact (the displacement depends on the elapsed interval only).
    """
    tau = scheme.interval
    response.require_coverage(tau)
    se = script_e(energy)
    g_abs = abs(response.g(tau))
    denom = 0.25 * g_abs ** 2 / se + step_noise_variance(response, bath, tau)
    nu = scheme.repetitions
    uniform = (isinstance(force, ConstantForce)
               and force.support[0] <= scheme.start
               and force.support[1] >= scheme.start + nu * tau)
    if uniform:
        d0 = displacement(response, force, omega0, scheme.step_window(0))
        numerators = np.full(nu, d0.magnitude ** 2)
    else:
        numerators = np.array([
            displacement(response, force, omega0, scheme.step_window(k)).magnitude ** 2
            for k in range(nu)])
    per_step = numerators / denom
    return SeqResult(total_qfi=float(per_step.sum()),
                     per_step_qfi=tuple(float(v) for v in per_step),
                     tau_used=float(tau))


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
        raise ValueError("tau search bracket collapsed; refine the response grid")
    return lower, upper


def optimize_tau(total_window: float, energy: float, bath: DiscreteBath,
                 response: ResponseFunction, force: ForceModulation,
                 omega0: float, tau_bounds: tuple[float, float],
                 grid_points: int = 64) -> TauOptimum:
    """Maximize the cadence total over the repetition lattice and the bracket ends.

    The total sum_k |D_k|^2 / denominator over nu = floor(T / tau) steps
    jumps where a step is gained, at the teeth tau = T / nu, and changes
    smoothly in between. Where it is monotone within each cell, its
    maximum over the bracket lies on a tooth or on a bracket end. The
    search scans at most `grid_points` log-spaced counts nu whose interval
    lies in the bracket, refines by integer golden section between the
    scan winner's neighbours, and compares the winner with the two ends.
    A maximum landing on the first or last scan point or on an end sets
    hit_bound so the caller can widen the bracket.
    """
    lo, hi = tau_bounds
    if not (0.0 < lo < hi):
        raise ValueError("tau_bounds must satisfy 0 < lower < upper")

    def seq_at(tau: float) -> SeqResult:
        scheme = SequentialScheme(total_window, tau)
        return seq_qfi(scheme, energy, bath, response, force, omega0)

    ends = [seq_at(hi), seq_at(lo)]
    best, hit_bound = None, True
    nu_min = math.ceil(total_window / hi * (1.0 - 1e-12))
    nu_max = math.floor(total_window / lo * (1.0 + 1e-12))
    if nu_min <= nu_max:
        teeth: dict[int, SeqResult] = {}

        def total(nu: int) -> float:
            if nu not in teeth:
                teeth[nu] = seq_at(total_window / nu)
            return teeth[nu].total_qfi

        if nu_max - nu_min < grid_points:
            scan = list(range(nu_min, nu_max + 1))
        else:
            scan = sorted({int(v) for v in np.rint(np.geomspace(
                nu_min, nu_max, grid_points))})
        winner = max(range(len(scan)), key=lambda i: total(scan[i]))
        hit_bound = winner in (0, len(scan) - 1)
        a, b = scan[max(winner - 1, 0)], scan[min(winner + 1, len(scan) - 1)]
        while b - a > 2:
            c = b - round(_GOLDEN * (b - a))
            d = max(a + round(_GOLDEN * (b - a)), c + 1)
            if total(c) >= total(d):
                b = d
            else:
                a = c
        best = teeth[max(range(a, b + 1), key=total)]
    for seq in ends:
        if best is None or seq.total_qfi > best.total_qfi:
            best, hit_bound = seq, True
    return TauOptimum(tau_opt=best.tau_used, seq=best, hit_bound=hit_bound)


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
                       c_coeff: float, omega0: float = 1.0,
                       include_omega0_prefactor: bool = True) -> float:
    """Two-term closed-form cadence total at the asymptotic optimum.

    xi / sqrt(N) E^{1/2}
    + (8 K^2 xi + chi_2^2 xi - 8 C) / (96 N^{3/2}) E^{-1/2}, the implemented
    total (expanded as in tau_opt_asymptotic) at its maximizer, optionally
    scaled by omega0^2 to stay dimensionally consistent with the exact
    totals. The paper's sqrt(3) xi / (2 sqrt(N)) E^{1/2} is the total at
    its interval 1/(2 sqrt(3 N E)), a factor 2/sqrt(3) below the maximum.
    """
    if moments.script_n <= 0:
        raise ValueError("noiseless bath: the cadence total is unbounded")
    se = script_e(energy)
    n_w = moments.script_n
    ksq, chi2sq = moments.k_squared, moments.chi(2) ** 2
    lead = xi / math.sqrt(n_w) * se ** 0.5
    second = ((8.0 * ksq * xi + chi2sq * xi - 8.0 * c_coeff)
              / (96.0 * n_w ** 1.5) * se ** -0.5)
    prefactor = omega0 ** 2 if include_omega0_prefactor else 1.0
    return prefactor * (lead + second)


@dataclass(frozen=True)
class MarkovSeqResult:
    """Cadence optimum and ceiling under an exponential-envelope bath."""

    tau_opt: float
    total_qfi_bound: float
    noiseless: bool


def markov_seq(total_window: float, energy: float, gamma: float,
               n_thermal: float, xi: float, omega0: float = 1.0,
               include_omega0_prefactor: bool = True) -> MarkovSeqResult:
    """Closed-form cadence under Markovian noise: bounded total information.

    With A = gamma (n_thermal + 1/2): tau_opt = E^{-1/2} / (8 A) and the
    energy-independent ceiling xi / (3 A). gamma = 0 returns the noiseless
    flag instead of dividing by zero.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0.0:
        return MarkovSeqResult(tau_opt=math.nan, total_qfi_bound=math.inf,
                               noiseless=True)
    a = gamma * (n_thermal + 0.5)
    se = script_e(energy)
    prefactor = omega0 ** 2 if include_omega0_prefactor else 1.0
    return MarkovSeqResult(tau_opt=se ** -0.5 / (8.0 * a),
                           total_qfi_bound=prefactor * xi / (3.0 * a),
                           noiseless=False)
