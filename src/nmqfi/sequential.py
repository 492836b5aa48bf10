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
from typing import NamedTuple, Sequence

import numpy as np

from .bath import BathMoments, DiscreteBath
from .errors import (ConfigError, ConsistencyError, Frozen, NmqfiError,
                     retired)
from .force import ForceModulation
from .metrology import best_state_variance, script_e
from .probe import WindowTerms, displacement, window_terms
from .response import ResponseFunction, TimeGrid

# Relative slack of the bound sum_k |D_k|^2 <= omega0^2 tau xi, which assumes
# |G| <= 1. The solver admits |G| <= 1 + 1e-6 (|D_k|^2 up to 2e-6 more) and the
# D_k quadrature (rel_tol 1e-10) adds ~1e-10; xi is exact to rounding. 1e-5
# covers their sum 4x.
_BOUND_SLACK = 1e-5

# Most steps a cadence may have, and most step windows one displacement call
# holds; 10^6 steps already cost tens of seconds and hundreds of MB.
MAX_STEPS = 10 ** 6


class SequentialScheme(Frozen):
    """Cadence: total window, step interval, and the implied repetitions."""

    def __init__(self, total_window: float, interval: float):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        vars(self).update(total_window=total_window, interval=interval)
        if self.repetitions < 1:
            raise ValueError("total window shorter than one interval")

    @property
    def repetitions(self) -> int:
        return int(math.floor(self.total_window / self.interval * (1.0 + 1e-12)))


class SeqResult(NamedTuple):
    """Total Fisher information of one cadence, its step count and interval.

    hit_bound is set only by optimize_tau: its maximum lies on the first or
    last tooth or on a bracket end, so the bracket may be too narrow.
    """

    total_qfi: float
    repetitions: int
    tau_used: float
    hit_bound: bool = False


class ForceWindowIntegrals(NamedTuple):
    """Window integrals of the modulation entering the asymptotics."""

    xi: float        # integral of zeta^2
    c_coeff: float   # (1/4) integral of (zeta'^2 + omega0^2 zeta^2)


def xi_and_c(force: ForceModulation, omega0: float,
             total_window: float) -> ForceWindowIntegrals:
    """Integrals xi and C over [0, T].

    C carries no boundary term: summed over the steps of a cadence, the
    [zeta zeta'] edge terms of the per-step displacements cancel to the
    order the two-term asymptotics keep, so C enters the optimum as the
    bare window integral. Both are exact (ForceModulation.square_integrals).
    """
    xi, slope_sq = force.square_integrals(0.0, total_window)
    return ForceWindowIntegrals(xi, 0.25 * (slope_sq + omega0 ** 2 * xi))


def interval_terms(total_window: float, taus: Sequence[float],
                   response: ResponseFunction,
                   force: ForceModulation) -> list[WindowTerms]:
    """One record per interval of taus: G(tau), n_B(tau) and every step's D_k.

    Step k is the window (k tau, k tau + tau). One window_terms call gives
    every G and n_B; the steps of all intervals, in order, fill displacement
    calls of at most MAX_STEPS windows, each window keeping its scalar value.
    A record serves every energy: step k carries |D_k|^2 / best_state_variance,
    and only that denominator's 1/(4 script_e) term depends on the energy.
    """
    taus = np.array(taus, dtype=float)
    first = np.cumsum([0] + [SequentialScheme(total_window, tau).repetitions
                             for tau in taus.tolist()])  # each one's step 0
    disp = np.empty(first[-1], dtype=complex)
    for start in range(0, first[-1], MAX_STEPS):
        j = np.arange(start, min(start + MAX_STEPS, first[-1]))
        i = np.searchsorted(first, j, side="right") - 1
        t_k = (j - first[i]) * taus[i]
        disp[j] = displacement(response, force, (t_k, t_k + taus[i]))
    w = window_terms(response, (0.0, taus))
    return [WindowTerms(*row, w.omega0) for row in zip(
        taus.tolist(), w.g, w.n_b.tolist(), np.split(disp, first[1:-1]))]


@np.errstate(over="ignore")   # overflow is reported inf
def seq_result(w: WindowTerms, energy: float) -> SeqResult:
    """The cadence total at one energy from an interval_terms record."""
    total = (abs(w.disp) ** 2 / best_state_variance(energy, w)).sum()
    return SeqResult(total_qfi=float(total), repetitions=len(w.disp),
                     tau_used=w.tau)


def seq_qfi(scheme: SequentialScheme, energy: float, bath: DiscreteBath,
            response: ResponseFunction, force: ForceModulation,
            omega0: float) -> SeqResult:
    """Total Fisher information of the cadence with best-state re-preparation:
    seq_result of the interval's interval_terms record.

    bath must be response.bath and omega0 its probe_frequency, else
    ValueError; ROADMAP item 1 drops both arguments.
    """
    if bath is not response.bath or omega0 != bath.probe_frequency:
        raise ValueError("seq_qfi needs bath = response.bath and "
                         "omega0 = bath.probe_frequency")
    return seq_result(*interval_terms(scheme.total_window, [scheme.interval],
                                      response, force), energy)


def default_tau_bounds(grid: TimeGrid, total_window: float,
                       moments: BathMoments) -> tuple[float, float]:
    """Search bracket [8 h, min(T, t_end, 5/Omega_2)] from the grid and
    kernel scales, known before the response is solved."""
    lower = 8.0 * grid.h
    omega2 = moments.omega(2)
    upper = min(total_window, grid.t_end)
    if omega2 > 0:
        upper = min(upper, 5.0 / omega2)
    if upper <= lower:
        raise ConfigError("tau search bracket collapsed; refine the response "
                          "grid or give sequential.tau_bounds")
    return lower, upper


def optimize_tau(total_window: float, energy: float | Sequence[float],
                 response: ResponseFunction, force: ForceModulation,
                 tau_bounds: tuple[float, float]) -> SeqResult | list[SeqResult]:
    """Maximize the cadence total over the repetition lattice and the bracket ends.

    The total sum_k |D_k|^2 / denominator over nu = floor(T / tau) steps
    jumps where a step is gained, at the teeth tau = T / nu; the result is
    the best of every tooth in the bracket and both ends, a tooth winning a
    tie. By Cauchy-Schwarz and |G| <= 1, summed |D_k|^2 <= omega0^2 tau xi
    with xi the integral of zeta^2 over [0, T], so a tooth's total is at
    most B = omega0^2 tau xi / denominator. After the ends, teeth are
    evaluated in decreasing B until B falls below the best total; an
    interval above its bound raises ConsistencyError, and a nan total at
    an end or a nan B (0 / 0 where the force and the best-state variance
    both vanish) raises NmqfiError before any tooth is evaluated. A
    maximum on the first or last tooth or on an end sets hit_bound.

    A sequence of energies gives one SeqResult per energy. They share one
    interval_terms call for both ends and one per tooth any search visits.
    """
    lo, hi = tau_bounds
    if not (0.0 < lo < hi):
        raise ValueError("tau_bounds must satisfy 0 < lower < upper")
    xi = force.square_integrals(0.0, total_window)[0]
    ceiling = response.bath.probe_frequency ** 2 * xi * (1.0 + _BOUND_SLACK)
    table: dict[float, WindowTerms] = {}

    def terms(*taus: float) -> list[WindowTerms]:
        new = [tau for tau in taus if tau not in table]
        for w in (interval_terms(total_window, new, response, force)
                  if new else ()):
            with np.errstate(over="ignore"):   # a sum past floats reads inf
                d_sq = (abs(w.disp) ** 2).sum()
            if not d_sq <= ceiling * w.tau:
                raise ConsistencyError(
                    f"cadence interval {w.tau!r} exceeds its bound")
            table[w.tau] = w
        return [table[tau] for tau in taus]

    nu_min = math.ceil(total_window / hi * (1.0 - 1e-12))
    nu_max = math.floor(total_window / lo * (1.0 + 1e-12))
    nus = np.arange(nu_min, nu_max + 1)
    teeth = window_terms(response, (0.0, total_window / nus))

    def search(energy: float) -> SeqResult:
        ends = terms(hi, lo)
        with np.errstate(invalid="ignore"):     # a nan is raised below
            found = [seq_result(w, energy) for w in ends]
            bound = ceiling * teeth.tau / best_state_variance(energy, teeth)
        if np.isnan([r.total_qfi for r in found]).any() \
                or np.isnan(bound).any():
            raise NmqfiError(f"cadence total or its bound is nan at energy "
                             f"{energy!r}")
        best = max(found, key=lambda r: r.total_qfi)
        key, winner = (best.total_qfi, False), None
        for i in np.argsort(-bound, kind="stable"):
            if (bound[i], True) <= key:
                break
            found = seq_result(*terms(float(teeth.tau[i])), energy)
            if (found.total_qfi, True) > key:
                best, key, winner = found, (found.total_qfi, True), i
        return best._replace(hit_bound=winner in (None, 0, teeth.tau.size - 1))

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
    Requires a noisy bath; an N whose 3/2 power underflows to zero or
    overflows raises the ArithmeticError with N in its message.
    """
    if moments.script_n <= 0:
        raise ValueError("noiseless bath: the cadence interval has no finite optimum")
    se = script_e(energy)
    n_w = moments.script_n
    lead = 0.5 / math.sqrt(n_w) * se ** -0.5
    if xi == 0:
        return lead
    ksq, chi2sq = moments.k_squared, moments.chi(2) ** 2
    try:
        second = ((8.0 * ksq * xi + 3.0 * chi2sq * xi - 16.0 * c_coeff)
                  / (192.0 * n_w ** 1.5 * xi) * se ** -1.5)
    except ArithmeticError as exc:    # N^{3/2} underflows or overflows
        raise type(exc)(f"second-order cadence interval at noise weight "
                        f"N = {n_w!r}, xi = {xi!r}: {exc}") from exc
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


class MarkovSeqResult(NamedTuple):
    """Cadence optimum and ceiling under an exponential-envelope bath."""

    tau_opt: float
    total_qfi_bound: float


@np.errstate(over="ignore")   # a ceiling past floats is reported inf
def markov_seq(energy: float, gamma: float, n_thermal: float, xi: float,
               omega0: float = 1.0) -> MarkovSeqResult:
    """Closed-form cadence under Markovian noise: bounded total information.

    With A = gamma (n_thermal + 1/2): tau_opt = E^{-1/2} / (8 A) and the
    energy-independent ceiling omega0^2 xi / (3 A). gamma = 0 (no noise) gives
    tau_opt nan and an infinite ceiling instead of dividing by zero.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0.0:
        return MarkovSeqResult(tau_opt=math.nan, total_qfi_bound=math.inf)
    a = gamma * (n_thermal + 0.5)
    se = script_e(energy)
    return MarkovSeqResult(tau_opt=se ** -0.5 / (8.0 * a),
                           total_qfi_bound=omega0 ** 2 * xi / (3.0 * a))


step_noise_variance = retired("step_noise_variance")
