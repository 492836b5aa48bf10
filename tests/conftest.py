"""Shared fixtures and independent oracles for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

from nmqfi._quad import adaptive_simpson
from nmqfi.bath import (ContinuousSpectrum, DiscreteBath, OccupationModel,
                        bare_correlation, discretize, memory_kernel)
from nmqfi.errors import SolverInstabilityError
from nmqfi.metrology import optimal_angle
from nmqfi.probe import (displacement, phase, quadrature_mean, variance_p,
                         window_terms)
from nmqfi.response import (_ABS_G_SLACK, _REFINE, ResponseFunction, TimeGrid,
                            solve_response)

# The environment of a child Python: it finds the package in a checkout
# where the package is not installed.
CHILD_ENV = dict(os.environ,
                 PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def exact_single_mode_g(coupling_sq: float, delta: float, tau):
    """Closed-form response for one mode: the 2x2 linear system solved exactly.

    G(tau) = e^{i d tau/2} [cos(mu tau) - i d/(2 mu) sin(mu tau)] with
    mu = sqrt(d^2/4 + c); reduces to cos(sqrt(c) tau) on resonance.
    """
    tau = np.asarray(tau, dtype=float)
    mu = np.sqrt(0.25 * delta * delta + coupling_sq)
    return np.exp(0.5j * delta * tau) * (np.cos(mu * tau)
                                         - 1j * (0.5 * delta / mu) * np.sin(mu * tau))


def noiseless_table_displacement(times, values, window, omega0=1.0):
    """D of a piecewise-linear force under G = 1, exact segment by segment.

    On a segment zeta = a + b u, the integral of zeta e^{i omega0 u} has the
    antiderivative e^{i omega0 u} [(a + b u) / (i omega0) + b / omega0^2].
    """
    t0, t1 = window
    total = 0j
    for (ta, tb), (va, vb) in zip(zip(times, times[1:]), zip(values, values[1:])):
        lo, hi = max(ta, t0), min(tb, t1)
        if hi > lo:
            b = (vb - va) / (tb - ta)
            a = va - b * ta
            total += sum(sign * np.exp(1j * omega0 * u)
                         * ((a + b * u) / (1j * omega0) + b / omega0 ** 2)
                         for sign, u in ((1.0, hi), (-1.0, lo)))
    return omega0 * np.exp(-1j * omega0 * t0) * total


def short_time_response(bath: DiscreteBath, tau):
    """Three-term expansion of G around zero elapsed time.

    1 - (K^2/2) tau^2 + i (tau^3/6) sum(|K_n|^2 (omega_n - omega0)); valid
    while tau stays well below every inverse moment frequency.
    """
    tau_arr = np.asarray(tau, dtype=float)
    ksq = bath.k_squared
    skew = -float(np.dot(bath.coupling_sq, bath.detunings)) if bath.n_modes else 0.0
    return 1.0 - 0.5 * ksq * tau_arr ** 2 + 1j * (tau_arr ** 3 / 6.0) * skew


def simpson_weights(n_panels: int) -> np.ndarray:
    """Weights for composite Simpson on n_panels (even) uniform panels.

    The returned array has n_panels + 1 entries and already carries the
    1/3 factor; multiply by the step to get quadrature weights.
    """
    if n_panels < 2 or n_panels % 2:
        raise ValueError("Simpson rule needs an even, positive panel count")
    w = np.ones(n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def marched_response(bath: DiscreteBath, grid: TimeGrid) -> ResponseFunction:
    """The response equation marched one inner step at a time.

    The same implicit product-trapezoid scheme as solve_response, on the
    same _REFINE-fold inner grid, with the memory sum kept as per-mode
    running phase accumulators (phases refreshed exactly every 1024 steps).
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
    c = bath.coupling_sq.astype(complex)
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
        g_prev, gd_prev = g_j, gd_j

    return ResponseFunction(grid, g, g_dot, bath)


def forced_window(response, force, window):
    """The window's terms with the displacement of force over it."""
    return window_terms(response, window, displacement(response, force, window))


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


def amplitude_drift(bath: DiscreteBath) -> np.ndarray:
    """Mode-amplitude drift matrix of the full linear Heisenberg equations.

    d<a>/dt = -i omega0 <a> - sum_n K_n <b_n>;
    d<b_n>/dt = -i omega_n <b_n> + K_n <a>, with K_n = sqrt(|K_n|^2) real.
    The solved response obeys G(tau) = e^{i omega0 tau} [expm(A tau)]_00.
    """
    k = np.sqrt(bath.coupling_sq)
    n = bath.n_modes
    a = np.zeros((n + 1, n + 1), dtype=complex)
    a[0, 0] = -1j * bath.probe_frequency
    a[0, 1:] = -k
    a[1:, 0] = k
    a[1:, 1:] = np.diag(-1j * bath.frequencies)
    return a


def quadrature_drift_propagator(bath: DiscreteBath, t: float) -> np.ndarray:
    """expm of the symplectic drift for probe + bath quadratures at time t.

    Ordering (x_a, p_a, x_1, p_1, ...); the coupling contributes
    K_n (x_a p_n - p_a x_n) to the quadratic Hamiltonian.
    """
    from scipy.linalg import expm

    k = np.sqrt(bath.coupling_sq)
    n = bath.n_modes
    dim = 2 * (n + 1)
    m = np.zeros((dim, dim))
    m[0, 0] = m[1, 1] = bath.probe_frequency
    for j in range(n):
        o = 2 + 2 * j
        m[o, o] = m[o + 1, o + 1] = bath.frequencies[j]
        m[0, o + 1] = m[o + 1, 0] = k[j]
        m[1, o] = m[o, 1] = -k[j]
    omega = np.zeros((dim, dim))
    for j in range(n + 1):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return expm(omega @ m * t)


def covariance_matrix(init) -> np.ndarray:
    """The probe state's 2x2 covariance over (X, P) at theta = 0, built as
    (nbar + 1/2) R(axis) diag(e^{2r}, e^{-2r}) R(axis)^T."""
    c, s = np.cos(init.axis), np.sin(init.axis)
    rot = np.array([[c, -s], [s, c]])
    diag = np.diag([np.exp(2.0 * init.r), np.exp(-2.0 * init.r)])
    return (init.nbar + 0.5) * rot @ diag @ rot.T


def initial_joint_covariance(bath: DiscreteBath, probe_cov: np.ndarray) -> np.ndarray:
    """Block covariance of the uncorrelated probe (x) thermal-bath state."""
    n = bath.n_modes
    sigma = np.zeros((2 * (n + 1), 2 * (n + 1)))
    sigma[:2, :2] = probe_cov
    for j in range(n):
        o = 2 + 2 * j
        sigma[o:o + 2, o:o + 2] = (bath.occupations[j] + 0.5) * np.eye(2)
    return sigma


# Quadrature oracles: the time-integral forms of the bath noise and the
# two-time correlation, built on the solved response. The engine computes
# both in closed form from the bath's modal propagator instead.

def step_noise_variance(response, bath: DiscreteBath, tau: float,
                        rel_tol: float = 1e-8, max_panels: int = 1 << 12) -> float:
    """Double integral of G(tau-s) G*(tau-s') C0(s-s') over the step square.

    Tensor-product Simpson with node doubling; the lag structure of C0 on
    a uniform grid reduces the double sum to a correlation.
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


def _double_term(response, bath: DiscreteBath, t: float, t_prime: float,
                 rel_tol: float = 1e-7, max_panels: int = 2048) -> complex:
    """int_0^t ds int_0^t' ds' C0(s-s') Gdot(t-s) conj(Gdot(t'-s'))."""
    if t <= 0.0 or t_prime <= 0.0:
        return 0.0 + 0.0j
    value = None
    n = 32
    while n <= max_panels:
        s = np.linspace(0.0, t, n + 1)
        sp = np.linspace(0.0, t_prime, n + 1)
        ws = simpson_weights(n) * (t / n)
        wsp = simpson_weights(n) * (t_prime / n)
        left = ws * np.asarray(response.g_dot(t - s))
        right = wsp * np.conj(np.asarray(response.g_dot(t_prime - sp)))
        c0 = np.asarray(bare_correlation(bath, s[:, None] - sp[None, :]))
        refined = complex(left @ c0 @ right)
        if value is not None and abs(refined - value) <= max(1e-14, rel_tol * abs(refined)):
            return refined
        value = refined
        n *= 2
    return value


def four_term_correlation(bath: DiscreteBath, response, probe_fluctuation: float,
                          t: float, t_prime: float, omega0: float,
                          rel_tol: float = 1e-7) -> complex:
    """Total two-time correlation as the paper assembles it.

    e^{-i omega0 (t - t')} [C0(t - t') + two single integrals of C0 against
    Gdot + the probe point term + the double integral].
    """
    response.require_coverage(max(t, t_prime))
    first = adaptive_simpson(
        lambda s: (np.asarray(bare_correlation(bath, t - s))
                   * np.conj(np.asarray(response.g_dot(t_prime - s)))),
        0.0, t_prime, rel_tol=rel_tol)
    second = adaptive_simpson(
        lambda s: (np.asarray(bare_correlation(bath, s - t_prime))
                   * np.asarray(response.g_dot(t - s))),
        0.0, t, rel_tol=rel_tol)
    point = probe_fluctuation * response.g_dot(t) * np.conj(response.g_dot(t_prime))
    double = _double_term(response, bath, t, t_prime, rel_tol=rel_tol)
    return complex(np.exp(-1j * omega0 * (t - t_prime))
                   * (bare_correlation(bath, t - t_prime)
                      + first + second + point + double))


def equal_start_correlation(bath: DiscreteBath, response, t: float,
                            omega0: float, rel_tol: float = 1e-9) -> complex:
    """Reduced form at t_prime = 0: the interaction collapses to one integral.

    e^{-i omega0 t} [C0(t) + int_0^t C0(s) Gdot(t - s) ds].
    """
    response.require_coverage(t)
    tail = adaptive_simpson(
        lambda s: np.asarray(bare_correlation(bath, s))
        * np.asarray(response.g_dot(t - s)),
        0.0, t, rel_tol=rel_tol)
    return complex(np.exp(-1j * omega0 * t) * (bare_correlation(bath, t) + tail))


# Closed-form Fisher oracles of the paper's limits: the small-window
# expansion and the Markovian (exponential-envelope) QFI. The engine reaches
# neither; the acceptance criteria check the exact QFI against them.

# Relative tolerance of markov_qfi's envelope integral; a window of 120
# periods needs 2^17 panels to reach it, past adaptive_simpson's default.
_MARKOV_REL_TOL, _MARKOV_MAX_PANELS = 1e-12, 1 << 18


def short_time_qfi(init, force, omega0: float, t0: float, tau: float,
                   zdot: float) -> float:
    """Two-term small-window expansion of the aligned QFI.

    omega0^2 tau^2 [zeta(t0)^2 + zeta(t0) zeta'(t0) tau] over the initial
    P variance at the noiseless displacement angle, with zdot = zeta'(t0)
    given by the caller. The bath enters only at fourth order in tau, so no
    bath argument appears.
    """
    z = float(force.value(t0))
    if z == 0.0:
        return 0.0
    d0 = omega0 * adaptive_simpson(
        lambda u: np.asarray(force.value(u)) * np.exp(1j * omega0 * (u - t0)),
        t0, t0 + tau, rel_tol=1e-11)
    var0 = init.variance(phase(d0) + 0.5 * np.pi)
    return float(omega0 ** 2 * tau ** 2 * (z * z + z * zdot * tau) / var0)


def markov_qfi(init, gamma: float, n_thermal: float, force, omega0: float,
               window) -> float:
    """Closed-form QFI under an exponential response envelope.

    Numerator omega0^2 |int zeta(u) e^{i omega0 (u-t0)} e^{-gamma (t-u)/2} du|^2,
    the integral summed over the force's smooth pieces of the window;
    denominator e^{-gamma (t-t0)} <Delta^2 P(phase(D))>_0
    + (n_thermal + 1/2)(1 - e^{-gamma (t-t0)}).
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    t0, t1 = window

    def envelope(u):
        return (np.asarray(force.value(u)) * np.exp(1j * omega0 * (u - t0))
                * np.exp(-0.5 * gamma * (t1 - u)))

    integral = sum(adaptive_simpson(envelope, lo, hi, rel_tol=_MARKOV_REL_TOL,
                                    max_panels=_MARKOV_MAX_PANELS)
                   for lo, hi in force.pieces(t0, t1))
    num = omega0 ** 2 * abs(integral) ** 2
    decay = np.exp(-gamma * (t1 - t0))
    denom = decay * init.variance(phase(integral) + 0.5 * np.pi) \
        + (n_thermal + 0.5) * (1.0 - decay)
    return float(num / denom)


def aligned_qfi(init, w) -> float:
    """|D|^2 / <Delta^2 P(theta*)> at the optimal angle theta*.

    The QFI of a state aligned with the window, whose P(theta*) quadrature
    attains it; the engine computes every state's QFI as
    |D|^2 Var X(theta*) / det Sigma instead.
    """
    return float(abs(w.disp) ** 2 / variance_p(init, w, optimal_angle(w)))


def is_pure(init) -> bool:
    """Whether a Gaussian probe state saturates det Sigma = 1/4."""
    return abs(init.det - 0.25) <= 1e-9


def mean_energy(init) -> float:
    """<a^dag a> + 1/2 of a Gaussian probe state, in probe quanta."""
    return 0.5 * init.trace + abs(init.mean_amplitude) ** 2


# Monte-Carlo oracle: every outcome drawn, each replication's row averaged.
# The engine draws the sample means directly from their exact law.

def per_outcome_estimation_mse(init, w, f_true: float, nu: int, seed: int,
                               replications: int) -> float:
    """Empirical MSE of the sample-mean estimator from nu outcomes per row."""
    theta = optimal_angle(w)
    slope = abs(w.disp)
    intercept = quadrature_mean(init, w, theta + 0.5 * np.pi, 0.0)
    var = variance_p(init, w, theta)
    rng = np.random.Generator(np.random.Philox(seed))
    outcomes = rng.normal(loc=intercept + slope * f_true, scale=np.sqrt(var),
                          size=(replications, nu))
    estimates = (outcomes.mean(axis=1) - intercept) / slope
    return float(np.mean((estimates - f_true) ** 2))


@pytest.fixture(scope="session")
def resonant_bath():
    """Single resonant mode |K|^2 = 0.25 at the probe frequency."""
    return DiscreteBath([0.25], [1.0], [0.0], 1.0)


@pytest.fixture(scope="session")
def resonant_response(resonant_bath):
    return solve_response(resonant_bath, TimeGrid(8.0 * np.pi, 4096))


@pytest.fixture(scope="session")
def detuned_bath():
    """Single mode |K| = 0.5 with detuning omega0 - omega_n = 1.0."""
    return DiscreteBath([0.25], [1.0], [0.0], 2.0)


@pytest.fixture(scope="session")
def two_mode_bath():
    return DiscreteBath([0.3, 0.2], [1.9, 0.3], [0.0, 0.4], 1.0)


@pytest.fixture(scope="session")
def ohmic_bath():
    spec = ContinuousSpectrum("ohmic", scale=0.05, cutoff=2.0, exponent=1.0,
                              cutoff_shape="exponential",
                              occupation=OccupationModel("thermal", 0.8))
    return discretize(spec, 32, 1.0)


@pytest.fixture(scope="session")
def ohmic_response(ohmic_bath):
    return solve_response(ohmic_bath, TimeGrid(8.0, 2048))
