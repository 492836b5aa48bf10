"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from nmqfi._quad import adaptive_simpson, simpson_weights
from nmqfi.bath import (ContinuousSpectrum, DiscreteBath, OccupationModel,
                        bare_correlation, discretize)
from nmqfi.response import TimeGrid, solve_response


def exact_single_mode_g(coupling_sq: float, delta: float, tau):
    """Closed-form response for one mode: the 2x2 linear system solved exactly.

    G(tau) = e^{i d tau/2} [cos(mu tau) - i d/(2 mu) sin(mu tau)] with
    mu = sqrt(d^2/4 + c); reduces to cos(sqrt(c) tau) on resonance.
    """
    tau = np.asarray(tau, dtype=float)
    mu = np.sqrt(0.25 * delta * delta + coupling_sq)
    return np.exp(0.5j * delta * tau) * (np.cos(mu * tau)
                                         - 1j * (0.5 * delta / mu) * np.sin(mu * tau))


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


@pytest.fixture(scope="session")
def resonant_bath():
    """Single resonant mode |K|^2 = 0.25 at the probe frequency."""
    return DiscreteBath.from_arrays([0.25], [1.0], [0.0], 1.0)


@pytest.fixture(scope="session")
def resonant_response(resonant_bath):
    return solve_response(resonant_bath, TimeGrid(0.0, 8.0 * np.pi, 4096))


@pytest.fixture(scope="session")
def detuned_bath():
    """Single mode |K| = 0.5 with detuning omega0 - omega_n = 1.0."""
    return DiscreteBath.from_arrays([0.25], [1.0], [0.0], 2.0)


@pytest.fixture(scope="session")
def two_mode_bath():
    return DiscreteBath.from_arrays([0.3, 0.2], [1.9, 0.3], [0.0, 0.4], 1.0)


@pytest.fixture(scope="session")
def ohmic_bath():
    spec = ContinuousSpectrum("ohmic", scale=0.05, cutoff=2.0, exponent=1.0,
                              cutoff_shape="exponential",
                              occupation=OccupationModel.thermal(0.8))
    return discretize(spec, 32, 1.0)


@pytest.fixture(scope="session")
def ohmic_response(ohmic_bath):
    return solve_response(ohmic_bath, TimeGrid(0.0, 8.0, 2048))
