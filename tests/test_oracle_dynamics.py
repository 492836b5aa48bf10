"""First-principles oracle: exact symplectic evolution of probe plus bath.

Everything the engine assembles from the response function (means,
variances, determinants, displacement) must match direct integration of
the full linear Heisenberg equations for the probe coupled to a finite
set of bath modes. The two bath modes here have distinct detunings and a
thermal occupation, the probe starts squeezed and displaced, and the
drive is a sinusoid, so every term of the moment formulas is exercised.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from conftest import (amplitude_drift, covariance_matrix, forced_window,
                      initial_joint_covariance, quadrature_drift_propagator)
from nmqfi import force as fc
from nmqfi.bath import DiscreteBath
from nmqfi.probe import (GaussianProbeInit, covariance_snapshot, displacement,
                         noise_term, phase, quadrature_mean,
                         quadrature_variance, window_terms)
from nmqfi.response import TimeGrid, solve_response

OMEGA0 = 1.3
FORCE = fc.SinusoidForce(0.8, 0.9, 0.2, (0.0, 50.0))
AMPLITUDE = 0.7
T_FINAL = 2.1


@pytest.fixture(scope="module")
def bath():
    return DiscreteBath([0.16, 0.09], [1.0, 1.9], [0.0, 0.7], OMEGA0)


@pytest.fixture(scope="module")
def response(bath):
    return solve_response(bath, TimeGrid(4.0, 4096))


@pytest.fixture(scope="module")
def init():
    return GaussianProbeInit(0.6 - 0.2j, r=0.5, axis=0.4)


def _evolve_means(bath, alpha0: complex, amplitude: float,
                  t_final: float) -> complex:
    drift = amplitude_drift(bath)
    drive = 1j * OMEGA0 / np.sqrt(2.0) * amplitude

    def rhs(t, y):
        out = drift @ y
        out[0] += drive * FORCE.value(t)
        return out

    y0 = np.zeros(bath.n_modes + 1, dtype=complex)
    y0[0] = alpha0
    sol = solve_ivp(rhs, (0.0, t_final), y0, rtol=1e-11, atol=1e-13,
                    max_step=0.01)
    return complex(sol.y[0, -1])


def _evolved_covariance(bath, init: GaussianProbeInit,
                        t_final: float) -> np.ndarray:
    sigma = initial_joint_covariance(bath, covariance_matrix(init))
    prop = quadrature_drift_propagator(bath, t_final)
    return prop @ sigma @ prop.T


def _oracle_mean_x(bath, theta: float, init: GaussianProbeInit,
                   amplitude: float, t_final: float) -> float:
    alpha = _evolve_means(bath, init.mean_amplitude, amplitude, t_final)
    return float(np.sqrt(2.0) * np.real(alpha * np.exp(-1j * theta)))


class TestAgainstSymplecticOracle:
    def test_response_equals_matrix_exponential(self, bath, response):
        drift = amplitude_drift(bath)
        for tau in (0.3, 1.1, 2.1, 3.7):
            g_oracle = expm(drift * tau)[0, 0] * np.exp(1j * OMEGA0 * tau)
            assert response.g(tau) == pytest.approx(g_oracle, abs=5e-8)

    def test_quadrature_means(self, bath, response, init):
        w = forced_window(response, FORCE, (0.0, T_FINAL))
        for theta in (0.0, 0.7, 2.4):
            got = quadrature_mean(init, w, theta, AMPLITUDE)
            want = _oracle_mean_x(bath, theta, init, AMPLITUDE, T_FINAL)
            assert got == pytest.approx(want, abs=2e-7)

    def test_displacement_magnitude_and_phase(self, bath, response, init):
        # mean shift per unit amplitude is |D| sin(theta + w0 t - arg D)
        disp = displacement(response, FORCE, (0.0, T_FINAL))
        for theta in (0.2, 1.1):
            shift = (_oracle_mean_x(bath, theta, init, AMPLITUDE, T_FINAL)
                     - _oracle_mean_x(bath, theta, init, 0.0, T_FINAL)) / AMPLITUDE
            want = abs(disp) * np.sin(theta + OMEGA0 * T_FINAL - phase(disp))
            assert shift == pytest.approx(want, abs=2e-7)

    def test_quadrature_variances(self, bath, response, init):
        sigma = _evolved_covariance(bath, init, T_FINAL)
        w = window_terms(response, (0.0, T_FINAL))
        for theta in (0.0, 0.9, 1.8):
            v = np.array([np.cos(theta), np.sin(theta)])
            want = float(v @ sigma[:2, :2] @ v)
            got = quadrature_variance(init, w, theta)
            assert got == pytest.approx(want, abs=2e-7)

    def test_covariance_determinant(self, bath, response, init):
        sigma = _evolved_covariance(bath, init, T_FINAL)
        want = float(np.linalg.det(sigma[:2, :2]))
        snap = covariance_snapshot(
            init, window_terms(response, (0.0, T_FINAL)), 0.4)
        assert snap.det_sigma == pytest.approx(want, rel=1e-6)

    def test_noise_term_from_vacuum_probe(self, bath, response):
        # isotropic part of the evolved vacuum covariance is |G|^2/2 + n_B
        vac = GaussianProbeInit(0.0)
        sigma = _evolved_covariance(bath, vac, T_FINAL)
        want = 0.5 * float(np.trace(sigma[:2, :2]))
        g_abs = abs(response.g(T_FINAL))
        got = 0.5 * (g_abs ** 2) + noise_term(bath, (0.0, T_FINAL))
        assert got == pytest.approx(want, abs=2e-7)


class TestSolverAgainstRandomBaths:
    def test_random_small_baths_match_expm(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            n = int(rng.integers(1, 5))
            omega0 = float(rng.uniform(0.5, 2.5))
            coupling_sq = rng.uniform(0.01, 0.5, n)
            freqs = rng.uniform(0.1, 4.0, n)
            occs = rng.uniform(0.0, 1.5, n)
            bath = DiscreteBath(coupling_sq, freqs, occs, omega0)
            resp = solve_response(bath, TimeGrid(6.0, 2048))
            drift = amplitude_drift(bath)
            for tau in (0.9, 3.3, 6.0):
                want = expm(drift * tau)[0, 0] * np.exp(1j * omega0 * tau)
                assert resp.g(tau) == pytest.approx(want, abs=3e-6)
