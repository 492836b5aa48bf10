"""Fisher information forms, optimal state/measurement, estimation harness."""

import tracemalloc

import numpy as np
import pytest

from conftest import (aligned_qfi, covariance_matrix, forced_window, is_pure,
                      markov_qfi, mean_energy, per_outcome_estimation_mse,
                      short_time_qfi)
from nmqfi import force as fc
from nmqfi.bath import DiscreteBath
from nmqfi.errors import AlignmentError, EstimationError
from nmqfi.metrology import (best_state, energy_for_script_e, fisher_quadrature,
                             optimal_angle, qfi_aligned, qfi_best_state,
                             qfi_general, script_e, simulate_estimation)
from nmqfi.probe import GaussianProbeInit, phase
from nmqfi.response import TimeGrid, solve_response

OMEGA0 = 1.0
PI_WINDOW = (0.0, np.pi)
ZETA = fc.ConstantForce(1.0)


@pytest.fixture(scope="module")
def noiseless():
    return solve_response(DiscreteBath([], [], [], OMEGA0), TimeGrid(4.0, 1024))


@pytest.fixture(scope="module")
def single_mode():
    return solve_response(DiscreteBath([0.09], [0.7], [0.0], OMEGA0),
                          TimeGrid(4.0, 2048))


class TestScriptE:
    def test_vacuum_edge(self):
        assert script_e(0.5) == 0.5

    def test_example_value(self):
        assert script_e(5.0) == pytest.approx(5.0 + np.sqrt(24.75))

    def test_below_vacuum_rejected(self):
        with pytest.raises(ValueError):
            script_e(0.49)

    def test_roundtrip(self):
        for se in (0.5, 1.0, 7.3, 100.0):
            assert script_e(energy_for_script_e(se)) == pytest.approx(se)


class TestQfiForms:
    def test_zero_force_zero_qfi(self, noiseless):
        resp = noiseless
        vac = GaussianProbeInit(0.0)
        z0 = fc.ConstantForce(0.0)
        w = forced_window(resp, z0, PI_WINDOW)
        assert qfi_general(vac, w).value == 0.0
        assert qfi_aligned(vac, w).value == 0.0

    def test_noiseless_vacuum_eight(self, noiseless):
        resp = noiseless
        vac = GaussianProbeInit(0.0)
        w = forced_window(resp, ZETA, PI_WINDOW)
        r = qfi_aligned(vac, w)
        assert r.value == pytest.approx(8.0, abs=1e-9)
        g = qfi_general(vac, w)
        assert g.value == pytest.approx(8.0, abs=1e-9)

    def test_result_bookkeeping(self, single_mode):
        resp = single_mode
        vac = GaussianProbeInit(0.0)
        r = qfi_aligned(vac, forced_window(resp, ZETA, (0.0, 1.7)))
        assert r.value == pytest.approx(
            r.numerator_abs_d_sq / r.denominator_variance_or_det)

    def test_coherent_matches_aligned(self, single_mode):
        resp = single_mode
        init = GaussianProbeInit(0.7 + 0.2j)
        w = forced_window(resp, ZETA, (0.0, 1.3))
        g = qfi_general(init, w)
        assert g.form == "aligned"
        assert g.value == pytest.approx(aligned_qfi(init, w), rel=1e-10)

    def test_aligned_states_match_the_oracle(self, single_mode):
        # P(theta*) attains the QFI of a state aligned with the window
        w = forced_window(single_mode, ZETA, (0.0, 1.3))
        axis = phase(w.disp) - phase(w.g)
        for init in (GaussianProbeInit(0.0), GaussianProbeInit(0.0, 2.0),
                     GaussianProbeInit(0.3 - 0.2j, r=1.5, axis=axis),
                     GaussianProbeInit(0.1j, 0.7, 0.9, axis + np.pi),
                     best_state(4.0, w)):
            g = qfi_general(init, w)
            assert g.form == "aligned"
            assert g.value == pytest.approx(aligned_qfi(init, w), rel=1e-12)
            assert qfi_aligned(init, w) == g

    def test_alignment_label_follows_the_axis(self, single_mode):
        # aligned within 1e-6 of phase(D) - phase(G) mod pi, or for D = 0
        w = forced_window(single_mode, ZETA, (0.0, 1.3))
        axis = phase(w.disp) - phase(w.g)
        forms = [qfi_general(GaussianProbeInit(0.0, r=0.8, axis=axis + off),
                             w).form
                 for off in (5e-7, -5e-7, np.pi + 5e-7, 2e-6, -2e-6, 0.5)]
        assert forms == ["aligned"] * 3 + ["general"] * 3
        still = forced_window(single_mode, fc.ConstantForce(0.0), (0.0, 1.3))
        assert qfi_general(GaussianProbeInit(0.0, r=0.8, axis=0.5),
                           still).form == "aligned"

    def test_misaligned_squeezed_raises(self, single_mode):
        resp = single_mode
        init = GaussianProbeInit(0.0, r=0.8, axis=1.2)
        w = forced_window(resp, ZETA, (0.0, 1.3))
        with pytest.raises(AlignmentError):
            qfi_aligned(init, w)
        # the general form still evaluates and is below the best state
        g = qfi_general(init, w)
        assert g.form == "general"
        b = qfi_best_state(mean_energy(init), w)
        assert g.value <= b.value * (1.0 + 1e-9)


def assert_squeezed(init, w, se):
    """Eigenvalues e^{+-2r}/2 with r = ln(2 se)/2, and the minimum variance
    1/(4 se) along P(phase(D) - phase(G))."""
    r = 0.5 * np.log(2.0 * se)
    np.testing.assert_allclose(np.linalg.eigvalsh(covariance_matrix(init)),
                               [0.5 * np.exp(-2.0 * r), 0.5 * np.exp(2.0 * r)],
                               rtol=1e-12)
    axis = phase(w.disp) - phase(w.g)
    assert init.variance(axis + 0.5 * np.pi) == pytest.approx(0.25 / se,
                                                              rel=1e-12)


class TestBestState:
    def test_vacuum_energy(self, noiseless):
        resp = noiseless
        w = forced_window(resp, ZETA, PI_WINDOW)
        init = best_state(0.5, w)
        assert_squeezed(init, w, 0.5)
        np.testing.assert_allclose(np.linalg.eigvalsh(covariance_matrix(init)),
                                   [0.5, 0.5], rtol=1e-15)

    def test_energy_one(self, noiseless):
        resp = noiseless
        w = forced_window(resp, ZETA, PI_WINDOW)
        assert_squeezed(best_state(1.0, w), w, 1.0 + np.sqrt(0.75))

    def test_energy_five_min_variance(self, noiseless):
        resp = noiseless
        w = forced_window(resp, ZETA, PI_WINDOW)
        init = best_state(5.0, w)
        assert_squeezed(init, w, 5 + np.sqrt(24.75))
        assert mean_energy(init) == pytest.approx(5.0)
        assert is_pure(init)

    def test_induced_state_is_aligned(self, single_mode):
        resp = single_mode
        w = forced_window(resp, ZETA, (0.0, 1.7))
        init = best_state(3.0, w)
        assert phase(w.g) != 0.0 and phase(w.disp) != 0.0
        assert_squeezed(init, w, script_e(3.0))
        a = qfi_aligned(init, w)
        b = qfi_best_state(3.0, w)
        assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_below_vacuum_rejected(self, noiseless):
        resp = noiseless
        w = forced_window(resp, ZETA, PI_WINDOW)
        with pytest.raises(ValueError):
            best_state(0.3, w)


class TestBestStateQfi:
    def test_vacuum_consistency(self, noiseless):
        resp = noiseless
        vac = GaussianProbeInit(0.0)
        w = forced_window(resp, ZETA, PI_WINDOW)
        b = qfi_best_state(0.5, w)
        a = qfi_aligned(vac, w)
        assert b.value == pytest.approx(a.value, rel=1e-12)

    def test_heisenberg_scaling(self, noiseless):
        resp = noiseless
        w = forced_window(resp, ZETA, PI_WINDOW)
        vals = [qfi_best_state(energy_for_script_e(se), w).value / se
                for se in (1.0, 10.0, 100.0)]
        assert np.ptp(vals) <= 1e-9 * vals[0]

    def test_example_value(self, noiseless):
        resp = noiseless
        r = qfi_best_state(5.0, forced_window(resp, ZETA, PI_WINDOW))
        assert r.value == pytest.approx(4.0 * script_e(5.0) * 4.0, rel=1e-10)

    def test_optimal_over_random_same_energy_states(self, single_mode):
        # 50 random pure states at fixed energy never beat the best state
        resp = single_mode
        w = forced_window(resp, ZETA, (0.0, 1.3))
        energy = 4.0
        top = qfi_best_state(energy, w).value
        rng = np.random.default_rng(7)
        r_max = np.arcsinh(np.sqrt(energy - 0.5))
        for _ in range(50):
            r = rng.uniform(0.0, r_max)
            axis = rng.uniform(0.0, np.pi)
            rest = energy - 0.5 - np.sinh(r) ** 2
            alpha = np.sqrt(max(rest, 0.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            init = GaussianProbeInit(alpha, r=r, axis=axis)
            val = qfi_general(init, w).value
            assert val <= top * (1.0 + 1e-9)

    def test_monotone_noise_damage(self, noiseless):
        resp0 = noiseless
        vac = GaussianProbeInit(0.0)
        win = (0.0, 1.2)
        base = qfi_aligned(vac, forced_window(resp0, ZETA, win)).value
        grown = DiscreteBath([0.16], [1.1], [0.3], OMEGA0)
        resp1 = solve_response(grown, TimeGrid(4.0, 2048))
        one = qfi_aligned(vac, forced_window(resp1, ZETA, win)).value
        more = DiscreteBath([0.16, 0.2], [1.1, 0.6], [0.3, 0.0], OMEGA0)
        resp2 = solve_response(more, TimeGrid(4.0, 2048))
        two = qfi_aligned(vac, forced_window(resp2, ZETA, win)).value
        assert one < base
        assert two < one


class TestFisherQuadrature:
    def test_quarter_turn_kills_information(self, noiseless):
        resp = noiseless
        vac = GaussianProbeInit(0.0)
        w = forced_window(resp, ZETA, PI_WINDOW)
        val = fisher_quadrature(optimal_angle(w) + np.pi / 2, vac, w)
        assert val == pytest.approx(0.0, abs=1e-20)

    def test_optimum_equals_qfi(self, noiseless):
        resp = noiseless
        vac = GaussianProbeInit(0.0)
        w = forced_window(resp, ZETA, PI_WINDOW)
        val = fisher_quadrature(optimal_angle(w), vac, w)
        assert val == pytest.approx(8.0, abs=1e-9)

    def test_eighth_turn_halves_for_isotropic(self, noiseless):
        resp = noiseless
        vac = GaussianProbeInit(0.0)
        w = forced_window(resp, ZETA, PI_WINDOW)
        val = fisher_quadrature(optimal_angle(w) + np.pi / 4, vac, w)
        assert val == pytest.approx(4.0, abs=1e-9)


class TestEstimation:
    def test_cramer_rao_saturation(self, noiseless):
        resp = noiseless
        vac = GaussianProbeInit(0.0)
        w = forced_window(resp, ZETA, PI_WINDOW)
        res = simulate_estimation(qfi_general(vac, w).value, f_true=0.3,
                                  nu=100, seed=20240901)
        assert res.crb == pytest.approx(1.0 / (100 * 8.0), rel=1e-9)
        assert 0.9 <= res.ratio_to_crb <= 1.1

    def test_mse_halves_with_doubled_nu(self, noiseless):
        resp = noiseless
        vac = GaussianProbeInit(0.0)
        fisher = qfi_general(vac, forced_window(resp, ZETA, PI_WINDOW)).value
        a = simulate_estimation(fisher, f_true=0.3, nu=100, seed=5,
                                replications=4000)
        b = simulate_estimation(fisher, f_true=0.3, nu=200, seed=6,
                                replications=4000)
        assert b.empirical_mse / a.empirical_mse == pytest.approx(0.5, abs=0.08)

    def test_tiny_variance_recovers_truth(self, noiseless):
        # degenerate-Gaussian limit: huge aligned squeezing pins the estimate
        resp = noiseless
        w = forced_window(resp, ZETA, PI_WINDOW)
        fisher = qfi_best_state(energy_for_script_e(0.5e12), w).value
        res = simulate_estimation(fisher, f_true=0.42, nu=50, seed=11,
                                  replications=200)
        assert res.estimate == pytest.approx(0.42, abs=1e-6)

    def test_zero_displacement_impossible(self, noiseless):
        resp = noiseless
        vac = GaussianProbeInit(0.0)
        w = forced_window(resp, fc.ConstantForce(0.0), PI_WINDOW)
        with pytest.raises(EstimationError):
            simulate_estimation(qfi_general(vac, w).value, 0.1, 10, seed=1)

    @pytest.mark.parametrize("fisher", [0.0, 5e-324, float("nan"),
                                        float("inf")])
    def test_fisher_information_without_a_bound_is_named(self, fisher):
        # 1 / (nu fisher) is zero, infinite or nan: no Python float division
        with pytest.raises(EstimationError, match="Fisher information"):
            simulate_estimation(fisher, 0.1, 10, seed=1)

    def test_reproducible_streams(self, noiseless):
        resp = noiseless
        vac = GaussianProbeInit(0.0)
        fisher = qfi_general(vac, forced_window(resp, ZETA, PI_WINDOW)).value
        a = simulate_estimation(fisher, 0.3, 100, seed=99, replications=100)
        b = simulate_estimation(fisher, 0.3, 100, seed=99, replications=100)
        assert a.empirical_mse == b.empirical_mse

    def test_memory_is_independent_of_nu(self, noiseless):
        # 10^8 outcomes per replication would need 800 MB as one row; only
        # the replications' estimates are drawn
        resp = noiseless
        vac = GaussianProbeInit(0.0)
        fisher = qfi_general(vac, forced_window(resp, ZETA, PI_WINDOW)).value
        tracemalloc.start()
        try:
            res = simulate_estimation(fisher, 0.3, 10 ** 8, seed=3,
                                      replications=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert np.isfinite(res.ratio_to_crb)

    def test_sample_means_match_per_outcome_oracle(self, single_mode):
        # each MSE has relative spread sqrt(2/R); their difference sqrt(4/R)
        resp = single_mode
        vac = GaussianProbeInit(0.0)
        w = forced_window(resp, ZETA, PI_WINDOW)
        reps = 20000
        engine = simulate_estimation(qfi_general(vac, w).value, 0.3, 50,
                                     seed=41, replications=reps)
        oracle = per_outcome_estimation_mse(vac, w, 0.3, 50, seed=42,
                                            replications=reps)
        assert engine.empirical_mse == pytest.approx(
            oracle, rel=5.0 * np.sqrt(4.0 / reps))


class TestShortTimeQfi:
    def test_zero_force_value(self):
        vac = GaussianProbeInit(0.0)
        z = fc.SinusoidForce(1.0, 1.0, 0.0, (0.0, 10.0))   # zeta(0) = 0
        assert short_time_qfi(vac, z, OMEGA0, 0.0, 0.01, 1.0) == 0.0

    def test_vacuum_leading_term(self):
        vac = GaussianProbeInit(0.0)
        assert short_time_qfi(vac, ZETA, OMEGA0, 0.0, 0.02, 0.0) == pytest.approx(
            2.0 * OMEGA0 ** 2 * 0.02 ** 2)

    def test_residual_fourth_order(self, single_mode):
        resp = solve_response(single_mode.bath, TimeGrid(0.12, 4096))
        vac = GaussianProbeInit(0.0)
        taus = np.geomspace(1e-3, 1e-1, 10)
        resid = []
        for tau in taus:
            exact = qfi_aligned(
                vac, forced_window(resp, ZETA, (0.0, tau))).value
            approx = short_time_qfi(vac, ZETA, OMEGA0, 0.0, tau, 0.0)
            resid.append(abs(exact - approx))
        slope = np.polyfit(np.log(taus), np.log(resid), 1)[0]
        assert 3.6 <= slope <= 4.4


class TestMarkovQfi:
    def test_gamma_zero_reduces_to_noiseless(self, noiseless):
        resp = noiseless
        vac = GaussianProbeInit(0.0)
        a = qfi_aligned(vac, forced_window(resp, ZETA, PI_WINDOW))
        m = markov_qfi(vac, 0.0, 0.0, ZETA, OMEGA0, PI_WINDOW)
        assert m == pytest.approx(a.value, rel=1e-9)

    def test_long_time_bounded(self):
        vac = GaussianProbeInit(0.0)
        vals = [markov_qfi(vac, 1.0, 0.5, ZETA, OMEGA0, (0.0, t))
                for t in (20.0, 60.0, 120.0)]
        # denominator saturates at n + 1/2; numerator bounded
        assert abs(vals[-1] - vals[-2]) <= 1e-6 * vals[-1]

    def test_against_fine_grid_oracle(self):
        vac = GaussianProbeInit(0.0)
        gamma, tau = 0.1, 1.0
        got = markov_qfi(vac, gamma, 0.0, ZETA, OMEGA0, (0.0, tau))
        u = np.linspace(0.0, tau, 100001)
        integral = np.trapezoid(np.exp(1j * u) * np.exp(-0.5 * gamma * (tau - u)), u)
        decay = np.exp(-gamma * tau)
        want = abs(integral) ** 2 / (decay * 0.5 + 0.5 * (1 - decay))
        assert got == pytest.approx(want, abs=1e-7)


class TestAgainstGaussianInformationIdentity:
    def test_general_form_equals_mean_shift_information(self, single_mode):
        # independent assembly: for a Gaussian family whose covariance does
        # not depend on the amplitude, the information is v^T Sigma^-1 v
        # with v the amplitude-sensitivity of the mean vector
        import numpy as np
        from nmqfi.probe import (covariance_snapshot, quadrature_mean,
                                 quadrature_variance)

        resp = single_mode
        init = GaussianProbeInit(0.3 + 0.1j, r=0.7, axis=1.1)
        w = forced_window(resp, ZETA, (0.0, 1.45))
        v = np.array([
            quadrature_mean(init, w, theta, 1.0)
            - quadrature_mean(init, w, theta, 0.0)
            for theta in (0.0, np.pi / 2)])
        snap = covariance_snapshot(init, w, 0.0)
        cross = (quadrature_variance(init, w, 0.25 * np.pi)
                 - 0.5 * (snap.var_x_theta + snap.var_p_theta))
        sigma = np.array([[snap.var_x_theta, cross],
                          [cross, snap.var_p_theta]])
        want = float(v @ np.linalg.solve(sigma, v))
        got = qfi_general(init, w).value
        assert got == pytest.approx(want, rel=1e-9)
