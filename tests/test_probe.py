"""Probe moments: displacement coefficients, means, variances, snapshots."""

import tracemalloc

import numpy as np
import pytest

from conftest import (covariance_matrix, exact_single_mode_g, forced_window,
                      is_pure, markov_qfi, mean_energy,
                      noiseless_table_displacement)
from nmqfi import force as fc
from nmqfi.bath import ContinuousSpectrum, DiscreteBath, discretize
from nmqfi.errors import CoverageError
from nmqfi.metrology import optimal_angle, qfi_general
from nmqfi.probe import (GaussianProbeInit, covariance_snapshot, displacement,
                         noise_term, phase, quadrature_mean,
                         quadrature_variance, variance_p, window_terms)
from nmqfi.response import TimeGrid, solve_response


@pytest.fixture(scope="module")
def noiseless_response():
    return solve_response(DiscreteBath([], [], [], 1.0), TimeGrid(8.0, 512))


@pytest.fixture(scope="module")
def resonant03():
    """|K| = 0.3 resonant mode and its response, for displacement oracles."""
    bath = DiscreteBath([0.09], [1.0], [0.0], 1.0)
    return bath, solve_response(bath, TimeGrid(4.0, 2048))


class TestInit:
    def test_vacuum(self):
        v = GaussianProbeInit(0.0)
        assert v.variance(0.77) == pytest.approx(0.5)
        assert v.det == pytest.approx(0.25)
        assert is_pure(v) and v.is_isotropic
        assert mean_energy(v) == pytest.approx(0.5)

    def test_squeezed_axes(self):
        s = GaussianProbeInit(0.0, r=0.8, axis=0.3)
        assert s.variance(0.3) == pytest.approx(0.5 * np.exp(1.6))
        assert s.variance(0.3 + np.pi / 2) == pytest.approx(0.5 * np.exp(-1.6))
        assert s.det == pytest.approx(0.25)
        assert s.axis == pytest.approx(0.3)

    def test_mean_quadrature(self):
        c = GaussianProbeInit(1.0 + 1.0j)
        assert c.mean_x(0.0) == pytest.approx(np.sqrt(2.0))
        assert c.mean_x(np.pi / 2) == pytest.approx(np.sqrt(2.0))

    def test_uncertainty_bound_enforced(self):
        with pytest.raises(ValueError):
            GaussianProbeInit.from_covariance(0.0, np.diag([0.3, 0.3]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            GaussianProbeInit.from_covariance(
                0.0, np.array([[0.5, 0.2], [0.1, 0.5]]))

    @pytest.mark.parametrize("nbar", [0.0, 0.4, 9.0])
    @pytest.mark.parametrize("r", [0.0, 0.3, 4.0, 12.0])
    def test_covariance_round_trip(self, nbar, r):
        # the matrix of a state converts back to the same matrix; its
        # nbar, r and axis come back where the matrix's rounding allows
        for axis in np.linspace(0.05, 3.1, 7):
            state = GaussianProbeInit(0.3j, nbar, r, axis)
            matrix = covariance_matrix(state)
            back = GaussianProbeInit.from_covariance(0.3j, matrix)
            assert back.mean_amplitude == 0.3j
            assert np.abs(covariance_matrix(back) - matrix).max() \
                <= 1e-14 * np.abs(matrix).max()
            if r <= 0.3:
                assert back.nbar == pytest.approx(nbar, abs=1e-13)
                assert back.r == pytest.approx(r, abs=1e-13)
            if r > 0:
                assert back.axis == pytest.approx(axis, abs=1e-12)

    def test_covariance_bound_at_the_floor(self):
        # det = 1/4 (1 - 1e-9) passes and reads as pure; far below fails
        floor = GaussianProbeInit.from_covariance(
            0.0, np.sqrt(0.25 * (1.0 - 1e-9)) * np.eye(2))
        assert floor.det == 0.25 and floor.is_isotropic
        with pytest.raises(ValueError):
            GaussianProbeInit.from_covariance(0.0, 0.4999 * np.eye(2))

    def test_covariance_of_large_entries(self):
        # a det past the float range: an isotropic matrix is a thermal state
        # whose det reads inf, an indefinite one is rejected
        hot = GaussianProbeInit.from_covariance(0.0, 1e200 * np.eye(2))
        assert hot.nbar == pytest.approx(1e200) and hot.det == np.inf
        with pytest.raises(ValueError):
            GaussianProbeInit.from_covariance(
                0.0, np.array([[1e200, 2e200], [2e200, 1e200]]))


class TestDisplacement:
    def test_zero_force(self, noiseless_response):
        d = displacement(noiseless_response, fc.ConstantForce(0.0), (0.0, 2.0))
        assert d == 0.0
        assert phase(d) == 0.0

    def test_support_outside_window(self, noiseless_response):
        z = fc.ConstantForce(1.0, (5.0, 6.0))
        d = displacement(noiseless_response, z, (0.0, 2.0))
        assert d == 0.0

    def test_table_force_closed_form(self, noiseless_response):
        # kinks at 0.3 and 0.7 inside the windows: each segment is
        # integrated on its own, to the quadrature tolerance
        times, values = (0.0, 0.3, 0.7, 4.0), (0.0, 2.0, -1.0, 0.5)
        table = fc.TabulatedForce(times, values)
        windows = [(0.0, np.pi), (0.1, 0.5), (0.5, 3.9), (0.3, 0.7)]
        want = [noiseless_table_displacement(times, values, w)
                for w in windows]
        for window, d in zip(windows, want):
            got = displacement(noiseless_response, table, window)
            assert abs(got - d) <= 1e-9 * abs(d)
            assert markov_qfi(GaussianProbeInit(0.0), 0.0, 0.0, table,
                              1.0, window) == pytest.approx(2 * abs(d) ** 2,
                                                            rel=1e-9)
        t0, t1 = np.array(windows).T
        batch = displacement(noiseless_response, table, (t0, t1))
        assert np.all(np.abs(batch - want) <= 1e-9 * np.abs(want))

    def test_noiseless_closed_form(self, noiseless_response):
        # oracle: D0 = -i (e^{i w0 tau} - 1), |D0| = 2 sin(w0 tau / 2)
        for tau in (0.7, np.pi, 2.2):
            d = displacement(noiseless_response, fc.ConstantForce(1.0),
                             (0.0, tau))
            want = -1j * (np.exp(1j * tau) - 1.0)
            assert d == pytest.approx(want, abs=1e-10)
        d = displacement(noiseless_response, fc.ConstantForce(1.0),
                         (0.0, np.pi))
        assert abs(d) == pytest.approx(2.0)

    def test_resonant_mode_against_fine_grid_oracle(self, resonant03):
        bath, resp = resonant03
        tau = 1.0
        d = displacement(resp, fc.ConstantForce(1.0), (0.0, tau))
        # brute-force quadrature at 1e5 nodes with the exact response
        u = np.linspace(0.0, tau, 100001)
        vals = np.exp(1j * u) * exact_single_mode_g(0.09, 0.0, tau - u)
        oracle = np.trapezoid(vals, u)
        assert d == pytest.approx(oracle, abs=1e-7)

    def test_window_start_sets_phase_reference(self, noiseless_response):
        # shifting the window start rotates the phase, not the magnitude
        z = fc.ConstantForce(1.0)
        d0 = displacement(noiseless_response, z, (0.0, 1.3))
        d1 = displacement(noiseless_response, z, (2.0, 3.3))
        assert abs(d1) == pytest.approx(abs(d0), rel=1e-10)

    def test_coverage_error(self, resonant03):
        bath, resp = resonant03
        with pytest.raises(CoverageError):
            displacement(resp, fc.ConstantForce(1.0), (0.0, resp.t_end + 1.0))

    def test_mixed_length_windows_match_scalar_calls_bit_for_bit(
            self, ohmic_response):
        # the 33 report windows of `moments`, of lengths 0 to 3.9, share
        # quadrature passes by table segment and length octave; every
        # window's Simpson sums run over its own nodes, so each keeps its
        # scalar value
        table = fc.TabulatedForce((0.0, 0.3, 0.7, 4.0),
                                  (0.0, 2.0, -1.0, 0.5))
        times = np.linspace(0.0, 3.9, 33)
        batch = displacement(ohmic_response, table, (0.0, times))
        assert batch.tolist() == [displacement(ohmic_response, table, (0.0, t))
                                  for t in times]

    @pytest.mark.parametrize("force", [
        fc.SinusoidForce(1.0, 3.0, 0.4), fc.GaussianPulseForce(1.0, 0.3)],
        ids=["sinusoid", "gaussian_pulse"])
    def test_short_windows_are_not_refined_with_long_ones(self, resonant03,
                                                          force):
        # a cadence bracket's two ends in one call: 4 steps of 0.5 and 200
        # of 0.01. Integrated in one pass, the short steps took the long
        # ones' node count, a traced peak near 8 MB; in runs of one length
        # octave the peak is under 0.4 MB
        t0 = np.concatenate([np.arange(4) * 0.5, np.arange(200) * 0.01])
        t1 = t0 + np.repeat([0.5, 0.01], [4, 200])
        tracemalloc.start()
        try:
            displacement(resonant03[1], force, (t0, t1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestMean:
    def test_zero_everything(self, noiseless_response):
        vac = GaussianProbeInit(0.0)
        w = forced_window(noiseless_response, fc.ConstantForce(1.0),
                          (0.0, 1.0))
        assert quadrature_mean(vac, w, 0.3, 0.0) == 0.0

    def test_driven_peak(self, noiseless_response):
        # angle that puts the sine at one reads off F |D|
        vac = GaussianProbeInit(0.0)
        tau = 1.1
        w = forced_window(noiseless_response, fc.ConstantForce(1.0),
                          (0.0, tau))
        theta = phase(w.disp) - tau + np.pi / 2
        got = quadrature_mean(vac, w, theta, 2.0)
        assert got == pytest.approx(2.0 * abs(w.disp))

    def test_coherent_term_by_term(self, resonant03):
        bath, resp = resonant03
        init = GaussianProbeInit(1.0 + 0.0j)
        tau, theta, amp = 1.3, 0.4, 2.0
        d = displacement(resp, fc.ConstantForce(1.0), (0.0, tau))
        got = quadrature_mean(init, window_terms(resp, (0.0, tau), d),
                              theta, amp)
        gval = exact_single_mode_g(0.09, 0.0, tau)
        rot = theta + tau
        want = (abs(gval) * np.sqrt(2.0)
                * np.real(np.exp(-1j * (rot - np.angle(gval))))
                + amp * abs(d) * np.sin(rot - phase(d)))
        assert got == pytest.approx(want, abs=1e-8)


class TestVariance:
    def test_noiseless_vacuum_half(self, noiseless_response):
        vac = GaussianProbeInit(0.0)
        w = window_terms(noiseless_response, (0.0, 3.0))
        for theta in (0.0, 1.0):
            v = quadrature_variance(vac, w, theta)
            assert v == pytest.approx(0.5, abs=1e-12)

    def test_resonant_vacuum_identity(self, resonant_response):
        # closed-form oracle: cos^2/2 + sin^2/2 = 1/2 at every elapsed time
        vac = GaussianProbeInit(0.0)
        for tau in (0.5, 2.0, 6.0, 12.0):
            w = window_terms(resonant_response, (0.0, tau))
            v = quadrature_variance(vac, w, 0.9)
            assert v == pytest.approx(0.5, abs=5e-6)

    def test_squeezed_noiseless(self, noiseless_response):
        init = GaussianProbeInit(0.0, r=1.0, axis=0.0)
        # the squeezed axis rotates with the free evolution
        tau = 0.9
        w = window_terms(noiseless_response, (0.0, tau))
        v = quadrature_variance(init, w, np.pi / 2 - tau)
        assert v == pytest.approx(np.exp(-2.0) / 2.0, abs=1e-12)

    def test_theta_sum_rule(self, ohmic_response):
        init = GaussianProbeInit(0.0, r=0.6, axis=1.0)
        w = window_terms(ohmic_response, (0.0, 2.5))
        totals = []
        for theta in np.linspace(0.0, np.pi, 7):
            a = quadrature_variance(init, w, theta)
            b = quadrature_variance(init, w, theta + np.pi / 2)
            totals.append(a + b)
        totals = np.array(totals)
        assert np.ptp(totals) <= 1e-8 * totals.mean()

    def test_noise_term_properties(self, ohmic_response):
        bath = ohmic_response.bath
        assert noise_term(bath, (0.0, 0.0)) == 0.0
        n1 = noise_term(bath, (0.0, 1.0))
        assert n1 > 0.0
        bath0 = DiscreteBath([], [], [], 1.0)
        assert noise_term(bath0, (0.0, 2.0)) == 0.0

    @pytest.mark.parametrize("n_modes", [0, 1, 16, 129])
    def test_noise_term_of_array_windows_is_bit_identical(self, n_modes):
        # 600 windows span three blocks; the first three have zero length
        rng = np.random.default_rng(n_modes)
        bath = DiscreteBath(rng.uniform(0.0, 0.1, n_modes),
                            rng.uniform(0.5, 2.0, n_modes),
                            rng.uniform(0.0, 2.0, n_modes), 1.0)
        t0 = rng.uniform(0.0, 1.0, 600)
        t1 = t0 + rng.uniform(0.0, 3.0, 600)
        t1[:3] = t0[:3]
        got = noise_term(bath, (t0, t1))
        assert got.tolist() == [noise_term(bath, (a, b))
                                for a, b in zip(t0, t1)]
        assert noise_term(bath, (0.0, t1.reshape(20, 30))).shape == (20, 30)

    def test_noise_term_memory_is_bounded_by_its_blocks(self):
        # one amplitude array for 20,000 windows on 128 modes would hold
        # 20,000 x 129 complex values, 41 MB
        rng = np.random.default_rng(3)
        bath = DiscreteBath(rng.uniform(0.0, 0.01, 128),
                            rng.uniform(0.5, 2.0, 128), np.zeros(128), 1.0)
        taus = np.linspace(0.0, 2.0, 20_000)
        noise_term(bath, (0.0, 1.0))    # caches the eigensystem
        tracemalloc.start()
        try:
            n_b = noise_term(bath, (0.0, taus))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_b.shape == taus.shape
        assert peak < 8e6

    def test_vacuum_unitarity_against_marched_response(self):
        # modal n_B against the engine's G: a vacuum bath conserves the
        # probe's amplitude, n_B = (1 - |G|^2) / 2, to the |G| tolerance
        bath = discretize(ContinuousSpectrum("flat", scale=0.02, cutoff=2.0),
                          64, 1.0)
        resp = solve_response(bath, TimeGrid(20.0, 2048))
        for tau in (0.3, 1.1, 4.0, 9.7, 20.0):
            n_b = noise_term(bath, (0.0, tau))
            assert abs(n_b + 0.5 * abs(resp.g(tau)) ** 2 - 0.5) <= 1e-6


class TestSnapshot:
    def test_pure_noiseless_det(self, noiseless_response):
        vac = GaussianProbeInit(0.0)
        snap = covariance_snapshot(
            vac, window_terms(noiseless_response, (0.0, 2.0)), 0.1)
        assert snap.det_sigma == pytest.approx(0.25, abs=1e-12)

    def test_resonant_vacuum_det_quarter(self, resonant_response):
        vac = GaussianProbeInit(0.0)
        snap = covariance_snapshot(
            vac, window_terms(resonant_response, (0.0, 3.0)),
            0.4)
        assert snap.det_sigma == pytest.approx(0.25, abs=1e-5)

    def test_thermal_bath_det_grows(self):
        bath = DiscreteBath([0.09], [1.0], [1.0], 1.0)
        resp = solve_response(bath, TimeGrid(6.0, 2048))
        vac = GaussianProbeInit(0.0)
        snap = covariance_snapshot(vac, window_terms(resp, (0.0, 5.0)),
                                   0.0)
        assert snap.det_sigma > 0.25 + 1e-3

    def test_det_theta_independent(self, ohmic_response):
        init = GaussianProbeInit(0.0, r=0.5, axis=0.2)
        w = window_terms(ohmic_response, (0.0, 2.0))
        a = covariance_snapshot(init, w, 0.3)
        b = covariance_snapshot(init, w, 1.0)
        assert a.det_sigma == pytest.approx(b.det_sigma, rel=1e-8)

    def test_noiseless_equals_rotated_initial(self, noiseless_response):
        init = GaussianProbeInit(0.0, r=0.7, axis=0.4)
        tau, theta = 1.7, 0.25
        w = window_terms(noiseless_response, (0.0, tau))
        snap = covariance_snapshot(init, w, theta)
        assert snap.var_x_theta == pytest.approx(init.variance(theta + tau),
                                                 abs=1e-12)
        assert w.n_b == 0.0


class TestArrayWindows:
    def test_rows_match_scalar_windows(self, ohmic_response):
        # numpy's abs and complex product round differently from Python's
        # scalar ones in the last bit: rows agree to 1e-13 of each column's
        # largest magnitude; the first window is empty
        init = GaussianProbeInit(0.8 - 0.3j, r=0.5, axis=0.2)
        force = fc.SinusoidForce(1.0, 1.3, 0.2)
        times = np.linspace(0.5, 7.5, 33)
        w = forced_window(ohmic_response, force, (0.5, times))
        got = np.column_stack((quadrature_mean(init, w, 0.4, 1.5),
                               *covariance_snapshot(init, w, 0.4)))
        want = []
        for t in times:
            one = forced_window(ohmic_response, force, (0.5, float(t)))
            want.append((quadrature_mean(init, one, 0.4, 1.5),
                         *covariance_snapshot(init, one, 0.4)))
        want = np.array(want)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max(axis=0))


def _scan_max_angle(init, w) -> float:
    """The angle of most variance after the window, on a 720-point scan."""
    thetas = np.linspace(0.0, np.pi, 720, endpoint=False)
    return float(thetas[int(np.argmax(quadrature_variance(init, w, thetas)))])


def _mod_pi_gap(a: float, b: float) -> float:
    diff = abs(a - b) % np.pi
    return min(diff, np.pi - diff)


class TestMaxVarianceAngle:
    # the window turns the state's axis to axis + phase(G) - omega0 (t - t0)
    # mod pi, and qfi_general labels a state "aligned" when that lands on
    # the optimal angle phase(D) - omega0 (t - t0): the omega0 terms cancel,
    # leaving axis = phase(D) - phase(G)
    def test_identity_window(self, ohmic_response):
        w = window_terms(ohmic_response, (0.0, 0.0))
        init = GaussianProbeInit(0.0, r=0.6, axis=0.8)
        assert _mod_pi_gap(_scan_max_angle(init, w), 0.8) <= np.pi / 720

    def test_free_rotation(self, noiseless_response):
        w = window_terms(noiseless_response, (0.0, np.pi / 2))
        init = GaussianProbeInit(0.0, r=0.6, axis=0.3)
        assert _mod_pi_gap(_scan_max_angle(init, w),
                           0.3 - np.pi / 2) <= np.pi / 720

    def test_matches_argmax_scan(self, detuned_bath):
        resp = solve_response(detuned_bath, TimeGrid(4.0, 2048))
        w = forced_window(resp, fc.ConstantForce(1.0), (0.0, 1.8))
        turn = phase(w.g) - w.omega0 * w.tau
        for axis in (0.9, phase(w.disp) - phase(w.g)):
            init = GaussianProbeInit(0.0, r=0.6, axis=axis)
            best = _scan_max_angle(init, w)
            assert _mod_pi_gap(best, axis + turn) <= np.pi / 720 + 1e-12
            on_target = _mod_pi_gap(best, optimal_angle(w)) <= np.pi / 720
            assert on_target == (qfi_general(init, w).form == "aligned")
        assert on_target and _mod_pi_gap(0.9 + turn, optimal_angle(w)) > 0.1


class TestWindowExtension:
    def test_padding_never_helps(self, resonant03):
        # sensing before the force starts and after it stops adds noise
        bath, resp = resonant03
        z = fc.ConstantForce(1.0, (0.5, 1.5))
        vac = GaussianProbeInit(0.0)
        tight = (0.5, 1.5)
        padded = (0.0, 2.5)
        for win_a, win_b in ((tight, padded),):
            w_b = forced_window(resp, z, win_b)
            theta_b = phase(w_b.disp) - 1.0 * (win_b[1] - win_b[0])
            w_a = forced_window(resp, z, win_a)
            theta_a = phase(w_a.disp) - 1.0 * (win_a[1] - win_a[0])
            va = variance_p(vac, w_a, theta_a)
            vb = variance_p(vac, w_b, theta_b)
            assert vb >= va - 1e-12
