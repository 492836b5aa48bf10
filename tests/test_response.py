"""Response solver: limits, expansions, convergence order, and invariants."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import exact_single_mode_g
from nmqfi.bath import (ContinuousSpectrum, DiscreteBath, discretize,
                        moments)
from nmqfi.errors import ConvergenceError, CoverageError
from nmqfi.response import (TimeGrid, default_grid, dyson_series,
                            first_order_asymptote, first_order_response,
                            long_time_first_order, markov_closed_form,
                            markov_decay_rate, short_time_response,
                            solve_response, solver_residual)


class TestSolver:
    def test_empty_bath_identity(self):
        resp = solve_response(DiscreteBath.empty(1.0), TimeGrid(0.0, 5.0, 64))
        assert_allclose(resp.g_samples, 1.0)
        assert_allclose(resp.g_dot_samples, 0.0)

    def test_refinement_factor_is_fixed(self):
        # the march always runs 4x finer than the requested grid
        with pytest.raises(TypeError):
            solve_response(DiscreteBath.empty(1.0), TimeGrid(0.0, 1.0, 8),
                           refine=2)

    def test_initial_conditions_exact(self, resonant_response):
        assert resonant_response.g_samples[0] == 1.0
        assert resonant_response.g_dot_samples[0] == 0.0

    def test_resonant_mode_cosine(self, resonant_bath, resonant_response):
        tau = resonant_response.grid.times()
        err = np.abs(resonant_response.g_samples - np.cos(0.5 * tau))
        assert err.max() <= 1e-6
        # at tau = 2 pi the response hits cos(pi) = -1
        assert resonant_response.g(2.0 * np.pi) == pytest.approx(-1.0, abs=1e-6)

    def test_detuned_mode_matches_exact_oracle(self, detuned_bath):
        resp = solve_response(detuned_bath, TimeGrid(0.0, 10.0, 2048))
        tau = resp.grid.times()
        exact = exact_single_mode_g(0.25, 1.0, tau)
        assert np.abs(resp.g_samples - exact).max() <= 1e-6

    def test_detuned_mode_matches_fine_grid_reference(self, detuned_bath):
        coarse = solve_response(detuned_bath, TimeGrid(0.0, 6.0, 1024))
        fine = solve_response(detuned_bath, TimeGrid(0.0, 6.0, 10240))
        common = coarse.grid.times()
        assert np.abs(coarse.g_samples - fine.g(common)).max() <= 1e-6

    def test_magnitude_never_exceeds_one(self, ohmic_response):
        assert np.abs(ohmic_response.g_samples).max() <= 1.0 + 1e-6

    def test_convergence_is_second_order(self, detuned_bath):
        errs = []
        for n in (256, 512, 1024):
            resp = solve_response(detuned_bath, TimeGrid(0.0, 10.0, n))
            t = resp.grid.times()
            errs.append(np.abs(resp.g_samples
                               - exact_single_mode_g(0.25, 1.0, t)).max())
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    def test_residual_bound(self, two_mode_bath):
        resp = solve_response(two_mode_bath, TimeGrid(0.0, 10.0, 1024))
        ksq = two_mode_bath.k_squared
        bound = 10.0 * resp.grid.h ** 2 * ksq * ksq
        assert solver_residual(resp) <= bound

    def test_symmetric_spectrum_response_is_real(self):
        bath = DiscreteBath.from_arrays([0.4, 0.4, 0.2, 0.2],
                                        [1.5, 2.5, 1.0, 3.0],
                                        [0.0, 0.0, 0.0, 0.0], 2.0)
        resp = solve_response(bath, TimeGrid(0.0, 12.0, 4096))
        assert np.abs(resp.g_samples.imag).max() <= 1e-8

    def test_coverage_error(self, resonant_response):
        with pytest.raises(CoverageError):
            resonant_response.g(resonant_response.t_end * 1.01)

    def test_hermite_interpolation_accuracy(self, detuned_bath):
        resp = solve_response(detuned_bath, TimeGrid(0.0, 6.0, 1024))
        taus = np.linspace(0.01, 5.9, 777)
        exact = exact_single_mode_g(0.25, 1.0, taus)
        assert np.abs(resp.g(taus) - exact).max() <= 2e-6

    def test_derivative_interpolation(self, detuned_bath):
        resp = solve_response(detuned_bath, TimeGrid(0.0, 6.0, 1024))
        taus = np.linspace(0.05, 5.8, 301)
        # finite-difference oracle on the interpolated response
        eps = 1e-5
        fd = (resp.g(taus + eps) - resp.g(taus - eps)) / (2 * eps)
        assert np.abs(resp.g_dot(taus) - fd).max() <= 1e-5

    def test_default_grid_resolution(self, detuned_bath):
        grid = default_grid(detuned_bath, 5.0)
        m = moments(detuned_bath, 2)
        assert grid.h * max(m.omega(2), detuned_bath.probe_frequency) <= 0.02
        assert grid.n_steps >= 1024


class TestMarkovLimit:
    def test_envelope_tracks_exponential(self):
        gamma, width = 0.04, 1.0
        spec = ContinuousSpectrum("flat", scale=gamma / (2 * np.pi),
                                  cutoff=2.0 * width)
        bath = discretize(spec, 512, width)
        resp = solve_response(bath, TimeGrid(0.0, 2.0 / gamma, 4096))
        tau = resp.grid.times()
        mask = (tau >= 5.0 / width)
        dev = np.abs(np.abs(resp.g_samples[mask])
                     - markov_closed_form(gamma, tau[mask]))
        assert dev.max() <= 0.03

    def test_closed_form_values(self):
        assert markov_closed_form(0.0, 7.7) == 1.0
        assert markov_closed_form(0.2, 10.0) == pytest.approx(np.exp(-1.0))

    def test_decay_rate_bridge(self):
        spec = ContinuousSpectrum("flat", scale=0.05, cutoff=2.0)
        assert markov_decay_rate(spec, 1.0) == pytest.approx(2 * np.pi * 0.05)


class TestShortTime:
    def test_tau_zero(self, two_mode_bath):
        assert short_time_response(two_mode_bath, 0.0) == 1.0

    def test_resonant_coefficients(self, resonant_bath):
        val = short_time_response(resonant_bath, 0.1)
        assert val == pytest.approx(1.0 - 0.00125)
        assert val.imag == 0.0

    def test_detuned_third_order(self):
        # |K|^2 = 1, omega_n - omega0 = 2, tau = 0.1
        bath = DiscreteBath.from_arrays([1.0], [3.0], [0.0], 1.0)
        val = short_time_response(bath, 0.1)
        assert val.real == pytest.approx(1.0 - 0.005)
        assert val.imag == pytest.approx(2.0 * 0.1 ** 3 / 6.0)

    def test_matches_solver_to_fourth_order(self, two_mode_bath):
        resp = solve_response(two_mode_bath, TimeGrid(0.0, 0.5, 4096))
        taus = np.geomspace(2e-3, 2e-1, 12)
        resid = np.abs(np.asarray(resp.g(taus))
                       - np.asarray(short_time_response(two_mode_bath, taus)))
        slope = np.polyfit(np.log(taus), np.log(resid), 1)[0]
        assert 3.7 <= slope <= 4.3


class TestDysonSeries:
    def test_order_zero(self, two_mode_bath):
        assert dyson_series(two_mode_bath, 3.0, 0) == 1.0

    def test_resonant_partial_sums_are_cosine_taylor(self, resonant_bath):
        # oracle: cosine Taylor partial sum at |K| tau = 0.5
        tau, k = 1.0, 0.5
        partial = 1 - (k * tau) ** 2 / 2 + (k * tau) ** 4 / 24 - (k * tau) ** 6 / 720
        val = dyson_series(resonant_bath, tau, 3)
        assert val.real == pytest.approx(partial, abs=1e-12)
        assert abs(val - np.cos(k * tau)) <= 1e-5

    def test_single_detuned_converges_to_exact(self, detuned_bath):
        tau = 0.8
        exact = exact_single_mode_g(0.25, 1.0, tau)
        val = dyson_series(detuned_bath, tau, 8)
        assert abs(val - exact) <= 1e-8

    def test_multi_mode_matches_solver(self, two_mode_bath):
        tau = 0.6
        resp = solve_response(two_mode_bath, TimeGrid(0.0, 1.0, 4096))
        val = dyson_series(two_mode_bath, tau, 4)
        assert abs(val - resp.g(tau)) <= 1e-6

    def test_symmetric_pair_first_order_matches_short_time(self):
        bath = DiscreteBath.from_arrays([1.0, 1.0], [1.0, 3.0], [0.0, 0.0], 2.0)
        for tau in (0.02, 0.04):
            d1 = dyson_series(bath, tau, 1)
            st_ = short_time_response(bath, tau)
            assert abs(d1 - st_) <= 5.0 * tau ** 4

    def test_multi_mode_order_cap(self, two_mode_bath):
        with pytest.raises(ValueError):
            dyson_series(two_mode_bath, 0.5, 5)

    def test_multi_mode_grid_cap_raises(self):
        # two far-detuned modes: the last doubling of the grid iteration
        # still moves the order-2 sum by ~1e-5, far above its 1e-8 tolerance
        bath = DiscreteBath.from_arrays([0.5, 0.5], [3001.0, 4001.0],
                                        [0.0, 0.0], 1.0)
        with pytest.raises(ConvergenceError):
            dyson_series(bath, 1.0, 2)


class TestFirstOrderTerm:
    def test_tau_zero(self, two_mode_bath):
        assert first_order_response(two_mode_bath, 0.0) == 0.0

    def test_resonant_limit(self, resonant_bath):
        # analytic limit of the bracket at zero detuning: -|K|^2 tau^2 / 2
        val = first_order_response(resonant_bath, 2.0)
        assert val == pytest.approx(-0.5)
        # against a finite-detuning evaluation at delta = 1e-4
        near = DiscreteBath.from_arrays([0.25], [1.0 - 1e-4], [0.0], 1.0)
        assert abs(first_order_response(near, 2.0) - val) <= 1e-4

    def test_matches_dyson_order_one(self, two_mode_bath):
        tau = 0.7
        assert first_order_response(two_mode_bath, tau) == pytest.approx(
            dyson_series(two_mode_bath, tau, 1) - 1.0, abs=1e-8)

    def test_flat_band_reaches_asymptote(self):
        # band supported on [omega0, omega0 + W]: the edge-delta form applies
        omega0, width, c = 1.0, 1.0, 0.01
        n = 4096
        freqs = omega0 + (np.arange(n) + 0.5) * width / n
        bath = DiscreteBath.from_arrays(np.full(n, c * width / n), freqs,
                                        np.zeros(n), omega0)
        spec = ContinuousSpectrum("flat", scale=c, cutoff=3.0)
        tau = 25.0  # tau * width >= 20
        got = first_order_response(bath, tau).real
        want = first_order_asymptote(spec, tau, omega0)
        assert abs(got - want) <= 0.05 * abs(want)

    def test_symmetric_spectrum_imaginary_part_cancels(self):
        bath = DiscreteBath.from_arrays([0.3, 0.3], [1.2, 2.8], [0.0, 0.0], 2.0)
        for tau in (0.5, 3.0, 12.0):
            assert abs(first_order_response(bath, tau).imag) <= 1e-12

    def test_dispatch(self, two_mode_bath):
        spec = ContinuousSpectrum("flat", scale=0.01, cutoff=3.0)
        assert long_time_first_order(two_mode_bath, 1.0) == \
            first_order_response(two_mode_bath, 1.0)
        assert long_time_first_order(spec, 10.0, probe_frequency=1.0) == \
            first_order_asymptote(spec, 10.0, 1.0)
        with pytest.raises(ValueError):
            long_time_first_order(spec, 10.0)

    def test_zero_coupling_modes_are_inert(self):
        bath = DiscreteBath.from_arrays([0.0, 0.25], [1.0, 1.0], [0.0, 0.0], 1.0)
        val = first_order_response(bath, 2.0)
        assert val == pytest.approx(-0.5)
        weightless = DiscreteBath.from_arrays([0.0], [1.0], [0.0], 1.0)
        assert first_order_response(weightless, 2.0) == 0.0
