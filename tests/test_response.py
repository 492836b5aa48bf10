"""Response solver: limits, expansions, convergence order, and invariants."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (exact_single_mode_g, marched_response,
                      short_time_response, solver_residual)
from nmqfi.bath import (ContinuousSpectrum, DiscreteBath, OccupationModel,
                        discretize, moments)
from nmqfi.errors import CoverageError, SolverInstabilityError
from nmqfi.response import (TimeGrid, default_grid, markov_closed_form,
                            markov_decay_rate, solve_response)


_FLAT_THERMAL = discretize(
    ContinuousSpectrum("flat", scale=0.02, cutoff=2.0,
                       occupation=OccupationModel.thermal(0.5)), 256, 1.0)
_MIXED = DiscreteBath.from_arrays([0.0, 0.3, 0.0, 0.1], [1.0, 1.5, 0.2, 0.7],
                                  [0.0, 0.0, 0.0, 0.0], 1.0)
# (bath or fixture name, grid): inner step counts 8192, 4096, 4096, 4096,
# 148 and 8 cover whole blocks, a partial last block and a grid shorter
# than one block.
_MARCH_CASES = {
    "detuned_mode": ("detuned_bath", TimeGrid(0.0, 10.0, 2048)),
    "two_mode": ("two_mode_bath", TimeGrid(0.0, 10.0, 1024)),
    "flat_thermal_256": (_FLAT_THERMAL, TimeGrid(0.0, 20.0, 1024)),
    "zero_and_coupled": (_MIXED, TimeGrid(0.0, 8.0, 1024)),
    "partial_block": ("two_mode_bath", TimeGrid(0.0, 3.0, 37)),
    "shorter_than_block": ("two_mode_bath", TimeGrid(0.0, 0.5, 2)),
}


class TestSolver:
    @pytest.mark.parametrize("case", sorted(_MARCH_CASES))
    def test_blocked_march_matches_step_march(self, case, request):
        bath, grid = _MARCH_CASES[case]
        if isinstance(bath, str):
            bath = request.getfixturevalue(bath)
        got, want = solve_response(bath, grid), marched_response(bath, grid)
        scale = max(1.0, bath.k_squared)
        assert np.abs(got.g_samples - want.g_samples).max() <= 1e-11
        assert np.abs(got.g_dot_samples - want.g_dot_samples).max() <= 1e-11
        assert np.abs(got.g_ddot_samples
                      - want.g_ddot_samples).max() <= 1e-11 * scale

    def test_instability_names_first_offending_step(self):
        # a negative weight pumps the probe (|G| = cosh-like growth); no
        # DiscreteBath can hold it, so a stand-in carries the three arrays
        # the solver reads. The first inner step past 1 + 1e-6 is the 200th,
        # inside the fourth block.
        c = np.array([-1.0, 0.5])
        bath = SimpleNamespace(coupling_sq=c, detunings=np.array([0.0, 0.3]),
                               k_squared=float(c.sum()))
        grid = TimeGrid(0.0, 0.02, 500)
        messages = []
        for solver in (solve_response, marched_response):
            with pytest.raises(SolverInstabilityError, match="at tau=0.002;") as err:
                solver(bath, grid)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

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
