"""Bath correlation function: decomposition and reduced form."""

import numpy as np
import pytest

from conftest import (equal_start_correlation, four_term_correlation,
                      step_noise_variance)
from nmqfi.bath import (ContinuousSpectrum, DiscreteBath, bare_correlation,
                        discretize)
from nmqfi.correlation import bath_correlation
from nmqfi.probe import noise_term
from nmqfi.response import TimeGrid, solve_response


@pytest.fixture(scope="module")
def flat_band():
    spec = ContinuousSpectrum("flat", scale=0.02, cutoff=2.0)
    bath = discretize(spec, 64, 1.0)
    resp = solve_response(bath, TimeGrid(20.0, 2048))
    return bath, resp


class TestDecomposition:
    def test_empty_bath_zero(self):
        bath = DiscreteBath([], [], [], 1.0)
        r = bath_correlation(bath, 0.5, 2.0, 0.5)
        assert r.total == 0.0
        assert r.born == 0.0
        assert r.interaction == 0.0

    def test_sum_is_exact(self, flat_band):
        bath, _ = flat_band
        r = bath_correlation(bath, 0.5, 2.0, 0.9)
        assert abs(r.total - r.born - r.interaction) <= 1e-10

    def test_born_term_is_bare_correlation(self, flat_band):
        bath, _ = flat_band
        t, tp = 2.3, 0.8
        r = bath_correlation(bath, 0.5, t, tp)
        want = np.exp(-1j * (t - tp)) * bare_correlation(bath, t - tp)
        assert r.born == pytest.approx(want, rel=1e-12)

    def test_born_hermitian_symmetry(self, flat_band):
        bath, _ = flat_band
        a = bath_correlation(bath, 0.5, 2.0, 0.7)
        b = bath_correlation(bath, 0.5, 0.7, 2.0)
        assert a.born == pytest.approx(np.conj(b.born), rel=1e-12)

    def test_reduced_form_at_equal_start(self, flat_band):
        # independent single-quadrature route for t' = 0
        bath, resp = flat_band
        for t in (0.9, 1.7, 4.0):
            full = bath_correlation(bath, 0.5, t, 0.0)
            reduced = equal_start_correlation(bath, resp, t, 1.0)
            assert abs(full.total - reduced) <= 1e-8

    @pytest.mark.parametrize("fluct", [0.5, 1.3])
    def test_matches_four_term_assembly(self, flat_band, fluct):
        # the paper's quadrature assembly on the solved response
        bath, resp = flat_band
        for t, tp in ((2.0, 0.9), (0.7, 2.3), (1.5, 1.5), (4.0, 0.0)):
            got = bath_correlation(bath, fluct, t, tp).total
            want = four_term_correlation(bath, resp, fluct, t, tp, 1.0)
            assert abs(got - want) <= 1e-7

    def test_array_times_match_scalar_calls(self, flat_band):
        # one propagate call over every time: numpy's batched sums and
        # complex products round differently from the scalar call's, so
        # each part agrees to 1e-13 of its column's largest magnitude
        bath, _ = flat_band
        times = np.linspace(0.9, 20.0, 33)
        got = bath_correlation(bath, 0.5, times, 0.9)
        want = [bath_correlation(bath, 0.5, float(t), 0.9) for t in times]
        for part, scalars in zip(got, zip(*want)):
            for got_col, want_col in ((part.real, np.real(scalars)),
                                      (part.imag, np.imag(scalars))):
                assert np.all(np.abs(got_col - want_col)
                              <= 1e-13 * np.abs(want_col).max())
        grid = bath_correlation(bath, 0.5, times.reshape(3, 11), 0.9)
        assert grid.total.shape == (3, 11)

    def test_thermal_modes_match_four_term_assembly(self):
        omega0 = 1.3
        bath = DiscreteBath([0.16, 0.09], [1.0, 1.9], [0.0, 0.7], omega0)
        resp = solve_response(bath, TimeGrid(4.0, 4096))
        for t, tp in ((2.1, 0.9), (0.8, 3.0)):
            got = bath_correlation(bath, 0.8, t, tp).total
            want = four_term_correlation(bath, resp, 0.8, t, tp, omega0)
            assert abs(got - want) <= 1e-7


class TestPastTheSolvedGrid:
    def test_modal_routes_need_no_grid(self):
        # n_B and the correlation take the bath alone, so no grid bounds
        # their times; the quadrature oracles read a response solved on
        # [0, 4]
        omega0 = 1.3
        bath = DiscreteBath([0.16, 0.09], [1.0, 1.9], [0.0, 0.7], omega0)
        resp = solve_response(bath, TimeGrid(4.0, 4096))
        for tau in (2.0, 3.5):
            assert noise_term(bath, (0.0, tau)) == pytest.approx(
                step_noise_variance(resp, bath, tau), rel=1e-7)
        for t, tp in ((2.1, 0.9), (0.8, 3.0)):
            got = bath_correlation(bath, 0.8, t, tp)
            want = four_term_correlation(bath, resp, 0.8, t, tp, omega0)
            assert abs(got.total - want) <= 1e-7


class TestCouplingScaling:
    def test_interaction_over_born_slope_two(self):
        scales = np.array([0.02, 0.01, 0.005, 0.0025])
        ratios = []
        for sc in scales:
            bath = discretize(ContinuousSpectrum("flat", scale=sc, cutoff=2.0),
                              64, 1.0)
            r = bath_correlation(bath, 0.5, 2.0, 0.9)
            ratios.append(abs(r.interaction) / abs(r.born))
        k = np.sqrt(scales * 2.0)
        slope = np.polyfit(np.log(k), np.log(ratios), 1)[0]
        assert 1.8 <= slope <= 2.2


class TestSymplecticOracle:
    def test_two_time_correlation_from_first_principles(self):
        # exact two-time symmetrized moments of the collective coupling,
        # from the symplectic propagator of the full probe + bath system
        from conftest import (covariance_matrix, initial_joint_covariance,
                              quadrature_drift_propagator)
        from nmqfi.probe import GaussianProbeInit

        omega0 = 1.3
        bath = DiscreteBath([0.16, 0.09], [1.0, 1.9], [0.0, 0.7], omega0)
        init = GaussianProbeInit(0.6 - 0.2j, r=0.5, axis=0.4)
        sigma0 = initial_joint_covariance(bath, covariance_matrix(init))
        k = np.sqrt(bath.coupling_sq)
        dim = 2 * (bath.n_modes + 1)
        wx = np.zeros(dim)
        wp = np.zeros(dim)
        for j in range(bath.n_modes):
            wx[2 + 2 * j] = k[j]
            wp[3 + 2 * j] = k[j]

        def oracle(t, tp):
            m = (quadrature_drift_propagator(bath, t) @ sigma0
                 @ quadrature_drift_propagator(bath, tp).T)
            return 0.5 * (wx @ m @ wx + wp @ m @ wp
                          + 1j * (wp @ m @ wx - wx @ m @ wp))

        for t, tp in ((2.1, 0.9), (1.5, 1.5), (0.8, 2.0), (3.5, 0.0)):
            got = bath_correlation(bath, 0.5 * init.trace, t, tp).total
            assert got == pytest.approx(oracle(t, tp), abs=1e-7)
