"""Probe moments: displacement coefficients, means, variances, snapshots."""

import numpy as np
import pytest

from conftest import exact_single_mode_g
from nmqfi import force as fc
from nmqfi.bath import ContinuousSpectrum, DiscreteBath, discretize
from nmqfi.errors import CoverageError
from nmqfi.probe import (GaussianProbeInit, covariance_snapshot, displacement,
                         noise_term, quadrature_mean, quadrature_variance,
                         rotated_max_variance_angle, variance_p)
from nmqfi.response import TimeGrid, solve_response


@pytest.fixture(scope="module")
def noiseless_response():
    return solve_response(DiscreteBath.empty(1.0), TimeGrid(0.0, 8.0, 512))


@pytest.fixture(scope="module")
def resonant03():
    """|K| = 0.3 resonant mode and its response, for displacement oracles."""
    bath = DiscreteBath.from_arrays([0.09], [1.0], [0.0], 1.0)
    return bath, solve_response(bath, TimeGrid(0.0, 4.0, 2048))


class TestInit:
    def test_vacuum(self):
        v = GaussianProbeInit.vacuum()
        assert v.variance(0.77) == pytest.approx(0.5)
        assert v.det == pytest.approx(0.25)
        assert v.is_pure and v.is_isotropic
        assert v.mean_energy == pytest.approx(0.5)

    def test_squeezed_axes(self):
        s = GaussianProbeInit.squeezed(0.8, axis_angle=0.3)
        assert s.variance(0.3) == pytest.approx(0.5 * np.exp(1.6))
        assert s.variance(0.3 + np.pi / 2) == pytest.approx(0.5 * np.exp(-1.6))
        assert s.det == pytest.approx(0.25)
        assert s.max_variance_angle() == pytest.approx(0.3)

    def test_mean_quadrature(self):
        c = GaussianProbeInit.coherent(1.0 + 1.0j)
        assert c.mean_x(0.0) == pytest.approx(np.sqrt(2.0))
        assert c.mean_x(np.pi / 2) == pytest.approx(np.sqrt(2.0))

    def test_uncertainty_bound_enforced(self):
        with pytest.raises(ValueError):
            GaussianProbeInit(0.0, np.diag([0.3, 0.3]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            GaussianProbeInit(0.0, np.array([[0.5, 0.2], [0.1, 0.5]]))


class TestDisplacement:
    def test_zero_force(self, noiseless_response):
        d = displacement(noiseless_response, fc.constant(0.0), 1.0, (0.0, 2.0))
        assert d.value == 0.0
        assert d.phase == 0.0

    def test_support_outside_window(self, noiseless_response):
        z = fc.constant(1.0, (5.0, 6.0))
        d = displacement(noiseless_response, z, 1.0, (0.0, 2.0))
        assert d.value == 0.0

    def test_noiseless_closed_form(self, noiseless_response):
        # oracle: D0 = -i (e^{i w0 tau} - 1), |D0| = 2 sin(w0 tau / 2)
        for tau in (0.7, np.pi, 2.2):
            d = displacement(noiseless_response, fc.constant(1.0), 1.0, (0.0, tau))
            want = -1j * (np.exp(1j * tau) - 1.0)
            assert d.value == pytest.approx(want, abs=1e-10)
        d = displacement(noiseless_response, fc.constant(1.0), 1.0, (0.0, np.pi))
        assert d.magnitude == pytest.approx(2.0)

    def test_resonant_mode_against_fine_grid_oracle(self, resonant03):
        bath, resp = resonant03
        tau = 1.0
        d = displacement(resp, fc.constant(1.0), 1.0, (0.0, tau))
        # brute-force quadrature at 1e5 nodes with the exact response
        u = np.linspace(0.0, tau, 100001)
        vals = np.exp(1j * u) * exact_single_mode_g(0.09, 0.0, tau - u)
        oracle = np.trapezoid(vals, u)
        assert d.value == pytest.approx(oracle, abs=1e-7)

    def test_window_start_sets_phase_reference(self, noiseless_response):
        # shifting the window start rotates the phase, not the magnitude
        z = fc.constant(1.0)
        d0 = displacement(noiseless_response, z, 1.0, (0.0, 1.3))
        d1 = displacement(noiseless_response, z, 1.0, (2.0, 3.3))
        assert d1.magnitude == pytest.approx(d0.magnitude, rel=1e-10)

    def test_coverage_error(self, resonant03):
        bath, resp = resonant03
        with pytest.raises(CoverageError):
            displacement(resp, fc.constant(1.0), 1.0, (0.0, resp.t_end + 1.0))


class TestMean:
    def test_zero_everything(self, noiseless_response):
        vac = GaussianProbeInit.vacuum()
        d = displacement(noiseless_response, fc.constant(1.0), 1.0, (0.0, 1.0))
        assert quadrature_mean(vac, noiseless_response, d, 0.3, 0.0, 1.0,
                               (0.0, 1.0)) == 0.0

    def test_driven_peak(self, noiseless_response):
        # angle that puts the sine at one reads off F |D|
        vac = GaussianProbeInit.vacuum()
        tau = 1.1
        d = displacement(noiseless_response, fc.constant(1.0), 1.0, (0.0, tau))
        theta = d.phase - tau + np.pi / 2
        got = quadrature_mean(vac, noiseless_response, d, theta, 2.0, 1.0, (0.0, tau))
        assert got == pytest.approx(2.0 * d.magnitude)

    def test_coherent_term_by_term(self, resonant03):
        bath, resp = resonant03
        init = GaussianProbeInit.coherent(1.0 + 0.0j)
        tau, theta, amp = 1.3, 0.4, 2.0
        d = displacement(resp, fc.constant(1.0), 1.0, (0.0, tau))
        got = quadrature_mean(init, resp, d, theta, amp, 1.0, (0.0, tau))
        gval = exact_single_mode_g(0.09, 0.0, tau)
        rot = theta + tau
        want = (abs(gval) * np.sqrt(2.0)
                * np.real(np.exp(-1j * (rot - np.angle(gval))))
                + amp * d.magnitude * np.sin(rot - d.phase))
        assert got == pytest.approx(want, abs=1e-8)


class TestVariance:
    def test_noiseless_vacuum_half(self, noiseless_response):
        vac = GaussianProbeInit.vacuum()
        bath = DiscreteBath.empty(1.0)
        for theta in (0.0, 1.0):
            v = quadrature_variance(vac, noiseless_response, bath, theta, 1.0,
                                    (0.0, 3.0))
            assert v == pytest.approx(0.5, abs=1e-12)

    def test_resonant_vacuum_identity(self, resonant_bath, resonant_response):
        # closed-form oracle: cos^2/2 + sin^2/2 = 1/2 at every elapsed time
        vac = GaussianProbeInit.vacuum()
        for tau in (0.5, 2.0, 6.0, 12.0):
            v = quadrature_variance(vac, resonant_response, resonant_bath,
                                    0.9, 1.0, (0.0, tau))
            assert v == pytest.approx(0.5, abs=5e-6)

    def test_squeezed_noiseless(self, noiseless_response):
        init = GaussianProbeInit.squeezed(1.0, axis_angle=0.0)
        bath = DiscreteBath.empty(1.0)
        # the squeezed axis rotates with the free evolution
        tau = 0.9
        v = quadrature_variance(init, noiseless_response, bath,
                                np.pi / 2 - tau, 1.0, (0.0, tau))
        assert v == pytest.approx(np.exp(-2.0) / 2.0, abs=1e-12)

    def test_theta_sum_rule(self, ohmic_bath, ohmic_response):
        init = GaussianProbeInit.squeezed(0.6, axis_angle=1.0)
        win = (0.0, 2.5)
        totals = []
        for theta in np.linspace(0.0, np.pi, 7):
            a = quadrature_variance(init, ohmic_response, ohmic_bath, theta,
                                    1.0, win)
            b = quadrature_variance(init, ohmic_response, ohmic_bath,
                                    theta + np.pi / 2, 1.0, win)
            totals.append(a + b)
        totals = np.array(totals)
        assert np.ptp(totals) <= 1e-8 * totals.mean()

    def test_noise_term_properties(self, ohmic_bath, ohmic_response):
        assert noise_term(ohmic_response, ohmic_bath, (0.0, 0.0)) == 0.0
        n1 = noise_term(ohmic_response, ohmic_bath, (0.0, 1.0))
        assert n1 > 0.0
        bath0 = DiscreteBath.empty(1.0)
        resp0 = solve_response(bath0, TimeGrid(0.0, 4.0, 256))
        assert noise_term(resp0, bath0, (0.0, 2.0)) == 0.0

    def test_vacuum_unitarity_against_marched_response(self):
        # modal n_B against the marched G: a vacuum bath conserves the
        # probe's amplitude, n_B = (1 - |G|^2) / 2, to the |G| tolerance
        bath = discretize(ContinuousSpectrum("flat", scale=0.02, cutoff=2.0),
                          64, 1.0)
        resp = solve_response(bath, TimeGrid(0.0, 20.0, 2048))
        for tau in (0.3, 1.1, 4.0, 9.7, 20.0):
            n_b = noise_term(resp, bath, (0.0, tau))
            assert abs(n_b + 0.5 * abs(resp.g(tau)) ** 2 - 0.5) <= 1e-6


class TestSnapshot:
    def test_pure_noiseless_det(self, noiseless_response):
        vac = GaussianProbeInit.vacuum()
        bath = DiscreteBath.empty(1.0)
        snap = covariance_snapshot(vac, noiseless_response, bath, 0.1, 1.0,
                                   (0.0, 2.0))
        assert snap.det_sigma == pytest.approx(0.25, abs=1e-12)

    def test_resonant_vacuum_det_quarter(self, resonant_bath, resonant_response):
        vac = GaussianProbeInit.vacuum()
        snap = covariance_snapshot(vac, resonant_response, resonant_bath, 0.4,
                                   1.0, (0.0, 3.0))
        assert snap.det_sigma == pytest.approx(0.25, abs=1e-5)

    def test_thermal_bath_det_grows(self):
        bath = DiscreteBath.from_arrays([0.09], [1.0], [1.0], 1.0)
        resp = solve_response(bath, TimeGrid(0.0, 6.0, 2048))
        vac = GaussianProbeInit.vacuum()
        snap = covariance_snapshot(vac, resp, bath, 0.0, 1.0, (0.0, 5.0))
        assert snap.det_sigma > 0.25 + 1e-3

    def test_det_theta_independent(self, ohmic_bath, ohmic_response):
        init = GaussianProbeInit.squeezed(0.5, axis_angle=0.2)
        win = (0.0, 2.0)
        a = covariance_snapshot(init, ohmic_response, ohmic_bath, 0.3, 1.0, win)
        b = covariance_snapshot(init, ohmic_response, ohmic_bath, 1.0, 1.0, win)
        assert a.det_sigma == pytest.approx(b.det_sigma, rel=1e-8)

    def test_noiseless_equals_rotated_initial(self, noiseless_response):
        init = GaussianProbeInit.squeezed(0.7, axis_angle=0.4)
        bath = DiscreteBath.empty(1.0)
        tau, theta = 1.7, 0.25
        snap = covariance_snapshot(init, noiseless_response, bath, theta, 1.0,
                                   (0.0, tau))
        assert snap.var_x_theta == pytest.approx(init.variance(theta + tau),
                                                 abs=1e-12)
        assert snap.noise_term == 0.0


class TestMaxVarianceAngle:
    def test_identity_window(self, ohmic_response):
        assert rotated_max_variance_angle(0.8, ohmic_response, 1.0,
                                          (0.0, 0.0)) == pytest.approx(0.8)

    def test_free_rotation(self, noiseless_response):
        got = rotated_max_variance_angle(0.3, noiseless_response, 1.0,
                                         (0.0, np.pi / 2))
        assert got == pytest.approx((0.3 - np.pi / 2) % np.pi)

    def test_matches_argmax_scan(self, detuned_bath):
        resp = solve_response(detuned_bath, TimeGrid(0.0, 4.0, 2048))
        init = GaussianProbeInit.squeezed(0.6, axis_angle=0.9)
        win = (0.0, 1.8)
        predicted = rotated_max_variance_angle(0.9, resp, 2.0, win)
        thetas = np.linspace(0.0, np.pi, 720, endpoint=False)
        vals = [quadrature_variance(init, resp, detuned_bath, t, 2.0, win)
                for t in thetas]
        best = thetas[int(np.argmax(vals))]
        diff = abs(best - predicted) % np.pi
        assert min(diff, np.pi - diff) <= np.pi / 720 + 1e-12


class TestWindowExtension:
    def test_padding_never_helps(self, resonant03):
        # sensing before the force starts and after it stops adds noise
        bath, resp = resonant03
        z = fc.constant(1.0, (0.5, 1.5))
        vac = GaussianProbeInit.vacuum()
        tight = (0.5, 1.5)
        padded = (0.0, 2.5)
        for win_a, win_b in ((tight, padded),):
            d = displacement(resp, z, 1.0, win_b)
            theta_b = d.phase - 1.0 * (win_b[1] - win_b[0])
            d2 = displacement(resp, z, 1.0, win_a)
            theta_a = d2.phase - 1.0 * (win_a[1] - win_a[0])
            va = variance_p(vac, resp, bath, theta_a, 1.0, win_a)
            vb = variance_p(vac, resp, bath, theta_b, 1.0, win_b)
            assert vb >= va - 1e-12
