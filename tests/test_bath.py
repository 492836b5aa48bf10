"""Bath construction, discretization, kernels, and moment frequencies."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nmqfi.bath import (ContinuousSpectrum, DiscreteBath, OccupationModel,
                        bare_correlation, discretize, memory_kernel, moments)
from nmqfi.response import TimeGrid, solve_response


class TestDiscretize:
    def test_flat_band_equal_bins(self):
        spec = ContinuousSpectrum("flat", scale=0.7, cutoff=2.0)
        bath = discretize(spec, 4, 1.0)
        assert_allclose(bath.coupling_sq, np.full(4, 0.7 * 2.0 / 4))
        assert_allclose(bath.frequencies, [0.25, 0.75, 1.25, 1.75])

    def test_single_bin_carries_full_integral(self):
        spec = ContinuousSpectrum("flat", scale=0.3, cutoff=4.0)
        bath = discretize(spec, 1, 1.0)
        assert bath.n_modes == 1
        assert bath.frequencies[0] == pytest.approx(2.0)
        assert bath.k_squared == pytest.approx(0.3 * 4.0)

    def test_ohmic_integral_converges(self):
        # closed-form oracle: integral of omega over [0, 2] is 2
        spec = ContinuousSpectrum("ohmic", scale=1.0, cutoff=2.0, exponent=1.0)
        bath = discretize(spec, 64, 1.0)
        assert abs(bath.k_squared - 2.0) <= 1e-3

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_doubling_halves_error(self, s):
        # oracle: integral of omega^s over [0, wc] = wc^(s+1)/(s+1)
        wc = 2.0
        exact = wc ** (s + 1) / (s + 1)
        spec = ContinuousSpectrum("ohmic", scale=1.0, cutoff=wc, exponent=s)
        errs = [abs(discretize(spec, n, 1.0).k_squared - exact)
                for n in (16, 32, 64)]
        assert errs[0] / errs[1] >= 2.0
        assert errs[1] / errs[2] >= 2.0

    def test_zero_scale_gives_noiseless_modes(self):
        spec = ContinuousSpectrum("flat", scale=0.0, cutoff=1.0)
        bath = discretize(spec, 8, 1.0)
        assert bath.k_squared == 0.0

    def test_exponential_cutoff_support(self):
        spec = ContinuousSpectrum("ohmic", scale=1.0, cutoff=1.0,
                                  cutoff_shape="exponential")
        bath = discretize(spec, 128, 1.0)
        assert bath.frequencies.max() < 8.0
        # oracle: integral of w e^-w over [0, 8] = 1 - 9 e^-8
        exact = 1.0 - 9.0 * np.exp(-8.0)
        assert abs(bath.k_squared - exact) <= 2e-4

    def test_thermal_occupations(self):
        spec = ContinuousSpectrum("flat", scale=1.0, cutoff=2.0,
                                  occupation=OccupationModel("thermal", 1.0))
        bath = discretize(spec, 4, 1.0)
        assert_allclose(bath.occupations, 1.0 / np.expm1(bath.frequencies))

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            ContinuousSpectrum("ohmic", scale=1.0, cutoff=1.0, exponent=0.0)


class TestKernel:
    def test_resonant_mode_constant(self, resonant_bath):
        for tau in (0.0, 1.3, 17.0):
            assert memory_kernel(resonant_bath, tau) == pytest.approx(0.25)

    def test_empty_bath_zero(self):
        bath = DiscreteBath([], [], [], 1.0)
        assert memory_kernel(bath, 2.0) == 0.0
        assert bare_correlation(bath, 2.0) == 0.0

    def test_symmetric_pair_cosine(self):
        # direct-summation oracle: 2 cos(tau) at |K|^2 = 1, detunings +-1
        bath = DiscreteBath([1.0, 1.0], [1.0, 3.0], [0.0, 0.0], 2.0)
        val = memory_kernel(bath, np.pi / 2)
        assert abs(val - 2.0 * np.cos(np.pi / 2)) < 1e-14

    def test_bare_correlation_resonant_vacuum(self):
        bath = DiscreteBath([1.0], [1.0], [0.0], 1.0)
        assert bare_correlation(bath, 5.0) == pytest.approx(0.5)

    def test_bare_correlation_matches_direct_sum(self, two_mode_bath):
        tau = 1.0
        b = two_mode_bath
        direct = sum(c * (n + 0.5) * np.exp(1j * (b.probe_frequency - w) * tau)
                     for c, w, n in zip(b.coupling_sq, b.frequencies, b.occupations))
        assert bare_correlation(two_mode_bath, tau) == pytest.approx(direct)

    @settings(max_examples=60, deadline=None)
    @given(tau=st.floats(-30.0, 30.0, allow_nan=False))
    def test_hermitian_symmetry(self, tau):
        bath = DiscreteBath([0.3, 0.1, 0.25], [0.4, 1.1, 2.3],
                            [0.0, 1.0, 0.2], 1.0)
        assert memory_kernel(bath, -tau) == pytest.approx(
            np.conj(memory_kernel(bath, tau)))
        assert bare_correlation(bath, -tau) == pytest.approx(
            np.conj(bare_correlation(bath, tau)))

    @settings(max_examples=60, deadline=None)
    @given(tau=st.floats(-50.0, 50.0, allow_nan=False))
    def test_correlation_peak_at_zero(self, tau):
        bath = DiscreteBath([0.3, 0.1], [0.4, 1.7], [0.5, 0.0], 1.0)
        assert abs(bare_correlation(bath, tau)) <= bath.script_n + 1e-12

    def test_kernel_zero_equals_k_squared(self, two_mode_bath):
        m = moments(two_mode_bath)
        assert memory_kernel(two_mode_bath, 0.0).real == pytest.approx(
            m.k_squared, rel=1e-12)


class TestPropagate:
    @pytest.mark.parametrize("tau", [1e-12, 3e-9, 1e-8, 0.7])
    def test_bath_amplitudes_keep_relative_digits_at_short_times(self, tau):
        # spectral half-width a = 0.15 + 0.17: below a tau of 1e-8 / a the
        # amplitudes, about -i K tau, still match a 32-digit expm
        bath = DiscreteBath([0.01, 0.02], [1.2, 0.9], [0.0, 1.0], 1.0)
        with mp.workdps(32):
            h = mp.matrix([[1.0, 0.1, mp.sqrt(0.02)], [0.1, 1.2, 0.0],
                           [mp.sqrt(0.02), 0.0, 0.9]])
            u = mp.expm(-1j * mp.mpf(tau) * h)
            exact = np.array([complex(u[0, n]) for n in (1, 2)])
        got = bath.propagate([1.0, 0.0, 0.0], tau)[1:]
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()

    def test_zero_coupling_and_empty_bath_only_turn_phases(self):
        for bath in (DiscreteBath([], [], [], 2.0),
                     DiscreteBath([0.0, 0.0], [0.5, 2.0], [0.0, 1.0], 2.0)):
            w = np.arange(1.0, bath.n_modes + 2)
            h = np.append(bath.probe_frequency, bath.frequencies)
            assert_allclose(bath.propagate(w, [0.0, 3.0]),
                            w * np.exp(-1j * np.outer([0.0, 3.0], h)),
                            rtol=0, atol=1e-14)


class TestMoments:
    def test_resonant_mode(self, resonant_bath):
        m = moments(resonant_bath)
        assert m.omega(2) == pytest.approx(0.5)
        for p in range(3, 7):
            assert m.omega(p) == 0.0
        assert m.chi_q
        for q in range(1, 7):
            assert m.chi(q) == 0.0
        with pytest.raises(IndexError):
            m.omega(1)
        with pytest.raises(IndexError):
            m.omega(7)
        with pytest.raises(IndexError):
            m.chi(0)

    def test_empty_bath(self):
        m = moments(DiscreteBath([], [], [], 1.0))
        assert m.k_squared == 0.0
        assert m.script_n == 0.0
        assert all(v == 0.0 for v in m.omega_p)
        assert not m.chi_q

    def test_symmetric_pair_values(self):
        # direct-summation oracle for |K|^2 = 1 at detunings +-1, vacuum
        bath = DiscreteBath([1.0, 1.0], [1.0, 3.0], [0.0, 0.0], 2.0)
        m = moments(bath)
        assert m.k_squared == pytest.approx(2.0)
        assert m.script_n == pytest.approx(1.0)
        assert m.omega(2) == pytest.approx(np.sqrt(2.0))
        assert m.omega(3) == pytest.approx(0.0)
        assert m.omega(4) == pytest.approx(2.0 ** 0.25)
        assert m.chi(1) == pytest.approx(0.0)
        assert m.chi(2) == pytest.approx(1.0)

    def test_omega2_is_root_k_squared(self, ohmic_bath):
        m = moments(ohmic_bath)
        assert m.omega(2) == pytest.approx(np.sqrt(m.k_squared), rel=1e-12)

    def test_weightless_sets_flag(self):
        bath = DiscreteBath([0.0, 0.0], [1.0, 2.0], [0.3, 0.0], 1.0)
        m = moments(bath)
        assert not m.chi_q
        with pytest.raises(ValueError):
            m.chi(2)


class TestValidation:
    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            DiscreteBath([-1.0], [1.0], [0.0], 1.0)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            DiscreteBath([1.0], [1.0], [-0.5], 1.0)

    def test_bad_probe_frequency(self):
        with pytest.raises(ValueError):
            DiscreteBath([], [], [], 0.0)

    # negative couplings and occupations and probe_frequency 0 are the tests above
    @pytest.mark.parametrize("arrays", [
        ([1.0], [-1.0], [0.0], 1.0),
        ([1.0, 0.5], [1.0], [0.0, 0.0], 1.0),
        ([[1.0]], [[1.0]], [[0.0]], 1.0),
    ], ids=["frequency", "lengths", "two_d"])
    def test_constructor_rejects(self, arrays):
        with pytest.raises(ValueError):
            DiscreteBath(*arrays)

    @pytest.mark.parametrize("name", ["coupling_sq", "frequencies", "occupations",
                                      "detunings", "g_samples", "g_dot_samples"])
    def test_arrays_are_read_only(self, name):
        resp = solve_response(DiscreteBath([0.25], [1.0], [0.0], 1.0),
                              TimeGrid(1.0, 8))
        array = getattr(resp if name.startswith("g_") else resp.bath, name)
        with pytest.raises(ValueError):
            array[0] = 5.0

    def test_inputs_are_copied(self):
        coupling = np.array([0.3])
        bath = DiscreteBath(coupling, [1.0], [0.0], 1.0)
        coupling[0] = 5.0
        assert bath.k_squared == 0.3
