"""Sequential cadence: totals, optimum search, closed-form asymptotics."""

import tracemalloc

import numpy as np
import pytest

from conftest import forced_window, step_noise_variance
from nmqfi import force as fc
from nmqfi import probe, sequential
from nmqfi.bath import DiscreteBath, moments
from nmqfi.metrology import (best_state_variance, energy_for_script_e,
                             qfi_best_state, script_e)
from nmqfi.probe import displacement, noise_term
from nmqfi.response import TimeGrid, solve_response
from nmqfi.sequential import (SequentialScheme, default_tau_bounds,
                              interval_terms, markov_seq, optimize_tau, seq_qfi,
                              seq_qfi_asymptotic, tau_opt_asymptotic, xi_and_c)

ZETA = fc.constant(1.0)
# two detuned thermal modes: coupling_sq, frequency, occupation, omega0
DETUNED_THERMAL = ([0.5, 0.8], [1.0, 1.7], [0.4, 1.2], 1.3)
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _continuum_total(bath, resp, force, energy, omega0=1.0):
    """Engine objective (T/tau) seq_qfi(tau, tau) with T = 1, fractional nu."""
    def total(tau):
        return seq_qfi(SequentialScheme(tau, tau), energy, bath, resp, force,
                       omega0).total_qfi / tau
    return total


def _golden_max(f, a, b, rel_width=1e-12):
    """Golden-section maximum (argmax, max) of a unimodal f on [a, b]."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc_, fd = f(c), f(d)
    while b - a > rel_width * b:
        if fc_ >= fd:
            b, d, fd = d, c, fc_
            c = b - _GOLDEN * (b - a)
            fc_ = f(c)
        else:
            a, c, fc_ = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


@pytest.fixture(scope="module")
def unit_weight_bath():
    """Resonant mode with script_n = 1 (|K|^2 = 2, vacuum)."""
    return DiscreteBath([2.0], [1.0], [0.0], 1.0)


@pytest.fixture(scope="module")
def unit_weight_response(unit_weight_bath):
    return solve_response(unit_weight_bath, TimeGrid(0.4, 8192))


class TestScheme:
    def test_repetitions_floor(self):
        assert SequentialScheme(1.0, 0.3).repetitions == 3
        assert SequentialScheme(1.0, 0.25).repetitions == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            SequentialScheme(1.0, 0.0)
        with pytest.raises(ValueError):
            SequentialScheme(0.1, 0.2)

    def test_step_windows(self):
        s = SequentialScheme(1.0, 0.25)
        assert s.step_window(0) == (0.0, 0.25)
        assert s.step_window(3) == (0.75, 1.0)


class TestStepNoise:
    def test_matches_per_mode_route(self, unit_weight_bath, unit_weight_response):
        # independent double-quadrature route vs the mode-sum noise term
        for tau in (0.05, 0.11, 0.3):
            a = step_noise_variance(unit_weight_response, unit_weight_bath, tau)
            b = noise_term(unit_weight_response, (0.0, tau))
            assert a == pytest.approx(b, rel=1e-7)

    def test_empty_bath_zero(self):
        bath = DiscreteBath([], [], [], 1.0)
        resp = solve_response(bath, TimeGrid(1.0, 64))
        assert step_noise_variance(resp, bath, 0.5) == 0.0


class TestSeqQfi:
    def test_zero_force(self, unit_weight_bath, unit_weight_response):
        r = seq_qfi(SequentialScheme(0.3, 0.1), 5.0, unit_weight_bath,
                    unit_weight_response, fc.constant(0.0), 1.0)
        assert r.total_qfi == 0.0

    def test_rejects_a_bath_or_omega0_the_response_does_not_carry(
            self, unit_weight_bath, unit_weight_response):
        scheme = SequentialScheme(0.3, 0.1)
        twin = DiscreteBath([2.0], [1.0], [0.0], 1.0)   # equal, but not response.bath
        with pytest.raises(ValueError, match="response.bath"):
            seq_qfi(scheme, 5.0, twin, unit_weight_response, ZETA, 1.0)
        with pytest.raises(ValueError, match="probe_frequency"):
            seq_qfi(scheme, 5.0, unit_weight_bath, unit_weight_response, ZETA,
                    1.3)

    def test_single_step_equals_best_state(self, unit_weight_bath,
                                           unit_weight_response):
        tau = 0.11
        r = seq_qfi(SequentialScheme(tau, tau), 5.0, unit_weight_bath,
                    unit_weight_response, ZETA, 1.0)
        b = qfi_best_state(5.0, forced_window(unit_weight_response, ZETA,
                                              (0.0, tau)))
        assert r.total_qfi == pytest.approx(b.value, rel=1e-7)
        assert r.repetitions == 1

    def test_additivity_constant_force(self, unit_weight_bath,
                                       unit_weight_response):
        tau = 0.05
        r4 = seq_qfi(SequentialScheme(4 * tau, tau), 3.0, unit_weight_bath,
                     unit_weight_response, ZETA, 1.0)
        r1 = seq_qfi(SequentialScheme(tau, tau), 3.0, unit_weight_bath,
                     unit_weight_response, ZETA, 1.0)
        assert r4.total_qfi == pytest.approx(4.0 * r1.total_qfi, rel=1e-12)

    def test_nonuniform_force_steps_differ(self, unit_weight_bath,
                                           unit_weight_response):
        pulse = fc.gaussian_pulse(0.05, 0.03, (0.0, 0.2))
        scheme = SequentialScheme(0.2, 0.05)
        r = seq_qfi(scheme, 3.0, unit_weight_bath, unit_weight_response, pulse,
                    1.0)
        terms = interval_terms(scheme, unit_weight_response, pulse)
        steps = abs(terms.disp) ** 2 / best_state_variance(3.0, terms)
        assert steps[0] != pytest.approx(steps[-1])
        assert r.total_qfi == pytest.approx(steps.sum())

    @pytest.mark.parametrize("force, total, zero_steps", [
        (fc.constant(1.0, (0.0, 0.13)), 0.2, [3]),     # support ends in step 2
        (fc.gaussian_pulse(0.05, 0.02, (0.0, 0.1)), 0.3, [2, 3, 4, 5]),
    ])
    def test_steps_match_single_windows(self, unit_weight_bath,
                                        unit_weight_response, force, total,
                                        zero_steps):
        tau, energy = 0.05, 3.0
        scheme = SequentialScheme(total, tau)
        r = seq_qfi(scheme, energy, unit_weight_bath, unit_weight_response,
                    force, 1.0)
        denom = (0.25 * abs(unit_weight_response.g(tau)) ** 2 / script_e(energy)
                 + noise_term(unit_weight_response, (0.0, tau)))
        terms = interval_terms(scheme, unit_weight_response, force)
        assert best_state_variance(energy, terms) == pytest.approx(denom,
                                                                   rel=1e-12)
        steps = abs(terms.disp) ** 2 / best_state_variance(energy, terms)
        assert r.repetitions == len(steps)
        assert r.total_qfi == steps.sum()
        for k, step in enumerate(steps):
            d = displacement(unit_weight_response, force,
                             scheme.step_window(k))
            assert step == pytest.approx(abs(d) ** 2 / denom, rel=1e-12)
            assert (step == 0.0) == (k in zero_steps)

    def test_one_displacement_and_one_quadrature_call(
            self, unit_weight_bath, unit_weight_response, monkeypatch):
        calls = {"displacement": 0, "adaptive_simpson": 0}

        def counted(name):
            fn = getattr(sequential, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(sequential, name, counted(name))
        pulse = fc.gaussian_pulse(0.05, 0.02, (0.0, 0.1))
        seq_qfi(SequentialScheme(0.3, 0.05), 3.0, unit_weight_bath,
                unit_weight_response, pulse, 1.0)
        xi_and_c(pulse, 1.0, 0.3)
        assert calls == {"displacement": 1, "adaptive_simpson": 1}

    def test_chunked_windows_match_one_unchunked_call(
            self, unit_weight_response, monkeypatch):
        # 600 windows, 500 inside the support: a full chunk and a partial one
        scheme = SequentialScheme(600 * 0.004, 0.004)
        steps = scheme.step_window(np.arange(scheme.repetitions))
        force = fc.sinusoid(1.0, 3.0, 0.0, (0.0, 2.0))
        chunked = displacement(unit_weight_response, force, steps)
        monkeypatch.setattr(probe, "_WINDOW_CHUNK", 10 ** 6, raising=False)
        whole = displacement(unit_weight_response, force, steps)
        assert chunked.shape == (600,)
        assert np.array_equal(chunked, whole)
        assert np.all(chunked[500:] == 0.0)      # windows past the support

    @pytest.mark.parametrize("force", [
        fc.sinusoid(1.0, 3.0, 0.0, (0.0, 2.0)),
        fc.gaussian_pulse(1.0, 0.3, (0.0, 2.0)),
        fc.constant(1.0),
    ], ids=["sinusoid", "gaussian_pulse", "constant"])
    def test_batched_value_does_not_depend_on_its_batch(
            self, unit_weight_response, force):
        # each window's Simpson sums run over its own nodes only, so sub-
        # batches of 37 windows reproduce one 600-window call bit for bit
        scheme = SequentialScheme(600 * 0.004, 0.004)
        t0, t1 = scheme.step_window(np.arange(scheme.repetitions))
        whole = displacement(unit_weight_response, force, (t0, t1))
        parts = np.concatenate([
            displacement(unit_weight_response, force,
                         (t0[i:i + 37], t1[i:i + 37]))
            for i in range(0, t0.size, 37)])
        assert np.array_equal(parts, whole)

    def test_long_cadence_memory_is_bounded(self, unit_weight_bath,
                                            unit_weight_response):
        # 10^4 steps in one displacement call; unchunked, the quadrature's
        # node arrays alone peak near 26 MB
        tau, nu = 0.004, 10 ** 4
        force = fc.sinusoid(1.0, 3.0, 0.0, (0.0, nu * tau))
        tracemalloc.start()
        try:
            r = seq_qfi(SequentialScheme(nu * tau, tau), 3.0, unit_weight_bath,
                        unit_weight_response, force, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.repetitions == nu
        assert peak < 5e6

    def test_noiseless_linear_growth(self):
        # closed-form oracle: nu * 4 scriptE |D0(tau)|^2
        bath = DiscreteBath([], [], [], 1.0)
        resp = solve_response(bath, TimeGrid(0.5, 512))
        tau, total = 0.02, 0.4
        r = seq_qfi(SequentialScheme(total, tau), 5.0, bath, resp, ZETA, 1.0)
        nu = int(total / tau)
        d0_sq = abs(-1j * (np.exp(1j * tau) - 1.0)) ** 2
        want = nu * 4.0 * script_e(5.0) * d0_sq
        assert r.total_qfi == pytest.approx(want, rel=1e-9)


class TestOptimize:
    def test_unimodal_around_optimum(self, unit_weight_bath,
                                     unit_weight_response):
        energy = energy_for_script_e(300.0)
        res = optimize_tau(1.0, energy, unit_weight_response,
                           ZETA, (0.005, 0.3))
        assert not res.hit_bound
        t = res.tau_used

        def total(tau):
            return seq_qfi(SequentialScheme(1.0, tau), energy,
                           unit_weight_bath, unit_weight_response, ZETA,
                           1.0).total_qfi

        assert total(t) >= total(0.5 * t)
        assert total(t) >= total(2.0 * t)

    def test_matches_dense_scan_oracle(self, unit_weight_bath,
                                       unit_weight_response):
        # the repetition count floor(T/tau) makes the total a fine sawtooth,
        # so the oracle compares achieved values and coarse location
        energy = energy_for_script_e(300.0)
        res = optimize_tau(1.0, energy, unit_weight_response,
                           ZETA, (0.005, 0.3))
        taus = np.geomspace(0.005, 0.3, 1500)
        vals = [seq_qfi(SequentialScheme(1.0, float(t)), energy,
                        unit_weight_bath, unit_weight_response, ZETA,
                        1.0).total_qfi for t in taus]
        best_tau = taus[int(np.argmax(vals))]
        assert res.total_qfi >= 0.995 * max(vals)
        assert res.tau_used == pytest.approx(best_tau, rel=0.15)

    @pytest.mark.parametrize("se", [1e2, 1e3, 1e4])
    def test_returns_best_lattice_tooth(self, unit_weight_bath,
                                        unit_weight_response, se):
        # criterion 6/7 fixture: every interval T/nu inside the bracket
        energy = energy_for_script_e(se)
        guess = 0.5 * se ** -0.5
        lo, hi = guess / 8.0, min(12.0 * guess, 0.3)
        res = optimize_tau(1.0, energy, unit_weight_response,
                           ZETA, (lo, hi))
        nus = np.arange(int(np.ceil(1.0 / hi)), int(1.0 / lo) + 1)
        vals = [seq_qfi(SequentialScheme(1.0, 1.0 / nu), energy,
                        unit_weight_bath, unit_weight_response, ZETA,
                        1.0).total_qfi for nu in nus]
        best = int(np.argmax(vals))
        assert res.tau_used == 1.0 / nus[best]
        assert res.total_qfi == vals[best]

    def test_bracket_end_beats_lattice(self, unit_weight_response):
        # a pulse well inside the window adds no information when a step
        # is gained, so the total falls smoothly with tau and the lower
        # end of the bracket, not the tooth T/nu above it, is the maximum
        pulse = fc.gaussian_pulse(0.5, 0.1, (0.0, 1.0))
        energy = energy_for_script_e(1e3)
        res = optimize_tau(1.0, energy, unit_weight_response,
                           pulse, (0.06, 0.3))
        assert res.tau_used == 0.06
        assert res.hit_bound

    def test_narrow_bracket_without_lattice_point(self, unit_weight_response):
        # floor(T/tau) = 3 across the bracket: the total rises with tau
        res = optimize_tau(1.0, 5.0, unit_weight_response,
                           ZETA, (0.26, 0.32))
        assert res.tau_used == 0.32
        assert res.hit_bound

    def test_noiseless_hits_upper_bound(self):
        bath = DiscreteBath([], [], [], 1.0)
        resp = solve_response(bath, TimeGrid(0.5, 512))
        res = optimize_tau(0.4, 5.0, resp, ZETA, (0.001, 0.4))
        assert res.hit_bound

    @pytest.mark.parametrize("force", [
        ZETA, fc.gaussian_pulse(0.5, 0.1, (0.0, 1.0))],
        ids=["constant", "gaussian_pulse"])
    def test_energy_list_matches_scalar_calls(self, unit_weight_response,
                                              force):
        energies = [energy_for_script_e(se) for se in (30.0, 300.0, 3e3, 3e4)]
        args = (unit_weight_response, force, (0.005, 0.3))
        shared = optimize_tau(1.0, energies, *args)
        assert len(shared) == len(energies)
        for energy, got in zip(energies, shared):
            want = optimize_tau(1.0, energy, *args)
            assert got.tau_used == want.tau_used
            assert got.total_qfi == pytest.approx(want.total_qfi, rel=1e-12)
            assert got.hit_bound == want.hit_bound

    def test_energies_share_one_displacement_per_interval(
            self, unit_weight_response, monkeypatch):
        taus, disp_calls = [], []

        def counted(module, name, log):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                log.append(args)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(probe, "noise_term",
                            counted(probe, "noise_term", taus))
        monkeypatch.setattr(sequential, "displacement",
                            counted(sequential, "displacement", disp_calls))
        energies = [energy_for_script_e(se)
                    for se in (1e2, 3e2, 1e3, 3e3, 1e4, 3e4)]
        args = (unit_weight_response, ZETA, (0.002, 0.3))
        optimize_tau(1.0, energies, *args)
        intervals = {call[1][1] for call in taus}      # noise window (0, tau)
        assert len(disp_calls) == len(taus) == len(intervals)
        # one search per energy visits more intervals than they share
        per_energy = 0
        for energy in energies:
            taus.clear()
            optimize_tau(1.0, energy, *args)
            per_energy += len(taus)
        assert per_energy > len(intervals)

    def test_default_bounds(self, unit_weight_bath, unit_weight_response):
        m = moments(unit_weight_bath)
        lo, hi = default_tau_bounds(unit_weight_response, 10.0, m)
        assert lo == pytest.approx(8.0 * unit_weight_response.grid.h)
        assert hi == pytest.approx(unit_weight_response.t_end)


class TestAsymptotics:
    def test_tau_leading_term(self, unit_weight_bath):
        m = moments(unit_weight_bath)
        val = tau_opt_asymptotic(energy_for_script_e(100.0), m, 0.0, 0.0)
        assert val == pytest.approx(1.0 / 2.0 * 0.1)

    def test_tau_vanishes_at_large_energy(self, unit_weight_bath):
        m = moments(unit_weight_bath)
        vals = [tau_opt_asymptotic(energy_for_script_e(se), m, 1.0, 0.25)
                for se in (1e2, 1e4, 1e6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3

    def test_tau_two_term_arithmetic(self, unit_weight_bath):
        # plug-in oracle: lead + (8 K^2 xi + 3 chi_2^2 xi - 16 C)
        # / (192 N^{3/2} xi) E^{-3/2} with K^2 = 2, N = 1, chi_2 = 0
        m = moments(unit_weight_bath)
        got = tau_opt_asymptotic(energy_for_script_e(100.0), m, 1.0, 0.25)
        want = 0.05 + 6.25e-5
        assert got == pytest.approx(want, rel=1e-12)

    def test_total_leading_term(self, unit_weight_bath):
        m = moments(unit_weight_bath)
        got = seq_qfi_asymptotic(energy_for_script_e(100.0), m, 2.0, 0.5)
        lead = 2.0 * 10.0
        assert got == pytest.approx(lead, rel=5e-3)

    def test_total_scales_as_root_energy(self, unit_weight_bath):
        m = moments(unit_weight_bath)
        a = seq_qfi_asymptotic(energy_for_script_e(100.0), m, 1.0, 0.0)
        b = seq_qfi_asymptotic(energy_for_script_e(400.0), m, 1.0, 0.0)
        assert b / a == pytest.approx(2.0, rel=2e-3)

    def test_total_two_term_arithmetic(self, unit_weight_bath):
        m = moments(unit_weight_bath)
        # xi / sqrt(N) E^{1/2} + (8 K^2 xi + chi_2^2 xi - 8 C) / (96 N^{3/2}) E^{-1/2}
        got = seq_qfi_asymptotic(energy_for_script_e(100.0), m, 1.0, 0.25)
        want = 10.0 + 7.0 / 480.0
        assert got == pytest.approx(want, rel=1e-12)

    def test_omega0_squared_prefactor(self, unit_weight_bath):
        m = moments(unit_weight_bath)
        doubled = seq_qfi_asymptotic(5.0, m, 1.0, 0.25, omega0=2.0)
        unit = seq_qfi_asymptotic(5.0, m, 1.0, 0.25, omega0=1.0)
        assert doubled == pytest.approx(4.0 * unit)

    def test_noiseless_rejected(self):
        m = moments(DiscreteBath([], [], [], 1.0))
        with pytest.raises(ValueError):
            tau_opt_asymptotic(5.0, m, 1.0, 0.25)
        with pytest.raises(ValueError):
            seq_qfi_asymptotic(5.0, m, 1.0, 0.25)


class TestClosedFormOracle:
    """The closed forms against a tight maximum of the engine's objective."""

    @pytest.mark.parametrize("arrays", [([2.0], [1.0], [0.0], 1.0),
                                        DETUNED_THERMAL],
                             ids=["unit_weight", "detuned_thermal"])
    def test_second_order_matches_engine_maximum(self, arrays):
        bath = DiscreteBath(*arrays)
        omega0 = arrays[3]
        resp = solve_response(bath, TimeGrid(0.4, 8192))
        m = moments(bath)
        ints = xi_and_c(ZETA, omega0, 1.0)
        se = 300.0
        energy = energy_for_script_e(se)
        tau_lead = 0.5 / np.sqrt(m.script_n * se)
        f_lead = omega0 ** 2 * ints.xi * np.sqrt(se / m.script_n)
        tau_num, f_num = _golden_max(
            _continuum_total(bath, resp, ZETA, energy, omega0),
            0.5 * tau_lead, 2.0 * tau_lead)
        tau_cf = tau_opt_asymptotic(energy, m, ints.xi, ints.c_coeff)
        f_cf = seq_qfi_asymptotic(energy, m, ints.xi, ints.c_coeff, omega0)
        # residual coefficients of E^{-3/2} (interval) and E^{-1/2} (total)
        assert (tau_num - tau_lead) == pytest.approx(tau_cf - tau_lead, rel=1e-2)
        assert (f_num - f_lead) == pytest.approx(f_cf - f_lead, rel=1e-2)

    def test_paper_coefficients_are_truncation_optimum(self, unit_weight_bath,
                                                       unit_weight_response):
        # the paper's printed two-term forms, kept as literals
        m = moments(unit_weight_bath)
        n_w, ksq = m.script_n, m.k_squared
        ints = xi_and_c(ZETA, 1.0, 1.0)
        xi, c = ints.xi, ints.c_coeff

        def paper_tau(se):
            return (1.0 / (2.0 * np.sqrt(3.0 * n_w)) * se ** -0.5
                    + (c + xi * ksq) / (16.0 * np.sqrt(3.0) * n_w ** 1.5 * xi)
                    * se ** -1.5)

        def paper_total(se):
            return (np.sqrt(3.0) * xi / (2.0 * np.sqrt(n_w)) * se ** 0.5
                    + np.sqrt(3.0) / (32.0 * n_w ** 1.5)
                    * (2.0 * ksq * xi + 7.0 / 3.0 * c) * se ** -0.5)

        # its leading interval maximizes the first-order truncation
        # (tau/a)(1 - N tau^2/a), a = 1/(4E), not tau/(a + N tau^2)
        se = 1e4
        a = 0.25 / se
        trunc_arg, _ = _golden_max(lambda t: t / a * (1.0 - n_w * t * t / a),
                                   1e-6, np.sqrt(a / n_w))
        assert trunc_arg == pytest.approx(
            1.0 / (2.0 * np.sqrt(3.0 * n_w)) * se ** -0.5, rel=1e-6)
        # the engine's objective at that interval reproduces its printed total
        gaps = []
        for s in (1e2, 1e3, 1e4):
            total = _continuum_total(unit_weight_bath, unit_weight_response,
                                     ZETA, energy_for_script_e(s))
            gaps.append(abs(total(paper_tau(s)) / paper_total(s) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4
        # and the true maximum lies a factor 2/sqrt(3) above it
        _, f_max = _golden_max(total, 0.5 * paper_tau(1e4), 4.0 * paper_tau(1e4))
        assert f_max / total(paper_tau(1e4)) == pytest.approx(
            2.0 / np.sqrt(3.0), abs=1e-3)

    def test_ramp_optimum_has_no_boundary_term(self, unit_weight_bath,
                                               unit_weight_response):
        # zeta = t on [0, 1]: with C from xi_and_c the predicted E^{-3/2}
        # interval coefficient is 0; the -(1/3)[zeta zeta'] edge term would
        # add 1/12. The engine's optimum is read off a polynomial fit of the
        # lattice totals around the leading-order interval.
        ramp = fc.TabulatedForce.from_samples([0.0, 1.0], [0.0, 1.0])
        m = moments(unit_weight_bath)
        ints = xi_and_c(ramp, 1.0, 1.0)
        se = 1e3
        energy = energy_for_script_e(se)
        tau_lead = 0.5 / np.sqrt(m.script_n * se)
        nus = np.arange(round(1.0 / tau_lead) - 6, round(1.0 / tau_lead) + 7)
        totals = [seq_qfi(SequentialScheme(1.0, 1.0 / nu), energy,
                          unit_weight_bath, unit_weight_response, ramp,
                          1.0).total_qfi for nu in nus]
        fit = np.polynomial.Polynomial.fit(1.0 / (nus * tau_lead) - 1.0,
                                           totals, 6)
        roots = fit.deriv().roots()
        peak = min(roots[np.isreal(roots)].real, key=abs)
        measured = peak * tau_lead * se ** 1.5
        predicted = ((tau_opt_asymptotic(energy, m, ints.xi, ints.c_coeff)
                      - tau_lead) * se ** 1.5)
        assert abs(measured - predicted) < 0.1 / 12.0


class TestForceIntegrals:
    def test_constant(self):
        r = xi_and_c(fc.constant(1.0, (0.0, 100.0)), 1.0, 2.0)
        assert r.xi == pytest.approx(2.0)
        assert r.c_coeff == pytest.approx(0.5)

    def test_zero_force(self):
        r = xi_and_c(fc.constant(0.0), 1.0, 2.0)
        assert r.xi == 0.0 and r.c_coeff == 0.0

    def test_sine_closed_form(self):
        r = xi_and_c(fc.sinusoid(1.0, 1.0, 0.0, (0.0, 2 * np.pi)), 1.0,
                     2.0 * np.pi)
        assert r.xi == pytest.approx(np.pi, rel=1e-9)
        assert r.c_coeff == pytest.approx(np.pi / 2.0, rel=1e-9)

    def test_boundary_term(self):
        # zeta = t on [0, 1]: xi = 1/3, C = (1/4)(1 + 1/3) with no
        # -(1/3)[zeta zeta'] edge term; TestClosedFormOracle's ramp check
        # shows the cadence optimum carries none
        ramp = fc.TabulatedForce.from_samples([0.0, 1.0], [0.0, 1.0])
        r = xi_and_c(ramp, 1.0, 1.0)
        assert r.xi == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert r.c_coeff == pytest.approx(0.25 * (1.0 + 1.0 / 3.0), rel=1e-9)


class TestMarkovSeq:
    def test_example_values(self):
        r = markov_seq(energy_for_script_e(100.0), 0.1, 0.0, 1.0)
        assert r.total_qfi_bound == pytest.approx(1.0 / 0.15)
        assert r.tau_opt == pytest.approx(0.25)

    def test_bound_energy_independent(self):
        a = markov_seq(energy_for_script_e(100.0), 0.1, 0.0, 2.5)
        b = markov_seq(energy_for_script_e(1e4), 0.1, 0.0, 2.5)
        assert a.total_qfi_bound == b.total_qfi_bound

    def test_noiseless_flag(self):
        r = markov_seq(5.0, 0.0, 0.0, 1.0)
        assert np.isnan(r.tau_opt)
        assert np.isinf(r.total_qfi_bound)
