"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here. Criterion 6 compares the numerical
cadence optimum with the two-term closed form, which is the expansion of
the implemented total about its maximizer 1/(2 sqrt(N E)); the paper's
printed 1/(2 sqrt(3 N)) maximizes a first-order truncation instead (see
the sequential module docstrings and the closed-form oracles in
test_sequential.py).
"""

import mpmath as mp
import numpy as np
import pytest

from conftest import (dense_propagate, exact_single_mode_g,
                      exact_single_mode_g_dot, forced_window, markov_qfi,
                      mean_energy, short_time_qfi)
from march import blocked_response
from nmqfi import force as fc
from nmqfi.bath import (ContinuousSpectrum, DiscreteBath, OccupationModel,
                        discretize, moments)
from nmqfi.correlation import bath_correlation
from nmqfi.metrology import (energy_for_script_e, fisher_quadrature,
                             optimal_angle, qfi_aligned, qfi_best_state,
                             qfi_general, simulate_estimation)
from nmqfi.probe import (GaussianProbeInit, covariance_snapshot, noise_term,
                         phase, quadrature_variance, window_terms)
from nmqfi.response import TimeGrid, default_grid, markov_closed_form, solve_response
from nmqfi.sequential import (interval_terms, markov_seq, optimize_tau,
                              seq_result, tau_opt_asymptotic, xi_and_c)

ZETA = fc.ConstantForce(1.0)
VACUUM = GaussianProbeInit(0.0)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_narrowband_limit(resonant_bath, resonant_response):
    tau = resonant_response.grid.times()
    err = float(np.abs(resonant_response.g_samples - np.cos(0.5 * tau)).max())
    _report(1, "narrow-band cosine", err <= 1e-6, f"max error {err:.3e} <= 1e-6")


def test_criterion_02_markov_limit():
    gamma, width = 0.02, 1.0
    spec = ContinuousSpectrum("flat", scale=gamma / (2.0 * np.pi),
                              cutoff=2.0 * width)
    bath = discretize(spec, 512, probe_frequency=width)
    resp = solve_response(bath, TimeGrid(2.0 / gamma, 8192))
    tau = resp.grid.times()
    mask = tau >= 5.0 / width
    dev = float(np.abs(np.abs(resp.g_samples[mask])
                       - markov_closed_form(gamma, tau[mask])).max())
    _report(2, "broadband exponential envelope", dev <= 0.03,
            f"max |G| deviation {dev:.4f} <= 0.03 on [5/W, 2/gamma]")


def test_criterion_03_solver_order(detuned_bath, two_mode_bath):
    # the Volterra march of tests/march.py, the independent route to G
    spec = ContinuousSpectrum("ohmic", scale=0.05, cutoff=2.0,
                              cutoff_shape="exponential")
    ohmic16 = discretize(spec, 16, 1.0)
    ratios = []
    for bath, exact in ((detuned_bath, True), (two_mode_bath, False),
                        (ohmic16, False)):
        errs = []
        if exact:
            for n in (256, 512):
                resp = blocked_response(bath, TimeGrid(10.0, n))
                t = resp.grid.times()
                errs.append(np.abs(resp.g_samples
                                   - exact_single_mode_g(0.25, 1.0, t)).max())
        else:
            ref = blocked_response(bath, TimeGrid(10.0, 4096))
            for n in (256, 512):
                resp = blocked_response(bath, TimeGrid(10.0, n))
                t = resp.grid.times()
                errs.append(np.abs(resp.g_samples - ref.g(t)).max())
        ratios.append(errs[0] / errs[1])
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    _report(3, "second-order convergence", ok,
            "halving ratios " + ", ".join(f"{r:.2f}" for r in ratios)
            + " in [3.5, 4.5]")


def test_criterion_04_short_time_qfi_slope():
    bath = DiscreteBath([1.0], [2.0], [0.0], 1.0)   # Omega_2 = 1
    resp = solve_response(bath, TimeGrid(0.12, 4096))
    taus = np.geomspace(1e-3, 1e-1, 9)
    resid = []
    for tau in taus:
        exact = qfi_aligned(
            VACUUM, forced_window(resp, ZETA, (0.0, tau))).value
        approx = short_time_qfi(VACUUM, ZETA, 1.0, 0.0, tau, 0.0)
        resid.append(abs(exact - approx))
    slope = float(np.polyfit(np.log(taus), np.log(resid), 1)[0])
    _report(4, "bath enters the QFI at fourth order", 3.6 <= slope <= 4.4,
            f"residual log-log slope {slope:.3f} in [3.6, 4.4]")


def test_criterion_05_markov_third_order_contrast():
    ramp = fc.TabulatedForce([0.0, 10.0], [1.0, 6.0])
    omega0, gamma = 1.0, 0.3
    z0, zdot0, var0 = 1.0, 0.5, 0.5
    results = []
    for n_t in (0.0, 1.0):
        def cubic_coefficient(tau: float) -> float:
            val = markov_qfi(VACUUM, gamma, n_t, ramp, omega0, (0.0, tau))
            return (val * var0 / omega0 ** 2 - z0 ** 2 * tau ** 2) / tau ** 3

        coarse, fine = cubic_coefficient(1e-2), cubic_coefficient(5e-3)
        extracted = 2.0 * fine - coarse
        want = z0 * zdot0 + z0 ** 2 * (0.5 * gamma
                                       - gamma * (n_t + 0.5) / var0)
        results.append((extracted, want))
    ok = all(abs(got - want) <= 0.05 * abs(want) for got, want in results)
    detail = "; ".join(f"n_T={n}: got {g:.4f} want {w:.4f}"
                       for (g, w), n in zip(results, (0.0, 1.0)))
    _report(5, "Markov noise enters at third order", ok, detail)


@pytest.fixture(scope="module")
def cadence_sweep():
    """optimize_tau over script-E in {1e2, 1e3, 1e4} on a unit-weight bath."""
    bath = DiscreteBath([2.0], [1.0], [0.0], 1.0)
    resp = solve_response(bath, TimeGrid(0.4, 8192))
    m = moments(bath)
    ints = xi_and_c(ZETA, 1.0, 1.0)
    rows = []
    for se in (1e2, 1e3, 1e4):
        energy = energy_for_script_e(se)
        guess = 0.5 * se ** -0.5
        res = optimize_tau(1.0, energy, resp, ZETA,
                           (guess / 8.0, min(12.0 * guess, 0.3)))
        assert not res.hit_bound
        asym = tau_opt_asymptotic(energy, m, ints.xi, ints.c_coeff)
        rows.append((se, res.tau_used, res.total_qfi, asym))
    return rows, ints


def test_criterion_06_tau_opt_law(cadence_sweep):
    rows, _ = cadence_sweep
    ses = np.array([r[0] for r in rows])
    taus = np.array([r[1] for r in rows])
    slope = float(np.polyfit(np.log(ses), np.log(taus), 1)[0])
    slope_ok = -0.55 <= slope <= -0.45
    num, asym = rows[-1][1], rows[-1][3]
    dev = abs(num - asym) / asym
    match_ok = dev <= 0.02
    _report(6, "cadence interval law", slope_ok and match_ok,
            f"slope {slope:.3f} in [-0.55, -0.45]: {slope_ok}; "
            f"two-term match at 1e4: numeric {num:.5g} vs closed form "
            f"{asym:.5g}, deviation {dev:.1%} <= 2%: {match_ok}")


def test_criterion_07_scaling_dichotomy(cadence_sweep):
    rows, ints = cadence_sweep
    ses = np.array([r[0] for r in rows])
    totals = np.array([r[2] for r in rows])
    slope = float(np.polyfit(np.log(ses), np.log(totals), 1)[0])
    slope_ok = 0.4 <= slope <= 0.6
    bounds = [markov_seq(energy_for_script_e(se), 0.1, 0.0, ints.xi).total_qfi_bound
              for se in ses]
    flat_ok = max(bounds) - min(bounds) <= 1e-9
    want = ints.xi / (3.0 * 0.05)
    value_ok = abs(bounds[0] - want) <= 1e-9
    _report(7, "unbounded vs bounded scaling", slope_ok and flat_ok and value_ok,
            f"cadence total slope {slope:.3f} in [0.4, 0.6]; Markov bound "
            f"constant at {bounds[0]:.6g} (= xi/(3A))")


def test_criterion_08_noiseless_heisenberg_limit():
    bath = DiscreteBath([], [], [], 1.0)
    resp = solve_response(bath, TimeGrid(4.0, 1024))
    w = forced_window(resp, ZETA, (0.0, np.pi))
    ratios = np.array([
        qfi_best_state(energy_for_script_e(se), w).value / se
        for se in (1.0, 10.0, 100.0)])
    spread = float(np.ptp(ratios) / ratios[0])
    _report(8, "Heisenberg line, linear in script-E", spread <= 1e-9,
            f"value/script-E spread {spread:.2e} <= 1e-9")


def test_criterion_09_best_measurement_optimality():
    bath = DiscreteBath([0.09], [0.7], [0.0], 1.0)
    resp = solve_response(bath, TimeGrid(2.0, 2048))
    w = forced_window(resp, ZETA, (0.0, 1.3))
    theta_star = optimal_angle(w)
    aligned = qfi_aligned(VACUUM, w).value
    general = qfi_general(VACUUM, w).value
    grid = np.linspace(0.0, np.pi, 720, endpoint=False)
    values = np.array([fisher_quadrature(t, VACUUM, w) for t in grid])
    best = grid[int(np.argmax(values))]
    dist = abs(best - theta_star) % np.pi
    dist = min(dist, np.pi - dist)
    loc_ok = dist <= np.pi / 720 + 1e-12
    peak = fisher_quadrature(theta_star, VACUUM, w)
    val_ok = abs(peak - aligned) <= 1e-6 * aligned
    bound_ok = values.max() <= general * (1.0 + 1e-6)
    _report(9, "best quadrature measurement", loc_ok and val_ok and bound_ok,
            f"argmax within {dist:.2e} rad of the optimal angle; peak matches "
            f"the QFI to {abs(peak - aligned) / aligned:.1e}; scan bounded by "
            "the general form")


def test_criterion_10_cramer_rao_saturation():
    bath = DiscreteBath([], [], [], 1.0)
    resp = solve_response(bath, TimeGrid(4.0, 1024))
    w = forced_window(resp, ZETA, (0.0, np.pi))
    res = simulate_estimation(qfi_general(VACUUM, w).value, f_true=0.3,
                              nu=100, seed=20240901, replications=2000)
    ratio = res.empirical_mse * 100 * 8.0
    _report(10, "Cramer-Rao saturation", 0.9 <= ratio <= 1.1,
            f"MSE * nu * QFI = {ratio:.4f} in [0.9, 1.1]")


def _invariant_scenarios():
    families = [("flat", None), ("ohmic", 1.0), ("ohmic", 0.5), ("ohmic", 2.0)]
    cases = []
    for family, s in families:
        for occupation, on_resonance in ((OccupationModel("zero"), True),
                                         (OccupationModel("thermal", 0.8), True),
                                         (OccupationModel("thermal", 0.8), False)):
            kwargs = dict(family=family, scale=0.03, cutoff=2.0,
                          cutoff_shape="hard", occupation=occupation)
            if s is not None:
                kwargs["exponent"] = s
            omega0 = 1.0 if on_resonance else 3.0
            cases.append((ContinuousSpectrum(**kwargs), omega0))
    return cases


def test_criterion_11_invariant_suite(resonant_response):
    failures = []
    for idx, (spec, omega0) in enumerate(_invariant_scenarios()):
        bath = discretize(spec, 48, omega0)
        resp = solve_response(bath, default_grid(bath, 6.0))
        if np.abs(resp.g_samples).max() > 1.0 + 1e-6:
            failures.append(f"scenario {idx}: |G| above unity")
        snap0 = covariance_snapshot(
            VACUUM, window_terms(resp, (0.0, 0.0)), 0.3)
        if abs(snap0.det_sigma - 0.25) > 1e-12:
            failures.append(f"scenario {idx}: initial pure det != 1/4")
        for tau in (2.4, 4.8):
            w = window_terms(resp, (0.0, tau))
            a = covariance_snapshot(VACUUM, w, 0.3)
            b = covariance_snapshot(VACUUM, w, 1.0)
            if a.det_sigma < 0.25 - 1e-9:
                failures.append(f"scenario {idx}: det below 1/4 at tau={tau}")
            if abs(a.det_sigma - b.det_sigma) > 1e-8 * a.det_sigma:
                failures.append(f"scenario {idx}: det depends on theta")
            sums = [a.var_x_theta + a.var_p_theta,
                    b.var_x_theta + b.var_p_theta]
            if abs(sums[0] - sums[1]) > 1e-8 * sums[0]:
                failures.append(f"scenario {idx}: theta sum rule broken")
    # resonant-mode variance identity: vacuum stays at 1/2 for all windows
    for tau in (0.5, 2.0, 6.0, 12.0):
        v = quadrature_variance(
            VACUUM, window_terms(resonant_response, (0.0, tau)),
            0.9)
        if abs(v - 0.5) > 5e-6:
            failures.append(f"resonant identity off by {abs(v - 0.5):.2e}")
    _report(11, "invariant suite on the 12-scenario grid", not failures,
            "all checks pass" if not failures else "; ".join(failures))


def test_criterion_12_correlation_decomposition():
    scales = np.array([0.02, 0.01, 0.005, 0.0025])
    ratios = []
    worst_split = 0.0
    for sc in scales:
        bath = discretize(ContinuousSpectrum("flat", scale=float(sc),
                                             cutoff=2.0), 64, 1.0)
        r = bath_correlation(bath, 0.5, 2.0, 0.9)
        worst_split = max(worst_split, abs(r.total - r.born - r.interaction))
        ratios.append(abs(r.interaction) / abs(r.born))
    k = np.sqrt(scales * 2.0)
    slope = float(np.polyfit(np.log(k), np.log(ratios), 1)[0])
    split_ok = worst_split <= 1e-10
    slope_ok = 1.8 <= slope <= 2.2
    _report(12, "correlation decomposition and coupling scaling",
            split_ok and slope_ok,
            f"decomposition residual {worst_split:.1e} <= 1e-10; "
            f"interaction/Born slope {slope:.3f} in [1.8, 2.2]")


def _best_state_responses():
    """Criterion 17's baths, each solved on [0, 5.5]."""
    baths = [DiscreteBath([0.09], [0.7], [0.0], 1.0),     # a cold mode
             DiscreteBath([0.09], [0.7], [2.0], 1.0),     # a hot mode, N = 2
             discretize(ContinuousSpectrum(
                 "ohmic", scale=0.05, cutoff=2.0,
                 occupation=OccupationModel("thermal", 0.8)), 48, 1.0)]
    return [solve_response(bath, TimeGrid(5.5, 2048)) for bath in baths]


def _best_state_windows():
    """Window terms of criterion 17: three baths, two forces, three windows."""
    for resp in _best_state_responses():
        for force in (ZETA, fc.SinusoidForce(1.0, 2.3)):
            for window in ((0.0, 0.5), (0.0, 3.0), (1.0, 5.5)):
                yield forced_window(resp, force, window)


def _random_state(rng) -> GaussianProbeInit:
    alpha = (rng.choice([0.0, 0.3, 3.0]) * complex(*rng.normal(size=2))
             / np.sqrt(2.0))
    nbar = rng.exponential() if rng.random() < 0.5 else 0.0
    return GaussianProbeInit(alpha, nbar, rng.uniform(0.0, 4.0),
                             rng.uniform(0.0, np.pi))


def test_criterion_17_best_state_optimality():
    # no Gaussian state of mean energy E = |alpha|^2 + trace/2 beats the
    # best state of E, aligned squeezed vacua are the best state, and
    # trading squeezing for thermal occupation or displacement at the same
    # energy loses information
    rng = np.random.default_rng(17)
    worst_ratio, worst_aligned, n_states, strict = -np.inf, 0.0, 0, True
    for w in _best_state_windows():
        def ratio(init):
            best = qfi_best_state(mean_energy(init), w).value
            return qfi_general(init, w).value / best
        for _ in range(120):
            worst_ratio = max(worst_ratio, ratio(_random_state(rng)) - 1.0)
            n_states += 1
        axis = phase(w.disp) - phase(w.g)
        for r in (0.2, 1.0, 3.0, 8.0):
            dev = abs(ratio(GaussianProbeInit(0.0, r=r, axis=axis)) - 1.0)
            worst_aligned = max(worst_aligned, dev)
        # at E = 5: occupation nbar = 1/2, or |alpha|^2 = 1, with the rest
        # of the energy in aligned squeezing
        thermal = GaussianProbeInit(0.0, 0.5, 0.5 * np.arccosh(5.0), axis)
        displaced = GaussianProbeInit(1.0, r=0.5 * np.arccosh(8.0), axis=axis)
        strict &= all(mean_energy(init) == pytest.approx(5.0, rel=1e-12)
                      and ratio(init) < 1.0 for init in (thermal, displaced))
    ok = (n_states >= 2000 and worst_ratio <= 1e-12
          and worst_aligned <= 1e-12 and strict)
    _report(17, "no Gaussian state beats the best state", ok,
            f"{n_states} random states: largest QFI / best - 1 = "
            f"{worst_ratio:.2e} <= 1e-12; aligned squeezed vacua within "
            f"{worst_aligned:.1e} <= 1e-12; thermal and displaced states "
            f"strictly below: {strict}")


def test_criterion_17_best_state_holds_over_a_cadence():
    # a state re-prepared for every step of a cadence gathers, summed over
    # the steps, at most the cadence total of the best state of its mean
    # energy, which the sequential totals report
    rng = np.random.default_rng(17)
    forces = (ZETA, fc.SinusoidForce(1.0, 2.3), fc.GaussianPulseForce(1.0, 0.3))
    worst_ratio, n_states, within = -np.inf, 0, True
    for resp in _best_state_responses():
        for force in forces:
            for total, tau in ((2.0, 0.1), (3.0, 0.5), (1.0, 0.013)):
                w, = interval_terms(total, [tau], resp, force)
                steps = [w._replace(disp=d) for d in w.disp]
                for _ in range(20):
                    init = _random_state(rng)
                    summed = sum(qfi_general(init, step).value
                                 for step in steps)
                    best = seq_result(w, mean_energy(init)).total_qfi
                    within &= summed <= best * (1.0 + 1e-12)
                    worst_ratio = max(worst_ratio, summed / best - 1.0)
                    n_states += 1
    _report(17, "no Gaussian state beats the best state over a cadence",
            n_states >= 500 and within,
            f"{n_states} random states on 27 cadences: largest summed QFI / "
            f"best total - 1 = {worst_ratio:.2e} <= 1e-12")


def _eigh_response(bath: DiscreteBath, tau: np.ndarray):
    """G and dG/dtau from a dense eigendecomposition of the arrowhead H."""
    n = bath.n_modes
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = bath.probe_frequency
    h[0, 1:] = h[1:, 0] = np.sqrt(bath.coupling_sq)
    h[1:, 1:] = np.diag(bath.frequencies)
    lam, vec = np.linalg.eigh(h)
    shift = lam - bath.probe_frequency
    phases = np.exp(-1j * np.multiply.outer(tau, shift))
    weights = vec[0] ** 2
    return phases @ weights, phases @ (-1j * shift * weights)


def _exact_response_cases(detuned_bath, two_mode_bath):
    """Criterion 18's baths and grids: criterion 3's baths on [0, 10] at two
    step counts, and thermal flat bands of 16-1024 modes."""
    ohmic16 = discretize(ContinuousSpectrum("ohmic", scale=0.05, cutoff=2.0,
                                            cutoff_shape="exponential"), 16, 1.0)
    flat = ContinuousSpectrum("flat", scale=0.02, cutoff=2.0,
                              occupation=OccupationModel("thermal", 0.5))
    cases = [(bath, TimeGrid(10.0, n)) for bath in (detuned_bath, two_mode_bath,
                                                     ohmic16)
             for n in (256, 4096)]
    # half-widths a of about 1.2: a * t_end reaches 960
    cases += [(discretize(flat, modes, 1.0), TimeGrid(t_end, steps))
              for modes, t_end, steps in ((16, 20.0, 1024), (64, 200.0, 4096),
                                          (256, 50.0, 2048), (1024, 800.0, 8192))]
    return cases


def test_criterion_18_exact_response(detuned_bath, two_mode_bath):
    # G is the probe amplitude of the global unitary, with no time step:
    # it matches the single-mode closed form and a dense eigh of H to
    # rounding, stays in the unit disc and is exactly 1 without coupling
    worst_single = 0.0
    for bath, grid in ((detuned_bath, TimeGrid(10.0, 2048)),
                       (DiscreteBath([0.25], [1.0], [0.0], 1.0),
                        TimeGrid(8.0 * np.pi, 4096))):
        resp = solve_response(bath, grid)
        t = grid.times()
        c, delta = bath.coupling_sq[0], bath.detunings[0]
        worst_single = max(
            worst_single,
            float(np.abs(resp.g_samples - exact_single_mode_g(c, delta, t)).max()),
            float(np.abs(resp.g_dot_samples
                         - exact_single_mode_g_dot(c, delta, t)).max()))
    cases = _exact_response_cases(detuned_bath, two_mode_bath)
    worst_eigh = 0.0
    for bath, grid in cases:
        resp = solve_response(bath, grid)
        g, g_dot = _eigh_response(bath, grid.times())
        worst_eigh = max(worst_eigh,
                         float(np.abs(resp.g_samples - g).max()),
                         float(np.abs(resp.g_dot_samples - g_dot).max()))
    largest = max(float(np.abs(resp.g_samples).max())
                  for resp in _best_state_responses())
    identity = True
    for bath in (DiscreteBath([], [], [], 1.0),
                 DiscreteBath([0.0, 0.0], [0.5, 2.0], [0.0, 1.0], 1.0)):
        resp = solve_response(bath, TimeGrid(5.0, 64))
        identity &= bool((resp.g_samples == 1.0).all()
                         and (resp.g_dot_samples == 0.0).all())
    ok = (worst_single <= 1e-12 and worst_eigh <= 1e-11
          and largest <= 1.0 + 1e-12 and identity)
    _report(18, "exact response", ok,
            f"single mode {worst_single:.1e} <= 1e-12; dense eigh "
            f"{worst_eigh:.1e} <= 1e-11 on {len(cases)} grids; "
            f"max |G| - 1 = {largest - 1.0:.1e} <= 1e-12; "
            f"G == 1 without coupling: {identity}")


def _expm_amplitudes(bath: DiscreteBath, tau: float) -> np.ndarray:
    """U_0n(tau), n = 0..N, from mpmath's expm of -i H tau at 32 digits."""
    with mp.workdps(32):
        h = mp.diag([bath.probe_frequency, *bath.frequencies.tolist()])
        for n, c in enumerate(bath.coupling_sq.tolist(), 1):
            h[0, n] = h[n, 0] = mp.sqrt(c)
        u = mp.expm(-1j * mp.mpf(tau) * h)
        return np.array([complex(u[0, n]) for n in range(bath.n_modes + 1)])


def test_criterion_21_chebyshev_propagator(detuned_bath, two_mode_bath):
    # the bath amplitudes and n_B match a 32-digit expm of H to rounding
    # at every time, where the dense eigh cancels at short times; the
    # propagator matches the dense eigh on criterion 18's baths
    rng = np.random.default_rng(21)
    worst_expm, eigh_short = 0.0, []
    for n_modes in (1, 4, 9, 16):
        bath = DiscreteBath(rng.uniform(0.0, 0.1, n_modes),
                            rng.uniform(0.0, 2.0, n_modes),
                            rng.uniform(0.0, 2.0, n_modes), 1.0)
        probe_row = np.eye(1, n_modes + 1)[0]
        occ = bath.occupations + 0.5
        for tau in (1e-8, 1e-4, 0.3, 5.0):
            exact = _expm_amplitudes(bath, tau)[1:]
            n_b = float(np.abs(exact) ** 2 @ occ)
            series = bath.propagate(probe_row, tau)[1:]
            worst_expm = max(worst_expm,
                             float(np.abs(series - exact).max()
                                   / np.abs(exact).max()),
                             abs(noise_term(bath, (0.0, tau)) - n_b) / n_b)
            dense = dense_propagate(bath, probe_row, tau)[1:]
            eigh_short.append(float(np.abs(dense - exact).max()
                                    / np.abs(exact).max()))
    worst_dense, n_rows = 0.0, 0
    for bath, t_end in {id(b): (b, g.t_end) for b, g in _exact_response_cases(
            detuned_bath, two_mode_bath)}.values():
        tau = np.linspace(0.0, t_end, 33)
        for w in (np.eye(1, bath.n_modes + 1)[0],
                  np.append(0.0, np.sqrt(bath.coupling_sq))):
            worst_dense = max(worst_dense, float(
                np.abs(bath.propagate(w, tau) - dense_propagate(bath, w, tau))
                .max() / np.linalg.norm(w)))
            n_rows += tau.size
    ok = worst_expm <= 1e-13 and worst_dense <= 1e-12
    _report(21, "Chebyshev propagator", ok,
            f"bath amplitudes and n_B within {worst_expm:.1e} <= 1e-13 "
            f"relative of a 32-digit expm on 4 random baths at 4 times (a "
            f"dense eigh: {max(eigh_short):.1e}); {n_rows} rows within "
            f"{worst_dense:.1e} |w| <= 1e-12 |w| of a dense eigh on "
            f"criterion 18's baths")
