"""Command-line front end: scenario files in, deterministic CSV/JSON out.

Exit status: 0 on success, 2 for configuration problems, 3 for numerical
failures inside the engine. Floats are emitted with 17 significant digits
and JSON keys are sorted, so identical configs (and seeds) reproduce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO

import numpy as np

from . import correlation as corr_mod
from . import metrology, sequential
from .bath import moments
from .config import ScenarioConfig, load_config
from .errors import AlignmentError, ConfigError, NmqfiError
from .metrology import energy_for_script_e, script_e
from .probe import (covariance_snapshot, displacement, quadrature_mean,
                    window_terms)
from .response import (ResponseFunction, markov_closed_form, markov_decay_rate,
                       solve_response)


# Rows formatted per `%` operation; bounds the transient text of a table.
_CSV_BLOCK_ROWS = 1024

# Most steps a cadence may have; 10^6 steps already cost tens of seconds
# and hundreds of MB.
_MAX_STEPS = 10 ** 6


def _write_csv(out: IO[str], header: list[str], rows):
    """Write a header and rows (a 2-D array or a list of tuples) as CSV.

    Each cell is '%.17g', the same text as format(float(v), '.17g');
    a block of rows is formatted by one `%` operation on a row template.
    """
    out.write(",".join(header) + "\n")
    table = np.asarray(rows, dtype=float)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS]
        out.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_json(out: IO[str], payload: dict):
    """Write payload as JSON; a NaN or infinite value is a numerical error."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                          default=lambda v: float(v))
    except ValueError as exc:
        raise NmqfiError(f"non-finite value in the JSON output: {exc}") from exc
    out.write(text + "\n")


def _report_times(cfg: ScenarioConfig, t0: float, t1: float) -> np.ndarray:
    n = int(cfg.options.get("report_points", 33))
    return np.linspace(t0, t1, n)


def _gamma_for(cfg: ScenarioConfig) -> float | None:
    if "gamma" in cfg.options:
        return float(cfg.options["gamma"])
    spectrum = cfg.spectrum()
    if spectrum is not None:
        return markov_decay_rate(spectrum, cfg.omega0)
    return None


def _response(cfg: ScenarioConfig) -> ResponseFunction:
    """The scenario's bath solved on its grid; the response carries the bath."""
    bath = cfg.bath()
    return solve_response(bath, cfg.grid(bath))


def run_response(cfg: ScenarioConfig, out: IO[str], fmt: str):
    resp = _response(cfg)
    taus = resp.grid.times()
    rows = np.column_stack((taus, resp.g_samples.real, resp.g_samples.imag,
                            np.abs(resp.g_samples), resp.g_dot_samples.real,
                            resp.g_dot_samples.imag))
    _write_csv(out, ["tau", "re_g", "im_g", "abs_g", "re_gdot", "im_gdot"], rows)


def run_moments(cfg: ScenarioConfig, out: IO[str], fmt: str):
    resp = _response(cfg)
    init = cfg.init_state()
    t0, t1 = cfg.window()
    theta = float(cfg.options.get("theta", 0.0))
    amp = float(cfg.options.get("force_amplitude", 0.0))
    times = _report_times(cfg, t0, t1)
    if "force" in cfg.raw:
        values = displacement(resp, cfg.force(), (t0, times))
    else:
        values = np.zeros(times.shape, dtype=complex)
    rows = []
    for t, value in zip(times, values):
        w = window_terms(resp, (t0, float(t)), complex(value))
        mean = quadrature_mean(init, w, theta, amp)
        snap = covariance_snapshot(init, w, theta)
        rows.append((t, theta, mean, snap.var_x_theta, snap.var_p_theta,
                     snap.det_sigma, w.n_b))
    _write_csv(out, ["t", "theta", "mean", "var_x", "var_p", "det_sigma", "n_b"],
               rows)


def _window_and_state(cfg: ScenarioConfig, resp):
    """The window's terms, from one displacement call, and the probe state."""
    force = cfg.force()
    window = cfg.window()
    energy = cfg.energy()
    init = cfg.init_state() if energy is None else None
    w = window_terms(resp, window, displacement(resp, force, window))
    if energy is not None:
        try:
            init = metrology.best_state(energy, w)
        except ValueError as exc:
            raise ConfigError(f"probe.energy {energy!r}: {exc}") from exc
    return w, init


def run_qfi(cfg: ScenarioConfig, out: IO[str], fmt: str):
    resp = _response(cfg)
    w, init = _window_and_state(cfg, resp)
    energy = cfg.energy()
    if energy is not None:
        result = metrology.qfi_best_state(energy, w)
    else:
        try:
            result = metrology.qfi_aligned(init, w)
        except AlignmentError:
            result = metrology.qfi_general(init, w)
    snap = covariance_snapshot(init, w, 0.0)
    m = moments(resp.bath)
    payload = {
        "form": result.form,
        "value": result.value,
        "abs_d": float(np.sqrt(result.numerator_abs_d_sq)),
        "variance": result.denominator_variance_or_det,
        "det_sigma": snap.det_sigma,
        "window": list(cfg.window()),
        "bath_moments": {
            "k_squared": m.k_squared,
            "script_n": m.script_n,
            "omega_p": list(m.omega_p),
            "chi_q": list(m.chi_q),
        },
    }
    if energy is not None:
        payload["script_e"] = script_e(energy)
    _write_json(out, payload)


def run_estimate(cfg: ScenarioConfig, out: IO[str], fmt: str, seed_override):
    resp = _response(cfg)
    w, init = _window_and_state(cfg, resp)
    seed = int(seed_override if seed_override is not None
               else cfg.options.get("seed", 0))
    result = metrology.simulate_estimation(
        init, w,
        f_true=float(cfg.options.get("force_amplitude", 0.0)),
        nu=int(cfg.options.get("nu", 100)), seed=seed,
        replications=int(cfg.options.get("replications", 2000)))
    _write_json(out, {
        "estimate": result.estimate,
        "empirical_mse": result.empirical_mse,
        "crb": result.crb,
        "ratio_to_crb": result.ratio_to_crb,
        "nu": result.nu,
        "replications": result.replications,
        "seed": seed,
    })


def _check_steps(total: float, tau: float):
    """ConfigError when intervals tau fit more than _MAX_STEPS steps into total."""
    if sequential.SequentialScheme(total, tau).repetitions > _MAX_STEPS:
        raise ConfigError(f"a cadence of interval {tau!r} has more than "
                          f"{_MAX_STEPS} steps in total_window {total!r}")


def _tau_bounds(block: dict, resp, total: float, m) -> tuple[float, float]:
    """The cadence interval bracket: sequential.tau_bounds or the default."""
    if "tau_bounds" in block:
        lo, hi = (float(v) for v in block["tau_bounds"])
    else:
        lo, hi = sequential.default_tau_bounds(resp, total, m)
    _check_steps(total, lo)
    return lo, hi


def _sequential_point(cfg: ScenarioConfig, resp, force,
                      energies: list[float]) -> list[dict]:
    """One cadence report per energy, from one optimize_tau call for all.

    The window integrals xi and C over all of T are energy-independent and
    computed once; the reported ones cover each optimum's own steps, nu * tau,
    once per distinct span.
    """
    block = cfg.block("sequential")
    total = float(block["total_window"])
    m = moments(resp.bath)
    omega0 = resp.bath.probe_frequency
    if "tau" in block:
        tau = float(block["tau"])
        _check_steps(total, tau)
        terms = sequential.interval_terms(
            sequential.SequentialScheme(total, tau), resp, force)
        found = [sequential.seq_result(terms, energy) for energy in energies]
    else:
        found = sequential.optimize_tau(total, energies, resp, force,
                                        _tau_bounds(block, resp, total, m))
    ints = sequential.xi_and_c(force, omega0, total)
    spans = {}
    gamma = _gamma_for(cfg)
    fastest = max(m.fastest_rate, omega0)
    points = []
    for energy, seq in zip(energies, found):
        tau_asym = (sequential.tau_opt_asymptotic(energy, m, ints.xi,
                                                  ints.c_coeff)
                    if m.script_n > 0 else None)
        fasym = (sequential.seq_qfi_asymptotic(energy, m, ints.xi, ints.c_coeff,
                                               omega0)
                 if m.script_n > 0 else None)
        span = seq.repetitions * seq.tau_used
        if span not in spans:
            spans[span] = sequential.xi_and_c(force, omega0, span)
        steps = spans[span]
        markov = None
        if gamma is not None and gamma > 0:
            markov = sequential.markov_seq(
                energy, gamma, float(cfg.options.get("n_thermal", 0.0)),
                ints.xi, omega0)
        points.append({
            "tau_opt_numeric": seq.tau_used,
            "tau_opt_asymptotic": tau_asym,
            "total_qfi": seq.total_qfi,
            "total_qfi_asymptotic": fasym,
            "markov_bound": None if markov is None else markov.total_qfi_bound,
            "xi": steps.xi,
            "c_coeff": steps.c_coeff,
            "regime_flags": {
                "hit_bound": seq.hit_bound,
                "short_time_valid": bool(seq.tau_used * fastest <= 0.1),
            },
        })
    return points


def run_sequential(cfg: ScenarioConfig, out: IO[str], fmt: str):
    resp = _response(cfg)
    force = cfg.force()
    energy = cfg.energy()
    if energy is None:
        raise ConfigError("sequential subcommand needs probe.energy")
    if fmt == "csv":
        block = cfg.block("sequential")
        total = float(block["total_window"])
        lo, hi = _tau_bounds(block, resp, total, moments(resp.bath))
        rows = []
        for tau in np.geomspace(lo, hi, int(cfg.options.get("report_points", 33))):
            terms = sequential.interval_terms(
                sequential.SequentialScheme(total, float(tau)), resp, force)
            rows.append((tau, sequential.seq_result(terms, energy).total_qfi))
        _write_csv(out, ["tau", "total_qfi"], rows)
        return
    _write_json(out, _sequential_point(cfg, resp, force, [energy])[0])


def run_sweep(cfg: ScenarioConfig, out: IO[str], fmt: str):
    resp = _response(cfg)
    force = cfg.force()
    sweep = cfg.options.get("energy_sweep")
    if not sweep:
        raise ConfigError("sweep subcommand needs options.energy_sweep "
                          "(list of script-E values)")
    script_es = [float(se) for se in sweep]
    points = _sequential_point(cfg, resp, force,
                               [energy_for_script_e(se) for se in script_es])
    rows = [(se, row["tau_opt_numeric"], row["total_qfi"],
             *(float("nan") if row[key] is None else row[key]
               for key in ("tau_opt_asymptotic", "total_qfi_asymptotic",
                           "markov_bound")))
            for se, row in zip(script_es, points)]
    _write_csv(out, ["script_e", "tau_opt", "total_qfi", "tau_opt_asymptotic",
                     "total_qfi_asymptotic", "markov_bound"], rows)


def run_correlation(cfg: ScenarioConfig, out: IO[str], fmt: str):
    resp = _response(cfg)
    init = cfg.init_state()
    fluct = 0.5 * init.trace
    t_prime = float(cfg.options.get("t_prime", 0.0))
    rows = []
    for t in _report_times(cfg, t_prime, resp.t_end):
        r = corr_mod.bath_correlation(resp, fluct, float(t), t_prime)
        rows.append((t - t_prime, r.total.real, r.total.imag,
                     r.born.real, r.born.imag, abs(r.interaction)))
    _write_csv(out, ["t_minus_tprime", "re_total", "im_total", "re_born",
                     "im_born", "abs_interaction"], rows)


def run_limits(cfg: ScenarioConfig, out: IO[str], fmt: str):
    resp = _response(cfg)
    gamma = _gamma_for(cfg)
    if gamma is None:
        raise ConfigError("limits subcommand needs options.gamma or a "
                          "continuum bath block")
    omega2 = moments(resp.bath).omega(2)
    taus = resp.grid.times()
    rows = np.column_stack((taus, resp.g_samples.real, resp.g_samples.imag,
                            np.abs(resp.g_samples), np.cos(omega2 * taus),
                            markov_closed_form(gamma, taus)))
    _write_csv(out, ["tau", "re_exact", "im_exact", "abs_exact",
                     "narrowband", "markov"], rows)


_RUNNERS = {
    "response": run_response,
    "moments": run_moments,
    "qfi": run_qfi,
    "sequential": run_sequential,
    "sweep": run_sweep,
    "correlation": run_correlation,
    "limits": run_limits,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmqfi",
        description="Force-estimation engine for an oscillator probe in a "
                    "Gaussian bath")
    parser.add_argument("subcommand",
                        choices=sorted(list(_RUNNERS) + ["estimate"]))
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="override options.seed")
    return parser


_FORMATS = {
    "response": ("csv",),
    "moments": ("csv",),
    "correlation": ("csv",),
    "limits": ("csv",),
    "sweep": ("csv",),
    "qfi": ("json",),
    "estimate": ("json",),
    "sequential": ("json", "csv"),
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        fmt = args.format or _FORMATS[args.subcommand][0]
        if fmt not in _FORMATS[args.subcommand]:
            raise ConfigError(f"subcommand {args.subcommand} emits "
                              f"{'/'.join(_FORMATS[args.subcommand])} only")
        if args.out:
            handle = open(args.out, "w", encoding="utf-8", newline="\n")
        else:
            handle = sys.stdout
        try:
            if args.subcommand == "estimate":
                run_estimate(cfg, handle, fmt, args.seed)
            else:
                _RUNNERS[args.subcommand](cfg, handle, fmt)
        finally:
            if args.out:
                handle.close()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NmqfiError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
