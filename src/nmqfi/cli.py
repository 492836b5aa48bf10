"""Command-line front end: scenario files in, deterministic CSV/JSON out.

Exit status: 0 on success, 2 for configuration problems (a problem too
large to allocate among them), 3 for numerical failures inside the engine
(an arithmetic overflow among them). Floats are emitted with 17 significant
digits and JSON keys are sorted, so identical configs (and seeds) reproduce
byte-identical outputs. Each (subcommand, format) has one runner, which
reads the scenario's inputs, builds its engine objects and solves, in that
order, so every refusal precedes the march; `main` writes its result only
once every value in it is finite, so a run that fails writes nothing.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import json
import sys
from typing import IO, TYPE_CHECKING

from . import bath as bath_mod
from . import config, metrology, probe, sequential
from . import correlation as corr_mod
from . import response as response_mod
from .errors import ConfigError, NmqfiError

if TYPE_CHECKING:
    from .config import ScenarioConfig
    from .response import ResponseFunction

# numpy is registered lazily, as the package registers the engine modules:
# parsing and validating a scenario, and every refusal, run none of it, and
# it runs at the first engine call. A numpy already imported is kept, and
# a missing one fails here with the plain import's ModuleNotFoundError.
_spec = None if "numpy" in sys.modules else importlib.util.find_spec("numpy")
if _spec is None:
    import numpy as np
else:
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)


# Rows formatted per `%` operation; bounds the Python floats held at once.
_CSV_BLOCK_ROWS = 1024


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


def _cells(rows) -> np.ndarray:
    """The rows as a float table, None read as nan; any other non-finite
    cell is a numerical error."""
    table = np.asarray(rows, dtype=float)
    for i, j in zip(*np.nonzero(~np.isfinite(table))):
        if rows[i][j] is not None:
            raise NmqfiError(f"non-finite value in the CSV output "
                             f"(row {i + 1}, column {j + 1})")
    return table


def _write_json(out: IO[str], payload: dict):
    """Write payload as JSON; a NaN or infinite value is a numerical error."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                          default=lambda v: float(v))
    except ValueError as exc:
        raise NmqfiError(f"non-finite value in the JSON output: {exc}") from exc
    out.write(text + "\n")


def _report_points(cfg: ScenarioConfig) -> int:
    return int(cfg.options.get("report_points", 33))


def _gamma_for(cfg: ScenarioConfig) -> float | None:
    if "gamma" in cfg.options:
        return float(cfg.options["gamma"])
    spectrum = cfg.spectrum()
    return (None if spectrum is None
            else response_mod.markov_decay_rate(spectrum, cfg.omega0))


def _march(cfg: ScenarioConfig) -> ResponseFunction:
    """The response solved on the scenario's bath and grid."""
    bath = cfg.bath()
    return response_mod.solve_response(bath, cfg.grid(bath))


def run_response(cfg: ScenarioConfig):
    resp = _march(cfg)
    g, g_dot = resp.g_samples, resp.g_dot_samples
    return (["tau", "re_g", "im_g", "abs_g", "re_gdot", "im_gdot"],
            np.column_stack((resp.grid.times(), g.real, g.imag, np.abs(g),
                             g_dot.real, g_dot.imag)))


def run_moments(cfg: ScenarioConfig):
    t0, t1 = cfg.window()
    theta = float(cfg.options.get("theta", 0.0))
    amp = float(cfg.options.get("force_amplitude", 0.0))
    init = cfg.init_state()
    force = cfg.force() if "force" in cfg.raw else None
    resp = _march(cfg)
    times = np.linspace(t0, t1, _report_points(cfg))
    values = (np.zeros(times.shape, dtype=complex) if force is None
              else probe.displacement(resp, force, (t0, times)))
    w = probe.window_terms(resp, (t0, times), values)
    snap = probe.covariance_snapshot(init, w, theta)
    return (["t", "theta", "mean", "var_x", "var_p", "det_sigma", "n_b"],
            np.column_stack((times, np.full(times.shape, theta),
                             probe.quadrature_mean(init, w, theta, amp),
                             snap.var_x_theta, snap.var_p_theta,
                             snap.det_sigma, w.n_b)))


def _window_qfi(cfg: ScenarioConfig):
    """The response, the window's terms from one displacement call, the
    probe state (the best state of probe.energy, if given) and its QFI."""
    window = cfg.window()
    energy = cfg.energy()
    force = cfg.force()
    init = cfg.init_state() if energy is None else None
    resp = _march(cfg)
    w = probe.window_terms(resp, window,
                           probe.displacement(resp, force, window))
    if energy is None:
        return resp, w, init, metrology.qfi_general(init, w)
    return (resp, w, metrology.best_state(energy, w),
            metrology.qfi_best_state(energy, w))


def run_qfi(cfg: ScenarioConfig):
    resp, w, init, result = _window_qfi(cfg)
    snap = probe.covariance_snapshot(init, w, 0.0)
    m = bath_mod.moments(resp.bath)
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
    energy = cfg.energy()
    if energy is not None:
        payload["script_e"] = metrology.script_e(energy)
    return payload


def run_estimate(cfg: ScenarioConfig):
    seed = int(cfg.options.get("seed", 0))
    qfi = _window_qfi(cfg)[3].value   # refusals before metrology runs numpy
    result = metrology.simulate_estimation(
        qfi, f_true=float(cfg.options.get("force_amplitude", 0.0)),
        nu=int(cfg.options.get("nu", 100)), seed=seed,
        replications=int(cfg.options.get("replications", 2000)))
    return {
        "estimate": result.estimate,
        "empirical_mse": result.empirical_mse,
        "crb": result.crb,
        "ratio_to_crb": result.ratio_to_crb,
        "nu": result.nu,
        "replications": result.replications,
        "seed": seed,
    }


def _cadence(cfg: ScenarioConfig, fixed: bool):
    """(total window, interval bracket, force, response) of the cadence,
    read, built and solved in that order. The bracket is (tau, tau) if fixed
    and the block gives a tau, else tau_bounds or the default; more than
    MAX_STEPS steps at its lower end is a ConfigError before the march."""
    block = cfg.block("sequential")
    total = float(block["total_window"])
    force = cfg.force()
    bath = cfg.bath()
    grid = cfg.grid(bath)
    if fixed and "tau" in block:
        bracket = (float(block["tau"]),) * 2
    elif "tau_bounds" in block:
        bracket = tuple(float(v) for v in block["tau_bounds"])
    else:
        bracket = sequential.default_tau_bounds(grid, total,
                                                bath_mod.moments(bath))
    cap = sequential.MAX_STEPS
    if sequential.SequentialScheme(total, bracket[0]).repetitions > cap:
        raise ConfigError(f"a cadence of interval {bracket[0]!r} has more than "
                          f"{cap} steps in total_window {total!r}")
    return total, bracket, force, response_mod.solve_response(bath, grid)


def _sequential_point(cfg: ScenarioConfig, cadence,
                      energies: list[float]) -> list[dict]:
    """One cadence report per energy, from one optimize_tau call for all
    (one interval_terms record if fixed), on the _cadence of the scenario.

    The asymptotics read the window integrals xi and C over all of T; the
    reported ones cover each optimum's own steps, nu * tau.
    """
    total, (lo, hi), force, resp = cadence
    m = bath_mod.moments(resp.bath)
    omega0 = resp.bath.probe_frequency
    if lo == hi:
        w, = sequential.interval_terms(total, [lo], resp, force)
        found = [sequential.seq_result(w, energy) for energy in energies]
    else:
        found = sequential.optimize_tau(total, energies, resp, force, (lo, hi))
    ints = sequential.xi_and_c(force, omega0, total)
    gamma = _gamma_for(cfg)
    n_thermal = float(cfg.options.get("n_thermal", 0.0))
    # a force varies at rate 2 sqrt(C / xi) (omega0 for a constant force)
    force_rate = 2.0 * (ints.c_coeff / ints.xi) ** 0.5 if ints.xi > 0 else 0.0
    fastest = max(m.fastest_rate, omega0, force_rate)
    points = []
    for energy, seq in zip(energies, found):
        tau_asym = fasym = markov = None
        if m.script_n > 0:
            tau_asym = sequential.tau_opt_asymptotic(energy, m, ints.xi,
                                                     ints.c_coeff)
            fasym = sequential.seq_qfi_asymptotic(energy, m, ints.xi,
                                                  ints.c_coeff, omega0)
            if tau_asym <= 0 or fasym < 0:   # the expansion is out of range
                tau_asym = fasym = None
        if gamma is not None and gamma > 0:
            markov = sequential.markov_seq(energy, gamma, n_thermal, ints.xi,
                                           omega0).total_qfi_bound
        steps = sequential.xi_and_c(force, omega0,
                                    seq.repetitions * seq.tau_used)
        points.append({
            "tau_opt_numeric": seq.tau_used,
            "tau_opt_asymptotic": tau_asym,
            "total_qfi": seq.total_qfi,
            "total_qfi_asymptotic": fasym,
            "markov_bound": markov,
            "xi": steps.xi,
            "c_coeff": steps.c_coeff,
            "regime_flags": {
                "hit_bound": seq.hit_bound,
                "short_time_valid": bool(seq.tau_used * fastest <= 0.1),
            },
        })
    return points


def _cadence_energy(cfg: ScenarioConfig) -> float:
    energy = cfg.energy()
    if energy is None:
        raise ConfigError("sequential subcommand needs probe.energy")
    return energy


def run_sequential(cfg: ScenarioConfig):
    energy = _cadence_energy(cfg)
    return _sequential_point(cfg, _cadence(cfg, fixed=True), [energy])[0]


def run_sequential_scan(cfg: ScenarioConfig):
    """The cadence total at report_points geometric intervals, one table."""
    energy = _cadence_energy(cfg)
    total, (lo, hi), force, resp = _cadence(cfg, fixed=False)
    table = sequential.interval_terms(
        total, np.geomspace(lo, hi, _report_points(cfg)), resp, force)
    return ["tau", "total_qfi"], [
        (w.tau, sequential.seq_result(w, energy).total_qfi) for w in table]


def run_sweep(cfg: ScenarioConfig):
    if "energy_sweep" not in cfg.options:
        raise ConfigError("sweep subcommand needs options.energy_sweep "
                          "(list of script-E values)")
    script_es = [float(se) for se in cfg.options["energy_sweep"]]
    cadence = _cadence(cfg, fixed=True)
    points = _sequential_point(
        cfg, cadence, [metrology.energy_for_script_e(se) for se in script_es])
    keys = ("tau_opt_numeric", "total_qfi", "tau_opt_asymptotic",
            "total_qfi_asymptotic", "markov_bound")
    return (["script_e", "tau_opt", "total_qfi", "tau_opt_asymptotic",
             "total_qfi_asymptotic", "markov_bound"],
            [(se, *(row[key] for key in keys))
             for se, row in zip(script_es, points)])


def run_correlation(cfg: ScenarioConfig):
    t_prime = float(cfg.options.get("t_prime", 0.0))
    fluct = 0.5 * cfg.init_state().trace
    bath = cfg.bath()
    # the grid is built for its refusals; the rows read only its t_end
    times = np.linspace(t_prime, cfg.grid(bath).t_end, _report_points(cfg))
    r = corr_mod.bath_correlation(bath, fluct, times, t_prime)
    return (["t_minus_tprime", "re_total", "im_total", "re_born", "im_born",
             "abs_interaction"],
            np.column_stack((times - t_prime, r.total.real, r.total.imag,
                             r.born.real, r.born.imag, np.abs(r.interaction))))


def run_limits(cfg: ScenarioConfig):
    if "gamma" not in cfg.options and "continuum" not in cfg.raw["bath"]:
        raise ConfigError("limits subcommand needs options.gamma or a "
                          "continuum bath block")
    resp = _march(cfg)
    gamma = _gamma_for(cfg)   # the bath builder has checked the spectrum
    omega2 = bath_mod.moments(resp.bath).omega(2)
    taus = resp.grid.times()
    return (["tau", "re_exact", "im_exact", "abs_exact", "narrowband",
             "markov"],
            np.column_stack((taus, resp.g_samples.real, resp.g_samples.imag,
                             np.abs(resp.g_samples), np.cos(omega2 * taus),
                             response_mod.markov_closed_form(gamma, taus))))


# The runner of each (subcommand, format): a CSV runner returns (header,
# rows), a JSON runner its payload. A subcommand's first format is its
# default.
_SUBCOMMANDS = {
    ("response", "csv"): run_response,
    ("moments", "csv"): run_moments,
    ("qfi", "json"): run_qfi,
    ("estimate", "json"): run_estimate,
    ("sequential", "json"): run_sequential,
    ("sequential", "csv"): run_sequential_scan,
    ("sweep", "csv"): run_sweep,
    ("correlation", "csv"): run_correlation,
    ("limits", "csv"): run_limits,
}

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nmqfi",
        description="Force-estimation engine for an oscillator probe in a "
                    "Gaussian bath")
    parser.add_argument("subcommand",
                        choices=sorted({sub for sub, _ in _SUBCOMMANDS}))
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="override options.seed")
    args = parser.parse_args(argv)
    formats = [fmt for sub, fmt in _SUBCOMMANDS if sub == args.subcommand]
    fmt = args.format or formats[0]
    try:
        cfg = config.load_config(args.config)
        if args.seed is not None:
            cfg = config.validate({**cfg.raw, "options": {**cfg.options,
                                                          "seed": args.seed}})
        if fmt not in formats:
            raise ConfigError(f"subcommand {args.subcommand} emits "
                              f"{'/'.join(formats)} only")
        result = _SUBCOMMANDS[args.subcommand, fmt](cfg)
        text = io.StringIO()
        if fmt == "csv":
            _write_csv(text, result[0], _cells(result[1]))
        else:
            _write_json(text, result)
        if not args.out:
            sys.stdout.write(text.getvalue())
        else:
            try:
                with open(args.out, "w", encoding="utf-8",
                          newline="\n") as handle:
                    handle.write(text.getvalue())
            except OSError as exc:
                raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    except MemoryError:
        print("config error: the problem is too large to allocate",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NmqfiError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> int:
    """The `nmqfi` process: main without the cyclic garbage collector.

    Numpy's import alone builds about 22k tracked objects, which the
    collector would walk in some 30 young collections and once more in full
    at shutdown. A run's garbage is freed by reference counting, and what
    sits in a cycle waits for the process to end; the heap is frozen before
    the interpreter exits, so shutdown walks none of it. main, the
    in-process API, leaves the collector as it is.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
