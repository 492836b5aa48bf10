"""CLI: scenario execution, determinism, formats, exit codes."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import noiseless_table_displacement
from nmqfi import cli
from nmqfi.cli import main
from nmqfi.errors import NmqfiError

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))
SUBCOMMAND_BY_PREFIX = {
    "qfi": "qfi",
    "response": "response",
    "limits": "limits",
    "estimate": "estimate",
    "sequential": "sequential",
    "sweep": "sweep",
    "correlation": "correlation",
    "moments": "moments",
}


def subcommand_for(path: Path) -> str:
    return SUBCOMMAND_BY_PREFIX[path.name.split("_")[0]]


def run_cli(args):
    return main([str(a) for a in args])


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.name)
def test_every_scenario_runs_and_reruns_identically(scenario, tmp_path):
    sub = subcommand_for(scenario)
    out_a = tmp_path / "a.out"
    out_b = tmp_path / "b.out"
    assert run_cli([sub, "--config", scenario, "--out", out_a]) == 0
    assert run_cli([sub, "--config", scenario, "--out", out_b]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.stat().st_size > 0


def test_noiseless_pi_scenario_value(tmp_path):
    out = tmp_path / "qfi.json"
    cfg = SCENARIO_DIR / "qfi_noiseless_pi.json"
    assert run_cli(["qfi", "--config", cfg, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["form"] == "aligned"
    assert abs(payload["value"] - 8.0) <= 1e-9
    assert abs(payload["abs_d"] - 2.0) <= 1e-9


def test_response_csv_columns(tmp_path):
    out = tmp_path / "resp.csv"
    cfg = SCENARIO_DIR / "response_narrowband.json"
    assert run_cli(["response", "--config", cfg, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,re_g,im_g,abs_g,re_gdot,im_gdot"
    assert len(lines) == 4098
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert float(first[4]) == 0.0


def test_limits_columns_agree_for_resonant_mode(tmp_path):
    out = tmp_path / "limits.csv"
    cfg = SCENARIO_DIR / "limits_narrowband.json"
    assert run_cli(["limits", "--config", cfg, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,re_exact,im_exact,abs_exact,narrowband,markov"
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        assert abs(vals[1] - vals[4]) <= 1e-6   # exact vs narrow-band column


def test_estimate_ratio_near_one(tmp_path):
    out = tmp_path / "est.json"
    cfg = SCENARIO_DIR / "estimate_cramer_rao.json"
    assert run_cli(["estimate", "--config", cfg, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert 0.9 <= payload["ratio_to_crb"] <= 1.1
    assert payload["crb"] == pytest.approx(1.0 / 800.0, rel=1e-9)


@pytest.mark.parametrize("force", [1e16, 1e308])
def test_estimate_error_is_kept_at_a_large_force(force, tmp_path, capsys):
    # each error sqrt(crb) z lies far below the force's last digit, so the
    # draw f + sqrt(crb) z rounds back to f; the MSE reads the errors
    payload = _run_json(tmp_path, capsys, "estimate_cramer_rao", "estimate",
                        _set("options", force_amplitude=force))
    assert 0.9 <= payload["ratio_to_crb"] <= 1.1


def test_seed_override_changes_output(tmp_path):
    cfg = SCENARIO_DIR / "estimate_cramer_rao.json"
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run_cli(["estimate", "--config", cfg, "--out", out_a, "--seed", "1"])
    run_cli(["estimate", "--config", cfg, "--out", out_b, "--seed", "2"])
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["estimate"] != b["estimate"]


def test_sequential_json_fields(tmp_path):
    out = tmp_path / "seq.json"
    cfg = SCENARIO_DIR / "sequential_nonmarkov.json"
    assert run_cli(["sequential", "--config", cfg, "--out", out]) == 0
    payload = json.loads(out.read_text())
    for key in ("tau_opt_numeric", "tau_opt_asymptotic", "total_qfi",
                "markov_bound", "regime_flags"):
        assert key in payload
    assert payload["regime_flags"]["hit_bound"] is False


def test_sequential_csv_sweep(tmp_path):
    out = tmp_path / "seq.csv"
    cfg = SCENARIO_DIR / "sequential_nonmarkov.json"
    assert run_cli(["sequential", "--config", cfg, "--out", out,
                    "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,total_qfi"
    assert len(lines) > 10


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"probe": {"omega0": 1.0, "oops": 1}}))
    assert run_cli(["qfi", "--config", cfg]) == 2


def test_missing_block_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"probe": {"omega0": 1.0}}))
    assert run_cli(["qfi", "--config", cfg]) == 2


def test_malformed_json_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run_cli(["qfi", "--config", cfg]) == 2


def test_numerical_error_exit_code(tmp_path):
    # the pulse is 28 widths past the window: the Fisher information
    # underflows to 0 inside the engine -> numerical error -> exit 3
    raw = json.loads((SCENARIO_DIR / "estimate_cramer_rao.json").read_text())
    raw.update(force={"kind": "gaussian_pulse", "center": 4, "width": 0.125},
               window={"t0": 0, "t": 0.5})
    cfg = tmp_path / "underflow.json"
    cfg.write_text(json.dumps(raw))
    assert run_cli(["estimate", "--config", cfg]) == 3


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nmqfi.cli", "qfi", "--config",
         str(SCENARIO_DIR / "qfi_noiseless_pi.json")],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert '"value"' in proc.stdout


def test_sweep_csv_scaling_slope(tmp_path):
    import numpy as np
    out = tmp_path / "sweep.csv"
    cfg = SCENARIO_DIR / "sweep_scaling.json"
    assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    se = np.array([float(r[0]) for r in rows])
    total = np.array([float(r[2]) for r in rows])
    slope = np.polyfit(np.log(se), np.log(total), 1)[0]
    assert 0.4 <= slope <= 0.6
    bounds = {r[5] for r in rows}
    assert len(bounds) == 1   # Markov ceiling constant across the sweep


def test_sweep_shares_one_search_and_one_window_integral(tmp_path,
                                                        monkeypatch):
    from nmqfi import sequential

    calls = {"optimize_tau": [], "interval_terms": []}

    def counted(name):
        fn = getattr(sequential, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sequential, name, counted(name))
    cfg = SCENARIO_DIR / "sweep_scaling.json"
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "s.csv"]) == 0
    n_energies = len(json.loads(cfg.read_text())["options"]["energy_sweep"])
    assert len(calls["optimize_tau"]) == 1
    assert len(calls["optimize_tau"][0][1]) == n_energies
    # the energies' searches integrate each visited interval once
    taus = [args[0].interval for args in calls["interval_terms"]]
    assert taus and len(taus) == len(set(taus))


def test_fixed_tau_sweep_reports_seq_qfi_per_energy(tmp_path):
    from nmqfi import sequential
    from nmqfi.config import load_config
    from nmqfi.metrology import energy_for_script_e
    from nmqfi.response import solve_response

    raw = json.loads((SCENARIO_DIR / "sweep_scaling.json").read_text())
    raw["sequential"] = {"total_window": 1.0, "optimize": False, "tau": 0.05}
    cfg_path = tmp_path / "fixed.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "fixed.csv"
    assert run_cli(["sweep", "--config", cfg_path, "--out", out]) == 0
    cfg = load_config(cfg_path)
    bath = cfg.bath()
    resp = solve_response(bath, cfg.grid(bath))
    scheme = sequential.SequentialScheme(1.0, 0.05)
    for line in out.read_text().splitlines()[1:]:
        se, tau, total = (float(v) for v in line.split(",")[:3])
        want = sequential.seq_qfi(scheme, energy_for_script_e(se), bath, resp,
                                  cfg.force(), cfg.omega0)
        assert tau == 0.05
        assert total == want.total_qfi


def test_energy_and_init_conflict_rejected(tmp_path):
    cfg = tmp_path / "conflict.json"
    cfg.write_text(json.dumps({
        "probe": {"omega0": 1.0, "energy": 2.0, "init": {"kind": "vacuum"}},
    }))
    assert run_cli(["qfi", "--config", cfg]) == 2


def _set(block, **values):
    return lambda raw: raw[block].update(values)


def _force(**block):
    return lambda raw: raw.update(force=block)


_SQUEEZED_OVERFLOW = _set("probe", init={"kind": "squeezed", "r": 400})
# Terabytes of response samples or bath modes: numpy refuses them at once.
# Never test with a size the OS might grant.
_TOO_MANY_STEPS = _set("grid", n_steps=10 ** 12)


def _too_many_modes(raw):
    raw["bath"]["continuum"].update(n_modes=10 ** 12)


# Intervals whose shortest one fits 10^6 + 1 steps into total_window 1.
_PAST_STEP_CAP = [9.99999e-7, 1e-6]
# An integer literal beyond the float range, and a count numpy refuses to
# allocate at once (2^62 elements).
_PAST_FLOAT_RANGE = 10 ** 400
_TOO_BIG_COUNT = 2 ** 62


# Inputs that once escaped as a traceback (exit 1) or a numerical error
# (exit 3), or ran to exit 0 with a NaN in the output, a key ignored or a
# cadence too large to run: (base scenario, subcommand and its flags, edit
# of the parsed file; an edit that returns bytes gives the file's bytes).
OUT_OF_RANGE = {
    "omega0_zero": ("qfi_best_state_resonant", "qfi", _set("probe", omega0=0)),
    "omega0_nan_literal": ("qfi_best_state_resonant", "qfi",
                           _set("probe", omega0=float("nan"))),
    "energy_below_vacuum": ("qfi_best_state_resonant", "qfi",
                            _set("probe", energy=0.1)),
    "t_end_zero": ("response_narrowband", "response", _set("grid", t_end=0)),
    "k_sq_negative": ("response_narrowband", "response",
                      _set("bath", modes=[[-0.25, 1.0, 0.0]])),
    "cutoff_zero": ("correlation_flatband", "correlation",
                    lambda raw: raw["bath"]["continuum"].update(cutoff=0)),
    "total_window_zero": ("sequential_nonmarkov", "sequential",
                          _set("sequential", total_window=0)),
    "tau_negative": ("sequential_nonmarkov", "sequential",
                     _set("sequential", tau=-1, optimize=False)),
    "tau_bounds_reversed": ("sequential_nonmarkov", "sequential",
                            _set("sequential", tau_bounds=[0.2, 0.1])),
    "tau_bounds_past_window": ("sequential_nonmarkov", "sequential",
                               _set("sequential", tau_bounds=[0.01, 1.5])),
    "script_e_below_half": ("sweep_scaling", "sweep",
                            _set("options", energy_sweep=[0.1])),
    "sequential_block_missing": ("sequential_nonmarkov", "sequential",
                                 lambda raw: raw.pop("sequential")),
    "tau_bracket_collapsed": ("sequential_nonmarkov", "sequential",
                              lambda raw: (raw["sequential"].pop("tau_bounds"),
                                           raw["grid"].update(n_steps=2))),
    "gamma_negative": ("limits_narrowband", "limits",
                       _set("options", gamma=-0.1)),
    "n_thermal_negative_half": ("sequential_nonmarkov", "sequential",
                                _set("options", n_thermal=-0.5)),
    "n_thermal_negative": ("sequential_nonmarkov", "sequential",
                           _set("options", n_thermal=-2.0)),
    "optimize_false_without_tau": ("sequential_nonmarkov", "sequential",
                                   lambda raw: (raw["sequential"].pop("tau_bounds"),
                                                raw["sequential"].update(optimize=False))),
    "optimize_true_with_tau": ("sequential_nonmarkov", "sequential",
                               _set("sequential", optimize=True, tau=0.1)),
    "t_prime_negative": ("correlation_flatband", "correlation",
                         _set("options", t_prime=-0.5)),
    # t_end is 12: a lag past it, or one with no room left, has no rows
    "t_prime_past_t_end": ("correlation_flatband", "correlation",
                           _set("options", t_prime=20.0)),
    "t_prime_at_t_end": ("correlation_flatband", "correlation",
                         _set("options", t_prime=12.0)),
    "seed_negative": ("estimate_cramer_rao", "estimate",
                      _set("options", seed=-1)),
    "seed_flag_negative": ("estimate_cramer_rao", "estimate --seed -1",
                           lambda raw: None),
    # probe states whose covariance is too large for floats
    "qfi_squeezed_overflow": ("qfi_noiseless_pi", "qfi", _SQUEEZED_OVERFLOW),
    "estimate_squeezed_overflow": ("estimate_cramer_rao", "estimate",
                                   _SQUEEZED_OVERFLOW),
    "moments_squeezed_overflow": ("moments_resonant_vacuum", "moments",
                                  _SQUEEZED_OVERFLOW),
    "thermal_overflow": ("qfi_noiseless_pi", "qfi",
                         _set("probe", init={"kind": "thermal", "nbar": 1e308})),
    # energies whose script_e overflows, on every subcommand that reads one
    "energy_1e200": ("qfi_best_state_resonant", "qfi", _set("probe", energy=1e200)),
    "energy_1e200_sequential": ("sequential_nonmarkov", "sequential",
                                _set("probe", energy=1e200)),
    "energy_sweep_1e200": ("sweep_scaling", "sweep",
                           _set("options", energy_sweep=[100.0, 1e200])),
    # a bath occupation N = 6e300 whose (N + 1/2)^2 overflows (its noise
    # weight script_n = 6e298 is finite)
    "occupation_overflow": ("qfi_ohmic_thermal", "qfi",
                            lambda raw: raw["bath"]["continuum"].update(
                                occupation={"model": "thermal",
                                            "temperature": 1e300})),
    # cadences past 10^6 steps, on every path that builds one
    "steps_sequential_json": ("sequential_nonmarkov", "sequential",
                              _set("sequential", tau_bounds=_PAST_STEP_CAP)),
    "steps_sequential_csv": ("sequential_nonmarkov", "sequential --format csv",
                             lambda raw: (raw["sequential"].update(
                                 tau_bounds=_PAST_STEP_CAP),
                                 raw["options"].update(report_points=2))),
    "steps_sweep": ("sweep_scaling", "sweep",
                    _set("sequential", tau_bounds=_PAST_STEP_CAP)),
    "steps_fixed_tau": ("sequential_nonmarkov", "sequential",
                        lambda raw: raw.update(sequential={
                            "total_window": 1.0, "tau": _PAST_STEP_CAP[0]})),
    # the default lower bound 8 h = 3.90625e-4 fits 1,024,000 steps into 400
    "steps_default_bracket": ("sequential_nonmarkov", "sequential",
                              lambda raw: raw.update(sequential={
                                  "total_window": 400.0})),
    # arrays too large to allocate, in the response grid or the bath
    "n_steps_1e12_qfi": ("qfi_ohmic_thermal", "qfi", _TOO_MANY_STEPS),
    "n_steps_1e12_response": ("qfi_ohmic_thermal", "response", _TOO_MANY_STEPS),
    "n_modes_1e12_qfi": ("qfi_ohmic_thermal", "qfi", _too_many_modes),
    "n_modes_1e12_response": ("qfi_ohmic_thermal", "response", _too_many_modes),
    # a kind without one of its required keys, or with a key that only
    # another kind of its block takes
    "pulse_without_center": ("qfi_noiseless_pi", "qfi", _force(
        kind="gaussian_pulse", width=0.5)),
    "pulse_without_width": ("qfi_noiseless_pi", "qfi", _force(
        kind="gaussian_pulse", center=1.0)),
    "table_without_times": ("qfi_noiseless_pi", "qfi", _force(
        kind="table", values=[1.0, 1.0])),
    "table_without_values": ("qfi_noiseless_pi", "qfi", _force(
        kind="table", times=[0.0, 4.0])),
    "matrix_without_cov": ("qfi_noiseless_pi", "qfi", _set(
        "probe", init={"kind": "matrix", "mean_re": 0.5})),
    "constant_with_amplitude": ("qfi_noiseless_pi", "qfi",
                                _set("force", amplitude=5)),
    "table_with_value": ("qfi_noiseless_pi", "qfi", _set(
        "force", kind="table", times=[0.0, 4.0], values=[1.0, 1.0])),
    "coherent_with_r_and_nbar": ("moments_detuned_coherent", "moments",
                                 lambda raw: raw["probe"]["init"].update(
                                     r=0.5, nbar=1.0)),
    "vacuum_with_alpha": ("moments_resonant_vacuum", "moments",
                          lambda raw: raw["probe"]["init"].update(
                              alpha_re=1.0)),
    "flat_with_s": ("correlation_flatband", "correlation",
                    lambda raw: raw["bath"]["continuum"].update(s=2.0)),
    "zero_occupation_with_temperature": (
        "qfi_ohmic_thermal", "qfi",
        lambda raw: raw["bath"]["continuum"].update(
            occupation={"model": "zero", "temperature": 0.8})),
    "thermal_occupation_with_value": (
        "qfi_ohmic_thermal", "qfi",
        lambda raw: raw["bath"]["continuum"]["occupation"].update(value=1.0)),
    "thermal_occupation_without_temperature": (
        "qfi_ohmic_thermal", "qfi",
        lambda raw: raw["bath"]["continuum"].update(
            occupation={"model": "thermal"})),
    # the exclusive and inclusive edges of single-key bounds
    "tau_zero": ("sequential_nonmarkov", "sequential",
                 _set("sequential", tau=0, optimize=False)),
    "gamma_just_below_zero": ("limits_narrowband", "limits",
                              _set("options", gamma=-1e-300)),
    # files the JSON parser cannot read: not UTF-8, nested past its
    # recursion limit, an integer past int()'s 4,300-digit limit
    "not_utf8": ("qfi_noiseless_pi", "qfi", lambda raw: b"\xff\xfe{}"),
    "nested_too_deep": ("qfi_noiseless_pi", "qfi",
                        lambda raw: b"[" * 1500 + b"]" * 1500),
    "integer_past_digit_limit": (
        "qfi_noiseless_pi", "qfi", lambda raw: json.dumps(raw).replace(
            '"t0": 0.0', '"t0": 1' + "0" * 5000).encode()),
    # integer literals beyond the float range
    "t_end_past_float_range": ("qfi_noiseless_pi", "qfi",
                               _set("grid", t_end=_PAST_FLOAT_RANGE)),
    "omega0_past_float_range": ("qfi_noiseless_pi", "qfi",
                                _set("probe", omega0=_PAST_FLOAT_RANGE)),
    "mode_past_float_range": ("response_narrowband", "response", _set(
        "bath", modes=[[0.25, 1.0, _PAST_FLOAT_RANGE]])),
    "total_window_past_float_range": (
        "sequential_nonmarkov", "sequential",
        _set("sequential", total_window=_PAST_FLOAT_RANGE)),
    "force_amplitude_past_float_range": (
        "estimate_cramer_rao", "estimate",
        _set("options", force_amplitude=_PAST_FLOAT_RANGE)),
    "nu_past_float_range": ("estimate_cramer_rao", "estimate",
                            _set("options", nu=_PAST_FLOAT_RANGE)),
    # counts past 2^53, which numpy refused with a traceback
    "n_steps_2e62": ("moments_resonant_vacuum", "moments",
                     _set("grid", n_steps=_TOO_BIG_COUNT)),
    "replications_2e62": ("estimate_cramer_rao", "estimate",
                          _set("options", replications=_TOO_BIG_COUNT)),
    "report_points_2e62_moments": ("moments_resonant_vacuum", "moments",
                                   _set("options", report_points=_TOO_BIG_COUNT)),
    "report_points_2e62_correlation": (
        "correlation_flatband", "correlation",
        _set("options", report_points=_TOO_BIG_COUNT)),
    "report_points_2e62_sequential_csv": (
        "sequential_nonmarkov", "sequential --format csv",
        _set("options", report_points=_TOO_BIG_COUNT)),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_input_is_a_config_error(case, tmp_path, capsys):
    base, sub, edit = OUT_OF_RANGE[case]
    raw = json.loads((SCENARIO_DIR / f"{base}.json").read_text())
    text = edit(raw)
    cfg = tmp_path / "probe.json"
    cfg.write_bytes(text if isinstance(text, bytes) else json.dumps(raw).encode())
    assert run_cli([*sub.split(), "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:")
    assert len(err.splitlines()) == 1


# Windows and cadence intervals longer than grid.t_end, and a window that
# ends before it starts, which once exited 3 (or 2) only after the march:
# (base scenario, subcommand and its flags, edit of the parsed file).
PAST_THE_GRID = {
    "qfi_window": ("qfi_ohmic_thermal", "qfi", _set("window", t=7.0)),
    "moments_window": ("moments_detuned_coherent", "moments",
                       _set("window", t=6.5)),
    "estimate_window": ("estimate_cramer_rao", "estimate",
                        _set("window", t=4.5)),
    "qfi_window_single_mode": ("qfi_noiseless_pi", "qfi", lambda raw: (
        raw.clear(), raw.update({
            "probe": {"omega0": 1.0},
            "bath": {"modes": [[0.25, 1.0, 0.0]]},
            "force": {"kind": "constant", "value": 1.0,
                      "support": [0.0, 100.0]},
            "grid": {"t_end": 1.0, "n_steps": 64},
            "window": {"t0": 0.0, "t": 5.0}}))),
    "sequential_tau": ("sequential_nonmarkov", "sequential",
                       lambda raw: raw.update(sequential={
                           "total_window": 1.0, "tau": 0.45})),
    "sequential_tau_bounds_json": ("sequential_nonmarkov", "sequential",
                                   _set("grid", t_end=0.2)),
    "sequential_tau_bounds_csv": ("sequential_nonmarkov",
                                  "sequential --format csv",
                                  _set("grid", t_end=0.2)),
    "sweep_tau_bounds": ("sweep_scaling", "sweep",
                         _set("sequential", tau_bounds=[0.01, 0.5])),
    "window_reversed": ("qfi_noiseless_pi", "qfi",
                        _set("window", t0=2.0, t=1.0)),
}


@pytest.mark.parametrize("case", sorted(PAST_THE_GRID))
def test_window_past_the_grid_is_refused_before_the_march(case, tmp_path,
                                                         capsys, monkeypatch):
    from nmqfi import response

    def march(*args):
        raise AssertionError("the response was solved")

    monkeypatch.setattr(response, "solve_response", march)
    base, sub, edit = PAST_THE_GRID[case]
    raw = json.loads((SCENARIO_DIR / f"{base}.json").read_text())
    edit(raw)
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(raw))
    assert run_cli([*sub.split(), "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:")
    assert len(err.splitlines()) == 1


def _run_json(tmp_path, capsys, base, sub, edit):
    """The parsed stdout of a run of base edited by edit, which exits 0."""
    raw = json.loads((SCENARIO_DIR / f"{base}.json").read_text())
    edit(raw)
    cfg = tmp_path / "edited.json"
    cfg.write_text(json.dumps(raw))
    assert run_cli([sub, "--config", cfg]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return json.loads(out)


def test_energy_1e100_reaches_the_best_state_closed_form(tmp_path, capsys):
    # value = |D|^2 / (|G|^2 / (4 script_e) + n_B), script_e = 2e100
    from nmqfi.config import load_config
    from nmqfi.probe import displacement, window_terms
    from nmqfi.response import solve_response

    got = _run_json(tmp_path, capsys, "qfi_best_state_resonant", "qfi",
                    _set("probe", energy=1e100))
    cfg = load_config(SCENARIO_DIR / "qfi_best_state_resonant.json")
    bath = cfg.bath()
    resp = solve_response(bath, cfg.grid(bath))
    w = window_terms(resp, cfg.window())
    d = displacement(resp, cfg.force(), cfg.window())
    want = abs(d) ** 2 / (abs(w.g) ** 2 / (4.0 * 2e100) + w.n_b)
    assert got["value"] == pytest.approx(want, rel=1e-12)


def _empty_bath(raw):
    raw["bath"] = {"modes": []}


def _energy_probe(raw):
    raw["probe"] = {"omega0": raw["probe"]["omega0"], "energy": 0.5}


BEST_STATE_SCENARIOS = {
    "resonant": ("qfi_best_state_resonant", _energy_probe),
    "ohmic_thermal": ("qfi_ohmic_thermal", _energy_probe),
    "empty_bath": ("qfi_best_state_resonant",
                   lambda raw: (_energy_probe(raw), _empty_bath(raw))),
}


@pytest.mark.parametrize("case", sorted(BEST_STATE_SCENARIOS))
def test_best_state_runs_at_every_energy(case, tmp_path, capsys):
    # qfi and estimate exit 0 from the vacuum energy (the inclusive edge of
    # probe.energy >= 1/2) to 1e30, and the Cramer-Rao bound of estimate is
    # 1 / (nu QFI) of qfi
    base, edit = BEST_STATE_SCENARIOS[case]
    for energy in (0.5, 1e4, 1e5, 1e6, 1e10, 1e14, 1e30):
        def at_energy(raw):
            edit(raw)
            raw["probe"]["energy"] = energy

        qfi = _run_json(tmp_path, capsys, base, "qfi", at_energy)
        est = _run_json(tmp_path, capsys, base, "estimate", at_energy)
        assert est["crb"] == pytest.approx(1.0 / (est["nu"] * qfi["value"]),
                                           rel=1e-12)


@pytest.mark.parametrize("r", [10.0, 15.0, 20.0, 30.0])
def test_aligned_squeezed_qfi_is_exact(r, tmp_path, capsys):
    # the noiseless window has G = 1 and D = 2i, so the axis pi/2 is
    # phase(D) - phase(G): the QFI is |D|^2 Var X(pi/2) / det = |D|^2 2 e^{2r}
    got = _run_json(tmp_path, capsys, "qfi_noiseless_pi", "qfi", _set(
        "probe", init={"kind": "squeezed", "r": r, "axis_angle": np.pi / 2}))
    assert got["form"] == "aligned"
    assert got["value"] == pytest.approx(
        got["abs_d"] ** 2 * 2.0 * np.exp(2.0 * r), rel=1e-12)


def _init(**state):
    return _set("probe", init=state)


# (base scenario, edit): prepared states on the noiseless window, the
# misaligned squeezed state of qfi_ohmic_thermal, and a best state
ESTIMATE_STATES = {
    "vacuum": ("estimate_cramer_rao", lambda raw: None),
    "coherent": ("estimate_cramer_rao",
                 _init(kind="coherent", alpha_re=0.7, alpha_im=-0.4)),
    "thermal": ("estimate_cramer_rao", _init(kind="thermal", nbar=1.5)),
    "squeezed_aligned": ("estimate_cramer_rao", _init(
        kind="squeezed", r=20.0, axis_angle=np.pi / 2)),
    "squeezed_misaligned": ("qfi_ohmic_thermal", lambda raw: None),
    "matrix": ("estimate_cramer_rao", _init(
        kind="matrix", cov=[[1.2, 0.3], [0.3, 0.9]], mean_re=0.2)),
    "energy": ("qfi_best_state_resonant", lambda raw: None),
}


@pytest.mark.parametrize("case", sorted(ESTIMATE_STATES))
def test_estimate_bound_is_the_qfi_of_its_state(case, tmp_path, capsys):
    base, edit = ESTIMATE_STATES[case]
    qfi = _run_json(tmp_path, capsys, base, "qfi", edit)
    est = _run_json(tmp_path, capsys, base, "estimate", edit)
    assert est["crb"] == pytest.approx(1.0 / (est["nu"] * qfi["value"]),
                                       rel=1e-12)


def test_table_support_is_honoured(tmp_path, capsys):
    # a flat table of 1 cut to [0, pi/2] is the constant force of that
    # support, and one held past its last sample to [0, pi] the constant
    # force of the scenario
    def table(support):
        return _force(kind="table", times=[0.0, 1.0], values=[1.0, 1.0],
                      support=support)

    for support in ([0.0, np.pi / 2], [0.0, np.pi]):
        got = _run_json(tmp_path, capsys, "qfi_noiseless_pi", "qfi",
                        table(support))
        want = _run_json(tmp_path, capsys, "qfi_noiseless_pi", "qfi", _set(
            "force", support=support))
        assert got["abs_d"] == pytest.approx(want["abs_d"], rel=1e-9)


@pytest.mark.parametrize("r", [6.0, 8.0])
@pytest.mark.parametrize("sub", ["moments", "qfi"])
def test_strongly_squeezed_init_runs(sub, r, tmp_path, capsys):
    raw = json.loads((SCENARIO_DIR / "moments_detuned_coherent.json")
                     .read_text())
    raw["probe"]["init"] = {"kind": "squeezed", "r": r, "axis_angle": 0.3}
    cfg = tmp_path / "squeezed.json"
    cfg.write_text(json.dumps(raw))
    assert run_cli([sub, "--config", cfg]) == 0
    assert capsys.readouterr().err == ""


def test_overflowing_number_is_a_config_error(tmp_path, capsys):
    text = (SCENARIO_DIR / "qfi_best_state_resonant.json").read_text()
    cfg = tmp_path / "probe.json"
    cfg.write_text(text.replace('"t": 1.7', '"t": 1e400'))
    assert run_cli(["qfi", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_json_output_that_overflows_is_a_numerical_error(tmp_path, capsys):
    # a finite thermal state whose det_sigma overflows: exit 3, no Infinity,
    # and the one error line is all of stderr (pytest turns a numpy
    # RuntimeWarning into an error)
    raw = json.loads((SCENARIO_DIR / "qfi_best_state_resonant.json").read_text())
    raw["probe"] = {"omega0": 1.0, "init": {"kind": "thermal", "nbar": 1e200}}
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(raw))
    assert run_cli(["qfi", "--config", cfg]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical error:")
    assert len(err.splitlines()) == 1


def _thermal_qfi_run(tmp_path, occupation):
    raw = json.loads((SCENARIO_DIR / "qfi_ohmic_thermal.json").read_text())
    raw["bath"]["continuum"]["occupation"] = occupation
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(raw))
    return run_cli(["qfi", "--config", cfg])


def test_near_zero_temperature_is_the_zero_temperature_limit(tmp_path, capsys):
    # 1/expm1(omega/T) overflows to the exact limit 0 without a warning on
    # stderr (pytest turns a numpy RuntimeWarning into an error)
    assert _thermal_qfi_run(tmp_path, {"model": "zero"}) == 0
    zero = capsys.readouterr().out
    assert _thermal_qfi_run(tmp_path, {"model": "thermal",
                                       "temperature": 1e-300}) == 0
    assert capsys.readouterr() == (zero, "")


def _flat_continuum(raw):
    # the noise weight N is about 1e-299 > 0, and N ** 1.5 underflows to 0
    raw["bath"] = {"continuum": {
        "family": "flat", "scale": 2.7, "cutoff": 1e-300, "n_modes": 11,
        "occupation": {"model": "constant", "value": 2.4}}}


# Float arithmetic that fails inside the engine: (base scenario,
# subcommand, edit of the parsed file, the quantity the message names).
ARITHMETIC_FAILURES = {
    # the pulse is 28 widths past the window: |D|^2 underflows to 0
    "fisher_information_underflows_estimate": (
        "estimate_cramer_rao", "estimate",
        lambda raw: raw.update(force={"kind": "gaussian_pulse", "center": 4,
                                      "width": 0.125},
                               window={"t0": 0, "t": 0.5}),
        "Fisher information"),
    "constant_force_squared_overflows": (
        "sequential_nonmarkov", "sequential", _set("force", value=1e200),
        "force amplitude"),
    "sinusoid_amplitude_squared_overflows": (
        "sequential_nonmarkov", "sequential",
        _force(kind="sinusoid", amplitude=1e300, support=[0.0, 100.0]),
        "force amplitude"),
    "table_value_squared_overflows": (
        "sequential_nonmarkov", "sequential",
        lambda raw: raw.update(force={"kind": "table", "times": [0, 0.5, 1],
                                      "values": [0, 1e300, 0]}),
        "force amplitude"),
    "asymptotic_noise_power_underflows_sweep": (
        "sweep_scaling", "sweep", _flat_continuum, "noise weight"),
    "asymptotic_noise_power_underflows_sequential": (
        "sequential_nonmarkov", "sequential", _flat_continuum, "noise weight"),
}


@pytest.mark.parametrize("case", sorted(ARITHMETIC_FAILURES))
def test_arithmetic_failure_is_a_numerical_error(case, tmp_path, capsys):
    base, sub, edit, quantity = ARITHMETIC_FAILURES[case]
    raw = json.loads((SCENARIO_DIR / f"{base}.json").read_text())
    edit(raw)
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(raw))
    assert run_cli([sub, "--config", cfg]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical error:")
    assert len(err.splitlines()) == 1
    assert quantity in err


def test_nan_cadence_bound_stops_before_the_teeth(monkeypatch):
    # an empty bath and an overflowing energy make the best-state variance
    # 0, and a zero force makes every total and bound 0 / 0; a scenario
    # file cannot give that energy (it exits 2), so optimize_tau is called
    from nmqfi import sequential
    from nmqfi.bath import DiscreteBath
    from nmqfi.force import constant
    from nmqfi.response import TimeGrid, solve_response

    resp = solve_response(DiscreteBath([], [], [], 1.0), TimeGrid(0.4, 8192))
    intervals = []
    real = sequential.interval_terms

    def counted(scheme, *args):
        intervals.append(scheme.interval)
        return real(scheme, *args)

    monkeypatch.setattr(sequential, "interval_terms", counted)
    with pytest.raises(NmqfiError, match=r"^cadence total or its bound is "
                                         r"nan at energy 1e\+300$"):
        sequential.optimize_tau(1.0, 1e300, resp, constant(0.0, (0.0, 100.0)),
                                (0.004, 0.3))
    assert intervals == [0.3, 0.004]       # the bracket ends only


def test_csv_output_that_overflows_is_a_numerical_error(tmp_path, capsys):
    # the same state's det_sigma column: exit 3, no inf cell, no file
    raw = json.loads((SCENARIO_DIR / "qfi_best_state_resonant.json").read_text())
    raw["probe"] = {"omega0": 1.0, "init": {"kind": "thermal", "nbar": 1e200}}
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(raw))
    assert run_cli(["moments", "--config", cfg]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical error:")
    assert len(err.splitlines()) == 1
    assert run_cli(["moments", "--config", cfg, "--out", tmp_path / "m.csv"]) == 3
    assert not (tmp_path / "m.csv").exists()


def test_table_force_with_interior_knots(tmp_path):
    # kinks at 0.3 and 0.7 inside the window [0, pi] of a noiseless probe:
    # |D| against the segment-by-segment closed form
    times, values = [0.0, 0.3, 0.7, 4.0], [0.0, 2.0, -1.0, 0.5]
    raw = json.loads((SCENARIO_DIR / "qfi_noiseless_pi.json").read_text())
    raw["force"] = {"kind": "table", "times": times, "values": values}
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "qfi.json"
    assert run_cli(["qfi", "--config", cfg, "--out", out]) == 0
    want = abs(noiseless_table_displacement(times, values, (0.0, np.pi)))
    assert json.loads(out.read_text())["abs_d"] == pytest.approx(want, rel=1e-9)
    assert run_cli(["moments", "--config", cfg, "--out", tmp_path / "m.csv"]) == 0


@pytest.mark.parametrize("base,sub", [("sequential_nonmarkov", "sequential"),
                                      ("sweep_scaling", "sweep")])
def test_table_force_with_interior_knots_runs_a_cadence(base, sub, tmp_path):
    # the slope jumps at the knots 0.3 and 0.7 inside T; xi and C are
    # exact per segment, so the run exits 0
    raw = json.loads((SCENARIO_DIR / f"{base}.json").read_text())
    raw["force"] = {"kind": "table", "times": [0.0, 0.3, 0.7, 4.0],
                    "values": [0.0, 2.0, -1.0, 0.5]}
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli([sub, "--config", cfg, "--out", out]) == 0
    if sub == "sequential":
        assert json.loads(out.read_text())["xi"] > 0.0


@pytest.mark.parametrize("cadence", [
    {"optimize": False, "tau": 1e-7}, {"tau_bounds": [1e-7, 0.3]}],
    ids=["tau", "tau_bounds"])
def test_cadence_config_error_precedes_the_window_integrals(tmp_path, capsys,
                                                            cadence):
    # a cadence of more than 10^6 steps is rejected before any step or
    # window integral of the table force is computed
    raw = json.loads((SCENARIO_DIR / "sequential_nonmarkov.json").read_text())
    raw["force"] = {"kind": "table", "times": [0.0, 0.3, 0.7, 4.0],
                    "values": [0.0, 2.0, -1.0, 0.5]}
    raw["sequential"] = {"total_window": 1.0, **cadence}
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps(raw))
    assert run_cli(["sequential", "--config", cfg]) == 2
    assert "more than 1000000 steps" in capsys.readouterr().err


def test_csv_cells_read_none_as_nan_and_reject_other_non_finite_values():
    table = cli._cells([(1.0, None), (2.0, 3.0)])
    assert np.isnan(table[0, 1]) and table[1].tolist() == [2.0, 3.0]
    for rows in ([(1.0, float("inf"))], [(float("nan"), None)],
                 np.array([[1.0, np.nan]])):
        with pytest.raises(NmqfiError):
            cli._cells(rows)


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    cfg = SCENARIO_DIR / "qfi_noiseless_pi.json"
    assert run_cli(["qfi", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write")
    assert not out.parent.exists()


# Runs of qfi_noiseless_pi that fail: (edit of the parsed file, exit code)
FAILING_RUNS = {
    "config_error": (_set("probe", omega0=0), 2),
    "numerical_error": (_set("probe", init={"kind": "thermal", "nbar": 1e200}),
                        3),   # det_sigma overflows
    "too_large_to_allocate": (_TOO_MANY_STEPS, 2),
}


@pytest.mark.parametrize("case", sorted(FAILING_RUNS))
def test_failed_run_creates_no_out_file_and_keeps_an_existing_one(case,
                                                                  tmp_path):
    edit, code = FAILING_RUNS[case]
    raw = json.loads((SCENARIO_DIR / "qfi_noiseless_pi.json").read_text())
    edit(raw)
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(raw))
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("earlier output\n")
    assert run_cli(["qfi", "--config", cfg, "--out", fresh]) == code
    assert run_cli(["qfi", "--config", cfg, "--out", kept]) == code
    assert not fresh.exists()
    assert kept.read_text() == "earlier output\n"


def _seed_flag_matches_option(tmp_path, seed):
    raw = json.loads((SCENARIO_DIR / "estimate_cramer_rao.json").read_text())
    raw["options"]["seed"] = seed
    cfg = tmp_path / "seeded.json"
    cfg.write_text(json.dumps(raw))
    by_flag, by_option = tmp_path / "flag.json", tmp_path / "option.json"
    base = SCENARIO_DIR / "estimate_cramer_rao.json"
    assert run_cli(["estimate", "--config", base, "--seed", str(seed),
                    "--out", by_flag]) == 0
    assert run_cli(["estimate", "--config", cfg, "--out", by_option]) == 0
    assert by_flag.read_bytes() == by_option.read_bytes()
    assert json.loads(by_flag.read_text())["seed"] == seed


def test_seed_flag_is_the_seed_option(tmp_path):
    _seed_flag_matches_option(tmp_path, 3)


def test_seed_zero_runs(tmp_path):
    # 0 is the inclusive edge of options.seed >= 0 (and the default seed)
    _seed_flag_matches_option(tmp_path, 0)


def test_sweep_keeps_a_zero_asymptotic_total(tmp_path, capsys):
    # a force outside the total window has xi = C = 0: the asymptotic total
    # is exactly 0.0, which sweep must print as 0, not as an absent value
    raw = json.loads((SCENARIO_DIR / "sweep_scaling.json").read_text())
    raw["force"]["support"] = [5.0, 6.0]
    raw["sequential"]["total_window"] = 2.0
    cfg = tmp_path / "outside.json"
    cfg.write_text(json.dumps(raw))
    assert run_cli(["sequential", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["total_qfi_asymptotic"] == 0.0
    assert run_cli(["sweep", "--config", cfg]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    column = header.split(",").index("total_qfi_asymptotic")
    assert rows and all(row.split(",")[column] == "0" for row in rows)


def test_pytest_runs_from_a_checkout_without_pythonpath():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider", "--collect-only",
                           "tests/test_quad.py"],
                          cwd=SCENARIO_DIR.parent, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_import_loads_no_schema_library_or_thread_pool():
    code = ("import sys, nmqfi.cli; print(sorted({'jsonschema', "
            "'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_force_jobs_do_not_import_numpy_ma():
    # numpy.ma costs about 15 ms to import; no engine path needs it
    qfi, cadence = (str(SCENARIO_DIR / name) for name in (
        "qfi_noiseless_pi.json", "sequential_nonmarkov.json"))
    code = ("import sys; from nmqfi.cli import main; "
            f"main(['qfi', '--config', {qfi!r}]); "
            f"main(['sequential', '--config', {cadence!r}]); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SCENARIO_DIR.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.splitlines()[-1] == "False"
    assert '"form": "aligned"' in proc.stdout and '"total_qfi"' in proc.stdout


def test_format_mismatch_rejected():
    cfg = SCENARIO_DIR / "response_narrowband.json"
    assert run_cli(["response", "--config", cfg, "--format", "json"]) == 2


def test_moments_csv_variance_identity(tmp_path):
    out = tmp_path / "moments.csv"
    cfg = SCENARIO_DIR / "moments_resonant_vacuum.json"
    assert run_cli(["moments", "--config", cfg, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,theta,mean,var_x,var_p,det_sigma,n_b"
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        assert abs(vals[3] - 0.5) <= 5e-6     # vacuum-resonant variance
        assert abs(vals[5] - 0.25) <= 5e-6    # determinant stays pure
        assert vals[6] >= -1e-15              # noise term nonnegative


def test_moments_makes_one_displacement_call(tmp_path, monkeypatch):
    calls = []
    real = cli.probe.displacement

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.probe, "displacement", counted)
    out = tmp_path / "moments.csv"
    cfg = SCENARIO_DIR / "moments_detuned_coherent.json"
    assert run_cli(["moments", "--config", cfg, "--out", out]) == 0
    assert len(calls) == 1
    n_rows = len(out.read_text().splitlines()) - 1
    assert np.size(calls[0][1]) == n_rows       # one window per report time


def _misaligned(raw):
    del raw["probe"]["energy"]
    raw["probe"]["init"] = {"kind": "squeezed", "r": 0.6, "axis_angle": 1.2}


# (base scenario, subcommand, edit): each run reads one window record, the
# moments run one record of all its report times
WINDOW_RUNS = {
    "qfi_energy": ("qfi_best_state_resonant", "qfi", lambda raw: None),
    "qfi_misaligned": ("qfi_best_state_resonant", "qfi", _misaligned),
    "estimate_energy": ("estimate_cramer_rao", "estimate",
                        _set("probe", energy=3.0)),
    "moments_every_report_time": ("moments_detuned_coherent", "moments",
                                  lambda raw: None),
}


@pytest.mark.parametrize("case", sorted(WINDOW_RUNS))
def test_window_terms_are_computed_once(case, tmp_path, monkeypatch):
    base, sub, edit = WINDOW_RUNS[case]
    raw = json.loads((SCENARIO_DIR / f"{base}.json").read_text())
    edit(raw)
    cfg = tmp_path / "window.json"
    cfg.write_text(json.dumps(raw))
    calls = {"displacement": 0, "noise_term": 0}
    for name in calls:
        real = getattr(sys.modules["nmqfi.probe"], name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("nmqfi.") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    out = tmp_path / "out.json"
    assert run_cli([sub, "--config", cfg, "--out", out]) == 0
    assert calls == {"displacement": 1, "noise_term": 1}
    if case == "qfi_misaligned":
        assert json.loads(out.read_text())["form"] == "general"


def test_moments_memory_stays_bounded(tmp_path):
    # the 23 report windows run from 0 to 11 time units; refined together
    # to the panel count of the longest one, they peaked near 15 MB
    out = tmp_path / "moments.csv"
    cfg = SCENARIO_DIR / "moments_resonant_vacuum.json"
    tracemalloc.start()
    try:
        assert run_cli(["moments", "--config", cfg, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("as_array", [True, False], ids=["array", "tuples"])
def test_csv_writer_matches_per_cell_format(as_array):
    # 2500 rows cross the 1024-row block twice and end in a partial block
    rng = np.random.default_rng(8)
    table = rng.normal(size=(2500, 5)) * 10.0 ** rng.integers(-300, 301,
                                                               (2500, 5))
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308,
               0.0, 7.0, -3.0, 2.0 ** 60]
    table.ravel()[rng.choice(table.size, 400, replace=False)] = np.resize(
        special, 400)
    rows = [tuple(int(v) if float(v).is_integer() and 1 <= abs(v) < 2 ** 63
                  else v for v in row) for row in table]
    assert any(isinstance(v, int) for row in rows for v in row)
    header = ["a", "b", "c", "d", "e"]
    buf = io.StringIO()
    cli._write_csv(buf, header, table if as_array else rows)
    want = [",".join(header)] + [",".join(format(float(v), ".17g")
                                         for v in row) for row in rows]
    got = buf.getvalue().split("\n")
    assert got[-1] == ""                        # every line ends in \n
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) + 1 and not bad, bad[:3]
