"""CLI: scenario execution, determinism, formats, exit codes."""

import ast
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import failures
from conftest import (CHILD_ENV, SCENARIO_DIR, check_case, command_format,
                      corpus_test, noiseless_table_displacement)
from failures import replace_force, success, update
from nmqfi import cli
from nmqfi.cli import main
from nmqfi.errors import NmqfiError


def run_cli(args):
    return main([str(a) for a in args])


# Each success table runs as one test, one test id per case; check_case
# asserts exit 0, no stderr and no warning, finite numbers and a rerun that
# prints the same bytes. The shipped runs keep the ids of the scenario
# files.
test_every_scenario_runs_and_reruns_identically = corpus_test(failures.SHIPPED)
test_force_variant_runs_and_reruns_identically = corpus_test(
    failures.FORCE_VARIANTS)
test_state_variant_runs_and_reruns_identically = corpus_test(
    failures.STATE_VARIANTS)


def test_every_scenario_and_subcommand_has_a_success_case():
    # and each subcommand is refused every format it does not emit
    emits = {sub: tuple(f for s, f in cli._SUBCOMMANDS if s == sub)
             for sub, _ in cli._SUBCOMMANDS}
    assert failures.EMITS == emits
    successes = [case for case in failures.CORPUS.values() if case.code == 0]
    assert {path.stem for path in SCENARIO_DIR.glob("*.json")} <= {
        case.base for case in successes}
    assert set(cli._SUBCOMMANDS) <= {command_format(case.command)
                                     for case in successes}
    refused = {(case.command, case.code, case.line)
               for case in failures.CORPUS.values()}
    assert [(sub, fmt) for sub in emits for fmt in ("csv", "json")
            if fmt not in emits[sub] and (
                f"{sub} --format {fmt}", 2, f"config error: subcommand {sub} "
                f"emits {'/'.join(emits[sub])} only") not in refused] == []


def test_noiseless_pi_scenario_value(tmp_path):
    out = tmp_path / "qfi.json"
    cfg = SCENARIO_DIR / "qfi_noiseless_pi.json"
    assert run_cli(["qfi", "--config", cfg, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["form"] == "aligned"
    assert abs(payload["value"] - 8.0) <= 1e-9
    assert abs(payload["abs_d"] - 2.0) <= 1e-9
    # its empty modes table gives three empty float columns
    bath = cli.config.load_config(cfg).bath()
    for column in (bath.coupling_sq, bath.frequencies, bath.occupations):
        assert column.shape == (0,) and column.dtype == float


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
def test_estimate_error_is_kept_at_a_large_force(force, tmp_path,
                                                 monkeypatch):
    # each error sqrt(crb) z lies far below the force's last digit, so the
    # draw f + sqrt(crb) z rounds back to f; the MSE reads the errors
    payload = _run_json(tmp_path, monkeypatch, "estimate_cramer_rao", "estimate",
                        update("options", force_amplitude=force))
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


def _scan(tmp_path, budget=None):
    """The bytes of the sequential_nonmarkov CSV scan and the step windows
    of each of its displacement calls. A budget is set as
    sequential.MAX_STEPS once the bracket has passed the step cap, which
    reads the same constant."""
    from nmqfi import sequential

    calls = []
    real_disp, real_cadence = sequential.displacement, cli._cadence

    def counted(*args, **kwargs):
        calls.append(np.size(args[2][1]))
        return real_disp(*args, **kwargs)

    def cadence(*args, **kwargs):
        found = real_cadence(*args, **kwargs)
        if budget is not None:
            mp.setattr(sequential, "MAX_STEPS", budget)
        return found

    out = tmp_path / "scan.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequential, "displacement", counted)
        mp.setattr(cli, "_cadence", cadence)
        assert run_cli(["sequential", "--config",
                        SCENARIO_DIR / "sequential_nonmarkov.json", "--out",
                        out, "--format", "csv"]) == 0
    return out.read_bytes(), calls


def test_sequential_scan_makes_one_displacement_call(tmp_path):
    # the 33 report intervals are one interval_terms table, whose rows
    # equal one interval_terms call per interval bit for bit
    from nmqfi import sequential
    from nmqfi.config import load_config
    from nmqfi.response import solve_response

    text, calls = _scan(tmp_path)
    rows = [[float(v) for v in line.split(",")]
            for line in text.decode().splitlines()[1:]]
    assert len(rows) == 33 and len(calls) == 1
    cfg = load_config(SCENARIO_DIR / "sequential_nonmarkov.json")
    bath = cfg.bath()
    resp = solve_response(bath, cfg.grid(bath))
    total = cfg.raw["sequential"]["total_window"]
    steps = 0
    for tau, total_qfi in rows:
        w, = sequential.interval_terms(total, [tau], resp, cfg.force())
        assert total_qfi == sequential.seq_result(w, cfg.energy()).total_qfi
        steps += w.disp.size
    assert calls == [steps]


def test_sequential_reads_each_tooth_from_its_lattice(monkeypatch, capsys):
    # the cadence optimum evaluates n_B of the tooth lattice and of both
    # bracket ends, one noise_term call each; a tooth the search visits
    # takes its G and n_B from the lattice
    from nmqfi import probe

    calls = []
    real = probe.noise_term

    def counted(*args, **kwargs):
        calls.append(np.size(args[1][1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(probe, "noise_term", counted)
    assert run_cli(["sequential", "--config",
                    SCENARIO_DIR / "sequential_nonmarkov.json"]) == 0
    assert calls[1] == 2 and len(calls) == 2
    capsys.readouterr()


def test_scan_calls_hold_at_most_max_steps_windows(tmp_path):
    # at a budget of 64 the 250 steps of the lower end span four calls;
    # every window keeps its value, so the scan keeps its bytes
    from nmqfi import sequential

    whole, (steps,) = _scan(tmp_path)
    batched, calls = _scan(tmp_path, budget=64)
    assert batched == whole
    assert max(calls) == 64 and sum(calls) == steps
    assert len(calls) == -(-steps // 64)
    # the step cap's refusals read the same constant, unpatched
    for name in ("sequential_tau_step_cap", "sequential_tau_bounds_step_cap",
                 "table_tau_step_cap", "table_tau_bounds_step_cap"):
        assert (f"has more than {sequential.MAX_STEPS} steps"
                in failures.PAST_THE_GRID[name].line)


def test_missing_block_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"probe": {"omega0": 1.0}}))
    assert run_cli(["qfi", "--config", cfg]) == 2


def _underflow_config(tmp_path) -> Path:
    # the pulse is 28 widths past the window: the Fisher information
    # underflows to 0 inside the engine -> numerical error -> exit 3
    cfg = tmp_path / "underflow.json"
    cfg.write_bytes(failures.scenario_bytes(failures.ARITHMETIC_FAILURES[
        "fisher_information_underflows_estimate"], SCENARIO_DIR))
    return cfg


def test_numerical_error_exit_code(tmp_path):
    assert run_cli(["estimate", "--config", _underflow_config(tmp_path)]) == 3


def _console_script() -> tuple[str, str]:
    """The module and function that pyproject's `nmqfi` script calls."""
    tomllib = pytest.importorskip("tomllib")
    with open(SCENARIO_DIR.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["nmqfi"]
    module, function = target.split(":")
    return module, function


def test_console_script_is_the_function_the_module_runs():
    import ast
    module, function = _console_script()
    assert module == "nmqfi.cli"
    tree = ast.parse(Path(cli.__file__).read_text())
    block, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(block) == (
        f"if __name__ == '__main__':\n    sys.exit({function}())")


@pytest.mark.parametrize("code", [0, 2, 3], ids=lambda c: f"exit_{c}")
def test_console_script_runs_as_the_module_does(code, tmp_path):
    module, function = _console_script()
    config = {0: SCENARIO_DIR / "qfi_noiseless_pi.json",
              2: tmp_path / "missing.json",
              3: _underflow_config(tmp_path)}[code]
    sub = "estimate" if code == 3 else "qfi"
    runs = [subprocess.run(
        [sys.executable, *launch, sub, "--config", str(config)],
        capture_output=True, text=True, check=False, env=CHILD_ENV)
        for launch in (["-m", "nmqfi.cli"], ["-c", (
            f"import sys; from {module} import {function}; "
            f"sys.exit({function}())")])]
    module_run, script_run = [(r.returncode, r.stdout, r.stderr)
                              for r in runs]
    assert script_run == module_run
    assert module_run[0] == code
    assert ('"value"' in module_run[1]) == (code == 0)


def test_entry_runs_main_without_the_collector_and_freezes_the_heap():
    probe = ("import gc, sys; from nmqfi.cli import entry; code = entry(); "
             "print(gc.isenabled(), gc.get_freeze_count() > 0, code, "
             "file=sys.stderr)")
    proc = subprocess.run(
        [sys.executable, "-c", probe, "qfi", "--config",
         str(SCENARIO_DIR / "qfi_noiseless_pi.json")],
        capture_output=True, text=True, check=False, env=CHILD_ENV)
    assert proc.returncode == 0 and '"value"' in proc.stdout
    assert proc.stderr == "False True 0\n"


def test_main_leaves_the_collector_as_it_is(tmp_path, capsys):
    import gc
    before = gc.isenabled(), gc.get_freeze_count()
    assert run_cli(["qfi", "--config",
                    SCENARIO_DIR / "qfi_noiseless_pi.json"]) == 0
    assert run_cli(["qfi", "--config", tmp_path / "missing.json"]) == 2
    assert run_cli(["estimate", "--config", _underflow_config(tmp_path)]) == 3
    with pytest.raises(SystemExit):
        main(["--help"])
    assert (gc.isenabled(), gc.get_freeze_count()) == before


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
    taus = [tau for args in calls["interval_terms"] for tau in args[1]]
    assert taus and len(taus) == len(set(taus))


def test_fixed_tau_sweep_reports_seq_qfi_per_energy(tmp_path, monkeypatch):
    from nmqfi import sequential
    from nmqfi.config import load_config
    from nmqfi.metrology import energy_for_script_e
    from nmqfi.response import solve_response

    out = check_case(success("sweep_scaling", "sweep", lambda raw: raw.update(
        sequential={"total_window": 1.0, "optimize": False, "tau": 0.05})),
        tmp_path, monkeypatch)
    cfg = load_config(tmp_path / "case.json")
    bath = cfg.bath()
    resp = solve_response(bath, cfg.grid(bath))
    scheme = sequential.SequentialScheme(1.0, 0.05)
    for line in out.splitlines()[1:]:
        se, tau, total = (float(v) for v in line.split(",")[:3])
        want = sequential.seq_qfi(scheme, energy_for_script_e(se), bath, resp,
                                  cfg.force(), cfg.omega0)
        assert tau == 0.05
        assert total == want.total_qfi


# Each refusal table of the corpus runs as one test of its own name, one
# test id per case; check_case asserts the case's exit code, its one
# stderr line, empty stdout, no warning and its stage.
test_out_of_range_input_is_a_config_error = corpus_test(failures.OUT_OF_RANGE)
test_window_past_the_grid_is_refused_before_the_march = corpus_test(
    failures.PAST_THE_GRID)
test_missing_input_is_refused_before_the_march = corpus_test(
    failures.MISSING_INPUT)
test_first_of_two_faults_is_named = corpus_test(failures.TWO_FAULTS)
test_arithmetic_failure_is_a_numerical_error = corpus_test(
    failures.ARITHMETIC_FAILURES)
# every run reads probe, bath and grid, so validate refuses a scenario
# without one before numpy loads
test_scenario_without_a_root_block_is_refused_before_any_bath = corpus_test(
    failures.ROOT_BLOCKS)
test_format_a_subcommand_does_not_emit_is_refused = corpus_test(
    failures.FORMAT_MISMATCHES)


def test_readme_names_each_stage_with_a_corpus_case():
    readme = (SCENARIO_DIR.parent / "README.md").read_text()
    section = readme.split("### Failures and their stages\n", 1)[1]
    named = re.findall(r"^- `(\w+)`", section.split("\n#", 1)[0], re.M)
    assert named == list(failures.STAGES)
    stages = {case.stage for case in failures.CORPUS.values()}
    assert stages == set(named)


def test_every_constant_config_error_has_a_corpus_case():
    # a ConfigError raised with a constant message has a case that prints
    # it; f-string messages are not matched
    lines = {case.line for case in failures.CORPUS.values()}
    messages = [
        node.args[0].value
        for path in sorted((SCENARIO_DIR.parent / "src/nmqfi").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "ConfigError"
        and node.args and isinstance(node.args[0], ast.Constant)]
    assert messages
    assert [m for m in messages if "config error: " + m not in lines] == []


def _run_json(tmp_path, monkeypatch, base, sub, edit):
    """The parsed stdout of a run of base edited by edit, checked as a case
    that exits 0."""
    return json.loads(check_case(success(base, sub, edit), tmp_path,
                                 monkeypatch))


def test_energy_1e100_reaches_the_best_state_closed_form(tmp_path,
                                                        monkeypatch):
    # value = |D|^2 / (|G|^2 / (4 script_e) + n_B), script_e = 2e100
    from nmqfi.config import load_config
    from nmqfi.probe import displacement, window_terms
    from nmqfi.response import solve_response

    got = _run_json(tmp_path, monkeypatch, "qfi_best_state_resonant", "qfi",
                    update("probe", energy=1e100))
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
def test_best_state_runs_at_every_energy(case, tmp_path, monkeypatch):
    # qfi and estimate exit 0 from the vacuum energy (the inclusive edge of
    # probe.energy >= 1/2) to 1e30, and the Cramer-Rao bound of estimate is
    # 1 / (nu QFI) of qfi
    base, edit = BEST_STATE_SCENARIOS[case]
    for energy in (0.5, 1e4, 1e5, 1e6, 1e10, 1e14, 1e30):
        def at_energy(raw):
            edit(raw)
            raw["probe"]["energy"] = energy

        qfi = _run_json(tmp_path, monkeypatch, base, "qfi", at_energy)
        est = _run_json(tmp_path, monkeypatch, base, "estimate", at_energy)
        assert est["crb"] == pytest.approx(1.0 / (est["nu"] * qfi["value"]),
                                           rel=1e-12)


@pytest.mark.parametrize("r", [10.0, 15.0, 20.0, 30.0])
def test_aligned_squeezed_qfi_is_exact(r, tmp_path, monkeypatch):
    # the noiseless window has G = 1 and D = 2i, so the axis pi/2 is
    # phase(D) - phase(G): the QFI is |D|^2 Var X(pi/2) / det = |D|^2 2 e^{2r}
    got = _run_json(tmp_path, monkeypatch, "qfi_noiseless_pi", "qfi", update(
        "probe", init={"kind": "squeezed", "r": r, "axis_angle": np.pi / 2}))
    assert got["form"] == "aligned"
    assert got["value"] == pytest.approx(
        got["abs_d"] ** 2 * 2.0 * np.exp(2.0 * r), rel=1e-12)


# (qfi run, estimate run) of a state: the prepared states on the noiseless
# window, the misaligned squeezed state of qfi_ohmic_thermal, and a best
# state
ESTIMATE_STATES = {
    "vacuum": (failures.SHIPPED["qfi_noiseless_pi.json"],
               failures.SHIPPED["estimate_cramer_rao.json"]),
    **{case: tuple(failures.STATE_VARIANTS[f"{state}-{sub}"]
                   for sub in ("qfi", "estimate"))
       for case, state in (("coherent", "coherent"), ("thermal", "thermal"),
                           ("squeezed_aligned", "squeezed_aligned_r20"),
                           ("matrix", "matrix"))},
    **{case: (failures.SHIPPED[f"{base}.json"],
              failures.STATE_VARIANTS[f"{base}-estimate"])
       for case, base in (("squeezed_misaligned", "qfi_ohmic_thermal"),
                          ("energy", "qfi_best_state_resonant"))},
}


@pytest.mark.parametrize("case", sorted(ESTIMATE_STATES))
def test_estimate_bound_is_the_qfi_of_its_state(case, tmp_path, monkeypatch):
    qfi, est = (json.loads(check_case(run, tmp_path, monkeypatch))
                for run in ESTIMATE_STATES[case])
    assert est["crb"] == pytest.approx(1.0 / (est["nu"] * qfi["value"]),
                                       rel=1e-12)


def test_table_support_is_honoured(tmp_path, monkeypatch):
    # a flat table of 1 cut to [0, pi/2] is the constant force of that
    # support, and one held past its last sample to [0, pi] the constant
    # force of the scenario
    def table(support):
        return replace_force(kind="table", times=[0.0, 1.0], values=[1.0, 1.0],
                      support=support)

    for support in ([0.0, np.pi / 2], [0.0, np.pi]):
        got = _run_json(tmp_path, monkeypatch, "qfi_noiseless_pi", "qfi",
                        table(support))
        want = _run_json(tmp_path, monkeypatch, "qfi_noiseless_pi", "qfi",
                         update("force", support=support))
        assert got["abs_d"] == pytest.approx(want["abs_d"], rel=1e-9)


@pytest.mark.parametrize("r", [6.0, 8.0])
@pytest.mark.parametrize("sub", ["moments", "qfi"])
def test_strongly_squeezed_init_runs(sub, r, tmp_path, monkeypatch):
    check_case(failures.STATE_VARIANTS[f"squeezed_r{r:g}-{sub}"], tmp_path,
               monkeypatch)


def test_near_zero_temperature_is_the_zero_temperature_limit(tmp_path,
                                                            monkeypatch):
    # 1/expm1(omega/T) overflows to the exact limit 0 without a warning on
    # stderr
    zero, cold = (check_case(success(
        "qfi_ohmic_thermal", "qfi",
        lambda raw: raw["bath"]["continuum"].update(occupation=occupation)),
        tmp_path, monkeypatch) for occupation in (
            {"model": "zero"}, {"model": "thermal", "temperature": 1e-300}))
    assert cold == zero


def test_nan_cadence_bound_stops_before_the_teeth(monkeypatch):
    # an empty bath and an overflowing energy make the best-state variance
    # 0, and a zero force makes every total and bound 0 / 0; a scenario
    # file cannot give that energy (it exits 2), so optimize_tau is called
    from nmqfi import sequential
    from nmqfi.bath import DiscreteBath
    from nmqfi.force import ConstantForce
    from nmqfi.response import TimeGrid, solve_response

    resp = solve_response(DiscreteBath([], [], [], 1.0), TimeGrid(0.4, 8192))
    intervals = []
    real = sequential.interval_terms

    def counted(total, taus, *args):
        intervals.extend(taus)
        return real(total, taus, *args)

    monkeypatch.setattr(sequential, "interval_terms", counted)
    with pytest.raises(NmqfiError, match=r"^cadence total or its bound is "
                                         r"nan at energy 1e\+300$"):
        sequential.optimize_tau(1.0, 1e300, resp,
                                ConstantForce(0.0, (0.0, 100.0)), (0.004, 0.3))
    assert intervals == [0.3, 0.004]       # the bracket ends only


def test_table_force_with_interior_knots(tmp_path, monkeypatch):
    # kinks at 0.3 and 0.7 inside the window [0, pi] of a noiseless probe:
    # |D| against the segment-by-segment closed form
    table = failures.KNOTTED_TABLE
    out = check_case(failures.FORCE_VARIANTS["table-qfi"], tmp_path,
                     monkeypatch)
    want = abs(noiseless_table_displacement(table["times"], table["values"],
                                            (0.0, np.pi)))
    assert json.loads(out)["abs_d"] == pytest.approx(want, rel=1e-9)
    check_case(failures.FORCE_VARIANTS["table-moments"], tmp_path,
               monkeypatch)


@pytest.mark.parametrize("sub", ["sequential", "sweep"],
                         ids=["sequential_nonmarkov-sequential",
                              "sweep_scaling-sweep"])
def test_table_force_with_interior_knots_runs_a_cadence(sub, tmp_path,
                                                        monkeypatch):
    # the slope jumps at the knots 0.3 and 0.7 inside T; xi and C are
    # exact per segment, so the run exits 0
    out = check_case(failures.FORCE_VARIANTS[f"table-{sub}"], tmp_path,
                     monkeypatch)
    if sub == "sequential":
        assert json.loads(out)["xi"] > 0.0


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


@pytest.mark.parametrize("case", sorted(failures.FAILING_RUNS))
def test_failed_run_creates_no_out_file_and_keeps_an_existing_one(
        case, tmp_path, monkeypatch):
    run = failures.FAILING_RUNS[case]
    check_case(run, tmp_path, monkeypatch)
    cfg = tmp_path / "case.json"
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("earlier output\n")
    for out in (fresh, kept):
        assert run_cli([*run.command.split(), "--config", cfg,
                        "--out", out]) == run.code
    assert not fresh.exists()
    assert kept.read_text() == "earlier output\n"


def _seed_flag_matches_option(tmp_path, monkeypatch, seed):
    by_flag, by_option = (check_case(run, tmp_path, monkeypatch) for run in (
        success("estimate_cramer_rao", f"estimate --seed {seed}"),
        success("estimate_cramer_rao", "estimate",
                update("options", seed=seed))))
    assert by_flag == by_option
    assert json.loads(by_flag)["seed"] == seed


def test_seed_flag_is_the_seed_option(tmp_path, monkeypatch):
    _seed_flag_matches_option(tmp_path, monkeypatch, 3)


def test_seed_zero_runs(tmp_path, monkeypatch):
    # 0 is the inclusive edge of options.seed >= 0 (and the default seed)
    _seed_flag_matches_option(tmp_path, monkeypatch, 0)


def _outside_the_window(raw):
    raw["force"]["support"] = [5.0, 6.0]
    raw["sequential"]["total_window"] = 2.0


def test_sweep_keeps_a_zero_asymptotic_total(tmp_path, monkeypatch):
    # a force outside the total window has xi = C = 0: the asymptotic total
    # is exactly 0.0, which sweep must print as 0, not as an absent value
    point, table = (check_case(success("sweep_scaling", sub,
                                       _outside_the_window),
                               tmp_path, monkeypatch)
                    for sub in ("sequential", "sweep"))
    assert json.loads(point)["total_qfi_asymptotic"] == 0.0
    header, *rows = table.splitlines()
    column = header.split(",").index("total_qfi_asymptotic")
    assert rows and all(row.split(",")[column] == "0" for row in rows)


def _fast_sinusoid(tmp_path) -> Path:
    """sequential_nonmarkov's one-mode bath with a sinusoid of frequency 100
    over T = 2, bracket (0.01, 0.5)."""
    raw = json.loads((SCENARIO_DIR / "sequential_nonmarkov.json").read_text())
    raw["force"] = {"kind": "sinusoid", "amplitude": 1, "frequency": 100,
                    "phase": 0.4, "support": [0, 100]}
    raw["sequential"] = {"total_window": 2, "optimize": True,
                         "tau_bounds": [0.01, 0.5]}
    raw["grid"] = {"t_end": 2, "n_steps": 8192}
    raw["options"]["energy_sweep"] = [100, 1000]
    cfg = tmp_path / "fast.json"
    cfg.write_text(json.dumps(raw))
    return cfg


def test_out_of_range_expansion_is_absent(tmp_path, capsys):
    # at script-E 100 a fast sinusoid puts the two-term forms at
    # tau* = -0.157 and F* = -10.7 (exact optimum 0.03125 and 6.61): both
    # are absent; at script-E 1000 both are positive and stay
    cfg = _fast_sinusoid(tmp_path)
    assert run_cli(["sequential", "--config", cfg]) == 0
    point = json.loads(capsys.readouterr().out)
    assert point["tau_opt_asymptotic"] is None
    assert point["total_qfi_asymptotic"] is None
    assert point["total_qfi"] == pytest.approx(6.6129, rel=1e-4)
    assert run_cli(["sweep", "--config", cfg]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    cols = [header.split(",").index(key)
            for key in ("tau_opt_asymptotic", "total_qfi_asymptotic")]
    cells = [[float(row.split(",")[c]) for c in cols] for row in rows]
    assert np.isnan(cells[0]).all()
    assert cells[1] == pytest.approx([0.0092806, 25.2005], rel=1e-4)


def test_short_time_flag_counts_the_force_rate(tmp_path, capsys):
    # the sinusoid varies at 2 sqrt(C / xi) = 99.6 over T, far above
    # omega0 = 1 and the bath's rates: tau* = 0.03125 times it is 3.1, so
    # the optimum is not a short-time window
    assert run_cli(["sequential", "--config", _fast_sinusoid(tmp_path)]) == 0
    point = json.loads(capsys.readouterr().out)
    assert point["tau_opt_numeric"] == pytest.approx(0.03125)
    assert 2 * (point["c_coeff"] / point["xi"]) ** 0.5 > 0.1 / 0.03125
    assert point["regime_flags"]["short_time_valid"] is False


def test_short_time_flag_of_a_constant_force_reads_omega0(tmp_path,
                                                          monkeypatch):
    # a constant force has 2 sqrt(C / xi) = omega0 = 1, which the flag
    # already counted: tau* = 0.05 of sequential_nonmarkov stays short
    point = json.loads(check_case(failures.SHIPPED["sequential_nonmarkov.json"],
                                  tmp_path, monkeypatch))
    assert 2 * (point["c_coeff"] / point["xi"]) ** 0.5 == pytest.approx(1.0)
    assert point["regime_flags"]["short_time_valid"] is True


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
                          text=True, check=True, env=CHILD_ENV)
    assert proc.stdout.strip() == "[]"


def test_force_jobs_do_not_import_numpy_ma():
    # numpy.ma costs about 15 ms to import; no engine path needs it
    qfi, cadence = (str(SCENARIO_DIR / name) for name in (
        "qfi_noiseless_pi.json", "sequential_nonmarkov.json"))
    code = ("import sys; from nmqfi.cli import main; "
            f"main(['qfi', '--config', {qfi!r}]); "
            f"main(['sequential', '--config', {cadence!r}]); "
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=CHILD_ENV)
    assert proc.stdout.splitlines()[-1] == "False"
    assert '"form": "aligned"' in proc.stdout and '"total_qfi"' in proc.stdout


def test_correlation_solves_no_response(tmp_path, monkeypatch):
    # the rows read only grid.t_end, so a grid of 10^12 steps, which the
    # march could not allocate, prints the shipped rows
    from nmqfi import response

    def march(*args):
        raise AssertionError("the response was solved")

    want = check_case(failures.SHIPPED["correlation_flatband.json"], tmp_path,
                      monkeypatch)
    monkeypatch.setattr(response, "solve_response", march)
    fine = success("correlation_flatband", "correlation",
                   update("grid", n_steps=10 ** 12))
    assert check_case(fine, tmp_path, monkeypatch) == want


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


# Each run reads one window record, the moments run one record of all its
# report times
WINDOW_RUNS = {
    "qfi_energy": failures.SHIPPED["qfi_best_state_resonant.json"],
    "qfi_misaligned": success("qfi_best_state_resonant", "qfi", _misaligned),
    "estimate_energy": success("estimate_cramer_rao", "estimate",
                               update("probe", energy=3.0)),
    "moments_every_report_time": failures.SHIPPED[
        "moments_detuned_coherent.json"],
}


@pytest.mark.parametrize("case", sorted(WINDOW_RUNS))
def test_window_terms_are_computed_once(case, tmp_path, monkeypatch):
    run = WINDOW_RUNS[case]
    cfg = tmp_path / "window.json"
    cfg.write_bytes(failures.scenario_bytes(run, SCENARIO_DIR))
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
    assert run_cli([*run.command.split(), "--config", cfg, "--out", out]) == 0
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
