"""The corpus: every input the tests run through the CLI, with its outcome.

Each case edits a shipped scenario and runs one subcommand on it. It
records the exit code, the one stderr line the run prints (`{config}`
stands for the scenario file's path; a run that exits 0 prints none) and
its stage, the earliest point where the run must end:

- `front_end`: numpy never loads. The parser, `validate` and each
  runner's reads of its blocks and options refuse the input.
- `before_march` (named after the former Volterra march): a builder (the
  force, the probe state, the bath or the grid) or the cadence step cap
  refuses it before `response.solve_response` runs.
- `engine`: the response or the arithmetic after it fails, or the run
  ends with exit 0.

A failed run prints nothing to stdout and no warning. A run that exits 0
prints no warning, an output whose numbers are finite (`sweep`'s
documented `nan` aside) and the same bytes when run again. The cases sit
in tables by the kind of input; `CORPUS` holds them all. This module
imports neither pytest nor nmqfi, so the tests and
`tests/compare_outputs.py` both read it.
"""

import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

STAGES = FRONT_END, BEFORE_MARCH, ENGINE = ("front_end", "before_march",
                                            "engine")


class Case(NamedTuple):
    base: str       # the shipped scenario, without .json
    command: str    # the subcommand and its flags
    edit: Callable  # edits the parsed scenario; bytes it returns are the file
    code: int       # the exit code
    stage: str
    line: str       # the stderr line, without its newline

    def stderr(self, config) -> str:
        """All of stderr for a run on the scenario file config."""
        return (self.line.replace("{config}", str(config)) + "\n"
                if self.line else "")


def scenario_bytes(case: Case, scenarios: Path) -> bytes:
    """The case's scenario file: its base in scenarios, edited."""
    raw = json.loads((scenarios / f"{case.base}.json").read_text())
    text = case.edit(raw)
    return text if isinstance(text, bytes) else json.dumps(raw).encode()


def update(block, **values):
    return lambda raw: raw[block].update(values)


def replace_force(**block):
    return lambda raw: raw.update(force=block)


def _drop(block, key=None):
    return lambda raw: raw.pop(block) if key is None else raw[block].pop(key)


def _continuum(**values):
    return lambda raw: raw["bath"]["continuum"].update(values)


def _bad_continuum(raw):
    raw["bath"] = {"continuum": {"family": "ohmic", "scale": 0.03,
                                 "cutoff": 0.0, "n_modes": 8}}


def _energy_for_init(raw):
    del raw["probe"]["init"]
    raw["probe"]["energy"] = 2.0


def _thermal_1e200(raw):
    # a finite thermal state whose det_sigma overflows
    raw["probe"] = {"omega0": 1.0, "init": {"kind": "thermal", "nbar": 1e200}}


def _both(*edits):
    return lambda raw: [edit(raw) for edit in edits]


def _unedited(raw):
    return None


_SQUEEZED_OVERFLOW = update("probe", init={"kind": "squeezed", "r": 400})
# Terabytes of response samples or bath modes: numpy refuses them at once.
# Never test with a size the OS might grant.
_TOO_MANY_STEPS = update("grid", n_steps=10 ** 12)
_TOO_MANY_MODES = _continuum(n_modes=10 ** 12)
# Intervals whose shortest one fits 10^6 + 1 steps into total_window 1.
_PAST_STEP_CAP = [9.99999e-7, 1e-6]
# An integer literal beyond the float range, and a count numpy refuses to
# allocate at once (2^62 elements).
_PAST_FLOAT_RANGE = 10 ** 400
_TOO_BIG_COUNT = 2 ** 62
_PULSE_WIDTH_0 = replace_force(kind="gaussian_pulse", center=0.5, width=0.0)
_MATRIX_BELOW_BOUND = update("probe", init={
    "kind": "matrix", "cov": [[0.1, 0.0], [0.0, 0.1]]})
# A table force with knots inside the window.
KNOTTED_TABLE = {"kind": "table", "times": [0.0, 0.3, 0.7, 4.0],
                  "values": [0.0, 2.0, -1.0, 0.5]}

# Lines several cases share.
_INVALID = "config error: config invalid at "
_FLOAT_RANGE = ("config error: integer of 401 digits in config is beyond the "
                "float range")
_BAD_STATE = ("config error: init_state: a state needs nbar >= 0, a finite "
              "axis, a finite trace (2 nbar + 1) cosh 2r and a finite mean "
              "quadrature sqrt(2) |alpha|")
_STEPS_PAST_CAP = ("config error: a cadence of interval 9.99999e-07 has more "
                   "than 1000000 steps in total_window 1.0")
_STEP_CAP = ("config error: a cadence of interval 1e-07 has more than "
             "1000000 steps in total_window 1.0")
_ALLOCATE = "config error: the problem is too large to allocate"
_COUNT = " 4611686018427387904 is outside [2, 9007199254740992]"
_ENERGY = " is outside [0.5, 1.34e+154]"
_NOT_NEGATIVE = " is outside [0, inf]"
_POSITIVE = " is outside [5e-324, inf]"
_TAU_BOUNDS = ("config error: sequential.tau_bounds must satisfy 0 < lower < "
               "upper <= total_window")
_OPTIMIZE = ("config error: sequential.optimize false needs sequential.tau "
             "and true takes none")
_T_PRIME = "config error: options.t_prime must be < grid.t_end"
_ENERGY_GIVEN = ("config error: probe gives an energy: build the state per "
                 "window with the best-state form instead")
_NEEDS = "config error: scenario needs a '{}' block for this subcommand"
_JSON_INF = ("numerical error: non-finite value in the JSON output: Out of "
             "range float values are not JSON compliant: inf")
_SQUARES = ("numerical error: force amplitude too large: the integral of "
            "zeta^2 or zeta'^2 overflows on [0.0, {}]")
_NOISE_WEIGHT = ("numerical error: second-order cadence interval at noise "
                 "weight N = 7.83e-300, xi = 1.0: float division by zero")


# Inputs that once escaped as a traceback (exit 1) or a numerical error
# (exit 3), or ran to exit 0 with a NaN in the output, a key ignored or a
# cadence too large to run.
OUT_OF_RANGE = {
    "omega0_zero": Case(
        "qfi_best_state_resonant", "qfi", update("probe", omega0=0), 2,
        BEFORE_MARCH, "config error: bath: probe_frequency must be > 0"),
    "omega0_nan_literal": Case(
        "qfi_best_state_resonant", "qfi",
        update("probe", omega0=float("nan")), 2, FRONT_END,
        "config error: non-finite number NaN in config"),
    "energy_below_vacuum": Case(
        "qfi_best_state_resonant", "qfi", update("probe", energy=0.1), 2,
        FRONT_END, _INVALID + "probe/energy: 0.1" + _ENERGY),
    "t_end_zero": Case(
        "response_narrowband", "response", update("grid", t_end=0), 2,
        BEFORE_MARCH, "config error: grid: t_end must be > 0"),
    "k_sq_negative": Case(
        "response_narrowband", "response",
        update("bath", modes=[[-0.25, 1.0, 0.0]]), 2, BEFORE_MARCH,
        "config error: bath: coupling_sq must be >= 0"),
    "cutoff_zero": Case(
        "correlation_flatband", "correlation", _continuum(cutoff=0), 2,
        BEFORE_MARCH, "config error: bath: cutoff must be > 0"),
    "total_window_zero": Case(
        "sequential_nonmarkov", "sequential",
        update("sequential", total_window=0), 2, FRONT_END,
        _INVALID + "sequential/total_window: 0" + _POSITIVE),
    "tau_negative": Case(
        "sequential_nonmarkov", "sequential",
        update("sequential", tau=-1, optimize=False), 2, FRONT_END,
        _INVALID + "sequential/tau: -1" + _POSITIVE),
    "tau_bounds_reversed": Case(
        "sequential_nonmarkov", "sequential",
        update("sequential", tau_bounds=[0.2, 0.1]), 2, FRONT_END,
        _TAU_BOUNDS),
    "tau_bounds_past_window": Case(
        "sequential_nonmarkov", "sequential",
        update("sequential", tau_bounds=[0.01, 1.5]), 2, FRONT_END,
        _TAU_BOUNDS),
    "script_e_below_half": Case(
        "sweep_scaling", "sweep", update("options", energy_sweep=[0.1]), 2,
        FRONT_END, _INVALID + "options/energy_sweep/0: 0.1" + _ENERGY),
    "sequential_block_missing": Case(
        "sequential_nonmarkov", "sequential", _drop("sequential"), 2,
        FRONT_END, _NEEDS.format("sequential")),
    "tau_bracket_collapsed": Case(
        "sequential_nonmarkov", "sequential",
        lambda raw: (raw["sequential"].pop("tau_bounds"),
                     raw["grid"].update(n_steps=2)), 2, BEFORE_MARCH,
        "config error: tau search bracket collapsed; refine the response "
        "grid or give sequential.tau_bounds"),
    "gamma_negative": Case(
        "limits_narrowband", "limits", update("options", gamma=-0.1), 2,
        FRONT_END, _INVALID + "options/gamma: -0.1" + _NOT_NEGATIVE),
    "n_thermal_negative_half": Case(
        "sequential_nonmarkov", "sequential",
        update("options", n_thermal=-0.5), 2, FRONT_END,
        _INVALID + "options/n_thermal: -0.5" + _NOT_NEGATIVE),
    "n_thermal_negative": Case(
        "sequential_nonmarkov", "sequential",
        update("options", n_thermal=-2.0), 2, FRONT_END,
        _INVALID + "options/n_thermal: -2.0" + _NOT_NEGATIVE),
    "optimize_false_without_tau": Case(
        "sequential_nonmarkov", "sequential",
        lambda raw: (raw["sequential"].pop("tau_bounds"),
                     raw["sequential"].update(optimize=False)), 2,
        FRONT_END, _OPTIMIZE),
    "optimize_true_with_tau": Case(
        "sequential_nonmarkov", "sequential",
        update("sequential", optimize=True, tau=0.1), 2, FRONT_END,
        _OPTIMIZE),
    "t_prime_negative": Case(
        "correlation_flatband", "correlation",
        update("options", t_prime=-0.5), 2, FRONT_END,
        _INVALID + "options/t_prime: -0.5" + _NOT_NEGATIVE),
    # t_end is 12: a lag past it, or one with no room left, has no rows
    "t_prime_past_t_end": Case(
        "correlation_flatband", "correlation",
        update("options", t_prime=20.0), 2, FRONT_END, _T_PRIME),
    "t_prime_at_t_end": Case(
        "correlation_flatband", "correlation",
        update("options", t_prime=12.0), 2, FRONT_END, _T_PRIME),
    "seed_negative": Case(
        "estimate_cramer_rao", "estimate", update("options", seed=-1), 2,
        FRONT_END, _INVALID + "options/seed: -1" + _NOT_NEGATIVE),
    "seed_flag_negative": Case(
        "estimate_cramer_rao", "estimate --seed -1", _unedited, 2,
        FRONT_END, _INVALID + "options/seed: -1" + _NOT_NEGATIVE),
    "csv_subcommand_as_json": Case(
        "response_narrowband", "response --format json", _unedited, 2,
        FRONT_END, "config error: subcommand response emits csv only"),
    # probe states whose covariance is too large for floats
    "qfi_squeezed_overflow": Case(
        "qfi_noiseless_pi", "qfi", _SQUEEZED_OVERFLOW, 2, BEFORE_MARCH,
        _BAD_STATE),
    "estimate_squeezed_overflow": Case(
        "estimate_cramer_rao", "estimate", _SQUEEZED_OVERFLOW, 2,
        BEFORE_MARCH, _BAD_STATE),
    "moments_squeezed_overflow": Case(
        "moments_resonant_vacuum", "moments", _SQUEEZED_OVERFLOW, 2,
        BEFORE_MARCH, _BAD_STATE),
    "thermal_overflow": Case(
        "qfi_noiseless_pi", "qfi",
        update("probe", init={"kind": "thermal", "nbar": 1e308}), 2,
        BEFORE_MARCH, _BAD_STATE),
    # energies whose script_e overflows, on every subcommand that reads one
    "energy_1e200": Case(
        "qfi_best_state_resonant", "qfi", update("probe", energy=1e200), 2,
        FRONT_END, _INVALID + "probe/energy: 1e+200" + _ENERGY),
    "energy_1e200_sequential": Case(
        "sequential_nonmarkov", "sequential", update("probe", energy=1e200),
        2, FRONT_END, _INVALID + "probe/energy: 1e+200" + _ENERGY),
    "energy_sweep_1e200": Case(
        "sweep_scaling", "sweep",
        update("options", energy_sweep=[100.0, 1e200]), 2, FRONT_END,
        _INVALID + "options/energy_sweep/1: 1e+200" + _ENERGY),
    # a bath occupation N = 6e300 whose (N + 1/2)^2 overflows (its noise
    # weight script_n = 6e298 is finite)
    "occupation_overflow": Case(
        "qfi_ohmic_thermal", "qfi",
        _continuum(occupation={"model": "thermal", "temperature": 1e300}), 2,
        BEFORE_MARCH,
        "config error: bath: occupations above 1.34e154 overflow "
        "(N + 1/2)^2"),
    # cadences past 10^6 steps, on every path that builds one
    "steps_sequential_json": Case(
        "sequential_nonmarkov", "sequential",
        update("sequential", tau_bounds=_PAST_STEP_CAP), 2, BEFORE_MARCH,
        _STEPS_PAST_CAP),
    "steps_sequential_csv": Case(
        "sequential_nonmarkov", "sequential --format csv",
        lambda raw: (raw["sequential"].update(tau_bounds=_PAST_STEP_CAP),
                     raw["options"].update(report_points=2)), 2,
        BEFORE_MARCH, _STEPS_PAST_CAP),
    "steps_sweep": Case(
        "sweep_scaling", "sweep",
        update("sequential", tau_bounds=_PAST_STEP_CAP), 2, BEFORE_MARCH,
        _STEPS_PAST_CAP),
    "steps_fixed_tau": Case(
        "sequential_nonmarkov", "sequential",
        lambda raw: raw.update(sequential={"total_window": 1.0,
                                           "tau": _PAST_STEP_CAP[0]}), 2,
        BEFORE_MARCH, _STEPS_PAST_CAP),
    # the default lower bound 8 h = 3.90625e-4 fits 1,024,000 steps into 400
    "steps_default_bracket": Case(
        "sequential_nonmarkov", "sequential",
        lambda raw: raw.update(sequential={"total_window": 400.0}), 2,
        BEFORE_MARCH,
        "config error: a cadence of interval 0.000390625 has more than "
        "1000000 steps in total_window 400.0"),
    # arrays too large to allocate, in the response grid or the bath
    "n_steps_1e12_qfi": Case(
        "qfi_ohmic_thermal", "qfi", _TOO_MANY_STEPS, 2, ENGINE, _ALLOCATE),
    "n_steps_1e12_response": Case(
        "qfi_ohmic_thermal", "response", _TOO_MANY_STEPS, 2, ENGINE,
        _ALLOCATE),
    "n_modes_1e12_qfi": Case(
        "qfi_ohmic_thermal", "qfi", _TOO_MANY_MODES, 2, BEFORE_MARCH,
        _ALLOCATE),
    "n_modes_1e12_response": Case(
        "qfi_ohmic_thermal", "response", _TOO_MANY_MODES, 2, BEFORE_MARCH,
        _ALLOCATE),
    # the one mode's spectral half-width 0.5 times grid.t_end 1e6 needs
    # about 5e5 Chebyshev terms of the propagator, past MAX_TERMS
    "t_end_past_term_cap": Case(
        "response_narrowband", "response", update("grid", t_end=1e6), 2,
        ENGINE, "config error: grid.t_end 1000000.0 needs more than 65536 "
        "Chebyshev terms at the bath's spectral half-width 0.5"),
    # correlation solves no response, but its propagator is the same
    # series: half-width 1.18437 times grid.t_end 1e6 needs about 1.2e6 terms
    "correlation_t_end_past_term_cap": Case(
        "correlation_flatband", "correlation", update("grid", t_end=1e6), 2,
        ENGINE, "config error: grid.t_end 1000000.0 needs more than 65536 "
        "Chebyshev terms at the bath's spectral half-width 1.18437"),
    # a kind without one of its required keys, or with a key that only
    # another kind of its block takes
    "pulse_without_center": Case(
        "qfi_noiseless_pi", "qfi",
        replace_force(kind="gaussian_pulse", width=0.5), 2, FRONT_END,
        _INVALID + "force: missing required key 'center'"),
    "pulse_without_width": Case(
        "qfi_noiseless_pi", "qfi",
        replace_force(kind="gaussian_pulse", center=1.0), 2, FRONT_END,
        _INVALID + "force: missing required key 'width'"),
    "table_without_times": Case(
        "qfi_noiseless_pi", "qfi",
        replace_force(kind="table", values=[1.0, 1.0]), 2, FRONT_END,
        _INVALID + "force: missing required key 'times'"),
    "table_without_values": Case(
        "qfi_noiseless_pi", "qfi",
        replace_force(kind="table", times=[0.0, 4.0]), 2, FRONT_END,
        _INVALID + "force: missing required key 'values'"),
    "matrix_without_cov": Case(
        "qfi_noiseless_pi", "qfi",
        update("probe", init={"kind": "matrix", "mean_re": 0.5}), 2,
        FRONT_END, _INVALID + "probe/init: missing required key 'cov'"),
    "constant_with_amplitude": Case(
        "qfi_noiseless_pi", "qfi", update("force", amplitude=5), 2,
        FRONT_END, _INVALID + "force: unknown key 'amplitude'"),
    "table_with_value": Case(
        "qfi_noiseless_pi", "qfi",
        update("force", kind="table", times=[0.0, 4.0], values=[1.0, 1.0]),
        2, FRONT_END, _INVALID + "force: unknown key 'value'"),
    "probe_with_oops": Case(
        "qfi_best_state_resonant", "qfi", update("probe", oops=1), 2,
        FRONT_END, _INVALID + "probe: unknown key 'oops'"),
    "coherent_with_r_and_nbar": Case(
        "moments_detuned_coherent", "moments",
        lambda raw: raw["probe"]["init"].update(r=0.5, nbar=1.0), 2,
        FRONT_END, _INVALID + "probe/init: unknown key 'r'"),
    "vacuum_with_alpha": Case(
        "moments_resonant_vacuum", "moments",
        lambda raw: raw["probe"]["init"].update(alpha_re=1.0), 2, FRONT_END,
        _INVALID + "probe/init: unknown key 'alpha_re'"),
    "flat_with_s": Case(
        "correlation_flatband", "correlation", _continuum(s=2.0), 2,
        FRONT_END, _INVALID + "bath/continuum: unknown key 's'"),
    "zero_occupation_with_temperature": Case(
        "qfi_ohmic_thermal", "qfi",
        _continuum(occupation={"model": "zero", "temperature": 0.8}), 2,
        FRONT_END,
        _INVALID + "bath/continuum/occupation: unknown key 'temperature'"),
    "thermal_occupation_with_value": Case(
        "qfi_ohmic_thermal", "qfi",
        lambda raw: raw["bath"]["continuum"]["occupation"].update(value=1.0),
        2, FRONT_END,
        _INVALID + "bath/continuum/occupation: unknown key 'value'"),
    "thermal_occupation_without_temperature": Case(
        "qfi_ohmic_thermal", "qfi",
        _continuum(occupation={"model": "thermal"}), 2, FRONT_END,
        _INVALID + "bath/continuum/occupation: missing required key "
        "'temperature'"),
    # keys that exclude each other, or a bound set by another key, which
    # once ended in a traceback or ran with a key ignored
    "bath_without_modes_or_continuum": Case(
        "qfi_noiseless_pi", "qfi", lambda raw: raw.update(bath={}), 2,
        FRONT_END,
        "config error: bath block must give either 'modes' or 'continuum'"),
    "modes_beside_continuum": Case(
        "correlation_flatband", "correlation",
        update("bath", modes=[[0.25, 1.0, 0.0]]), 2, FRONT_END,
        "config error: bath block must give either 'modes' or 'continuum'"),
    "energy_and_init": Case(
        "qfi_best_state_resonant", "qfi",
        update("probe", init={"kind": "vacuum"}), 2, FRONT_END,
        "config error: probe.energy and probe.init are mutually exclusive: "
        "the energy selects the best squeezed state"),
    # t_end 2.0 covers tau, so the coverage rule does not refuse it first
    "tau_past_total_window": Case(
        "sequential_nonmarkov", "sequential",
        lambda raw: (raw["grid"].update(t_end=2.0), raw.update(sequential={
            "total_window": 1.0, "optimize": False, "tau": 1.5})), 2,
        FRONT_END, "config error: sequential.tau must be <= total_window"),
    # the exclusive and inclusive edges of single-key bounds
    "tau_zero": Case(
        "sequential_nonmarkov", "sequential",
        update("sequential", tau=0, optimize=False), 2, FRONT_END,
        _INVALID + "sequential/tau: 0" + _POSITIVE),
    "gamma_just_below_zero": Case(
        "limits_narrowband", "limits", update("options", gamma=-1e-300), 2,
        FRONT_END, _INVALID + "options/gamma: -1e-300" + _NOT_NEGATIVE),
    # files the JSON parser cannot read: not JSON, not UTF-8, nested past
    # its recursion limit, an integer past int()'s 4,300-digit limit
    "not_json": Case(
        "qfi_noiseless_pi", "qfi", lambda raw: b"{not json", 2, FRONT_END,
        "config error: config {config} is not valid JSON (line 1, column 2): "
        "Expecting property name enclosed in double quotes"),
    "not_utf8": Case(
        "qfi_noiseless_pi", "qfi", lambda raw: b"\xff\xfe{}", 2, FRONT_END,
        "config error: config {config} is not UTF-8 (byte 0xff at position "
        "0)"),
    "nested_too_deep": Case(
        "qfi_noiseless_pi", "qfi", lambda raw: b"[" * 1500 + b"]" * 1500, 2,
        FRONT_END,
        "config error: config {config} nests JSON arrays or objects too "
        "deeply to parse"),
    "integer_past_digit_limit": Case(
        "qfi_noiseless_pi", "qfi",
        lambda raw: json.dumps(raw).replace(
            '"t0": 0.0', '"t0": 1' + "0" * 5000).encode(), 2, FRONT_END,
        "config error: integer of 5001 digits in config is beyond the float "
        "range"),
    # number literals beyond the float range
    "t_1e400_literal": Case(
        "qfi_best_state_resonant", "qfi",
        lambda raw: json.dumps(raw).replace('"t": 1.7', '"t": 1e400').encode(),
        2, FRONT_END, "config error: non-finite number 1e400 in config"),
    "t_end_past_float_range": Case(
        "qfi_noiseless_pi", "qfi", update("grid", t_end=_PAST_FLOAT_RANGE),
        2, FRONT_END, _FLOAT_RANGE),
    "omega0_past_float_range": Case(
        "qfi_noiseless_pi", "qfi", update("probe", omega0=_PAST_FLOAT_RANGE),
        2, FRONT_END, _FLOAT_RANGE),
    "mode_past_float_range": Case(
        "response_narrowband", "response",
        update("bath", modes=[[0.25, 1.0, _PAST_FLOAT_RANGE]]), 2, FRONT_END,
        _FLOAT_RANGE),
    "total_window_past_float_range": Case(
        "sequential_nonmarkov", "sequential",
        update("sequential", total_window=_PAST_FLOAT_RANGE), 2, FRONT_END,
        _FLOAT_RANGE),
    "force_amplitude_past_float_range": Case(
        "estimate_cramer_rao", "estimate",
        update("options", force_amplitude=_PAST_FLOAT_RANGE), 2, FRONT_END,
        _FLOAT_RANGE),
    "nu_past_float_range": Case(
        "estimate_cramer_rao", "estimate",
        update("options", nu=_PAST_FLOAT_RANGE), 2, FRONT_END, _FLOAT_RANGE),
    # counts past 2^53, which numpy refused with a traceback
    "n_steps_2e62": Case(
        "moments_resonant_vacuum", "moments",
        update("grid", n_steps=_TOO_BIG_COUNT), 2, FRONT_END,
        _INVALID + "grid/n_steps:" + _COUNT),
    "replications_2e62": Case(
        "estimate_cramer_rao", "estimate",
        update("options", replications=_TOO_BIG_COUNT), 2, FRONT_END,
        _INVALID + "options/replications:" + _COUNT),
    "report_points_2e62_moments": Case(
        "moments_resonant_vacuum", "moments",
        update("options", report_points=_TOO_BIG_COUNT), 2, FRONT_END,
        _INVALID + "options/report_points:" + _COUNT),
    "report_points_2e62_correlation": Case(
        "correlation_flatband", "correlation",
        update("options", report_points=_TOO_BIG_COUNT), 2, FRONT_END,
        _INVALID + "options/report_points:" + _COUNT),
    "report_points_2e62_sequential_csv": Case(
        "sequential_nonmarkov", "sequential --format csv",
        update("options", report_points=_TOO_BIG_COUNT), 2, FRONT_END,
        _INVALID + "options/report_points:" + _COUNT),
}


# Inputs refused before the march, which once exited 3 (or 2) only after
# it: windows and cadence intervals longer than grid.t_end, a window that
# ends before it starts, a cadence past the step cap, and inputs a builder
# refuses.
PAST_THE_GRID = {
    "qfi_window": Case(
        "qfi_ohmic_thermal", "qfi", update("window", t=7.0), 2, FRONT_END,
        "config error: window t - t0 = 7.0 is longer than grid.t_end = 6.0"),
    "moments_window": Case(
        "moments_detuned_coherent", "moments", update("window", t=6.5), 2,
        FRONT_END,
        "config error: window t - t0 = 6.5 is longer than grid.t_end = 6.0"),
    "estimate_window": Case(
        "estimate_cramer_rao", "estimate", update("window", t=4.5), 2,
        FRONT_END,
        "config error: window t - t0 = 4.5 is longer than grid.t_end = 4.0"),
    "qfi_window_single_mode": Case(
        "qfi_noiseless_pi", "qfi", lambda raw: (raw.clear(), raw.update({
            "probe": {"omega0": 1.0},
            "bath": {"modes": [[0.25, 1.0, 0.0]]},
            "force": {"kind": "constant", "value": 1.0,
                      "support": [0.0, 100.0]},
            "grid": {"t_end": 1.0, "n_steps": 64},
            "window": {"t0": 0.0, "t": 5.0}})), 2, FRONT_END,
        "config error: window t - t0 = 5.0 is longer than grid.t_end = 1.0"),
    "sequential_tau": Case(
        "sequential_nonmarkov", "sequential",
        lambda raw: raw.update(sequential={"total_window": 1.0, "tau": 0.45}),
        2, FRONT_END,
        "config error: sequential.tau = 0.45 is longer than grid.t_end = 0.4"),
    "sequential_tau_bounds_json": Case(
        "sequential_nonmarkov", "sequential", update("grid", t_end=0.2), 2,
        FRONT_END,
        "config error: sequential.tau_bounds upper end = 0.3 is longer than "
        "grid.t_end = 0.2"),
    "sequential_tau_bounds_csv": Case(
        "sequential_nonmarkov", "sequential --format csv",
        update("grid", t_end=0.2), 2, FRONT_END,
        "config error: sequential.tau_bounds upper end = 0.3 is longer than "
        "grid.t_end = 0.2"),
    "sweep_tau_bounds": Case(
        "sweep_scaling", "sweep", update("sequential", tau_bounds=[0.01, 0.5]),
        2, FRONT_END,
        "config error: sequential.tau_bounds upper end = 0.5 is longer than "
        "grid.t_end = 0.4"),
    "window_reversed": Case(
        "qfi_noiseless_pi", "qfi", update("window", t0=2.0, t=1.0), 2,
        FRONT_END, "config error: window must satisfy t0 <= t"),
    "sequential_tau_step_cap": Case(
        "sequential_nonmarkov", "sequential",
        lambda raw: raw.update(sequential={
            "total_window": 1.0, "optimize": False, "tau": 1e-7}), 2,
        BEFORE_MARCH, _STEP_CAP),
    "sequential_tau_bounds_step_cap": Case(
        "sequential_nonmarkov", "sequential",
        update("sequential", tau_bounds=[1e-7, 0.3]), 2, BEFORE_MARCH,
        _STEP_CAP),
    # before any step or window integral of the table force
    "table_tau_step_cap": Case(
        "sequential_nonmarkov", "sequential",
        lambda raw: raw.update(force=KNOTTED_TABLE, sequential={
            "total_window": 1.0, "optimize": False, "tau": 1e-7}), 2,
        BEFORE_MARCH, _STEP_CAP),
    "table_tau_bounds_step_cap": Case(
        "sequential_nonmarkov", "sequential",
        lambda raw: raw.update(force=KNOTTED_TABLE, sequential={
            "total_window": 1.0, "tau_bounds": [1e-7, 0.3]}), 2,
        BEFORE_MARCH, _STEP_CAP),
    "qfi_table_times": Case(
        "qfi_ohmic_thermal", "qfi",
        replace_force(kind="table", times=[0.0, 0.5, 0.4],
                      values=[0.0, 1.0, 0.5]), 2, BEFORE_MARCH,
        "config error: force: table times must be strictly increasing"),
    "qfi_matrix_cov": Case(
        "qfi_ohmic_thermal", "qfi", _MATRIX_BELOW_BOUND, 2, BEFORE_MARCH,
        "config error: init_state: covariance violates the uncertainty "
        "bound det >= 1/4"),
    "qfi_pulse_width": Case(
        "qfi_ohmic_thermal", "qfi", _PULSE_WIDTH_0, 2, BEFORE_MARCH,
        "config error: force: width must be > 0"),
    # the continuum gives limits its gamma only once the bath is built
    "limits_continuum_cutoff": Case(
        "limits_narrowband", "limits",
        _both(_drop("options", "gamma"), _bad_continuum), 2, BEFORE_MARCH,
        "config error: bath: cutoff must be > 0"),
}

# An input a subcommand reads beyond probe, bath and grid, missing (or a
# probe.energy it cannot take), which once exited 2 only after the march.
MISSING_INPUT = {
    "sequential_energy": Case(
        "sequential_nonmarkov", "sequential", _drop("probe", "energy"), 2,
        FRONT_END, "config error: sequential subcommand needs probe.energy"),
    "sequential_csv_energy": Case(
        "sequential_nonmarkov", "sequential --format csv",
        _drop("probe", "energy"), 2, FRONT_END,
        "config error: sequential subcommand needs probe.energy"),
    "sequential_force": Case(
        "sequential_nonmarkov", "sequential", _drop("force"), 2, FRONT_END,
        _NEEDS.format("force")),
    "sequential_block": Case(
        "sequential_nonmarkov", "sequential --format csv",
        _drop("sequential"), 2, FRONT_END, _NEEDS.format("sequential")),
    "sweep_energy_sweep": Case(
        "sweep_scaling", "sweep", _drop("options", "energy_sweep"), 2,
        FRONT_END,
        "config error: sweep subcommand needs options.energy_sweep (list of "
        "script-E values)"),
    "sweep_force": Case(
        "sweep_scaling", "sweep", _drop("force"), 2, FRONT_END,
        _NEEDS.format("force")),
    "sweep_block": Case(
        "sweep_scaling", "sweep", _drop("sequential"), 2, FRONT_END,
        _NEEDS.format("sequential")),
    "qfi_force": Case(
        "qfi_noiseless_pi", "qfi", _drop("force"), 2, FRONT_END,
        _NEEDS.format("force")),
    "qfi_window": Case(
        "qfi_ohmic_thermal", "qfi", _drop("window"), 2, FRONT_END,
        _NEEDS.format("window")),
    "estimate_force": Case(
        "estimate_cramer_rao", "estimate", _drop("force"), 2, FRONT_END,
        _NEEDS.format("force")),
    "estimate_window": Case(
        "estimate_cramer_rao", "estimate", _drop("window"), 2, FRONT_END,
        _NEEDS.format("window")),
    "moments_window": Case(
        "moments_resonant_vacuum", "moments", _drop("window"), 2, FRONT_END,
        _NEEDS.format("window")),
    "moments_energy": Case(
        "moments_resonant_vacuum", "moments", _energy_for_init, 2, FRONT_END,
        _ENERGY_GIVEN),
    "correlation_energy": Case(
        "correlation_flatband", "correlation", update("probe", energy=2.0), 2,
        FRONT_END, _ENERGY_GIVEN),
    "limits_gamma": Case(
        "limits_narrowband", "limits", _drop("options", "gamma"), 2,
        FRONT_END,
        "config error: limits subcommand needs options.gamma or a continuum "
        "bath block"),
}

# Scenarios with two faults: the runner names the one it reads first. A
# missing block or option comes before a value a builder refuses, and the
# force and the probe state come before the bath and the grid.
TWO_FAULTS = {
    "pulse_width_and_continuum_qfi": Case(
        "qfi_ohmic_thermal", "qfi", _both(_PULSE_WIDTH_0, _bad_continuum), 2,
        BEFORE_MARCH, "config error: force: width must be > 0"),
    "matrix_cov_and_continuum_qfi": Case(
        "qfi_ohmic_thermal", "qfi",
        _both(_MATRIX_BELOW_BOUND, _bad_continuum), 2, BEFORE_MARCH,
        "config error: init_state: covariance violates the uncertainty "
        "bound det >= 1/4"),
    "energy_and_no_window_moments": Case(
        "moments_resonant_vacuum", "moments",
        _both(_energy_for_init, _drop("window")), 2, FRONT_END,
        _NEEDS.format("window")),
    "no_force_and_continuum_sweep": Case(
        "sweep_scaling", "sweep", _both(_drop("force"), _bad_continuum), 2,
        FRONT_END, _NEEDS.format("force")),
    "pulse_width_and_continuum_sequential": Case(
        "sequential_nonmarkov", "sequential",
        _both(_PULSE_WIDTH_0, _bad_continuum), 2, BEFORE_MARCH,
        "config error: force: width must be > 0"),
}


def _flat_continuum(raw):
    # the noise weight N is about 1e-299 > 0, and N ** 1.5 underflows to 0
    raw["bath"] = {"continuum": {
        "family": "flat", "scale": 2.7, "cutoff": 1e-300, "n_modes": 11,
        "occupation": {"model": "constant", "value": 2.4}}}


# Float arithmetic that fails inside the engine.
ARITHMETIC_FAILURES = {
    # the pulse is 28 widths past the window: |D|^2 underflows to 0
    "fisher_information_underflows_estimate": Case(
        "estimate_cramer_rao", "estimate",
        lambda raw: raw.update(force={"kind": "gaussian_pulse", "center": 4,
                                      "width": 0.125},
                               window={"t0": 0, "t": 0.5}), 3, ENGINE,
        "numerical error: Fisher information 0.0 of 100 measurements has no "
        "finite positive bound"),
    "constant_force_squared_overflows": Case(
        "sequential_nonmarkov", "sequential", update("force", value=1e200), 3,
        ENGINE, _SQUARES.format(1.0)),
    "sinusoid_amplitude_squared_overflows": Case(
        "sequential_nonmarkov", "sequential",
        replace_force(kind="sinusoid", amplitude=1e300, support=[0.0, 100.0]),
        3, ENGINE, _SQUARES.format(1.0)),
    "table_value_squared_overflows": Case(
        "sequential_nonmarkov", "sequential",
        replace_force(kind="table", times=[0, 0.5, 1], values=[0, 1e300, 0]),
        3, ENGINE, _SQUARES.format(0.5)),
    "asymptotic_noise_power_underflows_sweep": Case(
        "sweep_scaling", "sweep", _flat_continuum, 3, ENGINE, _NOISE_WEIGHT),
    "asymptotic_noise_power_underflows_sequential": Case(
        "sequential_nonmarkov", "sequential", _flat_continuum, 3, ENGINE,
        _NOISE_WEIGHT),
}

# Runs that fail, one per kind of failure and output format: none may
# write its --out file.
FAILING_RUNS = {
    "config_error": Case(
        "qfi_noiseless_pi", "qfi", update("probe", omega0=0), 2,
        BEFORE_MARCH, "config error: bath: probe_frequency must be > 0"),
    # det_sigma overflows
    "numerical_error": Case(
        "qfi_noiseless_pi", "qfi",
        update("probe", init={"kind": "thermal", "nbar": 1e200}), 3, ENGINE,
        _JSON_INF),
    "too_large_to_allocate": Case(
        "qfi_noiseless_pi", "qfi", _TOO_MANY_STEPS, 2, ENGINE, _ALLOCATE),
    "json_value_overflows": Case(
        "qfi_best_state_resonant", "qfi", _thermal_1e200, 3, ENGINE,
        _JSON_INF),
    "csv_cell_overflows": Case(
        "qfi_best_state_resonant", "moments", _thermal_1e200, 3, ENGINE,
        "numerical error: non-finite value in the CSV output (row 1, "
        "column 6)"),
}


def _driven_overflow(raw):
    raw["force"] = {"kind": "table", "times": [0.0, 5.0],
                    "values": [1e30, 1e30]}
    raw["options"]["force_amplitude"] = 1e300


def _pulse(raw):
    # 1e-200 wide, so every window node lies ~1e200 widths from its center
    raw["force"] = {"kind": "gaussian_pulse", "center": 0.5, "width": 1e-200,
                    "support": [0.0, 4.0]}


def _default_grid(t_end, omega0=None):
    """A grid without n_steps, so its count is the default grid's."""
    def edit(raw):
        raw["grid"] = {"t_end": t_end}
        if omega0 is not None:
            raw["probe"]["omega0"] = omega0
    return edit


def _default_grid_line(t_end):
    return (f"config error: grid: the default grid for grid.t_end {t_end} "
            "has more than 2^53 steps: give grid.n_steps")


# Inputs whose arithmetic once overflowed in numpy, which printed its
# RuntimeWarning ahead of the one line of the exit code (or, for the narrow
# pulse, ahead of exit 0), or overflowed a default grid's step count, which
# ended in a traceback.
OVERFLOWS = {
    "coherent_mean_past_float": Case(
        "moments_detuned_coherent", "moments",
        lambda raw: raw["probe"]["init"].update(alpha_re=1.7e308), 2,
        BEFORE_MARCH, _BAD_STATE),
    "displacement_squared_qfi": Case(
        "qfi_best_state_resonant", "qfi", update("force", value=1e200), 3,
        ENGINE, _JSON_INF),
    "displacement_squared_cadence": Case(
        "sequential_nonmarkov", "sequential",
        lambda raw: (raw["force"].update(value=1e200), raw.update(
            sequential={"total_window": 1.0, "tau": 0.1})), 3, ENGINE,
        _SQUARES.format(1.0)),
    "driven_mean_past_float": Case(
        "moments_detuned_coherent", "moments", _driven_overflow, 3, ENGINE,
        "numerical error: non-finite value in the CSV output (row 2, "
        "column 3)"),
    # omega / T underflows to 0, so the occupation 1 / expm1(0) is inf
    "occupation_past_float": Case(
        "correlation_flatband", "correlation",
        lambda raw: raw["bath"].update(continuum={
            "family": "flat", "scale": 0.0, "cutoff": 1e-300, "n_modes": 1,
            "occupation": {"model": "thermal", "temperature": 1e30}}), 2,
        BEFORE_MARCH,
        "config error: bath: occupations above 1.34e154 overflow "
        "(N + 1/2)^2"),
    "table_slope_past_float": Case(
        "qfi_best_state_resonant", "qfi",
        replace_force(kind="table", times=[0.0, 1.6e-195, 1.0],
                      values=[0.0, 1e200, 0.0]), 2, BEFORE_MARCH,
        "config error: force: a table slope between samples overflows"),
    "table_square_cadence_search": Case(
        "sequential_nonmarkov", "sequential",
        replace_force(kind="table", times=[0.0, 1.0], values=[1e200, 1e200]),
        3, ENGINE, _SQUARES.format(1.0)),
    # default grid counts past numpy's array size, its dimension limit and
    # the float range
    "default_grid_past_array_size": Case(
        "response_narrowband", "response", _default_grid(1e17), 2,
        BEFORE_MARCH, _default_grid_line("1e+17")),
    "default_grid_past_dimension_limit": Case(
        "sequential_nonmarkov", "sequential", _default_grid(1e19), 2,
        BEFORE_MARCH, _default_grid_line("1e+19")),
    "default_grid_count_infinite": Case(
        "qfi_best_state_resonant", "qfi", _default_grid(1e300, 1e10), 2,
        BEFORE_MARCH, _default_grid_line("1e+300")),
    "markov_ceiling_past_float": Case(
        "sequential_nonmarkov", "sequential",
        update("options", gamma=2.2250738585e-313), 3, ENGINE, _JSON_INF),
    # not a failure: a pulse far narrower than its distance from every
    # window node exits 0
    "narrow_pulse": Case("qfi_best_state_resonant", "qfi", _pulse, 0, ENGINE,
                         ""),
}


# Each subcommand and the formats it emits, its default first.
EMITS = {"correlation": ("csv",), "estimate": ("json",), "limits": ("csv",),
         "moments": ("csv",), "qfi": ("json",), "response": ("csv",),
         "sequential": ("json", "csv"), "sweep": ("csv",)}
# The shipped scenarios: each runs the subcommand its name starts with.
SCENARIOS = ("correlation_flatband", "estimate_cramer_rao", "limits_narrowband",
             "moments_detuned_coherent", "moments_resonant_vacuum",
             "qfi_best_state_resonant", "qfi_noiseless_pi", "qfi_ohmic_thermal",
             "response_markov_flatband", "response_narrowband",
             "sequential_nonmarkov", "sweep_scaling")
_FIRST_SCENARIO = {sub: min(name for name in SCENARIOS
                            if name.startswith(f"{sub}_")) for sub in EMITS}

# A scenario without one of the root blocks every run reads: each
# subcommand's first shipped scenario, the block dropped.
ROOT_BLOCKS = {
    f"{sub}-{block}": Case(base, sub, _drop(block), 2, FRONT_END,
                           _INVALID + f"<root>: missing required key '{block}'")
    for sub, base in _FIRST_SCENARIO.items()
    for block in ("probe", "bath", "grid")}

# Each subcommand with a format it does not emit, on its first shipped
# scenario; response as json is OUT_OF_RANGE's csv_subcommand_as_json.
FORMAT_MISMATCHES = {
    f"{sub}_as_{fmt}": Case(
        base, f"{sub} --format {fmt}", _unedited, 2, FRONT_END,
        f"config error: subcommand {sub} emits {'/'.join(EMITS[sub])} only")
    for sub, base in _FIRST_SCENARIO.items() for fmt in ("csv", "json")
    if fmt not in EMITS[sub] and (sub, fmt) != ("response", "json")}


def success(base, command, edit=_unedited):
    """A case that exits 0."""
    return Case(base, command, edit, 0, ENGINE, "")


def _shipped_runs(name):
    sub = name.split("_")[0]
    yield f"{name}.json", success(name, sub)
    for fmt in EMITS[sub]:
        yield f"{name}.json-{fmt}", success(name, f"{sub} --format {fmt}")


# Runs that exit 0. Every shipped scenario through its subcommand, by
# default and with each format it emits, and estimate with --seed.
SHIPPED = dict(run for name in SCENARIOS for run in _shipped_runs(name))
SHIPPED["estimate_cramer_rao.json-seed-3"] = success("estimate_cramer_rao",
                                                      "estimate --seed 3")


# The force kinds the cadence scenarios do not ship: sequential_nonmarkov
# through sequential in json and csv, sweep_scaling through sweep; the
# knotted table also on the noiseless window.
_FORCES = {"table": KNOTTED_TABLE,
           "sinusoid": {"kind": "sinusoid", "amplitude": 1.0,
                        "frequency": 3.0, "phase": 0.4,
                        "support": [0.0, 100.0]},
           "pulse": {"kind": "gaussian_pulse", "center": 0.5, "width": 0.15,
                     "support": [0.0, 1.0]}}
FORCE_VARIANTS = {
    **{f"{kind}-{run}": success(base, command, replace_force(**force))
       for kind, force in _FORCES.items()
       for run, base, command in (
           ("sequential", "sequential_nonmarkov", "sequential"),
           ("sequential-csv", "sequential_nonmarkov",
            "sequential --format csv"),
           ("sweep", "sweep_scaling", "sweep"))},
    **{f"table-{sub}": success("qfi_noiseless_pi", sub,
                                replace_force(**KNOTTED_TABLE))
       for sub in ("qfi", "moments")},
}

# Prepared states the single-shot scenarios do not ship.
PREPARED_STATES = {
    "coherent": {"kind": "coherent", "alpha_re": 0.7, "alpha_im": -0.4},
    "thermal": {"kind": "thermal", "nbar": 1.5},
    # the noiseless window's phase(D) - phase(G) is pi/2
    "squeezed_aligned_r20": {"kind": "squeezed", "r": 20.0,
                             "axis_angle": math.pi / 2},
    "squeezed_misaligned": {"kind": "squeezed", "r": 0.6, "axis_angle": 0.9},
    "matrix": {"kind": "matrix", "cov": [[1.2, 0.3], [0.3, 0.9]],
               "mean_re": 0.2},
}
# Each prepared state through qfi on qfi_noiseless_pi and through estimate
# on estimate_cramer_rao, which share the window; strongly squeezed states
# on moments_detuned_coherent; estimate on the states of qfi_ohmic_thermal
# and qfi_best_state_resonant.
STATE_VARIANTS = {
    **{f"{state}-{sub}": success(base, sub, update("probe", init=init))
       for state, init in PREPARED_STATES.items()
       for sub, base in (("qfi", "qfi_noiseless_pi"),
                         ("estimate", "estimate_cramer_rao"))},
    **{f"squeezed_r{r:g}-{sub}": success(
        "moments_detuned_coherent", sub,
        update("probe", init={"kind": "squeezed", "r": r, "axis_angle": 0.3}))
       for r in (6.0, 8.0) for sub in ("moments", "qfi")},
    **{f"{base}-estimate": success(base, "estimate")
       for base in ("qfi_ohmic_thermal", "qfi_best_state_resonant")},
}

TABLES = {"SHIPPED": SHIPPED, "FORCE_VARIANTS": FORCE_VARIANTS,
          "STATE_VARIANTS": STATE_VARIANTS, "OUT_OF_RANGE": OUT_OF_RANGE,
          "PAST_THE_GRID": PAST_THE_GRID, "MISSING_INPUT": MISSING_INPUT,
          "TWO_FAULTS": TWO_FAULTS, "ARITHMETIC_FAILURES": ARITHMETIC_FAILURES,
          "FAILING_RUNS": FAILING_RUNS, "OVERFLOWS": OVERFLOWS,
          "ROOT_BLOCKS": ROOT_BLOCKS, "FORMAT_MISMATCHES": FORMAT_MISMATCHES}
# Every case, as "TABLE/name".
CORPUS = {f"{table}/{name}": case for table, cases in TABLES.items()
          for name, case in cases.items()}
