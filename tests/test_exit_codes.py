"""Property: every config that passes the key table exits 0, 2 or 3.

Configs are built by the strategies below, which keep their own tables of
each probe-state and force kind's keys (`INIT_KEYS`, `FORCE_KEYS`)
independent of `config.KEYS`, and run through `cli.main` in-process; a
probe state or a force mostly holds only its own kind's keys, and now and
then lacks a required one or holds another kind's, and a config now and
then lacks a whole block, `probe`, `bath` and `grid` included.
A numpy RuntimeWarning fails the example: the engine reports overflow
through its exit code, never through a warning. A failed run writes
nothing to stdout, and a run that exits 0 prints only
finite numbers, except the asymptotic and Markov columns of `sweep`, which
read nan where the bath or the config gives none. Magnitudes range from
1e-300 to 1e300 where an input scales a result (occupations, force values,
energies, probe states); couplings, frequencies and times stay moderate or
tiny, so no window needs more quadrature panels than a small example
affords.
Every example is small: at most 8 modes, 512 grid steps, 9 report points
and 1000 cadence steps.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmqfi import cli

# The sweep columns that read nan where an asymptotic or a rate is absent.
SWEEP_NAN_COLUMNS = {"tau_opt_asymptotic", "total_qfi_asymptotic",
                     "markov_bound"}

# The keys and columns that hold an information, a variance, a bound, an
# interval or a modulus: none can be negative.
NON_NEGATIVE = re.compile(
    r"value|abs_d|variance|det_sigma|crb|empirical_mse|ratio_to_crb"
    r"|tau_opt.*|total_qfi.*|markov_bound|xi|c_coeff|var_x|var_p|n_b"
    r"|abs_g|abs_exact|abs_interaction")

TINY = st.sampled_from([0.0, 1e-300, 1e-30])
TINY_OR_HUGE = st.one_of(TINY, st.sampled_from([1e30, 1e200, 1e300]))
MODERATE = st.floats(0.0, 10.0)
SCALE = st.one_of(MODERATE, TINY_OR_HUGE)
# A huge coupling makes G turn faster than any quadrature resolves: such a
# run exits 3, but only after every window has spent its full panel budget.
COUPLING = st.one_of(MODERATE, TINY)
SIGNED = st.one_of(st.floats(-10.0, 10.0), TINY_OR_HUGE,
                   TINY_OR_HUGE.map(lambda v: -v))
POSITIVE = st.one_of(st.floats(1e-3, 10.0),
                     st.sampled_from([1e-300, 1e-30, 1e30, 1e300]))
ENERGY = st.one_of(st.floats(0.5, 100.0), st.sampled_from([1e30, 1e300]))
FRACTION = st.floats(0.0, 1.0)
# The top-level blocks of a scenario, in the order of the README.
BLOCKS = ("probe", "bath", "force", "grid", "window", "sequential", "options")
# Most steps of a cadence. A search whose bound prunes nothing evaluates
# every tooth T / nu, about MAX_STEPS^2 / 2 step windows in all, so the cap
# stays far below the engine's own.
MAX_STEPS = 1000


def _usually(draw) -> bool:
    """True nine times in ten, so most examples get past validation."""
    return draw(st.sampled_from((True,) * 9 + (False,)))


def _optional(draw, block: dict, key: str, strategy):
    if draw(st.booleans()):
        block[key] = draw(strategy)


# The keys of each probe-state and force kind beside `kind`: (required,
# optional). A block mostly holds its kind's own keys; one in ten drops a
# required key or adds a key of another kind, which exits 2.
INIT_KEYS = {"vacuum": ((), ()), "coherent": ((), ("alpha_re", "alpha_im")),
             "squeezed": ((), ("r", "axis_angle")), "thermal": ((), ("nbar",)),
             "matrix": (("cov",), ("mean_re", "mean_im"))}
FORCE_KEYS = {"constant": ((), ("value",)),
              "sinusoid": ((), ("amplitude", "frequency", "phase")),
              "gaussian_pulse": (("center", "width"), ()),
              "table": (("times", "values"), ())}


def _kind_block(draw, kinds: dict, values: dict) -> dict:
    """A block of a drawn kind, each key's value drawn from values[key]."""
    kind = draw(st.sampled_from(sorted(kinds)))
    required, optional = kinds[kind]
    block = {"kind": kind, **{key: draw(values[key]) for key in required}}
    for key in optional:
        _optional(draw, block, key, values[key])
    if not _usually(draw):
        foreign = sorted({key for spec in kinds.values() for key in spec[0]
                          + spec[1]} - {*required, *optional})
        if required and draw(st.booleans()):
            del block[draw(st.sampled_from(required))]
        else:
            key = draw(st.sampled_from(foreign))
            block[key] = draw(values[key])
    return block


@st.composite
def probes(draw, energy: bool):
    probe = {"omega0": draw(st.floats(0.01, 5.0))}
    if energy:
        probe["energy"] = draw(ENERGY)
    elif draw(st.booleans()):
        cov = st.lists(st.lists(SIGNED, min_size=2, max_size=2), min_size=2,
                       max_size=2)
        values = {key: SIGNED for key in ("alpha_re", "alpha_im", "r",
                                          "axis_angle", "nbar", "mean_re",
                                          "mean_im")}
        probe["init"] = _kind_block(draw, INIT_KEYS, {**values, "cov": cov})
    return probe


@st.composite
def baths(draw):
    if draw(st.booleans()):
        return {"modes": draw(st.lists(
            st.tuples(COUPLING, st.floats(0.0, 5.0), SCALE).map(list),
            max_size=8))}
    continuum = {"family": draw(st.sampled_from(["flat", "ohmic"])),
                 "scale": draw(COUPLING), "cutoff": draw(st.floats(1e-300, 5.0)),
                 "n_modes": draw(st.integers(1, 8))}
    _optional(draw, continuum, "s", st.floats(0.0, 3.0))
    _optional(draw, continuum, "cutoff_shape",
              st.sampled_from(["hard", "exponential"]))
    if draw(st.booleans()):
        occupation = {"model": draw(st.sampled_from(
            ["zero", "thermal", "constant"]))}
        _optional(draw, occupation, "temperature", POSITIVE)
        _optional(draw, occupation, "value", SCALE)
        continuum["occupation"] = occupation
    return {"continuum": continuum}


@st.composite
def forces(draw):
    n = draw(st.integers(2, 5))
    times = st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)
    force = _kind_block(draw, FORCE_KEYS, {
        "value": SIGNED, "amplitude": SIGNED,
        "frequency": st.floats(-10.0, 10.0), "phase": st.floats(-10.0, 10.0),
        "center": st.floats(-1.0, 5.0), "width": st.floats(0.0, 2.0),
        "times": times.map(sorted) if _usually(draw) else times,
        "values": st.lists(SIGNED, min_size=n, max_size=n)})
    if draw(st.booleans()):
        force["support"] = sorted(draw(st.lists(st.floats(0.0, 5.0),
                                                min_size=2, max_size=2)))
    return force


@st.composite
def sequential_blocks(draw, t_end: float, n_steps: int):
    # intervals up to t_end, the response's reach, and at least T / MAX_STEPS;
    # the default bracket starts at 8 grid steps
    total = draw(st.floats(0.01, 4.0))
    choice = draw(st.sampled_from(["tau", "bounds", "default"]))
    if choice == "default":
        total = min(total, MAX_STEPS * 8.0 * t_end / n_steps)
    block = {"total_window": total}
    reach = min(total, t_end)
    if choice == "tau":
        block["tau"] = max(reach * draw(FRACTION), total / MAX_STEPS)
        _optional(draw, block, "optimize", st.just(False))
    elif choice == "bounds":
        lo = max(reach * draw(st.floats(0.0, 0.5)), total / MAX_STEPS)
        block["tau_bounds"] = [lo, lo + (reach - lo) * draw(FRACTION)]
        _optional(draw, block, "optimize", st.just(True))
    return block


@st.composite
def runs(draw):
    """(subcommand, format, raw config), with the blocks the subcommand
    reads nine times in ten and every other block or key at random; one
    config in ten then lacks one top-level block, if it drew that block."""
    # drawn first: a draw at the end picks nearly always the same block
    dropped = None if _usually(draw) else draw(st.sampled_from(BLOCKS))
    sub, fmt = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    t_end, n_steps = draw(st.floats(0.01, 5.0)), draw(st.integers(2, 512))
    energy = sub in ("sequential", "sweep") or (
        sub in ("qfi", "estimate") and draw(st.booleans()))
    raw = {"probe": draw(probes(energy if _usually(draw) else not energy)),
           "bath": draw(baths()),
           "grid": {"t_end": t_end, "n_steps": n_steps}}
    if _usually(draw):
        raw["force"] = draw(forces())
    if _usually(draw):
        t0, t1 = sorted(t_end * draw(FRACTION) for _ in range(2))
        raw["window"] = {"t0": t0, "t": t1}
    if _usually(draw):
        raw["sequential"] = draw(sequential_blocks(t_end, n_steps))
    options = {}
    _optional(draw, options, "seed", st.integers(0, 10))
    _optional(draw, options, "replications", st.integers(2, 50))
    _optional(draw, options, "nu", st.integers(1, 100))
    _optional(draw, options, "force_amplitude", SIGNED)
    _optional(draw, options, "theta", st.floats(-10.0, 10.0))
    if sub == "sweep" and _usually(draw) or draw(st.booleans()):
        options["energy_sweep"] = draw(st.lists(ENERGY, min_size=1,
                                                max_size=3))
    _optional(draw, options, "gamma", SCALE)
    _optional(draw, options, "n_thermal", SCALE)
    _optional(draw, options, "report_points", st.integers(2, 9))
    _optional(draw, options, "t_prime",
              FRACTION.map(lambda f: 0.99 * f * t_end))
    raw["options"] = options
    raw.pop(dropped, None)
    return sub, fmt, raw


def _numbers(value, key=None):
    """(key, number) for every number in a parsed JSON payload; a list's
    numbers carry the list's key."""
    if isinstance(value, dict):
        return [n for k, item in value.items() for n in _numbers(item, k)]
    if isinstance(value, list):
        return [n for item in value for n in _numbers(item, key)]
    return [(key, value)] if isinstance(value, float) else []


def _check_finite(sub: str, fmt: str, text: str):
    """Every number finite (sweep's absent values aside) and none negative
    under a NON_NEGATIVE key or column."""
    if fmt == "json":
        payload = json.loads(text, parse_constant=float)
        for key, value in _numbers(payload):
            assert math.isfinite(value), text
            assert not (value < 0 and NON_NEGATIVE.fullmatch(key)), (key, text)
        return
    header, *rows = text.splitlines()
    names = header.split(",")
    for row in rows:
        for name, cell in zip(names, row.split(",")):
            value = float(cell)
            assert math.isfinite(value) or (
                sub == "sweep" and name in SWEEP_NAN_COLUMNS
                and math.isnan(value)), (name, row)
            negative = value < 0 and NON_NEGATIVE.fullmatch(name)
            assert not negative, (name, row)


def _main(sub: str, fmt, raw: dict, action: str):
    """(exit code, stdout, stderr) of cli.main on raw, with numpy's
    RuntimeWarnings under the warnings filter action; stderr starts with
    the warnings that production would print."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "scenario.json"
        config.write_text(json.dumps(raw))
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter(action, RuntimeWarning)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main([sub, "--config", str(config),
                                 *(["--format", fmt] if fmt else [])])
    printed = "".join(warnings.formatwarning(w.message, w.category, w.filename,
                                             w.lineno) for w in shown)
    return code, out.getvalue(), printed + err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(run=runs())
def test_every_valid_config_exits_cleanly(run):
    sub, fmt, raw = run
    code, out, err = _main(sub, fmt, raw, "error")
    assert code in (0, 2, 3), err
    if code:
        assert out == "", (code, err)
    else:
        _check_finite(sub, fmt, out)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _pulse(raw):
    # 1e-200 wide, so every window node lies ~1e200 widths from its center
    raw["force"] = {"kind": "gaussian_pulse", "center": 0.5, "width": 1e-200,
                    "support": [0.0, 4.0]}


def _driven_overflow(raw):
    raw["force"] = {"kind": "table", "times": [0.0, 5.0],
                    "values": [1e30, 1e30]}
    raw["options"]["force_amplitude"] = 1e300


def _default_grid(t_end, omega0=None):
    """A grid without n_steps, so its count is the default grid's."""
    def edit(raw):
        raw["grid"] = {"t_end": t_end}
        if omega0 is not None:
            raw["probe"]["omega0"] = omega0
    return edit


# Inputs whose arithmetic once overflowed in numpy, which printed its
# RuntimeWarning ahead of the one line of the exit code, or overflowed a
# default grid's step count, which ended in a traceback: (base scenario,
# subcommand, edit of the parsed file, exit code).
OVERFLOWS = {
    "coherent_mean_past_float": (
        "moments_detuned_coherent", "moments",
        lambda raw: raw["probe"]["init"].update(alpha_re=1.7e308), 2),
    "displacement_squared_qfi": (
        "qfi_best_state_resonant", "qfi",
        lambda raw: raw["force"].update(value=1e200), 3),
    "displacement_squared_cadence": (
        "sequential_nonmarkov", "sequential",
        lambda raw: (raw["force"].update(value=1e200), raw.update(
            sequential={"total_window": 1.0, "tau": 0.1})), 3),
    "pulse_far_narrower_than_its_distance": (
        "qfi_best_state_resonant", "qfi", _pulse, 0),
    "driven_mean_past_float": (
        "moments_detuned_coherent", "moments", _driven_overflow, 3),
    # omega / T underflows to 0, so the occupation 1 / expm1(0) is inf
    "occupation_past_float": (
        "correlation_flatband", "correlation",
        lambda raw: raw["bath"].update(continuum={
            "family": "flat", "scale": 0.0, "cutoff": 1e-300, "n_modes": 1,
            "occupation": {"model": "thermal", "temperature": 1e30}}), 2),
    "table_slope_past_float": (
        "qfi_best_state_resonant", "qfi",
        lambda raw: raw.update(force={"kind": "table",
                                      "times": [0.0, 1.6e-195, 1.0],
                                      "values": [0.0, 1e200, 0.0]}), 2),
    "table_square_cadence_search": (
        "sequential_nonmarkov", "sequential",
        lambda raw: raw.update(force={"kind": "table", "times": [0.0, 1.0],
                                      "values": [1e200, 1e200]}), 3),
    # default grid counts past numpy's array size, its dimension limit and
    # the float range
    "default_grid_past_array_size": (
        "response_narrowband", "response", _default_grid(1e17), 2),
    "default_grid_past_dimension_limit": (
        "sequential_nonmarkov", "sequential", _default_grid(1e19), 2),
    "default_grid_count_infinite": (
        "qfi_best_state_resonant", "qfi", _default_grid(1e300, 1e10), 2),
    "markov_ceiling_past_float": (
        "sequential_nonmarkov", "sequential",
        lambda raw: raw["options"].update(gamma=2.2250738585e-313), 3),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflow_prints_no_warning(case):
    # the warnings print here, as in production; a failed run prints its
    # one error line and nothing else
    base, sub, edit, want = OVERFLOWS[case]
    raw = json.loads((SCENARIOS / f"{base}.json").read_text())
    edit(raw)
    code, out, err = _main(sub, None, raw, "always")
    assert code == want, err
    assert len(err.splitlines()) == (code != 0) and "Warning" not in err
    assert (out == "") == (code != 0)
