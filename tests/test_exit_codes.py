"""Property: every config that passes the key table exits 0, 2 or 3.

Configs are drawn from `config.KEYS` and run through `cli.main` in-process.
A failed run writes nothing to stdout, and a run that exits 0 prints only
finite numbers, except the asymptotic and Markov columns of `sweep`, which
read nan where the bath or the config gives none. Magnitudes range from
1e-300 to 1e300 where an input scales a result (occupations, force values,
energies, probe states); couplings, frequencies and times stay moderate or
tiny, so no window needs more quadrature panels than a small example
affords.
Every example is small: at most 8 modes, 512 grid steps, 9 report points
and 100 cadence steps.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from nmqfi import cli

# The sweep columns that read nan where an asymptotic or a rate is absent.
SWEEP_NAN_COLUMNS = {"tau_opt_asymptotic", "total_qfi_asymptotic",
                     "markov_bound"}

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
# Most steps of a cadence. A search may evaluate every tooth T / nu, about
# MAX_STEPS^2 / 2 step windows in all, when its bound is nan (FOUND in
# CHANGES.md), so the cap stays far below the engine's own.
MAX_STEPS = 100


def _usually(draw) -> bool:
    """True nine times in ten, so most examples get past validation."""
    return draw(st.sampled_from((True,) * 9 + (False,)))


def _optional(draw, block: dict, key: str, strategy):
    if draw(st.booleans()):
        block[key] = draw(strategy)


@st.composite
def probes(draw, energy: bool):
    probe = {"omega0": draw(st.floats(0.01, 5.0))}
    if energy:
        probe["energy"] = draw(ENERGY)
    elif draw(st.booleans()):
        init = {"kind": draw(st.sampled_from(
            ["vacuum", "coherent", "squeezed", "thermal", "matrix"]))}
        for key in ("alpha_re", "alpha_im", "r", "axis_angle", "nbar",
                    "mean_re", "mean_im"):
            _optional(draw, init, key, SIGNED)
        if init["kind"] == "matrix":
            init["cov"] = draw(st.lists(st.lists(SIGNED, min_size=2,
                                                 max_size=2),
                                        min_size=2, max_size=2))
        probe["init"] = init
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
    kind = draw(st.sampled_from(["constant", "sinusoid", "gaussian_pulse",
                                 "table"]))
    force = {"kind": kind}
    if kind == "table":
        n = draw(st.integers(2, 5))
        times = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
        force["times"] = sorted(times) if _usually(draw) else times
        force["values"] = draw(st.lists(SIGNED, min_size=n, max_size=n))
    else:
        _optional(draw, force, "value", SIGNED)
        _optional(draw, force, "amplitude", SIGNED)
        _optional(draw, force, "frequency", st.floats(-10.0, 10.0))
        _optional(draw, force, "phase", st.floats(-10.0, 10.0))
        force["center"] = draw(st.floats(-1.0, 5.0))
        force["width"] = draw(st.floats(0.0, 2.0))
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
    reads nine times in ten and every other block or key at random."""
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
    return sub, fmt, raw


def _numbers(value):
    """Every number in a parsed JSON payload."""
    if isinstance(value, dict):
        return [n for item in value.values() for n in _numbers(item)]
    if isinstance(value, list):
        return [n for item in value for n in _numbers(item)]
    return [value] if isinstance(value, float) else []


def _check_finite(sub: str, fmt: str, text: str):
    if fmt == "json":
        payload = json.loads(text, parse_constant=float)
        assert all(math.isfinite(v) for v in _numbers(payload)), text
        return
    header, *rows = text.splitlines()
    names = header.split(",")
    for row in rows:
        for name, cell in zip(names, row.split(",")):
            value = float(cell)
            assert math.isfinite(value) or (
                sub == "sweep" and name in SWEEP_NAN_COLUMNS
                and math.isnan(value)), (name, row)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(run=runs())
def test_every_valid_config_exits_cleanly(run):
    sub, fmt, raw = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "scenario.json"
        config.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            # numpy's overflow warnings print, as in production
            warnings.simplefilter("default", RuntimeWarning)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main([sub, "--config", str(config),
                                 "--format", fmt])
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert out.getvalue() == "", (code, err.getvalue())
    else:
        _check_finite(sub, fmt, out.getvalue())
