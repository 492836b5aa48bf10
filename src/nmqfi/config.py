"""Scenario configuration: key table, validation, and object building.

A scenario file is one JSON object with blocks `probe`, `bath`, `force`,
`grid`, `window`, `sequential`, and `options`. Every run reads `probe`,
`bath` and `grid`, so `KEYS` requires them; a subcommand may need more
(see the CLI). Unknown keys are rejected everywhere so typos fail loudly
before any computation runs.
"""

from __future__ import annotations

import functools
import json
import math
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from . import bath as bath_mod
from . import force as force_mod
from . import probe as probe_mod
from . import response as response_mod
from .errors import ConfigError, Frozen, covers

if TYPE_CHECKING:
    from .bath import ContinuousSpectrum, DiscreteBath
    from .force import ForceModulation
    from .probe import GaussianProbeInit
    from .response import TimeGrid

# One rule per scenario key: BOOL, a _Num, a set of allowed strings, [item
# rule, fewest, most or None] for an array, a _Block (an object allowing
# only its own keys and needing its required ones), or _Kinds (an object
# whose selector key picks the _Block of that kind's keys).
BOOL = "boolean"


class _Num(NamedTuple):
    """A JSON number, never a boolean, in [low, high]; whole (1.0 included)
    if integer."""
    integer: bool = False
    low: float = -math.inf
    high: float = math.inf


class _Block(dict):
    def __init__(self, required: tuple = (), **keys):
        super().__init__(keys)
        self.required = required


class _Kinds(dict):
    """Kind name -> the _Block of the selector, the keys every kind takes
    (common) and the kind's own; a key only another kind takes is refused."""
    def __init__(self, selector: str, common: _Block = _Block(), **kinds):
        super().__init__({
            name: _Block(common.required + own.required,
                         **{selector: set(kinds)}, **common, **own)
            for name, own in kinds.items()})
        self.selector = selector


NUM, _PAIR = _Num(), [_Num(), 2, 2]
# > 0: math.ulp(0.0) = 5e-324 is the smallest positive float
_NONNEGATIVE, _POSITIVE = _Num(low=0), _Num(low=math.ulp(0.0))
# keeps E^2 and script_e(E) finite; a sweep value, script_e itself, by 2x
_ENERGY = _Num(low=0.5, high=1.34e154)
_COUNT = 2 ** 53   # the largest integer a JSON number holds exactly

KEYS = _Block(
    ("probe", "bath", "grid"),
    probe=_Block(("omega0",), omega0=NUM, energy=_ENERGY, init=_Kinds(
        "kind", vacuum=_Block(), coherent=_Block(alpha_re=NUM, alpha_im=NUM),
        squeezed=_Block(r=NUM, axis_angle=NUM), thermal=_Block(nbar=NUM),
        matrix=_Block(("cov",), mean_re=NUM, mean_im=NUM, cov=[_PAIR, 2, 2]))),
    bath=_Block(modes=[[NUM, 3, 3], 0, None], continuum=_Kinds(
        "family", _Block(
            ("scale", "cutoff", "n_modes"), scale=NUM, cutoff=NUM,
            cutoff_shape={"hard", "exponential"},
            n_modes=_Num(True, 1, _COUNT), occupation=_Kinds(
                "model", zero=_Block(), constant=_Block(value=NUM),
                thermal=_Block(("temperature",), temperature=NUM))),
        flat=_Block(), ohmic=_Block(s=NUM))),
    force=_Kinds(
        "kind", _Block(support=_PAIR), constant=_Block(value=NUM),
        sinusoid=_Block(amplitude=NUM, frequency=NUM, phase=NUM),
        gaussian_pulse=_Block(("center", "width"), center=NUM, width=NUM),
        table=_Block(("times", "values"), times=[NUM, 2, None],
                     values=[NUM, 2, None])),
    grid=_Block(("t_end",), t_end=NUM, n_steps=_Num(True, 2, _COUNT)),
    window=_Block(("t0", "t"), t0=NUM, t=NUM),
    sequential=_Block(("total_window",), total_window=_POSITIVE, tau=_POSITIVE,
                      optimize=BOOL, tau_bounds=_PAIR),
    options=_Block(seed=_Num(True, 0), nu=_Num(True, 1),
                   replications=_Num(True, 2, _COUNT),
                   report_points=_Num(True, 2, _COUNT), force_amplitude=NUM,
                   theta=NUM, energy_sweep=[_ENERGY, 1, None], gamma=_NONNEGATIVE,
                   n_thermal=_NONNEGATIVE, t_prime=_NONNEGATIVE))


def _check(value: Any, rule: Any, path: str = "") -> None:
    """Raise ConfigError naming the first place where value breaks rule."""
    def fail(problem: str):
        raise ConfigError(f"config invalid at {path or '<root>'}: {problem}")

    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(rule, _Kinds):
        if not isinstance(value, dict):
            fail("expected an object")
        if rule.selector not in value:
            fail(f"missing required key '{rule.selector}'")
        _check(value[rule.selector], set(rule), f"{path}/{rule.selector}")
        _check(value, rule[value[rule.selector]], path)
    elif isinstance(rule, _Block):
        if not isinstance(value, dict):
            fail("expected an object")
        for key in rule.required:
            if key not in value:
                fail(f"missing required key '{key}'")
        for key, item in value.items():
            if key not in rule:
                fail(f"unknown key '{key}'")
            _check(item, rule[key], f"{path}/{key}" if path else key)
    elif isinstance(rule, list):
        item, fewest, most = rule
        if not (isinstance(value, list)
                and fewest <= len(value) <= (most or len(value))):
            fail(f"expected an array of {fewest} to {most or 'any'} items")
        for i, entry in enumerate(value):
            _check(entry, item, f"{path}/{i}")
    elif isinstance(rule, set):
        if not (isinstance(value, str) and value in rule):
            fail(f"expected one of {', '.join(sorted(rule))}, got {value!r}")
    elif rule == BOOL:
        if not isinstance(value, bool):
            fail(f"expected a boolean, got {value!r}")
    elif not (number and (not rule.integer or isinstance(value, int)
                          or value.is_integer())):
        fail(f"expected {'an integer' if rule.integer else 'a number'}, "
             f"got {value!r}")
    elif not rule.low <= value <= rule.high:
        fail(f"{value!r} is outside [{rule.low}, {rule.high}]")


def _kwargs(block: dict, skip: tuple, **renamed: str) -> dict:
    """The block's keys but skip as keyword arguments, renamed[key] or the
    key naming its parameter; an absent key keeps the parameter's default."""
    return {renamed.get(key, key): value for key, value in block.items()
            if key not in skip}


def _builder(build):
    """Report a builder's ValueError (a value out of its domain) as ConfigError."""
    @functools.wraps(build)
    def checked(self, *args):
        try:
            return build(self, *args)
        except ValueError as exc:
            raise ConfigError(f"{build.__name__}: {exc}") from exc
    return checked


class ScenarioConfig(Frozen):
    """Validated scenario with lazily built domain objects."""

    def __init__(self, raw: dict):
        vars(self).update(raw=raw)

    @property
    def omega0(self) -> float:
        return float(self.raw["probe"]["omega0"])

    @property
    def options(self) -> dict:
        return self.raw.get("options", {})

    def block(self, name: str) -> dict:
        """The named top-level block, which the running subcommand needs."""
        if name not in self.raw:
            raise ConfigError(f"scenario needs a '{name}' block for this subcommand")
        return self.raw[name]

    def spectrum(self) -> Optional[ContinuousSpectrum]:
        c = self.raw["bath"].get("continuum")
        if c is None:
            return None
        shape = _kwargs(c, ("family", "scale", "cutoff", "n_modes",
                            "occupation"), s="exponent")
        if "occupation" in c:
            shape["occupation"] = bath_mod.OccupationModel(
                **_kwargs(c["occupation"], (), model="kind"))
        return bath_mod.ContinuousSpectrum(c["family"], float(c["scale"]),
                                           float(c["cutoff"]), **shape)

    @_builder
    def bath(self) -> DiscreteBath:
        block = self.raw["bath"]
        if "continuum" in block:
            return bath_mod.discretize(self.spectrum(),
                                       int(block["continuum"]["n_modes"]),
                                       self.omega0)
        columns = list(zip(*block["modes"])) or [(), (), ()]
        return bath_mod.DiscreteBath(*columns, self.omega0)

    @_builder
    def force(self) -> ForceModulation:
        block = self.block("force")
        make = {"constant": force_mod.ConstantForce,
                "sinusoid": force_mod.SinusoidForce,
                "gaussian_pulse": force_mod.GaussianPulseForce,
                "table": force_mod.TabulatedForce}[block["kind"]]
        return make(**_kwargs(block, ("kind",), value="amplitude",
                              frequency="angular_frequency"))

    @_builder
    def init_state(self) -> GaussianProbeInit:
        if "energy" in self.raw["probe"]:
            raise ConfigError("probe gives an energy: build the state per "
                              "window with the best-state form instead")
        init = self.raw["probe"].get("init", {})
        if init.get("kind") == "matrix":
            mean = complex(init.get("mean_re", 0.0), init.get("mean_im", 0.0))
            return probe_mod.GaussianProbeInit.from_covariance(mean, init["cov"])
        return probe_mod.GaussianProbeInit(
            complex(init.get("alpha_re", 0.0), init.get("alpha_im", 0.0)),
            **_kwargs(init, ("kind", "alpha_re", "alpha_im"), axis_angle="axis"))

    def energy(self) -> Optional[float]:
        val = self.raw["probe"].get("energy")
        return None if val is None else float(val)

    @_builder
    def grid(self, bath: DiscreteBath) -> TimeGrid:
        block = self.raw["grid"]
        t_end = float(block["t_end"])
        if "n_steps" in block:
            return response_mod.TimeGrid(t_end, int(block["n_steps"]))
        return response_mod.default_grid(bath, t_end)

    def window(self) -> tuple[float, float]:
        block = self.block("window")
        return float(block["t0"]), float(block["t"])


def validate(raw: Any) -> ScenarioConfig:
    """Check raw against KEYS and the rules that relate two keys; wrap it
    as a scenario."""
    _check(raw, KEYS)
    probe, bath, t_end = raw["probe"], raw["bath"], raw["grid"]["t_end"]
    if ("modes" in bath) == ("continuum" in bath):
        raise ConfigError("bath block must give either 'modes' or 'continuum'")
    if "energy" in probe and "init" in probe:
        raise ConfigError("probe.energy and probe.init are mutually exclusive: "
                          "the energy selects the best squeezed state")
    if raw.get("options", {}).get("t_prime", -math.inf) >= t_end:
        raise ConfigError("options.t_prime must be < grid.t_end")
    window = raw.get("window", {"t0": 0, "t": 0})
    if window["t"] < window["t0"]:
        raise ConfigError("window must satisfy t0 <= t")
    seq = raw.get("sequential", {})
    lo, hi = seq.get("tau_bounds", (0, 0))
    reach = {"window t - t0": window["t"] - window["t0"],
             "sequential.tau": seq.get("tau", 0),
             "sequential.tau_bounds upper end": hi}
    if "sequential" in raw:
        total = seq["total_window"]
        if seq.get("tau", 0) > total:
            raise ConfigError("sequential.tau must be <= total_window")
        if seq.get("optimize", "tau" not in seq) == ("tau" in seq):
            raise ConfigError("sequential.optimize false needs sequential.tau "
                              "and true takes none")
        if "tau_bounds" in seq and not 0 < lo < hi <= total:
            raise ConfigError("sequential.tau_bounds must satisfy "
                              "0 < lower < upper <= total_window")
    for name, tau in reach.items():     # G is solved on [0, t_end] only
        if not covers(t_end, tau):
            raise ConfigError(f"{name} = {tau!r} is longer than "
                              f"grid.t_end = {t_end!r}")
    return ScenarioConfig(raw)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def _integer(text: str) -> int:
    """An integer literal whose float is finite, which also keeps it within
    int()'s 4,300-digit limit."""
    if not math.isfinite(float(text)):
        raise ConfigError(f"integer of {len(text.lstrip('-'))} digits in "
                          "config is beyond the float range")
    return int(text)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite, parse_int=_integer,
                            parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON "
                          f"(line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 (byte "
                          f"0x{exc.object[exc.start]:02x} at position "
                          f"{exc.start})") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests JSON arrays or objects too "
                          "deeply to parse") from exc
    return validate(raw)
