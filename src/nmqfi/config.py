"""Scenario configuration: key table, validation, and object building.

A scenario file is one JSON object with blocks `probe`, `bath`, `force`,
`grid`, `window`, `sequential`, and `options`; each subcommand requires a
subset (see the CLI). Unknown keys are rejected everywhere so typos fail
loudly before any computation runs.
"""

from __future__ import annotations

import functools
import json
import math
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

import numpy as np

from . import bath as bath_mod
from . import force as force_mod
from . import probe as probe_mod
from . import response as response_mod
from .errors import ConfigError, Frozen

if TYPE_CHECKING:
    from .bath import ContinuousSpectrum, DiscreteBath
    from .force import ForceModulation
    from .probe import GaussianProbeInit
    from .response import TimeGrid

# One rule per scenario key: NUM (any JSON number but a boolean), BOOL, an
# _Int (an integer, 1.0 included, at least its minimum), a set of allowed
# strings, [item rule, fewest, most or None] for an array, or a _Block: an
# object allowing only its own keys and needing its required ones.
NUM, BOOL = "number", "boolean"


class _Int(NamedTuple):
    minimum: float = -math.inf


class _Block(dict):
    def __init__(self, required: tuple = (), **keys):
        super().__init__(keys)
        self.required = required


_PAIR = [NUM, 2, 2]
KEYS = _Block(
    probe=_Block(("omega0",), omega0=NUM, energy=NUM, init=_Block(
        ("kind",), kind={"vacuum", "coherent", "squeezed", "thermal", "matrix"},
        alpha_re=NUM, alpha_im=NUM, r=NUM, axis_angle=NUM, nbar=NUM,
        mean_re=NUM, mean_im=NUM, cov=[_PAIR, 2, 2])),
    bath=_Block(modes=[[NUM, 3, 3], 0, None], continuum=_Block(
        ("family", "scale", "cutoff", "n_modes"), family={"flat", "ohmic"},
        s=NUM, scale=NUM, cutoff=NUM, cutoff_shape={"hard", "exponential"},
        n_modes=_Int(1), occupation=_Block(
            ("model",), model={"zero", "thermal", "constant"},
            temperature=NUM, value=NUM))),
    force=_Block(
        ("kind",), kind={"constant", "sinusoid", "gaussian_pulse", "table"},
        value=NUM, amplitude=NUM, frequency=NUM, phase=NUM, center=NUM,
        width=NUM, times=[NUM, 2, None], values=[NUM, 2, None], support=_PAIR),
    grid=_Block(("t_end",), t_end=NUM, n_steps=_Int(2)),
    window=_Block(("t0", "t"), t0=NUM, t=NUM),
    sequential=_Block(("total_window",), total_window=NUM, tau=NUM,
                      optimize=BOOL, tau_bounds=_PAIR),
    options=_Block(seed=_Int(), replications=_Int(2), nu=_Int(1),
                   force_amplitude=NUM, theta=NUM, energy_sweep=[NUM, 1, None],
                   gamma=NUM, n_thermal=NUM, report_points=_Int(2), t_prime=NUM))


def _check(value: Any, rule: Any, path: str = "") -> None:
    """Raise ConfigError naming the first place where value breaks rule."""
    def fail(problem: str):
        raise ConfigError(f"config invalid at {path or '<root>'}: {problem}")

    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(rule, _Block):
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
    elif isinstance(rule, _Int):
        if not (number and (isinstance(value, int) or value.is_integer())):
            fail(f"expected an integer, got {value!r}")
        if value < rule.minimum:
            fail(f"{value!r} is below the minimum {rule.minimum}")
    elif not (isinstance(value, bool) if rule == BOOL else number):
        fail(f"expected a {rule}, got {value!r}")


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
        c = self.raw.get("bath", {}).get("continuum")
        if c is None:
            return None
        occ = c.get("occupation", {"model": "zero"})
        model = bath_mod.OccupationModel(occ["model"],
                                         float(occ.get("temperature", 0.0)),
                                         float(occ.get("value", 0.0)))
        return bath_mod.ContinuousSpectrum(
            family=c["family"], scale=float(c["scale"]), cutoff=float(c["cutoff"]),
            exponent=float(c.get("s", 1.0)),
            cutoff_shape=c.get("cutoff_shape", "hard"), occupation=model)

    @_builder
    def bath(self) -> DiscreteBath:
        block = self.block("bath")
        if ("modes" in block) == ("continuum" in block):
            raise ConfigError("bath block must give either 'modes' or 'continuum'")
        if "continuum" in block:
            return bath_mod.discretize(self.spectrum(),
                                       int(block["continuum"]["n_modes"]),
                                       self.omega0)
        arr = np.asarray(block["modes"], dtype=float).reshape(-1, 3)
        return bath_mod.DiscreteBath(arr[:, 0], arr[:, 1], arr[:, 2],
                                     self.omega0)

    @_builder
    def force(self) -> ForceModulation:
        block = self.block("force")
        support = tuple(block.get("support", (0.0, float("inf"))))
        kind = block["kind"]
        if kind == "constant":
            return force_mod.constant(block.get("value", 1.0), support)
        if kind == "sinusoid":
            return force_mod.sinusoid(block.get("amplitude", 1.0),
                                      block.get("frequency", 1.0),
                                      block.get("phase", 0.0), support)
        if kind == "gaussian_pulse":
            return force_mod.gaussian_pulse(block["center"], block["width"], support)
        return force_mod.TabulatedForce.from_samples(block["times"], block["values"])

    @_builder
    def init_state(self) -> GaussianProbeInit:
        probe = self.raw["probe"]
        init = probe.get("init")
        if init is None:
            if "energy" in probe:
                raise ConfigError("probe gives an energy: build the state per "
                                  "window with the best-state form instead")
            return probe_mod.GaussianProbeInit.vacuum()
        kind = init["kind"]
        if kind == "vacuum":
            return probe_mod.GaussianProbeInit.vacuum()
        if kind == "coherent":
            return probe_mod.GaussianProbeInit.coherent(
                complex(init.get("alpha_re", 0.0), init.get("alpha_im", 0.0)))
        if kind == "squeezed":
            return probe_mod.GaussianProbeInit.squeezed(
                init.get("r", 0.0), init.get("axis_angle", 0.0))
        if kind == "thermal":
            return probe_mod.GaussianProbeInit.thermal(init.get("nbar", 0.0))
        mean = complex(init.get("mean_re", 0.0), init.get("mean_im", 0.0))
        return probe_mod.GaussianProbeInit(mean, np.asarray(init["cov"],
                                                            dtype=float))

    def energy(self) -> Optional[float]:
        val = self.raw["probe"].get("energy")
        return None if val is None else float(val)

    @_builder
    def grid(self, bath: DiscreteBath) -> TimeGrid:
        block = self.block("grid")
        t_end = float(block["t_end"])
        if "n_steps" in block:
            return response_mod.TimeGrid(t_end, int(block["n_steps"]))
        return response_mod.default_grid(bath, t_end)

    def window(self) -> tuple[float, float]:
        block = self.block("window")
        t0, t1 = float(block["t0"]), float(block["t"])
        if t1 < t0:
            raise ConfigError("window must satisfy t0 <= t")
        return t0, t1


def validate(raw: Any) -> ScenarioConfig:
    """Check raw against KEYS and the cross-key ranges; wrap it as a scenario."""
    _check(raw, KEYS)
    probe = raw.get("probe", {})
    if "energy" in probe and "init" in probe:
        raise ConfigError("probe.energy and probe.init are mutually exclusive: "
                          "the energy selects the best squeezed state")
    options = raw.get("options", {})
    energies = [probe.get("energy", 0.5), *options.get("energy_sweep", [])]
    if not all(e >= 0.5 for e in energies):
        raise ConfigError("probe.energy and options.energy_sweep values must be >= 1/2")
    for key in ("seed", "gamma", "n_thermal", "t_prime"):
        if options.get(key, 0) < 0:
            raise ConfigError(f"options.{key} must be >= 0")
    if "t_prime" in options and "grid" in raw \
            and options["t_prime"] >= raw["grid"]["t_end"]:
        raise ConfigError("options.t_prime must be < grid.t_end")
    seq = raw.get("sequential")
    if seq is not None:
        total = seq["total_window"]
        if not total > 0:
            raise ConfigError("sequential.total_window must be > 0")
        if "tau" in seq and not 0 < seq["tau"] <= total:
            raise ConfigError("sequential.tau must satisfy 0 < tau <= total_window")
        if seq.get("optimize") is False and "tau" not in seq:
            raise ConfigError("sequential.optimize false needs sequential.tau")
        if seq.get("optimize") is True and "tau" in seq:
            raise ConfigError("sequential.optimize true takes no sequential.tau")
        lo, hi = seq.get("tau_bounds", (total, total))
        if "tau_bounds" in seq and not 0 < lo < hi <= total:
            raise ConfigError("sequential.tau_bounds must satisfy "
                              "0 < lower < upper <= total_window")
    return ScenarioConfig(raw)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON "
                          f"(line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    return validate(raw)
