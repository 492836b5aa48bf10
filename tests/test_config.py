"""Scenario key table: differential check against a JSON-Schema oracle.

SCHEMA grew from the JSON-Schema document the engine once validated
scenarios with, and states every rule of the key table: types, allowed
strings, array lengths, each kind's own keys (one `if`/`then` per kind) and
every single-key bound. It stays here as an independent oracle: on a
seeded corpus of mutations of the shipped scenarios, `nmqfi.config`'s key
table must accept and reject exactly the documents a Draft 2020-12
validator does.
"""

import copy
import json
import random
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from nmqfi.config import KEYS, _check
from nmqfi.errors import ConfigError

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios")
                   .glob("*.json"))

_NUMBER = {"type": "number"}
_NONNEGATIVE = {"type": "number", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_ENERGY = {"type": "number", "minimum": 0.5, "maximum": 1.34e154}


def _count(minimum: int) -> dict:
    return {"type": "integer", "minimum": minimum, "maximum": 2 ** 53}


def _kinds(selector: str, kinds: dict, common: dict = None,
           required: tuple = ()) -> dict:
    """An object whose selector names one of kinds, {name: (required keys,
    properties)}; each kind's `then` admits only the selector, the common
    properties and its own."""
    return {
        "type": "object",
        "required": [selector, *required],
        "properties": {selector: {"enum": sorted(kinds)}},
        "allOf": [{"if": {"properties": {selector: {"const": name}}},
                   "then": {"additionalProperties": False,
                            "required": list(own_required),
                            "properties": {selector: True, **(common or {}),
                                           **own}}}
                  for name, (own_required, own) in kinds.items()],
    }


_OCCUPATION_SCHEMA = _kinds("model", {
    "zero": ((), {}),
    "thermal": (("temperature",), {"temperature": _NUMBER}),
    "constant": ((), {"value": _NUMBER}),
})

_BATH_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "modes": {
            "type": "array",
            "items": {
                "type": "array",
                "minItems": 3,
                "maxItems": 3,
                "items": _NUMBER,
            },
        },
        "continuum": _kinds(
            "family",
            {"flat": ((), {}), "ohmic": ((), {"s": _NUMBER})},
            common={
                "scale": _NUMBER,
                "cutoff": _NUMBER,
                "cutoff_shape": {"enum": ["hard", "exponential"]},
                "n_modes": _count(1),
                "occupation": _OCCUPATION_SCHEMA,
            },
            required=("scale", "cutoff", "n_modes")),
    },
}

_INIT_SCHEMA = _kinds("kind", {
    "vacuum": ((), {}),
    "coherent": ((), {"alpha_re": _NUMBER, "alpha_im": _NUMBER}),
    "squeezed": ((), {"r": _NUMBER, "axis_angle": _NUMBER}),
    "thermal": ((), {"nbar": _NUMBER}),
    "matrix": (("cov",), {
        "mean_re": _NUMBER,
        "mean_im": _NUMBER,
        "cov": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": {"type": "array", "minItems": 2, "maxItems": 2,
                      "items": _NUMBER},
        },
    }),
})

_FORCE_SCHEMA = _kinds("kind", {
    "constant": ((), {"value": _NUMBER}),
    "sinusoid": ((), {"amplitude": _NUMBER, "frequency": _NUMBER,
                      "phase": _NUMBER}),
    "gaussian_pulse": (("center", "width"),
                       {"center": _NUMBER, "width": _NUMBER}),
    "table": (("times", "values"), {
        "times": {"type": "array", "items": _NUMBER, "minItems": 2},
        "values": {"type": "array", "items": _NUMBER, "minItems": 2},
    }),
}, common={"support": {"type": "array", "minItems": 2, "maxItems": 2,
                       "items": _NUMBER}})

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["probe", "bath", "grid"],
    "properties": {
        "probe": {
            "type": "object",
            "additionalProperties": False,
            "required": ["omega0"],
            "properties": {
                "omega0": _NUMBER,
                "energy": _ENERGY,
                "init": _INIT_SCHEMA,
            },
        },
        "bath": _BATH_SCHEMA,
        "force": _FORCE_SCHEMA,
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["t_end"],
            "properties": {
                "t_end": _NUMBER,
                "n_steps": _count(2),
            },
        },
        "window": {
            "type": "object",
            "additionalProperties": False,
            "required": ["t0", "t"],
            "properties": {"t0": _NUMBER, "t": _NUMBER},
        },
        "sequential": {
            "type": "object",
            "additionalProperties": False,
            "required": ["total_window"],
            "properties": {
                "total_window": _POSITIVE,
                "tau": _POSITIVE,
                "optimize": {"type": "boolean"},
                "tau_bounds": {"type": "array", "minItems": 2, "maxItems": 2,
                               "items": _NUMBER},
            },
        },
        "options": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "integer", "minimum": 0},
                "replications": _count(2),
                "nu": {"type": "integer", "minimum": 1},
                "force_amplitude": _NUMBER,
                "theta": _NUMBER,
                "energy_sweep": {"type": "array", "items": _ENERGY,
                                 "minItems": 1},
                "gamma": _NONNEGATIVE,
                "n_thermal": _NONNEGATIVE,
                "report_points": _count(2),
                "t_prime": _NONNEGATIVE,
            },
        },
    },
}


def _property_names(schema) -> set:
    return {name for node in _subtrees(schema) if isinstance(node, dict)
            for name in node.get("properties", {})}


def _subtrees(doc):
    yield doc
    children = (doc.values() if isinstance(doc, dict)
                else doc if isinstance(doc, list) else ())
    for child in children:
        yield from _subtrees(child)


def _slots(doc):
    """Every (container, key or index) position inside doc."""
    for node in _subtrees(doc):
        if isinstance(node, dict):
            yield from ((node, key) for key in node)
        elif isinstance(node, list):
            yield from ((node, i) for i in range(len(node)))


BASES = [json.loads(path.read_text()) for path in SCENARIOS]
KNOWN_KEYS = sorted(_property_names(SCHEMA))
# Replacement values: each type the table distinguishes, integral floats,
# enum members, and every subtree of the shipped scenarios.
VALUES = [0, 1, 2, -3, 1.0, 2.0, 2.5, -0.5, True, False, None, "", "x", "flat",
          "ohmic", "zero", "thermal", "vacuum", "matrix", "constant", "table",
          "hard", [], [1.0], [1, 2], [0.5, 1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]],
          [[0.1, 1.0]], {}, {"model": "zero"}, {"kind": "vacuum"},
          *[node for base in BASES for node in _subtrees(base)]]


def _mutate(doc, rng: random.Random):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        slots = list(_slots(doc))
        objects = [n for n in _subtrees(doc) if isinstance(n, dict)]
        lists = [n for n in _subtrees(doc) if isinstance(n, list)]
        op = rng.randrange(5)
        if op == 0 and slots:                       # drop a key or an item
            node, key = rng.choice(slots)
            del node[key]
        elif op == 1 and slots:                     # replace a value
            node, key = rng.choice(slots)
            node[key] = copy.deepcopy(rng.choice(VALUES))
        elif op == 2 and objects:                   # add a key, known or not
            key = rng.choice(KNOWN_KEYS + ["oops"])
            rng.choice(objects)[key] = copy.deepcopy(rng.choice(VALUES))
        elif op == 3 and lists:                     # grow an array
            rng.choice(lists).append(copy.deepcopy(rng.choice(VALUES)))
        elif scalars := [(n, k) for n, k in slots
                         if not isinstance(n[k], (dict, list))]:
            node, key = rng.choice(scalars)         # retype a scalar
            value = node[key]
            if isinstance(value, bool):
                node[key] = rng.choice([int(value), float(value), str(value)])
            elif isinstance(value, (int, float)):
                node[key] = rng.choice([int(value), float(value), value + 0.5,
                                        -value, 1e20, str(value)])
    return doc


def _table_accepts(doc) -> bool:
    try:
        _check(doc, KEYS)
    except ConfigError:
        return False
    return True


def test_key_table_matches_schema_on_mutation_corpus():
    oracle = Draft202012Validator(SCHEMA)
    rng = random.Random(20261018)
    corpus = [[], "probe", 1, None, *BASES]
    corpus += [_mutate(base, rng) for base in BASES for _ in range(400)]
    verdicts = [(oracle.is_valid(doc), _table_accepts(doc)) for doc in corpus]
    mismatched = [doc for doc, (want, got) in zip(corpus, verdicts) if want != got]
    assert not mismatched, json.dumps(mismatched[:3])
    accepted = sum(want for want, _ in verdicts)
    # the corpus must exercise both verdicts in bulk, or it proves nothing
    assert 0.1 * len(corpus) < accepted < 0.9 * len(corpus)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.name)
def test_shipped_scenarios_pass_the_table(scenario):
    _check(json.loads(scenario.read_text()), KEYS)


# The blocks every scenario holds, each valid, which a doc below overrides.
_REQUIRED = {"probe": {"omega0": 1.0}, "bath": {"modes": []},
             "grid": {"t_end": 1.0}}


@pytest.mark.parametrize("doc, where", [
    ({"probe": {}}, "probe"),
    ({"grid": {"t_end": 1.0, "n_steps": 1}}, "grid/n_steps"),
    ({"grid": {"t_end": 1.0, "n_steps": 2.5}}, "grid/n_steps"),
    ({"bath": {"modes": [[0.1, 1.0]]}}, "bath/modes/0"),
    ({"force": {"kind": "ramp"}}, "force/kind"),
    ({"sequential": {"total_window": 1.0, "optimize": 1}}, "sequential/optimize"),
    ({"window": {"t0": True, "t": 1.0}}, "window/t0"),
])
def test_rejection_names_the_offending_key(doc, where):
    with pytest.raises(ConfigError, match=f"config invalid at {where}:"):
        _check({**_REQUIRED, **doc}, KEYS)
