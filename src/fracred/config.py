"""Experiment configuration: JSON schema, validation, scenario construction.

A config file describes one scenario: a mesh, the region boxes, one or two
coefficient sets, the exponents to sweep, quadrature parameters, an optional
interior deformation, and the suite selection.  ``CONFIG_SCHEMA`` states the
format in JSON Schema (draft 7); a small checker in this module gives its
keywords their draft-7 meaning, so validation needs no third-party
validator, and it refuses to run on a keyword it does not implement.
``parse_config`` checks the schema only (unknown keys are rejected), before
any numerics.  The scenario rules that the schema language cannot express
(box shape, ordering and separation, coefficient shape and symmetry, a
deformation that moves OMEGA-interior nodes only) are each checked once,
by the builder of the object they constrain, when ``ExperimentConfig``
builds the scenario; a refusal there is a ConfigError too.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gauge import Diffeo, DiffeoError
from .mesh import (
    Mesh,
    MeshError,
    RegionError,
    RegionLabels,
    build_interval_mesh,
    build_rect_mesh,
    label_regions,
)
from .operators import CoefficientError, CoefficientField
from .calculus import QuadratureError, TimeQuadrature


class ConfigError(ValueError):
    """Invalid configuration: a schema violation, or a scenario its builders refuse."""


SUITE_NAMES = ("calibrate", "assemble", "direct", "reduce", "gauge", "diagnostics")

_BOX_1D = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}
_BOX_2D = {
    "type": "array",
    "items": _BOX_1D,
    "minItems": 2,
    "maxItems": 2,
}
_BOX = {"oneOf": [_BOX_1D, _BOX_2D]}

_OPERATOR_SPEC = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "A": {
            "oneOf": [
                {"type": "number", "exclusiveMinimum": 0},
                {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
            ]
        },
        "b": {
            "type": "array",
            "items": {"type": "number"},
        },
        "c": {"type": "number"},
    },
}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["mesh", "regions", "operators", "a", "quad", "seed"],
    "properties": {
        "mesh": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind", "box", "n_cells"],
                    "properties": {
                        "kind": {"const": "interval"},
                        "box": _BOX_1D,
                        "n_cells": {"type": "integer", "minimum": 2},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind", "box", "nx", "ny"],
                    "properties": {
                        "kind": {"const": "rect"},
                        "box": _BOX_2D,
                        "nx": {"type": "integer", "minimum": 2},
                        "ny": {"type": "integer", "minimum": 2},
                    },
                },
            ]
        },
        "regions": {
            "type": "object",
            "additionalProperties": False,
            "required": ["omega", "w", "wtilde"],
            "properties": {"omega": _BOX, "w": _BOX, "wtilde": _BOX},
        },
        "operators": {
            "type": "array",
            "minItems": 1,
            "maxItems": 2,
            "items": _OPERATOR_SPEC,
        },
        "a": {
            "type": "array",
            "minItems": 1,
            "uniqueItems": True,
            "items": {
                "type": "number",
                "exclusiveMinimum": 0,
                "exclusiveMaximum": 1,
            },
        },
        "quad": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "s_max": {"type": "number", "exclusiveMinimum": 0},
                "n": {"type": "integer", "minimum": 2},
            },
        },
        "diffeo": {
            "type": "object",
            "additionalProperties": False,
            "required": ["rho", "factor"],
            "properties": {
                "rho": {"type": "number", "exclusiveMinimum": 0},
                "factor": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "maximum": 1,
                },
            },
        },
        "suites": {
            "type": "array",
            "minItems": 1,
            "uniqueItems": True,
            "items": {"enum": list(SUITE_NAMES)},
        },
        "out_dir": {"type": "string", "minLength": 1},
        "seed": {"type": "integer", "minimum": 0},
    },
}


#: the JSON types CONFIG_SCHEMA names, as draft 7 defines them: a bool is
#: neither a number nor an integer, and an integral float such as 42.0 is an
#: integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}

#: the numeric bounds: the comparison a number fails them by, and its words
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}

#: the keywords `_check` implements, each with the form of argument it
#: implements it for; ``$schema`` only names the draft and is ignored
_KEYWORDS = {
    "$schema": str, "type": str, "enum": list, "const": object, "oneOf": list,
    "properties": dict, "required": list, "additionalProperties": bool,
    "items": dict, "minItems": int, "maxItems": int, "uniqueItems": bool,
    "minLength": int, **dict.fromkeys(_BOUNDS, (int, float)),
}


def _equality_key(value):
    """A hashable stand-in for ``value`` under JSON Schema equality, which
    ``enum``, ``const`` and ``uniqueItems`` use: 1 equals 1.0, True is not 1."""
    if isinstance(value, bool):
        return (bool, value)
    if isinstance(value, (list, tuple)):
        return (list, tuple(map(_equality_key, value)))
    if isinstance(value, dict):
        return (dict, frozenset((k, _equality_key(v)) for k, v in value.items()))
    return value


def _check(value, schema: dict, path: tuple = ()) -> None:
    """Raise ConfigError at the first place where ``value`` breaks ``schema``.

    Each keyword means what draft 7 says.  A keyword outside `_KEYWORDS`, or
    one in another form (a list of types, a schema for additional
    properties), raises NotImplementedError, so that a schema edit cannot
    go unchecked.
    """
    for key, arg in schema.items():
        if not isinstance(arg, _KEYWORDS.get(key, ())) or (
            key == "type" and arg not in _TYPES
        ):
            raise NotImplementedError(f"schema keyword {key}: {arg!r} is not checked")

    def fail(message: str):
        where = "/".join(str(step) for step in path) or "<root>"
        raise ConfigError(f"schema violation at {where}: {message}")

    if "type" in schema and not _TYPES[schema["type"]](value):
        fail(f"{value!r} is not of type {schema['type']!r}")
    if "enum" in schema and _equality_key(value) not in map(_equality_key, schema["enum"]):
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if "const" in schema and _equality_key(value) != _equality_key(schema["const"]):
        fail(f"{schema['const']!r} was expected")
    if "oneOf" in schema:
        misses = []
        for option in schema["oneOf"]:
            try:
                _check(value, option, path)
            except ConfigError as exc:
                misses.append(str(exc).removeprefix("schema violation at "))
        matches = len(schema["oneOf"]) - len(misses)
        if matches == 0:
            fail(f"no allowed form matches ({'; '.join(misses)})")
        if matches > 1:
            fail(f"{value!r} matches {matches} of the allowed forms, not one")
    if _TYPES["number"](value):
        for key, (breaks, words) in _BOUNDS.items():
            if key in schema and breaks(value, schema[key]):
                fail(f"{value!r} is {words} {schema[key]!r}")
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        fail(f"{value!r} is shorter than {schema['minLength']} characters")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"{value!r} has fewer than {schema['minItems']} items")
        if len(value) > schema.get("maxItems", len(value)):
            fail(f"{value!r} has more than {schema['maxItems']} items")
        if schema.get("uniqueItems") and len(set(map(_equality_key, value))) < len(value):
            fail(f"{value!r} has non-unique elements")
        if "items" in schema:
            for index, item in enumerate(value):
                _check(item, schema["items"], path + (index,))
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        unexpected = [key for key in value if key not in properties]
        if unexpected and schema.get("additionalProperties") is False:
            fail(f"additional properties are not allowed: {unexpected!r}")
        for key, option in properties.items():
            if key in value:
                _check(value[key], option, path + (key,))


def check_key(key: str, value) -> None:
    """Check ``value`` by the schema rule of the config key ``key``, a tuple
    as the JSON array and a path as the JSON string it stands for."""
    value = list(value) if isinstance(value, tuple) else value
    value = os.fspath(value) if isinstance(value, os.PathLike) else value
    _check(value, CONFIG_SCHEMA["properties"][key], (key,))


@dataclass(frozen=True)
class ExperimentConfig:
    """Schema-checked experiment description; each ``build_*`` method checks
    the scenario rules of its object and raises a refusal as ConfigError."""

    mesh_spec: dict
    region_boxes: dict
    operator_specs: tuple
    exponents: tuple
    quad: TimeQuadrature
    diffeo_spec: dict | None
    suites: tuple
    out_dir: str
    seed: int

    def build_mesh(self) -> Mesh:
        spec = self.mesh_spec
        try:
            # the schema's integers include integral floats such as 80.0
            if spec["kind"] == "interval":
                return build_interval_mesh(*spec["box"], int(spec["n_cells"]))
            return build_rect_mesh(spec["box"], int(spec["nx"]), int(spec["ny"]))
        except MeshError as exc:
            raise ConfigError(f"mesh spec rejected: {exc}") from exc

    def build_labels(self, mesh: Mesh) -> RegionLabels:
        r = self.region_boxes
        try:
            return label_regions(mesh, r["omega"], r["w"], r["wtilde"])
        except RegionError as exc:
            raise ConfigError(f"region boxes rejected: {exc}") from exc

    def build_fields(self, mesh: Mesh, labels: RegionLabels) -> list:
        try:
            return [CoefficientField.build(mesh, labels, **spec) for spec in self.operator_specs]
        except CoefficientError as exc:
            raise ConfigError(f"coefficient spec rejected: {exc}") from exc

    def build_diffeo(self, mesh: Mesh, labels: RegionLabels) -> Diffeo | None:
        """The deformation, which may move OMEGA-interior nodes only: no
        element off OMEGA has such a node, so DF is the identity off OMEGA
        and the boundary of OMEGA and the exterior stay fixed."""
        if self.diffeo_spec is None:
            return None
        try:
            F = Diffeo.radial_shrink(mesh, self.diffeo_spec["rho"], self.diffeo_spec["factor"])
        except DiffeoError as exc:
            raise ConfigError(f"deformation rejected: {exc}") from exc
        moved = np.flatnonzero(np.any(F.mapped.nodes != mesh.nodes, axis=1))
        if not np.isin(moved, labels.omega_interior_nodes).all():
            raise ConfigError("deformation moves a node outside the interior of OMEGA")
        return F


def parse_config(raw: dict) -> ExperimentConfig:
    """Check a raw config dict against the schema and return the typed
    configuration.

    Values that are not JSON are rejected first, NaN and +-Infinity among
    them (NaN passes every bound); schema validation follows (unknown keys
    rejected), and the quadrature is built.  The scenario rules are checked
    when the scenario is built, by the ``ExperimentConfig`` builders.
    """
    try:
        json.dumps(raw, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check(raw, CONFIG_SCHEMA)

    cast = {"s_max": float, "n": int}
    try:
        quad = TimeQuadrature(**{k: cast[k](v) for k, v in raw["quad"].items()})
    except QuadratureError as exc:
        raise ConfigError(f"quadrature rejected: {exc}") from exc

    return ExperimentConfig(
        mesh_spec=raw["mesh"],
        region_boxes=raw["regions"],
        operator_specs=tuple(raw["operators"]),
        exponents=tuple(float(a) for a in raw["a"]),
        quad=quad,
        diffeo_spec=raw.get("diffeo"),
        suites=tuple(raw.get("suites", SUITE_NAMES)),
        out_dir=raw.get("out_dir", "out"),
        seed=int(raw["seed"]),
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a config file, which JSON requires to be UTF-8."""
    data = Path(path).read_bytes()
    try:
        raw = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return parse_config(raw)
