"""Config schema validation, semantic checks, and scenario construction."""

import copy
import json
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import bundled_config

from fracred import config
from fracred.config import (
    CONFIG_SCHEMA,
    SUITE_NAMES,
    ConfigError,
    load_config,
    parse_config,
)

ROOT = Path(__file__).resolve().parent.parent


def valid_raw():
    return {
        "mesh": {"kind": "interval", "box": [-2.0, 2.0], "n_cells": 80},
        "regions": {
            "omega": [-1.0, 1.0],
            "w": [1.05, 1.8],
            "wtilde": [-1.95, -1.05],
        },
        "operators": [{}],
        "a": [0.25, 0.5, 0.75],
        "quad": {"s_max": 4.0, "n": 200},
        "seed": 42,
    }


def reject(raw, match=None):
    with pytest.raises(ConfigError, match=match):
        parse_config(raw)


class TestSchema:
    def test_valid_baseline_parses(self):
        cfg = parse_config(valid_raw())
        assert cfg.mesh_spec["kind"] == "interval"
        assert cfg.exponents == (0.25, 0.5, 0.75)
        assert cfg.seed == 42

    def test_unknown_top_level_key(self):
        raw = valid_raw()
        raw["extra"] = 1
        reject(raw, match="schema violation")

    def test_unknown_mesh_key(self):
        raw = valid_raw()
        raw["mesh"]["h"] = 0.05
        reject(raw, match="schema violation")

    def test_missing_seed(self):
        raw = valid_raw()
        del raw["seed"]
        reject(raw, match="schema violation")

    def test_exponents_must_be_interior(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            raw = valid_raw()
            raw["a"] = [bad]
            reject(raw)

    def test_repeated_exponents_rejected(self):
        # each exponent keys one entry of direct.json and its calibration rows
        raw = valid_raw()
        raw["a"] = [0.5, 0.5]
        reject(raw, match="schema violation at a")

    def test_operator_count_limits(self):
        raw = valid_raw()
        raw["operators"] = []
        reject(raw)
        raw["operators"] = [{}, {}, {}]
        reject(raw)

    def test_suites_rejects_unknown_and_duplicates(self):
        raw = valid_raw()
        raw["suites"] = ["calibrate", "frobnicate"]
        reject(raw)
        raw["suites"] = ["calibrate", "calibrate"]
        reject(raw)

    def test_seed_must_be_nonnegative_integer(self):
        raw = valid_raw()
        raw["seed"] = -1
        reject(raw)
        raw["seed"] = 1.5
        reject(raw)


def schema_accepts(raw) -> bool:
    """Whether parse_config gets past the schema check with ``raw``."""
    try:
        parse_config(raw)
    except ConfigError as exc:
        return not str(exc).startswith("schema violation")
    return True


#: replacement values for the mutated configs: every JSON type, bools next
#: to the integers they equal, integral floats, values at and past each
#: bound, and values that are valid in one place of the schema only
POOL = [
    0, 1, 2, -1, 0.5, 1.0, 42.0, 42.5, 2.5, -0.5, 1e-300, True, False, None,
    "", "x", "interval", "rect", "calibrate", "gauge",
    [], [0.5], [0.25, 0.25], [0.25, 0.5], [1, 1.0], [True, 1], [-1.0, 1.0],
    [[-1.0, 1.0], [-1.0, 1.0]], [[1.0], [0.0, 1.0]], ["direct", "reduce"],
    {}, {"c": 1.0}, {"A": 2.0}, {"rho": 0.5, "factor": 0.5},
]
#: keys added to the mutated configs: each key the schema knows, and one it does not
KEYS = sorted({
    "kind", "box", "n_cells", "nx", "ny", "omega", "w", "wtilde", "A", "b", "c",
    "s_max", "n", "rho", "factor", "mesh", "regions", "operators", "a", "quad",
    "diffeo", "suites", "out_dir", "seed", "extra",
})


def containers(node):
    """Every dict and list inside ``node``, ``node`` itself included."""
    yield node
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from containers(child)


def mutate(raw: dict, rng: random.Random) -> dict:
    """One to three edits: replace a value, delete a key, add a key, or
    append an item, each in a container picked at random."""
    raw = copy.deepcopy(raw)
    for _ in range(rng.randint(1, 3)):
        node = rng.choice(list(containers(raw)))
        value = copy.deepcopy(rng.choice(POOL))
        edit = rng.randrange(4)
        if edit == 0 and node:
            node[rng.choice(list(node) if isinstance(node, dict) else range(len(node)))] = value
        elif edit == 1 and isinstance(node, dict) and node:
            del node[rng.choice(list(node))]
        elif edit == 2 and isinstance(node, dict):
            node[rng.choice(KEYS)] = value
        elif isinstance(node, list):
            node.append(value)
    return raw


class TestSchemaChecker:
    """The checker behind parse_config against jsonschema, the reference
    validator for CONFIG_SCHEMA (a test dependency only)."""

    def test_agrees_with_jsonschema_on_mutated_configs(self):
        jsonschema = pytest.importorskip("jsonschema")
        reference = jsonschema.Draft7Validator(CONFIG_SCHEMA)
        sources = [
            *(bundled_config(n) for n in ("baseline-1d.json", "baseline-2d.json", "perturbed-1d.json")),
            *sorted((ROOT / "bench" / "configs").glob("*.json")),
        ]
        rng = random.Random(24)
        accepted = 0
        for source in sources:
            with open(source) as fh:
                raw = json.load(fh)
            for _ in range(600):
                case = mutate(raw, rng)
                expected = reference.is_valid(case)
                assert schema_accepts(case) == expected, case
                accepted += expected
        # both outcomes are exercised, each many times
        assert 200 < accepted < 600 * len(sources) - 200

    @pytest.mark.parametrize(
        "key, value, accepted",
        [
            ("seed", True, False),
            ("seed", 42.0, True),
            ("a", [True], False),
            ("operators", [{"c": False}], False),
            ("operators", [{"A": True}], False),
            ("quad", {"n": 200.0}, True),
            ("out_dir", "", False),
        ],
        ids=lambda v: json.dumps(v) if not isinstance(v, str) else v,
    )
    def test_edge_values(self, key, value, accepted):
        """A bool is neither a number nor an integer, an integral float is an
        integer, and an empty output directory is refused."""
        raw = valid_raw()
        raw[key] = value
        assert schema_accepts(raw) is accepted

    @pytest.mark.parametrize(
        "schema, value, valid",
        [
            ({"uniqueItems": True}, [1, 1.0], False),
            ({"uniqueItems": True}, [True, 1], True),
            ({"uniqueItems": True}, [[1], [1.0]], False),
            ({"uniqueItems": True}, [[True], [1]], True),
            ({"uniqueItems": True}, [{"k": 0}, {"k": 0.0}], False),
            ({"enum": [1, "x"]}, 1.0, True),
            ({"enum": [1, "x"]}, True, False),
            ({"const": 0}, False, False),
            ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1, False),
            ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1.5, True),
            ({"oneOf": [{"type": "string"}, {"type": "integer"}]}, 1.5, False),
            ({"$schema": "http://json-schema.org/draft-07/schema#", "type": "string"}, "x", True),
            ({"type": "integer", "maximum": 3}, 3.0, True),
            ({"type": "number", "exclusiveMaximum": 3}, 3, False),
        ],
        ids=[
            "unique-1-1.0", "unique-True-1", "unique-nested-1-1.0", "unique-nested-True-1",
            "unique-objects", "enum-1.0", "enum-True", "const-False", "oneOf-both",
            "oneOf-one", "oneOf-none", "$schema-ignored", "integral-float-maximum",
            "exclusive-maximum",
        ],
    )
    def test_jsonschema_equality_and_oneof_cases(self, schema, value, valid):
        """1 equals 1.0 and True is not 1; oneOf needs exactly one match;
        $schema is ignored."""
        jsonschema = pytest.importorskip("jsonschema")
        assert jsonschema.Draft7Validator(schema).is_valid(value) is valid
        try:
            config._check(value, schema)
        except ConfigError:
            assert not valid
        else:
            assert valid

    @pytest.mark.parametrize(
        "schema",
        [
            {"multipleOf": 0.5},
            {"type": ["number", "string"]},
            {"type": "null"},
            {"items": [{"type": "number"}]},
            {"additionalProperties": {"type": "number"}},
            {"anyOf": [{"type": "number"}]},
        ],
        ids=["multipleOf", "type-list", "type-null", "items-list", "additionalProperties-schema", "anyOf"],
    )
    def test_unimplemented_keyword_raises(self, schema):
        with pytest.raises(NotImplementedError):
            config._check(0.5, schema)

    def test_schema_edit_with_unchecked_keyword_fails_loudly(self, monkeypatch):
        monkeypatch.setitem(CONFIG_SCHEMA["properties"]["seed"], "multipleOf", 2)
        with pytest.raises(NotImplementedError, match="multipleOf"):
            parse_config(valid_raw())


class TestSemanticChecks:
    def test_window_touching_omega_rejected(self):
        raw = valid_raw()
        raw["regions"]["w"] = [1.0, 1.8]
        reject(raw, match="disjoint closures")

    def test_window_overlapping_omega_rejected(self):
        raw = valid_raw()
        raw["regions"]["wtilde"] = [-1.2, -0.8]
        reject(raw, match="disjoint closures")

    def test_region_leaving_mesh_box_rejected(self):
        raw = valid_raw()
        raw["regions"]["w"] = [1.05, 2.5]
        reject(raw, match="leaves the mesh box")

    def test_degenerate_box_rejected(self):
        raw = valid_raw()
        raw["regions"]["omega"] = [1.0, -1.0]
        reject(raw, match="non-increasing")

    def test_dimension_mismatch_rejected(self):
        raw = valid_raw()
        raw["regions"]["omega"] = [[-1.0, 1.0], [-1.0, 1.0]]
        reject(raw, match="dimension")

    def test_asymmetric_conductivity_rejected(self):
        raw = valid_raw()
        raw["mesh"] = {
            "kind": "rect",
            "box": [[-2.0, 2.0], [-2.0, 2.0]],
            "nx": 8,
            "ny": 8,
        }
        raw["regions"] = {
            "omega": [[-1.0, 1.0], [-1.0, 1.0]],
            "w": [[1.4, 1.75], [-0.6, 0.6]],
            "wtilde": [[-1.75, -1.4], [-0.6, 0.6]],
        }
        raw["operators"] = [{"A": [[2.0, 0.3], [0.0, 1.0]]}]
        reject(raw, match="symmetric")

    def test_conductivity_shape_mismatch_rejected(self):
        raw = valid_raw()
        raw["operators"] = [{"A": [[1.0, 0.0], [0.0, 1.0]]}]
        reject(raw, match="1x1")

    def test_ragged_conductivity_rejected(self):
        # passes the schema, and numpy refuses to build an array from it
        with open(bundled_config("baseline-2d.json")) as fh:
            raw = json.load(fh)
        raw["operators"] = [{"A": [[1.0], [0.0, 1.0]]}]
        reject(raw, match="2x2")

    def test_magnetic_length_mismatch_rejected(self):
        raw = valid_raw()
        raw["operators"] = [{"b": [0.1, 0.2]}]
        reject(raw, match="components")

    def test_diffeo_ball_must_sit_inside_omega(self):
        raw = valid_raw()
        raw["diffeo"] = {"rho": 1.5, "factor": 0.8}
        reject(raw, match="inside omega")
        raw["diffeo"] = {"rho": 0.8, "factor": 0.8}
        assert parse_config(raw).diffeo_spec == {"rho": 0.8, "factor": 0.8}

    def test_negative_potential_is_a_runtime_concern(self):
        # sign constraints on c belong to assembly, not the schema
        raw = valid_raw()
        raw["operators"] = [{"c": -0.5}]
        assert parse_config(raw).operator_specs[0]["c"] == -0.5


class TestDefaults:
    def test_suites_default_to_all_in_order(self):
        raw = valid_raw()
        cfg = parse_config(raw)
        assert cfg.suites == SUITE_NAMES

    def test_missing_quad_rejected(self):
        raw = valid_raw()
        del raw["quad"]
        reject(raw, match="schema violation")

    def test_overflowing_s_max_rejected(self):
        # the end node t = exp(pi sinh 10) is not a finite double
        raw = valid_raw()
        raw["quad"] = {"s_max": 10, "n": 400}
        reject(raw, match="quadrature rejected")

    def test_out_dir_and_quad_defaults(self):
        # an empty quad object is allowed and falls back to the defaults
        raw = valid_raw()
        raw["quad"] = {}
        cfg = parse_config(raw)
        assert cfg.out_dir == "out"
        assert cfg.quad.s_max == 4.0
        assert cfg.quad.n == 200

    def test_operator_defaults(self):
        cfg = parse_config(valid_raw())
        mesh = cfg.build_mesh()
        (field,) = cfg.build_fields(mesh, cfg.build_labels(mesh))
        ne = mesh.element_count
        assert np.array_equal(field.A, np.broadcast_to(np.eye(1), (ne, 1, 1)))
        assert np.array_equal(field.b, np.zeros((ne, 1)))
        assert np.array_equal(field.c, np.zeros(ne))
        assert np.array_equal(field.w, np.ones(ne))

    def test_stated_defaults_build_the_same_field(self):
        # the defaults live in CoefficientField.build alone: stating them
        # changes no bit of the field
        with open(bundled_config("baseline-2d.json")) as fh:
            raw = json.load(fh)
        raw["operators"] = [{}, {"A": 1.0, "c": 0.0}]
        cfg = parse_config(raw)
        mesh = cfg.build_mesh()
        left, stated = cfg.build_fields(mesh, cfg.build_labels(mesh))
        for name in ("A", "b", "c", "w"):
            assert getattr(left, name).tobytes() == getattr(stated, name).tobytes()


class TestBuilders:
    def test_build_mesh_and_labels(self):
        cfg = parse_config(valid_raw())
        mesh = cfg.build_mesh()
        assert mesh.node_count == 81
        labels = cfg.build_labels(mesh)
        assert labels.node_set("W").size > 0

    def test_integral_float_cell_counts_build(self):
        raw = valid_raw()
        raw["mesh"]["n_cells"] = 80.0
        assert parse_config(raw).build_mesh().node_count == 81
        with open(bundled_config("baseline-2d.json")) as fh:
            raw = json.load(fh)
        raw["mesh"].update(nx=20.0, ny=20.0)
        assert parse_config(raw).build_mesh().node_count == 21 * 21

    def test_empty_window_surfaces_as_config_error(self):
        # passes every box check but captures no element barycenter
        raw = valid_raw()
        raw["regions"]["w"] = [1.81, 1.82]
        cfg = parse_config(raw)
        mesh = cfg.build_mesh()
        with pytest.raises(ConfigError, match="region boxes rejected"):
            cfg.build_labels(mesh)

    def test_indefinite_conductivity_surfaces_as_config_error(self):
        raw = valid_raw()
        raw["operators"] = [{"A": [[-1.0]]}]
        cfg = parse_config(raw)
        mesh = cfg.build_mesh()
        labels = cfg.build_labels(mesh)
        with pytest.raises(ConfigError, match="coefficient spec rejected"):
            cfg.build_fields(mesh, labels)

    def test_build_diffeo(self):
        cfg = parse_config(valid_raw())
        mesh = cfg.build_mesh()
        assert cfg.build_diffeo(mesh, cfg.build_labels(mesh)) is None
        raw = valid_raw()
        raw["diffeo"] = {"rho": 0.8, "factor": 0.8}
        cfg = parse_config(raw)
        F = cfg.build_diffeo(mesh, cfg.build_labels(mesh))
        assert F is not None and F.det.min() > 0
        moved = np.any(F.mapped.nodes != mesh.nodes, axis=1)
        assert moved.any() and np.all(np.linalg.norm(mesh.nodes[moved], axis=1) < 0.8)

    def test_built_diffeo_shares_elements_and_box(self):
        # the mapped mesh holds new nodes only: the connectivity and the box
        # are the source's own read-only arrays, not copies
        raw = valid_raw()
        raw["diffeo"] = {"rho": 0.8, "factor": 0.8}
        cfg = parse_config(raw)
        mesh = cfg.build_mesh()
        F = cfg.build_diffeo(mesh, cfg.build_labels(mesh))
        assert F.mesh is mesh
        assert F.mapped.elements is mesh.elements and F.mapped.box is mesh.box
        assert F.mapped.nodes is not mesh.nodes
        for array in (F.mapped.nodes, F.mapped.elements, F.mapped.box, F.DF, F.det):
            assert not array.flags.writeable

    def test_deformation_moving_a_node_off_the_omega_interior_rejected(self):
        # the ball lies inside the omega box, but it moves node 0.95, whose
        # element [0.95, 1.0] has its barycenter outside omega
        raw = valid_raw()
        raw["regions"]["omega"] = [-1.0, 0.96]
        raw["diffeo"] = {"rho": 0.955, "factor": 0.8}
        cfg = parse_config(raw)
        mesh = cfg.build_mesh()
        with pytest.raises(ConfigError, match="deformation moves a node outside"):
            cfg.build_diffeo(mesh, cfg.build_labels(mesh))


class TestLoadConfig:
    def test_bundled_baseline_loads(self):
        cfg = load_config(bundled_config("baseline-1d.json"))
        assert cfg.mesh_spec["kind"] == "interval"
        assert cfg.exponents == (0.25, 0.5, 0.75)
        assert cfg.diffeo_spec is not None

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_json_constants_rejected(self, tmp_path, value):
        # Python's json reads NaN and +-Infinity, and NaN passes every bound
        raw = valid_raw()
        raw["quad"]["s_max"] = value
        p = tmp_path / "constant.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "path",
        [("a", 0), ("quad", "s_max"), ("operators", 0, "c"), ("diffeo", "rho"), ("mesh", "box", 1)],
        ids=["a", "quad.s_max", "operators.c", "diffeo.rho", "mesh.box"],
    )
    def test_non_json_numbers_in_dict_rejected(self, path, value):
        # a dict built in Python never passes through json.loads
        raw = valid_raw()
        raw["diffeo"] = {"rho": 0.8, "factor": 0.8}
        *parents, key = path
        target = raw
        for step in parents:
            target = target[step]
        target[key] = value
        reject(raw, match="not valid JSON")

    def test_non_json_value_in_dict_rejected(self):
        raw = valid_raw()
        raw["a"] = {0.5}
        reject(raw, match="not valid JSON")

    def test_non_object_root_rejected(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ConfigError, match="root"):
            load_config(p)

    def test_bundled_configs_all_valid(self):
        for name in ("baseline-1d.json", "baseline-2d.json", "perturbed-1d.json"):
            cfg = load_config(bundled_config(name))
            mesh = cfg.build_mesh()
            labels = cfg.build_labels(mesh)
            assert len(cfg.build_fields(mesh, labels)) == len(cfg.operator_specs)
