"""A seeded sweep of random scenarios: every config is refused, or it runs
and fails only by a named contract.

Each draw is a config over the mesh box [-2, 2]^d: a 1-D mesh of 16-120
cells or a 2-D mesh of 6-16 cells a side, random OMEGA, W and WTILDE boxes,
an optional second operator with random A, b and c, one to three exponents
in (0.05, 0.95), and a deformation half of the time.  The property:
``parse_config`` refuses a schema violation and nothing else; or
``run_suites`` refuses the scenario, which its builders check, with a
ConfigError and nothing written; or the run finishes, each manifest failure
names a ``CONTRACTS`` entry or is a PositivityError (a negative c), and
every JSON artifact parses.  A draw that breaks it becomes a regression test
of its own; the seed and the ranges stay as they are.
"""

import json

import numpy as np

from fracred.config import ConfigError, parse_config
from fracred.operators import CONTRACTS
from fracred.runner import run_suites

SEED = 2021
DRAWS = 200
BOX = (-2.0, 2.0)


def _box(axes, dim):
    box = [[round(float(lo), 3), round(float(hi), 3)] for lo, hi in axes]
    return box[0] if dim == 1 else box


def _window(rng, omega):
    """A box that lies beyond OMEGA along one random axis, give or take 0.05,
    and spans a random interval of the mesh box along any other."""
    axes = [sorted(rng.uniform(*BOX, size=2)) for _ in omega]
    k = int(rng.integers(len(omega)))
    lo, hi = omega[k]
    beyond = (hi - 0.05, BOX[1]) if rng.random() < 0.5 else (BOX[0], lo + 0.05)
    axes[k] = sorted(rng.uniform(*beyond, size=2))
    return _box(axes, len(omega))


def _second_operator(rng, dim):
    if dim == 1:
        A = rng.uniform(0.5, 2.0)
    else:
        p, r = rng.uniform(0.5, 2.0, size=2)
        q = rng.uniform(-1.0, 1.0)
        A = [[p, q], [q, r]]
    return {
        "A": np.round(A, 3).tolist(),
        "b": np.round(rng.uniform(-1.0, 1.0, size=dim), 3).tolist(),
        "c": round(float(rng.uniform(-2.0, 5.0)), 3),
    }


def draw_config(rng) -> dict:
    """One random raw config (see the module docstring for the ranges)."""
    dim = int(rng.integers(1, 3))
    if dim == 1:
        mesh = {"kind": "interval", "box": list(BOX), "n_cells": int(rng.integers(16, 121))}
    else:
        nx, ny = (int(n) for n in rng.integers(6, 17, size=2))
        mesh = {"kind": "rect", "box": [list(BOX), list(BOX)], "nx": nx, "ny": ny}
    omega = [(rng.uniform(-1.6, -0.2), rng.uniform(0.2, 1.6)) for _ in range(dim)]
    operators = [{}]
    if rng.random() < 0.5:
        operators.append(_second_operator(rng, dim))
    raw = {
        "mesh": mesh,
        "regions": {"omega": _box(omega, dim), "w": _window(rng, omega), "wtilde": _window(rng, omega)},
        "operators": operators,
        "a": np.round(rng.uniform(0.05, 0.95, size=int(rng.integers(1, 4))), 3).tolist(),
        "quad": {},
        "seed": int(rng.integers(0, 2**31)),
    }
    if rng.random() < 0.5:
        raw["diffeo"] = {
            "rho": round(float(rng.uniform(0.1, 1.0)), 3),
            "factor": round(float(rng.uniform(0.3, 1.0)), 3),
        }
    return raw


def sweep(out_root):
    """Run every draw; return the outcome of each: "parse" (a schema
    violation), "run" (a scenario refused there) or the run's failures."""
    rng = np.random.default_rng(SEED)
    outcomes = []
    for i in range(DRAWS):
        raw = draw_config(rng)
        out = out_root / str(i)
        try:
            cfg = parse_config(raw)
        except ConfigError as exc:
            assert str(exc).startswith("schema violation"), (i, raw, exc)
            outcomes.append("parse")
            continue
        try:
            result = run_suites(cfg, out_dir=out)
        except ConfigError as exc:
            assert not out.exists(), (i, raw, exc)
            outcomes.append("run")
            continue
        for name in result.outputs:
            if name.endswith(".json"):
                json.loads((out / name).read_text())
        outcomes.append(result.failures)
    return outcomes


def test_every_scenario_is_refused_or_fails_by_a_named_contract(tmp_path):
    outcomes = sweep(tmp_path)
    unnamed = [
        (i, failure)
        for i, failures in enumerate(outcomes)
        if isinstance(failures, list)
        for failure in failures
        if failure.get("name") not in CONTRACTS and failure["kind"] != "PositivityError"
    ]
    assert unnamed == []
    ran = sum(isinstance(failures, list) for failures in outcomes)
    assert 0 < ran < DRAWS


def test_ball_leaving_omega_box_moves_omega_interior_nodes_only(tmp_path):
    # draw 142 of draw_config under default_rng(5): B_rho reaches past the
    # OMEGA box (0.947 > 0.927), but every node it moves is an OMEGA-interior
    # node, so DF is the identity off OMEGA and the exterior Cauchy data must
    # not move
    raw = {
        "mesh": {"kind": "interval", "box": [-2.0, 2.0], "n_cells": 65},
        "regions": {"omega": [-1.511, 0.927], "w": [0.998, 1.794], "wtilde": [1.075, 1.679]},
        "operators": [{}],
        "a": [0.861, 0.31],
        "quad": {},
        "seed": 1192988506,
        "diffeo": {"rho": 0.947, "factor": 0.43},
    }
    result = run_suites(parse_config(raw), out_dir=tmp_path, suites=["gauge"])
    assert result.ok, result.failures
    check = json.loads((tmp_path / "gauge_check.json").read_text())
    assert check["coefficient_difference"] > 0
    assert max(check["cauchy_deviation_per_a"].values()) < CONTRACTS["gauge deviation"]
