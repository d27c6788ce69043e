"""The contract table: every tolerance check reports the bound it broke.

Each entry of ``CONTRACTS`` is driven through the public call that checks
it with its bound set to -1, which no measured value meets; the original
exception type must be raised carrying the record (name, value, bound, a),
and a failed run must copy that record into its manifest.
"""

import json

import numpy as np
import pytest
import scipy.linalg

from conftest import bundled_config

from fracred.calculus import QuadratureError, TimeQuadrature
from fracred.config import load_config, parse_config
from fracred.diagnostics import heatflow_rigidity_probe
from fracred.dirichlet import ExteriorData, solve_exterior_value
from fracred.operators import CONTRACTS, AssemblyError, assemble
from fracred.reduction import lift
from fracred.runner import ContractError, run_suites


def _assemble(scn):
    assemble(scn.mesh, scn.fields[0])


def _solve(scn):
    return solve_exterior_value(scn.op, 0.5, ExteriorData.w_hats(scn.op))


def _lift(scn):
    lift(scn.op, 0.5, _solve(scn))


def _rigidity(scn):
    op = scn.op
    f = ExteriorData.hat(op, op.free_nodes[op.region_dofs("W")[0]])
    sigma = op.free_nodes[op.region_dofs("WTILDE")][:5]
    heatflow_rigidity_probe(op, op, 0.5, f, TimeQuadrature(), sigma)


#: contract -> (public call that checks it, exception type, exponent in the record)
LIBRARY_CHECKS = {
    "stiffness Hermitian deviation": (_assemble, AssemblyError, None),
    "eigenpair residual": (_assemble, AssemblyError, None),
    "calibration error": (
        lambda scn: TimeQuadrature().ensure_calibrated(scn.op.lambda_min, scn.op.lambda_max, 0.5),
        QuadratureError,
        0.5,
    ),
    "interior solve residual": (_solve, ArithmeticError, 0.5),
    "lift phi residual": (_lift, ArithmeticError, 0.5),
    "lift psi residual": (_lift, ArithmeticError, 0.5),
    "lift interior residual": (_lift, ArithmeticError, 0.5),
    "rigidity disagreement": (_rigidity, ArithmeticError, 0.5),
}

#: contract -> (runner suite that checks it, exponent in the record)
RUNNER_CHECKS = {
    "linearity residual": ("direct", 0.25),
    "self exterior gap": ("reduce", 0.25),
    "self boundary gap": ("reduce", 0.25),
    "transport deviation": ("gauge", None),
    "gauge deviation": ("gauge", 0.25),
    "Runge row condition": ("diagnostics", 0.25),
}


def test_every_contract_is_driven_here():
    assert sorted({**LIBRARY_CHECKS, **RUNNER_CHECKS}) == sorted(CONTRACTS)


@pytest.mark.parametrize("name", sorted(LIBRARY_CHECKS))
def test_library_contract_raises_its_record(name, base1d, monkeypatch):
    drive, error, a = LIBRARY_CHECKS[name]
    monkeypatch.setitem(CONTRACTS, name, -1.0)
    with pytest.raises(error, match=name) as info:
        drive(base1d)
    record = info.value.contract
    assert record["name"] == name and record["bound"] == -1.0 and record["a"] == a
    assert record["value"] >= 0.0


@pytest.mark.parametrize("name", sorted(RUNNER_CHECKS))
def test_runner_contract_writes_its_record(name, tmp_path, monkeypatch):
    suite, a = RUNNER_CHECKS[name]
    monkeypatch.setitem(CONTRACTS, name, -1.0)
    result = run_suites(load_config(bundled_config("baseline-1d.json")), out_dir=tmp_path, suites=[suite])
    assert not result.ok
    [failure] = result.failures
    assert failure["kind"] == ContractError.__name__
    assert (failure["suite"], failure["name"], failure["bound"], failure["a"]) == (suite, name, -1.0, a)
    assert failure["value"] >= 0.0
    assert json.loads((tmp_path / "manifest.json").read_text())["failures"] == [failure]


def bundled_raw(name="baseline-1d.json", **changes) -> dict:
    with open(bundled_config(name)) as fh:
        raw = json.load(fh)
    raw.update(changes)
    return raw


def test_nan_calibration_fails_with_its_record(tmp_path, monkeypatch):
    # a NaN error must break the contract, and JSON has no NaN to record it by
    monkeypatch.setattr(TimeQuadrature, "scalar_power", lambda self, lam, a: np.full(np.shape(lam), np.nan))
    result = run_suites(parse_config(bundled_raw()), out_dir=tmp_path, suites=["calibrate"])
    [failure] = result.failures
    assert (failure["kind"], failure["name"], failure["value"]) == ("QuadratureError", "calibration error", "nan")
    assert failure["bound"] == CONTRACTS["calibration error"]


def test_interval_400_failures_name_their_bounds(tmp_path):
    # one rung up the mesh ladder from the bundled 80 cells, where the Runge
    # map at a = 0.25 is rank-deficient to roundoff
    raw = bundled_raw()
    raw["mesh"]["n_cells"] = 400
    result = run_suites(parse_config(raw), out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["failures"] == result.failures
    assert [(f["suite"], f["name"], f["a"]) for f in result.failures] == [
        ("diagnostics", "Runge row condition", 0.25)
    ]
    for failure in result.failures:
        assert failure["value"] > failure["bound"]


def test_square_runge_map_is_certified(tmp_path, monkeypatch):
    # at 40 cells with W = [1.2, 1.5], E has 5 nodes but 4 free dofs (one is
    # on the box boundary) and W has 4: the 4 x 4 map has no more rows than
    # columns, so its row condition is checked
    raw = bundled_raw()
    raw["mesh"]["n_cells"] = 40
    raw["regions"]["w"] = [1.2, 1.5]
    monkeypatch.setitem(CONTRACTS, "Runge row condition", -1.0)
    result = run_suites(parse_config(raw), out_dir=tmp_path, suites=["diagnostics"])
    [failure] = result.failures
    assert (failure["suite"], failure["name"], failure["a"]) == ("diagnostics", "Runge row condition", 0.25)


def test_failed_phi_solve_skips_no_suite(tmp_path, monkeypatch):
    # a K solve off by 1e-6 breaks the Phi residual, whatever bounds it:
    # the lift fails at its exponent, gauge and diagnostics still run
    solve = scipy.linalg.solveh_banded
    monkeypatch.setattr(
        scipy.linalg, "solveh_banded", lambda *args, **kwargs: solve(*args, **kwargs) * (1 + 1e-6)
    )
    result = run_suites(load_config(bundled_config("baseline-1d.json")), out_dir=tmp_path)
    [failure] = result.failures
    assert (failure["suite"], failure["kind"], failure["name"], failure["a"]) == (
        "reduce", "ArithmeticError", "lift phi residual", 0.25
    )
    assert failure["value"] > failure["bound"]
    assert json.loads((tmp_path / "manifest.json").read_text())["suites_skipped"] == []


def test_perturbed_640_cells_reduces_within_its_lift_contracts(tmp_path):
    # a Psi formed as L^a Phi carries the Cholesky error of Phi into the
    # interior residual (2.35e-9 > 1e-9 here); Psi = L^{a-1} u does not
    raw = bundled_raw("perturbed-1d.json", a=[0.75])
    raw["mesh"]["n_cells"] = 640
    result = run_suites(parse_config(raw), out_dir=tmp_path, suites=["reduce"])
    assert result.failures == []
