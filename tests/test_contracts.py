"""The contract table: every tolerance check reports the bound it broke.

Each entry of ``CONTRACTS`` is driven through the public call that checks
it with its bound set to -1, which no measured value meets; the original
exception type must be raised carrying the record (name, value, bound, a),
and a failed run must copy that record into its manifest.  Each runner
contract must also fail through its value, under its own bound, when an
input to that value is broken: a value that is 0 by construction fails
only the first way.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from conftest import bundled_config

from fracred.calculus import QuadratureError, TimeQuadrature
from fracred import gauge, runner
from fracred.config import load_config, parse_config
from fracred.diagnostics import SingularValueReport, heatflow_rigidity_probe, heatflow_rows
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
    rows = heatflow_rows(op, 0.5, f, TimeQuadrature(), sigma)
    heatflow_rigidity_probe(rows, rows)


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
    "transport deviation": ("gauge", None),
    "gauge deviation": ("gauge", 0.25),
    "Runge row condition": ("diagnostics", 0.25),
}


def test_every_contract_is_driven_here():
    assert sorted({**LIBRARY_CHECKS, **RUNNER_CHECKS}) == sorted(CONTRACTS)
    # the Runge row condition fails through its value on the interval-400 rung
    assert sorted(VALUE_BREAKS) == sorted(set(RUNNER_CHECKS) - {"Runge row condition"})


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


def _break_linearity(monkeypatch):
    # the block's third column, alpha f + beta g, moves by 1e-9 relative
    solve = runner.solve_exterior_value

    def perturbed(op, a, f):
        sol = solve(op, a, f)
        u = sol.u.copy()
        u[:, 2] *= 1 + 1e-9
        return replace(sol, u=u)

    monkeypatch.setattr(runner, "solve_exterior_value", perturbed)


def _transported(monkeypatch, change):
    push = runner.pushforward_operator

    def changed(op, F):
        moved = push(op, F)
        change(moved)
        return moved

    monkeypatch.setattr(runner, "pushforward_operator", changed)


def _break_transport(monkeypatch):
    def scale_k(moved):
        moved.K = moved.K * (1 + 1e-9)

    _transported(monkeypatch, scale_k)


def _break_gauge(monkeypatch):
    # the transported operator's exterior flux moves by 1e-6
    moved_ops = []
    _transported(monkeypatch, moved_ops.append)
    pair = gauge.cauchy_pair

    def offset(op, a, sol):
        data = pair(op, a, sol)
        return replace(data, flux=data.flux + 1e-6) if any(op is m for m in moved_ops) else data

    monkeypatch.setattr(gauge, "cauchy_pair", offset)


#: runner contract -> the monkeypatch that breaks an input of its measured value
VALUE_BREAKS = {
    "linearity residual": _break_linearity,
    "transport deviation": _break_transport,
    "gauge deviation": _break_gauge,
}


@pytest.mark.parametrize("name", sorted(VALUE_BREAKS))
def test_runner_contract_fails_through_its_value(name, tmp_path, monkeypatch):
    suite, a = RUNNER_CHECKS[name]
    VALUE_BREAKS[name](monkeypatch)
    result = run_suites(load_config(bundled_config("baseline-1d.json")), out_dir=tmp_path, suites=[suite])
    [failure] = result.failures
    assert (failure["suite"], failure["kind"], failure["name"], failure["a"]) == (suite, "ContractError", name, a)
    assert failure["bound"] == CONTRACTS[name] < failure["value"]
    assert json.loads((tmp_path / "manifest.json").read_text())["failures"] == [failure]


@pytest.mark.parametrize("name", ["baseline-1d.json", "baseline-2d.json", "perturbed-1d.json"])
def test_self_gaps_are_reported_as_exact_zeros(name, tmp_path):
    # operator 0's Cauchy data against themselves: 0.0 by construction, so
    # the gaps are written for the record and bound by no contract
    result = run_suites(load_config(bundled_config(name)), out_dir=tmp_path, suites=["reduce"])
    assert result.ok
    per_a = json.loads((tmp_path / "cauchy_gap.json").read_text())["per_a"]
    for entry in per_a.values():
        assert entry["self_exterior_gap"] == 0.0 and entry["self_boundary_gap"] == 0.0


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


def _run_with_ucp_reports(monkeypatch, tmp_path, singular_values):
    # every UCP quotient of the Sigma chain reads singular_values(|Sigma|)
    def report(op, a, sigma):
        return SingularValueReport(singular_values(len(sigma)), (2 * len(sigma), 2), f"fake |Sigma|={len(sigma)}")

    monkeypatch.setattr(runner, "ucp_quotient", report)
    result = run_suites(load_config(bundled_config("baseline-1d.json")), out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["suites_run"] == list(runner.SUITE_NAMES) and manifest["suites_skipped"] == []
    assert "gauge_check.json" in manifest["outputs"] and "diagnostics.json" not in manifest["outputs"]
    [failure] = manifest["failures"]
    assert failure == result.failures[0]
    return failure


def test_vanishing_ucp_quotient_fails_diagnostics_only(tmp_path, monkeypatch):
    failure = _run_with_ucp_reports(monkeypatch, tmp_path, lambda size: [1.0, 0.0])
    assert failure == {
        "suite": "diagnostics",
        "kind": "ContractError",
        "message": "vanishing data quotient at a=0.25 (fake |Sigma|=6)",
    }


def test_ucp_quotient_shrinking_under_enlargement_fails_diagnostics_only(tmp_path, monkeypatch):
    failure = _run_with_ucp_reports(monkeypatch, tmp_path, lambda size: [1.0, 1.0 / size])
    assert failure == {
        "suite": "diagnostics",
        "kind": "ContractError",
        "message": "data quotient not monotone under enlargement at a=0.25",
    }
