"""Operator 1 is evaluated first and released: what a two-operator run holds.

The runner assembles operator 1 before operator 0, keeps only the products
the selected suites read of it, and drops it; an exception raised while it
is read is raised again where a suite reads that product.  The manifests
below were written by the runner that held both operators for the whole run.
"""

import gc
import json
import weakref

import pytest

from conftest import bundled_config

import fracred.diagnostics
import fracred.operators
import fracred.reduction
import fracred.runner
from fracred.config import ConfigError, parse_config
from fracred.operators import check
from fracred.runner import run_suites


def config(name, **changes):
    with open(bundled_config(name)) as fh:
        raw = json.load(fh)
    raw.update(changes)
    return parse_config(raw)


def count_assemblies(monkeypatch):
    built = []
    assemble = fracred.runner.assemble

    def tracked(mesh, coeffs):
        op = assemble(mesh, coeffs)
        built.append(weakref.ref(op))
        return op

    monkeypatch.setattr(fracred.runner, "assemble", tracked)
    return built


def test_each_eigensolve_runs_with_no_other_operator_alive(monkeypatch, tmp_path):
    built = count_assemblies(monkeypatch)
    alive_at_eigensolve = []
    band_eigh = fracred.operators._band_eigh

    def checked(K, M):
        gc.collect()
        alive_at_eigensolve.append(sum(ref() is not None for ref in built))
        return band_eigh(K, M)

    monkeypatch.setattr(fracred.operators, "_band_eigh", checked)
    cfg = config("baseline-2d.json", operators=[{}, {"c": 5.0}])
    suites = ["calibrate", "assemble", "direct", "reduce", "diagnostics"]
    assert run_suites(cfg, out_dir=tmp_path, suites=suites).ok
    assert alive_at_eigensolve == [0, 0]
    assert len(built) == 2


def test_second_operator_is_assembled_only_when_a_suite_reads_it(monkeypatch, tmp_path):
    built = count_assemblies(monkeypatch)
    cfg = config("perturbed-1d.json")
    assert run_suites(cfg, out_dir=tmp_path / "a", suites=["calibrate", "direct"]).ok
    assert len(built) == 1
    for suite in ("assemble", "reduce", "diagnostics"):
        assert run_suites(cfg, out_dir=tmp_path / suite, suites=[suite]).ok
    assert len(built) == 1 + 3 * 2


NEGATIVE = 'operator not positive definite: lambda_min = -9.976676e+02"}]'


def test_second_operator_assembly_failure_manifest(tmp_path):
    cfg = config("perturbed-1d.json", operators=[{}, {"c": -1000.0}])
    run_suites(cfg, out_dir=tmp_path / "all")
    assert (tmp_path / "all" / "manifest.json").read_text() == (
        '{"ok": false, "seed": 42, "suites_run": ["calibrate", "assemble"], '
        '"suites_skipped": ["direct", "reduce", "gauge", "diagnostics"], '
        '"failures": [{"suite": "assemble", "kind": "PositivityError", "message": "'
        + NEGATIVE
        + ', "outputs": ["calibration.csv", "calibration.json"]}\n'
    )
    run_suites(cfg, out_dir=tmp_path / "some", suites=["calibrate", "direct", "reduce", "diagnostics"])
    assert (tmp_path / "some" / "manifest.json").read_text() == (
        '{"ok": false, "seed": 42, "suites_run": ["calibrate", "direct", "reduce"], '
        '"suites_skipped": ["diagnostics"], '
        '"failures": [{"suite": "reduce", "kind": "PositivityError", "message": "'
        + NEGATIVE
        + ', "outputs": ["calibration.csv", "calibration.json", "direct.json"]}\n'
    )


def test_second_operator_failures_are_raised_where_the_suites_read_them(monkeypatch, tmp_path):
    lift = fracred.reduction.lift
    heat = fracred.diagnostics.power_via_heat_quadrature

    def failing_lift(op, a, sol):
        if op.coeffs.c.any():
            check("lift phi residual", 1.0, ArithmeticError, a)
        return lift(op, a, sol)

    def failing_heat(op, a, v, quad):
        if op.coeffs.c.any() and a > 0.3:
            raise ArithmeticError(f"second operator heat rows at a={a}")
        return heat(op, a, v, quad)

    monkeypatch.setattr(fracred.reduction, "lift", failing_lift)
    monkeypatch.setattr(fracred.diagnostics, "power_via_heat_quadrature", failing_heat)
    run_suites(config("perturbed-1d.json", a=[0.25, 0.5, 0.75]), out_dir=tmp_path)
    assert (tmp_path / "manifest.json").read_text() == (
        '{"ok": false, "seed": 42, "suites_run": '
        '["calibrate", "assemble", "direct", "reduce", "gauge", "diagnostics"], '
        '"suites_skipped": [], "failures": [{"suite": "reduce", "kind": "ArithmeticError", '
        '"message": "lift phi residual 1.000e+00 out of contract: bound 1.000e-10 at a=0.25", '
        '"name": "lift phi residual", "value": 1.0, "bound": 1e-10, "a": 0.25}, '
        '{"suite": "diagnostics", "kind": "ArithmeticError", '
        '"message": "second operator heat rows at a=0.5"}], "outputs": '
        '["assemble.json", "calibration.csv", "calibration.json", "direct.json", '
        '"gauge_check.json"]}\n'
    )


def test_empty_suite_selection_rejected(tmp_path):
    # a config's "suites" needs at least one name (minItems), and so does
    # the selection passed to run_suites
    with pytest.raises(ConfigError, match=r"schema violation at suites: \[\] has fewer than 1 items"):
        run_suites(config("perturbed-1d.json"), out_dir=tmp_path / "o", suites=[])
    assert not (tmp_path / "o").exists()


RECT12 = {"kind": "rect", "box": [[-2.0, 2.0], [-2.0, 2.0]], "nx": 12, "ny": 12}


@pytest.mark.parametrize(
    "name, changes",
    [("perturbed-1d.json", {}), ("baseline-2d.json", {"mesh": RECT12})],
    ids=["perturbed-1d", "rect-12x12"],
)
def test_identical_operators_compare_at_exactly_zero(name, changes, tmp_path):
    # the two sides of a comparison are read by one function, so two copies
    # of one operator give bitwise equal readings and every pair value is 0.0
    result = run_suites(config(name, operators=[{}, {}], **changes), out_dir=tmp_path)
    assert result.ok
    gaps = json.loads((tmp_path / "cauchy_gap.json").read_text())["per_a"]
    probe = json.loads((tmp_path / "diagnostics.json").read_text())["rigidity_probe"]
    assert sorted(gaps) == sorted(probe) and gaps
    for a, entry in gaps.items():
        assert (entry["pair_exterior_gap"], entry["pair_boundary_gap"], probe[a]) == (0.0, 0.0, 0.0)


def test_non_finite_document_fails_its_suite_and_writes_nothing(monkeypatch, tmp_path):
    # the stability constant is reported, not checked: a NaN one reaches the
    # direct suite's document, which JSON cannot hold, so that suite fails
    # with no artifact and the suites after it still run
    monkeypatch.setattr(fracred.runner, "stability_constant", lambda op, a: float("nan"))
    result = run_suites(config("baseline-1d.json"), out_dir=tmp_path, suites=["calibrate", "direct", "reduce"])
    [failure] = result.failures
    assert (failure["suite"], failure["kind"]) == ("direct", "ValueError")
    assert failure["message"].startswith("Out of range float values are not JSON compliant")
    assert result.outputs == ["calibration.csv", "calibration.json", "cauchy_gap.json", "manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(result.outputs)
