"""Lifting nonlocal solutions to local boundary Cauchy data."""

import sys

import numpy as np
import pytest

from conftest import bundled_config, hat_probes

from fracred.calculus import apply_inverse, apply_power
from fracred.config import load_config
from fracred.dirichlet import ExteriorData, cauchy_gap, cauchy_pair, solve_exterior_value
from fracred.operators import CoefficientField, assemble, omega_interface
from fracred.reduction import LiftedPair, boundary_cauchy, lift, theorem1_gaps, theorem1_probe, theorem1_readings
from fracred.runner import run_suites


def first_probe_solution(scn, a=0.5):
    return solve_exterior_value(scn.op, a, hat_probes(scn)[0])


def interface_mass(op):
    """The interface dofs and B = U^T U from the cached upper Cholesky factor."""
    dofs, _, (c, lower) = omega_interface(op)
    assert not lower
    U = np.triu(c)
    return dofs, U.T @ U


def interface_edges(scn):
    """Edges of the OMEGA triangles that no second OMEGA triangle shares."""
    tris = scn.mesh.elements[scn.labels.omega_elements]
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    return uniq[counts == 1]


def count_calls(monkeypatch, *functions):
    """Wrap every fracred module binding of each function; returns the call counts."""
    counts = {fn.__name__: 0 for fn in functions}
    for fn in functions:
        def wrapper(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "fracred" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapper)
    return counts


class TestLift:
    def test_residuals_within_contract(self, base1d):
        for a in (0.25, 0.5, 0.75):
            sol = first_probe_solution(base1d, a)
            pair = lift(base1d.op, a, sol)
            assert pair.residuals["phi"] < 1e-10
            assert pair.residuals["psi"] < 1e-9
            assert pair.residuals["interior"] < 1e-9

    def test_phi_solves_the_local_problem(self, base1d):
        sol = first_probe_solution(base1d)
        pair = lift(base1d.op, 0.5, sol)
        op = base1d.op
        phi, residual = apply_inverse(op, sol.u)
        res = np.linalg.norm(op.K @ phi - op.M @ sol.u)
        assert res < 1e-10 * np.linalg.norm(op.M @ sol.u)
        assert pair.residuals["phi"] == residual

    def test_psi_is_the_shifted_power(self, base1d):
        sol = first_probe_solution(base1d)
        pair = lift(base1d.op, 0.5, sol)
        direct = apply_power(base1d.op, -0.5, sol.u)
        np.testing.assert_allclose(pair.psi, direct, rtol=1e-10)

    def test_rejects_mismatched_exponent(self, base1d):
        sol = first_probe_solution(base1d, 0.25)
        with pytest.raises(ValueError):
            lift(base1d.op, 0.5, sol)

    def test_zero_datum_has_zero_residuals(self, base1d):
        zero = ExteriorData(np.zeros(base1d.op.n_dofs), base1d.op.region_dofs("W"))
        pair = lift(base1d.op, 0.5, solve_exterior_value(base1d.op, 0.5, zero))
        assert pair.residuals == {"phi": 0.0, "psi": 0.0, "interior": 0.0}
        assert np.all(pair.psi == 0.0)

    def test_zero_column_does_not_mask_the_others(self, base1d):
        op = base1d.op
        f = hat_probes(base1d)[0]
        block = np.column_stack([np.zeros(op.n_dofs), f.values])
        sol = solve_exterior_value(op, 0.5, ExteriorData(block, f.w_dofs))
        residuals = lift(op, 0.5, sol).residuals
        assert all(np.isfinite(value) for value in residuals.values())
        # the hat column's roundoff, not the zero column, sets the worst value
        assert residuals["interior"] > 0.0


class TestBlockEquivalence:
    """A dof x k block gives the same results as k single-column calls."""

    @pytest.fixture(params=["base1d", "base2d"])
    def scn(self, request):
        return request.getfixturevalue(request.param)

    @pytest.fixture
    def columns(self, scn):
        w_dofs = scn.op.region_dofs("W")
        values = np.zeros((scn.op.n_dofs, 4))
        values[w_dofs] = np.random.default_rng(43).standard_normal((w_dofs.size, 4))
        return [ExteriorData(values[:, j], w_dofs) for j in range(4)]

    def test_lift_and_data_match_single_calls(self, scn, columns):
        op, a = scn.op, 0.5
        sol = solve_exterior_value(op, a, ExteriorData.stack(columns))
        pair = lift(op, a, sol)
        cp = cauchy_pair(op, a, sol)
        bc = boundary_cauchy(op, pair)
        for j, f in enumerate(columns):
            sol_j = solve_exterior_value(op, a, f)
            pair_j = lift(op, a, sol_j)
            cp_j = cauchy_pair(op, a, sol_j)
            bc_j = boundary_cauchy(op, pair_j)
            for got, want in [
                (pair.psi[:, j], pair_j.psi),
                (cp.trace[:, j], cp_j.trace),
                (cp.flux[:, j], cp_j.flux),
                (bc.trace[:, j], bc_j.trace),
                (bc.flux[:, j], bc_j.flux),
            ]:
                assert np.abs(got - want).max() < 1e-12
            for data, data_j in [(cp, cp_j), (bc, bc_j)]:
                np.testing.assert_array_equal(data.trace_nodes, data_j.trace_nodes)
                np.testing.assert_array_equal(data.flux_nodes, data_j.flux_nodes)

    def test_per_probe_matches_single_probes(self, scn, columns):
        # each gap of the block is the worst of the single-probe gaps
        other = assemble(scn.mesh, CoefficientField.build(scn.mesh, labels=scn.labels, c=5.0))
        rep = theorem1_probe(scn.op, other, 0.5, columns, scn.labels)
        singles = [theorem1_probe(scn.op, other, 0.5, [f], scn.labels) for f in columns]
        for key in ("exterior_gap", "boundary_gap"):
            assert rep[key] == pytest.approx(max(single[key] for single in singles), rel=1e-10)
            assert rep[key] > 0.0


class TestBoundaryCauchy:
    def test_linear_psi_has_unit_conormal_1d(self, base1d):
        # psi = x is harmonic, so the variational flux is the outward
        # normal derivative: -1 at the left interface point, +1 at the right
        op = base1d.op
        x = base1d.mesh.nodes[op.free_nodes].ravel()
        fake = LiftedPair(psi=x, residuals={})
        bc = boundary_cauchy(op, fake)
        order = np.argsort(base1d.mesh.nodes[bc.flux_nodes].ravel())
        np.testing.assert_allclose(bc.flux[order], [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(
            np.sort(base1d.mesh.nodes[bc.flux_nodes].ravel()), [-1.0, 1.0]
        )
        np.testing.assert_array_equal(bc.trace_nodes, bc.flux_nodes)

    def test_constant_psi_has_zero_conormal(self, base1d):
        op = base1d.op
        ones = np.ones(op.n_dofs)
        fake = LiftedPair(psi=ones, residuals={})
        bc = boundary_cauchy(op, fake)
        assert np.abs(bc.flux).max() < 1e-12
        assert np.all(bc.trace == 1.0)

    def test_linear_psi_flux_on_straight_edges_2d(self, base2d):
        # away from the corners the lifted flux approximates n_x = +-1
        op = base2d.op
        x = base2d.mesh.nodes[op.free_nodes][:, 0]
        fake = LiftedPair(psi=x, residuals={})
        bc = boundary_cauchy(op, fake)
        pts = base2d.mesh.nodes[bc.flux_nodes]
        right = (np.abs(pts[:, 0] - 1.0) < 1e-9) & (np.abs(pts[:, 1]) <= 0.5)
        left = (np.abs(pts[:, 0] + 1.0) < 1e-9) & (np.abs(pts[:, 1]) <= 0.5)
        assert right.any() and left.any()
        np.testing.assert_allclose(bc.flux[right], 1.0, atol=0.05)
        np.testing.assert_allclose(bc.flux[left], -1.0, atol=0.05)

    def test_interface_mass_totals_the_perimeter_2d(self, base2d):
        # each P1 edge block ell/6 [[2, 1], [1, 2]] sums to ell, so the
        # whole interface mass sums to the patch perimeter
        _, B = interface_mass(base2d.op)
        edges = interface_edges(base2d)
        perimeter = sum(
            float(np.linalg.norm(base2d.mesh.nodes[n1] - base2d.mesh.nodes[n0]))
            for n0, n1 in edges
        )
        assert B.sum() == pytest.approx(perimeter, rel=1e-12)
        np.testing.assert_allclose(B, B.T)
        assert np.all(np.linalg.eigvalsh(B) > 0)

    def test_edge_block_entries_2d(self, base2d):
        op = base2d.op
        bd_dofs, B = interface_mass(op)
        pos = {int(d): k for k, d in enumerate(bd_dofs)}
        n0, n1 = interface_edges(base2d)[0]
        ell = float(np.linalg.norm(base2d.mesh.nodes[n1] - base2d.mesh.nodes[n0]))
        i, j = pos[int(op.node_to_dof[n0])], pos[int(op.node_to_dof[n1])]
        assert B[i, j] == pytest.approx(ell / 6.0, rel=1e-12)

    def test_flux_balance_is_exact(self, base2d):
        # sum_j (B g)_j = 1^T K_Omega psi = 0 because stiffness rows of a
        # fully interior patch annihilate constants
        op = base2d.op
        x = base2d.mesh.nodes[op.free_nodes][:, 0]
        fake = LiftedPair(psi=x, residuals={})
        bc = boundary_cauchy(op, fake)
        _, B = interface_mass(op)
        assert abs((B @ bc.flux).sum()) < 1e-12

    def test_gap_rejects_different_node_sets(self, base1d, base2d):
        s1 = first_probe_solution(base1d)
        b1 = boundary_cauchy(base1d.op, lift(base1d.op, 0.5, s1))
        s2 = first_probe_solution(base2d)
        b2 = boundary_cauchy(base2d.op, lift(base2d.op, 0.5, s2))
        with pytest.raises(ValueError):
            cauchy_gap(b1, b2)

    def test_non_finite_psi_rejected(self, base1d):
        psi = np.ones(base1d.op.n_dofs)
        psi[omega_interface(base1d.op)[0][0]] = np.nan
        with pytest.raises(ArithmeticError, match="non-finite Cauchy data"):
            boundary_cauchy(base1d.op, LiftedPair(psi=psi, residuals={}))


class TestTheoremProbe:
    def test_identical_operators_leave_no_gap(self, base1d):
        probes = hat_probes(base1d)[:4]
        rep = theorem1_probe(base1d.op, base1d.op, 0.5, probes, base1d.labels)
        assert rep["exterior_gap"] < 1e-10
        assert rep["boundary_gap"] < 1e-10
        assert set(rep) == {"exterior_gap", "boundary_gap", "lift_residuals"}

    def test_zeroth_order_perturbation_regression(self, perturbed1d, base1d):
        # frozen from the first verified run: c = +5 inside Omega shifts
        # both readings of the data by a stable, visible amount
        probes = hat_probes(base1d)
        rep = theorem1_probe(
            perturbed1d.op1, perturbed1d.op2, 0.5, probes, perturbed1d.labels
        )
        assert rep["exterior_gap"] == pytest.approx(0.03792158926810607, rel=1e-9)
        assert rep["boundary_gap"] == pytest.approx(0.0981762934537036, rel=1e-9)
        assert rep["exterior_gap"] > 1e-6
        assert rep["boundary_gap"] > 1e-6

    def test_each_operator_is_evaluated_once(self, monkeypatch, base1d, perturbed1d):
        counts = count_calls(monkeypatch, lift, solve_exterior_value)
        probes = hat_probes(base1d)[:3]
        theorem1_probe(base1d.op, base1d.op, 0.5, probes, base1d.labels)
        assert counts == {"lift": 1, "solve_exterior_value": 1}
        theorem1_probe(perturbed1d.op1, perturbed1d.op2, 0.5, probes, perturbed1d.labels)
        assert counts == {"lift": 3, "solve_exterior_value": 3}

    def test_reduce_suite_solves_and_lifts_once_per_exponent(self, monkeypatch, tmp_path):
        counts = count_calls(monkeypatch, lift, solve_exterior_value)
        cfg = load_config(bundled_config("baseline-1d.json"))
        assert run_suites(cfg, out_dir=tmp_path, suites=["reduce"]).ok
        n = len(cfg.exponents)
        assert counts == {"lift": n, "solve_exterior_value": n}

    def test_lift_residuals_are_those_of_the_block_lift(self, base1d, perturbed1d):
        op, probes = base1d.op, hat_probes(base1d)
        rep = theorem1_probe(op, op, 0.5, probes, base1d.labels)
        block = lift(op, 0.5, solve_exterior_value(op, 0.5, ExteriorData.stack(probes)))
        assert rep["lift_residuals"] == block.residuals

        ops = (perturbed1d.op1, perturbed1d.op2)
        rep = theorem1_probe(*ops, 0.5, probes, perturbed1d.labels)
        per_op = [
            lift(o, 0.5, solve_exterior_value(o, 0.5, ExteriorData.stack(probes))).residuals
            for o in ops
        ]
        assert rep["lift_residuals"] == {k: max(r[k] for r in per_op) for k in per_op[0]}

    def test_gaps_reject_readings_at_another_exponent(self, base1d):
        f = ExteriorData.stack(hat_probes(base1d)[:2])
        with pytest.raises(ValueError, match="readings taken at a=0.5 and a=0.25"):
            theorem1_gaps(theorem1_readings(base1d.op, 0.5, f), theorem1_readings(base1d.op, 0.25, f))

    def test_rejects_exterior_coefficient_mismatch(self, base1d):
        # same mesh, but c = 5 everywhere (not confined to Omega)
        field = CoefficientField.build(base1d.mesh, c=5.0)
        other = assemble(base1d.mesh, field)
        with pytest.raises(ValueError):
            theorem1_probe(
                base1d.op, other, 0.5, hat_probes(base1d)[:1], base1d.labels
            )

    def test_rejects_different_meshes(self, base1d, fine1d):
        with pytest.raises(ValueError):
            theorem1_probe(
                base1d.op, fine1d.op, 0.5, hat_probes(base1d)[:1], base1d.labels
            )
