"""Exterior-value solves and the exterior Cauchy data they generate."""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fracred.dirichlet as dirichlet
import fracred.runner as runner
from fracred.calculus import fractional_stiffness
from fracred.config import parse_config
from fracred.dirichlet import (
    ExteriorData,
    ExteriorDataError,
    cauchy_gap,
    cauchy_pair,
    dirichlet_energy,
    solve_exterior_value,
    stability_constant,
)
from fracred.diagnostics import runge_rank
from fracred.gauge import gauge_invariance_check
from fracred.mesh import build_interval_mesh, label_regions
from fracred.operators import CoefficientField, assemble
from fracred.reduction import theorem1_probe
from fracred.runner import run_suites

from conftest import bundled_config, hat_probes


def seeded_datum(scn, seed):
    """Random exterior datum on the full W window."""
    rng = np.random.default_rng(seed)
    w_dofs = scn.op.region_dofs("W", scn.labels)
    values = np.zeros(scn.op.n_dofs)
    values[w_dofs] = rng.standard_normal(w_dofs.size)
    return ExteriorData(values, w_dofs)


class TestExteriorData:
    def test_hat_is_unit_at_node(self, base1d):
        node = int(base1d.labels.node_set("W")[0])
        f = ExteriorData.hat(base1d.op, node)
        dof = base1d.op.dofs_of_nodes(node)[0]
        assert f.values[dof] == 1.0
        assert np.count_nonzero(f.values) == 1

    def test_hat_rejects_non_w_node(self, base1d):
        omega_node = int(base1d.labels.node_set("OMEGA")[0])
        with pytest.raises(ExteriorDataError):
            ExteriorData.hat(base1d.op, omega_node)

    def test_repeated_node_rejected(self, base1d):
        # a repeat would keep only the last of its values
        node = int(base1d.labels.w_nodes[0])
        with pytest.raises(ExteriorDataError, match="distinct"):
            ExteriorData.from_node_values(base1d.op, [node, node], [1.0, 2.0])

    def test_node_value_count_mismatch_rejected(self, base1d):
        # one value would otherwise be broadcast to every node
        nodes = base1d.labels.w_nodes[:2]
        with pytest.raises(ExteriorDataError, match="one per row"):
            ExteriorData.from_node_values(base1d.op, nodes, [1.0])

    def test_support_outside_w_rejected(self, base1d):
        w_dofs = base1d.op.region_dofs("W", base1d.labels)
        values = np.zeros(base1d.op.n_dofs)
        values[base1d.op.region_dofs("E", base1d.labels)[0]] = 1.0
        with pytest.raises(ExteriorDataError):
            ExteriorData(values, w_dofs)

    def test_non_vector_rejected(self, base1d):
        # a dof x k block is valid data; 0-d and 3-d arrays are not
        w_dofs = base1d.op.region_dofs("W", base1d.labels)
        with pytest.raises(ExteriorDataError):
            ExteriorData(np.float64(1.0), w_dofs)
        with pytest.raises(ExteriorDataError):
            ExteriorData(np.zeros((base1d.op.n_dofs, 1, 1)), w_dofs)

    def test_non_finite_rejected(self, base1d):
        w_dofs = base1d.op.region_dofs("W", base1d.labels)
        for bad in (np.nan, np.inf):
            values = np.zeros((base1d.op.n_dofs, 2))
            values[w_dofs[0], 1] = bad
            with pytest.raises(ExteriorDataError, match="non-finite"):
                ExteriorData(values, w_dofs)

    def test_negative_w_dof_rejected(self, base1d):
        # a negative index would wrap around to the last dof
        values = np.zeros(base1d.op.n_dofs)
        values[-1] = 1.0
        with pytest.raises(ExteriorDataError, match="outside"):
            ExteriorData(values, [-1])

    def test_w_dof_past_the_last_row_rejected(self, base1d):
        n = base1d.op.n_dofs
        with pytest.raises(ExteriorDataError, match="outside"):
            ExteriorData(np.zeros((n, 2)), [0, n])

    def test_unsorted_or_repeated_w_dofs_rejected(self, base1d):
        values = np.zeros(base1d.op.n_dofs)
        for w_dofs in ([3, 1, 1], [1, 3, 3], [[1, 3]]):
            with pytest.raises(ExteriorDataError, match="increasing"):
                ExteriorData(values, w_dofs)

    def test_w_hats_is_the_identity_on_w(self, base1d):
        op = base1d.op
        hats = ExteriorData.w_hats(op)
        w_dofs = op.region_dofs("W")
        assert hats.values.shape == (op.n_dofs, w_dofs.size)
        np.testing.assert_array_equal(hats.values[w_dofs], np.eye(w_dofs.size))
        stacked = ExteriorData.stack(hat_probes(base1d))
        np.testing.assert_array_equal(stacked.values, hats.values)

    def test_stack_rejects_empty_and_mixed_windows(self, base1d, fine1d):
        with pytest.raises(ExteriorDataError):
            ExteriorData.stack([])
        mixed = [hat_probes(base1d)[0], hat_probes(fine1d)[0]]
        with pytest.raises(ExteriorDataError):
            ExteriorData.stack(mixed)

    def test_from_node_values_places_entries(self, base1d):
        nodes = base1d.labels.node_set("W")[:3]
        f = ExteriorData.from_node_values(base1d.op, nodes, [1.0, -2.0, 0.5])
        dofs = base1d.op.dofs_of_nodes(nodes)
        np.testing.assert_array_equal(f.values[dofs], [1.0, -2.0, 0.5])

    def test_from_node_values_block_equals_stacked_singles(self, base1d):
        op, labels = base1d.op, base1d.labels
        nodes = labels.w_nodes
        block = np.random.default_rng(3).standard_normal((nodes.size, 3))
        f = ExteriorData.from_node_values(op, nodes, block)
        singles = [ExteriorData.from_node_values(op, nodes, col) for col in block.T]
        stacked = ExteriorData.stack(singles)
        assert f.values.shape == (op.n_dofs, 3)
        np.testing.assert_array_equal(f.values, stacked.values)
        np.testing.assert_array_equal(f.w_dofs, stacked.w_dofs)

    def test_stack_keeps_the_columns_of_a_block(self, base1d):
        hats = ExteriorData.w_hats(base1d.op)
        np.testing.assert_array_equal(ExteriorData.stack([hats]).values, hats.values)
        f = hat_probes(base1d)[0]
        mixed = ExteriorData.stack([hats, f])
        np.testing.assert_array_equal(mixed.values, np.column_stack([hats.values, f.values]))


class TestExteriorSolve:
    def test_zero_datum_solves_to_zero(self, base1d):
        w_dofs = base1d.op.region_dofs("W", base1d.labels)
        f = ExteriorData(np.zeros(base1d.op.n_dofs), w_dofs)
        sol = solve_exterior_value(base1d.op, 0.5, f)
        # the Schur rhs is exactly zero, so the solve is exact
        assert np.all(sol.u == 0.0)

    def test_datum_length_mismatch_rejected(self, base1d, fine1d):
        w_dofs = fine1d.op.region_dofs("W", fine1d.labels)
        f = ExteriorData(np.zeros(fine1d.op.n_dofs), w_dofs)
        with pytest.raises(ExteriorDataError):
            solve_exterior_value(base1d.op, 0.5, f)

    def test_solution_agrees_with_datum_off_interior(self, base1d):
        f = seeded_datum(base1d, 11)
        sol = solve_exterior_value(base1d.op, 0.5, f)
        interior = base1d.op.omega_interior_dofs(base1d.labels)
        mask = np.ones(base1d.op.n_dofs, dtype=bool)
        mask[interior] = False
        np.testing.assert_array_equal(sol.u[mask], f.values[mask])

    def test_interior_weak_residual_vanishes(self, base1d):
        f = seeded_datum(base1d, 12)
        for a in (0.25, 0.5, 0.75):
            sol = solve_exterior_value(base1d.op, a, f)
            G = fractional_stiffness(base1d.op, a)
            interior = base1d.op.omega_interior_dofs(base1d.labels)
            res = np.abs((G @ sol.u)[interior]).max()
            assert res < 1e-12 * np.abs(G).max()

    def test_solve_is_linear(self, base1d):
        f = seeded_datum(base1d, 13)
        g = seeded_datum(base1d, 14)
        combo = ExteriorData(0.7 * f.values - 1.3 * g.values, f.w_dofs)
        u_f = solve_exterior_value(base1d.op, 0.5, f).u
        u_g = solve_exterior_value(base1d.op, 0.5, g).u
        u_c = solve_exterior_value(base1d.op, 0.5, combo).u
        dev = np.abs(u_c - (0.7 * u_f - 1.3 * u_g)).max()
        assert dev < 1e-12 * np.abs(u_c).max()

    def test_energy_minimal_among_extensions(self, base1d):
        # any interior perturbation adds B(p, p) > 0 on top of the minimum
        f = seeded_datum(base1d, 15)
        sol = solve_exterior_value(base1d.op, 0.5, f)
        base = dirichlet_energy(base1d.op, 0.5, sol.u)
        interior = base1d.op.omega_interior_dofs(base1d.labels)
        rng = np.random.default_rng(16)
        for _ in range(20):
            p = np.zeros(base1d.op.n_dofs)
            p[interior] = rng.standard_normal(interior.size)
            assert dirichlet_energy(base1d.op, 0.5, sol.u + p) > base

    @given(a=st.floats(0.1, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_weak_residual_across_exponents(self, a):
        scn = _hypothesis_scenario()
        f = seeded_datum(scn, 17)
        sol = solve_exterior_value(scn.op, a, f)
        G = fractional_stiffness(scn.op, a)
        interior = scn.op.omega_interior_dofs(scn.labels)
        assert np.abs((G @ sol.u)[interior]).max() < 1e-12 * np.abs(G).max()


_HYP_SCENARIO = None


def _hypothesis_scenario():
    # module-level reuse keeps hypothesis off the session fixture (and the
    # eigendecomposition is done once)
    global _HYP_SCENARIO
    if _HYP_SCENARIO is None:
        from conftest import build_scenario

        _HYP_SCENARIO = build_scenario("baseline-1d.json")
    return _HYP_SCENARIO


class TestStability:
    def test_constant_regression(self, base1d):
        # frozen from the first verified run on the baseline geometry
        frozen = {
            0.25: 1.418798171019344,
            0.5: 2.0944887899233926,
            0.75: 3.2365503542684375,
        }
        for a, want in frozen.items():
            assert stability_constant(base1d.op, a) == pytest.approx(want, rel=1e-9)

    def test_constant_grows_with_exponent(self, base1d):
        values = [stability_constant(base1d.op, a) for a in (0.25, 0.5, 0.75)]
        assert values[0] < values[1] < values[2]
        assert all(v > 1.0 for v in values)

    def test_measured_ratio_stays_below_constant(self, base1d):
        op = base1d.op

        def norm(v):
            # (sum_i (1 + lambda_i)^a |<phi_i, v>_M|^2)^(1/2) at a = 0.5
            coeff = op.spectral_coefficients(v)
            return float(np.sqrt(np.sum((1.0 + op.eigenvalues) ** 0.5 * np.abs(coeff) ** 2)))

        c = stability_constant(op, 0.5)
        for seed in range(5):
            f = seeded_datum(base1d, 20 + seed)
            ratio = norm(solve_exterior_value(op, 0.5, f).u) / norm(f.values)
            assert 0.0 < ratio < c


class TestCauchyData:
    def test_pair_extracts_window_values(self, base1d):
        f = seeded_datum(base1d, 30)
        sol = solve_exterior_value(base1d.op, 0.5, f)
        pair = cauchy_pair(base1d.op, 0.5, sol)
        w_dofs = base1d.op.region_dofs("W", base1d.labels)
        np.testing.assert_array_equal(pair.trace, f.values[w_dofs])
        assert pair.flux_nodes.size == base1d.op.region_dofs("WTILDE", base1d.labels).size
        assert np.all(np.isfinite(pair.flux))

    def test_pair_rejects_mismatched_exponent(self, base1d):
        sol = solve_exterior_value(base1d.op, 0.25, seeded_datum(base1d, 31))
        with pytest.raises(ValueError):
            cauchy_pair(base1d.op, 0.5, sol)

    def test_pair_requires_a_labeled_operator(self, base1d):
        # the windows are read from the operator's own labels
        unlabeled = assemble(base1d.mesh, CoefficientField.build(base1d.mesh))
        sol = solve_exterior_value(base1d.op, 0.5, seeded_datum(base1d, 32))
        with pytest.raises(ValueError, match="without region labels"):
            cauchy_pair(unlabeled, 0.5, sol)

    def test_gap_vanishes_on_identical_pairs(self, base1d):
        sol = solve_exterior_value(base1d.op, 0.5, seeded_datum(base1d, 33))
        pair = cauchy_pair(base1d.op, 0.5, sol)
        assert cauchy_gap(pair, pair) == 0.0

    def test_gap_detects_perturbed_operator(self, perturbed1d):
        labels = perturbed1d.labels
        f1 = seeded_datum(
            type("S", (), {"op": perturbed1d.op1, "labels": labels})(), 34
        )
        sol1 = solve_exterior_value(perturbed1d.op1, 0.5, f1)
        sol2 = solve_exterior_value(perturbed1d.op2, 0.5, f1)
        p1 = cauchy_pair(perturbed1d.op1, 0.5, sol1)
        p2 = cauchy_pair(perturbed1d.op2, 0.5, sol2)
        assert cauchy_gap(p1, p2) > 1e-6

    def test_gap_rejects_different_windows(self, base1d, fine1d):
        s1 = solve_exterior_value(base1d.op, 0.5, seeded_datum(base1d, 35))
        p1 = cauchy_pair(base1d.op, 0.5, s1)
        s2 = solve_exterior_value(fine1d.op, 0.5, seeded_datum(fine1d, 35))
        p2 = cauchy_pair(fine1d.op, 0.5, s2)
        with pytest.raises(ValueError):
            cauchy_gap(p1, p2)


class TestExteriorDataMatrix:
    """The W -> Wtilde data map: the Cauchy flux of the W-hat block solve."""

    def test_nodal_columns_match_cauchy_pairs(self, base1d):
        block = solve_exterior_value(base1d.op, 0.5, ExteriorData.w_hats(base1d.op))
        matrix = cauchy_pair(base1d.op, 0.5, block).flux
        for j, f in enumerate(hat_probes(base1d)[:4]):
            sol = solve_exterior_value(base1d.op, 0.5, f)
            pair = cauchy_pair(base1d.op, 0.5, sol)
            np.testing.assert_allclose(
                matrix[:, j], pair.flux, rtol=1e-12, atol=1e-13
            )


class TestSolveExteriorBlock:
    """solve_exterior_value on a dof x k block ExteriorData."""

    @pytest.fixture(params=["base1d", "base2d"])
    def scn(self, request):
        return request.getfixturevalue(request.param)

    def test_block_equals_single_solves(self, scn):
        op = scn.op
        w_dofs = op.region_dofs("W")
        F = np.zeros((op.n_dofs, 4))
        F[w_dofs] = np.random.default_rng(41).standard_normal((w_dofs.size, 4))
        sol = solve_exterior_value(op, 0.5, ExteriorData(F, w_dofs))
        assert sol.u.shape == F.shape
        for j in range(F.shape[1]):
            u = solve_exterior_value(op, 0.5, ExteriorData(F[:, j], w_dofs)).u
            assert np.abs(sol.u[:, j] - u).max() < 1e-12

    def test_zero_block_gives_exact_zeros(self, scn):
        zero = ExteriorData(np.zeros((scn.op.n_dofs, 3)), scn.op.region_dofs("W"))
        sol = solve_exterior_value(scn.op, 0.5, zero)
        assert np.all(sol.u == 0.0)
        assert sol.residual == 0.0

    def test_support_off_w_rejected(self, scn):
        F = np.zeros((scn.op.n_dofs, 2))
        F[scn.op.region_dofs("E")[0], 1] = 1.0
        with pytest.raises(ExteriorDataError):
            solve_exterior_value(scn.op, 0.5, ExteriorData(F, scn.op.region_dofs("W")))

    def test_residual_is_the_worst_column(self, scn):
        op = scn.op
        f = ExteriorData.w_hats(op)
        sol = solve_exterior_value(op, 0.5, f)
        interior, w_dofs = op.omega_interior_dofs(), f.w_dofs
        G = fractional_stiffness(op, 0.5)
        B = -(G[np.ix_(interior, w_dofs)] @ f.values[w_dofs])
        res = G[np.ix_(interior, interior)] @ sol.u[interior] - B
        per_column = np.linalg.norm(res, axis=0) / np.linalg.norm(B, axis=0)
        assert sol.residual == pytest.approx(per_column.max(), rel=1e-12)

    def test_foreign_window_rejected(self, base1d):
        # right dof count, but the datum's W is not the operator's
        op = base1d.op
        w_dofs = op.region_dofs("W")[:-1]
        with pytest.raises(ExteriorDataError, match="window"):
            solve_exterior_value(op, 0.5, ExteriorData(np.zeros(op.n_dofs), w_dofs))


class TestLabelBinding:
    """Passed labels are checked against the operator's own, never used."""

    @pytest.fixture(scope="class")
    def shifted(self):
        # Omega moved by one cell pair: same interior node count, so a
        # factor cached for the operator's own Omega would silently fit
        mesh = build_interval_mesh(-2.0, 2.0, 80)
        own = label_regions(mesh, (-1.0, 1.0), (1.05, 1.8), (-1.95, -1.05))
        moved = label_regions(mesh, (-0.9, 1.1), (1.2, 1.8), (-1.95, -1.05))
        assert own.omega_interior_nodes.size == moved.omega_interior_nodes.size
        from types import SimpleNamespace

        op = assemble(mesh, CoefficientField.build(mesh, labels=own))
        other = assemble(mesh, CoefficientField.build(mesh, labels=moved))
        return SimpleNamespace(mesh=mesh, op=op, other=other, own=own, moved=moved)

    def test_shifted_omega_refused_after_warm_cache(self, shifted):
        op, other, own, moved = shifted.op, shifted.other, shifted.own, shifted.moved
        runge_rank(op, 0.5, own)
        probes = [ExteriorData.w_hats(op)]
        calls = [
            lambda: runge_rank(op, 0.5, moved),
            lambda: op.region_dofs("W", moved),
            lambda: op.omega_interior_dofs(moved),
            # a two-operator probe checks the labels against both operators
            lambda: theorem1_probe(op, other, 0.5, probes, own),
            lambda: gauge_invariance_check(op, other, 0.5, own, probes),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="labels"):
                call()

    def test_equal_relabeling_is_accepted(self, shifted):
        op = shifted.op
        again = label_regions(shifted.mesh, (-1.0, 1.0), (1.05, 1.8), (-1.95, -1.05))
        assert again is not op.labels
        assert op.resolve_labels(again) is op.labels
        assert runge_rank(op, 0.25, again).smallest == runge_rank(op, 0.25, op.labels).smallest


class TestDirectSuite:
    def test_w_reaching_the_outer_box_draws_on_its_free_nodes(self, tmp_path):
        # the node at x = 2 is in W but carries the homogeneous Dirichlet condition
        raw = json.loads(Path(bundled_config("baseline-1d.json")).read_text())
        raw["regions"]["w"] = [1.4, 2.0]
        result = run_suites(parse_config(raw), out_dir=tmp_path, suites=["direct"])
        assert result.ok, result.failures
        assert "direct.json" in result.outputs


class TestInteriorBlockCache:
    @staticmethod
    def counted(monkeypatch):
        """Calls of fractional_stiffness from dirichlet, as (op, a, rows)."""
        calls = []
        monkeypatch.setattr(
            dirichlet,
            "fractional_stiffness",
            lambda op, a, rows=None: calls.append((op, a, rows)) or fractional_stiffness(op, a, rows),
        )
        return calls

    def test_interior_block_is_cached_with_its_factor(self, base1d, base2d, monkeypatch):
        a = 0.5
        for scn in (base1d, base2d):
            op = assemble(scn.mesh, scn.fields[0])
            f = seeded_datum(SimpleNamespace(op=op, labels=scn.labels), 0)
            first = solve_exterior_value(op, a, f)
            G_IW, G_II, factor = op.cached(("gii_cholesky", a), None)
            interior = op.omega_interior_dofs()
            rows = fractional_stiffness(op, a, interior)
            # the same n-term sums in another association: n eps = 8e-14 at n = 361
            tol = 1e-13 * np.abs(rows).max()
            assert np.abs(G_IW - rows[:, op.region_dofs("W")]).max() <= tol
            G_rows_II = rows[:, interior]
            assert np.abs(G_II - 0.5 * (G_rows_II + G_rows_II.conj().T)).max() <= tol
            assert np.array_equal(G_II, G_II.conj().T)
            assert np.array_equal(factor[0], scipy.linalg.cho_factor(G_II)[0])
            # a warm solve reads the cached G[I, W] for its right-hand side
            calls = self.counted(monkeypatch)
            again = solve_exterior_value(op, a, f)
            assert len(calls) == 0
            assert np.array_equal(again.u, first.u) and again.residual == first.residual

    def test_interior_rows_formed_once_per_exponent(self, base1d, monkeypatch):
        # the order of the direct suite: stability constant, then the block solve
        op = assemble(base1d.mesh, base1d.fields[0])
        calls = self.counted(monkeypatch)
        for a in (0.25, 0.5, 0.75):
            stability_constant(op, a)
            solve_exterior_value(op, a, ExteriorData.w_hats(op))
        interior = op.omega_interior_dofs()
        assert [a for _, a, _ in calls] == [0.25, 0.5, 0.75]
        assert all(np.array_equal(rows, interior) for *_, rows in calls)

    def test_solve_then_stability_forms_interior_rows_once_per_exponent(self, base1d, monkeypatch):
        # either call order builds the same solve cache entry, and forms G[I, :] once
        one = assemble(base1d.mesh, base1d.fields[0])
        other = assemble(base1d.mesh, base1d.fields[0])
        calls = self.counted(monkeypatch)
        for a in (0.25, 0.5, 0.75):
            solved_first = solve_exterior_value(one, a, ExteriorData.w_hats(one))
            c_after = stability_constant(one, a)
            c_first = stability_constant(other, a)
            solved_after = solve_exterior_value(other, a, ExteriorData.w_hats(other))
            assert c_after == c_first
            assert np.array_equal(solved_first.u, solved_after.u)
            assert solved_first.residual == solved_after.residual
        assert [(op is one, a) for op, a, _ in calls] == [
            (owner, a) for a in (0.25, 0.5, 0.75) for owner in (True, False)
        ]

    def test_full_run_forms_interior_rows_once_per_operator_and_exponent(self, tmp_path, monkeypatch):
        calls = self.counted(monkeypatch)
        stability_ops = []
        monkeypatch.setattr(
            runner,
            "stability_constant",
            lambda op, a: stability_ops.append(op) or stability_constant(op, a),
        )
        raw = json.loads(Path(bundled_config("baseline-1d.json")).read_text())
        raw["operators"] = [{}, {"c": 5.0}]
        assert run_suites(parse_config(raw), out_dir=tmp_path).ok
        # only stability_constant forms G[I, :], on operator 0 at each exponent;
        # operator 1 and the gauge suite's transported operator build their
        # solve cache entries from eigenbasis rows alone
        op0 = stability_ops[0]
        assert all(op is op0 for op in stability_ops)
        assert [(op is op0, a) for op, a, _ in calls] == [(True, 0.25), (True, 0.5), (True, 0.75)]
