"""Deformation transport and gauge invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_scenario, hat_probes

from fracred.gauge import (
    Diffeo,
    DiffeoError,
    gauge_invariance_check,
    map_mesh,
    pushforward_operator,
)
from fracred.mesh import Mesh, MeshError
from fracred.operators import CoefficientField, assemble


class TestDiffeoConstruction:
    def test_radial_shrink_fixes_everything_outside_rho(self, base1d):
        F = Diffeo.radial_shrink(base1d.mesh, 0.8, 0.8)
        r = np.linalg.norm(base1d.mesh.nodes, axis=1)
        outside = r >= 0.8
        np.testing.assert_array_equal(F.mapped_nodes[outside], base1d.mesh.nodes[outside])
        assert np.any(F.mapped_nodes[~outside] != base1d.mesh.nodes[~outside])
        assert F.det.min() > 0

    def test_unit_factor_is_the_identity(self, base1d):
        F = Diffeo.radial_shrink(base1d.mesh, 0.8, 1.0)
        np.testing.assert_array_equal(F.mapped_nodes, base1d.mesh.nodes)
        moved = np.any(F.mapped_nodes != base1d.mesh.nodes, axis=1)
        assert np.all(~np.any(moved[base1d.mesh.elements], axis=1))
        np.testing.assert_array_equal(F.det, 1.0)

    def test_factor_validation(self, base1d):
        for factor in (0.0, -0.5, 1.2):
            with pytest.raises(DiffeoError):
                Diffeo.radial_shrink(base1d.mesh, 0.8, factor)
        with pytest.raises(DiffeoError):
            Diffeo.radial_shrink(base1d.mesh, -1.0, 0.8)

    def test_nan_radius_rejected(self, base1d):
        # NaN fails no `<=` test, and a NaN ball contains no node
        with pytest.raises(DiffeoError, match="rho"):
            Diffeo.radial_shrink(base1d.mesh, float("nan"), 0.8)

    def test_build_rejects_moves_outside_ball(self, base1d):
        mapped = base1d.mesh.nodes.copy()
        mapped[-1] += 0.01
        with pytest.raises(DiffeoError):
            Diffeo.build(base1d.mesh, mapped, rho=0.8)

    def test_build_rejects_non_finite_nodes(self, base2d):
        # a NaN node inside B_rho gives NaN dets, which pass `det.min() <= 0`
        mapped = base2d.mesh.nodes.copy()
        mapped[np.argmin(np.linalg.norm(mapped, axis=1))] = np.nan
        with pytest.raises(DiffeoError, match="finite"):
            Diffeo.build(base2d.mesh, mapped, rho=0.8)

    def test_nan_det_rejected(self, base2d):
        ne = base2d.mesh.element_count
        det = np.ones(ne)
        det[0] = np.nan
        with pytest.raises(DiffeoError, match="inverts an element"):
            Diffeo(base2d.mesh, base2d.mesh.nodes.copy(), np.tile(np.eye(2), (ne, 1, 1)), det)

    def test_map_mesh_rejects_nan_measures(self, base2d):
        # the Jacobians are fine, the mapped nodes are not
        mesh, ne = base2d.mesh, base2d.mesh.element_count
        mapped = mesh.nodes.copy()
        mapped[np.argmin(np.linalg.norm(mapped, axis=1))] = np.nan
        F = Diffeo(mesh, mapped, np.tile(np.eye(2), (ne, 1, 1)), np.ones(ne))
        with pytest.raises(MeshError, match="degenerate element"):
            map_mesh(mesh, F)

    def test_build_rejects_inverted_elements(self, base1d):
        mapped = base1d.mesh.nodes.copy()
        # push a node past its neighbour; h = 0.05, so 0.1 flips the cell
        inside = np.flatnonzero(np.linalg.norm(base1d.mesh.nodes, axis=1) < 0.5)
        mapped[inside[0]] += 0.1
        with pytest.raises(DiffeoError):
            Diffeo.build(base1d.mesh, mapped, rho=0.8)

    def test_build_rejects_shape_mismatch(self, base1d):
        with pytest.raises(DiffeoError):
            Diffeo.build(base1d.mesh, base1d.mesh.nodes[:-1], rho=0.8)

    def test_map_mesh_rejects_foreign_deformation(self, base1d, fine1d, base2d):
        F = Diffeo.radial_shrink(base1d.mesh, 0.8, 0.8)
        with pytest.raises(DiffeoError):
            map_mesh(fine1d.mesh, F)
        # the same nodes with every cell split along its other diagonal
        mesh = base2d.mesh
        lower, upper = mesh.elements[0::2], mesh.elements[1::2]
        n00, n10, n11, n01 = lower[:, 0], lower[:, 1], lower[:, 2], upper[:, 2]
        flipped = np.stack([np.stack([n00, n10, n01], 1), np.stack([n10, n11, n01], 1)], 1)
        other = Mesh(2, mesh.nodes.copy(), flipped.reshape(-1, 3), mesh.box.copy())
        assert other.element_measures().min() > 0
        with pytest.raises(DiffeoError):
            map_mesh(other, Diffeo.radial_shrink(mesh, 0.5, 0.8))


class TestPushforwardFormulas:
    def test_jacobian_on_shrunk_elements_is_not_identity(self, base1d):
        F = Diffeo.radial_shrink(base1d.mesh, 0.8, 0.8)
        moved_nodes = np.any(F.mapped_nodes != base1d.mesh.nodes, axis=1)
        moved = np.any(moved_nodes[base1d.mesh.elements], axis=1)
        assert np.abs(F.DF[moved] - np.eye(1)).max() > 0.05

    def test_transport_rejects_flipped_jacobian(self, base1d):
        # the transport divides by F.det, so a directly built Diffeo must
        # meet the same det > 0 condition as Diffeo.build
        F = Diffeo.radial_shrink(base1d.mesh, 0.8, 0.8)
        with pytest.raises(DiffeoError, match="inverts"):
            Diffeo(mesh=F.mesh, mapped_nodes=F.mapped_nodes, DF=F.DF, det=-F.det)


class TestOperatorTransport:
    def test_matrices_identical_1d(self, base1d):
        F = Diffeo.radial_shrink(base1d.mesh, 0.8, 0.8)
        op2 = pushforward_operator(base1d.op, F)
        assert np.abs(op2.K - base1d.op.K).max() < 1e-12
        assert np.abs(op2.M - base1d.op.M).max() < 1e-12
        # while the coefficients themselves moved visibly
        assert np.abs(op2.coeffs.A - base1d.op.coeffs.A).max() > 0.1

    def test_matrices_identical_2d(self, base2d):
        F = Diffeo.radial_shrink(base2d.mesh, 0.8, 0.8)
        op2 = pushforward_operator(base2d.op, F)
        assert np.abs(op2.K - base2d.op.K).max() < 1e-12
        assert np.abs(op2.M - base2d.op.M).max() < 1e-12
        assert np.abs(op2.coeffs.A - base2d.op.coeffs.A).max() > 0.1

    @pytest.mark.parametrize("scenario", ["base1d", "base2d"])
    def test_lower_order_terms_transported_exactly(self, scenario, request):
        scn = request.getfixturevalue(scenario)
        b = np.full(scn.mesh.dim, 0.4)
        field = CoefficientField.build(scn.mesh, labels=scn.labels, b=b, c=2.0)
        op = assemble(scn.mesh, field)
        F = Diffeo.radial_shrink(scn.mesh, 0.8, 0.8)
        op2 = pushforward_operator(op, F)
        assert np.abs(op2.K - op.K).max() < 1e-12
        assert np.abs(op2.coeffs.c - op.coeffs.c).max() > 0.1
        assert np.iscomplexobj(op.K) and np.iscomplexobj(op2.K)

    @given(factor=st.floats(0.5, 0.999))
    @settings(max_examples=12, deadline=None)
    def test_transport_exact_for_any_shrink(self, factor):
        scn = _gauge_scenario()
        F = Diffeo.radial_shrink(scn.mesh, 0.8, factor)
        op2 = pushforward_operator(scn.op, F)
        assert np.abs(op2.K - scn.op.K).max() < 1e-11
        assert np.abs(op2.M - scn.op.M).max() < 1e-11


_GAUGE_SCENARIO = None


def _gauge_scenario():
    global _GAUGE_SCENARIO
    if _GAUGE_SCENARIO is None:
        _GAUGE_SCENARIO = build_scenario("baseline-1d.json")
    return _GAUGE_SCENARIO


class TestGaugeInvariance:
    def test_cauchy_data_unchanged_1d(self, base1d):
        F = Diffeo.radial_shrink(base1d.mesh, 0.8, 0.8)
        op2 = pushforward_operator(base1d.op, F)
        gap = gauge_invariance_check(
            base1d.op, op2, 0.5, base1d.labels, hat_probes(base1d)
        )
        assert gap < 1e-10

    def test_cauchy_data_unchanged_2d(self, base2d):
        F = Diffeo.radial_shrink(base2d.mesh, 0.8, 0.8)
        op2 = pushforward_operator(base2d.op, F)
        gap = gauge_invariance_check(
            base2d.op, op2, 0.5, base2d.labels, hat_probes(base2d)[:5]
        )
        assert gap < 1e-10

    def test_rejects_deformed_window(self, base1d):
        # a legal diffeo (inside B_2) that moves a W node must be refused;
        # note transporting through pushforward_operator already fails at
        # assembly (A != I off OMEGA), so build the comparison bare
        w_node = int(base1d.labels.w_nodes[0])
        mapped = base1d.mesh.nodes.copy()
        mapped[w_node] += 0.01
        F = Diffeo.build(base1d.mesh, mapped, rho=2.5)
        moved = assemble(map_mesh(base1d.mesh, F), CoefficientField.build(base1d.mesh))
        with pytest.raises(DiffeoError):
            gauge_invariance_check(
                base1d.op, moved, 0.5, base1d.labels, hat_probes(base1d)[:1]
            )

    def test_rejects_different_connectivity(self, base1d, fine1d):
        with pytest.raises(DiffeoError):
            gauge_invariance_check(
                base1d.op, fine1d.op, 0.5, base1d.labels, hat_probes(base1d)[:1]
            )

