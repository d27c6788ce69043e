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
    pushforward_operator,
)
from fracred.mesh import Mesh, build_rect_mesh
from fracred.operators import CoefficientField, assemble


class TestDiffeoConstruction:
    def test_radial_shrink_fixes_everything_outside_rho(self, base1d):
        F = Diffeo.radial_shrink(base1d.mesh, 0.8, 0.8)
        r = np.linalg.norm(base1d.mesh.nodes, axis=1)
        outside = r >= 0.8
        np.testing.assert_array_equal(F.mapped.nodes[outside], base1d.mesh.nodes[outside])
        assert np.any(F.mapped.nodes[~outside] != base1d.mesh.nodes[~outside])
        assert F.det.min() > 0

    def test_unit_factor_is_the_identity(self, base1d):
        F = Diffeo.radial_shrink(base1d.mesh, 0.8, 1.0)
        np.testing.assert_array_equal(F.mapped.nodes, base1d.mesh.nodes)
        moved = np.any(F.mapped.nodes != base1d.mesh.nodes, axis=1)
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

    def test_rejects_moved_box_boundary_node(self, base1d):
        # the last node, x = 2.0, carries the Dirichlet condition, which
        # Mesh.boundary_nodes finds by coordinate: moved, the mapped mesh
        # would lose it
        mesh = base1d.mesh
        assert mesh.nodes[-1, 0] == 2.0
        mapped = mesh.nodes.copy()
        mapped[-1] -= 0.01
        with pytest.raises(DiffeoError, match="box boundary"):
            Diffeo(mesh, Mesh(1, mapped, mesh.elements, mesh.box))

    def test_radial_shrink_reaching_box_boundary_rejected(self):
        # a ball past the box corners moves all 48 boundary nodes
        mesh = build_rect_mesh([[-2, 2], [-2, 2]], 12, 12)
        assert mesh.boundary_nodes().size == 48
        with pytest.raises(DiffeoError, match="box boundary"):
            Diffeo.radial_shrink(mesh, 10.0, 0.8)

    def test_build_rejects_non_finite_nodes(self, base2d):
        # a NaN in one coordinate of one node would give NaN dets, which
        # fail no `<=` test
        mesh = base2d.mesh
        mapped = mesh.nodes.copy()
        mapped[np.argmin(np.linalg.norm(mapped, axis=1)), 1] = np.nan
        with pytest.raises(DiffeoError, match="finite"):
            Diffeo(mesh, Mesh(2, mapped, mesh.elements, mesh.box))

    def test_nan_det_rejected(self, base2d):
        # a NaN node would make NaN dets, so the node itself is refused
        mesh = base2d.mesh
        mapped = mesh.nodes.copy()
        mapped[np.argmin(np.linalg.norm(mapped, axis=1))] = np.nan
        with pytest.raises(DiffeoError, match="finite"):
            Diffeo(mesh, Mesh(2, mapped, mesh.elements, mesh.box))

    def test_map_mesh_rejects_nan_measures(self, base2d):
        # a mapped mesh whose element measures are not finite is no deformation
        mesh = base2d.mesh
        mapped = mesh.nodes.copy()
        mapped[np.argmin(np.linalg.norm(mapped, axis=1))] = np.inf
        image = Mesh(2, mapped, mesh.elements, mesh.box)
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(image.element_measures()).all()
        with pytest.raises(DiffeoError, match="finite"):
            Diffeo(mesh, image)

    def test_build_rejects_inverted_elements(self, base1d):
        mesh = base1d.mesh
        mapped = mesh.nodes.copy()
        # push a node past its neighbour; h = 0.05, so 0.1 flips the cell
        inside = np.flatnonzero(np.linalg.norm(mesh.nodes, axis=1) < 0.5)
        mapped[inside[0]] += 0.1
        with pytest.raises(DiffeoError, match="inverts"):
            Diffeo(mesh, Mesh(1, mapped, mesh.elements, mesh.box))

    def test_build_rejects_shape_mismatch(self, base1d):
        mesh = base1d.mesh
        mapped = Mesh(1, mesh.nodes[:-1].copy(), mesh.elements, mesh.box)
        with pytest.raises(DiffeoError, match="node count"):
            Diffeo(mesh, mapped)

    def test_map_mesh_rejects_foreign_deformation(self, base1d, fine1d, base2d):
        # pushforward_operator refuses a deformation of another mesh
        F = Diffeo.radial_shrink(base1d.mesh, 0.8, 0.8)
        with pytest.raises(DiffeoError, match="different mesh"):
            pushforward_operator(fine1d.op, F)
        # the same nodes with every cell split along its other diagonal
        other = _other_diagonal(base2d.mesh)
        assert other.element_measures().min() > 0
        op = assemble(other, CoefficientField.build(other))
        with pytest.raises(DiffeoError, match="different mesh"):
            pushforward_operator(op, Diffeo.radial_shrink(base2d.mesh, 0.5, 0.8))

    def test_fixed_elements_carry_the_exact_identity(self):
        # on a jittered mesh solve(J, J) misses I by roundoff, so DF = I and
        # det = 1 where no vertex moved must hold by construction
        grid = build_rect_mesh([[-1.0, 1.0], [-1.0, 1.0]], 6, 6)
        nodes = grid.nodes.copy()
        inner = np.flatnonzero(np.abs(nodes).max(axis=1) < 1.0)
        nodes[inner] += np.random.default_rng(3).uniform(-0.03, 0.03, (inner.size, 2))
        mesh = Mesh(2, nodes, grid.elements, grid.box)
        J = mesh.element_edges()
        assert np.any(np.linalg.solve(J, J) != np.eye(2))
        mapped = nodes.copy()
        mapped[inner[0]] += 0.01
        F = Diffeo(mesh, Mesh(2, mapped, mesh.elements, mesh.box))
        fixed = ~mesh.elements_touching(inner[:1])
        np.testing.assert_array_equal(F.DF[fixed], np.broadcast_to(np.eye(2), F.DF[fixed].shape))
        np.testing.assert_array_equal(F.det[fixed], 1.0)

    def test_mapped_mesh_must_share_connectivity_and_box(self, base2d):
        mesh = base2d.mesh
        other = _other_diagonal(mesh)
        with pytest.raises(DiffeoError, match="elements and box"):
            Diffeo(mesh, other)
        with pytest.raises(DiffeoError, match="elements and box"):
            Diffeo(mesh, Mesh(2, mesh.nodes.copy(), mesh.elements, 2.0 * mesh.box))


def _other_diagonal(mesh: Mesh) -> Mesh:
    """The rectangle mesh's nodes with every cell split along its other diagonal."""
    lower, upper = mesh.elements[0::2], mesh.elements[1::2]
    n00, n10, n11, n01 = lower[:, 0], lower[:, 1], lower[:, 2], upper[:, 2]
    flipped = np.stack([np.stack([n00, n10, n01], 1), np.stack([n10, n11, n01], 1)], 1)
    return Mesh(2, mesh.nodes.copy(), flipped.reshape(-1, 3), mesh.box.copy())


class TestPushforwardFormulas:
    def test_jacobian_on_shrunk_elements_is_not_identity(self, base1d):
        F = Diffeo.radial_shrink(base1d.mesh, 0.8, 0.8)
        moved_nodes = np.any(F.mapped.nodes != base1d.mesh.nodes, axis=1)
        moved = np.any(moved_nodes[base1d.mesh.elements], axis=1)
        assert np.abs(F.DF[moved] - np.eye(1)).max() > 0.05

    def test_transport_rejects_flipped_jacobian(self, base2d):
        # the transport divides by F.det, which Diffeo requires positive:
        # here a mirror image of the disc r < 0.5, det = -1 on the elements
        # inside
        mesh = base2d.mesh
        mapped = mesh.nodes.copy()
        mapped[np.linalg.norm(mapped, axis=1) < 0.5, 0] *= -1.0
        with pytest.raises(DiffeoError, match="inverts"):
            Diffeo(mesh, Mesh(2, mapped, mesh.elements, mesh.box))


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

    @given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(1e-6, 0.1))
    @settings(max_examples=10, deadline=None)
    def test_random_interior_moves_transport_exactly(self, base2d, seed, amplitude):
        # about half the OMEGA-interior nodes, each moved by up to
        # amplitude * h per coordinate; no amplitude up to 0.1 can turn a
        # triangle of legs h over
        mesh = base2d.mesh
        rng = np.random.default_rng(seed)
        interior = base2d.labels.omega_interior_nodes
        pick = interior[rng.random(interior.size) < 0.5]
        h = np.sqrt(2.0 * mesh.element_measures().min())
        mapped = mesh.nodes.copy()
        mapped[pick] += amplitude * h * rng.uniform(-1.0, 1.0, (pick.size, 2))
        F = Diffeo(mesh, Mesh(2, mapped, mesh.elements, mesh.box))

        moved = mesh.elements_touching(pick)
        J, J_mapped = mesh.element_edges()[moved], F.mapped.element_edges()[moved]
        assert np.abs(J @ F.DF[moved] - J_mapped).max() <= 1e-14 * np.abs(J_mapped).max()
        np.testing.assert_allclose(
            F.det * mesh.element_measures(), F.mapped.element_measures(), rtol=1e-14, atol=0
        )
        np.testing.assert_array_equal(F.DF[~moved], np.broadcast_to(np.eye(2), F.DF[~moved].shape))
        np.testing.assert_array_equal(F.det[~moved], 1.0)

        op2 = pushforward_operator(base2d.op, F)
        assert np.abs(op2.K - base2d.op.K).max() < 1e-11
        assert np.abs(op2.M - base2d.op.M).max() < 1e-11


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
        # a legal diffeo (the box boundary fixed) that moves a W node must
        # be refused; note transporting through pushforward_operator already
        # fails on its coefficients (A != I off OMEGA), so build the
        # comparison bare
        mesh = base1d.mesh
        w_node = int(base1d.labels.w_nodes[0])
        mapped = mesh.nodes.copy()
        mapped[w_node] += 0.01
        F = Diffeo(mesh, Mesh(1, mapped, mesh.elements, mesh.box))
        moved = assemble(F.mapped, CoefficientField.build(base1d.mesh))
        with pytest.raises(DiffeoError):
            gauge_invariance_check(
                base1d.op, moved, 0.5, base1d.labels, hat_probes(base1d)[:1]
            )

    def test_rejects_different_connectivity(self, base1d, fine1d):
        with pytest.raises(DiffeoError):
            gauge_invariance_check(
                base1d.op, fine1d.op, 0.5, base1d.labels, hat_probes(base1d)[:1]
            )

