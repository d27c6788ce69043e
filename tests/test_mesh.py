"""Mesh construction, region labeling, and JSON output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracred.mesh import (
    Mesh,
    MeshError,
    RegionError,
    build_interval_mesh,
    build_rect_mesh,
    dump_json,
    label_regions,
)
from fracred.operators import CoefficientField, assemble


class TestIntervalMesh:
    def test_node_layout(self):
        mesh = build_interval_mesh(0.0, 1.0, 4)
        assert mesh.node_count == 5
        assert mesh.element_count == 4
        np.testing.assert_allclose(mesh.nodes.ravel(), [0, 0.25, 0.5, 0.75, 1.0])

    def test_boundary_nodes_are_endpoints(self):
        mesh = build_interval_mesh(-2.0, 2.0, 10)
        assert mesh.boundary_nodes().tolist() == [0, 10]

    def test_rejects_degenerate(self):
        with pytest.raises(MeshError):
            build_interval_mesh(1.0, 1.0, 4)
        with pytest.raises(MeshError):
            build_interval_mesh(0.0, 1.0, 1)

    @given(n=st.integers(2, 200))
    def test_measures_sum_to_length(self, n):
        mesh = build_interval_mesh(-3.0, 5.0, n)
        assert mesh.element_measures().min() > 0
        assert np.isclose(mesh.element_measures().sum(), 8.0)


class TestRectMesh:
    def test_counts(self):
        mesh = build_rect_mesh([[0, 1], [0, 2]], 3, 4)
        assert mesh.node_count == 4 * 5
        assert mesh.element_count == 2 * 3 * 4

    def test_positively_oriented(self):
        mesh = build_rect_mesh([[-2, 2], [-2, 2]], 5, 7)
        assert np.all(mesh.element_measures() > 0)

    @given(nx=st.integers(2, 12), ny=st.integers(2, 12))
    @settings(max_examples=25)
    def test_measures_tile_the_box(self, nx, ny):
        mesh = build_rect_mesh([[0, 2], [1, 4]], nx, ny)
        assert np.isclose(mesh.element_measures().sum(), 2.0 * 3.0)

    def test_boundary_count(self):
        mesh = build_rect_mesh([[0, 1], [0, 1]], 4, 4)
        # perimeter of a 5x5 node grid
        assert mesh.boundary_nodes().size == 16


class TestLabelRegions:
    def test_baseline_partition(self):
        mesh = build_interval_mesh(-2.0, 2.0, 80)
        labels = label_regions(mesh, (-1, 1), (1.05, 1.8), (-1.95, -1.05))
        # omega stays buffered from both windows
        assert not np.intersect1d(labels.omega_nodes, labels.w_nodes).size
        assert not np.intersect1d(labels.omega_nodes, labels.wtilde_nodes).size
        assert labels.e_nodes.size > 0

    def test_windows_may_coincide(self):
        mesh = build_interval_mesh(-2.0, 2.0, 80)
        labels = label_regions(mesh, (-1, 1), (1.15, 1.8), (1.15, 1.8))
        np.testing.assert_array_equal(labels.w_nodes, labels.wtilde_nodes)

    def test_omega_window_contact_rejected(self):
        mesh = build_interval_mesh(-2.0, 2.0, 80)
        with pytest.raises(RegionError):
            label_regions(mesh, (-1, 1), (1.0, 1.8), (-1.95, -1.05))

    def test_omega_touching_outer_box_rejected(self):
        mesh = build_interval_mesh(-2.0, 2.0, 80)
        with pytest.raises(RegionError):
            label_regions(mesh, (-2.0, 1), (1.05, 1.8), (-1.95, -1.05))

    @pytest.mark.parametrize(
        "mesh, boxes",
        [
            (
                build_rect_mesh([[-2, 2], [-2, 2]], 8, 8),
                [(-1, 1), [[1.4, 1.75], [-0.6, 0.6]], [[-1.75, -1.4], [-0.6, 0.6]]],
            ),
            (build_interval_mesh(-2.0, 2.0, 80), [[[-1, 1], [-1, 1]], (1.05, 1.8), (-1.95, -1.05)]),
        ],
        ids=["1d-box-on-rect", "2d-box-on-interval"],
    )
    def test_box_of_another_dimension_rejected(self, mesh, boxes):
        with pytest.raises(RegionError, match=f"does not fit a {mesh.dim}-D mesh"):
            label_regions(mesh, *boxes)

    def test_window_leaving_mesh_box_rejected(self):
        mesh = build_rect_mesh([[-2, 2], [-2, 2]], 8, 8)
        boxes = [[[-1, 1], [-1, 1]], [[1.4, 2.5], [-0.6, 0.6]], [[-1.75, -1.4], [-0.6, 0.6]]]
        with pytest.raises(RegionError, match="leaves the mesh box"):
            label_regions(mesh, *boxes)

    @pytest.mark.parametrize(
        "mesh, boxes",
        [
            # the barycenter -1.975 of [-2.0, -1.95] lies in the OMEGA box
            (build_interval_mesh(-2.0, 2.0, 80), [(-1.99, 1), (1.05, 1.8), (1.15, 1.8)]),
            # the bottom row of triangles has barycenters at y = -1.933 and -1.867
            (
                build_rect_mesh([[-2, 2], [-2, 2]], 20, 20),
                [[[-1, 1], [-1.95, 1]], [[1.4, 1.75], [-0.6, 0.6]], [[-1.75, -1.4], [-0.6, 0.6]]],
            ),
        ],
        ids=["1d", "2d"],
    )
    def test_omega_element_on_outer_boundary_rejected(self, mesh, boxes):
        # each OMEGA box lies inside the mesh box, but an element whose
        # barycenter it holds has a node on the box boundary
        with pytest.raises(RegionError, match="OMEGA element has a node on the box boundary"):
            label_regions(mesh, *boxes)

    def test_empty_region_rejected(self):
        mesh = build_interval_mesh(-2.0, 2.0, 80)
        # barycenters sit at 0.025 + 0.05 k, none inside (1.81, 1.82)
        with pytest.raises(RegionError):
            label_regions(mesh, (-1, 1), (1.81, 1.82), (-1.95, -1.05))

    def test_empty_far_region_rejected(self):
        mesh = build_interval_mesh(-2.0, 2.0, 80)
        # every untagged element shares a node with omega or a window
        with pytest.raises(RegionError, match="far region E is empty"):
            label_regions(mesh, (-1, 1), (1.05, 1.95), (-1.95, -1.05))

    CORNER = [[-2.9, -2.5], [2.5, 2.9]]  # holds only the top-left corner triangle of a 6 x 6 grid

    @pytest.mark.parametrize(
        "region, boxes",
        [
            ("W", [[[-1, 1], [-1, 1]], CORNER, [[-2.9, -1.9], [-1, 1]]]),
            ("WTILDE", [[[-1, 1], [-1, 1]], [[1.9, 2.9], [-1, 1]], CORNER]),
            # every element but that corner triangle touches a region node
            ("E", [[[-2.1, 1.0], [-2.2, 2.2]], [[2.2, 3.0], [-1.7, 1.4]], [[2.2, 3.0], [2.6, 3.0]]]),
        ],
    )
    def test_region_on_the_box_boundary_rejected(self, region, boxes):
        # all three nodes of a corner triangle lie on the box boundary, so a
        # region made of it alone has no dof
        mesh = build_rect_mesh([[-3, 3], [-3, 3]], 6, 6)
        with pytest.raises(RegionError, match=f"region {region} has no node off the box boundary"):
            label_regions(mesh, *boxes)

    def test_omega_boundary_split(self):
        mesh = build_rect_mesh([[-2, 2], [-2, 2]], 20, 20)
        labels = label_regions(
            mesh, [[-1, 1], [-1, 1]], [[1.4, 1.75], [-0.6, 0.6]],
            [[-1.75, -1.4], [-0.6, 0.6]]
        )
        both = np.concatenate(
            [labels.boundary_omega_nodes, labels.omega_interior_nodes]
        )
        np.testing.assert_array_equal(np.sort(both), labels.omega_nodes)
        assert labels.boundary_omega_nodes.size > 0

    def test_matches(self):
        mesh = build_interval_mesh(-2.0, 2.0, 80)
        a = label_regions(mesh, (-1, 1), (1.05, 1.8), (-1.95, -1.05))
        b = label_regions(mesh, (-1, 1), (1.05, 1.8), (-1.95, -1.05))
        c = label_regions(mesh, (-1, 1), (1.05, 1.8), (-1.8, -1.05))
        assert a.matches(b)
        assert not a.matches(c)
        # two WTILDE windows inside W: only the WTILDE sets differ
        d = label_regions(mesh, (-1, 1), (1.05, 1.8), (1.1, 1.4))
        e = label_regions(mesh, (-1, 1), (1.05, 1.8), (1.4, 1.75))
        assert not d.matches(e)
        op = assemble(mesh, CoefficientField.build(mesh, labels=d))
        with pytest.raises(ValueError, match="labels do not belong"):
            op.region_dofs("WTILDE", e)


class TestSerialization:
    def test_dump_json_full_precision(self):
        x = 1.0 / 3.0
        assert dump_json({"x": x}) == '{"x": 0.3333333333333333}'

    def test_dump_json_deterministic(self):
        doc = {"a": [1, 2.5, True, None], "b": {"c": np.float64(0.1)}}
        assert dump_json(doc) == dump_json(doc)

    def test_dump_json_rejects_nan(self):
        with pytest.raises(ValueError):
            dump_json(float("nan"))

    @given(
        st.floats(
            allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
        )
    )
    def test_floats_roundtrip_exactly(self, x):
        import json

        assert json.loads(dump_json([x]))[0] == x
