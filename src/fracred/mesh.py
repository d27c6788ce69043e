"""Simplicial interval and rectangle meshes with labeled scenario regions.

The computational domain is a bounded axis-aligned box standing in for the
whole space; nodes on the outer box boundary carry a homogeneous Dirichlet
condition imposed at assembly time.  Scenario geometry consists of an
inhomogeneity region OMEGA strictly inside the box, two exterior data windows
W and WTILDE, and a far set E.  Regions are axis-aligned boxes and an element
belongs to a region iff its barycenter does; discrete closure disjointness
between OMEGA and each window means the element sets share no node, so at
least one buffer element, in no region, separates them.

W and WTILDE may coincide or overlap (same-window Cauchy data is a legitimate
scenario); OMEGA must stay buffered from both.  Each region is held once, as
an index set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

OMEGA = "OMEGA"
W = "W"
WTILDE = "WTILDE"
E = "E"


class MeshError(ValueError):
    """Degenerate or inconsistent mesh construction input."""


class RegionError(ValueError):
    """Region boxes violate emptiness or closure-disjointness requirements."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming simplicial mesh of an axis-aligned box.

    Attributes
    ----------
    dim : int
        Ambient dimension, 1 or 2.
    nodes : ndarray, shape (n_nodes, dim)
        Node coordinates.
    elements : ndarray, shape (n_elements, dim + 1)
        Node indices per element (2 per interval, 3 per triangle),
        positively oriented.
    box : ndarray, shape (dim, 2)
        The bounding box, rows are (min, max) per coordinate.
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    box: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.elements.setflags(write=False)
        self.box.setflags(write=False)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def element_count(self) -> int:
        return self.elements.shape[0]

    def element_measures(self) -> np.ndarray:
        """Length (1D) or area (2D) of every element."""
        pts = self.nodes[self.elements]
        if self.dim == 1:
            return pts[:, 1, 0] - pts[:, 0, 0]
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def element_barycenters(self) -> np.ndarray:
        return self.nodes[self.elements].mean(axis=1)

    def elements_touching(self, nodes) -> np.ndarray:
        """Mask of the elements that have at least one node in ``nodes``."""
        return np.isin(self.elements, nodes).any(axis=1)

    def boundary_nodes(self) -> np.ndarray:
        """Indices of nodes on the outer box boundary (Dirichlet set)."""
        on = np.zeros(self.node_count, dtype=bool)
        for d in range(self.dim):
            on |= self.nodes[:, d] == self.box[d, 0]
            on |= self.nodes[:, d] == self.box[d, 1]
        return np.flatnonzero(on)


def build_interval_mesh(xmin: float, xmax: float, n_cells: int) -> Mesh:
    """Uniform mesh of the interval (xmin, xmax) with n_cells elements.

    Parameters
    ----------
    xmin, xmax : float
        Interval endpoints, xmin < xmax.
    n_cells : int
        Number of elements, at least 2 so an interior node exists.

    Returns
    -------
    Mesh
        Nodes at xmin + i*h with h = (xmax - xmin)/n_cells.
    """
    if n_cells < 2:
        raise MeshError(f"need at least 2 cells, got {n_cells}")
    if not xmin < xmax:
        raise MeshError(f"degenerate interval [{xmin}, {xmax}]")
    nodes = np.linspace(xmin, xmax, n_cells + 1).reshape(-1, 1)
    idx = np.arange(n_cells)
    elements = np.column_stack([idx, idx + 1])
    box = np.array([[float(xmin), float(xmax)]])
    return Mesh(1, nodes, elements.astype(np.intp), box)


def build_rect_mesh(box, nx: int, ny: int) -> Mesh:
    """Structured triangulation of a rectangle.

    Each of the nx*ny grid cells is split along the same diagonal
    (lower-left to upper-right), giving 2*nx*ny positively oriented
    triangles on (nx+1)*(ny+1) nodes.

    Parameters
    ----------
    box : array_like, shape (2, 2)
        ((xmin, xmax), (ymin, ymax)).
    nx, ny : int
        Cells per direction, at least 2 each.
    """
    box = np.asarray(box, dtype=float)
    if box.shape != (2, 2):
        raise MeshError(f"2D box must have shape (2, 2), got {box.shape}")
    if nx < 2 or ny < 2:
        raise MeshError(f"need at least 2 cells per direction, got {(nx, ny)}")
    if not (box[0, 0] < box[0, 1] and box[1, 0] < box[1, 1]):
        raise MeshError("degenerate box")
    xs = np.linspace(box[0, 0], box[0, 1], nx + 1)
    ys = np.linspace(box[1, 0], box[1, 1], ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    # lower-left node of every cell, cells in (i, j) order; each cell is split
    # along its n00-n11 diagonal into two CCW triangles
    n00 = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    n10, n01, n11 = n00 + ny + 1, n00 + 1, n00 + ny + 2
    tris = np.stack([n00, n10, n11, n00, n11, n01], axis=1)
    elements = tris.reshape(-1, 3).astype(np.intp)
    return Mesh(2, nodes, elements, box)


def _as_box(box, dim: int) -> np.ndarray:
    b = np.asarray(box, dtype=float).reshape(dim, 2)
    if np.any(b[:, 0] >= b[:, 1]):
        raise RegionError(f"empty or inverted box {b.tolist()}")
    return b


def _inside(points: np.ndarray, box: np.ndarray) -> np.ndarray:
    ok = np.ones(points.shape[0], dtype=bool)
    for d in range(box.shape[0]):
        ok &= (points[:, d] > box[d, 0]) & (points[:, d] < box[d, 1])
    return ok


@dataclass(frozen=True, eq=False)
class RegionLabels:
    """Element and node membership for the scenario regions, as index sets.

    The sets may overlap only between W and WTILDE.  boundary_omega_nodes
    collects nodes shared by an OMEGA element and a non-OMEGA element;
    omega_interior_nodes is the OMEGA node set with those removed.
    """

    omega_elements: np.ndarray
    omega_nodes: np.ndarray
    w_nodes: np.ndarray
    wtilde_nodes: np.ndarray
    e_nodes: np.ndarray
    boundary_omega_nodes: np.ndarray
    omega_interior_nodes: np.ndarray

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            getattr(self, name).setflags(write=False)

    def node_set(self, tag: str) -> np.ndarray:
        return {
            OMEGA: self.omega_nodes,
            W: self.w_nodes,
            WTILDE: self.wtilde_nodes,
            E: self.e_nodes,
        }[tag]

    def matches(self, other: "RegionLabels") -> bool:
        """True when every index set equals the other labeling's."""
        return self is other or all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__dataclass_fields__
        )


def label_regions(mesh: Mesh, omega_box, w_box, wtilde_box) -> RegionLabels:
    """Index sets of the regions, by barycenter membership in region boxes.

    An element is OMEGA/W/WTILDE iff its barycenter lies in the open box; E
    collects the elements that share no node with any of those (one buffer
    element away from everything); the elements in between belong to no
    region.  OMEGA must be strictly inside the mesh box and its closure must
    be disjoint from both window closures, i.e. the element sets share no
    node.  W and WTILDE may overlap each other.

    Raises
    ------
    RegionError
        If any region comes out empty, OMEGA touches the outer boundary,
        or closure disjointness fails (including OMEGA/window overlap).
    """
    omega_box = _as_box(omega_box, mesh.dim)
    w_box = _as_box(w_box, mesh.dim)
    wtilde_box = _as_box(wtilde_box, mesh.dim)
    if np.any(omega_box[:, 0] <= mesh.box[:, 0]) or np.any(
        omega_box[:, 1] >= mesh.box[:, 1]
    ):
        raise RegionError("omega box must be strictly inside the mesh box")

    bary = mesh.element_barycenters()
    in_omega = _inside(bary, omega_box)
    in_w = _inside(bary, w_box)
    in_wt = _inside(bary, wtilde_box)

    if np.any(in_omega & in_w) or np.any(in_omega & in_wt):
        raise RegionError("omega overlaps a data window")
    for name, mask in ((OMEGA, in_omega), (W, in_w), (WTILDE, in_wt)):
        if not mask.any():
            raise RegionError(f"region {name} is empty")

    omega_elements = np.flatnonzero(in_omega)
    omega_nodes = np.unique(mesh.elements[omega_elements])
    w_nodes = np.unique(mesh.elements[in_w])
    wtilde_nodes = np.unique(mesh.elements[in_wt])

    # discrete closure disjointness: one element in no region must separate
    # omega from each window, so their node sets may not intersect
    if np.intersect1d(omega_nodes, w_nodes).size:
        raise RegionError("omega and W closures touch (no buffer element)")
    if np.intersect1d(omega_nodes, wtilde_nodes).size:
        raise RegionError("omega and WTILDE closures touch (no buffer element)")

    # every region element touches its own nodes, so this also excludes them
    e_mask = ~mesh.elements_touching(
        np.concatenate([omega_nodes, w_nodes, wtilde_nodes])
    )
    if not e_mask.any():
        raise RegionError("far region E is empty; enlarge the mesh box")
    e_nodes = np.unique(mesh.elements[e_mask])

    # boundary nodes of omega: in an OMEGA element and in a non-OMEGA element
    non_omega_nodes = np.unique(mesh.elements[~in_omega])
    boundary_omega = np.intersect1d(omega_nodes, non_omega_nodes)
    omega_interior = np.setdiff1d(omega_nodes, boundary_omega)
    if boundary_omega.size == 0 or omega_interior.size == 0:
        raise RegionError("omega region too thin to have interior and boundary")

    return RegionLabels(
        omega_elements=omega_elements,
        omega_nodes=omega_nodes,
        w_nodes=w_nodes,
        wtilde_nodes=wtilde_nodes,
        e_nodes=e_nodes,
        boundary_omega_nodes=boundary_omega,
        omega_interior_nodes=omega_interior,
    )


# ---------------------------------------------------------------------------
# JSON serialization, 17 significant digits so floats round-trip exactly


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {x} in serialization")
    return format(float(x), ".17g")


def dump_json(obj) -> str:
    """Serialize nested dict/list/scalar data with full-precision floats."""
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {dump_json(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dump_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dump_json(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")
