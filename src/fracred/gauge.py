"""Change-of-variables transport of operators and the gauge invariance check.

A diffeomorphism is specified by its values at mesh nodes and extended
piecewise-linearly, so its Jacobian DF is constant on each element and the
weak-form change of variables is an exact finite-dimensional identity: the
stiffness and mass assembled from the transported data

    A'   = DF^T A DF / det DF      (conductivity)
    w'   = w / det DF              (mass weight)
    b'   = DF^T b / det DF         (magnetic-type term)
    c'   = c / det DF              (potential)

on the mapped mesh coincide entrywise with the original matrices under
nodal identification.  DF is stored in gradient layout, DF[i, j] =
d F_j / d x_i, which is what makes the formulas above literal matrix
products per element.

Exterior Cauchy data is therefore invariant under interior deformations
that fix the windows, which gauge_invariance_check verifies on a block of
probes with one solve per operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirichlet import ExteriorData, cauchy_gap, cauchy_pair, solve_exterior_value
from .mesh import Mesh, MeshError, RegionLabels
from .operators import CoefficientField, DiscreteOperator, assemble


class DiffeoError(ValueError):
    """Invalid deformation: inverted elements or moved exterior."""


@dataclass(frozen=True, eq=False)
class Diffeo:
    """Piecewise-linear deformation of a mesh, identity outside B_rho.

    Attributes
    ----------
    mesh : Mesh
        The source mesh the nodal values refer to.
    mapped_nodes : ndarray, shape (n_nodes, dim)
        Target coordinates per node.
    DF : ndarray, shape (n_elements, dim, dim)
        Per-element Jacobian in gradient layout, DF[i, j] = dF_j/dx_i.
        Exactly the identity on elements whose nodes all stay put.
    det : ndarray, shape (n_elements,)
        det DF per element, positive.
    """

    mesh: Mesh
    mapped_nodes: np.ndarray
    DF: np.ndarray
    det: np.ndarray

    def __post_init__(self):
        self.mapped_nodes.setflags(write=False)
        self.DF.setflags(write=False)
        self.det.setflags(write=False)
        if not self.det.min() > 0:
            raise DiffeoError(f"deformation inverts an element (min det {self.det.min():.3e})")

    @staticmethod
    def build(mesh: Mesh, mapped_nodes, rho: float) -> "Diffeo":
        """Validate nodal target positions (every node at distance >= rho from
        the origin stays put) and derive per-element Jacobians."""
        mapped = np.array(mapped_nodes, dtype=float)
        if mapped.shape != mesh.nodes.shape:
            raise DiffeoError("mapped node array does not match the mesh")
        if not np.all(np.isfinite(mapped)):
            raise DiffeoError("mapped nodes must be finite")
        r = np.linalg.norm(mesh.nodes, axis=1)
        moved = np.any(mapped != mesh.nodes, axis=1)
        if np.any(moved & (r >= rho)):
            raise DiffeoError(f"deformation moves nodes outside B_{rho}")

        el = mesh.elements
        X = mesh.nodes[el]
        Y = mapped[el]
        d = mesh.dim
        # standard Jacobians J[i, j] = dF_i/dx_j from edge-vector ratios
        EX = np.stack([X[:, k + 1] - X[:, 0] for k in range(d)], axis=2)
        EY = np.stack([Y[:, k + 1] - Y[:, 0] for k in range(d)], axis=2)
        J = EY @ np.linalg.inv(EX)
        DF = np.swapaxes(J, 1, 2)
        # elements with every vertex fixed carry the exact identity
        untouched = ~mesh.elements_touching(np.flatnonzero(moved))
        DF[untouched] = np.eye(d)
        det = np.linalg.det(DF)
        det[untouched] = 1.0
        return Diffeo(mesh=mesh, mapped_nodes=mapped, DF=DF, det=det)

    @staticmethod
    def radial_shrink(mesh: Mesh, rho: float, factor: float) -> "Diffeo":
        """Shrink toward the origin inside B_rho, identity outside.

        The radial profile m(r) = r (factor + (1 - factor) (r/rho)^2) is
        quadratic rather than linear: a linear profile is nearly conformal
        in 2D and barely changes the transported conductivity, while this
        one moves it by about 1 - factor at the center.
        """
        if not 0 < factor <= 1:
            raise DiffeoError(f"shrink factor must lie in (0, 1], got {factor}")
        if not rho > 0:
            raise DiffeoError(f"rho must be positive, got {rho}")
        r = np.linalg.norm(mesh.nodes, axis=1)
        mapped = mesh.nodes.copy()
        inside = r < rho
        scale = factor + (1.0 - factor) * (r[inside] / rho) ** 2
        mapped[inside] = mesh.nodes[inside] * scale[:, None]
        return Diffeo.build(mesh, mapped, rho)


def map_mesh(mesh: Mesh, F: Diffeo) -> Mesh:
    """Move nodes to F(node), keep connectivity and bounding box."""
    if F.mesh is not mesh and not (
        np.array_equal(F.mesh.nodes, mesh.nodes) and np.array_equal(F.mesh.elements, mesh.elements)
    ):
        raise DiffeoError("deformation was built for a different mesh")
    mapped = Mesh(
        dim=mesh.dim,
        nodes=F.mapped_nodes.copy(),
        elements=mesh.elements.copy(),
        box=mesh.box.copy(),
    )
    if not mapped.element_measures().min() > 0:
        raise MeshError("mapped mesh has a degenerate element")
    return mapped


def pushforward_operator(op: DiscreteOperator, F: Diffeo) -> DiscreteOperator:
    """Transport a whole operator: mapped mesh, transported coefficients.

    The coefficients follow the formulas of the module docstring, read from
    F.DF and F.det (positive by construction of Diffeo).  The result has the
    same exterior structure (F fixes it) and, by the exactness of the
    piecewise-linear change of variables, identical K and M matrices under
    nodal identification.
    """
    mesh2 = map_mesh(op.mesh, F)
    DF, det = F.DF, F.det
    A2 = np.einsum("eji,ejk,ekl->eil", DF, op.coeffs.A, DF) / det[:, None, None]
    A2 = 0.5 * (A2 + np.swapaxes(A2, 1, 2))
    b2 = np.einsum("eji,ej->ei", DF, op.coeffs.b) / det[:, None]
    c2 = op.coeffs.c / det
    w2 = (1.0 / det) * op.coeffs.w
    return assemble(mesh2, CoefficientField(A=A2, b=b2, c=c2, w=w2, labels=op.labels))


def gauge_invariance_check(
    op_A: DiscreteOperator,
    op_FA: DiscreteOperator,
    a: float,
    labels: RegionLabels,
    probes: list,
) -> float:
    """Max Cauchy-data deviation between an operator and its transport.

    The probes are solved as one block per operator.  Verifies first that
    both operators carry ``labels``, that the deformation fixed every W,
    Wtilde, and E node (coordinates equal exactly) and that connectivity is
    shared.
    """
    labels = op_A.resolve_labels(labels)
    if not np.array_equal(op_A.mesh.elements, op_FA.mesh.elements):
        raise DiffeoError("operators do not share mesh connectivity")
    fixed = np.concatenate([labels.w_nodes, labels.wtilde_nodes, labels.e_nodes])
    if not np.array_equal(op_A.mesh.nodes[fixed], op_FA.mesh.nodes[fixed]):
        raise DiffeoError("deformation moved window or E nodes")
    op_FA.resolve_labels(labels)
    f = ExteriorData.stack(probes)
    cp1 = cauchy_pair(op_A, a, solve_exterior_value(op_A, a, f))
    cp2 = cauchy_pair(op_FA, a, solve_exterior_value(op_FA, a, f))
    return float(cauchy_gap(cp1, cp2).max())
