"""Change-of-variables transport of operators and the gauge invariance check.

A deformation is its mapped mesh: the image F(node) of every node, with the
source mesh's elements and box, so F is piecewise linear and its Jacobian DF
is constant on each element.  DF and det DF are derived from the two meshes'
element edge matrices, never given separately, and the weak-form change of
variables is an exact finite-dimensional identity: the stiffness and mass
assembled on the mapped mesh from the transported data

    A'   = DF^T A DF / det DF      (conductivity)
    w'   = w / det DF              (mass weight)
    b'   = DF^T b / det DF         (magnetic-type term)
    c'   = c / det DF              (potential)

coincide entrywise with the original matrices under nodal identification.
DF is stored in gradient layout, DF[i, j] = d F_j / d x_i, which is what
makes the formulas above literal matrix products per element.

Exterior Cauchy data is therefore invariant under interior deformations
that fix the windows, which gauge_invariance_check verifies on a block of
probes with one solve per operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirichlet import ExteriorData, cauchy_gap, cauchy_pair, solve_exterior_value
from .mesh import Mesh, RegionLabels
from .operators import CoefficientField, DiscreteOperator, assemble


class DiffeoError(ValueError):
    """Invalid deformation: inverted elements or moved exterior."""


@dataclass(frozen=True, eq=False)
class Diffeo:
    """Piecewise-linear deformation of a mesh, given by its mapped mesh.

    The deformation is the pair of meshes and nothing else: DF and det are
    derived from them at construction, where an element that the mapping
    inverts, flattens or sends to a non-finite place is refused, and so is a
    moved node of the box boundary: ``Mesh.boundary_nodes`` finds the
    Dirichlet set by coordinate, so the mapped mesh would lose it.

    Attributes
    ----------
    mesh : Mesh
        The source mesh.
    mapped : Mesh
        The image mesh: F(node) for every source node, sharing the source's
        elements and box.
    DF : ndarray, shape (n_elements, dim, dim)
        Per-element Jacobian in gradient layout, DF[i, j] = dF_j/dx_i: the
        solution of J_source DF = J_mapped for the element edge matrices
        (``Mesh.element_edges``).  Exactly the identity on elements whose
        nodes all stay put.
    det : ndarray, shape (n_elements,)
        det DF per element, |F(T)| / |T|: finite and positive, exactly 1
        where DF is the identity.
    """

    mesh: Mesh
    mapped: Mesh
    DF: np.ndarray = field(init=False)
    det: np.ndarray = field(init=False)

    def __post_init__(self):
        src, dst = self.mesh, self.mapped
        if not (
            dst.nodes.shape == src.nodes.shape
            and np.array_equal(dst.elements, src.elements)
            and np.array_equal(dst.box, src.box)
        ):
            raise DiffeoError("mapped mesh must share the source's node count, elements and box")
        if not np.isfinite(dst.nodes).all():
            raise DiffeoError("mapped nodes must be finite")
        moved = np.flatnonzero(np.any(dst.nodes != src.nodes, axis=1))
        if np.isin(moved, src.boundary_nodes()).any():
            raise DiffeoError("deformation moves a node of the box boundary")
        touched = src.elements_touching(moved)
        DF = np.tile(np.eye(src.dim), (src.element_count, 1, 1))
        DF[touched] = np.linalg.solve(src.element_edges()[touched], dst.element_edges()[touched])
        det = np.ones(src.element_count)
        det[touched] = np.linalg.det(DF[touched])
        if not det.min() > 0:
            raise DiffeoError(f"deformation inverts an element (min det {det.min():.3e})")
        DF.setflags(write=False)
        det.setflags(write=False)
        object.__setattr__(self, "DF", DF)
        object.__setattr__(self, "det", det)

    @staticmethod
    def radial_shrink(mesh: Mesh, rho: float, factor: float) -> "Diffeo":
        """Shrink toward the origin inside B_rho, identity outside; a ball
        that reaches a node of the box boundary is refused.

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
        return Diffeo(mesh, Mesh(mesh.dim, mapped, mesh.elements, mesh.box))


def pushforward_operator(op: DiscreteOperator, F: Diffeo) -> DiscreteOperator:
    """Transport a whole operator: mapped mesh, transported coefficients.

    The operator is assembled on F.mapped, with the coefficients of the
    module docstring read from F.DF and F.det (positive by construction of
    Diffeo).  The result has the same exterior structure (F fixes it) and,
    by the exactness of the piecewise-linear change of variables, identical
    K and M matrices under nodal identification.  F must be a deformation
    of the operator's mesh: same nodes and connectivity.
    """
    mesh = op.mesh
    if F.mesh is not mesh and not (
        np.array_equal(F.mesh.nodes, mesh.nodes) and np.array_equal(F.mesh.elements, mesh.elements)
    ):
        raise DiffeoError("deformation was built for a different mesh")
    DF, det = F.DF, F.det
    A2 = np.einsum("eji,ejk,ekl->eil", DF, op.coeffs.A, DF) / det[:, None, None]
    # exactly symmetric: IEEE addition commutes, so entries (i, j) and (j, i) agree
    A2 = 0.5 * (A2 + np.swapaxes(A2, 1, 2))
    b2 = np.einsum("eji,ej->ei", DF, op.coeffs.b) / det[:, None]
    c2 = op.coeffs.c / det
    w2 = (1.0 / det) * op.coeffs.w
    return assemble(F.mapped, CoefficientField(A=A2, b=b2, c=c2, w=w2, labels=op.labels))


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
