"""Change-of-variables transport of operators and the gauge invariance check.

A diffeomorphism is specified by its values at mesh nodes and extended
piecewise-linearly, so its Jacobian DF is constant on each element and the
weak-form change of variables is an exact finite-dimensional identity: the
stiffness and mass assembled from the transported data

    A'   = DF^T A DF / det DF      (conductivity)
    w'   = 1 / det DF              (mass weight)
    b'   = DF^T b / det DF         (magnetic-type term)
    c'   = c / det DF              (potential)

on the mapped mesh coincide entrywise with the original matrices under
nodal identification.  DF is stored in gradient layout, DF[i, j] =
d F_j / d x_i, which is what makes the formulas above literal matrix
products per element.

Exterior Cauchy data is therefore invariant under interior deformations
that fix the windows, which gauge_invariance_check verifies on a block of
probes with one solve per operator.  The metric dictionary
g = (det A)^{1/(n-2)} A^{-1} and its inverse are provided for n >= 3
together with the Laplace-Beltrami assembly sqrt(det g) g^{jk}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirichlet import ExteriorData, cauchy_gap, cauchy_pair, solve_exterior_value
from .mesh import Mesh, MeshError, RegionLabels
from .operators import (
    CoefficientField,
    DiscreteOperator,
    assemble,
    observed_ellipticity,
)


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
    rho : float
        All nodes at distance >= rho from the origin are fixed.
    """

    mesh: Mesh
    mapped_nodes: np.ndarray
    DF: np.ndarray
    det: np.ndarray
    rho: float

    def __post_init__(self):
        self.mapped_nodes.setflags(write=False)
        self.DF.setflags(write=False)
        self.det.setflags(write=False)

    @staticmethod
    def build(mesh: Mesh, mapped_nodes, rho: float) -> "Diffeo":
        """Validate nodal target positions and derive per-element Jacobians."""
        mapped = np.array(mapped_nodes, dtype=float)
        if mapped.shape != mesh.nodes.shape:
            raise DiffeoError("mapped node array does not match the mesh")
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
        untouched = ~np.any(moved[el], axis=1)
        DF[untouched] = np.eye(d)
        det = np.linalg.det(DF)
        det[untouched] = 1.0
        if det.min() <= 0:
            raise DiffeoError(
                f"deformation inverts an element (min det {det.min():.3e})"
            )
        return Diffeo(mesh=mesh, mapped_nodes=mapped, DF=DF, det=det, rho=float(rho))

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
        if rho <= 0:
            raise DiffeoError(f"rho must be positive, got {rho}")
        r = np.linalg.norm(mesh.nodes, axis=1)
        mapped = mesh.nodes.copy()
        inside = r < rho
        scale = factor + (1.0 - factor) * (r[inside] / rho) ** 2
        mapped[inside] = mesh.nodes[inside] * scale[:, None]
        return Diffeo.build(mesh, mapped, rho)

    @staticmethod
    def from_displacement(mesh: Mesh, node_ids, displacements, rho: float) -> "Diffeo":
        """Deformation given as displacement rows at selected nodes."""
        mapped = mesh.nodes.copy()
        ids = np.asarray(node_ids, dtype=int)
        mapped[ids] = mapped[ids] + np.asarray(displacements, dtype=float)
        return Diffeo.build(mesh, mapped, rho)

    def identity_elements(self) -> np.ndarray:
        """Boolean mask of elements on which F is exactly the identity."""
        moved = np.any(self.mapped_nodes != self.mesh.nodes, axis=1)
        return ~np.any(moved[self.mesh.elements], axis=1)


def map_mesh(mesh: Mesh, F: Diffeo) -> Mesh:
    """Move nodes to F(node), keep connectivity and bounding box."""
    if F.mesh is not mesh and not np.array_equal(F.mesh.nodes, mesh.nodes):
        raise DiffeoError("deformation was built for a different mesh")
    mapped = Mesh(
        dim=mesh.dim,
        nodes=F.mapped_nodes.copy(),
        elements=mesh.elements.copy(),
        box=mesh.box.copy(),
    )
    if mapped.element_measures().min() <= 0:
        raise MeshError("mapped mesh has a degenerate element")
    return mapped


def _per_element(arr, n_elements: int, dim: int, what: str) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.shape == (dim, dim):
        out = np.broadcast_to(out, (n_elements, dim, dim)).copy()
    if out.shape != (n_elements, dim, dim):
        raise ValueError(f"bad {what} shape {np.shape(arr)}")
    return out


def pushforward_conductivity(A, DF) -> np.ndarray:
    """DF^T A DF / det DF per element (DF in gradient layout)."""
    A = np.asarray(A, dtype=float)
    DF = np.asarray(DF, dtype=float)
    single = A.ndim == 2
    if single:
        A = A[None]
        DF = DF[None]
    det = np.linalg.det(DF)
    if det.min() <= 0:
        raise DiffeoError(f"non-positive Jacobian determinant {det.min():.3e}")
    out = np.einsum("eji,ejk,ekl->eil", DF, A, DF) / det[:, None, None]
    out = 0.5 * (out + np.swapaxes(out, 1, 2))
    return out[0] if single else out


def pushforward_weight(DF) -> np.ndarray:
    """1 / det DF per element."""
    DF = np.asarray(DF, dtype=float)
    single = DF.ndim == 2
    det = np.linalg.det(DF if not single else DF[None])
    if det.min() <= 0:
        raise DiffeoError(f"non-positive Jacobian determinant {det.min():.3e}")
    return float(1.0 / det[0]) if single else 1.0 / det


def pushforward_magnetic(b, DF) -> np.ndarray:
    """DF^T b / det DF per element."""
    b = np.asarray(b, dtype=float)
    DF = np.asarray(DF, dtype=float)
    single = b.ndim == 1
    if single:
        b = b[None]
        DF = DF[None]
    det = np.linalg.det(DF)
    if det.min() <= 0:
        raise DiffeoError(f"non-positive Jacobian determinant {det.min():.3e}")
    out = np.einsum("eji,ej->ei", DF, b) / det[:, None]
    return out[0] if single else out


def pushforward_potential(c, DF) -> np.ndarray:
    """c / det DF per element."""
    c = np.asarray(c, dtype=float)
    DF = np.asarray(DF, dtype=float)
    single = DF.ndim == 2
    det = np.linalg.det(DF if not single else DF[None])
    if det.min() <= 0:
        raise DiffeoError(f"non-positive Jacobian determinant {det.min():.3e}")
    return float(c / det[0]) if single else c / det


def assemble_weighted(
    mesh: Mesh,
    A,
    weight,
    b=None,
    c=None,
    labels: RegionLabels | None = None,
    bound: float | None = None,
) -> DiscreteOperator:
    """Assemble (K', M') with conductivity A and mass density weight."""
    ne, d = mesh.element_count, mesh.dim
    A_full = _per_element(A, ne, d, "conductivity")
    weight = np.broadcast_to(np.asarray(weight, dtype=float), (ne,)).copy()
    b_full = np.zeros((ne, d)) if b is None else np.asarray(b, dtype=float).reshape(ne, d).copy()
    c_full = np.zeros(ne) if c is None else np.broadcast_to(np.asarray(c, dtype=float), (ne,)).copy()
    coeffs = CoefficientField(
        A=A_full,
        b=b_full,
        c=c_full,
        bound=float(bound) if bound is not None else observed_ellipticity(A_full),
        labels=labels,
    )
    return assemble(mesh, coeffs, mass_density=weight)


def pushforward_operator(op: DiscreteOperator, F: Diffeo) -> DiscreteOperator:
    """Transport a whole operator: mapped mesh, transported coefficients.

    The result has the same exterior structure (F fixes it) and, by the
    exactness of the piecewise-linear change of variables, identical K and
    M matrices under nodal identification.
    """
    mesh2 = map_mesh(op.mesh, F)
    A2 = pushforward_conductivity(op.coeffs.A, F.DF)
    w2 = pushforward_weight(F.DF)
    b2 = pushforward_magnetic(op.coeffs.b, F.DF)
    c2 = pushforward_potential(op.coeffs.c, F.DF)
    if op.mass_density is not None:
        w2 = w2 * op.mass_density
    # the transported conductivity carries its own ellipticity constant
    return assemble_weighted(mesh2, A2, w2, b=b2, c=c2, labels=op.labels)


def gauge_invariance_check(
    op_A: DiscreteOperator,
    op_FA: DiscreteOperator,
    a: float,
    labels: RegionLabels,
    probes: list,
) -> float:
    """Max Cauchy-data deviation between an operator and its transport.

    The probes are solved as one block per operator.  Verifies first that
    the deformation fixed every W, Wtilde, and E node (coordinates equal
    exactly) and that connectivity is shared.
    """
    labels = op_A.resolve_labels(labels)
    if not np.array_equal(op_A.mesh.elements, op_FA.mesh.elements):
        raise DiffeoError("operators do not share mesh connectivity")
    fixed = np.concatenate([labels.w_nodes, labels.wtilde_nodes, labels.e_nodes])
    if not np.array_equal(op_A.mesh.nodes[fixed], op_FA.mesh.nodes[fixed]):
        raise DiffeoError("deformation moved window or E nodes")
    f = ExteriorData.stack(probes)
    cp1 = cauchy_pair(op_A, a, solve_exterior_value(op_A, a, f), labels)
    cp2 = cauchy_pair(op_FA, a, solve_exterior_value(op_FA, a, f), labels)
    return float(cauchy_gap(cp1, cp2).max())


def metric_from_conductivity(A, n: int) -> np.ndarray:
    """g = (det A)^{1/(n-2)} A^{-1}, defined for dimension n >= 3.

    At n = 2 the exponent 1/(n-2) blows up: two-dimensional conductivities
    determine the metric only up to a conformal factor, so the conversion
    is refused there.
    """
    _require_dimension(n)
    A = np.asarray(A, dtype=float)
    single = A.ndim == 2
    stack = A[None] if single else A
    _require_spd(stack, "conductivity")
    det = np.linalg.det(stack)
    g = det[:, None, None] ** (1.0 / (n - 2)) * np.linalg.inv(stack)
    g = 0.5 * (g + np.swapaxes(g, 1, 2))
    return g[0] if single else g


def conductivity_from_metric(g, n: int) -> np.ndarray:
    """A = (det g)^{1/2} g^{-1}, inverse of metric_from_conductivity."""
    _require_dimension(n)
    g = np.asarray(g, dtype=float)
    single = g.ndim == 2
    stack = g[None] if single else g
    _require_spd(stack, "metric")
    det = np.linalg.det(stack)
    A = np.sqrt(det)[:, None, None] * np.linalg.inv(stack)
    A = 0.5 * (A + np.swapaxes(A, 1, 2))
    return A[0] if single else A


def laplace_beltrami_assemble(mesh: Mesh, g) -> DiscreteOperator:
    """Assemble the weak Laplace-Beltrami form of the per-element metric g.

    Stiffness density sqrt(det g) g^{jk}, mass density sqrt(det g); the
    result is an ordinary DiscreteOperator in those effective coefficients.
    """
    ne, d = mesh.element_count, mesh.dim
    g_full = _per_element(g, ne, d, "metric")
    _require_spd(g_full, "metric")
    det = np.linalg.det(g_full)
    A_eff = np.sqrt(det)[:, None, None] * np.linalg.inv(g_full)
    A_eff = 0.5 * (A_eff + np.swapaxes(A_eff, 1, 2))
    return assemble_weighted(mesh, A_eff, np.sqrt(det))


def _require_dimension(n: int) -> None:
    if n == 2:
        raise ValueError(
            "the metric-conductivity dictionary degenerates at n = 2 "
            "(conformal invariance); use n >= 3"
        )
    if n < 2:
        raise ValueError(f"dimension must be >= 3, got {n}")


def _require_spd(stack: np.ndarray, what: str) -> None:
    sym_dev = np.abs(stack - np.swapaxes(stack, 1, 2)).max()
    if sym_dev > 1e-12 * max(np.abs(stack).max(), 1.0):
        raise ValueError(f"{what} not symmetric (deviation {sym_dev:.3e})")
    eigs = np.linalg.eigvalsh(stack)
    if eigs.min() <= 0:
        raise ValueError(f"{what} not positive definite (min eig {eigs.min():.3e})")
