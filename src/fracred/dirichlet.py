"""Nonlocal exterior-value problem for L^a and its exterior Cauchy data.

The discrete problem: given exterior data f supported on the window W,
find u with u = f outside the interior of Omega and B(u, w) = 0 for every
w supported on Omega-interior dofs, where B(u, w) = <L^a u, w>_M.  With
G the matrix of B this is the Schur solve G_II u_I = -G_IW f_W, since f
vanishes off W; per exponent G[I, W], G_II and its factor are cached, both
blocks formed from the eigenbasis rows M[R] Phi, never from the rows G[I, :].

The measured data are the CauchyData (u|_W, (L^a u)|_Wtilde).  Nodal flux
values are reported in the strong sense, i.e. entries of L^a u = M^{-1} G u.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .calculus import fractional_stiffness, mass_eigenrows, power_matrix, spectral_power
from .operators import DiscreteOperator, check, worst_relative

logger = logging.getLogger(__name__)


class ExteriorDataError(ValueError):
    """Exterior datum malformed, non-finite, or supported off the W window."""


@dataclass(frozen=True)
class ExteriorData:
    """Nodal data supported on the W window (dof numbering).

    Attributes
    ----------
    values : ndarray
        A dof-length vector, or a dof x k block holding one datum per
        column; entries off ``w_dofs`` must vanish and all must be finite.
    w_dofs : ndarray
        Strictly increasing dof indices of the W nodes, each a row of ``values``.
    """

    values: np.ndarray
    w_dofs: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        w_dofs = np.asarray(self.w_dofs, dtype=int)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "w_dofs", w_dofs)
        if values.ndim not in (1, 2):
            raise ExteriorDataError("exterior datum must be a dof vector or a dof x k block")
        if w_dofs.ndim != 1 or np.any(np.diff(w_dofs) <= 0):
            raise ExteriorDataError("W dofs must be a strictly increasing index vector")
        if w_dofs.size and not 0 <= w_dofs[0] <= w_dofs[-1] < values.shape[0]:
            raise ExteriorDataError(f"W dofs outside the datum's rows [0, {values.shape[0]})")
        if not np.all(np.isfinite(values)):
            raise ExteriorDataError("exterior datum has non-finite values")
        off_w = np.ones(values.shape[0], dtype=bool)
        off_w[w_dofs] = False
        if np.any(values[off_w] != 0):
            raise ExteriorDataError("exterior datum has support outside W")

    @staticmethod
    def hat(op: DiscreteOperator, node: int) -> "ExteriorData":
        """Unit nodal hat at the given mesh node (must lie in W)."""
        return ExteriorData.from_node_values(op, [node], [1.0])

    @staticmethod
    def from_node_values(op: DiscreteOperator, nodes, values) -> "ExteriorData":
        """Datum with one row of values (a vector or a k-column block) per distinct W mesh node."""
        w_dofs = op.region_dofs("W")
        nodes = np.atleast_1d(np.asarray(nodes, dtype=int))
        values = np.asarray(values)
        if values.shape[:1] != nodes.shape or np.unique(nodes).size != nodes.size:
            raise ExteriorDataError("nodes must be distinct, one per row of values")
        dofs = op.dofs_of_nodes(nodes)
        full = np.zeros((op.n_dofs,) + values.shape[1:], dtype=np.result_type(values, float))
        full[dofs] = values
        return ExteriorData(full, w_dofs)

    @staticmethod
    def w_hats(op: DiscreteOperator) -> "ExteriorData":
        """Block of unit hats, one column per W dof: the identity on W."""
        w_dofs = op.region_dofs("W")
        return ExteriorData.from_node_values(op, op.free_nodes[w_dofs], np.eye(w_dofs.size))

    @staticmethod
    def stack(data) -> "ExteriorData":
        """Block whose columns are the given data, in order, on one W; blocks keep their columns."""
        data = list(data)
        if not data:
            raise ExteriorDataError("no exterior data to stack")
        w_dofs = data[0].w_dofs
        if any(not np.array_equal(f.w_dofs, w_dofs) for f in data):
            raise ExteriorDataError("exterior data live on different W windows")
        return ExteriorData(np.column_stack([f.values for f in data]), w_dofs)


@dataclass(frozen=True)
class NonlocalSolution:
    """Solution (shaped like its datum's values) with the worst column's residual."""

    u: np.ndarray
    a: float
    residual: float


@dataclass(frozen=True)
class CauchyData:
    """Theorem 1's Cauchy data, one column per datum, in either reading:
    exterior (u|_W, (L^a u)|_Wtilde) from ``cauchy_pair``, or boundary (trace
    and co-normal flux of Psi, both on the Omega interface) from
    ``reduction.boundary_cauchy``."""

    trace_nodes: np.ndarray
    trace: np.ndarray
    flux_nodes: np.ndarray
    flux: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.trace)) and np.all(np.isfinite(self.flux))):
            raise ArithmeticError("non-finite Cauchy data")


def _interior_block(op: DiscreteOperator, a: float):
    """The cached (G[I, W], Hermitized G_II, Cholesky factor of G_II) at exponent a.

    With F_R = M[R] Phi, both blocks are (F_I lambda^a) F_R^H, R = W or I:
    |I| (|I| + |W|) n work.  The |I| x n temporaries are dropped before G_II
    is Hermitized and factored; a failing factorization flags a non-PD block.
    """

    def build():
        F_I = mass_eigenrows(op, op.omega_interior_dofs())
        F_I_pow = F_I * spectral_power(op, a)
        G_IW = F_I_pow @ mass_eigenrows(op, op.region_dofs("W")).conj().T
        G_II = F_I_pow @ F_I.conj().T
        del F_I, F_I_pow
        G_II = 0.5 * (G_II + G_II.conj().T)
        try:
            factor = scipy.linalg.cho_factor(G_II)
        except scipy.linalg.LinAlgError as exc:
            raise ArithmeticError(
                f"interior block of L^{a} not positive definite"
            ) from exc
        return G_IW, G_II, factor

    return op.cached(("gii_cholesky", a), build)


def _interior_solve(op: DiscreteOperator, a: float, B):
    """X = G_II^{-1} B and its worst column residual, which raises when it
    breaks its contract."""
    _, G_II, factor = _interior_block(op, a)
    X = scipy.linalg.cho_solve(factor, B)
    worst = worst_relative(np.linalg.norm(G_II @ X - B, axis=0), np.linalg.norm(B, axis=0))
    return X, check("interior solve residual", worst, ArithmeticError, a)


def solve_exterior_value(
    op: DiscreteOperator, a: float, f: ExteriorData
) -> NonlocalSolution:
    """Solve B(u, w) = 0 on Omega-interior dofs with u = f elsewhere.

    The Schur solve G_II u_I = -G_IW f_W runs once for every column of a
    dof x k datum; a vector datum is the one-column case.  The datum must
    have the operator's dof count and W window.
    """
    F = f.values
    if F.shape[0] != op.n_dofs:
        raise ExteriorDataError(
            f"datum has {F.shape[0]} rows, operator has {op.n_dofs} dofs"
        )
    if not np.array_equal(f.w_dofs, op.region_dofs("W")):
        raise ExteriorDataError("datum window is not the operator's W")
    G_IW = _interior_block(op, a)[0]
    X, residual = _interior_solve(op, a, -(G_IW @ F[f.w_dofs]))
    U = np.array(F, dtype=np.result_type(F, X))
    U[op.omega_interior_dofs()] = X
    return NonlocalSolution(u=U, a=a, residual=residual)


def dirichlet_energy(op: DiscreteOperator, a: float, u: np.ndarray) -> float:
    """B(u, u) = <L^a u, u>_M = sum_i lambda_i^a |c_i|^2 over u's spectral coefficients c."""
    return float(np.sum(spectral_power(op, a) * np.abs(op.spectral_coefficients(u)) ** 2))


def stability_constant(op: DiscreteOperator, a: float) -> float:
    """C = 1 + ||G_II^{-1} G_IX||_2, the measured solve amplification, X every dof off I.

    The one reader of G[I, :] past its W columns: it keeps only the X
    columns of the rows it forms.  The sign of -G_IX in the solve does not
    change the norm, so it is left out.
    """
    interior = op.omega_interior_dofs()
    G_IX = fractional_stiffness(op, a, interior)[:, np.setdiff1d(np.arange(op.n_dofs), interior)]
    X, _ = _interior_solve(op, a, G_IX)
    # ||X||_2^2 is the top eigenvalue of the |I| x |I| Gram matrix X X^H
    top = scipy.linalg.eigvalsh(X @ X.conj().T, subset_by_index=[interior.size - 1] * 2)[0]
    c = 1.0 + float(np.sqrt(top))
    logger.info("stability constant at a=%s: %.6g", a, c)
    return c


def cauchy_pair(op: DiscreteOperator, a: float, sol: NonlocalSolution) -> CauchyData:
    """Extract (u|_W, (L^a u)|_Wtilde), flux in the strong nodal sense; the
    flux is formed from the |Wtilde| rows of L^a alone."""
    if sol.a != a:
        raise ValueError(f"solution was computed at a={sol.a}, not {a}")
    w_dofs = op.region_dofs("W")
    wt_dofs = op.region_dofs("WTILDE")
    return CauchyData(
        trace_nodes=op.free_nodes[w_dofs],
        trace=sol.u[w_dofs],
        flux_nodes=op.free_nodes[wt_dofs],
        flux=power_matrix(op, a, wt_dofs) @ sol.u,
    )


def cauchy_gap(one: CauchyData, other: CauchyData):
    """Max-norm distance between two Cauchy data on matching nodes, per datum column."""
    if not (
        np.array_equal(one.trace_nodes, other.trace_nodes)
        and np.array_equal(one.flux_nodes, other.flux_nodes)
    ):
        raise ValueError("Cauchy data live on different nodes")
    return np.maximum(
        np.abs(one.trace - other.trace).max(axis=0),
        np.abs(one.flux - other.flux).max(axis=0),
    )
