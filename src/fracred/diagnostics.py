"""Quantitative probes of injectivity, density, and heat-kernel structure.

These diagnostics turn qualitative continuum statements into measured
finite-dimensional quantities:

* ucp_quotient: singular values of v -> (v|_Sigma, (L^a v)|_Sigma) over
  the unit M-sphere; a positive smallest value is the discrete shadow of
  unique continuation (vanishing data forces the zero vector).  Since
  Phi^H M Phi = I, v = Phi c maps the unit sphere onto the M-sphere, and
  v|_Sigma = Phi_Sigma c, (L^a v)|_Sigma = Phi_Sigma Lambda^a c: the map is
  read from the |Sigma| eigenbasis rows alone.
* runge_rank: singular values of the exterior-control map f on W ->
  (L^a u_f)|_E; full row rank mirrors the Runge density claim.
* heat_bound_check: ratio of the discrete heat kernel to the free
  Gaussian in the window where the comparison is meaningful.
* heatflow_rigidity_probe: the time-moment of a difference of heat flows
  against t^{-1-a}, cross-checked against the spectral flux gap; it
  compares the rows at Sigma that heatflow_rows takes of each operator.

Values are reported, not asserted, except where a contract is stated.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .calculus import (
    TimeQuadrature,
    apply_power,
    gamma_neg,
    heat_kernel_entry,
    min_element_diameter,
    power_via_heat_quadrature,
    spectral_power,
)
from .dirichlet import ExteriorData, solve_exterior_value
from .mesh import Mesh, RegionLabels
from .operators import CONTRACTS, CoefficientField, DiscreteOperator, check, check_shared_exterior

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SingularValueReport:
    """Descending singular values of a described linear map."""

    singular_values: np.ndarray
    shape: tuple
    tag: str

    def __post_init__(self):
        sv = np.asarray(self.singular_values, dtype=float)
        if sv.size and (np.any(sv < 0) or np.any(np.diff(sv) > 0)):
            raise ValueError("singular values must be non-negative, descending")
        object.__setattr__(self, "singular_values", sv)

    @property
    def smallest(self) -> float:
        return float(self.singular_values[-1])

    @property
    def largest(self) -> float:
        return float(self.singular_values[0])

    @property
    def row_condition(self) -> float:
        """sigma_1 / sigma_rows; infinite when fewer values than rows or a zero."""
        rows, sv = self.shape[0], self.singular_values
        return float(sv[0] / sv[rows - 1]) if sv.size >= rows and sv[rows - 1] > 0 else math.inf

    @property
    def full_row_rank(self) -> bool:
        return self.row_condition <= CONTRACTS["Runge row condition"]

    def dominates(self, other: "SingularValueReport") -> bool:
        """Every shared-index singular value at least matches ``other``'s.

        This is the monotonicity a row extension actually provides: adding
        data rows raises each sigma_k at fixed k.  Comparing the maps'
        respective smallest values instead would mix different indices and
        can go either way.
        """
        k = min(self.singular_values.size, other.singular_values.size)
        slack = 1e-13 * max(self.largest, other.largest)
        return bool(np.all(self.singular_values[:k] >= other.singular_values[:k] - slack))


def ucp_quotient(
    op: DiscreteOperator, a: float, sigma_nodes
) -> SingularValueReport:
    """Singular values of v -> (v|_Sigma, (L^a v)|_Sigma), v on the M-sphere.

    A strictly positive smallest singular value certifies that no nonzero
    vector has vanishing value and flux data on Sigma.  The eigenvectors
    are M-orthonormal (Phi^H M Phi = I), so v = Phi c maps the unit sphere
    onto the M-sphere; there v|_Sigma = Phi_Sigma c and (L^a v)|_Sigma =
    Phi_Sigma Lambda^a c, so the map is c -> [Phi_Sigma; Phi_Sigma Lambda^a] c.
    Sigma nodes must be distinct, or a repeated row fakes a tiny smallest
    value.  Sigma should live outside OMEGA; overlap is tolerated (the
    quotient is still well defined, e.g. for the full-restriction sanity
    check) but logged.
    """
    lam_a = spectral_power(op, a)
    sigma = np.atleast_1d(np.asarray(sigma_nodes, dtype=int))
    if sigma.size == 0:
        raise ValueError("empty Sigma")
    if np.unique(sigma).size != sigma.size:
        raise ValueError("Sigma nodes must be distinct")
    if op.labels is not None:
        in_omega = int(np.isin(sigma, op.labels.omega_nodes).sum())
        if in_omega:
            logger.warning("ucp_quotient: Sigma meets OMEGA (%d nodes)", in_omega)
    phi = op.eigenvectors[op.dofs_of_nodes(sigma)]
    stacked = np.vstack([phi, phi * lam_a])
    return SingularValueReport(
        singular_values=scipy.linalg.svdvals(stacked),
        shape=stacked.shape,
        tag=f"ucp a={a} |Sigma|={sigma.size}",
    )


def runge_rank(
    op: DiscreteOperator, a: float, labels: RegionLabels
) -> SingularValueReport:
    """Singular values of the map (f on W hats) -> (L^a u_f) at E dofs.

    Full row rank is the discrete form of the density of reachable flux
    data on E.  The row-rank claim is only meaningful when |E| <= |W|;
    for larger E the report still carries the spectrum.
    """
    labels = op.resolve_labels(labels)
    if np.intersect1d(labels.w_nodes, labels.e_nodes).size:
        raise ValueError("W and E overlap")
    w_dofs = op.region_dofs("W")
    e_dofs = op.region_dofs("E")
    if w_dofs.size == 0 or e_dofs.size == 0:
        raise ValueError("empty W or E window")
    U = solve_exterior_value(op, a, ExteriorData.w_hats(op)).u
    R = apply_power(op, a, U)[e_dofs]
    svals = scipy.linalg.svdvals(R)
    report = SingularValueReport(
        singular_values=svals,
        shape=R.shape,
        tag=f"runge a={a} |E|={e_dofs.size} |W|={w_dofs.size}",
    )
    logger.info(
        "runge map %s: smin/smax = %.3e", report.tag, report.smallest / report.largest
    )
    return report


@dataclass(frozen=True)
class HeatRatioReport:
    """Discrete-to-Gaussian heat kernel ratios at node pairs."""

    t: float
    separations: np.ndarray
    ratios: np.ndarray
    edge_distances: np.ndarray
    t_in_window: bool


def heat_bound_check(
    op_neglap: DiscreteOperator, t: float, node_pairs
) -> HeatRatioReport:
    """Ratios of the discrete heat kernel to (4 pi t)^{-n/2} e^{-r^2/4t}.

    The operator must be the plain Laplacian assembly (see
    CoefficientField.plain): the Gaussian is only the right comparison there.
    The window requirement h^2 << t << box^2 is reported via t_in_window
    (and logged when violated), not asserted.
    """
    if not op_neglap.coeffs.plain():
        raise ValueError("heat bound check requires the plain -Laplace operator")
    d = op_neglap.mesh.dim
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")

    h = min_element_diameter(op_neglap.mesh)
    box = op_neglap.mesh.box
    box_span = float((box[:, 1] - box[:, 0]).min())
    in_window = (t >= 4.0 * h**2) and (t <= (box_span / 4.0) ** 2)
    if not in_window:
        logger.warning(
            "t=%.3g outside the validity window [%.3g, %.3g]",
            t,
            4.0 * h**2,
            (box_span / 4.0) ** 2,
        )

    pairs = np.atleast_2d(np.asarray(node_pairs, dtype=int))
    nodes = op_neglap.mesh.nodes
    sep = np.linalg.norm(nodes[pairs[:, 0]] - nodes[pairs[:, 1]], axis=1)
    disc = np.array(
        [
            float(heat_kernel_entry(op_neglap, t, int(x), int(z)).real)
            for x, z in pairs
        ]
    )
    gauss = (4.0 * math.pi * t) ** (-d / 2.0) * np.exp(-(sep**2) / (4.0 * t))
    ends = nodes[pairs]  # (pair, endpoint, coordinate)
    edge = np.minimum((ends - box[:, 0]).min(axis=(1, 2)), (box[:, 1] - ends).min(axis=(1, 2)))
    return HeatRatioReport(
        t=float(t),
        separations=sep,
        ratios=disc / gauss,
        edge_distances=edge,
        t_in_window=in_window,
    )


@dataclass(frozen=True)
class HeatflowRows:
    """One operator's rows of L^a f at Sigma: heat by the heat-semigroup
    quadrature, flux by spectral calculus, one column per datum column;
    mesh and coeffs are what ``check_shared_exterior`` reads."""

    mesh: Mesh
    coeffs: CoefficientField
    a: float
    sigma: np.ndarray
    heat: np.ndarray
    flux: np.ndarray


def heatflow_rows(
    op: DiscreteOperator,
    a: float,
    f,
    quad: TimeQuadrature,
    sigma_nodes,
) -> HeatflowRows:
    """The ``HeatflowRows`` of op; Sigma must stay off the closure of the
    datum's support (ValueError)."""
    sigma = np.atleast_1d(np.asarray(sigma_nodes, dtype=int))
    rows = f.values.reshape(f.values.shape[0], -1)
    support_nodes = op.free_nodes[np.flatnonzero(rows.any(axis=1))]
    # closure of the support: every node sharing an element with it
    mesh = op.mesh
    closure = np.unique(mesh.elements[mesh.elements_touching(support_nodes)])
    if np.intersect1d(sigma, closure).size:
        raise ValueError("Sigma closure meets the datum support")
    dofs = op.dofs_of_nodes(sigma)
    heat = power_via_heat_quadrature(op, a, f.values, quad)[dofs]
    return HeatflowRows(mesh, op.coeffs, a, sigma, heat, apply_power(op, a, f.values)[dofs])


def heatflow_rigidity_probe(first: HeatflowRows, second: HeatflowRows) -> float:
    """Max over Sigma and datum columns of |sum_q w_q (U1 - U2)(x, t_q) t_q^{-1-a}|.

    U_i is the heat flow of the exterior datum under operator i, so the sum
    is |Gamma(-a)| times the gap of the heat-quadrature rows of the two
    ``heatflow_rows``.  It must equal |Gamma(-a)| times the gap of their
    spectral rows |(L1^a - L2^a) f|, verified here to the "rigidity
    disagreement" contract (relative); identical operators give zero.  The
    rows must share the exponent, Sigma, the mesh and all non-OMEGA element
    coefficients (``check_shared_exterior``).
    """
    check_shared_exterior(first, second)
    if first.a != second.a or not np.array_equal(first.sigma, second.sigma):
        raise ValueError("heat-flow rows taken at different exponents or Sigma nodes")
    a = first.a
    value = abs(gamma_neg(a)) * float(np.abs(first.heat - second.heat).max())
    spectral = abs(gamma_neg(a)) * float(np.abs(first.flux - second.flux).max())
    check("rigidity disagreement", abs(value - spectral) / max(value, spectral, 1e-30), ArithmeticError, a)
    return value
