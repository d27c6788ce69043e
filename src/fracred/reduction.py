"""Reduction of nonlocal exterior data to local boundary Cauchy data.

From a nonlocal solution u the pair

    Phi = L^{-1} u,    Psi = L^{a-1} u = L^a Phi

is formed; Psi solves the local equation L Psi = L^a u, whose right side
vanishes on Omega-interior test functions by construction of u.  The
boundary Cauchy data of Psi on the interface of the Omega element patch
(trace and variational co-normal flux) is the local object the exterior
data reduces to; two operators with matching exterior coefficients can
then be compared in both readings, for a whole dof x k block of probes at
once, with one gap per probe.

All interior-residual statements are weak: the assembled row (K Psi)_i
is the pairing of L Psi with the hat at dof i, and it is those pairings
over Omega-interior dofs that vanish (to roundoff) for a solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .calculus import apply_inverse, apply_power
from .dirichlet import CauchyData, ExteriorData, NonlocalSolution, cauchy_gap, cauchy_pair, solve_exterior_value
from .mesh import Mesh, RegionLabels
from .operators import CoefficientField, DiscreteOperator, check, check_shared_exterior, omega_interface, worst_relative


@dataclass(frozen=True)
class LiftedPair:
    """Psi = L^{a-1} u with the verified residuals of the lift.

    psi has the shape of u.  residuals keys, each the worst column measured
    against its own scale: "phi" (relative ||K Phi - M u|| of Phi = L^{-1} u),
    "psi" (relative gap of L^a Phi to Psi), "interior" (max weak residual of
    L Psi on Omega-interior dofs, relative to the M-norm of u).
    """

    psi: np.ndarray
    residuals: dict


def lift(op: DiscreteOperator, a: float, sol: NonlocalSolution) -> LiftedPair:
    """Form Psi from a nonlocal solution, Phi for its cross-checks, and verify the identities.

    Psi is formed spectrally from u, not as L^a Phi: the Cholesky backward
    error of order eps ||K|| in Phi would reach the interior residual K Psi
    as eps ||K|| lambda_max^a ||Phi|| / ||u||_M, which outgrows its bound as
    the mesh is refined.  L^a Phi is kept as the "psi" cross-check.
    """
    if sol.a != a:
        raise ValueError(f"solution was computed at a={sol.a}, not {a}")
    u = sol.u
    phi, r_phi = apply_inverse(op, u)
    check("lift phi residual", r_phi, ArithmeticError, a)
    psi = apply_power(op, a - 1.0, u)
    via_phi = apply_power(op, a, phi)
    r_psi = worst_relative(np.linalg.norm(via_phi - psi, axis=0), np.linalg.norm(psi, axis=0))
    check("lift psi residual", r_psi, ArithmeticError, a)
    interior = op.omega_interior_dofs()
    r_int = worst_relative(np.abs((op.K @ psi)[interior]).max(axis=0), op.mass_norm(u))
    check("lift interior residual", r_int, ArithmeticError, a)
    residuals = {"phi": r_phi, "psi": r_psi, "interior": r_int}
    return LiftedPair(psi=psi, residuals=residuals)


def boundary_cauchy(op: DiscreteOperator, pair: LiftedPair) -> CauchyData:
    """Boundary Cauchy data of Psi: trace and variational co-normal flux.

    The co-normal values g solve B g = r where r collects the Omega-side
    stiffness rows at interface dofs, r_j = (K_Omega Psi)_j, the standard
    variational flux lifting; B is the interface mass of ``omega_interface``.
    Non-finite values in Psi reach CauchyData, which raises ArithmeticError.
    """
    dofs, k_omega, factor = omega_interface(op)
    nodes = op.free_nodes[dofs]
    return CauchyData(
        trace_nodes=nodes,
        trace=pair.psi[dofs],
        flux_nodes=nodes,
        flux=scipy.linalg.cho_solve(factor, k_omega @ pair.psi, check_finite=False),
    )


@dataclass(frozen=True)
class Theorem1Readings:
    """One operator's two readings of an exterior datum block at exponent a:
    the solution's Cauchy data (``cauchy_pair``) and its lift's
    (``boundary_cauchy``), with the lift's residuals; mesh and coeffs are
    what ``check_shared_exterior`` reads."""

    mesh: Mesh
    coeffs: CoefficientField
    a: float
    exterior: CauchyData
    boundary: CauchyData
    lift_residuals: dict


def theorem1_readings(op: DiscreteOperator, a: float, f: ExteriorData) -> Theorem1Readings:
    """Solve, lift and read the datum block f on one operator: one solve,
    one lift and one extraction of each reading for all of f's columns."""
    sol = solve_exterior_value(op, a, f)
    pair = lift(op, a, sol)
    return Theorem1Readings(
        op.mesh, op.coeffs, a, cauchy_pair(op, a, sol), boundary_cauchy(op, pair), pair.residuals
    )


def theorem1_gaps(first: Theorem1Readings, second: Theorem1Readings) -> dict:
    """Compare two operators' readings of the same datum block.

    Returns {"exterior_gap", "boundary_gap", "lift_residuals"} where the
    gaps are maxima of ``cauchy_gap`` over the datum columns and
    lift_residuals holds the worst value per key of the two lifts.  The
    readings must share the exponent, the mesh and all non-OMEGA element
    coefficients (``check_shared_exterior``).
    """
    check_shared_exterior(first, second)
    if first.a != second.a:
        raise ValueError(f"readings taken at a={first.a} and a={second.a}")
    res1, res2 = first.lift_residuals, second.lift_residuals
    return {
        "exterior_gap": float(cauchy_gap(first.exterior, second.exterior).max()),
        "boundary_gap": float(cauchy_gap(first.boundary, second.boundary).max()),
        "lift_residuals": {key: max(res1[key], res2[key]) for key in res1},
    }


def theorem1_probe(
    op1: DiscreteOperator,
    op2: DiscreteOperator,
    a: float,
    probes: list,
    labels: RegionLabels,
) -> dict:
    """Compare exterior Cauchy data and reduced boundary data per probe.

    ``theorem1_gaps`` of the two operators' ``theorem1_readings`` of the
    probes stacked into one dof x k block; when op2 is op1 the operator is
    read once and its readings are compared with themselves.  Both
    operators must carry ``labels``.
    """
    op1.resolve_labels(labels)
    op2.resolve_labels(labels)
    f = ExteriorData.stack(probes)
    first = theorem1_readings(op1, a, f)
    return theorem1_gaps(first, first if op2 is op1 else theorem1_readings(op2, a, f))
