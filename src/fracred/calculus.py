"""Matrix functions of the assembled operator: fractional powers, heat flow.

Three routes to the fractional power are implemented and must agree:

* spectral calculus through the attached eigendecomposition (the oracle),
* quadrature of the heat-semigroup integral
      lambda^a = (1/Gamma(-a)) int_0^inf (e^{-t lambda} - 1) t^{-1-a} dt,
  with Gamma(-a) = -Gamma(1-a)/a taken literally (negative, so the two
  signs cancel on positive spectrum), and
* the singular kernel K_a(x, z) obtained by integrating the heat kernel
  against t^{-1-a}, normalized by 1/|Gamma(-a)| so the value is positive.

The time integral is discretized by a double-exponential transform
t = exp(pi sinh(s)) with the trapezoid rule on s in [-s_max, s_max]; the
transform pushes both the t -> 0 singularity and the t -> inf tail to
double-exponentially small integrand values, so the trapezoid converges
spectrally and a scalar calibration against lambda^a certifies the node
set for a given operator's spectral range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import DiscreteOperator, check, lower_band, worst_relative


class QuadratureError(ValueError):
    """Quadrature not calibrated for the requested spectral range."""


def gamma_neg(a: float) -> float:
    """Gamma(-a) for a in (0, 1), the literal negative value -Gamma(1-a)/a."""
    if not 0 < a < 1:
        raise ValueError(f"exponent must lie in (0, 1), got {a}")
    return -math.gamma(1.0 - a) / a


#: largest s_max whose end node t = exp(pi sinh s_max) is a finite double (about 6.113)
_S_MAX_LIMIT = math.asinh(math.log(np.finfo(float).max) / math.pi)


@dataclass(frozen=True)
class TimeQuadrature:
    """Double-exponential nodes and weights for integrals against t**(-1-a) on (0, inf).

    Attributes
    ----------
    s_max : float
        Clip range of the transform variable, s in [-s_max, s_max].
    n : int
        Node count.
    """

    s_max: float = 4.0
    n: int = 200

    def __post_init__(self):
        if not (self.n >= 2 and 0 < self.s_max):
            raise QuadratureError(f"bad quadrature parameters {self}")
        if self.s_max > _S_MAX_LIMIT:
            raise QuadratureError(
                f"s_max = {self.s_max} overflows the end node exp(pi sinh s_max); "
                f"it must not exceed {_S_MAX_LIMIT:.4f}"
            )

    @property
    def step(self) -> float:
        return 2.0 * self.s_max / (self.n - 1)

    @property
    def s(self) -> np.ndarray:
        return np.linspace(-self.s_max, self.s_max, self.n)

    @property
    def t(self) -> np.ndarray:
        return np.exp(np.pi * np.sinh(self.s))

    def mode_terms(self, lam, a: float, increment: bool = True) -> np.ndarray:
        """Weighted heat-flow terms w_q t_q**(-1-a) evol(t_q lambda).

        evol(x) is e^{-x} - 1 with increment, else e^{-x}; the node axis is
        appended last, so summing it integrates against t**(-1-a).  The
        weight is evaluated in log form to dodge overflow.  expm1 keeps full
        relative precision where t*lambda is tiny; the literal difference
        e^{-t lambda} - 1 would lose eps^(1-a) of the answer and miss tight
        calibration tolerances.
        """
        s = self.s
        log_t = np.pi * np.sinh(s)
        w = np.pi * np.cosh(s) * self.step * np.exp(-a * log_t)
        w[0] *= 0.5
        w[-1] *= 0.5
        x = np.multiply.outer(np.asarray(lam, dtype=float), self.t)
        evol = np.expm1(-x) if increment else np.exp(-x)
        return evol * w

    def scalar_power(self, lam, a: float):
        """Quadrature value of the fractional-power integral at lambda."""
        return self.mode_terms(lam, a).sum(axis=-1) / gamma_neg(a)

    def ensure_calibrated(self, lambda_min: float, lambda_max: float, a: float) -> float:
        """Worst relative error of scalar_power against lambda^a over a geometric
        sample of [lambda_min, lambda_max] (NaN when any is NaN); QuadratureError
        when it breaks the "calibration error" contract."""
        rows = calibration_rows(self, np.geomspace(lambda_min, lambda_max, 9), a)
        return check("calibration error", float(np.max([rel for *_, rel in rows])), QuadratureError, a)


def calibration_rows(quad: TimeQuadrature, lambdas, a: float):
    """Per-lambda calibration table: (lambda, exact, quadrature, rel_error)."""
    lam = np.asarray(lambdas, dtype=float)
    exact = lam**a
    approx = quad.scalar_power(lam, a)
    rel = np.abs(approx - exact) / exact
    return list(zip(lam.tolist(), exact.tolist(), approx.tolist(), rel.tolist()))


def spectral_power(op: DiscreteOperator, a: float) -> np.ndarray:
    """lambda^a at each eigenvalue of op; the one range check, a in [-1, 1],
    of every spectral route to L^a."""
    if not -1.0 <= a <= 1.0:
        raise ValueError(f"exponent {a} outside [-1, 1]")
    return op.eigenvalues**a


def apply_spectral(op: DiscreteOperator, values: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phi(L) v = Phi (values * Phi^H M v) for the values of phi at the eigenvalues,
    v a dof vector or a dof x k block; ValueError if a value is not finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("spectral function not finite on the spectrum")
    return op.eigenvectors @ (values * op.spectral_coefficients(v).T).T


def apply_power(op: DiscreteOperator, a: float, v: np.ndarray) -> np.ndarray:
    """L^a v by spectral calculus, exponent a in [-1, 1]."""
    return apply_spectral(op, spectral_power(op, a), v)


def _power_rows(op: DiscreteOperator, a: float, left: np.ndarray) -> np.ndarray:
    """((left * lambda^a) Phi^H) M for a k x n block ``left`` of eigenbasis rows,
    with X Phi^H formed as conj(conj(X) Phi^T) so that no n x n copy of a
    complex Phi is made."""
    return ((left * spectral_power(op, a)).conj() @ op.eigenvectors.T).conj() @ op.M


def power_matrix(op: DiscreteOperator, a: float, rows=None) -> np.ndarray:
    """L^a[rows, :] = ((Phi[rows] lambda^a) Phi^H) M, rows of the matrix of
    v -> L^a v; formed per call, never cached; rows=None gives all n rows."""
    return _power_rows(op, a, op.eigenvectors if rows is None else op.eigenvectors[rows])


def mass_eigenrows(op: DiscreteOperator, rows=None) -> np.ndarray:
    """M[rows] Phi, the eigenbasis rows weighted by the mass; rows=None gives all n.

    It reads only the rows of Phi that M[rows] touches, as one C-ordered
    block: the sparse product would otherwise copy all of the
    Fortran-ordered Phi.
    """
    M_rows = op.M if rows is None else op.M[rows]
    touched = np.unique(M_rows.indices)
    return M_rows[:, touched] @ op.eigenvectors[touched]


def fractional_stiffness(op: DiscreteOperator, a: float, rows=None) -> np.ndarray:
    """G[rows, :] = (((M[rows] Phi) lambda^a) Phi^H) M, rows of the matrix G = M L^a
    of (u, w) -> <L^a u, w>_M (Hermitian to roundoff); formed per call, never cached."""
    return _power_rows(op, a, mass_eigenrows(op, rows))


def power_via_heat_quadrature(
    op: DiscreteOperator,
    a: float,
    v: np.ndarray,
    quad: TimeQuadrature,
) -> np.ndarray:
    """L^a v through the heat-semigroup integral on the given node set.

    The sum (1/Gamma(-a)) sum_q w_q (e^{-t_q L} - I) v / t_q^{1+a} is
    accumulated in the eigenbasis: the per-mode factor is exactly the
    scalar quadrature applied to each eigenvalue.  The scalar calibration
    is checked for the operator's spectral range first; it rejects an
    exponent outside (0, 1) through gamma_neg.
    """
    quad.ensure_calibrated(op.lambda_min, op.lambda_max, a)
    return apply_spectral(op, quad.scalar_power(op.eigenvalues, a), v)


def apply_inverse(op: DiscreteOperator, v: np.ndarray):
    """Solve K x = M v by banded Cholesky; the weak form of L x = v.

    The factor is formed per call, never cached, from the lower band of the
    Hermitian K (``lower_band``).  The bandwidth follows the node order: 1
    on intervals, about nx on an nx x ny rectangle, so the factor costs
    O(n nx^2) there.  v may be a dof x k block.  Returns x and the worst
    column's relative residual ||K x - M v|| / ||M v||, which the caller
    checks.
    """
    rhs = op.M @ v
    x = scipy.linalg.solveh_banded(lower_band(op.K), rhs, lower=True)
    return x, worst_relative(np.linalg.norm(op.K @ x - rhs, axis=0), np.linalg.norm(rhs, axis=0))


def heat_kernel_entry(op: DiscreteOperator, t: float, x_node: int, z_node: int):
    """Discrete heat kernel p_t(x, z), the (x, z) entry of e^{-tL} M^{-1}.

    Nodes are mesh node indices.
    """
    dx = op.dofs_of_nodes(x_node)[0]
    dz = op.dofs_of_nodes(z_node)[0]
    return np.exp(-t * op.eigenvalues) @ (op.eigenvectors[dx] * op.eigenvectors[dz].conj())


def kernel_Ka(op: DiscreteOperator, a: float, x_node: int, z_node: int, quad: TimeQuadrature):
    """Singular kernel K_a(x, z) from the time-integrated heat kernel.

    K_a(x,z) = (1/|Gamma(-a)|) sum_q w_q p_{t_q}(x, z) t_q^{-1-a} over the
    quadrature nodes with t_q at or above the squared minimal element
    diameter, summed mode by mode as sum_i phi_i(x) conj(phi_i(z)) times the
    heat-flow terms of lambda_i.  On a fixed mesh the discrete heat kernel
    tends to the mass-inverse entry (M^{-1})_{xz} != 0 as t -> 0 instead of
    vanishing like the continuum Gaussian, so the unclipped sum diverges as
    the node set resolves t -> 0; the floor restricts to the window where the
    discrete semigroup tracks the continuum kernel.
    """
    gamma = abs(gamma_neg(a))
    if x_node == z_node:
        raise ValueError("coincident nodes: the kernel diverges on the diagonal")
    keep = quad.t >= min_element_diameter(op.mesh) ** 2
    if not keep.any():
        raise QuadratureError("the squared element diameter leaves no quadrature nodes")
    dx, dz = op.dofs_of_nodes([x_node, z_node])
    modes = quad.mode_terms(op.eigenvalues, a, increment=False)[:, keep].sum(axis=1)
    value = (op.eigenvectors[dx] * op.eigenvectors[dz].conj()) @ modes / gamma
    return float(value.real) if op.is_real else complex(value)


def min_element_diameter(mesh) -> float:
    """Smallest over the elements of the longest vertex-pair edge."""
    pts = mesh.nodes[mesh.elements]
    i, j = np.triu_indices(mesh.dim + 1, k=1)
    return float(np.linalg.norm(pts[:, j] - pts[:, i], axis=2).max(axis=1).min())


def kernel_gaussian_reference(a: float, r, dim: int = 1):
    """Closed-form t-integral of the free Gaussian heat kernel.

    For the constant-coefficient Laplacian in dimension n the kernel law is
    4^a Gamma(n/2 + a) / (pi^(n/2) |Gamma(-a)|) * r^(-n-2a); the n = 1 case
    is the oracle for the fine-mesh kernel test.
    """
    r = np.asarray(r, dtype=float)
    const = (
        4.0**a
        * math.gamma(dim / 2.0 + a)
        / (math.pi ** (dim / 2.0) * abs(gamma_neg(a)))
    )
    return const * r ** (-dim - 2.0 * a)
