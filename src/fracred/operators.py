"""P1 finite element assembly of self-adjoint second-order elliptic operators.

The operator has the sesquilinear form

    a(u, v) = int A grad(u) . grad(conj(v))
            + i int b . (u grad(conj(v)) - grad(u) conj(v))
            + int c u conj(v)

and the mass form m(u, v) = int w u conj(v), with per-element constant
coefficients: A a symmetric positive matrix, b a real vector (magnetic-type
term), c a real scalar potential and w a positive mass weight.  Integration
is exact for piecewise-linear basis functions and constant coefficients, the
mass matrix is consistent (never lumped), and homogeneous Dirichlet values
are eliminated on the outer box boundary.  Keeping the element integration
exact is what later makes mapped-mesh reassembly an entrywise matrix
identity rather than an approximation.

The stiffness matrix is Hermitian, real whenever b vanishes identically, and
the generalized eigendecomposition K Phi = M Phi diag(lambda) with
Phi^H M Phi = I is computed densely at assembly time.  Desk scale only
(a few thousand degrees of freedom): K and M are held only as CSR.  The
eigensolve reduces the pencil by the band Cholesky factor of M, so M is
never densified; K is densified once, and that one n x n buffer is
overwritten in place until it is reduced to a tridiagonal matrix, whose
eigenvectors are taken back to Phi in a second n x n buffer; the three
banded triangular solves run in place on column blocks of those buffers,
in level-3 BLAS.  At most 2.5 n^2 entries are live in the eigensolve.
The local problem on the OMEGA patch is read through ``omega_interface``:
its interface dofs, the OMEGA-only stiffness rows there and the factored
P1 facet mass of the interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .mesh import Mesh, RegionLabels


class CoefficientError(ValueError):
    """Coefficient data violates symmetry, ellipticity or support rules."""


class PositivityError(ValueError):
    """The assembled operator is not positive definite."""

    def __init__(self, lambda_min: float):
        self.lambda_min = lambda_min
        super().__init__(
            f"operator not positive definite: lambda_min = {lambda_min:.6e}"
        )


class AssemblyError(RuntimeError):
    """The assembled pencil broke a contract, or LAPACK failed on it."""


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Per-element coefficients (A, b, c, w), checked once, when made.

    A, b, c and w must agree in shape and be finite, w positive and A
    exactly symmetric and positive definite, or CoefficientError is raised;
    the arrays are read-only after.

    Attributes
    ----------
    A : ndarray, shape (n_elements, dim, dim)
        Symmetric conductivity matrix per element.
    b : ndarray, shape (n_elements, dim)
        Real magnetic-type coefficient per element.
    c : ndarray, shape (n_elements,)
        Real potential per element.
    w : ndarray, shape (n_elements,)
        Positive mass weight per element.
    labels : RegionLabels or None
        When present, the support rule is enforced: the field is ``plain``
        (A = I, b = 0, c = 0, w = 1) on every element not tagged OMEGA.
    bound : float
        Ellipticity constant: the largest of ||A||_2 and ||A^{-1}||_2 over the elements.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    w: np.ndarray
    labels: RegionLabels | None = None
    bound: float = field(init=False)

    def __post_init__(self):
        ne, d = self.w.size, self.A.shape[-1] if self.A.ndim else 0
        shapes = (self.A.shape, self.b.shape, self.c.shape, self.w.shape)
        if shapes != ((ne, d, d), (ne, d), (ne,), (ne,)):
            raise CoefficientError(f"A, b, c and w shapes {shapes} disagree")
        for name in ("A", "b", "c", "w"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise CoefficientError(f"{name} must be finite")
        if not np.array_equal(self.A, np.swapaxes(self.A, 1, 2)):
            raise CoefficientError("A must be symmetric")
        if not np.all(self.w > 0):
            raise CoefficientError("mass weight w must be positive")
        object.__setattr__(self, "bound", observed_ellipticity(self.A))
        if self.labels is not None and not self.plain(
            np.setdiff1d(np.arange(ne), self.labels.omega_elements)
        ):
            raise CoefficientError("A = I, b = 0, c = 0 and w = 1 must hold off OMEGA")
        for name in ("A", "b", "c", "w"):
            getattr(self, name).setflags(write=False)

    @classmethod
    def build(
        cls,
        mesh: Mesh,
        labels: RegionLabels | None = None,
        A=None,
        b=None,
        c=None,
    ) -> "CoefficientField":
        """Broadcast scalar or single-matrix inputs to per-element arrays.

        A may be None (identity), a scalar or a (dim, dim) matrix; b None or
        a (dim,) vector; c None or a scalar; w is 1.  When labels are given,
        A, b and c inputs are applied on OMEGA elements only.  A ragged or
        non-numeric input, an input of another shape, a stated A that is not
        exactly symmetric, or an indefinite A raises CoefficientError here,
        before any assembly.
        """
        ne, d = mesh.element_count, mesh.dim
        given = {}
        for name, value, shapes in (("A", A, ((), (d, d))), ("b", b, ((d,),)), ("c", c, ((),))):
            if value is None:
                continue
            try:
                given[name] = np.asarray(value, dtype=float)
            except (TypeError, ValueError) as exc:
                raise CoefficientError(f"{name} is not a numeric array: {exc}") from exc
            if given[name].shape not in shapes:
                raise CoefficientError(f"bad {name} shape {given[name].shape}")
        target = labels.omega_elements if labels is not None else slice(None)
        A_full = np.broadcast_to(np.eye(d), (ne, d, d)).copy()
        if "A" in given:
            A_arr = given["A"]
            A_full[target] = A_arr if A_arr.ndim == 2 else A_arr * np.eye(d)
        b_full = np.zeros((ne, d))
        b_full[target] = given.get("b", 0.0)
        c_full = np.zeros(ne)
        c_full[target] = given.get("c", 0.0)
        return cls(A=A_full, b=b_full, c=c_full, w=np.ones(ne), labels=labels)

    def plain(self, elements=slice(None)) -> bool:
        """A = I, b = 0, c = 0 and w = 1 on ``elements`` (every element by
        default): the coefficients of -Laplace, which a labelled field holds
        off OMEGA."""
        return bool(
            np.all(self.A[elements] == np.eye(self.A.shape[-1]))
            and not np.any(self.b[elements])
            and not np.any(self.c[elements])
            and np.all(self.w[elements] == 1)
        )


def worst_relative(res, scale) -> float:
    """Worst ratio res / scale over the columns; a zero scale counts as 1.

    A zero column (scale 0) solves to exactly 0, so its residual is 0 too.
    """
    return float(np.max(res / np.where(scale > 0, scale, 1.0), initial=0.0))


#: every tolerance contract of the program, name -> bound on the measured value;
#: fixed constants, set on the bundled configs (mesh size h = 0.05)
CONTRACTS = {
    "stiffness Hermitian deviation": 1e-12,  # max|K - K^H| / max|K|: assembly roundoff only
    "eigenpair residual": 1e-10,  # max ||K phi - lambda M phi|| / lambda from the band eigensolve
    "calibration error": 1e-8,  # scalar quadrature against lambda^a over the spectrum
    "interior solve residual": 1e-10,  # relative residual of the Schur solve G_II X = B
    "lift phi residual": 1e-10,  # ||K Phi - M u|| / ||M u||
    "lift psi residual": 1e-9,  # L^a Phi against the direct L^(a-1) u, relative
    "lift interior residual": 1e-9,  # weak (K Psi) on Omega-interior dofs over ||u||_M
    "rigidity disagreement": 1e-8,  # heat-quadrature moment against the spectral flux gap
    "linearity residual": 1e-12,  # ||u(alpha f + beta g) - alpha u(f) - beta u(g)|| / ||u||
    "transport deviation": 1e-12,  # K, M against their transport: element integration is exact
    "gauge deviation": 1e-10,  # exterior Cauchy data moved by the deformation
    "Runge row condition": 1e10,  # sigma_1 / sigma_|E| of the Runge map: rank threshold 1e-10
}


def check(name: str, value, error: type, a: float | None = None):
    """``value`` when it is within ``CONTRACTS[name]``, else ``error`` raised.

    The raised exception carries ``.contract = {"name", "value", "bound",
    "a"}``, the record a failed run reports; NaN breaks every bound.
    """
    bound = CONTRACTS[name]
    if not value <= bound:
        at = "" if a is None else f" at a={a}"
        exc = error(f"{name} {value:.3e} out of contract: bound {bound:.3e}{at}")
        exc.contract = {"name": name, "value": float(value), "bound": bound, "a": a}
        raise exc
    return value


def observed_ellipticity(A: np.ndarray) -> float:
    """Largest of ||A||_2 and ||A^{-1}||_2 over a stack of SPD matrices."""
    eigs = np.linalg.eigvalsh(A)
    if eigs.min() <= 0:
        raise CoefficientError(
            f"A not positive definite (min eigenvalue {eigs.min():.3e})"
        )
    return float(max(eigs.max(), (1.0 / eigs).max()))


def element_geometry(mesh: Mesh):
    """Measures and P1 basis gradients for every element.

    Returns
    -------
    measures : ndarray, shape (n_elements,)
    grads : ndarray, shape (n_elements, dim + 1, dim)
        grads[e, i] is the constant gradient of basis function i on
        element e.
    """
    measures = mesh.element_measures()
    if np.any(measures <= 0):
        raise ValueError("element with non-positive measure")
    # rows of J are the edge vectors; dX/dxi = J^T, so grad_x = J^{-1} grad_xi,
    # with the barycentric gradients of the reference simplex as grad_xi
    J = mesh.element_edges()
    reference = np.vstack([-np.ones(mesh.dim), np.eye(mesh.dim)])
    grads = np.einsum("id,edk->eik", reference, np.swapaxes(np.linalg.inv(J), 1, 2))
    return measures, grads


def local_matrices(mesh: Mesh, coeffs: CoefficientField):
    """Exact per-element stiffness and mass matrices.

    Returns (k_local, m_local) with shapes (n_elements, d+1, d+1); k_local is
    complex when any magnetic coefficient is nonzero, m_local always real.
    """
    d = mesh.dim
    measures, grads = element_geometry(mesh)
    nb = d + 1

    # principal part: |T| * g_i . A g_j
    k_loc = np.einsum("e,eik,ekl,ejl->eij", measures, grads, coeffs.A, grads)

    # potential and mass: consistent P1 simplex mass matrix
    unit_mass = (np.ones((nb, nb)) + np.eye(nb)) / ((nb) * (nb + 1))
    m_unit = measures[:, None, None] * unit_mass[None]
    k_loc = k_loc + coeffs.c[:, None, None] * m_unit

    if np.any(coeffs.b != 0):
        # magnetic term: i (|T|/(d+1)) b.(g_i - g_j), Hermitian by construction
        q = np.einsum("eik,ek->ei", grads, coeffs.b)
        diff = q[:, :, None] - q[:, None, :]
        k_loc = k_loc.astype(complex) + 1j * (measures / nb)[:, None, None] * diff

    return k_loc, coeffs.w[:, None, None] * m_unit


def _sparse_sum(mesh: Mesh, local: np.ndarray) -> scipy.sparse.csr_array:
    """Node-by-node CSR sum of the element matrices, zero sums dropped.

    Each entry adds its terms in (local row, local column, element) order,
    the order of a dense ``np.add.at`` scatter, so the two agree bit for bit.
    """
    n, el = mesh.node_count, mesh.elements.T
    # the (i, j, e) term lands at node row el[i, e] and node column el[j, e]
    keys, slot = np.unique((el[:, None] * n + el[None]).ravel(), return_inverse=True)
    data = np.zeros(keys.size, dtype=local.dtype)
    np.add.at(data, slot, local.transpose(1, 2, 0).ravel())
    full = scipy.sparse.csr_array((data, (keys // n, keys % n)), shape=(n, n))
    full.eliminate_zeros()
    return full


def omega_interface(op: DiscreteOperator):
    """The Omega interface dofs, the stiffness rows there assembled over OMEGA
    elements only (CSR, columns over all dofs) and the Cholesky factor of the
    interface mass B; cached.

    B is the P1 mass of the interface facets, the OMEGA element facets that
    no second OMEGA element shares: |F| (1 + delta_ij) / (d (d + 1)) per
    facet of d vertices, which is the identity on the two points of a 1-D
    interface and ell/6 [[2, 1], [1, 2]] per edge in 2-D.
    """

    def build():
        mesh, omega = op.mesh, op.resolve_labels().omega_elements
        dofs = op.boundary_omega_dofs()
        nodes = op.free_nodes[dofs]
        k_loc, _ = local_matrices(mesh, op.coeffs)
        keep = np.zeros(mesh.element_count, dtype=bool)
        keep[omega] = True
        k_omega = _sparse_sum(mesh, np.where(keep[:, None, None], k_loc, 0.0))
        # each facet drops one vertex of an OMEGA element
        d = mesh.dim
        el = mesh.elements[omega]
        facets = np.sort(np.concatenate([np.delete(el, k, axis=1) for k in range(d + 1)]), axis=1)
        facets, count = np.unique(facets, axis=0, return_counts=True)
        facets = facets[count == 1]
        # |F|: the length of the one edge of a 2-D facet, 1 for a 1-D point
        edges = mesh.nodes[facets[:, 1:]] - mesh.nodes[facets[:, :1]]
        size = np.prod(np.linalg.norm(edges, axis=2), axis=1)
        pos = np.full(mesh.node_count, -1)
        pos[nodes] = np.arange(dofs.size)
        B = np.zeros((dofs.size, dofs.size))
        local = (size[:, None, None] * (1.0 + np.eye(d))) / (d * (d + 1))
        np.add.at(B, (pos[facets][:, :, None], pos[facets][:, None, :]), local)
        try:
            factor = scipy.linalg.cho_factor(B)
        except scipy.linalg.LinAlgError as exc:
            raise ArithmeticError("degenerate interface mass matrix") from exc
        return dofs, k_omega[np.ix_(nodes, op.free_nodes)], factor

    return op.cached("omega_stiffness", build)


@dataclass
class DiscreteOperator:
    """Assembled operator with its dense generalized eigendecomposition.

    All nodal vectors downstream live on the free nodes (outer box boundary
    eliminated); ``free_nodes`` maps degree-of-freedom index to mesh node
    index and ``node_to_dof`` inverts it with -1 on constrained nodes.

    ``K`` and ``M`` are CSR; the eigensolve densifies K once, reduces that
    buffer to tridiagonal form and drops it, and reads M only through its
    band Cholesky factor; ``eigenvectors`` is the one n x n array kept.
    ``eigen_residual`` is the worst relative eigenpair residual
    ||K phi - lambda M phi|| / lambda.

    The instance is treated as immutable after assembly.  ``_cache`` holds
    idempotent derived matrices (per exponent the blocks G[I, W] and G_II of
    the fractional stiffness, both formed from mass-weighted eigenbasis rows,
    with the Cholesky factor of G_II, and the Omega interface of
    ``omega_interface``; no factor of K, no array with n columns, and never
    a whole L^a or G);
    entries are write-once pure functions of the operator, so concurrent
    readers are safe.
    """

    mesh: Mesh
    coeffs: CoefficientField
    K: scipy.sparse.csr_array
    M: scipy.sparse.csr_array
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eigen_residual: float
    free_nodes: np.ndarray
    node_to_dof: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_dofs(self) -> int:
        return self.K.shape[0]

    @property
    def labels(self) -> RegionLabels | None:
        return self.coeffs.labels

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.K)

    def dofs_of_nodes(self, nodes) -> np.ndarray:
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.intp))
        dofs = self.node_to_dof[nodes]
        if np.any(dofs < 0):
            bad = nodes[dofs < 0]
            raise ValueError(f"nodes {bad.tolist()} are constrained (box boundary)")
        return dofs

    def resolve_labels(self, labels: RegionLabels | None = None) -> RegionLabels:
        """The operator's own region labels, checked against ``labels``.

        A passed labeling is never used in place of ``self.labels``: it must
        tag every element and node identically, or ValueError is raised.
        """
        if self.labels is None:
            raise ValueError("operator was assembled without region labels")
        if labels is not None and not labels.matches(self.labels):
            raise ValueError("labels do not belong to this operator")
        return self.labels

    def region_dofs(self, tag: str, labels: RegionLabels | None = None) -> np.ndarray:
        nodes = self.resolve_labels(labels).node_set(tag)
        free = nodes[self.node_to_dof[nodes] >= 0]
        return self.node_to_dof[free]

    def omega_interior_dofs(self, labels: RegionLabels | None = None) -> np.ndarray:
        return self.dofs_of_nodes(self.resolve_labels(labels).omega_interior_nodes)

    def boundary_omega_dofs(self) -> np.ndarray:
        return self.dofs_of_nodes(self.resolve_labels().boundary_omega_nodes)

    def mass_norm(self, v):
        """M-norm of a dof vector, or of each column of a dof x k block."""
        return np.sqrt(np.maximum(np.sum(v.conj() * (self.M @ v), axis=0).real, 0.0))

    def spectral_coefficients(self, v) -> np.ndarray:
        """Coordinates of v in the M-orthonormal eigenbasis.

        Phi^H y is formed as conj(Phi^T conj(y)): ``Phi.conj()`` would copy
        the whole of a complex Phi, and for a real one ``conj`` is free.
        """
        return (self.eigenvectors.T @ (self.M @ v).conj()).conj()

    def cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def lower_band(A) -> np.ndarray:
    """The lower band of a Hermitian sparse matrix in LAPACK band storage.

    Row d holds the d-th subdiagonal, ``band[d, j] = A[j + d, j]``, in
    Fortran order: the layout of ``?pbtrf`` with the lower triangle and of
    ``scipy.linalg.solveh_banded(..., lower=True)``.  The bandwidth follows the node order: 1 on intervals, about nx on an
    nx x ny rectangle.
    """
    dia = A.todia()
    lower = dia.offsets <= 0
    band = np.zeros((1 - dia.offsets.min(), A.shape[0]), dtype=dia.dtype, order="F")
    band[-dia.offsets[lower]] = dia.data[lower]
    return band


def _lapack(what: str, result):
    """The outputs of a LAPACK wrapper call, or AssemblyError on a nonzero info."""
    *out, info = result
    if info != 0:
        raise AssemblyError(f"{what} failed: LAPACK info {info}")
    return out if len(out) > 1 else out[0]


#: rows and columns per block of the in-place conjugate transpose
_TRANSPOSE_BLOCK = 64

#: columns per block of the band solve: one solve at n = 1521 took 0.011 s
#: with 32 against 0.016 s with 64, while the transpose is faster with 64
_SOLVE_BLOCK = 32


def _conjugate_transpose(A: np.ndarray) -> None:
    """Overwrite the square A with A^H, one pair of blocks at a time, so that
    no temporary larger than a block is allocated.  ``np.conjugate(A.T,
    order="F")`` holds a second n x n array: spectral-2d ``peak_rss_mb`` read
    127.4 MB in 1 of 20 runs with it, at most 118.6 MB in 20 runs of this."""
    n, size = A.shape[0], _TRANSPOSE_BLOCK
    for i in range(0, n, size):
        rows = slice(i, i + size)
        A[rows, rows] = A[rows, rows].T  # numpy buffers the overlapping copy
        for j in range(i + size, n, size):
            cols = slice(j, j + size)
            upper = A[rows, cols].copy()
            A[rows, cols] = A[cols, rows].T
            A[cols, rows] = upper.T
    if np.iscomplexobj(A):
        np.conjugate(A, out=A)


def _solve_band(L: np.ndarray, A: np.ndarray, adjoint: bool) -> np.ndarray:
    """Overwrite the Fortran-ordered A with A L^-H (``adjoint``) or A L^-1,
    for the lower triangular L in LAPACK lower band storage, and return it.

    Column block J of the result couples only to the at most kd solved
    columns next to it, before J for L^-H and after J for L^-1, so each
    block is one ``?gemm`` against those and one ``?trsm`` with the
    diagonal block of L, both read from a dense strip of L built for the
    block alone: level-3 BLAS on contiguous column blocks of A, where
    ``?tbtrs`` runs one level-2 ``?tbsv`` per column.
    """
    gemm, trsm = scipy.linalg.get_blas_funcs(("gemm", "trsm"), (L, A))
    kd, n, size = L.shape[0] - 1, A.shape[1], _SOLVE_BLOCK
    # the strip is L[J, J.start - kd : J.stop] for L^-H and
    # L[J.start : J.stop + kd, J]^T for L^-1: entry (i, m) is band entry
    # (d, J.start + col), at flat offset offsets[m, i] from column J.start
    m, i = np.ogrid[: kd + size, :size]
    d, col = (i - m + kd, m - kd) if adjoint else (m - i, i)
    inside = (d >= 0) & (d <= kd)
    offsets = d + col * (kd + 1)
    band = L.reshape(-1, order="F")
    trans = 2 if adjoint else 1
    starts = range(0, n, size)
    for j in starts if adjoint else reversed(starts):
        J = slice(j, min(j + size, n))
        w = J.stop - j
        # offsets off the matrix are clipped; they land only outside the slices below
        strip = np.where(inside, band.take(offsets + j * (kd + 1), mode="clip"), 0).T
        if adjoint:  # A[:, J] L[J, J]^H = A[:, J] - A[:, near] L[J, near]^H
            near = slice(max(j - kd, 0), j)
            coupling, diagonal = strip[:w, near.start - j + kd : kd], strip[:w, kd : kd + w]
        else:  # A[:, J] L[J, J] = A[:, J] - A[:, near] L[near, J]
            near = slice(J.stop, min(J.stop + kd, n))
            coupling, diagonal = strip[:w, w : w + near.stop - J.stop], strip[:w, :w]
        if near.start < near.stop:
            gemm(-1.0, A[:, near], coupling, 1.0, A[:, J], trans_b=trans, overwrite_c=1)
        trsm(1.0, diagonal, A[:, J], side=1, lower=int(adjoint), trans_a=trans, overwrite_b=1)
    return A


def _tail_slices(n: int):
    """(column i, slice of the packed buffer) for each Householder tail
    A[i + 2:, i] that ``?sytrd``/``?hetrd`` leaves below the subdiagonal of
    an n x n matrix, packed column after column: (n - 1)(n - 2) / 2 entries."""
    start = 0
    for i in range(n - 2):
        yield i, slice(start, start + n - 2 - i)
        start += n - 2 - i


def _band_eigh(K, M):
    """Eigenvalues and M-orthonormal eigenvectors of the Hermitian pencil
    (K, M) by the band Cholesky reduction to standard form (Martin &
    Wilkinson, Numer. Math. 11, 1968).

    With M = L L^H from ``?pbtrf`` on M's lower band, the pencil has the
    eigenvalues of C = L^-1 K L^-H, and Phi = L^-H Z is M-orthonormal for
    the orthonormal eigenvectors Z of C.  Since K is Hermitian, K L^-H =
    (L^-1 K)^H.  One Fortran-ordered dense copy of K is overwritten in turn
    by K L^-H, its conjugate transpose L^-1 K, and C = (L^-1 K) L^-H: each
    banded triangular solve (``_solve_band``) costs O(n^2 kd) for bandwidth
    kd in level-3 BLAS, and M is never densified.  The lower factor keeps
    the eigenpair residual at that of the dense ``?sygvd`` route (9.56e-11
    against 9.48e-11 at interval 1600); reducing by the upper one,
    M = U^H U, gave 1.57e-10 there, past the contract bound.

    C is solved by the kernels of ``?syevd``, reordered to hold less at
    once: ``?sytrd``/``?hetrd`` reduces C to
    a real tridiagonal T = Q^H C Q in place, the Householder tails of Q are
    packed into (n - 1)(n - 2) / 2 entries and C is dropped, and divide and
    conquer (``dstevd``) gives the eigenvectors of T, with the packed tails,
    those eigenvectors and the n^2 divide-and-conquer workspace the peak,
    2.5 n^2 against the 3 n^2 of ``?syevd`` on C.  ``?ormqr``/``?unmqr``
    then overwrites their transpose with Z^H = Z_T^T Q^H, the reflectors
    are dropped, Phi^H = Z^H L^-1 is solved in place and one more in-place
    conjugate transpose gives Phi.

    No dense block of L lives through ``?sytrd``, ``?stevd`` or ``?ormqr``:
    each solve builds its blocks one at a time and drops them.  A variant
    that kept the reduction's blocks alive until the back-solve read
    spectral-2d ``ru_maxrss`` 124.3-134.9 MB in 10 of 38 processes against
    at most 117.7 MB in 18 of 18 with ``?tbtrs``: one more n^2 of fresh
    pages where the reflectors are unpacked, heap fragmentation around the
    live blocks.
    """
    factor = lower_band(M).astype(K.dtype)
    real = not np.iscomplexobj(factor)
    names = ("sytrd", "sytrd_lwork", "ormqr") if real else ("hetrd", "hetrd_lwork", "unmqr")
    pbtrf, trd, trd_lwork, mqr = scipy.linalg.get_lapack_funcs(("pbtrf", *names), (factor,))
    stevd = scipy.linalg.get_lapack_funcs("stevd", dtype=float)
    L = _lapack("band Cholesky of the mass matrix", pbtrf(factor, lower=True, overwrite_ab=True))
    # each step overwrites the Fortran-ordered copy of K: K L^-H, L^-1 K, C
    A = _solve_band(L, K.toarray(order="F"), adjoint=True)
    _conjugate_transpose(A)
    _solve_band(L, A, adjoint=True)
    n = A.shape[0]
    # the queried workspace selects the blocked reduction; the default n, the unblocked one
    lwork = int(_lapack("tridiagonal workspace query", trd_lwork(n, lower=True)).real)
    A, diag, off, tau = _lapack(
        "tridiagonal reduction", trd(A, lower=True, lwork=lwork, overwrite_a=True)
    )
    tails = np.empty((n - 1) * (n - 2) // 2, dtype=A.dtype)
    for i, part in _tail_slices(n):
        tails[part] = A[i + 2 :, i]
    del A
    # dstevd takes an off-diagonal of length max(n - 1, 1)
    vals, Z = _lapack("tridiagonal eigensolve", stevd(diag, np.pad(off, (0, int(n == 1)))))
    # the back-transform runs on Z^H = Z_T^T Q^H, so Phi^H = Z^H L^-1 is
    # solved on column blocks; Z_T is real, so its transpose is the cheap one
    _conjugate_transpose(Z)
    Z = Z.astype(K.dtype, copy=False)
    # reflector i of the reduction has its implicit unit at row i + 1, so in
    # column j = i + 1 it is QR reflector j; reflector 0 is the identity
    # (tau 0), and Q^H then applies to all of Z_T^T, with no slice of V to copy
    V = np.zeros((n, n), dtype=K.dtype, order="F")
    for i, part in _tail_slices(n):
        V[i + 2 :, i + 1] = tails[part]
    del tails  # before ?ormqr/?unmqr allocates its n x nb workspace
    tau = np.concatenate([np.zeros(1, dtype=tau.dtype), tau])
    trans = "T" if real else "C"
    _, work = _lapack("Z^H workspace query", mqr("R", trans, V, tau, Z, -1, overwrite_c=True))
    Z, _ = _lapack("Z^H", mqr("R", trans, V, tau, Z, int(work[0].real), overwrite_c=True))
    del V
    _solve_band(L, Z, adjoint=False)
    _conjugate_transpose(Z)
    return vals, Z


#: eigenvector columns per panel of the eigenpair residual check
_RESIDUAL_PANEL = 64


def assemble(mesh: Mesh, coeffs: CoefficientField) -> DiscreteOperator:
    """Assemble (K, M) on the free nodes and attach the eigendecomposition.

    Parameters
    ----------
    mesh : Mesh
    coeffs : CoefficientField
        Checked when it was made; A must hold one dim x dim block per
        element of ``mesh``.

    Raises
    ------
    CoefficientError
        If A does not hold one dim x dim block per element of ``mesh``.
    PositivityError
        If the smallest generalized eigenvalue is not positive (potential
        too negative).
    AssemblyError
        If the stiffness or the eigenpairs break their contracts, or the
        eigensolve fails (M not positive definite, no convergence).
    """
    if coeffs.A.shape != (mesh.element_count, mesh.dim, mesh.dim):
        raise CoefficientError(f"A shape {coeffs.A.shape} does not match mesh")
    k_loc, m_loc = local_matrices(mesh, coeffs)
    boundary = mesh.boundary_nodes()
    free = np.setdiff1d(np.arange(mesh.node_count), boundary)
    node_to_dof = np.full(mesh.node_count, -1, dtype=np.intp)
    node_to_dof[free] = np.arange(free.size)
    K = _sparse_sum(mesh, k_loc)[np.ix_(free, free)]
    M = _sparse_sum(mesh, m_loc)[np.ix_(free, free)]

    check("stiffness Hermitian deviation", abs(K - K.conj().T).max() / abs(K).max(), AssemblyError)

    vals, vecs = _band_eigh(K, M)
    if vals[0] <= 0:
        raise PositivityError(float(vals[0]))

    # K phi_i = lambda_i M phi_i relative to lambda_i, with the M-orthonormal
    # column scaling the eigensolver already imposes; on C-ordered column
    # panels, which the sparse products read without copying the whole of Phi
    norms = np.empty(vals.size)
    for j in range(0, vals.size, _RESIDUAL_PANEL):
        cols = slice(j, j + _RESIDUAL_PANEL)
        panel = np.ascontiguousarray(vecs[:, cols])
        norms[cols] = np.linalg.norm(K @ panel - (M @ panel) * vals[cols], axis=0)
    residual = check("eigenpair residual", float((norms / vals).max()), AssemblyError)

    return DiscreteOperator(
        mesh=mesh,
        coeffs=coeffs,
        K=K,
        M=M,
        eigenvalues=vals,
        eigenvectors=vecs,
        eigen_residual=residual,
        free_nodes=free,
        node_to_dof=node_to_dof,
    )


def check_shared_exterior(first, second) -> None:
    """Require a shared mesh and equal coefficients off first's OMEGA elements.

    Reads only ``mesh`` and ``coeffs``, so it takes operators as well as the
    per-operator records the pair probes compare.
    """
    if first.coeffs.labels is None:
        raise ValueError("operator was assembled without region labels")
    if first.mesh is not second.mesh and not (
        np.array_equal(first.mesh.nodes, second.mesh.nodes)
        and np.array_equal(first.mesh.elements, second.mesh.elements)
    ):
        raise ValueError("operators do not share a mesh")
    outside = np.setdiff1d(
        np.arange(first.mesh.element_count), first.coeffs.labels.omega_elements
    )
    # a labelled field is plain off its OMEGA when made, so equal there means plain
    if not second.coeffs.plain(outside):
        raise ValueError("exterior coefficient mismatch")
