"""K and M are assembled as CSR, and products with them match the dense formulas.

The CSR assembly is checked against the dense node-by-node scatter it
replaced.  Each spectral function below once formed dense n x n products;
the reference here is that old formula.  Sparse sums run in another order
than dense GEMMs, so results agree to roundoff, not bit for bit: matrices
to 1e-12 relative to their largest entry, singular values to 1e-12 of the
largest (Weyl: a perturbation E moves every singular value by at most
||E||_2).
"""

import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from conftest import bundled_config

from fracred import operators
from fracred.calculus import apply_power, fractional_stiffness, power_matrix
from fracred.config import load_config, parse_config
from fracred.diagnostics import runge_rank, ucp_quotient
from fracred.dirichlet import (
    ExteriorData,
    cauchy_pair,
    dirichlet_energy,
    solve_exterior_value,
    stability_constant,
)
from fracred.gauge import Diffeo, pushforward_operator
from fracred.mesh import build_interval_mesh
from fracred.operators import (
    AssemblyError,
    CoefficientField,
    assemble,
    local_matrices,
    omega_interface,
)
from fracred.runner import run_suites

RTOL = 1e-12


@pytest.fixture(scope="module")
def magnetic2d(base2d) -> SimpleNamespace:
    """Complex Hermitian operator: a magnetic term on the OMEGA elements of base2d."""
    field = CoefficientField.build(base2d.mesh, labels=base2d.labels, b=[0.3, -0.5])
    return SimpleNamespace(
        mesh=base2d.mesh, labels=base2d.labels, op=assemble(base2d.mesh, field)
    )


@pytest.fixture(scope="module")
def moved2d(base2d) -> SimpleNamespace:
    """base2d transported by a radial shrink: a per-element weighted mass."""
    op = pushforward_operator(base2d.op, Diffeo.radial_shrink(base2d.mesh, 0.8, 0.8))
    return SimpleNamespace(mesh=op.mesh, labels=op.labels, op=op)


@pytest.fixture(params=["base2d", "magnetic2d"])
def scn(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(params=["base1d", "base2d", "magnetic2d", "moved2d"])
def assembled(request):
    return request.getfixturevalue(request.param).op


#: rect 30x30 on the baseline-2d geometry, 841 dofs, two operators
RECT30 = {
    "mesh": {"kind": "rect", "box": [[-2.0, 2.0], [-2.0, 2.0]], "nx": 30, "ny": 30},
    "regions": {
        "omega": [[-1.0, 1.0], [-1.0, 1.0]],
        "w": [[1.4, 1.75], [-0.6, 0.6]],
        "wtilde": [[-1.75, -1.4], [-0.6, 0.6]],
    },
    "operators": [{}, {"c": 5.0}],
    "a": [0.25, 0.5, 0.75],
    "quad": {"s_max": 4.0, "n": 200},
    "diffeo": {"rho": 0.8, "factor": 0.8},
    "seed": 42,
}


def assert_close(new, old):
    assert new.shape == old.shape
    assert np.abs(new - old).max() <= RTOL * np.abs(old).max()


def sigma_nodes(scn):
    e = scn.labels.e_nodes
    return e[scn.op.node_to_dof[e] >= 0]


def scatter(mesh, local):
    """The dense node-by-node scatter of element matrices that assembly
    used before CSR; the reference for the CSR sums."""
    full = np.zeros((mesh.node_count,) * 2, dtype=local.dtype)
    for i in range(mesh.dim + 1):
        for j in range(mesh.dim + 1):
            np.add.at(full, (mesh.elements[:, i], mesh.elements[:, j]), local[:, i, j])
    return full


def assert_sums_match(csr, mesh, local, rows, cols):
    """CSR entries against the dense scatter of the same element terms.

    Each entry is a recursive sum of its k terms; in any order the computed
    sum lies within gamma_{k-1} sum|terms| of the exact one (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 4.4), so
    two orders differ by at most 2 gamma_{k-1} sum|terms|.  A complex sum
    meets it part by part, and |re| + |im| terms add up to at most sum|terms|
    in modulus (Minkowski).  Returns the largest entry difference.
    """
    ix = np.ix_(rows, cols)
    k = scatter(mesh, np.ones(local.shape))[ix]
    magnitude = scatter(mesh, np.abs(local))[ix]
    ku = np.maximum(k - 1, 0) * np.finfo(float).eps / 2
    diff = np.abs(csr.toarray() - scatter(mesh, local)[ix])
    assert csr.shape == (len(rows), len(cols))
    assert np.all(diff <= 2 * ku / (1 - ku) * magnitude)
    return diff.max()


def assert_matches_dense_eigh(op):
    """The eigenpairs of ``assemble`` against the dense generalized ``eigh``.

    Both routes are backward stable, so by Weyl their eigenvalues agree to a
    small multiple of eps kappa(M) lambda_max.
    """
    vals = scipy.linalg.eigh(op.K.toarray(), op.M.toarray(), eigvals_only=True)
    assert np.abs(op.eigenvalues - vals).max() <= 1e-12 * vals[-1]
    phi = op.eigenvectors
    gram = phi.conj().T @ (op.M @ phi)
    assert np.abs(gram - np.eye(op.n_dofs)).max() <= 1e-12
    assert op.eigen_residual <= operators.CONTRACTS["eigenpair residual"]


def omega_terms(op):
    """Stiffness element matrices with every element off OMEGA zeroed."""
    k_loc, _ = local_matrices(op.mesh, op.coeffs)
    keep = np.zeros(op.mesh.element_count, dtype=bool)
    keep[op.labels.omega_elements] = True
    return np.where(keep[:, None, None], k_loc, 0.0)


class TestCsrTwins:
    """The CSR K and M against their dense twins: the element scatter, the
    dense eigen residual and the copies LAPACK factors."""

    def test_k_and_m_match_the_dense_scatter(self, assembled):
        op = assembled
        k_loc, m_loc = local_matrices(op.mesh, op.coeffs)
        free = op.free_nodes
        assert op.K.dtype == k_loc.dtype and op.M.dtype == float
        # the CSR sums run in the scatter's order, so they agree bit for bit
        assert assert_sums_match(op.K, op.mesh, k_loc, free, free) == 0.0
        assert assert_sums_match(op.M, op.mesh, m_loc, free, free) == 0.0

    def test_omega_rows_match_the_dense_scatter(self, assembled):
        op = assembled
        rows = op.free_nodes[op.boundary_omega_dofs()]
        got = omega_interface(op)[1]
        assert assert_sums_match(got, op.mesh, omega_terms(op), rows, op.free_nodes) == 0.0

    def test_hermitian_check_runs(self, base2d, monkeypatch):
        # skew one off-diagonal term of an element away from the box boundary
        mesh = base2d.mesh
        inner = ~np.isin(mesh.elements, mesh.boundary_nodes()).any(axis=1)
        e = np.flatnonzero(inner)[0]
        original = operators.local_matrices

        def skewed(*args, **kwargs):
            k_loc, m_loc = original(*args, **kwargs)
            k_loc[e, 0, 1] += 1e-6 * np.abs(k_loc).max()
            return k_loc, m_loc

        monkeypatch.setattr(operators, "local_matrices", skewed)
        with pytest.raises(AssemblyError, match="stiffness Hermitian deviation"):
            assemble(mesh, base2d.fields[0])

    def test_assembly_holds_no_dense_k_or_m(self):
        # the eigenvectors are the one n x n array left; the peak is the
        # tridiagonal eigensolve: its eigenvectors and n^2 divide-and-conquer
        # workspace beside the n^2 / 2 packed Householder tails
        cfg = parse_config(RECT30)
        mesh = cfg.build_mesh()
        field = cfg.build_fields(mesh, cfg.build_labels(mesh))[0]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            op = assemble(mesh, field)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        unit = 8.0 * op.n_dofs**2
        assert (held - before) / unit <= 1.2
        assert (peak - before) / unit <= 2.9

    def test_band_eigensolve_matches_dense_eigh(self, assembled):
        assert_matches_dense_eigh(assembled)
        assert assembled.eigen_residual > 0.0

    @pytest.mark.parametrize("cells", [2, 3, 4])
    def test_band_eigensolve_on_one_to_three_dofs(self, cells):
        # one dof pads the empty off-diagonal, two leave no Householder tail
        mesh = build_interval_mesh(-1.0, 1.0, cells)
        op = assemble(mesh, CoefficientField.build(mesh, c=2.0))
        assert op.n_dofs == cells - 1
        assert_matches_dense_eigh(op)

    def test_indefinite_mass_fails_its_factorization(self, base1d, monkeypatch):
        original = operators.local_matrices

        def negated(*args, **kwargs):
            k_loc, m_loc = original(*args, **kwargs)
            return k_loc, -m_loc

        monkeypatch.setattr(operators, "local_matrices", negated)
        with pytest.raises(AssemblyError, match="band Cholesky of the mass matrix"):
            assemble(base1d.mesh, base1d.fields[0])

    def test_magnetic_operator_is_complex(self, magnetic2d):
        assert not magnetic2d.op.is_real

    def test_eigen_residual_is_kept_and_within_contract(self, scn):
        op = scn.op
        R = op.K.toarray() @ op.eigenvectors - (op.M.toarray() @ op.eigenvectors) * op.eigenvalues
        dense = float((np.linalg.norm(R, axis=0) / op.eigenvalues).max())
        assert 0.0 < op.eigen_residual <= operators.CONTRACTS["eigenpair residual"]
        assert op.eigen_residual == pytest.approx(dense, rel=1e-3)

    def test_residual_check_runs(self, base2d, monkeypatch):
        # a zero tolerance leaves no room for roundoff: the check must raise
        monkeypatch.setitem(operators.CONTRACTS, "eigenpair residual", 0.0)
        with pytest.raises(AssemblyError, match="eigenpair residual"):
            assemble(base2d.mesh, base2d.fields[0])

    def test_assemble_json_records_the_health_numbers(self, tmp_path):
        cfg = load_config(bundled_config("perturbed-1d.json"))
        result = run_suites(cfg, out_dir=tmp_path, suites=["assemble"])
        assert result.ok
        report = json.loads((tmp_path / "assemble.json").read_text())["operators"]
        assert len(report) == 2
        for entry in report:
            assert 0.0 < entry["eigen_residual"] <= operators.CONTRACTS["eigenpair residual"]
            assert entry["spectral_condition"] == pytest.approx(
                entry["lambda_max"] / entry["lambda_min"], rel=1e-15
            )


@pytest.mark.parametrize("a", [0.25, 0.75])
class TestDenseEquivalence:
    def test_power_matrix(self, scn, a):
        op = scn.op
        phi = op.eigenvectors
        old = (phi * op.eigenvalues**a) @ (phi.conj().T @ op.M.toarray())
        assert_close(power_matrix(op, a), old)

    def test_fractional_stiffness(self, scn, a):
        op = scn.op
        G = op.M.toarray() @ power_matrix(op, a)
        assert_close(fractional_stiffness(op, a), 0.5 * (G + G.conj().T))

    def test_ucp_quotient(self, scn, a):
        op = scn.op
        sigma = sigma_nodes(scn)
        dofs = op.dofs_of_nodes(sigma)
        Wd = np.linalg.inv(np.linalg.cholesky(op.M.toarray())).T
        stacked = np.vstack([Wd[dofs], (power_matrix(op, a) @ Wd)[dofs]])
        old = scipy.linalg.svdvals(stacked)
        rep = ucp_quotient(op, a, sigma)
        assert rep.shape == stacked.shape
        assert rep.singular_values.shape == old.shape
        assert np.abs(rep.singular_values - old).max() <= RTOL * old[0]

    def test_runge_rank(self, scn, a):
        op = scn.op
        U = solve_exterior_value(op, a, ExteriorData.w_hats(op)).u
        R = (power_matrix(op, a) @ U)[op.region_dofs("E")]
        old = scipy.linalg.svdvals(R)
        rep = runge_rank(op, a, scn.labels)
        assert rep.shape == R.shape
        assert np.abs(rep.singular_values - old).max() <= RTOL * old[0]


def row_sets(op):
    """Interior, E and an unsorted scattered row set."""
    rng = np.random.default_rng(3)
    return [op.omega_interior_dofs(), op.region_dofs("E"), rng.permutation(op.n_dofs)[:17]]


@pytest.mark.parametrize("a", [0.25, 0.75])
class TestRows:
    """Rows of L^a and G against the whole matrices and the old dense formulas."""

    def test_power_matrix_rows(self, scn, a):
        op = scn.op
        phi = op.eigenvectors
        old = (phi * op.eigenvalues**a) @ (phi.conj().T @ op.M.toarray())
        full = power_matrix(op, a)
        for rows in row_sets(op):
            assert_close(power_matrix(op, a, rows), full[rows])
            assert_close(power_matrix(op, a, rows), old[rows])

    def test_fractional_stiffness_rows(self, scn, a):
        op = scn.op
        G = op.M.toarray() @ power_matrix(op, a)
        old = 0.5 * (G + G.conj().T)
        full = fractional_stiffness(op, a)
        for rows in row_sets(op):
            assert_close(fractional_stiffness(op, a, rows), full[rows])
            assert_close(fractional_stiffness(op, a, rows), old[rows])

    def test_cauchy_flux_rows(self, assembled, a):
        op = assembled
        sol = solve_exterior_value(op, a, ExteriorData.w_hats(op))
        got = cauchy_pair(op, a, sol).flux
        # the W-tilde flux is a near-cancelling sum (about 1e-4 here), so the
        # roundoff scale is the flux where it is largest, at the W hats
        full = apply_power(op, a, sol.u)
        want = full[op.region_dofs("WTILDE")]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= RTOL * np.abs(full).max()

    def test_dirichlet_energy_is_the_form_of_g(self, scn, a):
        op = scn.op
        rng = np.random.default_rng(4)
        u = rng.standard_normal(op.n_dofs)
        if not op.is_real:
            u = u + 1j * rng.standard_normal(op.n_dofs)
        want = np.vdot(u, fractional_stiffness(op, a) @ u).real
        assert dirichlet_energy(op, a, u) == pytest.approx(want, rel=RTOL)


class TestRowsOnly:
    def test_no_exponent_cache_entry_is_n_by_n(self, scn):
        op = assemble(scn.mesh, scn.op.coeffs)
        for a in (0.25, 0.5, 0.75):
            solve_exterior_value(op, a, ExteriorData.w_hats(op))
            stability_constant(op, a)
            runge_rank(op, a, scn.labels)
            ucp_quotient(op, a, sigma_nodes(scn))

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    yield from arrays(item)

        n = op.n_dofs
        per_exponent = [
            value for key, value in op._cache.items()
            if isinstance(key, tuple) and any(isinstance(k, float) for k in key)
        ]
        assert len(per_exponent) == 3
        # not even the n-column interior rows G[I, :]: the solve reads G[I, W]
        shapes = [x.shape for value in per_exponent for x in arrays(value)]
        assert shapes and all(shape[-1] != n for shape in shapes)

    def test_complex_products_copy_no_eigenbasis(self, magnetic2d):
        # Phi^H y as conj(Phi^T conj(y)): only k x n temporaries, where
        # Phi.conj() would copy all n^2 complex entries of Phi
        op = magnetic2d.op
        assert not op.is_real
        v = np.random.default_rng(5).standard_normal(op.n_dofs)
        rows = np.arange(0, op.n_dofs, 40)
        unit = 16.0 * op.n_dofs**2
        for form in (lambda: apply_power(op, 0.5, v), lambda: power_matrix(op, 0.5, rows)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                form()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (peak - before) / unit < 0.25

    def test_two_operator_rect_ladder_run(self, tmp_path):
        # the probes-2d geometry with a second operator: every suite, 841 dofs
        cfg = parse_config(RECT30)
        result = run_suites(cfg, out_dir=tmp_path)
        assert result.failures == []
        assert result.ok
        assert json.loads((tmp_path / "manifest.json").read_text())["suites_skipped"] == []


@pytest.mark.parametrize(
    "config, operators",
    [("baseline-1d.json", [{"b": [0.7]}]), ("perturbed-1d.json", [{}, {"b": [0.7], "c": 1.0}])],
)
def test_magnetic_scenario_runs_every_suite_deterministically(config, operators, tmp_path):
    # b != 0 takes the complex eigensolve (hetrd, unmqr) and probe layer end to end
    with open(bundled_config(config)) as fh:
        raw = json.load(fh)
    raw["operators"] = operators
    first = run_suites(parse_config(raw), out_dir=tmp_path / "first")
    assert first.failures == []
    assert json.loads((tmp_path / "first" / "manifest.json").read_text())["suites_skipped"] == []
    report = json.loads((tmp_path / "first" / "assemble.json").read_text())["operators"]
    assert [entry["complex"] for entry in report] == ["b" in spec for spec in operators]
    again = run_suites(parse_config(raw), out_dir=tmp_path / "again")
    assert again.outputs == first.outputs
    for name in first.outputs:
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()
