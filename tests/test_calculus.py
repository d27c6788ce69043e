"""Fractional calculus: quadrature calibration, spectral routes, kernels.

The independent oracles here are scipy.special.gamma for the reflection
constant, scipy.integrate.quad for the singular time integral, and
scipy.linalg.fractional_matrix_power for the operator power itself; the
library's quadrature and spectral routes must agree with all three.
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fracred.calculus import (
    QuadratureError,
    TimeQuadrature,
    apply_inverse,
    apply_power,
    apply_spectral,
    calibration_rows,
    fractional_stiffness,
    gamma_neg,
    heat_kernel_entry,
    kernel_Ka,
    kernel_gaussian_reference,
    min_element_diameter,
    power_matrix,
    power_via_heat_quadrature,
)
from fracred.diagnostics import ucp_quotient
from fracred.dirichlet import dirichlet_energy
from fracred.mesh import build_interval_mesh, build_rect_mesh
from fracred.operators import CONTRACTS, CoefficientField, assemble


def small_op(n=24, lo=0.0, hi=1.0, **kw):
    mesh = build_interval_mesh(lo, hi, n)
    return assemble(mesh, CoefficientField.build(mesh, **kw))


def small_rect_op(nx=6, ny=5, **kw):
    mesh = build_rect_mesh([[0, 1], [0, 1]], nx, ny)
    return assemble(mesh, CoefficientField.build(mesh, **kw))


def seeded_vectors(op, count, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(op.n_dofs) for _ in range(count)]


class TestGammaConstant:
    @pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_matches_reflection_oracle(self, a):
        assert gamma_neg(a) == pytest.approx(scipy.special.gamma(-a), rel=1e-14)

    def test_is_negative_on_the_open_interval(self):
        for a in np.linspace(0.05, 0.95, 19):
            assert gamma_neg(a) < 0


#: entry point -> call at exponent a on a small interval operator
EXPONENT_ENTRY_POINTS = {
    "apply_power": lambda op, a: apply_power(op, a, np.ones(op.n_dofs)),
    "power_matrix": lambda op, a: power_matrix(op, a, [0]),
    "fractional_stiffness": lambda op, a: fractional_stiffness(op, a, [0]),
    "dirichlet_energy": lambda op, a: dirichlet_energy(op, a, np.ones(op.n_dofs)),
    "ucp_quotient": lambda op, a: ucp_quotient(op, a, op.free_nodes[:2]),
    "power_via_heat_quadrature": lambda op, a: power_via_heat_quadrature(
        op, a, np.ones(op.n_dofs), TimeQuadrature()
    ),
    "kernel_Ka": lambda op, a: kernel_Ka(op, a, op.free_nodes[0], op.free_nodes[5], TimeQuadrature()),
    "gamma_neg": lambda op, a: gamma_neg(a),
}

#: entry points that need a in (0, 1); the others take a in [-1, 1]
OPEN_RANGE = ("power_via_heat_quadrature", "kernel_Ka", "gamma_neg")


@pytest.mark.parametrize(
    "name, a",
    [(name, a) for name in EXPONENT_ENTRY_POINTS for a in (-1.5, 1.5)]
    + [(name, a) for name in OPEN_RANGE for a in (0.0, 1.0)],
)
def test_exponent_entry_points_reject_out_of_range(name, a):
    with pytest.raises(ValueError, match="exponent") as info:
        EXPONENT_ENTRY_POINTS[name](small_op(8), a)
    assert type(info.value) is ValueError


class TestScalarQuadrature:
    def test_matches_quad_oracle(self, quad):
        # adaptive reference for the singular integral, scaled by 1/Gamma(-a);
        # split at 1/lam so the estimator separates singularity and tail
        for lam, a in [(1.0, 0.5), (10.0, 0.25), (250.0, 0.75)]:
            fn = lambda t: np.expm1(-t * lam) * t ** (-1 - a)
            r1, e1 = scipy.integrate.quad(fn, 0, 1 / lam, limit=400)
            r2, e2 = scipy.integrate.quad(fn, 1 / lam, np.inf, limit=400)
            assert e1 + e2 < 1e-8 * abs(r1 + r2)
            want = (r1 + r2) / gamma_neg(a)
            got = float(quad.scalar_power(lam, a))
            assert got == pytest.approx(want, rel=1e-8)
            assert got == pytest.approx(lam**a, rel=1e-8)

    def test_calibration_over_wide_range(self, quad):
        lam = np.geomspace(1e-2, 1e5, 30)
        for a in (0.25, 0.5, 0.75):
            worst = max(rel for *_, rel in calibration_rows(quad, lam, a))
            assert worst < CONTRACTS["calibration error"]

    def test_calibration_rows_match_scalar_calls(self, quad):
        # the table is evaluated in one array call; every row must equal the
        # per-lambda scalar evaluation bit for bit
        lam = np.geomspace(0.5, 5e3, 11)
        for a in (0.25, 0.5, 0.75):
            for want, (got, exact, approx, rel) in zip(lam, calibration_rows(quad, lam, a)):
                assert (got, exact) == (want, want**a)
                assert approx == float(quad.scalar_power(want, a))
                assert rel == abs(approx - exact) / exact

    def test_ensure_calibrated_raises_for_coarse_grid(self):
        bad = TimeQuadrature(s_max=4.0, n=12)
        with pytest.raises(QuadratureError):
            bad.ensure_calibrated(0.5, 5e3, 0.5)

    def test_ensure_calibrated_rejects_nan_error(self, monkeypatch):
        # a NaN error must break the contract, not slip past a `value > bound` test
        monkeypatch.setattr(TimeQuadrature, "scalar_power", lambda self, lam, a: np.full(np.shape(lam), np.nan))
        with pytest.raises(QuadratureError):
            TimeQuadrature().ensure_calibrated(1.0, 100.0, 0.5)

    def test_parameter_validation(self):
        with pytest.raises(QuadratureError):
            TimeQuadrature(s_max=-1.0)
        with pytest.raises(QuadratureError):
            TimeQuadrature(n=1)

    def test_nan_s_max_rejected(self):
        # NaN fails no `<=` test, and its nodes make every scalar_power NaN
        with pytest.raises(QuadratureError, match="bad quadrature parameters"):
            TimeQuadrature(float("nan"), 200)

    def test_s_max_whose_end_node_overflows_is_rejected(self):
        # t = exp(pi sinh s) leaves the doubles for s above about 6.113
        with pytest.raises(QuadratureError, match="overflows"):
            TimeQuadrature(6.2)
        assert np.all(np.isfinite(TimeQuadrature(6.1).t))

    @given(a=st.floats(0.2, 0.8), lam=st.floats(0.1, 1e4))
    @settings(max_examples=40, deadline=None)
    def test_scalar_power_property(self, a, lam):
        # the default grid truncates t at exp(+-pi sinh 4); the leftover is
        # ~t_min^(1-a) as a -> 1 and ~t_max^(-a)/a as a -> 0, so 1e-6
        # accuracy holds on the working band [0.2, 0.8] and degrades outside
        quad = TimeQuadrature()
        assert float(quad.scalar_power(lam, a)) == pytest.approx(lam**a, rel=1e-6)


class TestSpectralRoutes:
    def test_matches_matrix_power_oracle(self):
        op = small_op()
        v = seeded_vectors(op, 1)[0]
        Lmat = np.linalg.solve(op.M.toarray(), op.K.toarray())
        for a in (0.25, 0.5, 0.75):
            want = scipy.linalg.fractional_matrix_power(Lmat, a) @ v
            got = apply_power(op, a, v)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_power_via_heat_quadrature_agrees(self, quad):
        op = small_op()
        for a in (0.25, 0.5, 0.75):
            for v in seeded_vectors(op, 3):
                direct = apply_power(op, a, v)
                viaheat = power_via_heat_quadrature(op, a, v, quad)
                rel = np.linalg.norm(viaheat - direct) / np.linalg.norm(direct)
                assert rel < 1e-6

    def test_power_via_heat_quadrature_at_window_nodes(self, base1d, quad):
        op = base1d.op
        u = np.random.default_rng(7).standard_normal(op.n_dofs)
        dofs = op.dofs_of_nodes(base1d.labels.node_set("W")[:4])
        got = power_via_heat_quadrature(op, 0.5, u, quad)[dofs]
        np.testing.assert_allclose(got, apply_power(op, 0.5, u)[dofs], rtol=1e-9)

    def test_power_via_heat_quadrature_single_mode_matches_adaptive_quadrature(self, base1d, quad):
        # oracle: on one eigenvector the route reduces to the scalar integral
        # of expm1(-lam t) t^(-1-a), scaled by 1/Gamma(-a)
        op = base1d.op
        k, a = 3, 0.5
        u = op.eigenvectors[:, k].copy()
        lam = float(op.eigenvalues[k])
        dof = op.dofs_of_nodes(int(base1d.labels.node_set("W")[0]))[0]
        got = power_via_heat_quadrature(op, a, u, quad)[dof]
        fn = lambda t: np.expm1(-t * lam) * t ** (-1 - a)
        r1, _ = scipy.integrate.quad(fn, 0, 1 / lam, limit=400)
        r2, _ = scipy.integrate.quad(fn, 1 / lam, np.inf, limit=400)
        assert got == pytest.approx((r1 + r2) / gamma_neg(a) * u[dof], rel=1e-8)

    def test_exponent_group_law(self):
        op = small_op()
        v = seeded_vectors(op, 1)[0]
        w = apply_power(op, 0.25, apply_power(op, 0.5, v))
        np.testing.assert_allclose(w, apply_power(op, 0.75, v), rtol=1e-10)

    def test_unit_exponent_is_the_operator(self):
        op = small_op()
        v = seeded_vectors(op, 1)[0]
        np.testing.assert_allclose(
            apply_power(op, 1.0, v), np.linalg.solve(op.M.toarray(), op.K @ v), rtol=1e-9
        )

    def test_zero_exponent_is_identity(self):
        op = small_op()
        v = seeded_vectors(op, 1)[0]
        np.testing.assert_allclose(apply_power(op, 0.0, v), v)

    @pytest.mark.parametrize(
        "build, kw",
        [(small_op, {}), (small_op, {"b": [0.4]}), (small_rect_op, {"b": [0.3, -0.2]})],
        ids=["interval", "magnetic-interval", "magnetic-rect"],
    )
    def test_negative_power_inverts(self, build, kw):
        # the banded K factor on real and complex Hermitian bands, 1-D and 2-D
        op = build(**kw)
        v = seeded_vectors(op, 1)[0]
        np.testing.assert_allclose(
            apply_power(op, -1.0, v), apply_inverse(op, v)[0], rtol=1e-10
        )

    def test_power_matrix_repeatable_and_consistent(self):
        op = small_op()
        P1 = power_matrix(op, 0.5)
        assert np.array_equal(power_matrix(op, 0.5), P1)
        v = seeded_vectors(op, 1)[0]
        np.testing.assert_allclose(P1 @ v, apply_power(op, 0.5, v), rtol=1e-11)

    def test_fractional_stiffness_hermitian(self):
        op = small_op(b=[0.4])
        G = fractional_stiffness(op, 0.5)
        np.testing.assert_allclose(G, G.conj().T, atol=1e-13)

    def test_spectral_function_heat(self):
        op = small_op()
        v = seeded_vectors(op, 1)[0]
        want = scipy.linalg.expm(-0.1 * np.linalg.solve(op.M.toarray(), op.K.toarray())) @ v
        np.testing.assert_allclose(apply_spectral(op, np.exp(-0.1 * op.eigenvalues), v), want, rtol=1e-12)

    def test_spectral_function_rejects_nonfinite(self):
        op = small_op()
        v = seeded_vectors(op, 1)[0]
        lam = op.eigenvalues
        with np.errstate(divide="ignore"):
            values = 1.0 / (lam - lam[0])
        with pytest.raises(ValueError, match="not finite"):
            apply_spectral(op, values, v)


class TestHeatSemigroup:
    @given(t=st.floats(1e-4, 1.0), s=st.floats(1e-4, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_semigroup_law(self, t, s):
        op = small_op(8)
        v = np.ones(op.n_dofs)

        def heat(t, v):
            return apply_spectral(op, np.exp(-t * op.eigenvalues), v)

        one = heat(t, heat(s, v))
        two = heat(t + s, v)
        np.testing.assert_allclose(one, two, rtol=1e-10, atol=1e-300)

    def test_kernel_entry_symmetric(self):
        op = small_op(40, -1.0, 1.0)
        x, z = op.free_nodes[10], op.free_nodes[25]
        assert heat_kernel_entry(op, 0.02, x, z) == pytest.approx(
            heat_kernel_entry(op, 0.02, z, x), rel=1e-12
        )

    def test_kernel_entry_matches_matrix_exponential(self):
        # oracle: the (x, z) entry of expm(-t M^-1 K) M^-1 on the free dofs
        op = small_op(12, -1.0, 1.0, c=2.0)
        M, K = op.M.toarray(), op.K.toarray()
        t = 0.03
        p = scipy.linalg.expm(-t * np.linalg.solve(M, K)) @ np.linalg.inv(M)
        for x, z in [(3, 3), (3, 7), (9, 2)]:
            dx, dz = op.dofs_of_nodes([x, z])
            assert heat_kernel_entry(op, t, x, z) == pytest.approx(p[dx, dz], rel=1e-10)


class TestSingularKernel:
    def test_positive_and_symmetric(self, fine1d, quad):
        op = fine1d.op
        nodes = op.free_nodes
        pick = nodes[np.isin(nodes, np.flatnonzero(np.abs(op.mesh.nodes.ravel()) < 1.5))]
        x, z = pick[0], pick[40]
        kxz = kernel_Ka(op, 0.5, x, z, quad)
        kzx = kernel_Ka(op, 0.5, z, x, quad)
        assert kxz > 0
        assert kxz == pytest.approx(kzx, rel=1e-10)

    def test_free_space_law_midrange(self, fine1d, quad):
        # nodes two units from the truncation boundary, r in [0.2, 1]
        op = fine1d.op
        xs = op.mesh.nodes.ravel()
        a = 0.5
        x = int(np.flatnonzero(xs == -0.5)[0])
        for r in (0.2, 0.5, 1.0):
            z = int(np.flatnonzero(np.isclose(xs, -0.5 + r))[0])
            got = kernel_Ka(op, a, x, z, quad)
            want = kernel_gaussian_reference(a, r, dim=1)
            assert got == pytest.approx(want, rel=0.05)

    def test_reference_kernel_closed_form(self):
        # 4^a Gamma(n/2 + a) / (pi^(n/2) |Gamma(-a)|) r^(-n-2a) at n = 1
        a, r = 0.5, 0.3
        want = (
            4**a
            * scipy.special.gamma(0.5 + a)
            / (np.sqrt(np.pi) * abs(scipy.special.gamma(-a)))
            * r ** (-1 - 2 * a)
        )
        assert kernel_gaussian_reference(a, r, dim=1) == pytest.approx(want, rel=1e-13)

    def test_coincident_nodes_rejected(self, fine1d, quad):
        op = fine1d.op
        x = op.free_nodes[5]
        with pytest.raises(ValueError):
            kernel_Ka(op, 0.5, x, x, quad)

    def test_t_floor_default(self, fine1d):
        assert min_element_diameter(fine1d.mesh) == pytest.approx(0.01)


class TestInnerProducts:
    """fractional_stiffness is the matrix of the form B(u, w) = <L^a u, w>_M."""

    def test_bilinear_form_symmetric(self):
        op = small_op()
        u, w = seeded_vectors(op, 2)
        G = fractional_stiffness(op, 0.5)
        assert np.vdot(w, G @ u) == pytest.approx(np.vdot(u, G @ w), rel=1e-12)

    def test_bilinear_form_spectral_value(self):
        op = small_op()
        u = seeded_vectors(op, 1)[0]
        coeff = op.spectral_coefficients(u)
        want = float(np.sum(op.eigenvalues**0.5 * np.abs(coeff) ** 2))
        got = np.vdot(u, fractional_stiffness(op, 0.5) @ u)
        assert got == pytest.approx(want, rel=1e-12)
