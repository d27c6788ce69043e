"""Assembly of the generalized eigenproblem: exactness, validation, spectra."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracred.mesh import build_interval_mesh, build_rect_mesh, label_regions
from fracred.operators import (
    CoefficientError,
    CoefficientField,
    PositivityError,
    assemble,
)


def plain_op(n_cells=16, lo=0.0, hi=1.0):
    mesh = build_interval_mesh(lo, hi, n_cells)
    return assemble(mesh, CoefficientField.build(mesh))


class TestHandComputedInterval:
    """Two cells on (0, 1): a single free node with closed-form matrices."""

    def setup_method(self):
        mesh = build_interval_mesh(0.0, 1.0, 2)
        self.op = assemble(mesh, CoefficientField.build(mesh))

    def test_stiffness(self):
        # 1/h + 1/h with h = 1/2
        np.testing.assert_allclose(self.op.K.toarray(), [[4.0]])

    def test_mass(self):
        # int of the hat squared over both cells: 2 h / 3
        np.testing.assert_allclose(self.op.M.toarray(), [[1.0 / 3.0]])

    def test_eigenvalue(self):
        np.testing.assert_allclose(self.op.eigenvalues, [12.0])

    def test_eigenvector_mass_normalized(self):
        phi = self.op.eigenvectors[:, 0]
        np.testing.assert_allclose(phi @ self.op.M @ phi, 1.0)


class TestAssemblyInvariants:
    def test_stiffness_row_sums_vanish_without_potential(self):
        # constants are in the kernel of the pure second-order part
        mesh = build_interval_mesh(-1.0, 1.0, 20)
        k_full_rows = []
        op = assemble(mesh, CoefficientField.build(mesh))
        ones = np.ones(op.n_dofs)
        # interior rows away from the constrained boundary see the full kernel
        resid = (op.K @ ones)[2:-2]
        np.testing.assert_allclose(resid, 0.0, atol=1e-13)

    def test_mass_total(self):
        mesh = build_rect_mesh([[0, 1], [0, 1]], 8, 8)
        op = assemble(mesh, CoefficientField.build(mesh))
        # free-node hats integrate to strictly less than the box area
        total = op.M.sum()
        assert 0 < total < 1.0

    def test_spectrum_sorted_positive(self):
        op = plain_op(32)
        assert op.eigenvalues[0] > 0
        assert np.all(np.diff(op.eigenvalues) >= 0)

    def test_dirichlet_laplacian_spectrum(self):
        # lowest continuum eigenvalues pi^2 k^2 on (0, 1), within O(h^2)
        op = plain_op(128)
        exact = np.pi**2 * np.arange(1, 5) ** 2
        rel = np.abs(op.eigenvalues[:4] - exact) / exact
        assert rel.max() < 2e-3

    def test_2d_dirichlet_spectrum(self):
        mesh = build_rect_mesh([[0, 1], [0, 1]], 16, 16)
        op = assemble(mesh, CoefficientField.build(mesh))
        exact = np.pi**2 * np.array([2.0, 5.0, 5.0])
        rel = np.abs(op.eigenvalues[:3] - exact) / exact
        # the one-diagonal split breaks the symmetric pair at O(h^2)
        assert rel.max() < 3e-2

    def test_mass_density_scales_m(self):
        mesh = build_interval_mesh(0.0, 1.0, 16)
        field = CoefficientField.build(mesh)
        op1 = assemble(mesh, field)
        op2 = assemble(mesh, dataclasses.replace(field, w=np.full(16, 2.0)))
        np.testing.assert_allclose(op2.M.toarray(), 2.0 * op1.M.toarray())
        np.testing.assert_allclose(op2.K.toarray(), op1.K.toarray())

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_conductivity_scaling(self, scale):
        mesh = build_interval_mesh(0.0, 1.0, 8)
        op1 = assemble(mesh, CoefficientField.build(mesh))
        op2 = assemble(mesh, CoefficientField.build(mesh, A=scale))
        np.testing.assert_allclose(op2.K.toarray(), scale * op1.K.toarray(), rtol=1e-13)


class TestMagneticAndPotential:
    def test_magnetic_term_is_hermitian(self):
        mesh = build_interval_mesh(-1.0, 1.0, 24)
        op = assemble(mesh, CoefficientField.build(mesh, b=[0.7]))
        assert np.iscomplexobj(op.K)
        np.testing.assert_allclose(op.K.toarray(), op.K.toarray().conj().T, atol=1e-14)
        assert np.all(np.isreal(op.eigenvalues))

    def test_magnetic_2d(self):
        mesh = build_rect_mesh([[-1, 1], [-1, 1]], 6, 6)
        op = assemble(mesh, CoefficientField.build(mesh, b=[0.3, -0.5]))
        np.testing.assert_allclose(op.K.toarray(), op.K.toarray().conj().T, atol=1e-14)
        assert op.eigenvalues[0] > 0

    def test_potential_shifts_spectrum(self):
        mesh = build_interval_mesh(0.0, 1.0, 32)
        op0 = assemble(mesh, CoefficientField.build(mesh))
        opc = assemble(mesh, CoefficientField.build(mesh, c=3.0))
        # c = const shifts every generalized eigenvalue by exactly c
        np.testing.assert_allclose(opc.eigenvalues, op0.eigenvalues + 3.0, rtol=1e-10)

    def test_strongly_negative_potential_rejected(self):
        mesh = build_interval_mesh(0.0, 1.0, 16)
        with pytest.raises(PositivityError):
            assemble(mesh, CoefficientField.build(mesh, c=-1e6))


class TestCoefficientValidation:
    def test_asymmetric_conductivity_rejected(self):
        mesh = build_rect_mesh([[0, 1], [0, 1]], 4, 4)
        with pytest.raises(CoefficientError):
            CoefficientField.build(mesh, A=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_conductivity_rejected(self):
        mesh = build_rect_mesh([[0, 1], [0, 1]], 4, 4)
        with pytest.raises(CoefficientError):
            CoefficientField.build(mesh, A=np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_observed_bound(self):
        mesh = build_interval_mesh(0.0, 1.0, 8)
        field = CoefficientField.build(mesh, A=4.0)
        assert field.bound == pytest.approx(4.0)

    @pytest.mark.parametrize("dim, name, value, shape", [
        (2, "b", 0.5, "()"),
        (2, "b", [0.5], r"\(1,\)"),
        (2, "b", [0.1, 0.2, 0.3], r"\(3,\)"),
        (2, "b", np.zeros((32, 2)), r"\(32, 2\)"),
        (1, "b", 0.7, "()"),
        (2, "c", [1.0, 2.0], r"\(2,\)"),
        (2, "c", np.ones(32), r"\(32,\)"),
        (1, "c", [3.0], r"\(1,\)"),
        (2, "A", np.eye(3), r"\(3, 3\)"),
    ], ids=["b-scalar", "b-one-entry", "b-long", "b-stack", "b-scalar-1d", "c-pair",
            "c-per-element", "c-one-entry-1d", "A-3x3"])
    def test_malformed_coefficient_shape_rejected(self, dim, name, value, shape):
        # b must be one (dim,) vector and c one scalar: a scalar or one-entry
        # b was broadcast to every component, and a c of another length
        # escaped as numpy's broadcast ValueError
        mesh = build_rect_mesh([[0, 1], [0, 1]], 4, 4) if dim == 2 else build_interval_mesh(0.0, 1.0, 8)
        with pytest.raises(CoefficientError, match=f"bad {name} shape {shape}"):
            CoefficientField.build(mesh, **{name: value})

    def test_coefficients_confined_to_omega(self):
        mesh = build_interval_mesh(-2.0, 2.0, 80)
        labels = label_regions(mesh, (-1, 1), (1.05, 1.8), (-1.95, -1.05))
        field = CoefficientField.build(mesh, labels=labels, A=3.0, c=1.0)
        outside = np.setdiff1d(np.arange(80), labels.omega_elements)
        assert np.all(field.A[outside] == np.eye(1))
        assert np.all(field.A[labels.omega_elements] == 3.0 * np.eye(1))
        assert np.all(field.c[outside] == 0)
        assert np.all(field.c[labels.omega_elements] == 1.0)
        assert np.all(field.w == 1.0)

    @pytest.mark.parametrize("w, match", [
        (np.full(80, -1.0), "positive"),
        (np.zeros(80), "positive"),
        (np.ones(79), "shape"),
        (np.ones((80, 1)), "shape"),
    ])
    def test_bad_mass_weight_rejected(self, w, match):
        mesh = build_interval_mesh(-2.0, 2.0, 80)
        field = dataclasses.replace(CoefficientField.build(mesh), w=w)
        with pytest.raises(CoefficientError, match=match):
            field.validate(mesh)

    @pytest.mark.parametrize("name, value", [
        ("A", np.nan), ("b", np.inf), ("c", np.nan), ("w", np.inf),
    ])
    def test_non_finite_coefficient_rejected(self, name, value):
        # on one OMEGA element, where every coefficient may vary; NaN and inf
        # pass every ordering test, so each reached LAPACK or a later check
        mesh = build_interval_mesh(-2.0, 2.0, 80)
        labels = label_regions(mesh, (-1, 1), (1.05, 1.8), (-1.95, -1.05))
        field = CoefficientField.build(mesh, labels=labels)
        bad = getattr(field, name).copy()
        bad[labels.omega_elements[0]] = value
        with pytest.raises(CoefficientError, match=f"{name} must be finite"):
            assemble(mesh, dataclasses.replace(field, **{name: bad}))

    def test_labelled_mass_weight_confined_to_omega(self):
        mesh = build_interval_mesh(-2.0, 2.0, 80)
        labels = label_regions(mesh, (-1, 1), (1.05, 1.8), (-1.95, -1.05))
        field = CoefficientField.build(mesh, labels=labels)
        inside = field.w.copy()
        inside[labels.omega_elements] = 2.0
        dataclasses.replace(field, w=inside).validate(mesh)
        outside = field.w.copy()
        outside[np.setdiff1d(np.arange(80), labels.omega_elements)[0]] = 2.0
        with pytest.raises(CoefficientError, match="w must be 1 off OMEGA"):
            assemble(mesh, dataclasses.replace(field, w=outside))
