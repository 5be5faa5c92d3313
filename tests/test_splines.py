"""Cubic B-spline evaluation against independent recursions, and the basis Gram."""

import numpy as np
import pytest
from scipy.special import comb

from ppfilt.splines import (
    basis_eval_matrix,
    basis_gram,
    eval_compact,
    make_basis,
)


def naive_cox_de_boor(knots, j, p, x):
    """Textbook recursive B-spline definition (half-open intervals)."""
    if p == 0:
        return 1.0 if knots[j] <= x < knots[j + 1] else 0.0
    out = 0.0
    d1 = knots[j + p] - knots[j]
    if d1 > 0:
        out += (x - knots[j]) / d1 * naive_cox_de_boor(knots, j, p - 1, x)
    d2 = knots[j + p + 1] - knots[j + 1]
    if d2 > 0:
        out += (knots[j + p + 1] - x) / d2 * naive_cox_de_boor(knots, j + 1, p - 1, x)
    return out


class TestMakeBasis:
    def test_standard_configuration(self):
        basis = make_basis(0.4, 33)
        assert basis.q == 33
        assert basis.knots[0] == 0.0
        assert basis.knots[-1] == 0.4
        assert len(basis.knots) == 33 + 4

    def test_too_few_functions(self):
        with pytest.raises(ValueError):
            make_basis(1.0, 3)

    def test_partition_of_unity(self):
        basis = make_basis(0.4, 12)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 0.4, size=100)
        rows = basis_eval_matrix(basis, x)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_q4_is_bernstein(self):
        a = 1.25
        basis = make_basis(a, 4)
        x = np.linspace(0, a, 17)
        u = x / a
        rows = basis_eval_matrix(basis, x)
        for j in range(4):
            bernstein = comb(3, j) * u**j * (1 - u) ** (3 - j)
            np.testing.assert_allclose(rows[:, j], bernstein, atol=1e-13)


class TestEvalMatrix:
    def test_row_sums_one(self):
        basis = make_basis(1.0, 9)
        grid = np.linspace(0, 1, 41)
        rows = basis_eval_matrix(basis, grid)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_at_most_four_nonzeros_per_row(self):
        basis = make_basis(1.0, 20)
        rows = basis_eval_matrix(basis, np.linspace(0, 1, 101))
        assert (np.count_nonzero(rows, axis=1) <= 4).all()

    def test_matches_naive_recursion(self):
        basis = make_basis(1.0, 8)
        # interior points only: the naive recursion is blind at the right endpoint
        x = np.linspace(0.013, 0.987, 23)
        rows = basis_eval_matrix(basis, x)
        for i, xi in enumerate(x):
            for j in range(basis.q):
                assert rows[i, j] == pytest.approx(
                    naive_cox_de_boor(basis.knots, j, 3, xi), abs=1e-12
                )

    def test_knot_values_match_naive_recursion(self):
        basis = make_basis(1.0, 7)
        interior_knots = np.unique(basis.knots)[1:-1]
        rows = basis_eval_matrix(basis, interior_knots)
        for i, xi in enumerate(interior_knots):
            for j in range(basis.q):
                assert rows[i, j] == pytest.approx(
                    naive_cox_de_boor(basis.knots, j, 3, xi), abs=1e-12
                )

    def test_outside_support_rejected(self):
        basis = make_basis(1.0, 6)
        with pytest.raises(ValueError):
            basis_eval_matrix(basis, np.array([1.2]))

    def test_derivatives_match_finite_differences(self):
        basis = make_basis(1.0, 10)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.05, 0.95, size=40)
        h = 1e-6
        d0_plus = basis_eval_matrix(basis, x + h)
        d0_minus = basis_eval_matrix(basis, x - h)
        d1 = basis_eval_matrix(basis, x, order=1)
        np.testing.assert_allclose(d1, (d0_plus - d0_minus) / (2 * h), atol=1e-4)
        d1_plus = basis_eval_matrix(basis, x + h, order=1)
        d1_minus = basis_eval_matrix(basis, x - h, order=1)
        d2 = basis_eval_matrix(basis, x, order=2)
        np.testing.assert_allclose(d2, (d1_plus - d1_minus) / (2 * h), atol=1e-3)

    def test_compact_layout(self):
        basis = make_basis(1.0, 15)
        x = np.array([0.33, 0.77])
        first, vals = eval_compact(basis, x)
        dense = basis_eval_matrix(basis, x)
        for i in range(len(x)):
            np.testing.assert_allclose(dense[i, first[i] : first[i] + 4], vals[i])


class TestBasisGram:
    def test_symmetric(self):
        factor = basis_gram(make_basis(0.4, 10))
        np.testing.assert_array_equal(factor.gram, factor.gram.T)

    def test_affine_combinations_unpenalized(self):
        basis = make_basis(0.4, 12)
        factor = basis_gram(basis, "second_derivative")
        # Greville abscissae (knot averages): coefficients a + b * greville
        # reproduce the line a + b x
        t = basis.knots
        greville = np.array([t[j + 1 : j + 4].mean() for j in range(basis.q)])
        for a, b in [(1.0, 0.0), (0.0, 1.0), (2.0, -3.0)]:
            coefs = a + b * greville
            energy = coefs @ factor.gram @ coefs
            assert abs(energy) <= 1e-6 * np.linalg.norm(factor.gram)

    def test_q4_entries_match_trapezoid_oracle(self):
        basis = make_basis(1.0, 4)
        factor = basis_gram(basis, "second_derivative")
        x = np.linspace(0, 1, 100_001)
        d2 = basis_eval_matrix(basis, x, order=2)
        oracle = np.empty((4, 4))
        for k in range(4):
            for l in range(4):
                oracle[k, l] = np.trapezoid(d2[:, k] * d2[:, l], x)
        core = factor.gram - factor.ridge * np.eye(4)
        np.testing.assert_allclose(core, oracle, rtol=1e-8, atol=1e-8)

    def test_sobolev_inner_product_positive_definite(self):
        factor = basis_gram(make_basis(0.4, 9), "sobolev2")
        eigvals = np.linalg.eigvalsh(factor.gram)
        assert eigvals.min() > 0

    def test_factor_reconstructs_gram(self):
        factor = basis_gram(make_basis(0.4, 20))
        err = np.linalg.norm(factor.factor @ factor.factor.T - factor.gram)
        assert err <= 1e-8 * np.linalg.norm(factor.gram)

    def test_isometry(self):
        factor = basis_gram(make_basis(0.4, 11), "second_derivative")
        rng = np.random.default_rng(2)
        for _ in range(20):
            beta0 = rng.normal(size=11)
            beta = factor.factor.T @ beta0
            assert beta @ beta == pytest.approx(beta0 @ factor.gram @ beta0, rel=1e-8)

    def test_unknown_inner_product(self):
        with pytest.raises(ValueError):
            basis_gram(make_basis(0.4, 8), "l2")
