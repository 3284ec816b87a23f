"""Tests for repro.ml.kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import kernels as kernels_module
from repro.ml.kernels import LinearKernel, PolynomialKernel, RBFKernel, resolve_kernel


class TestLinearKernel:
    def test_matches_inner_product(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        Z = np.array([[5.0, 6.0]])
        K = LinearKernel()(X, Z)
        assert K.shape == (2, 1)
        assert K[0, 0] == pytest.approx(17.0)
        assert K[1, 0] == pytest.approx(39.0)

    def test_symmetric_gram(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        K = LinearKernel()(X, X)
        assert np.allclose(K, K.T)

    def test_equality_and_hash(self):
        assert LinearKernel() == LinearKernel()
        assert hash(LinearKernel()) == hash(LinearKernel())


class TestRBFKernel:
    def test_diagonal_is_one(self):
        X = np.random.default_rng(1).normal(size=(5, 4))
        K = RBFKernel(gamma=0.7)(X, X)
        assert np.allclose(np.diag(K), 1.0)

    def test_values_in_unit_interval(self):
        X = np.random.default_rng(2).normal(size=(8, 3))
        K = RBFKernel(gamma=1.3)(X, X)
        assert np.all(K > 0)
        assert np.all(K <= 1.0 + 1e-12)

    def test_known_value(self):
        X = np.array([[0.0]])
        Z = np.array([[1.0]])
        K = RBFKernel(gamma=2.0)(X, Z)
        assert K[0, 0] == pytest.approx(np.exp(-2.0))

    def test_scale_gamma_resolution(self):
        X = np.random.default_rng(3).normal(size=(10, 4))
        k = RBFKernel(gamma="scale")
        expected_gamma = 1.0 / (4 * X.var())
        K = k(X, X)
        manual = RBFKernel(gamma=expected_gamma)(X, X)
        assert np.allclose(K, manual)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            RBFKernel(gamma=-1.0)
        with pytest.raises(ValueError):
            RBFKernel(gamma="banana")

    def test_farther_points_smaller_kernel(self):
        k = RBFKernel(gamma=1.0)
        near = k(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = k(np.array([[0.0]]), np.array([[2.0]]))[0, 0]
        assert near > far


class TestPolynomialKernel:
    def test_degree_one_is_affine_linear(self):
        X = np.array([[1.0, 1.0]])
        Z = np.array([[2.0, 3.0]])
        K = PolynomialKernel(degree=1, coef0=1.0)(X, Z)
        assert K[0, 0] == pytest.approx(6.0)

    def test_degree_two(self):
        X = np.array([[1.0]])
        Z = np.array([[2.0]])
        K = PolynomialKernel(degree=2, coef0=0.0)(X, Z)
        assert K[0, 0] == pytest.approx(4.0)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            PolynomialKernel(degree=0)


class TestResolveKernel:
    def test_by_name(self):
        assert isinstance(resolve_kernel("linear"), LinearKernel)
        assert isinstance(resolve_kernel("rbf"), RBFKernel)
        assert isinstance(resolve_kernel("poly"), PolynomialKernel)

    def test_kwargs_forwarded(self):
        k = resolve_kernel("rbf", gamma=0.25)
        assert k.gamma == pytest.approx(0.25)

    def test_callable_passthrough(self):
        def custom(X, Z):
            return np.zeros((len(X), len(Z)))

        assert resolve_kernel(custom) is custom

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("sigmoid")


ROW_KERNELS = {
    "rbf": RBFKernel(gamma=0.3),
    "linear": LinearKernel(),
    "poly": PolynomialKernel(degree=3, coef0=1.0),
}


def _row_cases():
    """Seeded (Z, x) pairs: d in {1, 4, 11}, 1 to 300 rows, with the
    query and the rows at 1e-3, 1 and 1e3 scale."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        for d in (1, 4, 11):
            for m in (1, 2, 7, 60, 300):
                for scale in (1e-3, 1.0, 1e3):
                    yield rng.normal(size=(m, d)) * scale, rng.normal(size=d) * scale


def _row_mismatches(kernel):
    """Cases where the row form is not entry-for-entry the Gram column."""
    return sum(
        not np.array_equal(
            kernel.row(np.ascontiguousarray(Z.T), x), kernel(Z, x[None])[:, 0]
        )
        for Z, x in _row_cases()
    )


class TestRowForm:
    """``k.row(Z.T, x)`` is the single-decision path of a fitted SVC; it
    must be bit-identical to the Gram column ``k(Z, x[None])[:, 0]``."""

    @pytest.mark.parametrize("name", sorted(ROW_KERNELS))
    def test_entry_exact_on_seeded_grid(self, name):
        assert _row_mismatches(ROW_KERNELS[name]) == 0

    @pytest.mark.parametrize("name", sorted(ROW_KERNELS))
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 4, 11]),
        m=st.integers(1, 300),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_entry_exact_property(self, name, seed, d, m, scale):
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(m, d)) * scale
        x = rng.normal(size=d) * scale
        kernel = ROW_KERNELS[name]
        row = kernel.row(np.ascontiguousarray(Z.T), x)
        assert row.shape == (m,)
        assert np.array_equal(row, kernel(Z, x[None])[:, 0])

    def test_signed_zero_products_match_the_zero_start(self):
        # 0.0 * -1.0 is -0.0; the Gram loop's zero start turns it into
        # +0.0, and the row form must too.
        Z = np.array([[0.0], [-1.0]])
        x = np.array([-0.0])
        row = LinearKernel().row(np.ascontiguousarray(Z.T), x)
        gram = LinearKernel()(Z, x[None])[:, 0]
        assert row.tobytes() == gram.tobytes()

    def test_rbf_row_needs_frozen_gamma(self):
        with pytest.raises(ValueError, match="frozen gamma"):
            RBFKernel().row(np.zeros((2, 3)), np.zeros(2))
        Z = np.random.default_rng(3).normal(size=(5, 2))
        frozen = RBFKernel().frozen(Z)
        x = np.array([0.1, -0.2])
        assert np.array_equal(
            frozen.row(np.ascontiguousarray(Z.T), x), frozen(Z, x[None])[:, 0]
        )

    @pytest.mark.parametrize(
        "mutant",
        [
            lambda D: np.add.reduce(D, axis=0),
            lambda D: _ordered(D, 1),
            lambda D: _ordered(D, D.shape[0] - 1),
        ],
        ids=["add-reduce", "from-dim-1", "from-last-dim"],
    )
    @pytest.mark.parametrize("name", sorted(ROW_KERNELS))
    def test_reordered_sums_are_caught(self, monkeypatch, mutant, name):
        # The grid above must be able to tell a reassociated or
        # reordered dimension sum from the Gram loop's order.
        monkeypatch.setattr(kernels_module, "_sum_dims", mutant)
        assert _row_mismatches(ROW_KERNELS[name]) > 0


def _ordered(D, start):
    """Sum over dimensions starting from ``start`` and wrapping around."""
    d = D.shape[0]
    acc = D[start % d].copy()
    for k in range(1, d):
        acc += D[(start + k) % d]
    return acc
