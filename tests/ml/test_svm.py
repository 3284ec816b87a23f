"""Tests for the from-scratch SMO-trained SVC."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.kernels import PolynomialKernel
from repro.ml.svm import NotFittedError, SVC


def _linear_problem(n=200, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = np.where(X @ np.array([1.0, 2.0, -1.0]) > 0, 1.0, -1.0)
    if noise:
        flip = rng.random(n) < noise
        y[flip] *= -1
    return X, y


class TestFitBasics:
    def test_linearly_separable_high_accuracy(self):
        X, y = _linear_problem()
        model = SVC(C=10.0, kernel="linear").fit(X, y)
        assert model.score(X, y) >= 0.98

    def test_rbf_on_nonlinear_boundary(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, size=(400, 2))
        y = np.where(X[:, 0] ** 2 + X[:, 1] ** 2 < 2.0, 1.0, -1.0)
        model = SVC(C=10.0, kernel="rbf").fit(X, y)
        assert model.score(X, y) >= 0.93

    def test_generalizes_to_held_out(self):
        X, y = _linear_problem(n=300, seed=2)
        Xt, yt = _linear_problem(n=150, seed=3)
        model = SVC(C=10.0, kernel="rbf").fit(X, y)
        assert model.score(Xt, yt) >= 0.9

    def test_tolerates_label_noise(self):
        X, y = _linear_problem(n=300, seed=4, noise=0.05)
        model = SVC(C=1.0, kernel="rbf").fit(X, y)
        assert model.score(X, y) >= 0.85

    def test_fit_returns_self(self):
        X, y = _linear_problem(n=20)
        model = SVC()
        assert model.fit(X, y) is model


class TestDegenerateInputs:
    def test_single_class_positive(self):
        X = np.random.default_rng(5).normal(size=(10, 2))
        model = SVC().fit(X, np.ones(10))
        # predict() emits the exact sentinels ±1.0 via np.where.
        assert np.all(model.predict(X) == 1.0)  # repro: noqa[NUM001]
        assert model.is_constant_

    def test_single_class_negative(self):
        X = np.random.default_rng(6).normal(size=(10, 2))
        model = SVC().fit(X, -np.ones(10))
        # predict() emits the exact sentinels ±1.0 via np.where.
        assert np.all(model.predict(X) == -1.0)  # repro: noqa[NUM001]

    def test_two_points(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0])
        model = SVC(C=10.0, kernel="linear").fit(X, y)
        assert model.score(X, y) == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SVC().fit(np.zeros((0, 2)), np.zeros(0))

    def test_bad_labels_raise(self):
        X = np.zeros((3, 1))
        with pytest.raises(ValueError, match="labels"):
            SVC().fit(X, [0.0, 1.0, 2.0])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            SVC().fit(np.zeros((3, 1)), [1.0, -1.0])

    def test_bad_C_raises(self):
        with pytest.raises(ValueError):
            SVC(C=0.0)


class TestInference:
    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            SVC().predict(np.zeros((1, 2)))
        with pytest.raises(NotFittedError):
            SVC().decision_function(np.zeros((1, 2)))

    def test_feature_count_checked(self):
        X, y = _linear_problem(n=30)
        model = SVC().fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.zeros((1, 5)))

    def test_decision_sign_matches_predict(self):
        X, y = _linear_problem(n=100, seed=7)
        model = SVC(C=5.0).fit(X, y)
        scores = model.decision_function(X)
        preds = model.predict(X)
        assert np.all(np.sign(scores + 1e-15) == preds)

    def test_margin_larger_deep_inside(self):
        # Points far from the boundary should carry larger margins —
        # the property ExBox's network selection relies on.
        X, y = _linear_problem(n=400, seed=8)
        model = SVC(C=10.0, kernel="linear").fit(X, y)
        w = np.array([1.0, 2.0, -1.0])
        deep = (w / np.linalg.norm(w)) * 3.0
        shallow = (w / np.linalg.norm(w)) * 0.2
        assert model.decision_function([deep])[0] > model.decision_function([shallow])[0]

    def test_support_vector_introspection(self):
        X, y = _linear_problem(n=80, seed=9)
        model = SVC(C=10.0).fit(X, y)
        assert 0 < model.n_support_ <= 80
        assert model.support_vectors_.shape[1] == 3
        assert isinstance(model.intercept_, float)

    def test_repr_mentions_params(self):
        text = repr(SVC(C=2.0))
        assert "C=2.0" in text


class TestDeterminism:
    def test_same_data_same_model(self):
        X, y = _linear_problem(n=120, seed=10)
        a = SVC(C=10.0, random_state=0).fit(X, y)
        b = SVC(C=10.0, random_state=0).fit(X, y)
        Xt = np.random.default_rng(11).normal(size=(40, 3))
        assert np.allclose(a.decision_function(Xt), b.decision_function(Xt))

    def test_fits_bit_identical_across_repeated_calls_with_same_seed(self):
        # random_state is documented as inert: the SMO pair selection is
        # deterministic, so repeated fits must agree to the last bit, not
        # merely within tolerance.
        X, y = _linear_problem(n=150, seed=12, noise=0.05)
        Xt = np.random.default_rng(13).normal(size=(60, 3))
        a = SVC(C=5.0, kernel="rbf", random_state=7).fit(X, y)
        b = SVC(C=5.0, kernel="rbf", random_state=7).fit(X, y)
        assert np.array_equal(a.alpha_all_, b.alpha_all_)
        assert a.intercept_ == b.intercept_  # repro: noqa[NUM001] — bit-identity is the property under test
        assert np.array_equal(a.support_vectors_, b.support_vectors_)
        assert a.decision_function(Xt).tobytes() == b.decision_function(Xt).tobytes()

    def test_bit_identical_even_across_different_seeds(self):
        # The seed is interface-only; it must not perturb the solution.
        X, y = _linear_problem(n=100, seed=14)
        a = SVC(C=2.0, random_state=0).fit(X, y)
        b = SVC(C=2.0, random_state=12345).fit(X, y)
        assert np.array_equal(a.alpha_all_, b.alpha_all_)


class TestRandomStateValidation:
    def test_accepts_none_int_and_numpy_int(self):
        assert SVC(random_state=None).random_state is None
        assert SVC(random_state=3).random_state == 3
        assert SVC(random_state=np.int64(9)).random_state == 9
        assert isinstance(SVC(random_state=np.int64(9)).random_state, int)

    @pytest.mark.parametrize("bad", ["7", 1.5, 2.0, (1,), [3], object()])
    def test_rejects_non_int(self, bad):
        with pytest.raises(TypeError, match="random_state"):
            SVC(random_state=bad)


class TestGammaFreezing:
    def test_scale_gamma_frozen_at_fit(self):
        # gamma="scale" must resolve against the *training* rows once;
        # re-resolving against the support vectors (the old behaviour)
        # gives a different bandwidth and different margins.
        X, y = _linear_problem(n=180, seed=20, noise=0.05)
        Xt = np.random.default_rng(21).normal(size=(80, 3))
        auto = SVC(C=10.0, kernel="rbf", gamma="scale").fit(X, y)
        explicit_gamma = 1.0 / (X.shape[1] * float(X.var()))
        explicit = SVC(C=10.0, kernel="rbf", gamma=explicit_gamma).fit(X, y)
        assert np.array_equal(
            auto.decision_function(Xt), explicit.decision_function(Xt)
        )

    def test_frozen_gamma_differs_from_sv_resolved(self):
        # Regression guard for the old bug: unless every training row is
        # a support vector, variance over SVs differs from variance over
        # the training set, so the bandwidths must differ.
        X, y = _linear_problem(n=180, seed=22, noise=0.05)
        model = SVC(C=10.0, kernel="rbf", gamma="scale").fit(X, y)
        assert model.n_support_ < X.shape[0]
        sv_gamma = 1.0 / (X.shape[1] * float(model.support_vectors_.var()))
        assert model._fit_kernel.gamma != pytest.approx(sv_gamma, rel=1e-6)


class TestPrecomputedGram:
    def test_gram_path_bit_identical(self):
        X, y = _linear_problem(n=150, seed=23, noise=0.05)
        Xt = np.random.default_rng(24).normal(size=(50, 3))
        plain = SVC(C=5.0, kernel="rbf", gamma=0.4).fit(X, y)
        K = plain._fit_kernel(X, X)
        via_gram = SVC(C=5.0, kernel="rbf", gamma=0.4).fit(X, y, gram=K)
        assert np.array_equal(plain.alpha_all_, via_gram.alpha_all_)
        assert np.array_equal(
            plain.decision_function(Xt), via_gram.decision_function(Xt)
        )

    def test_wrong_shape_rejected(self):
        X, y = _linear_problem(n=40, seed=25)
        with pytest.raises(ValueError, match="gram"):
            SVC().fit(X, y, gram=np.eye(7))


class TestShrinking:
    def test_shrinking_solution_equivalent(self):
        # Shrinking is an optimization of the working-set scan, not of
        # the optimality conditions: both solvers must satisfy the same
        # KKT gap, agree on every prediction, and produce margins within
        # the tol-equivalence bound.
        X, y = _linear_problem(n=500, seed=26, noise=0.1)
        Xt = np.random.default_rng(27).normal(size=(200, 3))
        fast = SVC(C=10.0, kernel="rbf", shrinking=True).fit(X, y)
        slow = SVC(C=10.0, kernel="rbf", shrinking=False).fit(X, y)
        assert np.array_equal(fast.predict(Xt), slow.predict(Xt))
        assert np.allclose(
            fast.decision_function(Xt), slow.decision_function(Xt), atol=0.05
        )

    def test_shrunken_solution_satisfies_kkt(self):
        X, y = _linear_problem(n=400, seed=28, noise=0.1)
        model = SVC(C=10.0, kernel="rbf", shrinking=True).fit(X, y)
        alpha, b = model.alpha_all_, model.intercept_
        K = model._fit_kernel(X, X)
        f = (alpha * y) @ K + b
        eps, tol = 1e-8, model.tol
        margins = y * f
        # Free SVs sit on the margin; bound-0 points outside, bound-C inside.
        free = (alpha > eps) & (alpha < model.C - eps)
        assert np.all(np.abs(margins[free] - 1.0) < 20 * tol)
        assert np.all(margins[alpha <= eps] > 1.0 - 20 * tol)
        assert np.all(margins[alpha >= model.C - eps] < 1.0 + 20 * tol)

    def test_small_problems_unaffected(self):
        # Below the shrink threshold both paths are literally the same code.
        X, y = _linear_problem(n=30, seed=29)
        a = SVC(C=5.0, shrinking=True).fit(X, y)
        b = SVC(C=5.0, shrinking=False).fit(X, y)
        assert np.array_equal(a.alpha_all_, b.alpha_all_)

    def test_warm_start_composes_with_shrinking(self):
        X, y = _linear_problem(n=300, seed=30, noise=0.05)
        cold = SVC(C=10.0, shrinking=True).fit(X, y)
        warm = SVC(C=10.0, shrinking=True).fit(X, y, alpha_init=cold.alpha_all_)
        assert warm.score(X, y) >= cold.score(X, y) - 0.02


class _ReferenceRoundSVC(SVC):
    """SVC whose pair scan is the earlier, allocation-per-round solver:
    ``np.where`` masks rebuilt every round, fresh temporaries for the
    second-order gain, numpy scalars in the pair step. The lean round
    must choose the same pairs in the same order, so every fit matches
    this one bit for bit. ``stuck_scans`` counts entries into the
    stuck-pair fallback."""

    stuck_scans = 0

    def _rounds(self, alpha, errors, y, K, max_rounds, eps, work=None):
        n = alpha.shape[0]
        pos = y > 0
        neg = ~pos
        bound_lo, bound_hi = alpha > eps, alpha < self.C - eps
        up = (pos & bound_hi) | (neg & bound_lo)
        low = (pos & bound_lo) | (neg & bound_hi)
        Kdiag = np.ascontiguousarray(K.diagonal())

        def _refresh(t):
            movable_lo, movable_hi = alpha[t] > eps, alpha[t] < self.C - eps
            if pos[t]:
                up[t], low[t] = movable_hi, movable_lo
            else:
                up[t], low[t] = movable_lo, movable_hi

        for used in range(max_rounds):
            f_up = np.where(up, errors, np.inf)
            f_low = np.where(low, errors, -np.inf)
            i = int(np.argmin(f_up))
            j = int(np.argmax(f_low))
            if not up[i] or not low[j]:
                return used, "converged"
            if errors[j] - errors[i] < 2.0 * self.tol:
                return used, "converged"
            diff = errors - errors[i]
            eta_vec = np.maximum(Kdiag + K[i, i] - 2.0 * K[i], 1e-12)
            gain = np.where(low & (diff > 0.0), diff * diff / eta_vec, -np.inf)
            j2 = int(np.argmax(gain))
            if gain[j2] > 0.0:
                j = j2
            if self._step(i, j, alpha, errors, y, K):
                _refresh(i)
                _refresh(j)
                continue
            self.stuck_scans += 1
            order = np.argsort(-f_low)
            moved = False
            for k in order[: min(10, n)]:
                k = int(k)
                if k != j and low[k] and self._step(i, k, alpha, errors, y, K):
                    _refresh(i)
                    _refresh(k)
                    moved = True
                    break
            if not moved:
                return used + 1, "stuck"
        return max_rounds, "budget"

    def _step(self, i, j, alpha, errors, y, K):
        if i == j:
            return False
        ai_old, aj_old = alpha[i], alpha[j]
        yi, yj = y[i], y[j]
        Ei, Ej = errors[i], errors[j]
        if yi != yj:
            lo = max(0.0, aj_old - ai_old)
            hi = min(self.C, self.C + aj_old - ai_old)
        else:
            lo = max(0.0, ai_old + aj_old - self.C)
            hi = min(self.C, ai_old + aj_old)
        if lo >= hi:
            return False
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 1e-12:
            return False
        aj_new = aj_old + yj * (Ei - Ej) / eta
        aj_new = min(max(aj_new, lo), hi)
        if abs(aj_new - aj_old) < 1e-7 * (aj_new + aj_old + 1e-7):
            return False
        ai_new = ai_old + yi * yj * (aj_old - aj_new)
        di = yi * (ai_new - ai_old)
        dj = yj * (aj_new - aj_old)
        alpha[i], alpha[j] = ai_new, aj_new
        errors += di * K[i] + dj * K[j]
        return True


def _duplicated_opposite_rows(n=120, seed=41):
    """A noisy problem where a third of the rows reappear with the
    opposite label: their kernel rows coincide, so eta is 0 for those
    pairs and the solver must fall back to other partners."""
    X, y = _linear_problem(n=n, seed=seed, noise=0.1)
    dup = np.arange(0, n, 3)
    return np.vstack([X, X[dup]]), np.concatenate([y, -y[dup]])


class TestLeanRoundBitIdentity:
    """The lean SMO round (penalty vectors, reused work arrays, Python-float
    pair steps) is an implementation change only: fits must equal the
    reference solver's exactly, dual vector and intercept alike."""

    @staticmethod
    def _both(X, y, alpha_init=None, **kwargs):
        lean = SVC(**kwargs).fit(X, y, alpha_init=alpha_init)
        ref = _ReferenceRoundSVC(**kwargs).fit(X, y, alpha_init=alpha_init)
        return lean, ref

    def _assert_identical(self, lean, ref):
        assert np.array_equal(lean.alpha_all_, ref.alpha_all_)
        assert lean.intercept_ == ref.intercept_  # repro: noqa[NUM001]

    @pytest.mark.parametrize("shrinking", [True, False])
    @pytest.mark.parametrize("n", [24, 300])
    def test_cold_fits(self, shrinking, n):
        from repro.ml.svm import _SHRINK_MIN_ACTIVE

        X, y = _linear_problem(n=n, seed=40 + n, noise=0.1)
        assert (n > _SHRINK_MIN_ACTIVE) == (n == 300)
        lean, ref = self._both(X, y, C=10.0, shrinking=shrinking)
        self._assert_identical(lean, ref)

    @pytest.mark.parametrize("shrinking", [True, False])
    def test_warm_fits(self, shrinking):
        X, y = _linear_problem(n=260, seed=42, noise=0.1)
        first = SVC(C=10.0, shrinking=shrinking).fit(X[:200], y[:200])
        # The next batch's warm start: old duals plus zeros for new rows,
        # and one relabelled row so the equality repair runs.
        y2 = y.copy()
        y2[5] = -y2[5]
        alpha_init = np.concatenate([first.alpha_all_, np.zeros(60)])
        lean, ref = self._both(
            X, y2, alpha_init=alpha_init, C=10.0, shrinking=shrinking
        )
        self._assert_identical(lean, ref)

    @pytest.mark.parametrize("shrinking", [True, False])
    def test_stuck_pair_fallback(self, shrinking):
        X, y = _duplicated_opposite_rows()
        lean, ref = self._both(X, y, C=10.0, shrinking=shrinking)
        assert ref.stuck_scans > 0
        self._assert_identical(lean, ref)

    def test_budget_cut_mid_scan(self):
        X, y = _linear_problem(n=200, seed=43, noise=0.1)
        lean, ref = self._both(X, y, C=10.0, max_iter=37)
        self._assert_identical(lean, ref)


@functools.lru_cache(maxsize=None)
def _row_model(kernel, d, n, random_labels=False):
    """A fitted SVC for the row-path tests; small C keeps most training
    rows as support vectors (2 up to ~300)."""
    rng = np.random.default_rng(100 * d + n)
    X = rng.normal(size=(n, d))
    if random_labels:
        y = rng.choice([-1.0, 1.0], size=n)
    else:
        y = np.where(X[:, 0] + rng.normal(scale=0.7, size=n) > 0, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    spec = PolynomialKernel(degree=3) if kernel == "poly" else kernel
    return SVC(C=0.05, kernel=spec).fit(X, y)


_ROW_SHAPES = [(n, False) for n in (2, 9, 60, 300)] + [(300, True)]


def _assert_row_exact(model, X):
    for x in X:
        assert model.decision_row(x) == model.decision_function(x[None])[0]


class TestDecisionRow:
    """``decision_row`` is the single-decision path; it must return the
    batched ``decision_function`` margin bit for bit."""

    @pytest.mark.parametrize("kernel", ["rbf", "linear", "poly"])
    @pytest.mark.parametrize("d", [1, 4, 11])
    @pytest.mark.parametrize("n,random_labels", _ROW_SHAPES)
    def test_matches_decision_function(self, kernel, d, n, random_labels):
        model = _row_model(kernel, d, n, random_labels)
        assert 2 <= model.n_support_ <= n
        rng = np.random.default_rng(d + n)
        for scale in (1e-3, 1.0, 1e3):
            _assert_row_exact(model, rng.normal(size=(12, d)) * scale)
        # Training rows themselves, support vectors included.
        _assert_row_exact(model, model.support_vectors_[:12])

    def test_spans_two_to_about_three_hundred_support_vectors(self):
        counts = [
            _row_model("rbf", d, n, rl).n_support_
            for d in (1, 4, 11)
            for n, rl in _ROW_SHAPES
        ]
        assert min(counts) == 2 and max(counts) >= 290

    @pytest.mark.parametrize("kernel", ["rbf", "linear", "poly"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 4, 11]),
        shape=st.sampled_from(_ROW_SHAPES),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_decision_function_property(self, kernel, seed, d, shape, scale):
        model = _row_model(kernel, d, *shape)
        x = np.random.default_rng(seed).normal(size=d) * scale
        assert model.decision_row(x) == model.decision_function(x[None])[0]

    @pytest.mark.parametrize("label", [1.0, -1.0])
    def test_constant_model(self, label):
        model = SVC().fit(np.random.default_rng(1).normal(size=(5, 4)), [label] * 5)
        x = np.array([0.3, -1.0, 2.0, 0.0])
        assert model.decision_row(x) == label
        assert model.decision_row(x) == model.decision_function(x[None])[0]

    def test_model_without_support_vectors(self):
        # No optimization round: every dual stays zero, so the model
        # predicts the majority class through its intercept alone.
        X, y = _linear_problem(n=40, seed=5)
        model = SVC(max_iter=0).fit(X, y)
        assert model.n_support_ == 0 and not model.is_constant_
        x = np.array([0.5, -0.5, 1.0])
        assert model.decision_row(x) == model.intercept_
        assert model.decision_row(x) == model.decision_function(x[None])[0]

    def test_callable_kernel_without_row_form(self):
        def dot(X, Z):
            return np.atleast_2d(X) @ np.atleast_2d(Z).T

        X, y = _linear_problem(n=60, seed=6)
        model = SVC(C=1.0, kernel=dot).fit(X, y)
        _assert_row_exact(model, np.random.default_rng(6).normal(size=(10, 3)))

    def test_validates_its_input(self):
        with pytest.raises(NotFittedError):
            SVC().decision_row(np.zeros(3))
        X, y = _linear_problem(n=30, seed=7)
        model = SVC().fit(X, y)
        with pytest.raises(ValueError, match="expected a row of 3"):
            model.decision_row(np.zeros(4))
        with pytest.raises(ValueError, match="expected a row of 3"):
            model.decision_row(np.zeros((1, 3)))
