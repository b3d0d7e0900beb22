"""Classifier heads: architecture, loss oracles, gradients, training on
separable fixtures, and the balanced length-of-stay evaluation split."""

import numpy as np
import pytest

from visitrep.cohort import TASK_CODES, TASK_LOS, TASK_MORTALITY, TASK_READMISSION
from visitrep.errors import ValidationError
import visitrep.numerics as nm
from visitrep.numerics import Parameter, Tensor, load_state, max_relative_error
from visitrep.tasks import (
    PROB_CLIP,
    ClassifierModel,
    TaskHeadConfig,
    balance_for_los,
    classification_loss,
    predict,
    train_task,
)


def separable_binary(n=320, seed=0):
    """Two clusters split on the first coordinate with a wide margin."""
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=0.2, size=(n, 4))
    y = (np.arange(n) % 2).astype(float)
    X[:, 0] = np.where(y == 1.0, 1.0, -1.0) + rng.normal(scale=0.1, size=n)
    return X, y


def separable_los(n=300, seed=1):
    rng = np.random.default_rng(seed)
    classes = np.array([1, 5, 9])[np.arange(n) % 3]
    X = rng.normal(scale=0.15, size=(n, 5))
    X[:, 0] += np.where(classes == 1, -2.0, 0.0)
    X[:, 1] += np.where(classes == 5, 2.0, 0.0)
    X[:, 2] += np.where(classes == 9, 4.0, 0.0)
    return X, classes.astype(float)


class TestArchitecture:
    def test_hidden_width_is_half_rounded_up(self):
        rng = np.random.default_rng(0)
        assert ClassifierModel(10, TASK_MORTALITY, rng).hidden == 5
        assert ClassifierModel(9, TASK_MORTALITY, rng).hidden == 5

    def test_output_widths(self):
        rng = np.random.default_rng(0)
        assert ClassifierModel(6, TASK_READMISSION, rng).n_out == 1
        assert ClassifierModel(6, TASK_LOS, rng).n_out == 9

    def test_codes_task_has_no_head(self):
        with pytest.raises(ValidationError, match="sequence model"):
            ClassifierModel(6, TASK_CODES, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="unknown task"):
            ClassifierModel(6, "los", np.random.default_rng(0))


class TestPredict:
    def test_binary_probabilities_in_open_interval(self):
        model = ClassifierModel(4, TASK_MORTALITY, np.random.default_rng(1))
        X = np.random.default_rng(2).normal(size=(7, 4))
        p = predict(model, X)
        assert p.shape == (7,)
        assert ((p > 0) & (p < 1)).all()

    def test_los_rows_normalized(self):
        model = ClassifierModel(4, TASK_LOS, np.random.default_rng(1))
        X = np.random.default_rng(2).normal(size=(5, 4))
        p = predict(model, X)
        assert p.shape == (5, 9)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_single_vector_and_determinism(self):
        model = ClassifierModel(4, TASK_MORTALITY, np.random.default_rng(1))
        z = np.random.default_rng(3).normal(size=4)
        assert predict(model, z[None]).shape == (1,)
        assert predict(model, z[None]) == predict(model, z[None])
        with pytest.raises(ValidationError, match=r"width 4, got shape \(4,\)"):
            predict(model, z)

    def test_width_mismatch(self):
        model = ClassifierModel(4, TASK_MORTALITY, np.random.default_rng(1))
        with pytest.raises(ValidationError, match="width 4"):
            predict(model, np.zeros((2, 5)))


class TestLossOracles:
    def test_binary_cross_entropy_direct_summation(self):
        rng = np.random.default_rng(5)
        probs = rng.uniform(0.05, 0.95, size=(6, 1))
        y = rng.integers(0, 2, size=6).astype(float)
        got = float(classification_loss(Tensor(probs), y, TASK_MORTALITY).data.reshape(()))
        want = 0.0
        for i in range(6):
            p = min(max(probs[i, 0], PROB_CLIP), 1 - PROB_CLIP)
            want += -(y[i] * np.log(p) + (1 - y[i]) * np.log(1 - p))
        want /= 6
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_binary_loss_matches_the_composed_graph(self):
        """One binary_xent node against clip, log, mul and sum as kernels:
        the loss bitwise, the gradient within 1e-12 relative, probabilities
        clipped at both ends included."""
        rng = np.random.default_rng(9)
        values = np.concatenate([rng.uniform(0.05, 0.95, 6), [1e-9, 1 - 1e-9]])
        probs = Parameter(values.reshape(8, 1), "p")
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        target = y.reshape(8, 1)

        def composed_loss():
            p = nm.clip(probs, PROB_CLIP, 1.0 - PROB_CLIP)
            q = nm.clip(nm.shift(nm.scale(probs, -1.0), 1.0), PROB_CLIP, 1.0 - PROB_CLIP)
            per = nm.mul(Tensor(target), nm.log(p)) + nm.mul(Tensor(1.0 - target), nm.log(q))
            return nm.scale(nm.tsum(per), -1.0 / 8)

        grads = []
        for build in (lambda: classification_loss(probs, y, TASK_MORTALITY), composed_loss):
            probs.grad.fill(0.0)
            with nm.recording():
                loss = build()
                loss.backward()
            grads.append((loss.data.tobytes(), probs.grad.copy()))
        (fused, g_fused), (composed, g_composed) = grads
        assert fused == composed
        assert np.abs(g_fused - g_composed).max() <= 1e-12 * np.abs(g_composed).max()

    def test_multiclass_cross_entropy_direct_summation(self):
        rng = np.random.default_rng(6)
        raw = rng.uniform(0.1, 1.0, size=(5, 9))
        probs = raw / raw.sum(axis=1, keepdims=True)
        y = np.array([1.0, 9.0, 3.0, 3.0, 5.0])
        got = float(classification_loss(Tensor(probs), y, TASK_LOS).data.reshape(()))
        want = -np.mean([np.log(probs[i, int(y[i]) - 1]) for i in range(5)])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_los_label_domain_checked(self):
        probs = Tensor(np.full((2, 9), 1.0 / 9))
        with pytest.raises(ValidationError, match="1..9"):
            classification_loss(probs, np.array([0.0, 3.0]), TASK_LOS)
        with pytest.raises(ValidationError, match="1..9"):
            classification_loss(probs, np.array([2.0, 10.0]), TASK_LOS)


class TestGradients:
    def test_binary_head_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        model = ClassifierModel(5, TASK_MORTALITY, rng)
        X = rng.normal(size=(4, 5))
        y = np.array([1.0, 0.0, 1.0, 1.0])

        def build():
            return classification_loss(model.forward(Tensor(X)), y, TASK_MORTALITY)

        err = max_relative_error(build, model.parameters(), h=1e-5)
        assert err < 1e-4, f"max relative error {err:.3e}"

    def test_los_head_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        model = ClassifierModel(6, TASK_LOS, rng)
        X = rng.normal(size=(3, 6))
        y = np.array([2.0, 9.0, 5.0])

        def build():
            return classification_loss(model.forward(Tensor(X)), y, TASK_LOS)

        err = max_relative_error(build, model.parameters(), h=1e-5)
        assert err < 1e-4, f"max relative error {err:.3e}"


class TestTraining:
    def test_separable_binary_reaches_full_accuracy(self):
        X, y = separable_binary()
        model, history = train_task(X, y, TASK_MORTALITY)
        preds = (predict(model, X) > 0.5).astype(float)
        assert (preds == y).all()
        assert history.train_loss[-1] < history.train_loss[0]

    def test_separable_los_reaches_full_accuracy(self):
        X, y = separable_los()
        model, _ = train_task(X, y, TASK_LOS)
        top1 = predict(model, X).argmax(axis=1) + 1
        assert (top1 == y).all()

    def test_step_schedule_every_ten_epochs(self):
        X, y = separable_binary(n=16)
        _, history = train_task(X, y, TASK_READMISSION, TaskHeadConfig(epochs=21))
        np.testing.assert_allclose(history.lrs[:3], 1e-2, rtol=1e-12)
        np.testing.assert_allclose(history.lrs[10], 1e-3, rtol=1e-12)
        np.testing.assert_allclose(history.lrs[20], 1e-4, rtol=1e-12)

    def test_training_is_deterministic(self):
        X, y = separable_binary()
        m1, h1 = train_task(X, y, TASK_MORTALITY, TaskHeadConfig(epochs=5))
        m2, h2 = train_task(X, y, TASK_MORTALITY, TaskHeadConfig(epochs=5))
        assert h1.train_loss == h2.train_loss
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert p1.name == p2.name and p1.data.tobytes() == p2.data.tobytes()

    def test_input_validation(self):
        X, y = separable_binary(n=10)
        with pytest.raises(ValidationError, match="single class"):
            train_task(X, np.ones(10), TASK_MORTALITY)
        with pytest.raises(ValidationError, match="0 or 1"):
            train_task(X, np.arange(10).astype(float), TASK_MORTALITY)
        with pytest.raises(ValidationError, match="align"):
            train_task(X, y[:5], TASK_MORTALITY)
        with pytest.raises(ValidationError, match="sequence model"):
            train_task(X, y, TASK_CODES)
        with pytest.raises(ValidationError, match="unknown keys"):
            TaskHeadConfig.from_json({"epochs": 3, "bogus": 1})

    def test_state_round_trip(self):
        X, y = separable_binary()
        model, _ = train_task(X, y, TASK_MORTALITY, TaskHeadConfig(epochs=3))
        arrays = {p.name: p.data.copy() for p in model.parameters()}
        clone = ClassifierModel(model.d_in, model.task, np.random.default_rng(99))
        load_state(clone.parameters(), arrays)
        np.testing.assert_array_equal(predict(model, X), predict(clone, X))


class TestBalanceForLos:
    def fixture(self):
        rng = np.random.default_rng(9)
        y_test = np.array([1.0] * 5 + [2.0] * 3 + [8.0] * 7)
        X_test = rng.normal(size=(len(y_test), 2))
        y_train = np.array([1.0, 2.0, 8.0, 8.0])
        return y_train, (X_test, y_test)

    def test_balanced_counts_and_untouched_train(self):
        y_train, test = self.fixture()
        X_te, y_te = balance_for_los(y_train, *test, seed=3)
        np.testing.assert_array_equal(y_train, [1.0, 2.0, 8.0, 8.0])
        for c in (1.0, 2.0, 8.0):
            assert (y_te == c).sum() == 3
        assert len(y_te) == 9

    def test_seeded_and_reproducible(self):
        y_train, test = self.fixture()
        Xa, ya = balance_for_los(y_train, *test, seed=3)
        Xb, yb = balance_for_los(y_train, *test, seed=3)
        np.testing.assert_array_equal(Xa, Xb)
        np.testing.assert_array_equal(ya, yb)

    def test_rows_come_from_the_test_pool(self):
        y_train, test = self.fixture()
        X_te, y_te = balance_for_los(y_train, *test, seed=0)
        pool = {tuple(row) for row in test[0]}
        assert all(tuple(row) in pool for row in X_te)

    def test_missing_class_is_listed(self):
        _, test = self.fixture()
        bad_train = np.array([1.0, 2.0, 4.0, 8.0])
        with pytest.raises(
            ValidationError, match=r"^balance_for_los: test split has no examples of classes \[4\]$"
        ):
            balance_for_los(bad_train, *test)
