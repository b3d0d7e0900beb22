"""Adam update math and learning-rate schedules against closed forms, the
parameter arena against the per-parameter Adam loop it replaced, and the
fit() training loop on a small least-squares problem."""

import numpy as np
import pytest

from visitrep.numerics import optim
from visitrep.numerics import (
    AdamState,
    CosineAnnealing,
    Parameter,
    StepDecay,
    Tensor,
    adam_step,
    fit,
    init_adam,
    load_state,
    lr_at,
    matmul,
    mul,
    scale,
    tsum,
)


def _param_with_grad(value, grad):
    p = Parameter(np.asarray(value, dtype=float), "p")
    p.grad = np.asarray(grad, dtype=float)
    return p


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = _param_with_grad([[1.0, -2.0]], [[0.0, 0.0]])
        state = init_adam([p])
        adam_step([p], state, lr=0.1)
        np.testing.assert_array_equal(p.data, [[1.0, -2.0]])

    def test_first_step_matches_hand_computation(self):
        """g=1: m=0.1, v=0.001, m_hat=1, v_hat=1, delta = -lr/(1+eps)."""
        lr = 0.05
        p = _param_with_grad([0.7], [1.0])
        state = init_adam([p])
        adam_step([p], state, lr=lr)
        expected = 0.7 - lr * 1.0 / (np.sqrt(1.0) + 1e-8)
        np.testing.assert_allclose(p.data, [expected], atol=1e-15)

    def test_two_steps_match_closed_form_ema(self):
        """Run the moment recursions independently and compare trajectories."""
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=(2, 3)) for _ in range(2)]
        p = Parameter(rng.normal(size=(2, 3)), "p")
        ref = p.data.copy()
        state = init_adam([p])

        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        lr = 0.01
        for t, g in enumerate(grads, start=1):
            p.grad = g.copy()
            adam_step([p], state, lr=lr)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref - lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        np.testing.assert_allclose(p.data, ref, atol=1e-15)

    def test_non_positive_lr_rejected(self):
        p = _param_with_grad([1.0], [1.0])
        state = init_adam([p])
        for bad in (0.0, -1e-3):
            with pytest.raises(ValueError, match="positive"):
                adam_step([p], state, lr=bad)

    def test_state_length_mismatch(self):
        p = _param_with_grad([1.0], [1.0])
        with pytest.raises(ValueError):
            adam_step([p], AdamState(), lr=0.1)

    def test_update_is_deterministic(self):
        def run():
            p = _param_with_grad([0.3, -0.2], [0.5, 1.5])
            state = init_adam([p])
            for _ in range(5):
                adam_step([p], state, lr=0.02)
            return p.data.tobytes()

        assert run() == run()


class PerParameterAdam:
    """The per-parameter Adam loop adam_step ran before the arena: the oracle."""

    def __init__(self, values):
        self.data = [v.copy() for v in values]
        self.m = [np.zeros_like(v) for v in values]
        self.v = [np.zeros_like(v) for v in values]
        self.t = 0

    def step(self, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.t += 1
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for i, g in enumerate(grads):
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            self.data[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _three_params(rng):
    shapes = {"a": (3, 4), "b": (1, 4), "c": (2, 2, 3)}
    return [Parameter(rng.normal(size=shape), name) for name, shape in shapes.items()]


class TestArena:
    def test_matches_per_parameter_loop_bitwise_through_rebinds(self):
        rng = np.random.default_rng(5)
        params = _three_params(rng)
        oracle = PerParameterAdam([p.data for p in params])
        state = init_adam(params)
        for t in range(5):
            grads = [rng.normal(size=p.data.shape) for p in params]
            if t == 2:
                # load_state rebinds p.data; adam_step must adopt the new arrays.
                loaded = {p.name: rng.normal(size=p.data.shape) for p in params}
                load_state(params, loaded)
                oracle.data = [loaded[p.name].copy() for p in params]
            for i, (p, g) in enumerate(zip(params, grads)):
                if t == 3 and i == 1:
                    p.grad = g.copy()  # a rebound gradient, not a write into the view
                else:
                    p.grad[...] = g
            adam_step(params, state, lr=0.01 * (t + 1))
            oracle.step(grads, lr=0.01 * (t + 1))
            for p, want in zip(params, oracle.data):
                assert p.data.tobytes() == want.tobytes(), (t, p.name)
                assert np.shares_memory(p.data, state.data)
                assert np.shares_memory(p.grad, state.grad)

    def test_a_parameter_listed_twice_is_refused(self):
        p = Parameter(np.zeros((2, 2)), "w")
        with pytest.raises(ValueError, match="parameter 'w' is listed twice"):
            init_adam([p, Parameter(np.zeros(3), "b"), p])

    def test_non_finite_gradient_names_parameter_and_step(self):
        params = _three_params(np.random.default_rng(7))
        state = init_adam(params)
        adam_step(params, state, lr=0.1)
        before = state.data.copy()
        params[1].grad[0, 2] = np.nan
        params[2].grad[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match=r"non-finite gradient in parameter 'b' at step 2"):
            adam_step(params, state, lr=0.1)
        assert state.step == 1
        assert state.data.tobytes() == before.tobytes()


class TestSchedules:
    def test_cosine_endpoints(self):
        sched = CosineAnnealing(lr0=0.00025, period=50)
        assert lr_at(sched, 0) == pytest.approx(0.00025, abs=1e-18)
        assert lr_at(sched, 25) == pytest.approx(0.000125, abs=1e-12)
        # Warm restart: the modulus brings epoch 50 back to lr0.
        assert lr_at(sched, 50) == pytest.approx(0.00025, abs=1e-18)

    def test_cosine_respects_floor(self):
        sched = CosineAnnealing(lr0=1e-3, period=10, lr_min=1e-5)
        for epoch in range(40):
            lr = lr_at(sched, epoch)
            assert 1e-5 < lr <= 1e-3

    def test_step_decay_values(self):
        sched = StepDecay(lr0=1e-3, factor=0.1, every=50)
        assert lr_at(sched, 0) == pytest.approx(1e-3)
        assert lr_at(sched, 49) == pytest.approx(1e-3)
        assert lr_at(sched, 50) == pytest.approx(1e-4)
        assert lr_at(sched, 149) == pytest.approx(1e-5)

    def test_classifier_style_decay(self):
        sched = StepDecay(lr0=1e-3, factor=0.1, every=10)
        got = [lr_at(sched, e) for e in (0, 9, 10, 20, 29)]
        np.testing.assert_allclose(got, [1e-3, 1e-3, 1e-4, 1e-5, 1e-5], rtol=1e-12)

    def test_emitted_rates_always_positive(self):
        for sched in (CosineAnnealing(0.1, 7), StepDecay(0.1, 0.5, 3)):
            for epoch in range(200):
                assert lr_at(sched, epoch) > 0.0

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at(StepDecay(0.1, 0.1, 10), -1)

    def test_invalid_schedule_parameters(self):
        with pytest.raises(ValueError):
            CosineAnnealing(lr0=0.1, period=0)
        with pytest.raises(ValueError):
            StepDecay(lr0=0.1, factor=0.0, every=10)
        with pytest.raises(ValueError):
            StepDecay(lr0=-0.1, factor=0.5, every=10)


class LeastSquares:
    """y = X @ [1.5, -0.5]; batches of two rows in the order fit() draws."""

    def __init__(self, n=6):
        data = np.random.default_rng(0)
        self.X = data.normal(size=(n, 2))
        self.y = self.X @ np.array([[1.5], [-0.5]])
        self.w = Parameter(np.zeros((2, 1)), "w")
        self.params = [self.w]
        self.after_epoch = []  # the parameters after each epoch's last step

    def loss(self, rows):
        err = matmul(Tensor(self.X[rows]), self.w) - Tensor(self.y[rows])
        return scale(tsum(mul(err, err)), 1.0 / len(rows))

    def train_batches(self, order):
        for start in range(0, len(order), 2):
            rows = order[start : start + 2]
            yield self.loss(rows), len(rows)
        self.after_epoch.append(np.concatenate([p.data.ravel() for p in self.params]))

    def fit(self, rng, epochs=4, val_batches=None):
        return fit(
            self.params, StepDecay(0.1, 0.5, 2), epochs, rng, len(self.X),
            self.train_batches, val_batches,
        )


class TwoParameterLine(LeastSquares):
    """LeastSquares with a bias, y = X @ w + b: two parameters in one arena."""

    def __init__(self, n=6):
        super().__init__(n)
        self.b = Parameter(np.zeros((1, 1)), "b")
        self.params.append(self.b)

    def loss(self, rows):
        err = matmul(Tensor(self.X[rows]), self.w) + self.b - Tensor(self.y[rows])
        return scale(tsum(mul(err, err)), 1.0 / len(rows))


class TestFit:
    def test_restores_best_validation_epoch(self):
        task = LeastSquares()
        val_values = iter([3.0, 1.0, 2.0, 4.0])

        def val_batches():
            yield Tensor(next(val_values)), 1

        history = task.fit(np.random.default_rng(1), val_batches=val_batches)
        assert history.val_loss == [3.0, 1.0, 2.0, 4.0]
        assert history.best_epoch == 1
        assert task.w.data.tobytes() == task.after_epoch[1].tobytes()
        assert task.w.data.tobytes() != task.after_epoch[-1].tobytes()

    def test_without_validation_keeps_last_epoch(self):
        task = LeastSquares()
        history = task.fit(np.random.default_rng(1), epochs=3)
        assert history.best_epoch == 2
        assert history.val_loss == []
        assert len(history.train_loss) == 3
        np.testing.assert_allclose(history.lrs, [0.1, 0.1, 0.05], rtol=1e-15)
        assert task.w.data.tobytes() == task.after_epoch[-1].tobytes()
        assert history.train_loss[-1] < history.train_loss[0]

    def test_non_finite_loss_raises_before_any_step(self):
        task = LeastSquares()

        def nan_batches(order):
            loss = task.loss(order[:2])
            loss.data = np.array(np.nan)
            yield loss, 2

        with pytest.raises(RuntimeError, match=r"diverged to nan at epoch 0 \(lr 0.1\).*batch 0"):
            fit([task.w], StepDecay(0.1, 0.5, 2), 2, np.random.default_rng(1), 6, nan_batches)
        np.testing.assert_array_equal(task.w.data, 0.0)
        np.testing.assert_array_equal(task.w.grad, 0.0)

    def test_equal_rng_states_give_identical_histories(self):
        def run(seed):
            task = LeastSquares()
            history = task.fit(np.random.default_rng(seed))
            return history.train_loss, history.lrs, task.w.data.tobytes()

        assert run(7) == run(7)
        # The drawn row order reaches the result, so the check above has teeth.
        assert run(7)[0] != run(8)[0]

    def test_fit_leaves_data_and_gradients_views_into_the_arena(self, monkeypatch):
        states, views = [], []

        def spy(params, state, lr):
            # Backward added into the gradients in place, so they are still views.
            states.append(state)
            views.append([np.shares_memory(p.grad, state.grad) for p in params])
            adam_step(params, state, lr)

        monkeypatch.setattr(optim, "adam_step", spy)
        task = TwoParameterLine()
        val_values = iter([2.0, 1.0, 3.0])

        def val_batches():
            yield Tensor(next(val_values)), 1

        history = task.fit(np.random.default_rng(2), epochs=3, val_batches=val_batches)
        assert history.best_epoch == 1
        state = states[0]
        assert all(s is state for s in states)
        assert all(all(step) for step in views)
        for p in (task.w, task.b):
            assert np.shares_memory(p.data, state.data), p.name
            assert np.shares_memory(p.grad, state.grad), p.name
        assert state.data.tobytes() == task.after_epoch[1].tobytes()
