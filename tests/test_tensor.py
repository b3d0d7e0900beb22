"""Kernel forward values, error contracts, gradient correctness, and the
tape: what records a graph, and backward against the stack walk it replaced."""

import numpy as np
import pytest
from conftest import all_kernel_loss, make_cohort, make_record, make_visit

import visitrep.numerics.tensor as tensor_module
from visitrep.cohort import TASK_MORTALITY, build_vocabulary
from visitrep.code_embedder import (
    CodeEmbedderConfig,
    CodeEmbedderModel,
    build_batch,
    forward_histories,
    skip_gram_counts,
    skip_gram_loss,
)
from visitrep.numerics import (
    Parameter,
    StepDecay,
    Tensor,
    add,
    add_layer_norm,
    binary_xent,
    causal_attention,
    clip,
    concat,
    fit,
    gather_rows,
    gru_decode,
    gru_sweep,
    layer_norm,
    linear,
    log,
    masked_fill,
    matmul,
    max_relative_error,
    mean,
    mul,
    recording,
    relu,
    reshape,
    scale,
    sigmoid,
    slice_axis,
    softmax,
    tanh,
    transpose,
    tsum,
    uniform_init,
)
from visitrep.patient_rep import RepresentationPipeline
from visitrep.synth import SynthConfig, generate_cohort
from visitrep.tasks import ClassifierModel, predict
from visitrep.text_embedder import (
    SummarizerConfig,
    SummarizerModel,
    TokenVocabulary,
    build_token_vocabulary,
    reconstruction_loss,
    sentence_batches,
    summarize,
    text_chunks,
    visit_tokens,
)


class TestForwardValues:
    def test_softmax_uniform_logits(self):
        """Equal logits give equal probabilities."""
        out = softmax(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 4, 9)) * 10)
        out = softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_is_stable_for_large_logits(self):
        out = softmax(Tensor([[1000.0, 1000.0, -1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5, 0.0]], atol=1e-15)

    def test_masked_entries_get_zero_probability(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(6, 6)))
        mask = np.triu(np.ones((6, 6), dtype=bool), k=1)
        out = softmax(masked_fill(x, mask))
        assert (out.data[mask] == 0.0).all()
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_fully_masked_row_is_an_error(self):
        x = Tensor(np.zeros((2, 3)))
        mask = np.zeros((2, 3), dtype=bool)
        mask[1] = True
        with pytest.raises(ValueError, match="fully masked"):
            softmax(masked_fill(x, mask))

    def test_matmul_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        out = matmul(Tensor(a), Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a)

    def test_matmul_batched_broadcasts_rhs(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=(5, 2))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b, atol=1e-15)

    def test_layer_norm_rows_are_standardized(self):
        rng = np.random.default_rng(2)
        out = layer_norm(Tensor(rng.normal(size=(7, 16)) * 3 + 5))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-4)

    def test_relu_and_sigmoid_ranges(self):
        x = Tensor(np.linspace(-30, 30, 101))
        assert (relu(x).data >= 0).all()
        s = sigmoid(x).data
        assert (s > 0).all() and (s < 1).all()
        # Far outside that range float64 saturates to exactly 0/1, which is
        # why probability consumers clip before taking logs.
        assert sigmoid(Tensor([60.0])).data[0] == 1.0

    def test_concat_then_slice_round_trip(self):
        a = np.ones((2, 3))
        b = np.zeros((2, 2))
        cat = concat([Tensor(a), Tensor(b)], axis=1)
        assert cat.shape == (2, 5)
        back = slice_axis(cat, 1, 0, 3)
        np.testing.assert_array_equal(back.data, a)

    def test_gather_rows_selects(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = gather_rows(table, [2, 0, 2])
        np.testing.assert_array_equal(out.data, table.data[[2, 0, 2]])


def old_sigmoid(x):
    """The four boolean-indexed passes sigmoid ran before: the oracle."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def old_add_layer_norm(x, r, g, b, eps=1e-5):
    """add_layer_norm's forward with np.var, as before: the oracle."""
    total = x + r
    mu = total.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(total.var(axis=-1, keepdims=True) + eps)
    return (total - mu) * inv * g + b


def old_add_layer_norm_vjp(x, r, g, go, eps=1e-5):
    """add_layer_norm's gradient into x with np.mean, as before: the oracle."""
    centered = x + r - (x + r).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    normed = centered * inv
    gn = go * g
    gm = gn.mean(axis=-1, keepdims=True)
    return inv * (gn - gm - normed * (gn * normed).mean(axis=-1, keepdims=True))


class TestBitwiseAgainstOldExpressions:
    def test_sigmoid(self):
        rng = np.random.default_rng(8)
        edges = np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0])
        cases = [edges] + [rng.normal(size=(32, 9, 48)) * s for s in (1.0, 10.0, 100.0)]
        for x in cases:
            assert sigmoid(Tensor(x)).data.tobytes() == old_sigmoid(x).tobytes()

    def test_add_layer_norm(self):
        rng = np.random.default_rng(9)
        for shape in [(32, 9, 32), (3, 5, 7), (1, 1, 4), (40, 16)]:
            for _ in range(50):
                x = rng.normal(size=shape) * rng.uniform(0.01, 100.0) + rng.normal() * 10
                r = rng.normal(size=shape)
                g, b = rng.normal(size=(1, shape[-1])), rng.normal(size=(1, shape[-1]))
                got = add_layer_norm(Tensor(x), Tensor(r), Tensor(g), Tensor(b)).data
                assert got.tobytes() == old_add_layer_norm(x, r, g, b).tobytes()

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 31, 32, 33, 128], ids=lambda w: f"w{w}")
    def test_reduce_then_divide_is_mean(self, width):
        """np.add.reduce then / n, as the mean kernel and add_layer_norm's
        forward and VJP take their means, is .mean bitwise."""
        rng = np.random.default_rng(width)
        for shape in [(width,), (115, width), (3, 5, width)]:
            x = rng.normal(size=shape) * rng.uniform(0.01, 100.0) + rng.normal() * 10
            for axis in range(len(shape)):
                got = mean(Tensor(x), axis).data
                assert np.asarray(got).tobytes() == np.asarray(x.mean(axis=axis)).tobytes()
        x = Tensor(rng.normal(size=(115, width)) * 3.0, requires_grad=True)
        r = Tensor(rng.normal(size=(115, width)))
        g, b = Tensor(rng.normal(size=(1, width))), Tensor(rng.normal(size=(1, width)))
        go = rng.normal(size=(115, width))
        with recording():
            out = add_layer_norm(x, r, g, b)
            tsum(mul(out, Tensor(go))).backward()
        assert out.data.tobytes() == old_add_layer_norm(x.data, r.data, g.data, b.data).tobytes()
        assert x.grad.tobytes() == old_add_layer_norm_vjp(x.data, r.data, g.data, go).tobytes()


class TestErrorContracts:
    def test_matmul_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_add_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 2\)"):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))

    def test_nan_input_rejected(self):
        bad = Tensor(np.zeros(3))
        bad.data[1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            sigmoid(bad)

    def test_nonfinite_leaf_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.inf])

    @pytest.mark.parametrize("kernel", [mul, add, matmul], ids=["mul", "add", "matmul"])
    def test_overflow_of_finite_inputs_names_the_op(self, kernel):
        x = Tensor(np.full((2, 2), 1e308))
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=rf"^{kernel.__name__}: inf in output \(2, 2\)$"
        ):
            kernel(x, x)

    def test_causal_attention_refuses_a_fully_masked_query(self):
        x = Tensor(np.ones((2, 4)))
        wqkv, wo = Tensor(np.ones((1, 4, 6))), Tensor(np.ones((1, 2, 4)))
        bo = Tensor(np.zeros((1, 4)))
        real = np.array([[True, True]])
        blocked = np.array([[[True, True], [False, False]]])
        with pytest.raises(ValueError, match="fully masked"):
            causal_attention(x, wqkv, wo, bo, real, blocked)

    @pytest.mark.parametrize(
        "real, blocked, match",
        [
            (np.array([[True, False]]), np.zeros((1, 2, 2), bool), "with 2 slots set"),
            (np.array([[1, 1]]), np.zeros((1, 2, 2), bool), "boolean"),
            (np.array([True, True]), np.zeros((1, 2, 2), bool), "boolean"),
            (np.array([[True, True]]), np.zeros((1, 2, 3), bool), r"\(1, 2, 2\) mask"),
        ],
        ids=["slots", "int-real", "1-d-real", "blocked-shape"],
    )
    def test_causal_attention_checks_its_masks(self, real, blocked, match):
        x, bo = Tensor(np.ones((2, 4))), Tensor(np.zeros((1, 4)))
        wqkv, wo = Tensor(np.ones((1, 4, 6))), Tensor(np.ones((1, 2, 4)))
        with pytest.raises(ValueError, match=match):
            causal_attention(x, wqkv, wo, bo, real, blocked)

    @pytest.mark.parametrize(
        "gx, u",
        [((2, 4, 9), (3, 6)), ((2, 4, 6), (3, 9)), ((4, 9), (3, 9)), ((2, 4, 9), (9, 3))],
        ids=["u-not-3h-wide", "gx-width", "gx-2-d", "u-transposed"],
    )
    def test_gru_sweep_checks_its_shapes(self, gx, u):
        with pytest.raises(ValueError, match=r"^gru_sweep: gx .* and u .* disagree$"):
            gru_sweep(Tensor(np.ones(gx)), Tensor(np.ones(u)))

    @pytest.mark.parametrize(
        "states, targets, coins, match",
        [
            ((3, 4, 2), (2, 4, 5), 3, "states .* and targets .* disagree"),
            ((2, 3, 2), (2, 4, 5), 3, "states .* and targets .* disagree"),
            ((4, 2), (2, 4, 5), 3, "states .* and targets .* disagree"),
            ((2, 4, 3), (2, 4, 5), 3, r"weights .* do not fit states \(2, 4, 3\)"),
            ((2, 4, 2), (2, 4, 5), 4, r"coins must be 3 booleans"),
            ((2, 4, 2), (2, 4, 5), [1, 0, 1], r"coins must be 3 booleans"),
        ],
        ids=["batch", "sentences", "2-d-states", "state-width", "coin-count", "int-coins"],
    )
    def test_gru_decode_checks_its_shapes(self, states, targets, coins, match):
        """The weights fit h = 2 and k = 5."""
        weights = [Tensor(np.ones(s)) for s in [(5, 6), (2, 6), (6,), (2, 5), (5,)]]
        coins = np.zeros(coins, bool) if isinstance(coins, int) else np.array(coins)
        with pytest.raises(ValueError, match=rf"^gru_decode: {match}"):
            gru_decode(Tensor(np.ones(states)), Tensor(np.ones(targets)), coins, *weights)

    def test_binary_xent_checks_eps_and_shapes(self):
        p = Tensor(np.full((2, 3), 0.5))
        with pytest.raises(ValueError, match="eps"):
            binary_xent(p, np.ones((2, 3)), np.zeros((2, 3)), 0.5)
        with pytest.raises(ValueError, match=r"must match p \(2, 3\)"):
            binary_xent(p, np.ones((2, 1)), np.zeros((2, 3)), 1e-7)

    def test_masked_fill_inf_reaches_softmax_only(self):
        x = Tensor(np.zeros((2, 3)))
        mask = np.eye(2, 3, dtype=bool)
        filled = masked_fill(x, mask)
        assert np.isneginf(filled.data[mask]).all()
        np.testing.assert_allclose(softmax(filled).data, [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        with pytest.raises(ValueError, match=r"^add: inf in output \(2, 3\)$"):
            add(filled, x)

    def test_nonfinite_parameter_is_named(self):
        w = Parameter(np.ones((3, 2)), "layer0.wqkv")
        # As a diverged optimizer step would leave it: inf and NaN both
        # present, so the error must say NaN.
        w.data[0] = [np.inf, np.nan]
        with pytest.raises(
            ValueError,
            match=r"^matmul: NaN in output \(4, 2\); inputs include parameter 'layer0.wqkv'$",
        ):
            matmul(Tensor(np.ones((4, 3))), w)

    def test_backward_without_graph(self):
        with pytest.raises(ValueError, match="before any forward"):
            Tensor(1.0).backward()

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            relu(x).backward()

    def test_masked_fill_wants_matching_bool_mask(self):
        x = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="boolean"):
            masked_fill(x, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            masked_fill(x, np.zeros((2, 3), dtype=bool))

    def test_log_rejects_non_positive(self):
        with pytest.raises(ValueError, match="non-positive"):
            log(Tensor([0.5, 0.0]))


class TestOperatorsTakeTensorsOnly:
    """`+`, `-` and `@` join two tensors; scalars go through scale and shift."""

    def test_operators_are_their_kernels(self):
        rng = np.random.default_rng(3)
        a, b = Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(3, 3)))
        assert (a + b).data.tobytes() == add(a, b).data.tobytes()
        assert (a - b).data.tobytes() == add(a, scale(b, -1.0)).data.tobytes()
        assert (a @ b).data.tobytes() == matmul(a, b).data.tobytes()

    @pytest.mark.parametrize(
        "expr",
        [
            lambda t: t + 1.0,
            lambda t: 2.0 * t,
            lambda t: t * t,
            lambda t: 1.0 - t,
            lambda t: -t,
            lambda t: t + np.ones(t.shape),
            lambda t: np.ones(t.shape) - t,
            lambda t: t @ np.eye(2),
            lambda t: mean(t),
        ],
        ids=["add-float", "float-mul", "mul", "float-sub", "neg", "add-array", "array-sub",
             "matmul-array", "mean-without-axis"],
    )
    def test_any_other_form_is_a_type_error(self, expr):
        with pytest.raises(TypeError):
            expr(Tensor(np.ones((2, 2))))

    def test_a_sum_is_tsum_only(self):
        assert not hasattr(Tensor(np.ones(2)), "sum")
        np.testing.assert_array_equal(tsum(Tensor(np.ones(2))).data, 2.0)


class TestBackwardBasics:
    def test_unreached_parameter_keeps_zero_gradient(self):
        used = Parameter(np.ones((2, 2)), "used")
        unused = Parameter(np.ones((2, 2)), "unused")
        for p in (used, unused):
            p.grad.fill(0.0)
        with recording():
            loss = tsum(sigmoid(used))
            loss.backward()
        assert (used.grad != 0).any()
        np.testing.assert_array_equal(unused.grad, 0.0)

    def test_gradients_accumulate_across_fanout(self):
        x = Parameter(np.array([[2.0]]), "x")
        x.grad.fill(0.0)
        with recording():
            y = x + x  # dy/dx = 2
            tsum(y).backward()
        np.testing.assert_allclose(x.grad, [[2.0]], atol=1e-15)

    def test_forward_and_backward_are_deterministic(self):
        def run():
            rng = np.random.default_rng(123)
            w = Parameter(rng.normal(size=(4, 4)), "w")
            x = Tensor(rng.normal(size=(3, 4)))
            with recording():
                loss = tsum(mul(softmax(matmul(x, w)), Tensor(rng.normal(size=(3, 4)))))
                loss.backward()
            return loss.data.copy(), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert g1.tobytes() == g2.tobytes()


def _fd_check(build, params, tol=1e-4):
    err = max_relative_error(build, params, h=1e-5)
    assert err < tol, f"max relative error {err:.3e}"


class TestKernelGradients:
    """Every kernel against central finite differences (h = 1e-5)."""

    def setup_method(self):
        self.rng = np.random.default_rng(99)

    def _param(self, *shape):
        return Parameter(self.rng.uniform(-1.0, 1.0, size=shape), "p")

    def test_matmul(self):
        a, b = self._param(3, 4), self._param(4, 2)
        _fd_check(lambda: tsum(matmul(a, b)), [a, b])

    def test_matmul_batched(self):
        a, b = self._param(2, 3, 4), self._param(4, 2)
        c = self._param(2, 2, 3)
        _fd_check(lambda: tsum(matmul(c, matmul(a, b))), [a, b, c])

    def test_add_broadcast(self):
        a, b = self._param(3, 4), self._param(1, 4)
        _fd_check(lambda: tsum(sigmoid(a + b)), [a, b])

    def test_mul_broadcast(self):
        a, b = self._param(2, 3, 4), self._param(1, 4)
        _fd_check(lambda: tsum(tanh(mul(a, b))), [a, b])

    def test_sigmoid_tanh_relu(self):
        x = self._param(5, 3)
        _fd_check(lambda: tsum(sigmoid(x)), [x])
        _fd_check(lambda: tsum(tanh(x)), [x])
        # Keep entries away from the relu kink.
        y = Parameter(self.rng.uniform(0.2, 1.0, size=(4, 4)) * np.sign(self.rng.normal(size=(4, 4))), "y")
        _fd_check(lambda: tsum(relu(y)), [y])

    def test_softmax(self):
        x = self._param(4, 5)
        w = Tensor(self.rng.normal(size=(4, 5)))
        _fd_check(lambda: tsum(mul(softmax(x), w)), [x])

    def test_masked_softmax(self):
        x = self._param(1, 5, 5)
        mask = np.broadcast_to(np.triu(np.ones((5, 5), dtype=bool), k=1), (1, 5, 5))
        w = Tensor(self.rng.normal(size=(1, 5, 5)))
        _fd_check(lambda: tsum(mul(softmax(masked_fill(x, mask)), w)), [x])

    def test_layer_norm(self):
        x = self._param(3, 6)
        w = Tensor(self.rng.normal(size=(3, 6)))
        _fd_check(lambda: tsum(mul(layer_norm(x), w)), [x])

    def test_concat(self):
        a, b = self._param(2, 3), self._param(2, 2)
        _fd_check(lambda: tsum(sigmoid(concat([a, b], axis=1))), [a, b])

    def test_mean_and_sum_axes(self):
        x = self._param(3, 4, 5)
        _fd_check(lambda: tsum(sigmoid(mean(x, axis=1))), [x])
        _fd_check(lambda: tsum(mean(x, axis=2)), [x])
        _fd_check(lambda: tsum(tanh(tsum(x, axis=2))), [x])

    def test_log_clip(self):
        x = Parameter(self.rng.uniform(0.1, 0.9, size=(4, 3)), "x")
        _fd_check(lambda: tsum(log(clip(x, 1e-7, 1 - 1e-7))), [x])

    def test_transpose_reshape_slice_gather(self):
        x = self._param(4, 6)
        _fd_check(lambda: tsum(sigmoid(transpose(x))), [x])
        _fd_check(lambda: tsum(tanh(reshape(x, (2, 12)))), [x])
        _fd_check(lambda: tsum(sigmoid(slice_axis(x, 1, 1, 4))), [x])
        _fd_check(lambda: tsum(tanh(gather_rows(x, [0, 2, 2, 3]))), [x])

    def test_causal_attention(self):
        """Five packed rows, two heads; the second patient's last slot is
        padding."""
        x = self._param(5, 4)
        wqkv, wo, bo = self._param(2, 4, 6), self._param(2, 2, 4), self._param(1, 4)
        real = np.array([[True, True, True], [True, True, False]])
        blocked = np.triu(np.ones((3, 3), dtype=bool), k=1)[None] | ~real[:, None, :]
        w = Tensor(self.rng.normal(size=(5, 4)))
        _fd_check(
            lambda: tsum(mul(causal_attention(x, wqkv, wo, bo, real, blocked), w)),
            [x, wqkv, wo, bo],
        )

    def test_add_layer_norm(self):
        x, r = self._param(2, 3, 5), self._param(2, 3, 5)
        g, b = self._param(1, 5), self._param(1, 5)
        w = Tensor(self.rng.normal(size=(2, 3, 5)))
        _fd_check(lambda: tsum(mul(add_layer_norm(x, r, g, b), w)), [x, r, g, b])

    @pytest.mark.parametrize("use_relu", [False, True], ids=["affine", "relu"])
    def test_linear(self, use_relu):
        x, w, b = self._param(2, 3, 4), self._param(4, 5), self._param(1, 5)
        # Finite differences straddling the relu kink would disagree.
        assert np.abs(x.data @ w.data + b.data).min() > 1e-3
        v = Tensor(self.rng.normal(size=(2, 3, 5)))
        _fd_check(lambda: tsum(mul(linear(x, w, b, relu=use_relu), v)), [x, w, b])

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_gru_sweep(self, reverse):
        gx, u = self._param(2, 4, 9), self._param(3, 9)
        w = Tensor(self.rng.normal(size=(2, 4, 3)))
        _fd_check(lambda: tsum(mul(gru_sweep(gx, u, reverse), w)), [gx, u])

    def test_gru_decode(self):
        """Mixed coins: the second input is the true row, the other two the
        decoder's own outputs."""
        states, targets = self._param(2, 4, 3), self._param(2, 4, 5)
        w, u, b = self._param(5, 9), self._param(3, 9), self._param(9)
        out_w, out_b = self._param(3, 5), self._param(5)
        coins = np.array([False, True, False])
        v = Tensor(self.rng.normal(size=(2, 4, 5)))
        params = [states, targets, w, u, b, out_w, out_b]
        _fd_check(lambda: tsum(mul(gru_decode(states, targets, coins, *params[2:]), v)), params)

    def test_binary_xent_with_clipped_ends(self):
        """Entries below eps and above 1 - eps pass no gradient."""
        eps = 0.05
        p = Parameter(
            np.concatenate([self.rng.uniform(0.1, 0.9, size=6), [0.01, 0.03, 0.97, 0.99]]), "p"
        )
        hit = self.rng.integers(0, 3, size=10).astype(float)
        miss = self.rng.integers(0, 3, size=10).astype(float)
        _fd_check(lambda: binary_xent(p, hit, miss, eps), [p])
        p.grad = np.zeros_like(p.data)
        with recording():
            binary_xent(p, hit, miss, eps).backward()
        assert (p.grad[6:] == 0.0).all() and (p.grad[:6] != 0.0).any()

    def test_random_composites(self):
        """Stacked pipelines of kernels, checked end to end."""
        for trial in range(5):
            rng = np.random.default_rng(1000 + trial)
            w1 = Parameter(rng.uniform(-1, 1, size=(6, 8)), "w1")
            w2 = Parameter(rng.uniform(-1, 1, size=(8, 4)), "w2")
            x = Tensor(rng.uniform(-1, 1, size=(5, 6)))
            t = Tensor(rng.uniform(0.1, 0.9, size=(5, 4)))

            def build():
                h = layer_norm(tanh(matmul(x, w1)))
                p = softmax(matmul(h, w2))
                return scale(tsum(mul(log(clip(p, 1e-7, 1 - 1e-7)), t)), -1.0 / t.data.size)

            _fd_check(build, [w1, w2])


class TestInit:
    def test_uniform_init_bounds_and_determinism(self):
        vals = uniform_init(np.random.default_rng(5), (100, 4), fan_in=16)
        assert np.abs(vals).max() <= 0.25
        again = uniform_init(np.random.default_rng(5), (100, 4), fan_in=16)
        assert vals.tobytes() == again.tobytes()

    def test_bad_fan_in(self):
        with pytest.raises(ValueError):
            uniform_init(np.random.default_rng(0), (2, 2), fan_in=0)


def manual_backward(loss):
    """The graph search backward ran before the tape: an iterative postorder
    over the recorded parents from `loss`, walked in reverse. The oracle
    for the tape's gradients."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._vjps:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        g = node.grad
        if g is None:
            continue
        for parent, vjp in node._vjps:
            contrib = vjp(g)
            if parent.grad is None:
                parent.grad = np.array(contrib, dtype=np.float64, copy=True)
            else:
                parent.grad += contrib
        if node._vjps:
            node.grad = None


def walk_keeping_closures(loss):
    """The tape's reverse walk with every node's closures left in place: the
    bitwise oracle for the backward that drops them as it goes."""
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tensor_module._tape):
        g, node.grad = node.grad, None
        if g is None:
            continue
        for parent, vjp in node._vjps:
            contrib = vjp(g)
            if parent.grad is None:
                parent.grad = np.array(contrib, dtype=np.float64, copy=True)
            else:
                parent.grad += contrib
    tensor_module._tape.clear()


def summarizer_step():
    """One train_summarizer batch at c6's shape, encoder frozen as there."""
    cohort = generate_cohort(SynthConfig(n_patients=60, n_conditions=8, seed=202))[0]
    config = SummarizerConfig(
        d_text=16, d_enc=16, chunk_size=32, epochs=6, batch_size=16, train_encoder=False
    )
    vocab = build_token_vocabulary(*visit_tokens(cohort), config.min_token_freq, config.max_tokens)
    model = SummarizerModel(vocab, config, np.random.default_rng(config.seed))
    model.bag.table.requires_grad = False
    texts = (" ".join(n.text for n in v.notes) for p in cohort.patients for v in p.visits)
    chunks = [c for c in (text_chunks(t, vocab, config.chunk_size) for t in texts) if c]
    _, u = next(sentence_batches(model.bag, chunks, config.batch_size))

    def build():
        coins = np.random.default_rng(5)
        u_hat = model.decode(model.encode(u), u, config.teacher_forcing, coins)
        return reconstruction_loss(u_hat, u)

    return build, [p for p in model.parameters() if p.requires_grad]


def code_step():
    """One fit-code step: B=32, 48 codes, d=32, 4 heads x 8."""
    config = CodeEmbedderConfig(d_code=32, n_layers=1, n_heads=4, d_head=8, batch_size=32)
    model = CodeEmbedderModel(48, config, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    lengths = rng.integers(2, 6, size=32)
    batch = build_batch([(rng.random((n, 48)) < 0.3).astype(float) for n in lengths])

    def build():
        _, chat = model.forward(batch)
        return skip_gram_loss(chat, *skip_gram_counts(batch.codes, batch.lengths, config.window))[0]

    return build, model.parameters()


class TestTapeAgainstStackWalk:
    @pytest.mark.parametrize(
        "graph",
        [all_kernel_loss, summarizer_step, code_step],
        ids=["c1-kernels", "c6-summarizer", "fit-code"],
    )
    def test_gradients_match_within_1e_12(self, graph):
        build, params = graph()
        grads = []
        for walk in (manual_backward, Tensor.backward):
            for p in params:
                p.grad = np.zeros_like(p.data)
            with recording():
                walk(build())
            grads.append([p.grad.copy() for p in params])
        for p, got, want in zip(params, *grads):
            scale = max(np.abs(want).max(), 1e-300)
            assert np.abs(got - want).max() <= 1e-12 * scale, p.name


def tiny_models():
    """An untrained pipeline, head and cohort: recording does not depend on
    the parameter values."""
    cohort = make_cohort(
        make_record("p1", [
            make_visit(0, 2, codes=[("dx", "a"), ("med", "x")], notes=[(1, "fever cough")]),
            make_visit(40, 1, codes=[("dx", "b")], notes=[(1, "fever rash")]),
        ]),
        make_record("p2", [make_visit(5, 1, codes=[("med", "x")], notes=[(2, "cough rash")])]),
    )
    vocab = build_vocabulary(cohort)
    rng = np.random.default_rng(0)
    code_config = CodeEmbedderConfig(d_code=4, n_layers=1, n_heads=2, d_head=2)
    code_model = CodeEmbedderModel(len(vocab), code_config, rng)
    summarizer = SummarizerModel(
        TokenVocabulary(("<unk>", "cough", "fever", "rash")),
        SummarizerConfig(d_text=4, d_enc=3, chunk_size=2, batch_size=2),
        rng,
    )
    pipeline = RepresentationPipeline(code_model, summarizer, vocab, cohort)
    return cohort, pipeline, ClassifierModel(5, TASK_MORTALITY, rng)


INFERENCE = {
    "represent_cohort": lambda c, pipe, head: pipe.represent_cohort(c, TASK_MORTALITY),
    "forward_histories": lambda c, pipe, head: forward_histories(
        pipe.code_model, [np.eye(2, len(pipe.vocab)), np.ones((1, len(pipe.vocab)))]
    ),
    "summarize": lambda c, pipe, head: summarize(pipe.summarizer, np.ones((2, 3, 4))),
    "predict": lambda c, pipe, head: predict(head, np.ones((3, 5))),
}


class TestRecording:
    @pytest.fixture
    def made(self, monkeypatch):
        """Every node an op makes while the test runs."""
        nodes = []
        make = Tensor._make_node

        def spy(op, data, parents_and_vjps):
            nodes.append(make(op, data, parents_and_vjps))
            return nodes[-1]

        monkeypatch.setattr(Tensor, "_make_node", staticmethod(spy))
        return nodes

    def test_an_op_on_a_parameter_records_only_inside_the_block(self):
        w = Parameter(np.ones((2, 2)), "w")
        out = matmul(w, w)
        assert out._vjps == () and not out.requires_grad
        with recording():
            assert len(matmul(w, w)._vjps) == 2

    @pytest.mark.parametrize("entry", INFERENCE)
    def test_inference_records_nothing(self, entry, made):
        cohort, pipeline, head = tiny_models()
        INFERENCE[entry](cohort, pipeline, head)
        assert made and all(n._vjps == () and not n.requires_grad for n in made)

    def test_backward_outside_the_block_is_refused(self):
        w = Parameter(np.ones(2), "w")
        with pytest.raises(ValueError, match="not on the open tape"):
            tsum(mul(w, w)).backward()

    def test_backward_on_a_loss_from_a_closed_block_is_refused(self):
        w = Parameter(np.ones(2), "w")
        with recording():
            loss = tsum(mul(w, w))
        with pytest.raises(ValueError, match="not on the open tape"):
            loss.backward()
        with recording(), pytest.raises(ValueError, match="not on the open tape"):
            loss.backward()
        np.testing.assert_array_equal(w.grad, 0.0)

    @pytest.mark.parametrize(
        "graph",
        [all_kernel_loss, summarizer_step, code_step],
        ids=["c1-kernels", "c6-summarizer", "fit-code"],
    )
    def test_backward_drops_every_closure_and_keeps_the_gradients_bitwise(self, graph, made):
        build, params = graph()
        results = []
        for walk in (walk_keeping_closures, Tensor.backward):
            for p in params:
                p.grad = np.zeros_like(p.data)
            made.clear()
            with recording():
                loss = build()
                walk(loss)
            results.append([loss.data.tobytes(), *(p.grad.tobytes() for p in params)])
        assert made and all(n._vjps == () for n in made)
        assert results[1] == results[0]

    def test_backward_empties_the_tape(self):
        w = Parameter(np.ones(2), "w")
        with recording():
            square = mul(w, w)
            loss = tsum(square)
            assert tensor_module._tape == [square, loss]
            loss.backward()
            assert tensor_module._tape == []
            with pytest.raises(ValueError, match="not on the open tape"):
                loss.backward()
        np.testing.assert_array_equal(w.grad, 2.0)

    def test_a_tape_is_not_opened_inside_another(self):
        with recording():
            with pytest.raises(RuntimeError, match="already open"):
                with recording():
                    pass
            assert tensor_module._tape == []
        assert tensor_module._tape is None

    def test_the_tape_closes_after_an_error_inside_the_block(self):
        w = Parameter(np.ones(2), "w")

        def nan_batches(order):
            loss = tsum(mul(w, w))
            loss.data = np.array(np.nan)
            yield loss, 1

        with pytest.raises(RuntimeError, match="diverged to nan"):
            fit([w], StepDecay(0.1, 1.0, 1), 1, np.random.default_rng(0), 2, nan_batches)
        assert tensor_module._tape is None
        with recording():
            loss = tsum(mul(w, w))
            loss.backward()
