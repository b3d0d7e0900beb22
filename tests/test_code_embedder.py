"""Code embedder: embedding algebra, causal masking, the skip-gram loss
against a direct-summation oracle, gradients, training, and ranking."""

import numpy as np
import pytest
from conftest import backward_graph_nodes, padded, row_counts

import visitrep.numerics as nm
from visitrep.cohort import build_vocabulary, preprocess, visit_matrix
from visitrep.code_embedder import (
    CodeEmbedderConfig,
    CodeEmbedderModel,
    SkipGramRows,
    VisitSequenceBatch,
    attention_blocked_mask,
    build_batch,
    encode_history,
    forward_histories,
    positional_encoding,
    predict_next_codes,
    rank_codes,
    skip_gram_counts,
    skip_gram_loss,
    train_code_embedder,
)
from visitrep.errors import ValidationError
from visitrep.numerics import Tensor, max_relative_error, uniform_init
from visitrep.synth import SynthConfig, generate_cohort

TINY = CodeEmbedderConfig(
    d_code=8, n_layers=1, n_heads=2, d_head=4, window=2, epochs=2, batch_size=8, seed=0
)


def tiny_model(vocab_size=6, seed=0, **kw):
    cfg = CodeEmbedderConfig(
        d_code=kw.pop("d_code", 8),
        n_layers=kw.pop("n_layers", 1),
        n_heads=kw.pop("n_heads", 2),
        d_head=kw.pop("d_head", 4),
        **kw,
    )
    return CodeEmbedderModel(vocab_size, cfg, np.random.default_rng(seed))


def manual_skip_gram(chat, targets, real, window, eps=1e-7):
    """Direct summation over valid (t, j) pairs, one pair at a time."""
    b, t, _ = chat.shape
    total, n = 0.0, 0
    for bi in range(b):
        for ti in range(t):
            if not real[bi, ti]:
                continue
            for j in range(-window, window + 1):
                if j == 0:
                    continue
                tj = ti + j
                if tj < 0 or tj >= t or not real[bi, tj]:
                    continue
                p = np.clip(chat[bi, ti], eps, 1 - eps)
                tgt = targets[bi, tj]
                total += -(tgt * np.log(p) + (1 - tgt) * np.log(1 - p)).sum()
                n += 1
    return total / n, n


def manual_forward(model, codes, real):
    """The per-head attention loop in numpy: head h projects with the q|k|v
    column blocks of wqkv[h], and the concatenated heads meet the rows of
    wo stacked head by head."""
    cfg = model.config
    d, dh = cfg.d_code, cfg.d_head

    def norm(v):
        return (v - v.mean(-1, keepdims=True)) / np.sqrt(v.var(-1, keepdims=True) + 1e-5)

    blocked = attention_blocked_mask(real)
    x = codes @ model.embed.data + positional_encoding(codes.shape[1], d)
    for layer in model.layers:
        a = {k: p.data for k, p in layer.items()}
        heads = []
        for h in range(cfg.n_heads):
            wq, wk, wv = np.split(a["wqkv"][h], 3, axis=1)
            scores = (x @ wq) @ (x @ wk).swapaxes(-1, -2) * (1.0 / np.sqrt(dh))
            scores = np.where(blocked, -np.inf, scores)
            e = np.exp(scores - scores.max(-1, keepdims=True))
            heads.append((e / e.sum(-1, keepdims=True)) @ (x @ wv))
        att = np.concatenate(heads, axis=-1) @ a["wo"].reshape(-1, d) + a["bo"]
        x = norm(x + att) * a["ln1_g"] + a["ln1_b"]
        ff = np.maximum(x @ a["w1"] + a["b1"], 0.0) @ a["w2"] + a["b2"]
        x = norm(x + ff) * a["ln2_g"] + a["ln2_b"]
    logits = x @ model.out_w.data + model.out_b.data
    return x, 1.0 / (1.0 + np.exp(-logits))


def composed_forward(model, codes, real):
    """The model's graph built from elementary kernels only, on the padded
    (B, T, |C|) codes: the reference the packed rows and the fused
    attention, residual layer norm and linear kernels reproduce."""
    cfg = model.config
    b, t, _ = codes.shape
    d, nh, dh = cfg.d_code, cfg.n_heads, cfg.d_head
    blocked = attention_blocked_mask(real)
    x = nm.matmul(Tensor(codes), model.embed) + Tensor(positional_encoding(t, d))
    for layer in model.layers:
        qkv = nm.matmul(nm.reshape(x, (b, 1, t, d)), layer["wqkv"])
        q = nm.slice_axis(qkv, 3, 0, dh)
        k = nm.slice_axis(qkv, 3, dh, 2 * dh)
        v = nm.slice_axis(qkv, 3, 2 * dh, 3 * dh)
        scores = nm.scale(nm.matmul(q, nm.transpose(k)), 1.0 / np.sqrt(float(dh)))
        mask = np.broadcast_to(blocked[:, None], scores.shape)
        weights = nm.softmax(nm.masked_fill(scores, mask))
        att = nm.tsum(nm.matmul(nm.matmul(weights, v), layer["wo"]), axis=1) + layer["bo"]
        x = nm.mul(nm.layer_norm(x + att), layer["ln1_g"]) + layer["ln1_b"]
        inner = nm.relu(nm.matmul(x, layer["w1"]) + layer["b1"])
        ff = nm.matmul(inner, layer["w2"]) + layer["b2"]
        x = nm.mul(nm.layer_norm(x + ff), layer["ln2_g"]) + layer["ln2_b"]
    return x, nm.sigmoid(nm.matmul(x, model.out_w) + model.out_b)


def composed_skip_gram_loss(chat, hit, miss, n, eps=1e-7):
    """The unfused loss graph: clip, log and the weighted sum as kernels,
    over the counts of skip_gram_counts."""
    log_p = nm.log(nm.clip(chat, eps, 1.0 - eps))
    log_q = nm.log(nm.clip(nm.shift(nm.scale(chat, -1.0), 1.0), eps, 1.0 - eps))
    return nm.scale(nm.tsum(nm.mul(log_p, Tensor(hit)) + nm.mul(log_q, Tensor(miss))), -1.0 / n)


class TestPositionalEncoding:
    def test_position_zero_alternates_zero_one(self):
        pe = positional_encoding(4, 6)
        np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-15)
        np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-15)

    def test_first_column_is_sin_of_position(self):
        pe = positional_encoding(8, 4)
        np.testing.assert_allclose(pe[:, 0], np.sin(np.arange(8.0)), atol=1e-15)

    def test_bounded_and_deterministic(self):
        pe = positional_encoding(50, 128)
        assert np.abs(pe).max() <= 1.0
        assert pe.tobytes() == positional_encoding(50, 128).tobytes()


class TestBatchAndMask:
    def test_build_batch_packs_and_flags(self):
        a = np.ones((3, 4))
        b = np.full((1, 4), 2.0)
        batch = build_batch([a, b])
        assert batch.codes.shape == (4, 4)
        np.testing.assert_array_equal(batch.codes, np.vstack([a, b]))
        assert batch.lengths.tolist() == [3, 1]
        np.testing.assert_array_equal(batch.real, [[True] * 3, [True, False, False]])
        assert batch.real.dtype == np.bool_

    def test_blocked_mask_is_causal_plus_padding(self):
        real = np.array([[True, True, False]])
        blocked = attention_blocked_mask(real)
        expected = np.array(
            [[[False, True, True], [False, False, True], [False, False, True]]]
        )
        np.testing.assert_array_equal(blocked, expected)

    def test_batch_with_empty_row_rejected(self):
        with pytest.raises(ValidationError, match="no real visits"):
            VisitSequenceBatch(codes=np.zeros((2, 3)), lengths=np.array([2, 0]))
        with pytest.raises(ValidationError, match="no real visits"):
            build_batch([np.ones((2, 3)), np.ones((0, 3))])

    def test_a_mask_with_a_hole_cannot_be_built(self):
        """The lengths define the batch: real is derived, never given, so a
        patient's rows are a prefix of its slots."""
        with pytest.raises(TypeError):
            VisitSequenceBatch(np.zeros((2, 3)), real=np.array([[True, False, True]]))
        batch = VisitSequenceBatch(np.zeros((6, 3)), np.array([2, 1, 3]))
        real = batch.real
        assert (real[:, 1:] <= real[:, :-1]).all()
        assert real.sum(axis=1).tolist() == [2, 1, 3]
        assert batch.blocked.tobytes() == attention_blocked_mask(real).tobytes()

    @pytest.mark.parametrize(
        "codes, lengths",
        [
            (np.zeros((3, 2)), np.array([2, 2])),
            (np.zeros((2, 2, 2)), np.array([2])),
            (np.zeros((2, 2)), np.array([])),
            (np.zeros((2, 2)), np.array([[2]])),
            (np.zeros((2, 2)), np.array([2.0])),
        ],
        ids=["sum", "3-d codes", "empty", "2-d lengths", "float lengths"],
    )
    def test_codes_and_lengths_must_agree(self, codes, lengths):
        with pytest.raises(ValidationError, match="disagree"):
            VisitSequenceBatch(codes, lengths)


class TestForward:
    def test_shapes_and_probability_range(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        batch = build_batch([rng.integers(0, 2, size=(4, 6)).astype(float)])
        outputs, chat = model.forward(batch)
        assert outputs.shape == (4, 8)
        assert chat.shape == (4, 6)
        assert ((chat.data > 0) & (chat.data < 1)).all()

    def test_single_visit_sequence_works(self):
        model = tiny_model()
        batch = build_batch([np.ones((1, 6))])
        outputs, _ = model.forward(batch)
        assert outputs.shape == (1, 8)

    def test_vocab_width_checked(self):
        model = tiny_model()
        with pytest.raises(ValidationError, match="expects"):
            model.forward(build_batch([np.ones((2, 5))]))

    def test_causality_is_bitwise(self):
        """Perturbing any future visit leaves earlier outputs identical."""
        model = tiny_model()
        rng = np.random.default_rng(5)
        base = rng.integers(0, 2, size=(5, 6)).astype(float)
        out_base, chat_base = model.forward(build_batch([base]))
        for cut in range(1, 5):
            mutated = base.copy()
            mutated[cut:] = rng.integers(0, 2, size=(5 - cut, 6)).astype(float)
            out_mut, chat_mut = model.forward(build_batch([mutated]))
            assert out_base.data[:cut].tobytes() == out_mut.data[:cut].tobytes()
            assert chat_base.data[:cut].tobytes() == chat_mut.data[:cut].tobytes()

    def test_padding_does_not_change_real_outputs(self):
        """A patient's outputs are identical whether or not the batch pads."""
        model = tiny_model()
        rng = np.random.default_rng(6)
        short = rng.integers(0, 2, size=(2, 6)).astype(float)
        long = rng.integers(0, 2, size=(5, 6)).astype(float)
        alone, _ = model.forward(build_batch([short]))
        padded, _ = model.forward(build_batch([short, long]))
        assert alone.data.tobytes() == padded.data[:2].tobytes()

    def test_a_patients_rows_do_not_depend_on_its_batch(self):
        """Each patient's rows are bitwise the same in a batch, in that batch
        reversed, and beside one other patient or alone. The 8-, 9- and
        12-visit neighbours pad the short histories past the length at which
        numpy sums a last axis pairwise. A batch of a single row is left out:
        numpy multiplies a one-row matrix with a matrix-vector routine, which
        rounds differently (as it did for a padded (1, 1, |C|) batch)."""
        model = tiny_model(vocab_size=7, d_code=6, n_layers=2, n_heads=3, d_head=4, seed=2)
        rng = np.random.default_rng(11)
        mats = [(rng.random((n, 7)) < 0.4).astype(float) for n in (5, 1, 3, 5, 2, 4, 8, 9, 12)]

        def rows(matrices):
            outputs, chat = model.forward(build_batch(matrices))
            cuts = np.cumsum([len(m) for m in matrices])[:-1]
            return list(zip(np.split(outputs.data, cuts), np.split(chat.data, cuts)))

        together, backwards = rows(mats), rows(mats[::-1])[::-1]
        for i, m in enumerate(mats):
            others = [rows([m, mats[i - 1]])[0]] + ([rows([m])[0]] if len(m) > 1 else [])
            for got in [backwards[i]] + others:
                for a, g in zip(together[i], got):
                    assert a.tobytes() == g.tobytes()


    def test_fused_heads_match_per_head_oracle(self):
        """Padded 2-layer batch, n_heads * d_head != d_code."""
        model = tiny_model(vocab_size=7, d_code=6, n_layers=2, n_heads=3, d_head=4, seed=2)
        rng = np.random.default_rng(10)
        batch = build_batch(
            [rng.integers(0, 2, size=(n, 7)).astype(float) for n in (5, 2, 4)]
        )
        outputs, chat = model.forward(batch)
        want_out, want_chat = manual_forward(model, padded(batch, batch.codes), batch.real)
        np.testing.assert_allclose(outputs.data, want_out[batch.real], rtol=0, atol=1e-12)
        np.testing.assert_allclose(chat.data, want_chat[batch.real], rtol=0, atol=1e-12)

    def test_fused_initial_arrays_equal_per_head_draws(self):
        """wqkv[h] is head h's wq|wk|wv and wo its (nh·dh, d) matrix, drawn
        in that order, so a seed gives the values of separate parameters."""
        d, nh, dh, vocab = 6, 3, 4, 7
        model = tiny_model(vocab_size=vocab, d_code=d, n_layers=2, n_heads=nh, d_head=dh, seed=4)
        assert len(model.parameters()) == 11 * 2 + 3
        rng = np.random.default_rng(4)

        def draw(shape):
            return uniform_init(rng, shape, shape[0]).tobytes()

        assert model.embed.data.tobytes() == draw((vocab, d))
        for layer in model.layers:
            for h in range(nh):
                for block in np.split(layer["wqkv"].data[h], 3, axis=1):
                    assert block.tobytes() == draw((d, dh))
            assert layer["wo"].data.reshape(nh * dh, d).tobytes() == draw((nh * dh, d))
            assert layer["w1"].data.tobytes() == draw((d, 4 * d))
            assert layer["w2"].data.tobytes() == draw((4 * d, d))
        assert model.out_w.data.tobytes() == draw((d, vocab))


def _packed_batch(rng, vocab_size, lengths):
    return build_batch(
        [(rng.random((n, vocab_size)) < 0.3).astype(float) for n in lengths]
    )


class TestFusedAgainstComposed:
    """The packed rows and fused kernels against the composed graph on the
    padded batch, the path they replaced."""

    SHAPES = [
        dict(vocab_size=7, d_code=6, n_layers=2, n_heads=3, d_head=4, lengths=(5, 2, 4)),
        dict(vocab_size=6, d_code=8, n_layers=1, n_heads=2, d_head=4, lengths=(3,)),
        dict(vocab_size=48, d_code=32, n_layers=1, n_heads=4, d_head=8, lengths=(5, 3, 4, 2)),
        dict(vocab_size=9, d_code=8, n_layers=2, n_heads=2, d_head=3, lengths=(4, 4, 4)),
    ]
    IDS = ["2-layer", "1-row", "fit-code", "equal-lengths"]

    @staticmethod
    def _fused_loss(model, batch):
        _, chat = model.forward(batch)
        return skip_gram_loss(chat, *skip_gram_counts(batch.codes, batch.lengths, 2))[0]

    @staticmethod
    def _composed_loss(model, batch):
        _, chat = composed_forward(model, padded(batch, batch.codes), batch.real)
        hit, miss, n = skip_gram_counts(batch.codes, batch.lengths, 2)
        return composed_skip_gram_loss(chat, padded(batch, hit), padded(batch, miss), n)

    @staticmethod
    def _model_and_batch(shape, model_seed, batch_seed):
        shape = dict(shape)
        lengths = shape.pop("lengths")
        model = tiny_model(seed=model_seed, **shape)
        return model, _packed_batch(np.random.default_rng(batch_seed), shape["vocab_size"], lengths)

    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_forward_and_loss_are_bitwise(self, shape):
        """Outputs and chat are the padded graph's real rows, bitwise; the
        loss is the composed loss graph over those rows, bitwise."""
        model, batch = self._model_and_batch(shape, 3, 17)
        outputs, chat = model.forward(batch)
        want_out, want_chat = composed_forward(model, padded(batch, batch.codes), batch.real)
        assert outputs.data.tobytes() == want_out.data[batch.real].tobytes()
        assert chat.data.tobytes() == want_chat.data[batch.real].tobytes()
        composed = composed_skip_gram_loss(
            Tensor(want_chat.data[batch.real]), *skip_gram_counts(batch.codes, batch.lengths, 2)
        )
        assert self._fused_loss(model, batch).data.tobytes() == composed.data.tobytes()

    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_loss_matches_the_padded_loss_within_1e_12(self, shape):
        """Over padded slots the loss sums the same terms in another order."""
        model, batch = self._model_and_batch(shape, 3, 17)
        fused = float(self._fused_loss(model, batch).data)
        composed = float(self._composed_loss(model, batch).data)
        assert abs(fused - composed) <= 1e-12 * abs(composed)

    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_gradients_match_within_1e_12(self, shape):
        model, batch = self._model_and_batch(shape, 4, 18)
        grads = []
        for build in (self._fused_loss, self._composed_loss):
            for p in model.parameters():
                p.grad.fill(0.0)
            with nm.recording():
                loss = build(model, batch)
                loss.backward()
            grads.append([p.grad.copy() for p in model.parameters()])
        for p, got, want in zip(model.parameters(), *grads):
            scale = max(np.abs(want).max(), 1e-300)
            assert np.abs(got - want).max() <= 1e-12 * scale, p.name

    def test_training_step_graph_has_at_most_25_nodes(self):
        """One step at the fit-code shape: B=32, d=32, 4 heads x 8, recorded
        as fit records it. Exactly 25: outside the tape the loss would have
        no parents and count 1."""
        cfg = CodeEmbedderConfig(d_code=32, n_layers=1, n_heads=4, d_head=8, batch_size=32)
        model = CodeEmbedderModel(48, cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batch = _packed_batch(rng, 48, rng.integers(2, 6, size=32))
        with nm.recording():
            _, chat = model.forward(batch)
            counts = skip_gram_counts(batch.codes, batch.lengths, cfg.window)
            loss, _ = skip_gram_loss(chat, *counts)
        assert backward_graph_nodes(loss) == 25


class TestSkipGramLoss:
    @pytest.mark.parametrize("window", [1, 2, 6])
    def test_counts_match_direct_counting(self, window):
        """One (patient, t, j) pair at a time, in float64 and in uint8."""
        rng = np.random.default_rng(window)
        lengths = np.array([4, 1, 6, 2, 3])
        codes = (rng.random((lengths.sum(), 5)) < 0.4).astype(float)
        hit, miss, n = np.zeros_like(codes), np.zeros_like(codes), 0
        start = 0
        for length in lengths:
            for t in range(length):
                for j in range(-window, window + 1):
                    if j and 0 <= t + j < length:
                        hit[start + t] += codes[start + t + j]
                        miss[start + t] += 1.0 - codes[start + t + j]
                        n += 1
            start += length
        got = skip_gram_counts(codes, lengths, window)
        assert got[0].tobytes() == hit.tobytes() and got[1].tobytes() == miss.tobytes()
        assert got[2] == n
        small = skip_gram_counts(codes.astype(np.uint8), lengths, window)
        assert small[0].dtype == np.uint8
        assert (small[0] == hit).all() and (small[1] == miss).all() and small[2] == n

    def test_codes_and_lengths_must_agree(self):
        with pytest.raises(ValidationError, match="disagree"):
            skip_gram_counts(np.zeros((3, 2)), np.array([2, 2]), 2)

    def test_matches_direct_summation_oracle_exactly(self):
        """Hand-buildable case: T=2, three codes, window 2."""
        rng = np.random.default_rng(3)
        chat_np = rng.uniform(0.05, 0.95, size=(1, 2, 3))
        targets = rng.integers(0, 2, size=(1, 2, 3)).astype(float)
        real = np.ones((1, 2), dtype=bool)
        loss, n = skip_gram_loss(Tensor(chat_np[real]), *row_counts(targets, real, 2))
        want, n_want = manual_skip_gram(chat_np, targets, real, window=2)
        assert n == n_want == 2
        np.testing.assert_allclose(float(loss.data.reshape(())), want, atol=1e-12)

    def test_oracle_agreement_with_padding_and_batches(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            b, t, c = 3, 5, 4
            chat_np = rng.uniform(0.02, 0.98, size=(b, t, c))
            targets = rng.integers(0, 2, size=(b, t, c)).astype(float)
            lengths = rng.integers(1, t + 1, size=b)
            lengths[0] = t
            real = np.arange(t)[None, :] < lengths[:, None]
            loss, n = skip_gram_loss(Tensor(chat_np[real]), *row_counts(targets, real, 2))
            want, n_want = manual_skip_gram(chat_np, targets, real, window=2)
            assert n == n_want
            np.testing.assert_allclose(float(loss.data.reshape(())), want, rtol=1e-12)

    def test_window_boundary_pair_count(self):
        """T=3, w=2: every ordered pair is within reach, 6 in total."""
        chat_np = np.full((1, 3, 2), 0.5)
        targets = np.zeros((1, 3, 2))
        real = np.ones((1, 3), dtype=bool)
        _, n = skip_gram_loss(Tensor(chat_np[real]), *row_counts(targets, real, 2))
        assert n == 6
        _, n1 = skip_gram_loss(Tensor(chat_np[real]), *row_counts(targets, real, 1))
        assert n1 == 4

    def test_single_visit_contributes_nothing(self):
        chat_np = np.full((2, 2, 3), 0.5)
        targets = np.zeros((2, 2, 3))
        real = np.array([[True, True], [True, False]])
        _, n = skip_gram_loss(Tensor(chat_np[real]), *row_counts(targets, real, 2))
        assert n == 2  # only the first patient's two ordered pairs

    def test_all_single_visit_batch_is_an_error(self):
        chat_np = np.full((2, 2, 3), 0.5)
        real = np.array([[True, False], [True, False]])
        with pytest.raises(ValidationError, match="no valid"):
            skip_gram_loss(Tensor(chat_np[real]), *row_counts(np.zeros((2, 2, 3)), real, 2))

    def test_perfect_prediction_loss_is_near_zero(self):
        """Identical neighbor visits predicted exactly: loss below |C| log(1/(1-eps))."""
        eps = 1e-7
        targets = np.array([[[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]]])
        real = np.ones((1, 2), dtype=bool)
        loss, _ = skip_gram_loss(
            Tensor(targets[real]), *row_counts(targets, real, 1), prob_clip=eps
        )
        bound = 3 * (-np.log(1 - eps)) * 1.0001 + 1e-12
        assert 0.0 <= float(loss.data.reshape(())) <= bound

    def test_mismatched_neighbors_pay_the_clip_penalty(self):
        """Opposite neighbor visits confidently wrong: |C| log(1/eps) per pair."""
        eps = 1e-7
        targets = np.array([[[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]])
        real = np.ones((1, 2), dtype=bool)
        loss, _ = skip_gram_loss(
            Tensor(targets[real]), *row_counts(targets, real, 1), prob_clip=eps
        )
        np.testing.assert_allclose(
            float(loss.data.reshape(())), 3 * -np.log(eps), rtol=1e-6
        )


class TestSkipGramRows:
    """Counts built once per fit, over every patient at once, against
    skip_gram_counts on a batch's own rows."""

    @staticmethod
    def _check(matrices, window, patients):
        rows = SkipGramRows.build(matrices, window)
        batch, (hit, miss, n_pairs) = rows.batch(np.asarray(patients))
        want = build_batch([matrices[i] for i in patients])
        assert batch.codes.tobytes() == want.codes.tobytes()
        assert batch.lengths.tolist() == want.lengths.tolist()
        assert batch.real.tobytes() == want.real.tobytes()
        want_hit, want_miss, want_pairs = skip_gram_counts(want.codes, want.lengths, window)
        assert hit.tobytes() == want_hit.tobytes()
        assert miss.tobytes() == want_miss.tobytes()
        assert n_pairs == want_pairs
        return n_pairs

    @pytest.mark.parametrize("window", [1, 2, 3, 7])
    def test_ragged_batches_are_bitwise(self, window):
        rng = np.random.default_rng(window)
        lengths = [5, 1, 3, 2, 6, 1, 4]
        matrices = [(rng.random((n, 6)) < 0.4).astype(float) for n in lengths]
        for patients in ([0, 1, 2, 3, 4, 5, 6], [6, 2, 0], [4], [3, 1, 3]):
            self._check(matrices, window, patients)

    def test_window_at_least_the_longest_history(self):
        rng = np.random.default_rng(3)
        matrices = [(rng.random((n, 4)) < 0.5).astype(float) for n in (3, 2, 3)]
        assert self._check(matrices, 5, [0, 1, 2]) == 6 + 2 + 6

    def test_batch_with_no_valid_pair(self):
        rng = np.random.default_rng(4)
        matrices = [(rng.random((n, 4)) < 0.5).astype(float) for n in (1, 3, 1)]
        assert self._check(matrices, 2, [0, 2]) == 0


class TestGradient:
    def test_full_model_gradient_matches_finite_differences(self):
        """Whole pipeline: embed + attention + head + skip-gram loss."""
        cfg = CodeEmbedderConfig(
            d_code=6, n_layers=1, n_heads=2, d_head=3, window=2, seed=0
        )
        model = CodeEmbedderModel(6, cfg, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        codes = rng.integers(0, 2, size=(1, 3, 6)).astype(float)
        batch = build_batch([codes[0]])

        def build():
            _, chat = model.forward(batch)
            loss, _ = skip_gram_loss(chat, *skip_gram_counts(batch.codes, batch.lengths, 2))
            return loss

        err = max_relative_error(build, model.parameters(), h=1e-5)
        assert err < 1e-4, f"max relative error {err:.3e}"


def small_training_setup(n_patients=40, seed=9):
    cohort, gt = generate_cohort(
        SynthConfig(
            n_patients=n_patients,
            n_conditions=3,
            codes_per_condition=3,
            vocab_sizes=(("dx", 6), ("proc", 4), ("med", 4)),
            visits_min=2,
            visits_max=4,
            seed=seed,
        )
    )
    cohort = preprocess(cohort, min_code_freq=1, min_visits=2)
    vocab = build_vocabulary(cohort)
    return cohort, vocab, gt


class TestTraining:
    def test_loss_drops_and_history_is_complete(self):
        cohort, vocab, _ = small_training_setup()
        cfg = CodeEmbedderConfig(
            d_code=16, n_layers=1, n_heads=2, d_head=8, epochs=4, batch_size=16, seed=1
        )
        model, history = train_code_embedder(cohort, vocab, cfg)
        assert len(history.train_loss) == len(history.val_loss) == len(history.lrs) == 4
        assert history.train_loss[-1] < history.train_loss[0]
        assert 0 <= history.best_epoch < 4

    def test_lr_trace_follows_cosine_schedule(self):
        cohort, vocab, _ = small_training_setup()
        cfg = CodeEmbedderConfig(
            d_code=8, n_layers=1, n_heads=1, d_head=8, epochs=3, batch_size=16,
            lr0=0.00025, lr_period=50, seed=1,
        )
        _, history = train_code_embedder(cohort, vocab, cfg)
        expected = [
            0.00025 * (1 + np.cos(np.pi * e / 50)) / 2 for e in range(3)
        ]
        np.testing.assert_allclose(history.lrs, expected, rtol=1e-12)

    def test_training_is_bitwise_deterministic(self):
        cohort, vocab, _ = small_training_setup()
        cfg = CodeEmbedderConfig(
            d_code=8, n_layers=1, n_heads=2, d_head=4, epochs=2, batch_size=16, seed=5
        )
        m1, h1 = train_code_embedder(cohort, vocab, cfg)
        m2, h2 = train_code_embedder(cohort, vocab, cfg)
        assert h1.train_loss == h2.train_loss
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert p1.name == p2.name
            assert p1.data.tobytes() == p2.data.tobytes()

    def test_needs_multivisit_patients(self):
        from conftest import make_cohort, make_record, make_visit

        cohort = make_cohort(make_record("p", [make_visit(codes=[("dx", "a")])]))
        vocab = build_vocabulary(cohort)
        with pytest.raises(ValidationError, match="2\\+ visits"):
            train_code_embedder(cohort, vocab, TINY)


class TestPrediction:
    def test_ranking_is_a_permutation_with_stable_ties(self):
        model = tiny_model()
        history = np.ones((2, 6))
        ranked = predict_next_codes(model, history)
        assert sorted(ranked.tolist()) == list(range(6))
        # Equal scores must come back in index order.
        _, chat = model.forward(build_batch([history]))
        scores = chat.data[-1]
        tied = np.full_like(scores, 0.3)
        order = np.lexsort((np.arange(6), -tied))
        assert order.tolist() == list(range(6))

    def test_system_restriction(self):
        cohort, vocab, _ = small_training_setup()
        model = tiny_model(vocab_size=len(vocab))
        history = visit_matrix(cohort.patients[0], vocab)
        dx = vocab.system_indices("dx")
        ranked = predict_next_codes(model, history, system_indices=dx)
        assert set(ranked.tolist()) == set(dx.tolist())

    def test_forward_histories_runs_consecutive_chunks(self, monkeypatch):
        model = tiny_model(batch_size=3)
        rng = np.random.default_rng(5)
        mats = [rng.integers(0, 2, size=(t, 6)).astype(float) for t in (2, 4, 1, 3, 5, 2, 3)]
        expect = []
        for start in range(0, len(mats), 3):
            chunk = mats[start : start + 3]
            x, c = model.forward(build_batch(chunk))
            ends = np.cumsum([len(m) for m in chunk])
            expect += [(x.data[i - len(m) : i], c.data[i - len(m) : i]) for m, i in zip(chunk, ends)]
        forward, chunks = model.forward, []

        def counted(batch):
            chunks.append(batch)
            return forward(batch)

        monkeypatch.setattr(model, "forward", counted)
        out = forward_histories(model, mats)
        assert len(chunks) == -(-len(mats) // 3)
        for i, batch in enumerate(chunks):
            chunk = mats[3 * i : 3 * i + 3]
            assert batch.real.sum(axis=1).tolist() == [len(m) for m in chunk]
            np.testing.assert_array_equal(batch.codes, np.vstack(chunk))
        assert len(out) == len(expect)
        for (outputs, chat), (x, c) in zip(out, expect):
            assert outputs.tobytes() == x.tobytes() and chat.tobytes() == c.tobytes()

    def test_rank_codes_ranks_each_row_as_one_row(self):
        scores = np.random.default_rng(3).integers(0, 3, size=(6, 9)).astype(float)
        scores[0] = 0.5  # every code tied
        for cand in (None, np.array([7, 2, 5, 0, 8]), np.arange(9)[::-1]):
            ranked = rank_codes(scores, cand)
            assert ranked.shape == (6, 9 if cand is None else len(cand))
            for row, r in zip(scores, ranked):
                assert r.tolist() == rank_codes(row, cand).tolist()

    def test_encode_history_matches_forward_prefix(self):
        model = tiny_model()
        rng = np.random.default_rng(8)
        mat = rng.integers(0, 2, size=(4, 6)).astype(float)
        [full] = encode_history(model, [mat])
        [prefix] = encode_history(model, [mat[:2]])
        np.testing.assert_array_equal(full[:2], prefix)
