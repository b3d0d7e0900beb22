"""Text pipeline: tokenization, vocab, bag encoding, and the recurrent
autoencoder checked against hand-rolled numpy oracles (the per-sentence
token mean, the per-note example loop and a one-step-at-a-time GRU) and
against the per-step cell path built from the elementary kernels, which
the fused recurrent kernels replaced."""

import re

import numpy as np
import pytest
from conftest import backward_graph_nodes, make_cohort, make_record, make_visit

import visitrep.numerics as nm
from visitrep.errors import ValidationError
from visitrep.numerics import (
    Tensor,
    load_state,
    max_relative_error,
    recording,
    tsum,
    uniform_init,
)
from visitrep.synth import SynthConfig, generate_cohort
from visitrep.text_embedder import (
    BagEncoder,
    SummarizerConfig,
    SummarizerModel,
    TokenVocabulary,
    attention_pool,
    attention_weights,
    build_token_vocabulary,
    chunk_tokens,
    reconstruction_loss,
    sentence_batches,
    sentence_matrix,
    summarize,
    text_chunks,
    tokenize,
    train_summarizer,
    visit_tokens,
)
import visitrep.text_embedder as te

TINY_CFG = SummarizerConfig(d_text=4, d_enc=3, chunk_size=3, epochs=2, batch_size=4)
TINY_VOCAB = TokenVocabulary(("<unk>", "aa", "bb", "cc", "dd"))


def noted_cohort():
    return make_cohort(
        make_record(
            "p1",
            [
                make_visit(0, 2, codes=[("dx", "a")], notes=[(1, "alpha alpha beta")]),
                make_visit(10, 1, codes=[("dx", "a")], notes=[(1, "beta gamma")]),
            ],
        ),
        make_record(
            "p2",
            [make_visit(0, 1, codes=[("dx", "a")], notes=[(2, "alpha beta delta")])],
        ),
    )


def bag_mean(encoder, ids):
    """Oracle for one sentence vector: the mean of its token rows."""
    return encoder.table.data[np.asarray(ids, dtype=np.int64)].mean(axis=0)


def per_note_examples(cohort, vocab, chunk_size):
    """Oracle for the training examples: every visit's notes tokenized one
    at a time, concatenated, then chunked; visits without tokens skipped."""
    examples = []
    for patient in cohort.patients:
        for visit in patient.visits:
            tokens = []
            for note in visit.notes:
                tokens.extend(tokenize(note.text))
            if tokens:
                examples.append(chunk_tokens(vocab.encode(tokens), chunk_size))
    return examples


def reconstruct(model, u, teacher_forcing, rng=None):
    """One visit's (m, d_text) matrix through encode and decode; returns
    (u_hat, summed squared error)."""
    u_t = Tensor(np.asarray(u, dtype=np.float64)[None])
    u_hat = model.decode(model.encode(u_t), u_t, teacher_forcing, rng)
    return u_hat.data[0], float(reconstruction_loss(u_hat, u_t).data)


# Independent numpy re-derivation of the recurrences, one step at a time.
def manual_gru_step(cell, x, h):
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    # Reset, update and candidate gates are column blocks of w, u and b.
    wr, wz, wn = np.split(cell.w.data, 3, axis=1)
    ur, uz, un = np.split(cell.u.data, 3, axis=1)
    br, bz, bn = np.split(cell.b.data, 3)
    r = sig(x @ wr + h @ ur + br)
    z = sig(x @ wz + h @ uz + bz)
    n = np.tanh(x @ wn + r * (h @ un) + bn)
    return n + z * (h - n)


def manual_encode(model, u):
    d_e = model.config.d_enc

    def sweep(fcell, bcell, rows):
        m = len(rows)
        h = np.zeros(d_e)
        fwd = []
        for t in range(m):
            h = manual_gru_step(fcell, rows[t], h)
            fwd.append(h)
        h = np.zeros(d_e)
        bwd = [None] * m
        for t in reversed(range(m)):
            h = manual_gru_step(bcell, rows[t], h)
            bwd[t] = h
        return [fwd[t] + bwd[t] for t in range(m)]

    h1 = sweep(model.enc1f, model.enc1b, list(u))
    return np.stack(sweep(model.enc2f, model.enc2b, h1))


def manual_summarize(model, u):
    states = manual_encode(model, u)
    scores = states @ states.T / np.sqrt(model.config.d_enc)
    exp = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = exp / exp.sum(axis=-1, keepdims=True)
    return (weights @ states).mean(axis=0)


# The per-step cell path, one graph node per elementary kernel: the oracle
# the fused kernels gru_sweep and gru_decode must match, bitwise forward.
def cell_step(cell, gx, h):
    """Next state from the input part gx (B, 3h) and the state h (B, h)."""
    d = cell.u.shape[0]
    gh = h @ cell.u
    rz = nm.sigmoid(nm.slice_axis(gx + gh, 1, 0, 2 * d))
    r = nm.slice_axis(rz, 1, 0, d)
    z = nm.slice_axis(rz, 1, d, 2 * d)
    gh_n = nm.slice_axis(gh, 1, 2 * d, 3 * d)
    n = nm.tanh(nm.slice_axis(gx, 1, 2 * d, 3 * d) + nm.mul(r, gh_n))
    return n + nm.mul(z, h - n)


def cell_direction(cell, u, reverse):
    """Every state of one direction over (B, m, d_in), as m (B, h) tensors."""
    b, m, _ = u.shape
    d = cell.u.shape[0]
    gx = u @ cell.w + cell.b
    h = Tensor(np.zeros((b, d)))
    states = [None] * m
    for t in reversed(range(m)) if reverse else range(m):
        h = cell_step(cell, nm.reshape(nm.slice_axis(gx, 1, t, t + 1), (b, 3 * d)), h)
        states[t] = h
    return states


def cell_sweep(fwd, bwd, u):
    b, m, _ = u.shape
    d = fwd.u.shape[0]
    forward, backward = cell_direction(fwd, u, False), cell_direction(bwd, u, True)
    return nm.concat([nm.reshape(forward[t] + backward[t], (b, 1, d)) for t in range(m)], axis=1)


def cell_encode(model, u):
    return cell_sweep(model.enc2f, model.enc2b, cell_sweep(model.enc1f, model.enc1b, u))


def cell_decode(model, states, u, coins):
    b, m, d_t = u.shape
    h = nm.reshape(nm.slice_axis(states, 1, m - 1, m), (b, model.config.d_enc))
    x = Tensor(np.zeros((b, d_t)))
    outputs = []
    for t in range(m):
        h = cell_step(model.dec, x @ model.dec.w + model.dec.b, h)
        y = h @ model.out_w + model.out_b
        outputs.append(y)
        if t + 1 < m:
            x = nm.reshape(nm.slice_axis(u, 1, t, t + 1), (b, d_t)) if coins[t] else y
    return nm.concat([nm.reshape(y, (b, 1, d_t)) for y in outputs], axis=1)


def cell_decode_method(model, states, u, teacher_forcing, rng):
    """SummarizerModel.decode on the cell path, coins drawn as decode draws them."""
    m = u.shape[1]
    if rng is None:
        coins = np.full(m - 1, teacher_forcing == 1.0)
    else:
        coins = rng.random(m - 1) < teacher_forcing
    return cell_decode(model, states, u, coins)


class TestTokenize:
    def test_strips_non_alphanumeric(self):
        assert tokenize("A+B c!") == ["a", "b", "c"]

    def test_keeps_digits_inside_tokens(self):
        assert tokenize("c0t3  noise7") == ["c0t3", "noise7"]

    def test_empty_and_symbol_only_text(self):
        assert tokenize("") == []
        assert tokenize("  ?! --- ") == []

    def test_matches_character_loop_on_every_code_point(self):
        """The regex agrees with the per-character definition it replaced:
        lowercase, map every non-alphanumeric character to a space, split."""

        def loop_tokenize(text):
            cleaned = "".join(ch if ch.isalnum() else " " for ch in text.lower())
            return cleaned.split()

        every = "".join(map(chr, range(0x110000)))
        assert re.findall(r"[^\W_]", every) == [ch for ch in every if ch.isalnum()]
        spaced = " ".join(every)
        assert tokenize(spaced) == loop_tokenize(spaced)
        assert tokenize(every) == loop_tokenize(every)

    def test_chunks_are_greedy_fixed_windows(self):
        toks = list("abcdefg")
        chunks = chunk_tokens(toks, 3)
        assert chunks == [["a", "b", "c"], ["d", "e", "f"], ["g"]]
        assert chunk_tokens(list("abc"), 3) == [["a", "b", "c"]]
        assert len(chunk_tokens(list("abcdef"), 3)) == 2

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValidationError, match=">= 1"):
            chunk_tokens(["a"], 0)


class TestTokenVocabulary:
    def test_build_orders_by_frequency_then_alphabet(self):
        vocab = build_token_vocabulary(*visit_tokens(noted_cohort()), min_freq=2)
        assert vocab.tokens == ("<unk>", "alpha", "beta")

    def test_min_freq_one_keeps_rare_tokens(self):
        vocab = build_token_vocabulary(*visit_tokens(noted_cohort()), min_freq=1)
        assert set(vocab.tokens) == {"<unk>", "alpha", "beta", "gamma", "delta"}

    def test_cap_keeps_most_frequent(self):
        # alpha and beta tie at freq 3; the cap keeps the alphabetically first
        vocab = build_token_vocabulary(*visit_tokens(noted_cohort()), min_freq=1, max_tokens=1)
        assert vocab.tokens == ("<unk>", "alpha")

    def test_unknown_tokens_map_to_zero(self):
        vocab = build_token_vocabulary(*visit_tokens(noted_cohort()), min_freq=2)
        np.testing.assert_array_equal(vocab.encode(["beta", "gamma", "alpha"]), [2, 0, 1])

    def test_requires_unk_first_and_no_duplicates(self):
        with pytest.raises(ValidationError, match="UNK"):
            TokenVocabulary(("alpha", "beta"))
        with pytest.raises(ValidationError, match="duplicates"):
            TokenVocabulary(("<unk>", "a", "a"))

    def test_json_round_trip_and_hash(self):
        vocab = build_token_vocabulary(*visit_tokens(noted_cohort()), min_freq=1)
        again = TokenVocabulary.from_json(vocab.to_json())
        assert again.tokens == vocab.tokens
        assert again.content_hash() == vocab.content_hash()
        other = build_token_vocabulary(*visit_tokens(noted_cohort()), min_freq=2)
        assert other.content_hash() != vocab.content_hash()


class TestBagEncoder:
    def make(self, d_text=4, seed=0):
        vocab = TokenVocabulary(("<unk>", "aa", "bb", "cc"))
        return BagEncoder(vocab, d_text, np.random.default_rng(seed))

    def test_single_token_returns_its_row(self):
        enc = self.make()
        np.testing.assert_array_equal(sentence_matrix("bb", enc, 2)[0], enc.table.data[2])

    def test_mean_of_rows(self):
        enc = self.make()
        got = sentence_matrix("aa cc", enc, 2)[0]
        np.testing.assert_allclose(got, (enc.table.data[1] + enc.table.data[3]) / 2, atol=1e-15)
        np.testing.assert_allclose(got, bag_mean(enc, [1, 3]), atol=1e-15)

    def test_identical_sentences_identical_rows(self):
        enc = self.make()
        mat = sentence_matrix("aa bb aa bb", enc, chunk_size=2)
        assert mat.shape == (2, 4)
        np.testing.assert_array_equal(mat[0], mat[1])

    def test_empty_text_gives_none(self):
        enc = self.make()
        assert text_chunks("?!", enc.vocab, 2) == []
        assert sentence_matrix("?!", enc, chunk_size=2) is None

    def test_batch_path_matches_per_sentence_encode(self):
        enc = self.make()
        ids = np.array([[[1, 2, 0], [3, 0, 0]]])  # second row: 1 real token
        mask = np.array([[[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]])
        got = enc.encode_batch(ids, mask).data
        np.testing.assert_allclose(got[0, 0], bag_mean(enc, [1, 2]), atol=1e-15)
        np.testing.assert_allclose(got[0, 1], bag_mean(enc, [3]), atol=1e-15)

    def test_sentence_matrix_rows_equal_padded_batch_rows(self):
        """A visit encoded alone equals, bit for bit, its row of a batch
        padded to a longer sentence: padding adds exact zeros."""
        rng = np.random.default_rng(1)
        vocab = TokenVocabulary(("<unk>", *(f"t{i}" for i in range(12))))
        enc = BagEncoder(vocab, 5, rng)
        text = " ".join(f"t{i}" for i in rng.integers(0, 12, size=23))
        mat = sentence_matrix(text, enc, chunk_size=10)  # windows of 10, 10, 3
        longer = [rng.integers(0, len(vocab), size=n) for n in (16, 7, 1)]
        chunks = [text_chunks(text, vocab, 10), longer]
        [(rows, u)] = sentence_batches(enc, chunks, 2)
        assert rows == [0, 1] and u.shape == (2, 3, 5)
        assert mat.tobytes() == u.data[0].tobytes()
        for row, chunk in zip(u.data[1], longer):
            np.testing.assert_allclose(row, bag_mean(enc, chunk), atol=1e-15)
        for row, chunk in zip(mat, chunks[0]):
            np.testing.assert_allclose(row, bag_mean(enc, chunk), atol=1e-15)

    def test_sentence_batches_skip_empty_and_group_by_count(self):
        enc = self.make()
        chunks = [text_chunks(t, enc.vocab, 2) for t in ("aa bb cc", "", "bb", "cc aa bb", "aa")]
        got = [(rows, u.shape) for rows, u in sentence_batches(enc, chunks, 2)]
        assert got == [([2, 4], (2, 1, 4)), ([0, 3], (2, 2, 4))]

    def test_batch_rejects_empty_sentences(self):
        enc = self.make()
        with pytest.raises(ValidationError, match="at least one real token"):
            enc.encode_batch(np.zeros((1, 1, 2), dtype=np.int64), np.zeros((1, 1, 2)))


class TestSummarize:
    def test_matches_manual_recurrence(self):
        """Full encoder + attention pooling against the numpy oracle."""
        rng = np.random.default_rng(7)
        model = SummarizerModel(TINY_VOCAB, TINY_CFG, rng)
        for m in (1, 2, 4):
            u = rng.normal(size=(m, 4))
            np.testing.assert_allclose(
                summarize(model, u[None])[0], manual_summarize(model, u), atol=1e-12
            )

    def test_single_sentence_returns_its_encoder_state(self):
        rng = np.random.default_rng(3)
        model = SummarizerModel(TINY_VOCAB, TINY_CFG, rng)
        u = rng.normal(size=(1, 4))
        states = model.encode(Tensor(u[None]))
        np.testing.assert_array_equal(summarize(model, u[None])[0], states.data[0, 0])

    def test_default_dimension_is_128(self):
        model = SummarizerModel(TINY_VOCAB, SummarizerConfig(), np.random.default_rng(0))
        u = np.random.default_rng(1).normal(size=(2, 64))
        assert summarize(model, u[None]).shape == (1, 128)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        states = Tensor(rng.normal(size=(2, 5, 3)))
        w = attention_weights(states, 3)
        np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_pooling_ignores_duplicated_rows(self):
        """Identical state rows attend uniformly: pooling m=1 vs m=2 agrees."""
        rng = np.random.default_rng(4)
        h = rng.normal(size=3)
        single = attention_pool(Tensor(h[None, None, :]), 3).data.mean(axis=1)
        doubled = attention_pool(Tensor(np.stack([h, h])[None]), 3).data.mean(axis=1)
        np.testing.assert_allclose(single, doubled, atol=1e-15)

    def test_full_summary_is_not_duplicate_invariant(self):
        """The recurrence sees the duplicate, so E([u,u]) != E([u])."""
        rng = np.random.default_rng(5)
        model = SummarizerModel(TINY_VOCAB, TINY_CFG, rng)
        u = rng.normal(size=(1, 4))
        e1 = summarize(model, u[None])[0]
        e2 = summarize(model, np.vstack([u, u])[None])[0]
        assert not np.allclose(e1, e2)

    def test_empty_matrix_rejected(self):
        model = SummarizerModel(TINY_VOCAB, TINY_CFG, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="non-empty"):
            summarize(model, np.zeros((1, 0, 4)))
        with pytest.raises(ValidationError, match="d_text"):
            summarize(model, np.zeros((1, 2, 5)))

    def test_one_matrix_is_refused_for_a_one_row_stack(self):
        model = SummarizerModel(TINY_VOCAB, TINY_CFG, np.random.default_rng(0))
        with pytest.raises(ValidationError, match=r"\(B, m, d_text\) stack, got \(2, 4\)"):
            summarize(model, np.zeros((2, 4)))


    def test_fused_initial_arrays_equal_per_gate_draws(self):
        """Each cell draws W then U per gate (reset, update, candidate) and
        fuses them column-wise, so a seed gives the values of separate
        per-gate parameters."""
        model = SummarizerModel(TINY_VOCAB, TINY_CFG, np.random.default_rng(6))
        assert len(model.parameters()) == 18
        rng = np.random.default_rng(6)

        def draw(shape):
            return uniform_init(rng, shape, shape[0])

        table = uniform_init(rng, (len(TINY_VOCAB), TINY_CFG.d_text), TINY_CFG.d_text)
        assert model.parameters()[0] is model.bag.table
        assert model.bag.table.data.tobytes() == table.tobytes()

        d_e = TINY_CFG.d_enc
        for cell in (model.enc1f, model.enc1b, model.enc2f, model.enc2b, model.dec):
            d_in = cell.w.shape[0]
            wr, ur, wz, uz, wn, un = [draw(s) for s in [(d_in, d_e), (d_e, d_e)] * 3]
            assert cell.w.data.tobytes() == np.concatenate([wr, wz, wn], axis=1).tobytes()
            assert cell.u.data.tobytes() == np.concatenate([ur, uz, un], axis=1).tobytes()
            assert cell.b.data.tobytes() == np.zeros(3 * d_e).tobytes()
        assert model.out_w.data.tobytes() == draw((d_e, TINY_CFG.d_text)).tobytes()

class TestReconstruct:
    """Decoder and loss, one visit at a time through the `reconstruct` helper."""

    def test_teacher_forced_path_matches_manual_decoder(self):
        rng = np.random.default_rng(11)
        model = SummarizerModel(TINY_VOCAB, TINY_CFG, rng)
        u = rng.normal(size=(3, 4))
        u_hat, _ = reconstruct(model, u, teacher_forcing=1.0)

        states = manual_encode(model, u)
        h = states[-1]
        x = np.zeros(4)
        want = []
        for t in range(3):
            h = manual_gru_step(model.dec, x, h)
            y = h @ model.out_w.data + model.out_b.data
            want.append(y)
            x = u[t]
        np.testing.assert_allclose(u_hat, np.stack(want), atol=1e-12)

    def test_loss_matches_elementwise_oracle(self):
        """m=2, d_text=3 case: summed squared error, one element at a time."""
        cfg = SummarizerConfig(d_text=3, d_enc=2, chunk_size=2, epochs=1, batch_size=2)
        rng = np.random.default_rng(13)
        model = SummarizerModel(TINY_VOCAB, cfg, rng)
        u = rng.normal(size=(2, 3))
        u_hat, loss = reconstruct(model, u, teacher_forcing=1.0)
        total = 0.0
        for i in range(2):
            for k in range(3):
                diff = u[i, k] - u_hat[i, k]
                total += diff * diff
        np.testing.assert_allclose(loss, total, atol=1e-12)

    def test_perfect_reconstruction_is_zero_loss(self):
        u = Tensor(np.random.default_rng(1).normal(size=(2, 3, 4)))
        assert float(reconstruction_loss(u, u).data.reshape(())) == 0.0

    def test_free_running_differs_from_teacher_forced(self):
        rng = np.random.default_rng(15)
        model = SummarizerModel(TINY_VOCAB, TINY_CFG, rng)
        u = rng.normal(size=(3, 4))
        forced, _ = reconstruct(model, u, 1.0)
        free, _ = reconstruct(model, u, 0.0)
        np.testing.assert_array_equal(forced[0], free[0])  # step 1 shares the zero input
        assert not np.allclose(forced[1:], free[1:])

    def test_coin_flips_reproducible_given_seed(self):
        rng = np.random.default_rng(16)
        model = SummarizerModel(TINY_VOCAB, TINY_CFG, rng)
        u = rng.normal(size=(4, 4))
        a, _ = reconstruct(model, u, 0.5, np.random.default_rng(0))
        b, _ = reconstruct(model, u, 0.5, np.random.default_rng(0))
        c, _ = reconstruct(model, u, 0.5, np.random.default_rng(99))
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_fractional_forcing_needs_generator(self):
        model = SummarizerModel(TINY_VOCAB, TINY_CFG, np.random.default_rng(0))
        u = np.zeros((2, 4))
        with pytest.raises(ValidationError, match="random generator"):
            reconstruct(model, u, 0.5)
        with pytest.raises(ValidationError, match="\\[0, 1\\]"):
            reconstruct(model, u, 1.5)


class TestGradients:
    def build_setup(self):
        model = SummarizerModel(TINY_VOCAB, TINY_CFG, np.random.default_rng(21))
        ids = np.array([[[1, 2, 0], [3, 4, 0]]])
        mask = np.array([[[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]])
        return model.bag, model, ids, mask

    def test_joint_loss_teacher_forced(self):
        enc, model, ids, mask = self.build_setup()

        def build():
            u = enc.encode_batch(ids, mask)
            states = model.encode(u)
            u_hat = model.decode(states, u, 1.0, None)
            return reconstruction_loss(u_hat, u)

        err = max_relative_error(build, model.parameters(), h=1e-5)
        assert err < 1e-4, f"max relative error {err:.3e}"

    def test_joint_loss_free_running(self):
        """Prediction feedback adds graph depth; gradients must still agree."""
        enc, model, ids, mask = self.build_setup()

        def build():
            u = enc.encode_batch(ids, mask)
            states = model.encode(u)
            u_hat = model.decode(states, u, 0.0, None)
            return reconstruction_loss(u_hat, u)

        err = max_relative_error(build, model.parameters(), h=1e-5)
        assert err < 1e-4, f"max relative error {err:.3e}"

    def test_attention_pooling_path(self):
        _, model, _, _ = self.build_setup()
        u = np.random.default_rng(22).normal(size=(1, 3, 4))

        def build():
            states = model.encode(Tensor(u))
            return tsum(model.pool(states))

        err = max_relative_error(build, model.parameters(), h=1e-5)
        assert err < 1e-4, f"max relative error {err:.3e}"


def gradients(build, leaves):
    """d(loss)/d(leaf) for every leaf, from one recorded backward."""
    for leaf in leaves:
        leaf.grad = np.zeros_like(leaf.data)
    with recording():
        build().backward()
    return [leaf.grad.copy() for leaf in leaves]


class TestFusedRecurrence:
    """gru_sweep and gru_decode against the per-step cell path: forwards
    bitwise, gradients within 1e-12 relative."""

    def model(self, d_text=4, d_enc=3, seed=31):
        cfg = SummarizerConfig(d_text=d_text, d_enc=d_enc, chunk_size=3)
        return SummarizerModel(TINY_VOCAB, cfg, np.random.default_rng(seed))

    @pytest.mark.parametrize("b, m", [(1, 1), (1, 4), (3, 1), (3, 4)])
    def test_every_direction_of_both_layers_is_bitwise_the_cell_path(self, b, m):
        model = self.model()
        u = Tensor(np.random.default_rng(m).normal(size=(b, m, 4)))
        h1 = model._sweep(model.enc1f, model.enc1b, u)
        for (fwd, bwd), x in [((model.enc1f, model.enc1b), u), ((model.enc2f, model.enc2b), h1)]:
            for cell, reverse in ((fwd, False), (bwd, True)):
                got = nm.gru_sweep(nm.linear(x, cell.w, cell.b), cell.u, reverse)
                want = np.stack([h.data for h in cell_direction(cell, x, reverse)], axis=1)
                assert got.data.tobytes() == want.tobytes()
        states = cell_encode(model, u)
        assert model.encode(u).data.tobytes() == states.data.tobytes()
        assert summarize(model, u.data).tobytes() == model.pool(states).data.tobytes()

    @pytest.mark.parametrize("teacher_forcing", [0.0, 1.0, 0.5])
    @pytest.mark.parametrize("b, m", [(1, 1), (3, 1), (1, 5), (3, 5)])
    def test_decoder_is_bitwise_the_cell_path(self, b, m, teacher_forcing):
        """Seed 4 draws the mixed coins [F, F, F, T] for m = 5."""
        model = self.model()
        u = Tensor(np.random.default_rng(m).normal(size=(b, m, 4)))
        states = model.encode(u)
        coins = np.random.default_rng(4).random(m - 1) < teacher_forcing
        assert m == 1 or teacher_forcing != 0.5 or 0 < coins.sum() < m - 1
        got = model.decode(states, u, teacher_forcing, np.random.default_rng(4))
        assert got.data.tobytes() == cell_decode(model, states, u, coins).data.tobytes()

    @pytest.mark.parametrize("trainable", [False, True], ids=["frozen-bag", "trainable-bag"])
    @pytest.mark.parametrize("teacher_forcing", [0.0, 1.0, 0.5])
    @pytest.mark.parametrize("m", [1, 5])
    def test_gradients_match_the_cell_path_within_1e_12(self, m, teacher_forcing, trainable):
        """With a trainable bag table the sentence rows u take a gradient too,
        through the encoder's input projection and the teacher-forced rows."""
        model = self.model(d_text=6, d_enc=5)
        u = Tensor(np.random.default_rng(m).normal(size=(3, m, 6)), requires_grad=trainable)
        leaves = model.parameters()[1:] + ([u] if trainable else [])

        def loss(encode, decode):
            coins = np.random.default_rng(4)
            return lambda: reconstruction_loss(
                decode(model, encode(model, u), u, teacher_forcing, coins), u
            )

        fused = gradients(loss(SummarizerModel.encode, SummarizerModel.decode), leaves)
        cell = gradients(loss(cell_encode, cell_decode_method), leaves)
        for leaf, got, want in zip(leaves, fused, cell):
            scale = max(np.abs(want).max(), 1e-300)
            assert np.abs(got - want).max() <= 1e-12 * scale, getattr(leaf, "name", "u")

    def test_training_gives_the_cell_paths_validation_losses(self, monkeypatch):
        """A c6-shape train_summarizer, fused and on the cell path."""
        cohort = generate_cohort(SynthConfig(n_patients=60, n_conditions=8, seed=202))[0]
        config = SummarizerConfig(
            d_text=16, d_enc=16, chunk_size=32, epochs=6, batch_size=16, train_encoder=False
        )
        _, fused = train_summarizer(cohort, config)
        monkeypatch.setattr(SummarizerModel, "encode", cell_encode)
        monkeypatch.setattr(SummarizerModel, "decode", cell_decode_method)
        _, cell = train_summarizer(cohort, config)
        assert len(fused.val_loss) == 6
        np.testing.assert_array_almost_equal(fused.val_loss, cell.val_loss, decimal=10)

    def test_a_training_step_records_as_many_nodes_for_any_sentence_count(self):
        """One recorded step with a trainable bag table, as fit records it:
        a graph that grows with the sentence count m fails here."""
        model = self.model(d_text=16, d_enc=16)
        rng = np.random.default_rng(2)
        counts = []
        for m in (2, 9):
            ids = rng.integers(1, len(TINY_VOCAB), size=(4, m, 3))
            with recording():
                u = model.bag.encode_batch(ids, np.ones(ids.shape))
                u_hat = model.decode(model.encode(u), u, 0.5, rng)
                loss = reconstruction_loss(u_hat, u)
            counts.append(backward_graph_nodes(loss))
        assert counts == [39, 39]

    def test_a_visits_summary_row_does_not_depend_on_its_bucket(self):
        """Bitwise in any stack of two or more rows. One row alone is left
        out: numpy multiplies a single state row through a matrix-vector
        routine that rounds differently."""
        model = self.model(d_text=16, d_enc=16)
        rng = np.random.default_rng(9)
        for m in (1, 4):
            u = rng.normal(size=(9, m, 16))
            full = summarize(model, u)
            for size in (2, 3, 5, 8):
                rows = rng.choice(9, size=size, replace=False)
                assert summarize(model, u[rows]).tobytes() == full[rows].tobytes()


def tiny_text_cohort(seed=3):
    cohort, _ = generate_cohort(
        SynthConfig(
            n_patients=12,
            n_conditions=2,
            vocab_sizes=(("dx", 6), ("proc", 4), ("med", 4)),
            seed=seed,
        )
    )
    return cohort


class TestTraining:
    def test_loss_improves_over_initialization(self):
        cohort = tiny_text_cohort()
        cfg = SummarizerConfig(
            d_text=8, d_enc=6, chunk_size=8, epochs=4, batch_size=8, seed=1
        )
        model, history = train_summarizer(cohort, cfg)
        enc = model.bag
        assert len(history.train_loss) == len(history.val_loss) == len(history.lrs) == 4
        assert history.val_loss[-1] < history.val_loss[0]
        assert history.train_loss[-1] < history.train_loss[0]

        # Replay the construction order to price the untrained model on the
        # same validation visits.
        rng = np.random.default_rng(cfg.seed)
        vocab = build_token_vocabulary(*visit_tokens(cohort), cfg.min_token_freq, cfg.max_tokens)
        model0 = SummarizerModel(vocab, cfg, rng)
        enc0 = model0.bag
        texts = [" ".join(n.text for n in v.notes) for p in cohort.patients for v in p.visits]
        examples = [c for c in (text_chunks(t, vocab, cfg.chunk_size) for t in texts) if c]
        order = rng.permutation(len(examples))
        val = [examples[int(i)] for i in order[: max(1, round(cfg.val_fraction * len(examples)))]]

        def mean_val_loss(e, m):
            return np.mean(
                [reconstruct(m, u.data[0], 0.0)[1] for _, u in sentence_batches(e, val, 1)]
            )

        assert mean_val_loss(enc, model) < mean_val_loss(enc0, model0)

    def test_examples_match_per_note_loop(self, monkeypatch):
        """The examples are the per-note loop's, in cohort order: several
        notes, a symbol-only note and a visit without notes included."""
        cohort = make_cohort(
            make_record(
                "p1",
                [
                    make_visit(0, 2, notes=[(1, "alpha beta"), (2, "?!"), (3, "gamma, beta")]),
                    make_visit(10, 1),
                    make_visit(20, 1, notes=[(21, "--")]),
                ],
            ),
            make_record("p2", [make_visit(0, 1, notes=[(1, "beta"), (2, "delta alpha x")])]),
            make_record("p3", [make_visit(0, 1, notes=[(1, "alpha alpha alpha beta gamma")])]),
        )
        cfg = SummarizerConfig(d_text=4, d_enc=3, chunk_size=2, epochs=1, val_fraction=0.4)
        seen = []

        def spy(encoder, chunks, batch_size):
            seen.append([[tuple(c) for c in ex] for ex in chunks])
            return sentence_batches(encoder, chunks, batch_size)

        monkeypatch.setattr(te, "sentence_batches", spy)
        model, _ = train_summarizer(cohort, cfg)
        want = [[tuple(c) for c in ex] for ex in per_note_examples(cohort, model.bag.vocab, 2)]
        assert len(want) == 3
        assert [len(c) for c in want] == [2, 2, 3]

        train, val = seen
        rng = np.random.default_rng(cfg.seed)
        SummarizerModel(model.bag.vocab, cfg, rng)
        order = rng.permutation(len(want))
        assert val == [want[i] for i in order[:1]]
        assert sorted(train + val) == sorted(want)

    def test_each_note_is_tokenized_once(self, monkeypatch):
        """The vocabulary and the examples come from one `tokenize` call per
        note, and a visit's tokens are those of its notes joined by spaces."""
        cohort = tiny_text_cohort()
        notes = [n.text for p in cohort.patients for v in p.visits for n in v.notes]
        calls = []

        def counted(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(te, "tokenize", counted)
        train_summarizer(cohort, SummarizerConfig(d_text=4, d_enc=3, chunk_size=4, epochs=1))
        assert sorted(calls) == sorted(notes)
        monkeypatch.undo()
        joined = [" ".join(n.text for n in v.notes) for p in cohort.patients for v in p.visits]
        tokens, ids = visit_tokens(cohort)
        assert [[tokens[j] for j in row] for row in ids] == [tokenize(text) for text in joined]

    def test_frozen_encoder_keeps_token_table(self):
        """train_encoder=False leaves tok.w at its draw and out of the
        backward pass; the autoencoder still improves against those fixed
        targets."""
        cohort = tiny_text_cohort()
        cfg = SummarizerConfig(
            d_text=8, d_enc=6, chunk_size=8, epochs=4, batch_size=8,
            train_encoder=False, seed=1,
        )
        model, history = train_summarizer(cohort, cfg)
        enc = model.bag

        rng = np.random.default_rng(cfg.seed)
        vocab = build_token_vocabulary(*visit_tokens(cohort), cfg.min_token_freq, cfg.max_tokens)
        enc0 = BagEncoder(vocab, cfg.d_text, rng)
        assert enc.table.data.tobytes() == enc0.table.data.tobytes()
        np.testing.assert_array_equal(enc.table.grad, 0.0)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_joint_training_moves_token_table(self):
        cohort = tiny_text_cohort()
        cfg = SummarizerConfig(
            d_text=8, d_enc=6, chunk_size=8, epochs=2, batch_size=8, seed=1
        )
        model, _ = train_summarizer(cohort, cfg)
        enc = model.bag
        rng = np.random.default_rng(cfg.seed)
        vocab = build_token_vocabulary(*visit_tokens(cohort), cfg.min_token_freq, cfg.max_tokens)
        enc0 = BagEncoder(vocab, cfg.d_text, rng)
        assert enc.table.data.tobytes() != enc0.table.data.tobytes()

    def test_step_schedule_recorded(self):
        cfg = SummarizerConfig(
            d_text=6, d_enc=4, chunk_size=8, epochs=3, batch_size=8, lr_every=1, seed=2
        )
        _, history = train_summarizer(tiny_text_cohort(), cfg)
        np.testing.assert_allclose(history.lrs, [1e-3, 1e-4, 1e-5], rtol=1e-12)

    def test_training_is_deterministic(self):
        cohort = tiny_text_cohort()
        cfg = SummarizerConfig(
            d_text=6, d_enc=4, chunk_size=8, epochs=2, batch_size=8, seed=7
        )
        model1, h1 = train_summarizer(cohort, cfg)
        model2, h2 = train_summarizer(cohort, cfg)
        assert h1.train_loss == h2.train_loss
        for p1, p2 in zip(model1.parameters(), model2.parameters()):
            assert p1.name == p2.name
            assert p1.data.tobytes() == p2.data.tobytes()

    def test_cohort_without_text_rejected(self):
        silent = make_cohort(
            make_record("p1", [make_visit(0, 1, codes=[("dx", "a")])]),
            make_record("p2", [make_visit(0, 1, codes=[("dx", "a")])]),
        )
        for cohort in (silent, make_cohort()):
            with pytest.raises(ValidationError, match="note text"):
                train_summarizer(cohort, SummarizerConfig(d_text=4, d_enc=3, epochs=1))

    def test_state_round_trip(self):
        cohort = tiny_text_cohort()
        cfg = SummarizerConfig(
            d_text=6, d_enc=4, chunk_size=8, epochs=1, batch_size=8, seed=4
        )
        model, _ = train_summarizer(cohort, cfg)
        arrays = {p.name: p.data.copy() for p in model.parameters()}

        model2 = SummarizerModel(model.bag.vocab, cfg, np.random.default_rng(99))
        load_state(model2.parameters(), arrays)
        u = sentence_matrix("c0t1 c0t2 noise3", model.bag, cfg.chunk_size)
        u2 = sentence_matrix("c0t1 c0t2 noise3", model2.bag, cfg.chunk_size)
        assert u.tobytes() == u2.tobytes()
        assert summarize(model, u[None]).tobytes() == summarize(model2, u2[None]).tobytes()

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="teacher_forcing"):
            SummarizerConfig(teacher_forcing=1.5).validate()
        with pytest.raises(ValidationError, match="d_enc"):
            SummarizerConfig(d_enc=0).validate()
        with pytest.raises(ValidationError, match="unknown keys"):
            SummarizerConfig.from_json({"d_text": 8, "bogus": 1})
        cfg = SummarizerConfig(d_text=8)
        assert SummarizerConfig.from_json(cfg.to_json()) == cfg
