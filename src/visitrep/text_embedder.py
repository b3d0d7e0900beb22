"""Note text pipeline: tokenization, sentence encoders, and the recurrent
autoencoder that turns a visit's sentences into a single summary vector.

Text flows visit by visit. Raw note text is lowercased and split into
maximal runs of alphanumeric characters; tokens are mapped through a
frequency-capped vocabulary and chunked greedily into fixed-size windows
that play the role of sentences (`text_chunks`). A sentence encoder turns
each window into a d_text vector (a trainable mean-pooled token embedding).
Training and inference reach it the same way: `sentence_batches` groups
visits by sentence count, pads each group and runs one
`BagEncoder.encode_batch` per batch, so a visit's sentence matrix is the
same array whichever stage builds it. A two-layer bidirectional gated
recurrent encoder reads the sentence matrix, an attention head pools the
states into the visit's text representation, and a gated recurrent decoder
is trained to reconstruct the sentence matrix with scheduled teacher
forcing.

The summarizer owns its token table: `SummarizerModel.bag` is the sentence
encoder, drawn before the recurrent cells, and `parameters()` starts with
its table, so one object is trained, saved to `text.ckpt` and loaded back.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .checkpoint import load_params, read_model, write_checkpoint
from .cohort import Cohort
from .errors import ValidationError
from .jsonconfig import JsonConfig
from .numerics import Parameter, Tensor
from .shape import POSITIVE, STRING, checker, number_in

UNK_TOKEN = "<unk>"
UNK_ID = 0


def tokenize(text: str) -> list:
    """Lowercase, then the maximal runs of alphanumeric characters."""
    return re.findall(r"[^\W_]+", text.lower())


def chunk_tokens(tokens, size: int) -> list:
    """Greedy fixed-size windows standing in for sentences."""
    if size < 1:
        raise ValidationError(f"chunk size must be >= 1, got {size}")
    return [tokens[i : i + size] for i in range(0, len(tokens), size)]


class TokenVocabulary:
    """Dense token index with id 0 reserved for unknown tokens."""

    def __init__(self, tokens):
        tokens = tuple(tokens)
        if not tokens or tokens[0] != UNK_TOKEN:
            raise ValidationError("token vocabulary must start with the UNK entry")
        if len(set(tokens)) != len(tokens):
            raise ValidationError("token vocabulary contains duplicates")
        self.tokens = tokens
        self._ids = {tok: i for i, tok in enumerate(tokens)}

    def __len__(self):
        return len(self.tokens)

    def encode(self, tokens) -> np.ndarray:
        return np.array([self._ids.get(t, UNK_ID) for t in tokens], dtype=np.int64)

    def content_hash(self) -> str:
        payload = json.dumps(list(self.tokens)).encode()
        return hashlib.sha256(payload).hexdigest()

    def to_json(self) -> dict:
        return {"tokens": list(self.tokens)}

    @classmethod
    def from_json(cls, obj: dict) -> "TokenVocabulary":
        return cls(_TOKENS(obj)["tokens"])


_TOKENS = checker({"tokens": ["token", STRING]}, "token vocabulary")


def build_token_vocabulary(cohort: Cohort, min_freq: int = 2, max_tokens: int = 20000):
    """Count tokens over every note in the cohort, keep frequent ones.

    Ordered by descending frequency with alphabetical tie-break, capped at
    max_tokens entries plus the UNK slot.
    """
    counts: dict = {}
    for patient in cohort.patients:
        for visit in patient.visits:
            for note in visit.notes:
                for tok in tokenize(note.text):
                    counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )[:max_tokens]
    return TokenVocabulary((UNK_TOKEN, *kept))


class BagEncoder:
    """Trainable sentence encoder: mean of token embedding rows."""

    def __init__(self, vocab: TokenVocabulary, d_text: int, rng):
        self.vocab = vocab
        self.d_text = d_text
        # Embedding rows are averaged, not dotted against fan_in inputs, so
        # scale by the row width to keep sentence vectors at usable size.
        self.table = Parameter(
            nm.uniform_init(rng, (len(vocab), d_text), fan_in=d_text), name="tok.w"
        )

    def encode_batch(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """Padded (B, m, n) ids with a 0/1 mask to a (B, m, d_text) Tensor."""
        b, m, n = ids.shape
        counts = mask.sum(axis=2)
        if (counts < 1).any():
            raise ValidationError("every sentence needs at least one real token")
        rows = nm.gather_rows(self.table, ids.reshape(-1))
        rows = nm.reshape(rows, (b, m, n, self.d_text))
        summed = nm.tsum(nm.mul(rows, Tensor(mask[..., None])), axis=2)
        return nm.mul(summed, Tensor((1.0 / counts)[..., None]))


def text_chunks(text: str, vocab: TokenVocabulary, chunk_size: int) -> list:
    """Text to its token-id windows; empty when no token survives."""
    return chunk_tokens(vocab.encode(tokenize(text)), chunk_size)


def sentence_matrix(text: str, encoder: BagEncoder, chunk_size: int):
    """Text to a (m, d_text) matrix, or None when no tokens survive."""
    chunks = text_chunks(text, encoder.vocab, chunk_size)
    for _, u in sentence_batches(encoder, [chunks], 1):
        return u.data[0]
    return None


@dataclass(frozen=True)
class SummarizerConfig(JsonConfig):
    json_name = "config.summarizer"
    json_fields = {
        **dict.fromkeys(["d_text", "d_enc", "chunk_size", "epochs", "batch_size", "lr_every",
                         "min_token_freq", "max_tokens"], POSITIVE),
        "lr0": number_in(0, ends="()"), "lr_factor": number_in(0, 1, "(]"),
        "teacher_forcing": number_in(0, 1), "val_fraction": number_in(0, 1, "[)"),
    }

    d_text: int = 64
    d_enc: int = 128
    chunk_size: int = 32
    epochs: int = 30
    batch_size: int = 16
    lr0: float = 1e-3
    lr_factor: float = 0.1
    lr_every: int = 50
    teacher_forcing: float = 0.5
    train_encoder: bool = True
    val_fraction: float = 0.1
    min_token_freq: int = 2
    max_tokens: int = 20000
    seed: int = 0


class _GRUCell:
    """Standard gated recurrent cell. w (d_in, 3h), u (h, 3h) and b (3h,)
    hold the reset, update and candidate gates as column blocks."""

    def __init__(self, d_in: int, d_h: int, prefix: str, rng):
        # Gate by gate, the input then the recurrent weights are drawn.
        draws = [nm.uniform_init(rng, s, fan_in=s[0]) for s in [(d_in, d_h), (d_h, d_h)] * 3]
        self.d_h = d_h
        self.w = Parameter(np.hstack(draws[0::2]), name=f"{prefix}.w")
        self.u = Parameter(np.hstack(draws[1::2]), name=f"{prefix}.u")
        self.b = Parameter(np.zeros(3 * d_h), name=f"{prefix}.b")

    def input_part(self, x: Tensor) -> Tensor:
        """x W + b: the gate pre-activations that do not depend on h."""
        return x @ self.w + self.b

    def step(self, gx: Tensor, h: Tensor) -> Tensor:
        """Next state from the input part gx (B, 3h) and the state h (B, h)."""
        d = self.d_h
        gh = h @ self.u
        rz = nm.sigmoid(nm.slice_axis(gx + gh, 1, 0, 2 * d))
        r = nm.slice_axis(rz, 1, 0, d)
        z = nm.slice_axis(rz, 1, d, 2 * d)
        gh_n = nm.slice_axis(gh, 1, 2 * d, 3 * d)
        n = nm.tanh(nm.slice_axis(gx, 1, 2 * d, 3 * d) + nm.mul(r, gh_n))
        # h' = (1 - z) * n + z * h
        return n + nm.mul(z, h - n)

    def parameters(self):
        return [self.w, self.u, self.b]


class SummarizerModel:
    """Sentence encoder, bidirectional recurrent encoder, attention pooling,
    recurrent decoder.

    `bag` turns token windows into sentence vectors. The two encoder layers
    each run a forward and a backward pass whose states are summed, keeping
    every hidden dimension at d_enc. The decoder starts from the final
    encoder state, consumes the previous sentence vector (true row or own
    prediction, per the teacher-forcing coin), and projects each state back
    to d_text.
    """

    def __init__(self, vocab: TokenVocabulary, config: SummarizerConfig, rng):
        self.config = config
        d_t, d_e = config.d_text, config.d_enc
        self.bag = BagEncoder(vocab, d_t, rng)
        self.enc1f = _GRUCell(d_t, d_e, "enc1f", rng)
        self.enc1b = _GRUCell(d_t, d_e, "enc1b", rng)
        self.enc2f = _GRUCell(d_e, d_e, "enc2f", rng)
        self.enc2b = _GRUCell(d_e, d_e, "enc2b", rng)
        self.dec = _GRUCell(d_t, d_e, "dec", rng)
        self.out_w = Parameter(nm.uniform_init(rng, (d_e, d_t), fan_in=d_e), name="out.w")
        self.out_b = Parameter(np.zeros(d_t), name="out.b")

    def parameters(self):
        params = [self.bag.table]
        for cell in (self.enc1f, self.enc1b, self.enc2f, self.enc2b, self.dec):
            params.extend(cell.parameters())
        params.extend([self.out_w, self.out_b])
        return params

    def _sweep(self, fwd: _GRUCell, bwd: _GRUCell, u: Tensor) -> Tensor:
        """One bidirectional layer over (B, m, d_in); directions summed."""
        b, m, _ = u.shape
        d_e = self.config.d_enc

        def run(cell, order):
            gx = cell.input_part(u)
            h = Tensor(np.zeros((b, d_e)))
            states = [None] * m
            for t in order:
                h = cell.step(nm.reshape(nm.slice_axis(gx, 1, t, t + 1), (b, 3 * d_e)), h)
                states[t] = h
            return states

        forward, backward = run(fwd, range(m)), run(bwd, reversed(range(m)))
        rows = [nm.reshape(forward[t] + backward[t], (b, 1, d_e)) for t in range(m)]
        return rows[0] if m == 1 else nm.concat(rows, axis=1)

    def encode(self, u: Tensor) -> Tensor:
        """Sentence matrices (B, m, d_text) to encoder states (B, m, d_enc)."""
        if u.ndim != 3:
            raise ValidationError(f"encode expects (B, m, d_text), got {u.shape}")
        if u.shape[2] != self.config.d_text:
            raise ValidationError(
                f"model expects d_text={self.config.d_text}, got {u.shape[2]}"
            )
        h1 = self._sweep(self.enc1f, self.enc1b, u)
        return self._sweep(self.enc2f, self.enc2b, h1)

    def pool(self, states: Tensor) -> Tensor:
        """Attention over encoder states, then mean over rows: (B, d_enc)."""
        attended = attention_pool(states, self.config.d_enc)
        return nm.mean(attended, axis=1)

    def decode(self, states: Tensor, u: Tensor, teacher_forcing: float, rng) -> Tensor:
        """Reconstruct (B, m, d_text) from the final encoder state.

        One teacher-forcing coin per step, shared across the batch. With no
        generator the ratio must be exactly 0 or 1 (deterministic paths).
        """
        if not 0.0 <= teacher_forcing <= 1.0:
            raise ValidationError(f"teacher_forcing must be in [0, 1], got {teacher_forcing}")
        if rng is None and 0.0 < teacher_forcing < 1.0:
            raise ValidationError("fractional teacher forcing requires a random generator")
        b, m, d_t = u.shape
        h = nm.reshape(nm.slice_axis(states, 1, m - 1, m), (b, self.config.d_enc))
        fixed = [teacher_forcing == 1.0] * (m - 1)
        coins = fixed if rng is None else rng.random(m - 1) < teacher_forcing
        x = Tensor(np.zeros((b, d_t)))
        outputs = []
        for t in range(m):
            h = self.dec.step(self.dec.input_part(x), h)
            y = h @ self.out_w + self.out_b
            outputs.append(y)
            if t + 1 < m:
                x = nm.reshape(nm.slice_axis(u, 1, t, t + 1), (b, d_t)) if coins[t] else y
        rows = [nm.reshape(y, (b, 1, d_t)) for y in outputs]
        return rows[0] if m == 1 else nm.concat(rows, axis=1)


def attention_weights(states: Tensor, d_enc: int) -> Tensor:
    """softmax(H Hᵀ / √d_enc), batched over the first axis; rows sum to 1."""
    scores = nm.scale(nm.matmul(states, nm.transpose(states)), 1.0 / np.sqrt(d_enc))
    return nm.softmax(scores)


def attention_pool(states: Tensor, d_enc: int) -> Tensor:
    """A = softmax(H Hᵀ / √d_enc) H, batched over the first axis."""
    return nm.matmul(attention_weights(states, d_enc), states)


def summarize(model: SummarizerModel, u: np.ndarray) -> np.ndarray:
    """Summary vectors of a (B, m, d_text) stack of same-length sentence
    matrices, as (B, d_enc). One visit's (m, d_text) matrix gives its d_enc
    vector. Each row of the stack is encoded and pooled on its own."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 2:
        return summarize(model, u[None])[0]
    if u.ndim != 3 or 0 in u.shape[:2]:
        raise ValidationError(
            f"summarize expects a non-empty (m, d_text) matrix or (B, m, d_text) stack, "
            f"got {u.shape}"
        )
    return model.pool(model.encode(Tensor(u))).data.copy()


def reconstruction_loss(u_hat: Tensor, u: Tensor) -> Tensor:
    """Mean over the batch of the per-visit sum of squared row errors."""
    diff = u_hat + nm.scale(u, -1.0)
    total = nm.tsum(nm.mul(diff, diff))
    return nm.scale(total, 1.0 / u.shape[0])


def _pad_chunk_batch(chunk_lists):
    """Same-m examples to padded (B, m, n) ids plus a 0/1 mask."""
    b = len(chunk_lists)
    m = len(chunk_lists[0])
    n = max(len(c) for chunks in chunk_lists for c in chunks)
    ids = np.zeros((b, m, n), dtype=np.int64)
    mask = np.zeros((b, m, n))
    for i, chunks in enumerate(chunk_lists):
        for j, chunk in enumerate(chunks):
            ids[i, j, : len(chunk)] = chunk
            mask[i, j, : len(chunk)] = 1.0
    return ids, mask


def bucket_batches(lengths, batch_size):
    """Group indices by sentence count, then split into batches.

    `lengths` is a sequence of (index, sentence count) pairs; buckets come
    in ascending count, indices keep their input order within a bucket."""
    buckets: dict = {}
    for idx, m in lengths:
        buckets.setdefault(m, []).append(idx)
    batches = []
    for m in sorted(buckets):
        rows = buckets[m]
        for start in range(0, len(rows), batch_size):
            batches.append(rows[start : start + batch_size])
    return batches


def sentence_batches(encoder: BagEncoder, chunk_lists, batch_size: int):
    """Sentence vectors of every non-empty chunk list, as (indices, u) pairs.

    Lists are grouped by sentence count (`bucket_batches`) and each group
    runs one `encode_batch`, so u is a (len(indices), m, d_text) Tensor whose
    rows belong to chunk_lists[indices]. Batches are encoded lazily: a
    training step between two batches is seen by the next one."""
    lengths = [(i, len(chunks)) for i, chunks in enumerate(chunk_lists) if chunks]
    for rows in bucket_batches(lengths, batch_size):
        ids, mask = _pad_chunk_batch([chunk_lists[i] for i in rows])
        yield rows, encoder.encode_batch(ids, mask)


def train_summarizer(cohort: Cohort, config: SummarizerConfig):
    """Jointly fit the bag encoder and the autoencoder on reconstruction.

    Adam with a step learning-rate schedule; the best-validation parameters
    (teacher forcing off for validation) are restored before returning.
    Returns (model, history).

    With train_encoder=False the token table stays at its random draw, takes
    no gradient, and only the recurrent parameters move. Joint training admits a degenerate
    optimum (drive the trainable reconstruction targets toward zero), which
    erodes whatever the bag vectors encoded; freezing pins the targets so
    the autoencoder has to model real structure.
    """
    rng = np.random.default_rng(config.seed)
    vocab = build_token_vocabulary(
        cohort, min_freq=config.min_token_freq, max_tokens=config.max_tokens
    )
    model = SummarizerModel(vocab, config, rng)
    # Every note of a visit counts here; task text windows apply at
    # representation time. A joining space cannot merge two tokens.
    texts = (" ".join(n.text for n in v.notes) for p in cohort.patients for v in p.visits)
    examples = [c for c in (text_chunks(t, vocab, config.chunk_size) for t in texts) if c]
    if len(examples) < 2:
        raise ValidationError("train_summarizer needs at least 2 visits with note text")

    order = rng.permutation(len(examples))
    n_val = max(1, round(config.val_fraction * len(examples)))
    val_idx = [int(i) for i in order[:n_val]]
    train_idx = [int(i) for i in order[n_val:]]
    if not train_idx:
        raise ValidationError("validation split consumed every noted visit")

    if not config.train_encoder:
        model.bag.table.requires_grad = False
    params = [p for p in model.parameters() if p.requires_grad]

    def batches(indices, teacher_forcing, coin_rng):
        chunks = [examples[i] for i in indices]
        for rows, u in sentence_batches(model.bag, chunks, config.batch_size):
            u_hat = model.decode(model.encode(u), u, teacher_forcing, coin_rng)
            yield reconstruction_loss(u_hat, u), len(rows)

    history = nm.fit(
        params,
        nm.StepDecay(lr0=config.lr0, factor=config.lr_factor, every=config.lr_every),
        config.epochs,
        rng,
        len(train_idx),
        lambda order: batches([train_idx[i] for i in order], config.teacher_forcing, rng),
        lambda: batches(val_idx, 0.0, None),
    )
    return model, history


def save_summarizer(path, model: SummarizerModel) -> None:
    """Persist the token table and every recurrent parameter in one file."""
    config = {"summarizer": model.config.to_json()}
    write_checkpoint(path, "text", config, model.bag.vocab.content_hash(), model.parameters())


def load_summarizer(path, vocab: TokenVocabulary) -> SummarizerModel:
    """Rebuild a saved model; refuses other kinds and other vocabularies."""
    cfg, _, arrays = read_model(path, "text", vocab.content_hash(), "summarizer", SummarizerConfig)
    model = SummarizerModel(vocab, cfg, np.random.default_rng(0))
    load_params(path, model.parameters(), arrays)
    return model
