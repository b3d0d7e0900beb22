"""Visit-sequence code embedder.

A patient's visits become a sequence of multi-hot code vectors. Each vector
is projected onto d_code dimensions (a multi-hot input makes the projection
a sum of per-code embedding rows), sinusoidal position terms are added, and
a stack of causally masked multi-head self-attention blocks mixes history
into each position. Training maximizes a visit-level skip-gram objective:
the output head at visit t predicts, per code, the codes of the visits
within a +-window around t, scored with binary cross-entropy. Those
targets never change, so train_code_embedder counts each patient's hits
and valid pairs once per fit, beside its codes (SkipGramRows), and each
batch only gathers and pads those rows.

A block is five fused numerics kernels, one graph node each:
`causal_attention` (every head at once, summed through `wo`, plus `bo`),
`add_layer_norm` over the residual, `linear` with relu and `linear` for the
feed-forward, and a second `add_layer_norm`. The logits are one more
`linear`, then `sigmoid`, and the loss ends in one `binary_xent` node.

Position t's output never depends on visits after t: the attention mask is
the only mixer across positions and it zeroes future (and padding) keys
exactly, so perturbing later visits leaves earlier outputs bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics as nm
from .checkpoint import load_params, read_model, write_checkpoint
from .cohort import Cohort, CodeVocabulary, visit_matrix
from .errors import ValidationError
from .jsonconfig import JsonConfig
from .numerics import Parameter, Tensor
from .shape import POSITIVE, number_in


@dataclass(frozen=True)
class CodeEmbedderConfig(JsonConfig):
    json_name = "config.code_embedder"
    json_fields = {
        **dict.fromkeys(["d_code", "n_layers", "n_heads", "d_head", "window", "epochs",
                         "batch_size", "lr_period"], POSITIVE),
        "lr0": number_in(0, ends="()"), "lr_min": number_in(0, ends="[)"),
        "val_fraction": number_in(0, 1, "[)"), "prob_clip": number_in(0, 0.5, "()"),
    }

    d_code: int = 128
    n_layers: int = 2
    n_heads: int = 8
    d_head: int = 64
    window: int = 2
    epochs: int = 30
    batch_size: int = 32
    lr0: float = 0.00025
    lr_period: int = 50
    lr_min: float = 0.0
    val_fraction: float = 0.1
    prob_clip: float = 1e-7
    seed: int = 0

    @property
    def d_ff(self) -> int:
        return 4 * self.d_code

    def validate(self) -> None:
        if self.lr_min >= self.lr0:
            raise ValidationError(
                f"{self.json_name}: lr_min must be < lr0 ({self.lr0}), got {self.lr_min}")


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal position terms: even columns sin, odd columns cos."""
    if length < 1 or dim < 1:
        raise ValidationError(f"positional_encoding: bad shape ({length}, {dim})")
    pe = np.zeros((length, dim), dtype=np.float64)
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(0, dim, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, i / dim)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : pe[:, 1::2].shape[1]])
    return pe


@dataclass
class VisitSequenceBatch:
    """Padded batch: codes (B, T, |C|), real (B, T) marks non-padding visits."""

    codes: np.ndarray
    real: np.ndarray

    def __post_init__(self):
        if self.codes.ndim != 3 or self.real.shape != self.codes.shape[:2]:
            raise ValidationError(
                f"batch: codes {self.codes.shape} and real {self.real.shape} disagree"
            )
        if not self.real.any(axis=1).all():
            raise ValidationError("batch: a row has no real visits")


def build_batch(matrices: list) -> VisitSequenceBatch:
    """Pad per-patient (T_i, |C|) matrices to the longest T in the batch."""
    if not matrices:
        raise ValidationError("build_batch: empty batch")
    t_max = max(m.shape[0] for m in matrices)
    width = matrices[0].shape[1]
    codes = np.zeros((len(matrices), t_max, width), dtype=np.float64)
    real = np.zeros((len(matrices), t_max), dtype=bool)
    for i, m in enumerate(matrices):
        if m.shape[1] != width:
            raise ValidationError(
                f"build_batch: vocab width mismatch {m.shape[1]} != {width}"
            )
        codes[i, : m.shape[0]] = m
        real[i, : m.shape[0]] = True
    return VisitSequenceBatch(codes=codes, real=real)


def attention_blocked_mask(real: np.ndarray) -> np.ndarray:
    """(B, T, T) where True means 'query may not attend to this key':
    strictly future positions plus padded keys."""
    b, t = real.shape
    causal = np.triu(np.ones((t, t), dtype=bool), k=1)
    pad_keys = ~real[:, None, :]
    return causal[None, :, :] | pad_keys


class CodeEmbedderModel:
    """Parameters and forward pass; see train_code_embedder for fitting."""

    def __init__(self, vocab_size: int, config: CodeEmbedderConfig, rng: np.random.Generator):
        if vocab_size < 1:
            raise ValidationError(f"code embedder: empty vocabulary")
        self.config = config
        self.vocab_size = vocab_size
        d, dh, nh = config.d_code, config.d_head, config.n_heads

        def p(name, shape, fan_in):
            return Parameter(nm.uniform_init(rng, shape, fan_in), name)

        self.embed = p("embed.w", (vocab_size, d), fan_in=vocab_size)
        self.layers = []
        for l in range(config.n_layers):
            # Head h's q|k|v projections are column blocks of wqkv[h], drawn
            # head by head in that order.
            wqkv = np.stack(
                [np.hstack([nm.uniform_init(rng, (d, dh), d) for _ in range(3)]) for _ in range(nh)]
            )
            wo = nm.uniform_init(rng, (nh * dh, d), nh * dh).reshape(nh, dh, d)
            layer = {
                "wqkv": Parameter(wqkv, f"layer{l}.wqkv"),
                "wo": Parameter(wo, f"layer{l}.wo"),
                "bo": Parameter(np.zeros((1, d)), f"layer{l}.bo"),
                "ln1_g": Parameter(np.ones((1, d)), f"layer{l}.ln1_g"),
                "ln1_b": Parameter(np.zeros((1, d)), f"layer{l}.ln1_b"),
                "w1": p(f"layer{l}.ff.w1", (d, config.d_ff), d),
                "b1": Parameter(np.zeros((1, config.d_ff)), f"layer{l}.ff.b1"),
                "w2": p(f"layer{l}.ff.w2", (config.d_ff, d), config.d_ff),
                "b2": Parameter(np.zeros((1, d)), f"layer{l}.ff.b2"),
                "ln2_g": Parameter(np.ones((1, d)), f"layer{l}.ln2_g"),
                "ln2_b": Parameter(np.zeros((1, d)), f"layer{l}.ln2_b"),
            }
            self.layers.append(layer)
        self.out_w = p("out.w", (d, vocab_size), d)
        self.out_b = Parameter(np.zeros((1, vocab_size)), "out.b")
        self._pos_cache: dict = {}

    def parameters(self) -> list:
        out = [self.embed]
        for layer in self.layers:
            out.extend(layer.values())
        out.extend([self.out_w, self.out_b])
        return out

    def _positions(self, t: int) -> np.ndarray:
        if t not in self._pos_cache:
            self._pos_cache[t] = positional_encoding(t, self.config.d_code)
        return self._pos_cache[t]

    def _block(self, x: Tensor, blocked: np.ndarray, layer: dict) -> Tensor:
        att = nm.causal_attention(x, layer["wqkv"], layer["wo"], layer["bo"], blocked)
        x = nm.add_layer_norm(x, att, layer["ln1_g"], layer["ln1_b"])
        inner = nm.linear(x, layer["w1"], layer["b1"], relu=True)
        ff = nm.linear(inner, layer["w2"], layer["b2"])
        return nm.add_layer_norm(x, ff, layer["ln2_g"], layer["ln2_b"])

    def forward(self, batch: VisitSequenceBatch) -> tuple:
        """Returns (outputs (B, T, d_code), code probabilities (B, T, |C|))."""
        b, t, c = batch.codes.shape
        if c != self.vocab_size:
            raise ValidationError(
                f"forward: batch encodes {c} codes, model expects {self.vocab_size}"
            )
        x = nm.matmul(Tensor(batch.codes), self.embed)
        x = x + Tensor(self._positions(t))
        assert x.shape == (b, t, self.config.d_code)
        blocked = attention_blocked_mask(batch.real)
        for layer in self.layers:
            x = self._block(x, blocked, layer)
            assert x.shape == (b, t, self.config.d_code)
        chat = nm.sigmoid(nm.linear(x, self.out_w, self.out_b))
        assert chat.shape == (b, t, self.vocab_size)
        return x, chat


def skip_gram_counts(targets: np.ndarray, real: np.ndarray, window: int) -> tuple:
    """Per (b, t, code) of a padded batch: how many valid target visits
    t + j, 0 < |j| <= window, hold the code (hit) and how many lack it
    (miss), plus the number of valid (t, j) pairs. Pairs where either
    endpoint is padding are skipped. Returns (hit, miss, n_pairs)."""
    if targets.ndim != 3 or real.shape != targets.shape[:2]:
        raise ValidationError(
            f"skip_gram_counts: shapes disagree, targets {targets.shape}, real {real.shape}"
        )
    b, t, c = targets.shape
    hit = np.zeros((b, t, c))
    miss = np.zeros((b, t, c))
    n_pairs = 0
    for j in range(-window, window + 1):
        lo, hi = max(0, -j), min(t, t - j)
        if j == 0 or lo >= hi:
            continue
        valid = (real[:, lo:hi] & real[:, lo + j : hi + j])[:, :, None]
        tg = targets[:, lo + j : hi + j, :]
        hit[:, lo:hi] += tg * valid
        miss[:, lo:hi] += (1.0 - tg) * valid
        n_pairs += int(valid.sum())
    return hit, miss, n_pairs


def skip_gram_loss(
    chat: Tensor,
    hit: np.ndarray,
    miss: np.ndarray,
    n_pairs: int,
    prob_clip: float = 1e-7,
) -> tuple:
    """Mean over valid (t, j) pairs of the summed per-code cross-entropy
    between the prediction at t and the target visit at t + j, from the
    counts of skip_gram_counts. Returns the scalar loss Tensor and the
    number of pairs it averaged. A batch with no valid pair at all (every
    patient has a single visit) is an error."""
    if n_pairs == 0:
        raise ValidationError("skip_gram_loss: no valid (t, j) pairs in the batch")
    return nm.scale(nm.binary_xent(chat, hit, miss, prob_clip), 1.0 / n_pairs), n_pairs


@dataclass
class SkipGramRows:
    """Every training patient's visits as small-integer rows [codes | hit |
    pairs], stacked patient by patient above one zero row that padding
    reads: the multi-hot codes, skip_gram_counts' hit per code, and the
    number of valid pairs per visit. Multi-hot targets make
    miss = pairs - hit exact, so miss is not stored."""

    rows: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    @classmethod
    def build(cls, matrices: list, window: int) -> "SkipGramRows":
        dtype = np.min_scalar_type(2 * window)
        blocks = []
        for m in matrices:
            hit, miss, _ = skip_gram_counts(m[None], np.ones((1, len(m)), dtype=bool), window)
            pairs = hit[0, :, :1] + miss[0, :, :1]
            blocks.append(np.hstack([m, hit[0], pairs]).astype(dtype))
        blocks.append(np.zeros((1, blocks[0].shape[1]), dtype=dtype))
        lengths = np.array([len(m) for m in matrices])
        starts = np.cumsum(lengths) - lengths
        return cls(np.concatenate(blocks), starts, lengths)

    def batch(self, patients: np.ndarray) -> tuple:
        """(VisitSequenceBatch, (hit, miss, n_pairs)) for the patients at
        these positions, padded to the longest: bit for bit build_batch of
        their matrices and skip_gram_counts of that batch."""
        lengths = self.lengths[patients]
        real = np.arange(lengths.max()) < lengths[:, None]
        index = np.where(real, self.starts[patients][:, None] + np.arange(real.shape[1]), -1)
        rows = self.rows[index]
        c = (rows.shape[2] - 1) // 2
        hit = rows[..., c : 2 * c].astype(np.float64)
        pairs = rows[..., 2 * c :].astype(np.float64)
        batch = VisitSequenceBatch(rows[..., :c].astype(np.float64), real)
        return batch, (hit, pairs - hit, int(pairs.sum()))


def train_code_embedder(
    cohort: Cohort,
    vocab: CodeVocabulary,
    config: CodeEmbedderConfig,
) -> tuple:
    """Fit on every patient with at least two visits; returns the model that
    scored best on an internal patient-held-out validation split, plus the
    loss history."""
    eligible = sorted(
        (p for p in cohort.patients if len(p.visits) >= 2), key=lambda p: p.patient_id
    )
    if len(eligible) < 2:
        raise ValidationError(
            f"train_code_embedder: need at least two patients with 2+ visits, "
            f"got {len(eligible)}"
        )
    rng = np.random.default_rng(config.seed)
    model = CodeEmbedderModel(len(vocab), config, rng)

    order = rng.permutation(len(eligible))
    n_val = max(1, int(round(config.val_fraction * len(eligible)))) if len(eligible) > 2 else 1
    val, train = order[:n_val], order[n_val:]
    if not len(train):
        raise ValidationError("train_code_embedder: validation split consumed every patient")
    # The targets never change, so every patient's counts are built once.
    rows = SkipGramRows.build([visit_matrix(p, vocab) for p in eligible], config.window)

    def chunks(patients):
        size = config.batch_size
        return [patients[i : i + size] for i in range(0, len(patients), size)]

    def losses(batches):
        for batch, counts in batches:
            _, chat = model.forward(batch)
            yield skip_gram_loss(chat, *counts, config.prob_clip)

    val_batches = [rows.batch(chunk) for chunk in chunks(val)]
    history = nm.fit(
        model.parameters(),
        nm.CosineAnnealing(lr0=config.lr0, period=config.lr_period, lr_min=config.lr_min),
        config.epochs,
        rng,
        len(train),
        lambda order: losses(map(rows.batch, chunks(train[order]))),
        lambda: losses(val_batches),
    )
    return model, history


def forward_histories(model: CodeEmbedderModel, matrices) -> list:
    """Per unpadded (T_i, |C|) visit matrix, in the order given, its real rows
    as (outputs (T_i, d_code), code probabilities (T_i, |C|)), from one padded
    forward per `model.config.batch_size` matrices: the one inference batcher.

    The causal mask makes row t depend on visits 0..t only, so row t of chat
    scores the next visit after the prefix ending at t."""
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    for m in mats:
        if m.ndim != 2:
            raise ValidationError(f"visit matrix: expected (T, |C|), got {m.shape}")
    out, step = [], model.config.batch_size
    for start in range(0, len(mats), step):
        chunk = mats[start : start + step]
        outputs, chat = model.forward(build_batch(chunk))
        out += [(outputs.data[i, : len(m)], chat.data[i, : len(m)]) for i, m in enumerate(chunk)]
    return out


def encode_history(model: CodeEmbedderModel, matrices):
    """Layer-stack outputs for a list of visit matrices (see forward_histories):
    a (T_i, d_code) array per (T_i, |C|) matrix. A single matrix gives its
    (T, d_code) outputs."""
    if isinstance(matrices, np.ndarray) and matrices.ndim == 2:
        return encode_history(model, [matrices])[0]
    return [outputs for outputs, _ in forward_histories(model, matrices)]


def rank_codes(scores: np.ndarray, candidates: Optional[np.ndarray] = None) -> np.ndarray:
    """Candidate vocabulary indices (default: all) by descending score along
    the last axis, one ranking per row of a 2-D `scores`; ties break toward
    the smaller index so rankings are stable."""
    if candidates is None:
        cand = np.arange(scores.shape[-1], dtype=np.intp)
    else:
        cand = np.asarray(candidates, dtype=np.intp)
    keys = -scores[..., cand]
    return cand[np.lexsort((np.broadcast_to(cand, keys.shape), keys), axis=-1)]


def predict_next_codes(
    model: CodeEmbedderModel,
    matrix: np.ndarray,
    system_indices: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vocabulary indices ranked by next-visit probability at the last
    position of one history, optionally restricted to one coding system's
    indices (see rank_codes)."""
    [(_, chat)] = forward_histories(model, [matrix])
    return rank_codes(chat[-1], system_indices)


def save_code_model(path, model: CodeEmbedderModel, vocab_hash: str) -> None:
    """Persist architecture, vocabulary hash, and parameters in one file."""
    config = {"code_embedder": model.config.to_json()}
    write_checkpoint(path, "code", config, vocab_hash, model.parameters())


def load_code_model(path, vocab: CodeVocabulary) -> CodeEmbedderModel:
    """Rebuild a saved model; refuses other kinds and other vocabularies."""
    cfg, _, arrays = read_model(
        path, "code", vocab.content_hash(), "code_embedder", CodeEmbedderConfig
    )
    model = CodeEmbedderModel(len(vocab), cfg, np.random.default_rng(0))
    load_params(path, model.parameters(), arrays)
    return model
