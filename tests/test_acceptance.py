"""Release gate: eight end-to-end checks, one test per criterion.

Run `pytest tests/test_acceptance.py -v` for a pass/fail line per
criterion. The two heavy checks (embedding recovery, downstream lift)
train real models on synthetic cohorts and dominate the runtime; the
whole file finishes in well under two minutes.
"""

import json
import time

import numpy as np
import pytest
from conftest import all_kernel_loss, row_counts

import visitrep.numerics as nm
from visitrep.cli import main
from visitrep.code_embedder import (
    CodeEmbedderConfig,
    CodeEmbedderModel,
    VisitSequenceBatch,
    encode_history,
    load_code_model,
    save_code_model,
    skip_gram_counts,
    skip_gram_loss,
    train_code_embedder,
)
from visitrep.cohort import (
    CodeVocabulary,
    build_vocabulary,
    los_bucket,
    patient_kfold_split,
)
from visitrep.errors import CheckpointError
from visitrep.evaluation import (
    EvalConfig,
    auc_roc,
    crossval,
    frequency_baseline,
    next_code_recall,
    recall_at_k,
)
from visitrep.numerics import Tensor
from visitrep.synth import SynthConfig, generate_cohort
from visitrep.tasks import TaskHeadConfig
from visitrep.text_embedder import (
    UNK_TOKEN,
    SummarizerConfig,
    SummarizerModel,
    TokenVocabulary,
    reconstruction_loss,
)


@pytest.fixture(scope="module")
def recovery_cohort():
    """1000 patients, 8 planted conditions, 10% label noise."""
    cfg = SynthConfig(n_patients=1000, n_conditions=8, label_noise=0.1, seed=101)
    return generate_cohort(cfg)


@pytest.fixture(scope="module")
def labeled_cohort():
    """500 patients whose codes, notes, and demographics all carry signal."""
    cfg = SynthConfig(n_patients=500, n_conditions=8, label_noise=0.1, seed=202)
    return generate_cohort(cfg)[0]


def test_c1_gradient_suite():
    """Analytic gradients match finite differences to 1e-4 for every kernel
    and for both full models, in under a minute."""
    start = time.perf_counter()
    errs = {}

    errs["kernels"] = nm.max_relative_error(*all_kernel_loss())

    # Full code model: 6 codes, 3 visits, one padded slot in the batch: two
    # patients packed as five rows, so attention pads one slot.
    cfg = CodeEmbedderConfig(
        d_code=4, n_layers=1, n_heads=2, d_head=2, window=2,
        epochs=1, batch_size=2, seed=0,
    )
    model = CodeEmbedderModel(6, cfg, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    codes = (rng.random((2, 3, 6)) < 0.4).astype(np.float64)
    codes[:, :, 0] = 1.0
    batch = VisitSequenceBatch(codes.reshape(6, 6)[:5], np.array([3, 2]))
    assert batch.real.tolist() == [[True, True, True], [True, True, False]]

    def code_loss():
        _, chat = model.forward(batch)
        loss, _ = skip_gram_loss(chat, *skip_gram_counts(batch.codes, batch.lengths, cfg.window))
        return loss

    errs["code model"] = nm.max_relative_error(code_loss, model.parameters())

    # Full summarizer: two sentences per visit, d_text=4, d_enc=3, with the
    # bag encoder's token table in the checked parameter set.
    rng = np.random.default_rng(7)
    vocab = TokenVocabulary((UNK_TOKEN, "alpha", "beta", "gamma", "delta"))
    smodel = SummarizerModel(
        vocab,
        SummarizerConfig(d_text=4, d_enc=3, chunk_size=4, epochs=1, batch_size=2),
        rng,
    )
    ids = rng.integers(1, 5, size=(2, 2, 3))
    sent_mask = np.ones((2, 2, 3))
    sent_mask[1, 1, 2] = 0.0

    def text_loss():
        u = smodel.bag.encode_batch(ids, sent_mask)
        states = smodel.encode(u)
        u_hat = smodel.decode(states, u, teacher_forcing=1.0, rng=None)
        return reconstruction_loss(u_hat, u)

    errs["summarizer"] = nm.max_relative_error(text_loss, smodel.parameters())

    for name, err in errs.items():
        assert err < 1e-4, f"{name}: max relative error {err:.3e}"
    assert time.perf_counter() - start < 60.0


def test_c2_causal_masking():
    """100 random perturbation trials: editing visits after a cut leaves
    every output at or before the cut bitwise unchanged, in under a minute."""
    start = time.perf_counter()
    cfg = CodeEmbedderConfig(
        d_code=6, n_layers=2, n_heads=2, d_head=3, window=2,
        epochs=1, batch_size=4, seed=0,
    )
    model = CodeEmbedderModel(8, cfg, np.random.default_rng(0))
    rng = np.random.default_rng(23)
    for _ in range(100):
        t = int(rng.integers(2, 7))
        codes = (rng.random((1, t, 8)) < 0.35).astype(np.float64)
        codes[:, :, int(rng.integers(8))] = 1.0
        lengths = np.array([t])
        cut = int(rng.integers(0, t - 1))
        out_a, chat_a = model.forward(VisitSequenceBatch(codes[0], lengths))

        edited = codes.copy()
        for s in range(cut + 1, t):
            edited[0, s] = 1.0 - edited[0, s]
            if not edited[0, s].any():
                edited[0, s, 0] = 1.0
        assert not np.array_equal(edited, codes)
        out_b, chat_b = model.forward(VisitSequenceBatch(edited[0], lengths))

        upto = cut + 1
        assert out_a.data[:upto].tobytes() == out_b.data[:upto].tobytes()
        assert chat_a.data[:upto].tobytes() == chat_b.data[:upto].tobytes()
    assert time.perf_counter() - start < 60.0


def test_c3_loss_oracles():
    """Graph losses agree with direct python summation to 1e-12."""
    rng = np.random.default_rng(41)
    window = 2
    probs = rng.uniform(0.1, 0.9, size=(2, 3, 4))
    targets = (rng.random((2, 3, 4)) < 0.5).astype(np.float64)
    real = np.array([[True, True, True], [True, True, False]])
    loss, n_pairs = skip_gram_loss(Tensor(probs[real]), *row_counts(targets, real, window))

    total, count = 0.0, 0
    for i in range(2):
        for t in range(3):
            if not real[i, t]:
                continue
            for j in range(-window, window + 1):
                s = t + j
                if j == 0 or s < 0 or s >= 3 or not real[i, s]:
                    continue
                count += 1
                y, p = targets[i, s], probs[i, t]
                total += float(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)))
    assert n_pairs == count == 8
    assert abs(float(loss.data) - (-total / count)) < 1e-12

    u = rng.normal(size=(2, 3, 4))
    u_hat = rng.normal(size=(2, 3, 4))
    value = float(reconstruction_loss(Tensor(u_hat), Tensor(u)).data)
    expected = 0.0
    for i in range(2):
        per_visit = 0.0
        for m in range(3):
            for d in range(4):
                per_visit += (u_hat[i, m, d] - u[i, m, d]) ** 2
        expected += per_visit
    expected /= 2.0
    assert abs(value - expected) < 1e-12


def test_c4_metric_oracles():
    """Rank metrics match quadratic-time oracles; the stay-length bucket
    table is exact on integer days 0..30."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        scores = np.round(rng.random(n), 2)  # duplicates exercise tie handling
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = 0.0
        for p in pos:
            for q in neg:
                wins += 1.0 if p > q else (0.5 if p == q else 0.0)
        expected = wins / (len(pos) * len(neg))
        assert abs(auc_roc(scores, labels) - expected) < 1e-12

    for _ in range(50):
        m = int(rng.integers(1, 41))
        ranked = rng.permutation(100)[:m].tolist()
        truth = set(rng.choice(100, size=int(rng.integers(1, 12)), replace=False).tolist())
        for k in (1, 3, 10, 64, 200):
            expected = len(set(ranked[:k]) & truth) / len(truth)
            assert recall_at_k(ranked, truth, k) == expected

    table = {0: 1}
    table.update({d: d for d in range(1, 8)})
    table.update({d: 8 for d in range(8, 15)})
    table.update({d: 9 for d in range(15, 31)})
    for days, want in table.items():
        assert los_bucket(days) == want, days


def test_c5_embedding_recovery(recovery_cohort):
    """Trained code vectors cluster by planted condition (pair AUC >= 0.9)
    and beat the frequency baseline at next-visit dx prediction by >= 10
    recall@10 points on held-out patients."""
    cohort, gt = recovery_cohort
    folds = patient_kfold_split(cohort, 5, seed=17)
    held = set(folds[0])
    train = cohort.subset([pid for pid in cohort.patient_ids() if pid not in held])
    test = cohort.subset(list(folds[0]))
    vocab = build_vocabulary(train)
    cfg = CodeEmbedderConfig(
        d_code=32, n_layers=1, n_heads=4, d_head=8, window=2,
        epochs=80, batch_size=32, lr0=2e-3, lr_period=80, seed=3,
    )
    model, _ = train_code_embedder(train, vocab, cfg)

    emb = model.embed.data
    emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    owner = gt.code_condition()
    cond = [owner.get((e.system, e.group_id)) for e in vocab.entries]
    sims, labels = [], []
    for i in range(len(vocab)):
        if cond[i] is None:
            continue
        for j in range(i + 1, len(vocab)):
            if cond[j] is None:
                continue
            sims.append(float(emb[i] @ emb[j]))
            labels.append(1 if cond[i] == cond[j] else 0)
    sims, labels = np.array(sims), np.array(labels)
    same = sims[labels == 1].mean()
    cross = sims[labels == 0].mean()
    assert same > cross, (same, cross)
    pair_auc = auc_roc(sims, labels)
    assert pair_auc >= 0.9, pair_auc

    means, _ = next_code_recall(model, test, vocab, ks=(10,))
    ranking = frequency_baseline(train, vocab)
    base, _ = next_code_recall(None, test, vocab, ks=(10,), ranking=ranking)
    gap = means[("dx", 10)] - base[("dx", 10)]
    assert gap >= 0.10, (means[("dx", 10)], base[("dx", 10)])


def test_c6_downstream_lift(labeled_cohort):
    """Cross-validated mortality AUROC: the full vector reaches 0.75 and
    beats every single segment; shuffled labels score 0.5 +- 0.05."""
    code_cfg = CodeEmbedderConfig(
        d_code=32, n_layers=1, n_heads=4, d_head=8, window=2,
        epochs=30, batch_size=32, lr0=2e-3, lr_period=30, seed=3,
    )
    summ_cfg = SummarizerConfig(
        d_text=16, d_enc=16, chunk_size=32, epochs=6, batch_size=16,
        train_encoder=False,
    )
    head_cfg = TaskHeadConfig(epochs=30, batch_size=32)
    eval_cfg = EvalConfig(folds=2, recall_ks=(10,), seed=3)

    reports = crossval(
        labeled_cohort, "mortality", code_cfg, summ_cfg, head_cfg, eval_cfg,
        ablations=("full", "code", "text", "demo", "shuffled"),
    )
    full = reports["auroc"].mean
    singles = {v: reports[f"auroc[{v}]"].mean for v in ("code", "text", "demo")}
    assert full >= 0.75, full
    assert full >= max(singles.values()), (full, singles)
    shuffled = reports["auroc[shuffled]"].mean
    assert abs(shuffled - 0.5) <= 0.05, shuffled


PIPELINE_CONFIG = {
    "seed": 7,
    "task": "mortality",
    "preprocess": {"min_code_freq": 1, "min_visits": 2},
    "synth": {
        "n_patients": 18,
        "n_conditions": 3,
        "visits_min": 2,
        "visits_max": 3,
        "note_tokens": 12,
    },
    "code_embedder": {
        "d_code": 8, "n_layers": 1, "n_heads": 2, "d_head": 4,
        "epochs": 2, "batch_size": 8,
    },
    "summarizer": {
        "d_text": 6, "d_enc": 5, "chunk_size": 6,
        "epochs": 2, "batch_size": 8, "min_token_freq": 1,
    },
    "task_head": {"epochs": 6, "batch_size": 16},
    "eval": {"folds": 2, "recall_ks": [5, 10]},
}

STAGES = ("generate", "preprocess", "train-code", "train-text",
          "represent", "train-task", "evaluate")


def test_c7_determinism_and_persistence(tmp_path_factory):
    """Rerunning the pipeline reproduces every artifact byte for byte;
    checkpoints round-trip exactly and refuse a mismatched vocabulary."""
    outs = []
    for tag in ("run_a", "run_b"):
        out = tmp_path_factory.mktemp(tag)
        cfg_path = out / "in_config.json"
        doc = dict(PIPELINE_CONFIG)
        doc["paths"] = {"out": str(out)}
        cfg_path.write_text(json.dumps(doc))
        for stage in STAGES:
            assert main([stage, "--config", str(cfg_path)]) == 0, stage
        outs.append(out)
    a, b = outs
    for name in (
        "cohort.jsonl", "preprocessed.jsonl", "vocab.json", "split.json",
        "code.ckpt", "text.ckpt", "reps_mortality.jsonl",
        "head_mortality.ckpt", "report_mortality.json", "report_mortality.csv",
    ):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    vocab = CodeVocabulary.from_json(json.loads((a / "vocab.json").read_text()))
    m1 = load_code_model(str(a / "code.ckpt"), vocab)
    m2 = load_code_model(str(a / "code.ckpt"), vocab)
    matrix = np.zeros((2, len(vocab)))
    matrix[0, 0] = 1.0
    matrix[1, 1] = 1.0
    assert encode_history(m1, [matrix])[0].tobytes() == encode_history(m2, [matrix])[0].tobytes()

    resaved = a / "code_resaved.ckpt"
    save_code_model(str(resaved), m1, vocab.content_hash())
    assert resaved.read_bytes() == (a / "code.ckpt").read_bytes()

    trimmed = json.loads((a / "vocab.json").read_text())["entries"][:-1]
    wrong = CodeVocabulary.from_json({"entries": trimmed})
    with pytest.raises(CheckpointError, match="different vocabulary"):
        load_code_model(str(a / "code.ckpt"), wrong)


def test_c8_fold_leakage(recovery_cohort):
    """Patient folds are pairwise disjoint, cover the cohort exactly, and
    every train split is disjoint from its held-out fold."""
    cohort, _ = recovery_cohort
    all_ids = set(cohort.patient_ids())
    folds = patient_kfold_split(cohort, 7, seed=0)
    assert len(folds) == 7
    seen = set()
    for fold in folds:
        fold_set = set(fold)
        assert fold_set
        assert len(fold_set) == len(fold)
        assert not fold_set & seen
        seen |= fold_set
        train = cohort.subset(
            [pid for pid in cohort.patient_ids() if pid not in fold_set]
        )
        assert not set(train.patient_ids()) & fold_set
    assert seen == all_ids
