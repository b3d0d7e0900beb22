"""Metrics and the patient-level cross-validation harness.

Rank-based metrics only: the ROC area is the pairwise concordance
probability with ties counted half, the precision-recall area uses step
interpolation over ranked thresholds, recall@k is plain set intersection
over a ranking, and top-1 is exact-match accuracy. The harness deals
patients into disjoint folds, retrains every upstream model on each train
split, fits task heads per ablation variant on the frozen vectors, and
aggregates fold values as mean and sample standard deviation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .atomic import atomic_open, write_json
from .cohort import (
    TASK_CODES,
    TASK_LOS,
    TASKS,
    Cohort,
    CodeVocabulary,
    build_vocabulary,
    code_counts,
    patient_kfold_split,
    visit_matrix,
)
from .code_embedder import (
    CodeEmbedderConfig,
    forward_histories,
    rank_codes,
    train_code_embedder,
)
from .errors import ValidationError
from .jsonconfig import JsonConfig
from .numerics import derive_seed
from .shape import COUNT, POSITIVE, at_least
from .patient_rep import SEGMENTS, RepresentationPipeline, join_representations, zero_segments
from .tasks import TaskHeadConfig, balance_for_los, predict, train_task
from .text_embedder import SummarizerConfig, train_summarizer

# Head variant name -> the segments it keeps: each non-empty subset of
# SEGMENTS, named by its members joined with "+" in SEGMENTS order, and
# "full" for all of them.
ABLATION_VARIANTS = {
    "full" if len(kept) == len(SEGMENTS) else "+".join(kept): kept
    for size in range(1, len(SEGMENTS) + 1)
    for kept in combinations(SEGMENTS, size)
}
# The head variant that is crossval's permutation null (labels shuffled).
SHUFFLED = "shuffled"


# -- metrics -----------------------------------------------------------------------


def recall_at_k(ranked, truth, k: int) -> float:
    """|top-k of the ranking ∩ truth| / |truth|; k clamps to the ranking."""
    if k < 1:
        raise ValidationError(f"recall_at_k: k must be >= 1, got {k}")
    truth = set(truth)
    if not truth:
        raise ValidationError("recall_at_k: empty truth set")
    top = set(list(ranked)[:k])
    return len(top & truth) / len(truth)


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])) + 1
    return (starts + (counts - 1) / 2.0)[inverse]


def auc_roc(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError(
            f"auc_roc: scores {scores.shape} and labels {labels.shape} must be equal-length vectors"
        )
    pos = labels == 1.0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("auc_roc: both classes must be present")
    ranks = _average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def pr_auc(scores, labels) -> float:
    """Step-interpolated area under precision-recall, thresholds at distinct scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError(
            f"pr_auc: scores {scores.shape} and labels {labels.shape} must be equal-length vectors"
        )
    n_pos = int((labels == 1.0).sum())
    if n_pos == 0:
        raise ValidationError("pr_auc: no positive labels")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))  # last row of each tie group
    tp = np.cumsum(labels[order])[ends]
    recall = tp / n_pos
    terms = np.diff(recall, prepend=0.0) * (tp / (ends + 1))
    # np.cumsum adds the terms one at a time in rank order, on every Python
    # (sum() compensates float sums from 3.12 on).
    return float(np.cumsum(terms)[-1])


def top1_accuracy(pred_classes, true_classes) -> float:
    pred = np.asarray(pred_classes)
    true = np.asarray(true_classes)
    if pred.shape != true.shape:
        raise ValidationError(
            f"top1_accuracy: {pred.shape} predictions vs {true.shape} labels"
        )
    return float(np.mean(pred == true))


def score_head(model, X, y, task) -> dict:
    """A trained head's metrics on (X, y): for length of stay the top-1
    accuracy of the argmax class (classes count from 1), otherwise AUROC and
    AUPRC of the scores."""
    if task == TASK_LOS:
        top1 = predict(model, X).argmax(axis=1) + 1
        return {"top1": top1_accuracy(top1, y.astype(int))}
    scores = predict(model, X)
    return {"auroc": auc_roc(scores, y), "auprc": pr_auc(scores, y)}


@dataclass
class MetricReport:
    name: str
    folds: list

    @property
    def mean(self) -> float:
        return float(np.mean(self.folds))

    @property
    def std(self) -> float:
        if len(self.folds) < 2:
            return 0.0
        return float(np.std(self.folds, ddof=1))

    def to_json(self) -> dict:
        return {"folds": [float(v) for v in self.folds], "mean": self.mean, "std": self.std}


def write_report_json(path, reports: dict) -> None:
    write_json(path, {name: rep.to_json() for name, rep in reports.items()})


def write_report_csv(path, reports: dict) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "fold", "value"])
        for name in sorted(reports):
            rep = reports[name]
            for i, v in enumerate(rep.folds):
                writer.writerow([name, str(i), repr(float(v))])
            writer.writerow([name, "mean", repr(rep.mean)])
            writer.writerow([name, "std", repr(rep.std)])


# -- baselines ---------------------------------------------------------------------


def frequency_baseline(cohort: Cohort, vocab: CodeVocabulary) -> np.ndarray:
    """Codes ranked by training frequency, ties broken by vocabulary index."""
    freq = code_counts(cohort.patients)
    counts = np.array([freq[(e.system, e.group_id)] for e in vocab.entries])
    return np.lexsort((np.arange(len(vocab)), -counts))


# -- cross-validation harness ------------------------------------------------------


@dataclass(frozen=True)
class EvalConfig(JsonConfig):
    json_name = "config.eval"
    json_fields = {"folds": at_least(2), "recall_ks": ["recall_ks", POSITIVE], "seed": COUNT}

    folds: int = 7
    recall_ks: tuple = (10, 20, 30)
    seed: int = 0

    def validate(self):
        if not self.recall_ks:
            raise ValidationError(f"{self.json_name}: recall_ks must be a non-empty list, got []")


def next_code_recall(model, cohort: Cohort, vocab: CodeVocabulary, ks, ranking=None):
    """recall@k per system for next-visit codes; returns ({(sys, k): mean}, skipped).

    Each prefix of a patient is one row: its truth is the next visit, and its
    scores are row t of one causal forward (see forward_histories), which
    ranks the visit after t exactly as a forward over visits 0..t would. With
    `ranking` given (a permutation of the vocabulary indices, best first,
    e.g. the frequency baseline), one fixed score row scores every prefix.
    Per system, every row is ranked at once and its hits summed in rank
    order; a row with no truth in the system is skipped.
    """
    if any(k < 1 for k in ks):
        raise ValidationError(f"next_code_recall: every k must be >= 1, got {tuple(ks)}")
    if ranking is not None:
        ranking = np.asarray(ranking)
        if (ranking.shape != (len(vocab),) or ranking.dtype.kind not in "iu"
                or set(ranking.tolist()) != set(range(len(vocab)))):
            raise ValidationError(
                f"next_code_recall: ranking must be a permutation of 0..{len(vocab) - 1}"
            )
    matrices = [visit_matrix(r, vocab) for r in cohort.patients if len(r.visits) >= 2]
    if not matrices:
        raise ValidationError("next_code_recall: no patient had a scorable next visit")
    truth = np.concatenate([m[1:] for m in matrices]) > 0
    if ranking is None:
        scores = np.concatenate([chat[:-1] for _, chat in forward_histories(model, matrices)])
    else:
        row = np.empty(len(vocab))
        row[ranking] = -np.arange(len(vocab))
        scores = np.broadcast_to(row, truth.shape)
    means, skipped = {}, 0
    for system in sorted({e.system for e in vocab.entries}):
        ranked = rank_codes(scores, vocab.system_indices(system))
        found = np.cumsum(np.take_along_axis(truth, ranked, axis=1), axis=1)
        found = found[found[:, -1] > 0]
        skipped += len(truth) - len(found)
        if len(found):
            for k in ks:
                hits = found[:, min(k, found.shape[1]) - 1]
                means[(system, k)] = float(np.mean(hits / found[:, -1]))
    if not means:
        raise ValidationError("next_code_recall: no patient had a scorable next visit")
    return means, skipped


def next_code_report(code_model, train_cohort, test_cohort, vocab, ks) -> dict:
    """Per-system recall@k for the model and the frequency baseline,
    keyed the way reports name them."""
    out = {}
    means, skipped = next_code_recall(code_model, test_cohort, vocab, ks)
    for (system, k), value in sorted(means.items()):
        out[f"{system}_recall@{k}"] = value
    baseline = frequency_baseline(train_cohort, vocab)
    base_means, _ = next_code_recall(None, test_cohort, vocab, ks, ranking=baseline)
    for (system, k), value in sorted(base_means.items()):
        out[f"{system}_freq_recall@{k}"] = value
    out["skipped_empty_truth"] = float(skipped)
    return out


def crossval(
    cohort: Cohort,
    task: str,
    code_config: CodeEmbedderConfig = None,
    summarizer_config: SummarizerConfig = None,
    head_config: TaskHeadConfig = None,
    eval_config: EvalConfig = None,
    ablations=("full",),
) -> dict:
    """Patient-level k-fold evaluation; returns {metric name: MetricReport}.

    Upstream models are retrained per fold on the train patients only and
    shared across the head variants in `ablations`: segment sets named in
    ABLATION_VARIANTS, and SHUFFLED, the full vector fit and scored on labels
    permuted within each split (before length-of-stay balancing) with the
    full head's seed. Metrics of a variant other than "full" end in
    `[variant]`. The codes task fits no head, so it takes "full" alone; an
    empty or inapplicable `ablations` is refused before anything trains.
    Fold failures carry the fold index.
    """
    if task not in TASKS:
        raise ValidationError(f"crossval: unknown task {task!r}, expected one of {TASKS}")
    code_config = code_config or CodeEmbedderConfig()
    summarizer_config = summarizer_config or SummarizerConfig()
    head_config = head_config or TaskHeadConfig()
    eval_config = eval_config or EvalConfig()
    seed = eval_config.seed
    known = sorted([*ABLATION_VARIANTS, SHUFFLED])
    if not ablations:
        raise ValidationError(f"crossval: no head variant given, expected from {known}")
    for name in ablations:
        if name not in known:
            raise ValidationError(f"crossval: unknown ablation {name!r}, expected from {known}")
        if task == TASK_CODES and name != "full":
            raise ValidationError(
                f"crossval: ablation {name!r} needs a task head, and the codes task fits none"
            )

    values: dict = {}
    for i, held_out in enumerate(patient_kfold_split(cohort, eval_config.folds, seed)):
        try:
            train_cohort = cohort.subset(set(cohort.patient_ids()) - set(held_out))
            test_cohort = cohort.subset(held_out)
            overlap = set(train_cohort.patient_ids()) & set(test_cohort.patient_ids())
            assert not overlap, f"patient leakage across folds: {sorted(overlap)[:5]}"

            vocab = build_vocabulary(train_cohort)
            code_cfg = replace(code_config, seed=derive_seed(seed, f"code:{i}"))
            code_model, _ = train_code_embedder(train_cohort, vocab, code_cfg)
            if task == TASK_CODES:
                fold_values = next_code_report(
                    code_model, train_cohort, test_cohort, vocab, eval_config.recall_ks
                )
            else:
                summ_cfg = replace(summarizer_config, seed=derive_seed(seed, f"text:{i}"))
                summarizer, _ = train_summarizer(train_cohort, summ_cfg)
                pipeline = RepresentationPipeline(code_model, summarizer, vocab, train_cohort)
                train, test = (join_representations(pipeline.represent_cohort(part, task), part)
                               for part in (train_cohort, test_cohort))
                fold_values = {}
                for variant in ablations:
                    segments = "full" if variant == SHUFFLED else variant
                    split = train, test
                    if variant == SHUFFLED:
                        rng = np.random.default_rng(derive_seed(seed, f"shuffle:{i}"))
                        split = [(X, y[rng.permutation(len(y))]) for X, y in split]
                    keep = ABLATION_VARIANTS[segments]
                    (X_train, y_train), (X_test, y_test) = (
                        (zero_segments(X, pipeline.space, keep), y) for X, y in split
                    )
                    if task == TASK_LOS:
                        X_test, y_test = balance_for_los(
                            y_train, X_test, y_test, seed=derive_seed(seed, f"balance:{i}")
                        )
                    head_cfg = replace(head_config, seed=derive_seed(seed, f"head:{segments}:{i}"))
                    model, _ = train_task(X_train, y_train, task, head_cfg)
                    suffix = "" if variant == "full" else f"[{variant}]"
                    for name, value in score_head(model, X_test, y_test, task).items():
                        fold_values[f"{name}{suffix}"] = value
        except Exception as exc:
            kind = ValidationError if isinstance(exc, ValidationError) else RuntimeError
            raise kind(f"crossval: fold {i} failed: {exc}") from exc
        for name, value in fold_values.items():
            values.setdefault(name, []).append(value)
    return {name: MetricReport(name, vals) for name, vals in values.items()}
