"""Metric oracles and the cross-validation harness.

The ROC area is checked against a brute-force O(n^2) pairwise concordance
count and the precision-recall area against an explicit loop over distinct
thresholds, so the fast rank-based implementations never get to grade their
own homework.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_cohort, make_record, make_visit
from visitrep import evaluation as ev
from visitrep.cohort import (
    TASK_CODES,
    TASK_LOS,
    TASK_MORTALITY,
    build_vocabulary,
    encode_visit_codes,
)
from visitrep.code_embedder import (
    CodeEmbedderConfig,
    CodeEmbedderModel,
    forward_histories,
    predict_next_codes,
    rank_codes,
)
from visitrep.errors import ValidationError
from visitrep.synth import SynthConfig, generate_cohort
from visitrep.tasks import TaskHeadConfig
from visitrep.text_embedder import SummarizerConfig


def pairwise_auc(scores, labels):
    """Concordance probability counted pair by pair, ties worth one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def threshold_pr_auc(scores, labels):
    """PR area by looping distinct score thresholds in descending order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n_pos = labels.sum()
    area, prev_recall = 0.0, 0.0
    for thr in sorted(set(scores.tolist()), reverse=True):
        mask = scores >= thr
        tp = float(labels[mask].sum())
        recall = tp / n_pos
        precision = tp / int(mask.sum())
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


class TestRecallAtK:
    def test_partial_overlap(self):
        assert ev.recall_at_k([5, 2, 9, 1], {2, 1}, 2) == 0.5
        assert ev.recall_at_k([5, 2, 9, 1], {2, 1}, 4) == 1.0

    def test_k_clamps_to_ranking_length(self):
        """Asking for more items than the ranking holds is not an error."""
        assert ev.recall_at_k([3, 7], {7}, 50) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ranked = rng.permutation(20).tolist()
            truth = set(rng.choice(20, size=5, replace=False).tolist())
            values = [ev.recall_at_k(ranked, truth, k) for k in range(1, 21)]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert values[-1] == 1.0

    def test_bad_inputs(self):
        with pytest.raises(ValidationError, match="k must be >= 1"):
            ev.recall_at_k([1, 2], {1}, 0)
        with pytest.raises(ValidationError, match="empty truth"):
            ev.recall_at_k([1, 2], set(), 1)

class TestAucRoc:
    def test_worked_example(self):
        assert_allclose(ev.auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]), 0.75, rtol=0, atol=0)

    def test_degenerate_scores(self):
        assert ev.auc_roc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]) == 0.5
        assert ev.auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert ev.auc_roc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_matches_pairwise_oracle(self):
        """Rank formula equals the O(n^2) pair count, ties included."""
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 65))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # Quantized scores force plenty of exact ties.
            scores = np.round(rng.random(n), 1)
            assert_allclose(
                ev.auc_roc(scores, labels), pairwise_auc(scores, labels), rtol=0, atol=1e-12
            )

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        base = ev.auc_roc(scores, labels)
        assert_allclose(ev.auc_roc(np.exp(scores), labels), base, rtol=0, atol=1e-12)
        assert_allclose(ev.auc_roc(3.0 * scores - 10.0, labels), base, rtol=0, atol=1e-12)

    def test_single_class_is_an_error(self):
        with pytest.raises(ValidationError, match="both classes"):
            ev.auc_roc([0.1, 0.2], [1, 1])
        with pytest.raises(ValidationError, match="both classes"):
            ev.auc_roc([0.1, 0.2], [0, 0])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="equal-length"):
            ev.auc_roc([0.1, 0.2, 0.3], [0, 1])


class TestPrAuc:
    def test_perfect_ranking_has_unit_area(self):
        assert_allclose(ev.pr_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]), 1.0, rtol=0, atol=0)

    def test_single_positive_ranked_last(self):
        """One positive at the bottom: recall jumps 0 to 1 at precision 1/n."""
        n = 8
        scores = np.linspace(1.0, 0.1, n)
        labels = np.zeros(n)
        labels[-1] = 1
        assert_allclose(ev.pr_auc(scores, labels), 1.0 / n, rtol=0, atol=1e-15)

    def test_all_tied_scores_give_prevalence(self):
        """A single threshold group: recall 1 at precision = positive rate."""
        assert_allclose(ev.pr_auc([0.5] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]), 0.3, rtol=0, atol=1e-15)

    def test_matches_threshold_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 65))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            scores = np.round(rng.random(n), 1)
            assert_allclose(
                ev.pr_auc(scores, labels), threshold_pr_auc(scores, labels), rtol=0, atol=1e-12
            )

    def test_no_positives_is_an_error(self):
        with pytest.raises(ValidationError, match="no positive"):
            ev.pr_auc([0.1, 0.2], [0, 0])


class TestTop1:
    def test_exact_fraction(self):
        assert ev.top1_accuracy([1, 5, 9, 1], [1, 5, 1, 1]) == 0.75

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="predictions"):
            ev.top1_accuracy([1, 2], [1, 2, 3])


class TestMetricReport:
    def test_single_fold_has_zero_std(self):
        rep = ev.MetricReport("auroc", [0.8])
        assert rep.mean == 0.8
        assert rep.std == 0.0

    def test_sample_std_uses_n_minus_one(self):
        rep = ev.MetricReport("auroc", [0.4, 0.6])
        assert_allclose(rep.mean, 0.5, rtol=0, atol=0)
        assert_allclose(rep.std, np.sqrt(0.02), rtol=0, atol=1e-15)

    def test_json_shape(self):
        rep = ev.MetricReport("x", [0.25, 0.75])
        obj = rep.to_json()
        assert set(obj) == {"folds", "mean", "std"}
        assert obj["folds"] == [0.25, 0.75]


class TestReportFiles:
    def two_reports(self):
        return {
            "auroc": ev.MetricReport("auroc", [0.7, 0.8]),
            "auprc": ev.MetricReport("auprc", [0.5, 0.6]),
        }

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        ev.write_report_json(path, self.two_reports())
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert set(loaded) == {"auroc", "auprc"}
        assert loaded["auroc"]["folds"] == [0.7, 0.8]

    def test_json_writes_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ev.write_report_json(a, self.two_reports())
        ev.write_report_json(b, self.two_reports())
        assert a.read_bytes() == b.read_bytes()

    def test_json_keys_are_sorted(self, tmp_path):
        path = tmp_path / "report.json"
        ev.write_report_json(path, self.two_reports())
        text = path.read_text()
        assert text.index('"auprc"') < text.index('"auroc"')

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "report.csv"
        ev.write_report_csv(path, self.two_reports())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,fold,value"
        assert lines[1].startswith("auprc,0,")
        # 2 metrics x (2 folds + mean + std) data rows.
        assert len(lines) == 1 + 2 * 4
        assert [ln.split(",")[1] for ln in lines[1:5]] == ["0", "1", "mean", "std"]


class TestFrequencyBaseline:
    def test_ranked_by_count_then_index(self):
        cohort = make_cohort(
            make_record(
                "p1",
                [
                    make_visit(0, 2.0, codes=[("dx", "A"), ("dx", "B")]),
                    make_visit(40, 2.0, codes=[("dx", "A")]),
                ],
            ),
            make_record("p2", [make_visit(0, 2.0, codes=[("dx", "A"), ("dx", "C")])]),
        )
        vocab = build_vocabulary(cohort)
        order = ev.frequency_baseline(cohort, vocab)
        # A appears 3 times; B and C once each, tie broken by vocab index.
        names = [vocab.entries[i].group_id for i in order]
        assert names == ["A", "B", "C"]

    def test_agrees_with_direct_count(self):
        cohort, _ = generate_cohort(SynthConfig(n_patients=15, n_conditions=3, seed=4))
        vocab = build_vocabulary(cohort)
        index = {(e.system, e.group_id): i for i, e in enumerate(vocab.entries)}
        counts = np.zeros(len(vocab))
        for record in cohort.patients:
            for visit in record.visits:
                for code in visit.codes:
                    counts[index[code]] += 1
        expect = sorted(range(len(vocab)), key=lambda i: (-counts[i], i))
        assert ev.frequency_baseline(cohort, vocab).tolist() == expect


def per_prefix_recall(model, cohort, vocab, ks, ranking=None):
    """next_code_recall's definition, one forward per (prefix, system) pair,
    or, with `ranking` given, that ranking filtered to the system's codes."""
    values, skipped = {}, 0
    systems = sorted({e.system for e in vocab.entries})
    for record in cohort.patients:
        matrix = np.stack([encode_visit_codes(v, vocab) for v in record.visits])
        for t in range(len(record.visits) - 1):
            for system in systems:
                idx = vocab.system_indices(system)
                truth = set(idx[matrix[t + 1][idx] > 0].tolist())
                if not truth:
                    skipped += 1
                    continue
                if ranking is None:
                    ranked = predict_next_codes(model, matrix[: t + 1], system_indices=idx).tolist()
                else:
                    members = set(idx.tolist())
                    ranked = [int(c) for c in ranking if int(c) in members]
                for k in ks:
                    values.setdefault((system, k), []).append(ev.recall_at_k(ranked, truth, k))
    return {key: float(np.mean(v)) for key, v in values.items()}, skipped


class TestBatchedNextCodeRecall:
    """next_code_recall ranks every prefix from the causal rows of one padded
    forward per batch of patients; rankings and recalls must equal the
    per-prefix forward they replaced."""

    def setup_model(self):
        cohort, _ = generate_cohort(
            SynthConfig(n_patients=24, n_conditions=3, visits_min=1, visits_max=5, seed=6)
        )
        vocab = build_vocabulary(cohort)
        config = CodeEmbedderConfig(d_code=8, n_layers=2, n_heads=2, d_head=4, batch_size=5)
        model = CodeEmbedderModel(len(vocab), config, np.random.default_rng(2))
        assert len(cohort.patients) > 2 * config.batch_size
        assert len({len(p.visits) for p in cohort.patients}) > 2
        return cohort, vocab, model

    def test_rankings_match_per_prefix_forward(self):
        cohort, vocab, model = self.setup_model()
        matrices = [
            np.stack([encode_visit_codes(v, vocab) for v in p.visits]) for p in cohort.patients
        ]
        systems = sorted({e.system for e in vocab.entries})
        for start in range(0, len(matrices), model.config.batch_size):
            chunk = matrices[start : start + model.config.batch_size]
            for matrix, (_, chat) in zip(chunk, forward_histories(model, chunk)):
                for t in range(len(matrix)):
                    for system in systems:
                        idx = vocab.system_indices(system)
                        assert (
                            rank_codes(chat[t], idx).tolist()
                            == predict_next_codes(model, matrix[: t + 1], idx).tolist()
                        )

    def test_recall_matches_per_prefix_oracle(self):
        cohort, vocab, model = self.setup_model()
        # 100 is past every system's size, so recall@100 reads the whole ranking.
        assert all(len(vocab.system_indices(e.system)) < 100 for e in vocab.entries)
        ks = (1, 3, 10, 100)
        assert ev.next_code_recall(model, cohort, vocab, ks=ks) == per_prefix_recall(
            model, cohort, vocab, ks=ks
        )

    def test_one_forward_histories_call(self, monkeypatch):
        cohort, vocab, model = self.setup_model()
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return forward_histories(*args)

        monkeypatch.setattr(ev, "forward_histories", counted)
        ev.next_code_recall(model, cohort, vocab, ks=(10,))
        assert calls == [sum(len(p.visits) >= 2 for p in cohort.patients)]
        ev.next_code_recall(None, cohort, vocab, ks=(10,), ranking=np.arange(len(vocab)))
        assert len(calls) == 1

    def test_k_below_one_refused(self):
        cohort, vocab, model = self.setup_model()
        for ranking in (None, np.arange(len(vocab))):
            with pytest.raises(ValidationError, match="every k must be >= 1"):
                ev.next_code_recall(model, cohort, vocab, ks=(0,), ranking=ranking)

    def test_fixed_ranking_matches_filtered_list_oracle(self):
        cohort, vocab, _ = self.setup_model()
        rankings = [
            ev.frequency_baseline(cohort, vocab),
            np.random.default_rng(0).permutation(len(vocab)),
            list(range(len(vocab)))[::-1],
        ]
        for ranking in rankings:
            assert ev.next_code_recall(
                None, cohort, vocab, ks=(1, 3, 10), ranking=ranking
            ) == per_prefix_recall(None, cohort, vocab, ks=(1, 3, 10), ranking=ranking)

    def test_ranking_must_be_a_permutation_of_the_vocabulary(self):
        cohort, vocab, _ = self.setup_model()
        ranking = ev.frequency_baseline(cohort, vocab)
        for bad in (
            ranking[:-1],
            np.append(ranking[:-1], ranking[0]),
            ranking + 1,
            ranking.astype(float),
            ranking.reshape(1, -1),
            ranking[0],
            [True] * len(vocab),
        ):
            with pytest.raises(ValidationError, match="ranking must be a permutation"):
                ev.next_code_recall(None, cohort, vocab, ks=(10,), ranking=bad)


class TestEvalConfig:
    def test_validate(self):
        with pytest.raises(ValidationError, match="folds"):
            ev.EvalConfig(folds=1).validate()
        with pytest.raises(ValidationError, match="recall_ks"):
            ev.EvalConfig(recall_ks=()).validate()
        with pytest.raises(ValidationError, match="recall_ks"):
            ev.EvalConfig(recall_ks=(10, 0)).validate()

    def test_json_round_trip(self):
        cfg = ev.EvalConfig(folds=3, recall_ks=(5, 15), seed=9)
        assert ev.EvalConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            ev.EvalConfig.from_json({"folds": 3, "fold_count": 3})


class TestAblationVariants:
    def test_full_keeps_every_segment(self):
        assert ev.ABLATION_VARIANTS["full"] == ("code", "text", "demo")
        assert set(ev.ABLATION_VARIANTS) == {
            "full", "code", "text", "demo", "code+text", "code+demo", "text+demo",
        }


def tiny_configs():
    code_cfg = CodeEmbedderConfig(
        d_code=8, n_layers=1, n_heads=2, d_head=4, epochs=2, batch_size=8, window=2
    )
    summ_cfg = SummarizerConfig(
        d_text=6, d_enc=5, chunk_size=6, epochs=2, batch_size=8, min_token_freq=1
    )
    head_cfg = TaskHeadConfig(epochs=8, batch_size=16)
    return code_cfg, summ_cfg, head_cfg


@pytest.fixture(scope="module")
def smoke_cohort():
    cohort, _ = generate_cohort(
        SynthConfig(n_patients=20, n_conditions=3, visits_min=2, visits_max=3, seed=5)
    )
    return cohort


@pytest.fixture(scope="module")
def mortality_reports(smoke_cohort):
    code_cfg, summ_cfg, head_cfg = tiny_configs()
    return ev.crossval(
        smoke_cohort,
        TASK_MORTALITY,
        code_config=code_cfg,
        summarizer_config=summ_cfg,
        head_config=head_cfg,
        eval_config=ev.EvalConfig(folds=2, seed=3),
        ablations=("full", "code"),
    )


class TestCrossval:
    """End-to-end harness on a small synthetic cohort; quality is not graded
    here, only plumbing: metric names, fold counts, determinism, leakage."""

    def test_metric_names_and_fold_counts(self, mortality_reports):
        assert set(mortality_reports) == {"auroc", "auprc", "auroc[code]", "auprc[code]"}
        for rep in mortality_reports.values():
            assert len(rep.folds) == 2
            assert all(0.0 <= v <= 1.0 for v in rep.folds)

    def test_deterministic_across_runs(self, smoke_cohort, mortality_reports):
        code_cfg, summ_cfg, head_cfg = tiny_configs()
        again = ev.crossval(
            smoke_cohort,
            TASK_MORTALITY,
            code_config=code_cfg,
            summarizer_config=summ_cfg,
            head_config=head_cfg,
            eval_config=ev.EvalConfig(folds=2, seed=3),
            ablations=("full", "code"),
        )
        first = {k: r.to_json() for k, r in mortality_reports.items()}
        second = {k: r.to_json() for k, r in again.items()}
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_shuffled_labels_run(self, smoke_cohort):
        code_cfg, summ_cfg, head_cfg = tiny_configs()
        reports = ev.crossval(
            smoke_cohort,
            TASK_MORTALITY,
            code_config=code_cfg,
            summarizer_config=summ_cfg,
            head_config=head_cfg,
            eval_config=ev.EvalConfig(folds=2, seed=3),
            ablations=("full", "shuffled"),
        )
        assert set(reports) == {"auroc", "auprc", "auroc[shuffled]", "auprc[shuffled]"}

    def test_upstream_models_train_once_per_fold(self, smoke_cohort, monkeypatch):
        """Every head variant, the null included, shares one code model and
        one summarizer per fold, and the null does not depend on which other
        variants run beside it."""
        code_cfg, summ_cfg, head_cfg = tiny_configs()
        calls = {"train_code_embedder": 0, "train_summarizer": 0}

        def counted(name):
            train = getattr(ev, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return train(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(ev, name, counted(name))

        def run(ablations):
            return ev.crossval(
                smoke_cohort,
                TASK_MORTALITY,
                code_config=code_cfg,
                summarizer_config=summ_cfg,
                head_config=head_cfg,
                eval_config=ev.EvalConfig(folds=2, seed=3),
                ablations=ablations,
            )

        every = run((*ev.ABLATION_VARIANTS, "shuffled"))
        assert calls == {"train_code_embedder": 2, "train_summarizer": 2}
        alone = run(("shuffled",))
        assert set(alone) == {"auroc[shuffled]", "auprc[shuffled]"}
        assert {name: every[name].folds for name in alone} == {
            name: rep.folds for name, rep in alone.items()
        }

    def test_codes_task_metrics(self, smoke_cohort):
        code_cfg, summ_cfg, head_cfg = tiny_configs()
        reports = ev.crossval(
            smoke_cohort,
            TASK_CODES,
            code_config=code_cfg,
            summarizer_config=summ_cfg,
            head_config=head_cfg,
            eval_config=ev.EvalConfig(folds=2, recall_ks=(5, 10), seed=3),
        )
        assert "dx_recall@5" in reports
        assert "dx_freq_recall@5" in reports
        assert "skipped_empty_truth" in reports
        for name, rep in reports.items():
            assert len(rep.folds) == 2
            if name != "skipped_empty_truth":
                assert all(0.0 <= v <= 1.0 for v in rep.folds)

    def test_unknown_task(self, smoke_cohort):
        with pytest.raises(ValidationError, match="unknown task"):
            ev.crossval(smoke_cohort, "triage")

    def test_unknown_ablation(self, smoke_cohort):
        with pytest.raises(ValidationError, match="unknown ablation 'notes'.*'shuffled'"):
            ev.crossval(smoke_cohort, TASK_MORTALITY, ablations=("full", "notes"))

    def test_no_ablation_is_refused_before_training(self, smoke_cohort, monkeypatch):
        monkeypatch.setattr(ev, "train_code_embedder", None)
        with pytest.raises(ValidationError, match=r"^crossval: no head variant given, .*'full'"):
            ev.crossval(smoke_cohort, TASK_MORTALITY, ablations=())

    def test_codes_task_refuses_a_head_variant_before_training(self, smoke_cohort, monkeypatch):
        monkeypatch.setattr(ev, "train_code_embedder", None)
        with pytest.raises(
            ValidationError,
            match=r"^crossval: ablation 'code\+text' needs a task head, and the codes task fits none$",
        ):
            ev.crossval(smoke_cohort, TASK_CODES, ablations=("full", "code+text"))

    def test_fold_failures_carry_the_fold_index(self, smoke_cohort, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("deliberate")

        monkeypatch.setattr(ev, "train_code_embedder", boom)
        code_cfg, summ_cfg, head_cfg = tiny_configs()
        with pytest.raises(RuntimeError, match=r"fold 0 failed.*deliberate"):
            ev.crossval(
                smoke_cohort,
                TASK_MORTALITY,
                code_config=code_cfg,
                summarizer_config=summ_cfg,
                head_config=head_cfg,
                eval_config=ev.EvalConfig(folds=2, seed=3),
            )
