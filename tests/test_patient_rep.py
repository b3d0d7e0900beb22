"""Representation assembly: segment layout, history windows per task,
missing-modality zeros, ablation zeroing, and the JSONL round trip."""

import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import make_cohort, make_record, make_visit

from visitrep.cohort import (
    TASK_CODES,
    TASK_LOS,
    TASK_MORTALITY,
    TASK_READMISSION,
    Cohort,
    build_vocabulary,
    encode_visit_codes,
    extract_labels,
    select_task_text,
)
from visitrep import code_embedder
from visitrep.code_embedder import CodeEmbedderConfig, CodeEmbedderModel, encode_history
from visitrep.errors import ValidationError
from visitrep.patient_rep import (
    RepresentationPipeline,
    RepresentationSpace,
    Representations,
    join_representations,
    read_representations,
    write_representations,
    zero_segments,
)
from visitrep.synth import SynthConfig, generate_cohort
from visitrep.text_embedder import (
    SummarizerConfig,
    SummarizerModel,
    TokenVocabulary,
    build_token_vocabulary,
    sentence_matrix,
    summarize,
    visit_tokens,
)

SPACE = RepresentationSpace(d_code=4, d_enc=3, d_demo=2)


def segment(space, z, name):
    """One segment of a vector or of every row of a matrix."""
    lo, hi = space.offsets()[name]
    return z[..., lo:hi]


def small_cohort():
    return make_cohort(
        make_record(
            "p1",
            [
                make_visit(0, 2, codes=[("dx", "a"), ("med", "x")], notes=[(1, "fever cough")]),
                make_visit(40, 1, codes=[("dx", "b")], notes=[(1, "fever rash")]),
                make_visit(90, 3, codes=[("dx", "a"), ("dx", "b")]),
            ],
            age=50,
        ),
        make_record(
            "p2",
            [make_visit(5, 1, codes=[("med", "x")], notes=[(2, "cough cough rash")])],
            age=30,
        ),
    )


def build_pipeline(cohort):
    vocab = build_vocabulary(cohort)
    rng = np.random.default_rng(0)
    code_model = CodeEmbedderModel(
        len(vocab),
        CodeEmbedderConfig(d_code=4, n_layers=1, n_heads=2, d_head=2, seed=0),
        rng,
    )
    scfg = SummarizerConfig(d_text=4, d_enc=3, chunk_size=2, epochs=1, batch_size=2)
    tokens = ("<unk>", "cough", "fever", "rash")
    summarizer = SummarizerModel(TokenVocabulary(tokens), scfg, rng)
    return RepresentationPipeline(code_model, summarizer, vocab, cohort)


class TestSpace:
    def test_offsets_are_exhaustive_and_disjoint(self):
        offs = SPACE.offsets()
        assert offs["code"] == (0, 4)
        assert offs["text"] == (4, 7)
        assert offs["demo"] == (7, 9)
        assert SPACE.total_dim == 9

    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValidationError, match="d_enc"):
            RepresentationSpace(d_code=4, d_enc=0, d_demo=2)


class TestZeroSegments:
    def test_keeps_named_segments_only(self):
        z = np.arange(9.0) + 1
        kept = zero_segments(z, SPACE, keep=("code", "demo"))
        np.testing.assert_array_equal(kept[:4], z[:4])
        np.testing.assert_array_equal(kept[4:7], 0.0)
        np.testing.assert_array_equal(kept[7:], z[7:])
        np.testing.assert_array_equal(z, np.arange(9.0) + 1)  # input untouched

    def test_matrix_input(self):
        zs = np.ones((5, 9))
        kept = zero_segments(zs, SPACE, keep=["text"])
        np.testing.assert_array_equal(kept[:, 4:7], 1.0)
        np.testing.assert_array_equal(kept[:, :4], 0.0)
        np.testing.assert_array_equal(kept[:, 7:], 0.0)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError, match="unknown segments"):
            zero_segments(np.zeros(9), SPACE, keep=("code", "zz"))
        with pytest.raises(ValidationError, match="at least one"):
            zero_segments(np.zeros(9), SPACE, keep=())


class TestRepresentVisit:
    def test_one_vector_per_visit_with_layout(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        reps = pipe.represent_cohort(cohort, TASK_MORTALITY)
        assert reps.task == TASK_MORTALITY
        assert reps.keys == [("p1", 0), ("p1", 1), ("p1", 2), ("p2", 0)]
        assert reps.vectors.shape == (4, pipe.space.total_dim)
        assert reps.vectors.dtype == np.float64

    def test_first_visit_code_segment_is_zero_for_clinical_tasks(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        for task in (TASK_MORTALITY, TASK_LOS, TASK_READMISSION):
            z = pipe.represent_cohort(make_cohort(cohort.patients[0]), task).vectors[0]
            np.testing.assert_array_equal(segment(pipe.space, z, "code"), 0.0)

    def test_code_prediction_includes_current_visit(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        z = pipe.represent_cohort(make_cohort(cohort.patients[0]), TASK_CODES).vectors[0]
        assert np.abs(segment(pipe.space, z, "code")).max() > 0

    def test_current_visit_codes_do_not_leak_into_clinical_segment(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        base = pipe.represent_cohort(make_cohort(cohort.patients[0]), TASK_MORTALITY).vectors

        visits = list(cohort.patients[0].visits)
        visits[1] = make_visit(40, 1, codes=[("dx", "a"), ("med", "x")], notes=[(1, "fever rash")])
        mutated = make_record("p1", visits, age=50)
        changed = pipe.represent_cohort(make_cohort(mutated), TASK_MORTALITY).vectors

        seg = lambda z: segment(pipe.space, z, "code")
        np.testing.assert_array_equal(seg(base[1]), seg(changed[1]))
        assert not np.array_equal(seg(base[2]), seg(changed[2]))

    def test_missing_notes_zero_text_segment(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        zs = pipe.represent_cohort(make_cohort(cohort.patients[0]), TASK_MORTALITY).vectors
        np.testing.assert_array_equal(segment(pipe.space, zs[2], "text"), 0.0)
        assert np.abs(segment(pipe.space, zs[0], "text")).max() > 0

    def test_text_segment_matches_direct_summarization(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        z = pipe.represent_cohort(make_cohort(cohort.patients[1]), TASK_MORTALITY).vectors[0]
        text = select_task_text(cohort.patients[1].visits[0], TASK_MORTALITY)
        mat = sentence_matrix(text, pipe.summarizer.bag, pipe.summarizer.config.chunk_size)
        np.testing.assert_array_equal(
            segment(pipe.space, z, "text"), summarize(pipe.summarizer, mat[None])[0]
        )

    def test_demographics_drift_with_visit_age(self):
        record = make_record(
            "p1",
            [
                make_visit(0, 1, codes=[("dx", "a")]),
                make_visit(800, 1, codes=[("dx", "a")]),  # ~2.2 years later
            ],
            age=29,
        )
        cohort = make_cohort(record)
        pipe = build_pipeline(cohort)
        d0, d1 = segment(pipe.space, pipe.represent_cohort(cohort, TASK_MORTALITY).vectors, "demo")
        assert not np.array_equal(d0, d1)

    def test_extraction_leaves_models_untouched(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        def state():
            return [(p.name, p.data.copy()) for p in pipe.code_model.parameters()]

        before_code = state()
        before_tok = pipe.summarizer.bag.table.data.tobytes()
        pipe.represent_cohort(cohort, TASK_READMISSION)
        pipe.represent_cohort(cohort, TASK_CODES)
        after_code = state()
        assert [name for name, _ in after_code] == [name for name, _ in before_code]
        for (_, a), (_, b) in zip(after_code, before_code):
            assert a.tobytes() == b.tobytes()
        assert pipe.summarizer.bag.table.data.tobytes() == before_tok

    def test_unknown_task(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        with pytest.raises(ValidationError, match="unknown task"):
            pipe.represent_cohort(make_cohort(cohort.patients[0]), "los")


class TestBatchedOracle:
    """represent_cohort summarizes visits in sentence-count buckets and
    encodes patients in padded batches; every vector must match the
    per-visit summarize and per-patient encode_history it replaced."""

    CHUNK = 7  # 24-token notes give 4 or 7 sentences per visit

    def build(self):
        cohort, _ = generate_cohort(
            SynthConfig(n_patients=20, n_conditions=3, visits_min=1, visits_max=4, seed=3)
        )
        first = cohort.patients[0]
        silent = replace(first, visits=(replace(first.visits[0], notes=()), *first.visits[1:]))
        cohort = Cohort([silent, *cohort.patients[1:]])
        vocab = build_vocabulary(cohort)
        rng = np.random.default_rng(4)
        code_model = CodeEmbedderModel(
            len(vocab),
            CodeEmbedderConfig(d_code=4, n_layers=1, n_heads=2, d_head=2, batch_size=6),
            rng,
        )
        summarizer = SummarizerModel(
            build_token_vocabulary(*visit_tokens(cohort), min_freq=1),
            SummarizerConfig(d_text=4, d_enc=3, chunk_size=self.CHUNK, batch_size=4),
            rng,
        )
        return cohort, RepresentationPipeline(code_model, summarizer, vocab, cohort)

    @pytest.mark.parametrize("task", [TASK_MORTALITY, TASK_CODES])
    def test_matches_per_visit_and_per_patient_oracle(self, task):
        cohort, pipe = self.build()
        reps = pipe.represent_cohort(cohort, task)
        assert reps.keys == [
            (p.patient_id, vi) for p in cohort.patients for vi in range(len(p.visits))
        ]
        counts = []
        rows = iter(reps.vectors)
        for record in cohort.patients:
            matrix = np.stack([encode_visit_codes(v, pipe.vocab) for v in record.visits])
            [history] = encode_history(pipe.code_model, [matrix])
            for vi, visit in enumerate(record.visits):
                z = next(rows)
                if task == TASK_CODES:
                    code = history[vi]
                else:
                    code = history[vi - 1] if vi else np.zeros(pipe.space.d_code)
                mat = sentence_matrix(
                    select_task_text(visit, task), pipe.summarizer.bag, self.CHUNK
                )
                counts.append(0 if mat is None else len(mat))
                text = (
                    np.zeros(pipe.space.d_enc) if mat is None
                    else summarize(pipe.summarizer, mat[None])[0]
                )
                seg = lambda name: segment(pipe.space, z, name)
                np.testing.assert_allclose(seg("code"), code, rtol=0, atol=1e-12)
                np.testing.assert_allclose(seg("text"), text, rtol=0, atol=1e-12)
                np.testing.assert_array_equal(seg("demo"), pipe.demo_codec.encode(record, vi))
        # The cohort spans several code batches, a visit without text and a
        # sentence-count bucket larger than one text batch; the mortality
        # window also mixes one-note and two-note visits.
        assert len(cohort.patients) > 2 * pipe.code_model.config.batch_size
        assert 0 in counts
        assert max(counts.count(m) for m in set(counts) - {0}) > pipe.summarizer.config.batch_size
        if task == TASK_MORTALITY:
            assert len(set(counts)) == 3

    def test_one_forward_histories_call(self, monkeypatch):
        cohort, pipe = self.build()
        forward, calls = code_embedder.forward_histories, []

        def counted(*args):
            calls.append(len(args[1]))
            return forward(*args)

        monkeypatch.setattr(code_embedder, "forward_histories", counted)
        for task in (TASK_MORTALITY, TASK_CODES):
            pipe.represent_cohort(cohort, task)
        assert calls == [len(cohort.patients)] * 2


class TestExport:
    def test_jsonl_round_trip_rounds_to_float32(self, tmp_path):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        reps = pipe.represent_cohort(cohort, TASK_LOS)
        path = tmp_path / "reps.jsonl"
        write_representations(path, reps)
        back = read_representations(path, TASK_LOS)
        assert (back.task, back.keys) == (reps.task, reps.keys)
        np.testing.assert_array_equal(
            back.vectors, reps.vectors.astype(np.float32).astype(np.float64)
        )

    def test_float32_width_round_trips_bit_for_bit(self, tmp_path):
        """Each value is written as %.9g of its float32 value and reads back to
        that float32, a negative zero, subnormals and the float32 extremes
        included; a file written with 17 digits reads to the same table."""
        f32 = np.finfo(np.float32)
        edge = [-0.0, 0.0, float(f32.smallest_subnormal), -1.17e-39, float(f32.max),
                -float(f32.max), float(f32.tiny), -1e-50, 1.0, -2.5]
        rng = np.random.default_rng(5)
        vectors = np.vstack([edge, rng.standard_normal((40, len(edge))) * 10.0 ** rng.integers(
            -30, 30, size=(40, len(edge)))])
        keys = [("p", i) for i in range(len(vectors))]
        reps = Representations(TASK_MORTALITY, keys, vectors)
        want = vectors.astype(np.float32).astype(np.float64)
        path = tmp_path / "reps.jsonl"
        write_representations(path, reps)
        assert '"z": [-0.0, 0, 1.40129846e-45, ' in path.read_text().splitlines()[0]
        back = read_representations(path, TASK_MORTALITY)
        assert back.keys == keys and back.vectors.tobytes() == want.tobytes()

        wide = tmp_path / "wide.jsonl"
        wide.write_text("".join(
            json.dumps({"patient_id": p, "visit_index": i, "task": TASK_MORTALITY,
                        "z": z.tolist()}) + "\n"
            for (p, i), z in zip(keys, vectors.astype(np.float32))
        ))
        assert len(wide.read_bytes()) > len(path.read_bytes())
        assert read_representations(wide, TASK_MORTALITY).vectors.tobytes() == want.tobytes()

    def test_value_outside_float32_range_names_the_line(self, tmp_path):
        path = tmp_path / "reps.jsonl"
        row = '{"patient_id": "p", "visit_index": %d, "task": "t", "z": [1.0, %s]}\n'
        path.write_text(row % (0, "3.4028235e38") + row % (1, "-1e39"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(
                f"{path}:2: bad representation row (z item 1 is outside the float32 range)"
            )):
                read_representations(path, "t")

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "reps.jsonl"
        path.write_text('{"patient_id": "p", "visit_index": 0}\n')
        with pytest.raises(ValidationError, match="1: bad representation row"):
            read_representations(path, TASK_MORTALITY)

    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                ['{"patient_id": "p", "visit_index": 0, "task": "t", "z": [1.0, null]}'],
                ":1: bad representation row .*finite",
            ),
            (
                ['{"patient_id": "p", "visit_index": 0, "task": "t", "z": [[1.0]]}'],
                ":1: bad representation row .*finite",
            ),
            (
                ['{"patient_id": "p", "visit_index": 0, "task": "t", "z": [1.0, 2.0]}', "",
                 '{"patient_id": "p", "visit_index": 1, "task": "u", "z": [1.0, 2.0]}'],
                ":3: task 'u' and width 2, but line 1 has task 't' and width 2",
            ),
            (
                ['{"patient_id": "p", "visit_index": 0, "task": "t", "z": [1.0, 2.0]}',
                 '{"patient_id": "p", "visit_index": 1, "task": "t", "z": [1.0]}'],
                ":2: task 't' and width 1, but line 1 has task 't' and width 2",
            ),
            ([""], ": no representation rows"),
            (
                ['{"patient_id": "p", "visit_index": 1.7, "task": "t", "z": [1.0]}'],
                ":1: bad representation row "
                "\\(visit_index must be a non-negative integer, got 1.7\\)",
            ),
            (
                ['{"patient_id": "p", "visit_index": true, "task": "t", "z": [1.0]}'],
                ":1: bad representation row .*visit_index .* got True",
            ),
            (
                ['{"patient_id": "p", "visit_index": -1, "task": "t", "z": [1.0]}'],
                ":1: bad representation row .*visit_index .* got -1",
            ),
            (
                ['{"patient_id": 5, "visit_index": 0, "task": "t", "z": [1.0]}'],
                ":1: bad representation row \\(patient_id must be a non-empty string, got 5\\)",
            ),
            (
                ['{"patient_id": "", "visit_index": 0, "task": "t", "z": [1.0]}'],
                ":1: bad representation row .*patient_id .* got ''",
            ),
            (
                ['{"patient_id": "p", "visit_index": 0, "task": "t", "z": [1.0]}',
                 '{"patient_id": "q", "visit_index": 0, "task": "t", "z": [1.0]}',
                 '{"patient_id": "p", "visit_index": 0, "task": "t", "z": [2.0]}'],
                ":3: line 1 already holds visit \\('p', 0\\)",
            ),
        ],
        ids=[
            "null-value", "nested", "task", "width", "empty", "float-index", "bool-index",
            "negative-index", "int-patient", "empty-patient", "repeated-key",
        ],
    )
    def test_foreign_row_or_empty_file_names_path_and_line(self, tmp_path, lines, message):
        path = tmp_path / "reps.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=re.escape(str(path)) + message):
            read_representations(path, "t")


class TestJoin:
    def reps(self, rows):
        keys = [(pid, vi) for pid, vi, _ in rows]
        vectors = np.array([vec for _, _, vec in rows], dtype=float)
        return Representations(TASK_MORTALITY, keys, vectors)

    def test_aligns_on_patient_and_visit(self):
        reps = self.reps([("a", 0, [1.0, 2.0]), ("b", 0, [3.0, 4.0])])
        cohort = make_cohort(
            make_record("b", [make_visit(died=True)]),
            make_record("a", [make_visit()]),
            make_record("c", [make_visit(died=True)]),
        )
        X, y = join_representations(reps, cohort)
        np.testing.assert_array_equal(X, [[3.0, 4.0], [1.0, 2.0]])
        np.testing.assert_array_equal(y, [1.0, 0.0])

    def test_no_overlap_is_an_error(self):
        with pytest.raises(ValidationError, match="no overlap"):
            join_representations(
                self.reps([("a", 0, [1.0])]), make_cohort(make_record("z", [make_visit()]))
            )

    def test_works_against_extract_labels(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        reps = pipe.represent_cohort(cohort, TASK_READMISSION)
        X, y = join_representations(reps, cohort)
        # p1 has 3 visits (2 labeled), p2 has a single unlabeled visit
        assert reps.keys[:2] == [("p1", 0), ("p1", 1)]
        np.testing.assert_array_equal(X, reps.vectors[:2])
        assert X.shape == (2, pipe.space.total_dim)
        assert set(np.unique(y)) <= {0.0, 1.0}
        np.testing.assert_array_equal(
            y, [label.value for label in extract_labels(cohort, TASK_READMISSION)]
        )
