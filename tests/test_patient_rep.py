"""Representation assembly: segment layout, history windows per task,
missing-modality zeros, ablation zeroing, and the JSONL round trip."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import make_cohort, make_record, make_visit

from visitrep.cohort import (
    TASK_CODES,
    TASK_LOS,
    TASK_MORTALITY,
    TASK_READMISSION,
    DemographicsCodec,
    VisitLabel,
    Cohort,
    build_vocabulary,
    encode_visit_codes,
    extract_labels,
    select_task_text,
)
from visitrep.code_embedder import CodeEmbedderConfig, CodeEmbedderModel, encode_history
from visitrep.errors import ValidationError
from visitrep.patient_rep import (
    PatientRepresentation,
    RepresentationPipeline,
    RepresentationSpace,
    assemble,
    join_representations,
    read_representations,
    read_segment,
    write_representations,
    zero_segments,
)
from visitrep.synth import SynthConfig, generate_cohort
from visitrep.text_embedder import (
    SummarizerConfig,
    SummarizerModel,
    TokenVocabulary,
    BagEncoder,
    build_token_vocabulary,
    sentence_matrix,
    summarize,
)

SPACE = RepresentationSpace(d_code=4, d_enc=3, d_demo=2)


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
    summarizer = SummarizerModel(scfg, rng)
    tokens = ("<unk>", "cough", "fever", "rash")
    encoder = BagEncoder(TokenVocabulary(tokens), 4, rng)
    codec = DemographicsCodec.from_cohort(cohort)
    return RepresentationPipeline(code_model, encoder, summarizer, codec, vocab)


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


class TestAssemble:
    def test_round_trip_by_segment(self):
        code, text, demo = np.arange(4.0), np.arange(3.0) + 10, np.arange(2.0) + 20
        z = assemble(SPACE, code, text, demo)
        assert z.shape == (9,)
        np.testing.assert_array_equal(read_segment(SPACE, z, "code"), code)
        np.testing.assert_array_equal(read_segment(SPACE, z, "text"), text)
        np.testing.assert_array_equal(read_segment(SPACE, z, "demo"), demo)

    def test_mismatch_names_the_segment(self):
        with pytest.raises(ValidationError, match="text segment"):
            assemble(SPACE, np.zeros(4), np.zeros(5), np.zeros(2))
        with pytest.raises(ValidationError, match="demo segment"):
            assemble(SPACE, np.zeros(4), np.zeros(3), np.zeros(1))

    def test_unknown_segment_read(self):
        with pytest.raises(ValidationError, match="unknown segment"):
            read_segment(SPACE, np.zeros(9), "codes")


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
        assert [(r.patient_id, r.visit_index) for r in reps] == [
            ("p1", 0), ("p1", 1), ("p1", 2), ("p2", 0)
        ]
        assert all(r.vector.shape == (pipe.space.total_dim,) for r in reps)

    def test_first_visit_code_segment_is_zero_for_clinical_tasks(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        for task in (TASK_MORTALITY, TASK_LOS, TASK_READMISSION):
            rep = pipe.represent_cohort(make_cohort(cohort.patients[0]), task)[0]
            np.testing.assert_array_equal(read_segment(pipe.space, rep.vector, "code"), 0.0)

    def test_code_prediction_includes_current_visit(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        rep = pipe.represent_cohort(make_cohort(cohort.patients[0]), TASK_CODES)[0]
        assert np.abs(read_segment(pipe.space, rep.vector, "code")).max() > 0

    def test_current_visit_codes_do_not_leak_into_clinical_segment(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        base = pipe.represent_cohort(make_cohort(cohort.patients[0]), TASK_MORTALITY)

        visits = list(cohort.patients[0].visits)
        visits[1] = make_visit(40, 1, codes=[("dx", "a"), ("med", "x")], notes=[(1, "fever rash")])
        mutated = make_record("p1", visits, age=50)
        changed = pipe.represent_cohort(make_cohort(mutated), TASK_MORTALITY)

        seg = lambda rep: read_segment(pipe.space, rep.vector, "code")
        np.testing.assert_array_equal(seg(base[1]), seg(changed[1]))
        assert not np.array_equal(seg(base[2]), seg(changed[2]))

    def test_missing_notes_zero_text_segment(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        reps = pipe.represent_cohort(make_cohort(cohort.patients[0]), TASK_MORTALITY)
        np.testing.assert_array_equal(read_segment(pipe.space, reps[2].vector, "text"), 0.0)
        assert np.abs(read_segment(pipe.space, reps[0].vector, "text")).max() > 0

    def test_text_segment_matches_direct_summarization(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        rep = pipe.represent_cohort(make_cohort(cohort.patients[1]), TASK_MORTALITY)[0]
        text = select_task_text(cohort.patients[1].visits[0], TASK_MORTALITY)
        mat = sentence_matrix(text, pipe.encoder, pipe.summarizer.config.chunk_size)
        np.testing.assert_array_equal(
            read_segment(pipe.space, rep.vector, "text"), summarize(pipe.summarizer, mat)
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
        reps = pipe.represent_cohort(make_cohort(record), TASK_MORTALITY)
        d0 = read_segment(pipe.space, reps[0].vector, "demo")
        d1 = read_segment(pipe.space, reps[1].vector, "demo")
        assert not np.array_equal(d0, d1)

    def test_extraction_leaves_models_untouched(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        before_code = pipe.code_model.state_arrays()
        before_tok = pipe.encoder.table.data.tobytes()
        pipe.represent_cohort(cohort, TASK_READMISSION)
        pipe.represent_cohort(cohort, TASK_CODES)
        after_code = pipe.code_model.state_arrays()
        assert [name for name, _ in after_code] == [name for name, _ in before_code]
        for (_, a), (_, b) in zip(after_code, before_code):
            assert a.tobytes() == b.tobytes()
        assert pipe.encoder.table.data.tobytes() == before_tok

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
            SummarizerConfig(d_text=4, d_enc=3, chunk_size=self.CHUNK, batch_size=4), rng
        )
        encoder = BagEncoder(build_token_vocabulary(cohort, min_freq=1), 4, rng)
        codec = DemographicsCodec.from_cohort(cohort)
        return cohort, RepresentationPipeline(code_model, encoder, summarizer, codec, vocab)

    @pytest.mark.parametrize("task", [TASK_MORTALITY, TASK_CODES])
    def test_matches_per_visit_and_per_patient_oracle(self, task):
        cohort, pipe = self.build()
        reps = pipe.represent_cohort(cohort, task)
        assert [(r.patient_id, r.visit_index) for r in reps] == [
            (p.patient_id, vi) for p in cohort.patients for vi in range(len(p.visits))
        ]
        counts = []
        reps = iter(reps)
        for record in cohort.patients:
            matrix = np.stack([encode_visit_codes(v, pipe.vocab) for v in record.visits])
            history = encode_history(pipe.code_model, matrix)
            for vi, visit in enumerate(record.visits):
                rep = next(reps)
                if task == TASK_CODES:
                    code = history[vi]
                else:
                    code = history[vi - 1] if vi else np.zeros(pipe.space.d_code)
                mat = sentence_matrix(select_task_text(visit, task), pipe.encoder, self.CHUNK)
                counts.append(0 if mat is None else len(mat))
                text = np.zeros(pipe.space.d_enc) if mat is None else summarize(pipe.summarizer, mat)
                seg = lambda name: read_segment(pipe.space, rep.vector, name)
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


class TestExport:
    def test_jsonl_round_trip_rounds_to_float32(self, tmp_path):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        reps = pipe.represent_cohort(cohort, TASK_LOS)
        path = tmp_path / "reps.jsonl"
        write_representations(path, reps)
        back = read_representations(path)
        assert len(back) == len(reps)
        for a, b in zip(reps, back):
            assert (a.patient_id, a.visit_index, a.task) == (b.patient_id, b.visit_index, b.task)
            np.testing.assert_array_equal(b.vector, a.vector.astype(np.float32).astype(np.float64))

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "reps.jsonl"
        path.write_text('{"patient_id": "p", "visit_index": 0}\n')
        with pytest.raises(ValidationError, match="1: bad representation row"):
            read_representations(path)


class TestJoin:
    def rep(self, pid, vi, vec):
        return PatientRepresentation(pid, vi, TASK_MORTALITY, np.asarray(vec, dtype=float))

    def test_aligns_on_patient_and_visit(self):
        reps = [self.rep("a", 0, [1.0, 2.0]), self.rep("b", 0, [3.0, 4.0])]
        labels = [VisitLabel("b", 0, 1.0), VisitLabel("a", 0, 0.0), VisitLabel("c", 0, 1.0)]
        X, y, keys = join_representations(reps, labels)
        np.testing.assert_array_equal(X, [[3.0, 4.0], [1.0, 2.0]])
        np.testing.assert_array_equal(y, [1.0, 0.0])
        assert keys == [("b", 0), ("a", 0)]

    def test_multi_hot_targets_stack(self):
        reps = [self.rep("a", 0, [1.0]), self.rep("a", 1, [2.0])]
        labels = [
            VisitLabel("a", 0, np.array([1.0, 0.0])),
            VisitLabel("a", 1, np.array([0.0, 1.0])),
        ]
        _, y, _ = join_representations(reps, labels)
        assert y.shape == (2, 2)

    def test_no_overlap_is_an_error(self):
        with pytest.raises(ValidationError, match="no overlap"):
            join_representations([self.rep("a", 0, [1.0])], [VisitLabel("z", 9, 1.0)])

    def test_works_against_extract_labels(self):
        cohort = small_cohort()
        pipe = build_pipeline(cohort)
        reps = pipe.represent_cohort(cohort, TASK_READMISSION)
        labels = extract_labels(cohort, TASK_READMISSION)
        X, y, keys = join_representations(reps, labels)
        # p1 has 3 visits (2 labeled), p2 has a single unlabeled visit
        assert keys == [("p1", 0), ("p1", 1)]
        assert X.shape == (2, pipe.space.total_dim)
        assert set(np.unique(y)) <= {0.0, 1.0}
