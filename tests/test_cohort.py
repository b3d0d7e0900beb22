"""Ingestion, preprocessing, encodings, labels, text windows, and folds."""

import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_cohort, make_record, make_visit
from visitrep.cohort import (
    DAY,
    HOUR,
    TASK_CODES,
    TASK_LOS,
    TASK_MORTALITY,
    TASK_READMISSION,
    DemographicsCodec,
    Note,
    PatientRecord,
    Visit,
    build_vocabulary,
    encode_visit_codes,
    extract_labels,
    ingest_cohort,
    load_group_map,
    los_bucket,
    patient_kfold_split,
    preprocess,
    select_task_text,
    write_cohort_jsonl,
)
from visitrep.errors import ValidationError
from visitrep.synth import SynthConfig, generate_cohort


def _patient_obj(pid="p1", age=44, n_visits=1, **kw):
    visits = []
    for i in range(n_visits):
        visits.append(
            {
                "admit_time": i * 40 * DAY,
                "discharge_time": i * 40 * DAY + 2 * DAY,
                "codes": [{"system": "dx", "code": "428"}],
                "notes": [{"time": i * 40 * DAY + HOUR, "kind": None, "text": "stable"}],
                "died_in_visit": False,
            }
        )
    obj = {
        "patient_id": pid,
        "demographics": {"age": age, "gender": "f", "race": "r0"},
        "visits": visits,
    }
    obj.update(kw)
    return obj


def _write_jsonl(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n")


def _with_visit(**fields):
    """Edit for _patient_obj output: overwrite fields of its first visit."""

    def edit(obj):
        obj["visits"][0].update(fields)
        return obj

    return edit


# Records the shape walk refuses, and how it names the place of the fault.
WRONG_STRUCTURE = pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: 5, "line 2: record must be a JSON object, got int"),
        (lambda o: {**o, "demographics": 3}, "line 2: demographics must be a JSON object"),
        (lambda o: {**o, "visits": [7]}, "line 2, visit 0: visit must be a JSON object"),
        (_with_visit(codes=4), "line 2, visit 0: codes must be a list, got int"),
        (_with_visit(codes=[4]), "line 2, visit 0, code 0: code must be a JSON object"),
        (_with_visit(codes=["system"]), "line 2, visit 0, code 0: code must be .*, got str"),
        (_with_visit(notes=1), "line 2, visit 0: notes must be a list, got int"),
        (_with_visit(notes=[None]), "line 2, visit 0, note 0: note must be .*, got NoneType"),
    ],
    ids=[
        "record-int", "demographics-int", "visit-int", "codes-int", "code-int",
        "code-str", "notes-int", "note-null",
    ],
)


class TestIngest:
    def test_round_trip_two_patients(self, tmp_path):
        f = tmp_path / "c.jsonl"
        _write_jsonl(f, [_patient_obj("p1"), _patient_obj("p2", n_visits=3)])
        cohort = ingest_cohort(str(f))
        assert cohort.patient_ids() == ["p1", "p2"]
        assert len(cohort.patients[1].visits) == 3

    def test_missing_field_names_field_and_line(self, tmp_path):
        f = tmp_path / "c.jsonl"
        bad = _patient_obj("p2")
        del bad["visits"]
        _write_jsonl(f, [_patient_obj("p1"), bad])
        with pytest.raises(ValidationError, match="line 2.*'visits'"):
            ingest_cohort(str(f))

    def test_duplicate_patient_id(self, tmp_path):
        f = tmp_path / "c.jsonl"
        _write_jsonl(f, [_patient_obj("p1"), _patient_obj("p1")])
        with pytest.raises(ValidationError, match="duplicate patient_id"):
            ingest_cohort(str(f))

    def test_backwards_stay_rejected(self, tmp_path):
        f = tmp_path / "c.jsonl"
        bad = _patient_obj("p2")
        bad["visits"][0]["discharge_time"] = bad["visits"][0]["admit_time"] - 1
        _write_jsonl(f, [_patient_obj("p1"), bad])
        with pytest.raises(ValidationError, match="line 2.*discharge_time"):
            ingest_cohort(str(f))

    def test_note_time_window_enforced(self, tmp_path):
        f = tmp_path / "c.jsonl"
        bad = _patient_obj("p1")
        bad["visits"][0]["notes"][0]["time"] = bad["visits"][0]["discharge_time"] + 2 * DAY
        _write_jsonl(f, [bad])
        with pytest.raises(ValidationError, match="note time"):
            ingest_cohort(str(f))

    def test_visits_sorted_and_strictly_ordered(self, tmp_path):
        f = tmp_path / "c.jsonl"
        obj = _patient_obj("p1", n_visits=2)
        obj["visits"] = obj["visits"][::-1]
        _write_jsonl(f, [obj])
        cohort = ingest_cohort(str(f))
        [record] = cohort.patients
        assert record.patient_id == "p1"
        admits = [v.admit_time for v in record.visits]
        assert admits == sorted(admits)

        obj["visits"][0]["admit_time"] = obj["visits"][1]["admit_time"]
        _write_jsonl(f, [obj])
        with pytest.raises(ValidationError, match="strictly ordered"):
            ingest_cohort(str(f))

    @WRONG_STRUCTURE
    def test_wrong_json_structure_names_the_line(self, tmp_path, edit, message):
        f = tmp_path / "c.jsonl"
        _write_jsonl(f, [_patient_obj("p1"), edit(_patient_obj("p2"))])
        with pytest.raises(ValidationError, match=message):
            ingest_cohort(str(f))

    @WRONG_STRUCTURE
    def test_an_unwalked_record_that_fails_to_parse_is_walked(self, tmp_path, edit, message):
        """With the walk skipped on a matching digest, a record whose parse
        fails meets the walk then, and its refusal names the line."""
        f = tmp_path / "c.jsonl"
        _write_jsonl(f, [_patient_obj("p1"), edit(_patient_obj("p2"))])
        with pytest.raises(ValidationError, match=message):
            ingest_cohort(str(f), recorded=hashlib.sha256(f.read_bytes()).hexdigest())

    @pytest.mark.parametrize("field", ["gender", "race"])
    @pytest.mark.parametrize(
        "value", [None, {"a": 1}, 3, ["f"]], ids=["null", "object", "number", "list"]
    )
    def test_demographic_category_must_be_a_string(self, tmp_path, field, value):
        f = tmp_path / "c.jsonl"
        bad = _patient_obj("p2")
        bad["demographics"][field] = value
        _write_jsonl(f, [_patient_obj("p1"), bad])
        message = f"line 2: {field} must be a string, got {value!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            ingest_cohort(str(f))

    def test_writer_reader_round_trip(self, tmp_path):
        f = tmp_path / "c.jsonl"
        _write_jsonl(f, [_patient_obj("p1", n_visits=2), _patient_obj("p2")])
        cohort = ingest_cohort(str(f))
        g = tmp_path / "copy.jsonl"
        write_cohort_jsonl(cohort, str(g))
        again = ingest_cohort(str(g))
        assert again == cohort


class TestPreprocess:
    def _cohort_with_freqs(self):
        """'common' appears in 6 patients, 'rare' in 2."""
        records = []
        for i in range(6):
            codes = [("dx", "common")]
            if i < 2:
                codes.append(("dx", "rare"))
            records.append(make_record(f"p{i}", [make_visit(codes=codes)]))
        return make_cohort(*records)

    def test_rare_codes_dropped(self):
        out = preprocess(self._cohort_with_freqs(), min_code_freq=5)
        kept = {c for p in out for v in p.visits for _, c in v.codes}
        assert kept == {"common"}

    def test_age_and_visit_filters(self):
        cohort = make_cohort(
            make_record("adult", [make_visit(0), make_visit(40)], age=30),
            make_record("minor", [make_visit(0), make_visit(40)], age=17),
            make_record("single", [make_visit(0)], age=60),
        )
        out = preprocess(cohort, min_code_freq=1, min_visits=2)
        assert out.patient_ids() == ["adult"]

    def test_grouping_counts_post_grouping_frequency(self):
        """Two raw codes with frequency 3 each share a group: kept at freq 6."""
        records = []
        for i in range(3):
            records.append(make_record(f"a{i}", [make_visit(codes=[("dx", "raw1")])]))
            records.append(make_record(f"b{i}", [make_visit(codes=[("dx", "raw2")])]))
        out = preprocess(
            make_cohort(*records),
            min_code_freq=5,
            group_map={"raw1": "G", "raw2": "G"},
        )
        kept = {c for p in out for v in p.visits for c in v.codes}
        assert kept == {("dx", "G")}
        # Without the map both raw codes fall below the threshold.
        with pytest.raises(ValidationError):
            # All codes dropped, but patients survive; vocabulary build fails.
            build_vocabulary(preprocess(make_cohort(*records), min_code_freq=5))

    def test_unmapped_codes_keep_their_raw_id(self):
        cohort = make_cohort(make_record("p", [make_visit(codes=[("dx", "x")])]))
        out = preprocess(cohort, min_code_freq=1, group_map={"other": "G"})
        (code,) = [c for p in out for v in p.visits for c in v.codes]
        assert code == ("dx", "x")

    def test_idempotent(self):
        cohort = self._cohort_with_freqs()
        once = preprocess(cohort, min_code_freq=2)
        twice = preprocess(once, min_code_freq=2)
        assert once == twice

    def test_input_not_mutated(self):
        cohort = self._cohort_with_freqs()
        before = {id(p) for p in cohort.patients}
        preprocess(cohort, min_code_freq=5)
        assert {id(p) for p in cohort.patients} == before
        assert any(c == ("dx", "rare") for p in cohort for v in p.visits for c in v.codes)

    def test_everything_filtered_is_an_error(self):
        cohort = make_cohort(make_record("kid", [make_visit()], age=10))
        with pytest.raises(ValidationError, match="no patients"):
            preprocess(cohort)

    def test_group_map_csv(self, tmp_path):
        f = tmp_path / "map.csv"
        f.write_text("raw_id,group_id\n428,HF\n4280,HF\n")
        assert load_group_map(str(f)) == {"428": "HF", "4280": "HF"}
        f.write_text("bad,header\n1,2\n")
        with pytest.raises(ValidationError, match="header"):
            load_group_map(str(f))

    @pytest.mark.parametrize(
        "row, column", [("4280,", "group_id"), (",HF", "raw_id"), ('"",""', "raw_id")],
        ids=["empty-group", "empty-raw", "both-empty"],
    )
    def test_group_map_refuses_an_empty_id_naming_file_and_row(self, tmp_path, row, column):
        f = tmp_path / "map.csv"
        f.write_text(f"raw_id,group_id\n428,HF\n{row}\n")
        with pytest.raises(ValidationError, match=re.escape(f"{f}: row 3 has an empty {column}")):
            load_group_map(str(f))

    @pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n"], ids=["lf", "cr", "crlf"])
    def test_group_map_lines_end_at_any_newline(self, tmp_path, end):
        f = tmp_path / "map.csv"
        f.write_bytes(end.join([b"raw_id,group_id", b'428,"H' + end + b'F"', b"4280,HF", b""]))
        assert load_group_map(str(f)) == {"428": "H" + end.decode() + "F", "4280": "HF"}


def shares_code_sets(cohort) -> bool:
    """Equal visit code sets are one frozenset, and some set serves two visits."""
    visits = [v for p in cohort for v in p.visits]
    return len({id(v.codes) for v in visits}) == len({v.codes for v in visits}) < len(visits)


class TestSharedCodeSets:
    """Each function that builds a cohort holds one frozenset per distinct code set."""

    @pytest.fixture(scope="class")
    def generated(self):
        config = SynthConfig(n_patients=60, n_conditions=4, codes_per_condition=4, seed=7)
        return generate_cohort(config)[0]

    def test_generate(self, generated):
        assert shares_code_sets(generated)

    def test_ingest(self, generated, tmp_path):
        path = tmp_path / "c.jsonl"
        write_cohort_jsonl(generated, str(path))
        assert shares_code_sets(ingest_cohort(str(path)))

    @pytest.mark.parametrize("group_map", [None, {"D000": "G", "D001": "G"}])
    def test_preprocess(self, generated, group_map):
        assert shares_code_sets(preprocess(generated, min_code_freq=20, group_map=group_map))

    def test_records_have_no_dict_and_replace_still_works(self):
        note = Note(1, "a")
        visit = Visit(0, 1, frozenset(), (note,))
        record = PatientRecord("p", 40, "f", "r0", (visit,))
        assert not any(hasattr(obj, "__dict__") for obj in (note, visit, record))
        assert replace(note, text="b") == Note(1, "b")
        assert replace(visit, codes=frozenset({("dx", "x")})).codes == {("dx", "x")}
        assert replace(record, age=41) == PatientRecord("p", 41, "f", "r0", (visit,))


class TestVocabularyAndEncoding:
    def _cohort(self):
        return make_cohort(
            make_record("p1", [make_visit(codes=[("dx", "a"), ("med", "m1")])]),
            make_record("p2", [make_visit(codes=[("dx", "a"), ("proc", "p1")])]),
        )

    def test_dense_deterministic_indices(self):
        vocab = build_vocabulary(self._cohort())
        hot = [
            int(encode_visit_codes(make_visit(codes=[(e.system, e.group_id)]), vocab).argmax())
            for e in vocab.entries
        ]
        assert hot == list(range(len(vocab)))
        assert [(e.system, e.group_id) for e in vocab.entries] == [
            ("dx", "a"),
            ("med", "m1"),
            ("proc", "p1"),
        ]
        assert vocab.entries[0].freq == 2

    def test_content_hash_tracks_content(self):
        v1 = build_vocabulary(self._cohort())
        v2 = build_vocabulary(self._cohort())
        assert v1.content_hash() == v2.content_hash()
        other = build_vocabulary(
            make_cohort(make_record("p", [make_visit(codes=[("dx", "zzz")])]))
        )
        assert other.content_hash() != v1.content_hash()

    def test_multi_hot_encoding(self):
        vocab = build_vocabulary(self._cohort())
        x = encode_visit_codes(make_visit(codes=[("dx", "a"), ("med", "m1")]), vocab)
        np.testing.assert_array_equal(x, [1.0, 1.0, 0.0])
        empty = encode_visit_codes(make_visit(codes=[("dx", "unknown")]), vocab)
        np.testing.assert_array_equal(empty, [0.0, 0.0, 0.0])

    def test_json_round_trip(self):
        from visitrep.cohort import CodeVocabulary

        vocab = build_vocabulary(self._cohort())
        again = CodeVocabulary.from_json(vocab.to_json())
        assert again.content_hash() == vocab.content_hash()
        entry = again.entries[2]
        assert (entry.system, entry.group_id) == ("proc", "p1")
        x = encode_visit_codes(make_visit(codes=[("proc", "p1")]), again)
        np.testing.assert_array_equal(x, [0.0, 0.0, 1.0])

    def test_system_indices(self):
        vocab = build_vocabulary(self._cohort())
        np.testing.assert_array_equal(vocab.system_indices("dx"), [0])
        np.testing.assert_array_equal(vocab.system_indices("med"), [1])


class TestDemographics:
    def test_one_hot_layout_and_other_slot(self):
        codec = DemographicsCodec(genders=["f", "m"], races=["r0", "r1", "r2"])
        assert codec.dim == 3 + 4 + 4
        rec = make_record("p", [make_visit()], age=25, gender="m", race="r9")
        vec = codec.encode(rec, 0)
        assert vec.shape == (codec.dim,)
        np.testing.assert_array_equal(vec[:3], [0, 1, 0])  # gender m
        np.testing.assert_array_equal(vec[3:7], [0, 0, 0, 1])  # race -> other
        np.testing.assert_array_equal(vec[7:], [1, 0, 0, 0])  # age [18, 30)

    def test_age_buckets(self):
        codec = DemographicsCodec(genders=["f"], races=["r0"])
        for age, slot in ((18, 0), (29, 0), (30, 1), (49, 1), (50, 2), (69, 2), (70, 3), (95, 3)):
            rec = make_record("p", [make_visit()], age=age)
            assert codec.encode(rec, 0)[-4:].argmax() == slot

    def test_ages_under_18_share_the_first_bucket(self):
        """preprocess.min_age below 18 admits them; no age falls outside a bucket."""
        codec = DemographicsCodec(genders=["f"], races=["r0"])
        for age in (0, 17):
            vec = codec.encode(make_record("p", [make_visit()], age=age), 0)
            np.testing.assert_array_equal(vec[-4:], [1, 0, 0, 0])

    def test_age_drifts_across_visits(self):
        codec = DemographicsCodec(genders=["f"], races=["r0"])
        rec = make_record("p", [make_visit(0), make_visit(3 * 366)], age=29)
        assert codec.encode(rec, 0)[-4:].argmax() == 0  # 29
        assert codec.encode(rec, 1)[-4:].argmax() == 1  # 32 after three years

    def test_all_unknown_categories_still_valid(self):
        codec = DemographicsCodec(genders=["f"], races=["r0"])
        rec = make_record("p", [make_visit()], gender="x", race="y", age=40)
        vec = codec.encode(rec, 0)
        assert vec.sum() == 3.0  # gender other + race other + age bucket


class TestLosBucket:
    def test_bucket_table(self):
        assert los_bucket(0.0) == 1
        assert los_bucket(0.4) == 1
        assert los_bucket(1.0) == 1
        assert los_bucket(1.5) == 2
        assert los_bucket(6.2) == 7
        assert los_bucket(7.0) == 7
        assert los_bucket(7.3) == 8
        assert los_bucket(14.0) == 8
        assert los_bucket(14.001) == 9
        assert los_bucket(300.0) == 9

    def test_negative_is_an_error(self):
        with pytest.raises(ValidationError):
            los_bucket(-0.1)


class TestLabels:
    def _two_visit(self, gap_days):
        first = make_visit(0, los_days=2.0, codes=[("dx", "a")])
        second = make_visit(2.0 + gap_days, los_days=1.0, codes=[("dx", "b")])
        return make_record("p", [first, second])

    def test_readmission_gap_thresholds(self):
        for gap, expected in ((29.0, 1.0), (30.0, 1.0), (31.0, 0.0)):
            labels = extract_labels(make_cohort(self._two_visit(gap)), TASK_READMISSION)
            assert len(labels) == 1
            assert labels[0].visit_index == 0
            assert labels[0].value == expected

    def test_single_visit_patient_has_no_readmission_sample(self):
        cohort = make_cohort(make_record("p", [make_visit()]))
        assert extract_labels(cohort, TASK_READMISSION) == []

    def test_mortality_labels(self):
        cohort = make_cohort(
            make_record("alive", [make_visit()]),
            make_record("dead", [make_visit(died=True)]),
        )
        labels = extract_labels(cohort, TASK_MORTALITY)
        assert {(l.patient_id, l.value) for l in labels} == {("alive", 0.0), ("dead", 1.0)}

    def test_los_labels(self):
        cohort = make_cohort(make_record("p", [make_visit(los_days=9.0)]))
        labels = extract_labels(cohort, TASK_LOS)
        assert labels[0].value == 8

    def test_code_prediction_has_no_labels(self):
        with pytest.raises(ValidationError, match="next-code recall"):
            extract_labels(make_cohort(self._two_visit(10.0)), TASK_CODES)

    def test_unknown_task(self):
        with pytest.raises(ValidationError, match="unknown task"):
            extract_labels(make_cohort(make_record("p", [make_visit()])), "nope")


class TestTaskText:
    def _visit(self):
        return make_visit(
            0,
            los_days=4.0,
            notes=[
                (1.0, "admission note"),
                (30.0, "progress note"),
                (90.0, "late note"),
                (95.0, "final summary", "discharge_summary"),
            ],
        )

    def test_readmission_prefers_discharge_summaries(self):
        assert select_task_text(self._visit(), TASK_READMISSION) == "final summary"

    def test_readmission_falls_back_to_last_48h(self):
        v = make_visit(0, los_days=4.0, notes=[(1.0, "early"), (90.0, "late")])
        assert select_task_text(v, TASK_READMISSION) == "late"

    def test_mortality_and_los_use_first_24h(self):
        v = self._visit()
        assert select_task_text(v, TASK_MORTALITY) == "admission note"
        assert select_task_text(v, TASK_LOS) == "admission note"

    def test_code_prediction_uses_everything(self):
        text = select_task_text(self._visit(), TASK_CODES)
        assert text == "admission note progress note late note final summary"

    def test_no_notes_gives_empty_string(self):
        assert select_task_text(make_visit(), TASK_MORTALITY) == ""


class TestKFold:
    def _cohort(self, n):
        return make_cohort(*[make_record(f"p{i:03d}", [make_visit()]) for i in range(n)])

    def test_partition_properties(self):
        cohort = self._cohort(23)
        folds = patient_kfold_split(cohort, k=7, seed=11)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        flat = [pid for f in folds for pid in f]
        assert sorted(flat) == sorted(cohort.patient_ids())
        assert len(set(flat)) == len(flat)

    def test_deterministic_given_seed(self):
        cohort = self._cohort(20)
        a = patient_kfold_split(cohort, k=5, seed=3)
        b = patient_kfold_split(cohort, k=5, seed=3)
        c = patient_kfold_split(cohort, k=5, seed=4)
        assert a == b
        assert a != c

    def test_no_leakage_between_train_and_test(self):
        cohort = self._cohort(29)
        folds = patient_kfold_split(cohort, k=7, seed=0)
        for i in range(7):
            test = set(folds[i])
            train = {pid for j, f in enumerate(folds) if j != i for pid in f}
            assert not (test & train)

    def test_bad_k(self):
        cohort = self._cohort(5)
        with pytest.raises(ValidationError):
            patient_kfold_split(cohort, k=1, seed=0)
        with pytest.raises(ValidationError):
            patient_kfold_split(cohort, k=6, seed=0)
