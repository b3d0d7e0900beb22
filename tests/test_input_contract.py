"""Input contract: a JSON value of the wrong shape in any field of a config
or of a document the program reads is refused with a ValidationError (exit
1 from the CLI), never an internal error. The mutations are a fixed list of
hand-picked values, so the test is deterministic."""

import copy
import json

import numpy as np
import pytest

from visitrep.checkpoint import write_checkpoint
from visitrep.cli import _read_split, main
from visitrep.cohort import DAY, CodeVocabulary, ingest_cohort
from visitrep.config import Paths, RunConfig
from visitrep.errors import ValidationError
from visitrep.patient_rep import read_representations
from visitrep.tasks import ClassifierModel, TaskHeadConfig, load_classifier
from visitrep.text_embedder import UNK_TOKEN, TokenVocabulary

from conftest import make_cohort, make_record, make_visit

VALUES = [None, "x", [], {}, True, -1, 1.5, 0, ["a"], [1.5], [["dx", "x"]]]
VALUE_IDS = [
    "null", "str", "empty-list", "empty-object", "true", "minus-one", "float", "zero",
    "str-list", "float-list", "pair-list",
]


def leaf_paths(doc, prefix=()):
    """Key path of every field of `doc` that is not itself an object."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def with_value(doc, path, value):
    """A copy of `doc` whose field or item at `path` (keys and indexes) is `value`."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def unclean_refusals(read, doc, paths):
    """(path, value, exception) of each mutation that `read` refuses with
    anything but a ValidationError."""
    faults = []
    for path in paths:
        for value in VALUES:
            try:
                read(with_value(doc, path, value))
            except ValidationError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other exception breaks the contract
                faults.append((path, value, repr(exc)))
    return faults


def test_run_config_has_58_fields():
    assert len(list(leaf_paths(RunConfig().to_json()))) == 58


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
def test_every_config_field_exits_0_or_1(tmp_path, monkeypatch, capsys, value):
    monkeypatch.chdir(tmp_path)
    base = RunConfig().to_json()
    crashed = []
    for path in leaf_paths(base):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(with_value(base, path, value)))
        code = main(["export", "--config", str(config)])
        err = capsys.readouterr().err
        if code not in (0, 1):
            crashed.append((".".join(path), code, err))
    assert crashed == []


def test_vocabulary_entry_and_token_list():
    vocab = {"entries": [{"system": "dx", "group_id": "a", "freq": 3}]}
    entry_paths = [("entries",)] + [("entries", 0, key) for key in ("system", "group_id", "freq")]
    assert unclean_refusals(CodeVocabulary.from_json, vocab, entry_paths) == []
    tokens = {"tokens": [UNK_TOKEN, "fever"]}
    assert unclean_refusals(TokenVocabulary.from_json, tokens, [("tokens",), ("tokens", 1)]) == []


def test_split_lists(tmp_path):
    cfg = RunConfig(paths=Paths(out=str(tmp_path)))
    cohort = make_cohort(*(make_record(pid, [make_visit()]) for pid in ("p1", "p2", "p3")))

    def read(doc):
        (tmp_path / "split.json").write_text(json.dumps(doc))
        return _read_split(cfg, cohort)

    split = {"train": ["p1", "p2"], "holdout": ["p3"]}
    paths = [("train",), ("holdout",), ("train", 0), ("holdout", 0)]
    assert unclean_refusals(read, split, paths) == []


def test_representation_row(tmp_path):
    def read(row):
        path = tmp_path / "reps.jsonl"
        path.write_text(json.dumps(row) + "\n")
        return read_representations(path, "mortality")

    row = {"patient_id": "p1", "visit_index": 0, "task": "mortality", "z": [0.5, 1.0]}
    paths = [("patient_id",), ("visit_index",), ("task",), ("z",), ("z", 0)]
    assert unclean_refusals(read, row, paths) == []
    assert read(with_value(row, ("z",), [-1, 0.5])).vectors.tolist() == [[-1.0, 0.5]]
    for z in (["1.5", True], [0.5, True], [0.5, "2"], [0.5, 10**400]):
        with pytest.raises(ValidationError, match=r"reps\.jsonl:1: bad representation row"):
            read(with_value(row, ("z",), z))
    with pytest.raises(ValidationError, match=r"z item 2: z item must be a finite number, got inf"):
        read(with_value(row, ("z",), [0.5, 1.0, float("inf")]))


def test_head_header(tmp_path):
    model = ClassifierModel(4, "mortality", np.random.default_rng(0))
    header = {"d_in": 4, "task": "mortality", "task_head": TaskHeadConfig().to_json()}

    def read(meta):
        path = tmp_path / "head.ckpt"
        write_checkpoint(path, "classifier", meta, "hash", model.parameters())
        return load_classifier(path, "hash", task="mortality", d_in=4)

    assert read(header)[1] == TaskHeadConfig()
    assert unclean_refusals(read, header, list(leaf_paths(header)) + [("task_head",)]) == []


def test_cohort_line(tmp_path):
    def read(record):
        path = tmp_path / "cohort.jsonl"
        path.write_text(json.dumps(record) + "\n")
        return ingest_cohort(path)

    visit = {
        "admit_time": 0, "discharge_time": 2 * DAY, "died_in_visit": False,
        "codes": [{"system": "dx", "code": "428"}],
        "notes": [{"time": 3600, "kind": None, "text": "fever"}],
    }
    record = {
        "patient_id": "p1", "demographics": {"age": 63, "gender": "f", "race": "r0"},
        "visits": [visit],
    }
    paths = [
        *leaf_paths(record), ("demographics",), ("visits", 0),
        *(("visits", 0) + p for p in leaf_paths(visit)),
        ("visits", 0, "codes", 0), ("visits", 0, "codes", 0, "system"),
        ("visits", 0, "codes", 0, "code"), ("visits", 0, "notes", 0),
        *(("visits", 0, "notes", 0, key) for key in ("time", "kind", "text")),
    ]
    assert len(read(record)) == 1
    assert unclean_refusals(read, record, paths) == []
