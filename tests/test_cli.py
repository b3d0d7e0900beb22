"""End-to-end CLI pipeline on a small synthetic cohort.

One run directory is built stage by stage in a module fixture; the tests
then check the persisted artifacts, the prerequisite errors, and that
re-running a stage reproduces its files byte for byte.
"""

import hashlib
import json
import re
import shutil
import struct
from pathlib import Path

import pytest

from visitrep import evaluation as ev
from visitrep.cli import ARTIFACTS, main
from visitrep.code_embedder import load_code_model
from visitrep.cohort import (
    CodeVocabulary,
    encode_visit_codes,
    ingest_cohort,
    load_group_map,
    preprocess,
)

TINY_CONFIG = {
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
        "d_code": 8,
        "n_layers": 1,
        "n_heads": 2,
        "d_head": 4,
        "epochs": 2,
        "batch_size": 8,
    },
    "summarizer": {
        "d_text": 6,
        "d_enc": 5,
        "chunk_size": 6,
        "epochs": 2,
        "batch_size": 8,
        "min_token_freq": 1,
    },
    "task_head": {"epochs": 6, "batch_size": 16},
    "eval": {"folds": 2, "recall_ks": [5, 10]},
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """Run the full stage sequence once; tests inspect the artifacts."""
    out = tmp_path_factory.mktemp("run")
    config_path = out / "tiny_config.json"
    doc = dict(TINY_CONFIG)
    doc["paths"] = {"out": str(out)}
    config_path.write_text(json.dumps(doc))
    base = ["--config", str(config_path)]
    for stage in ("generate", "preprocess", "train-code", "train-text",
                  "represent", "train-task", "evaluate"):
        assert main([stage, *base]) == 0, stage
    return out, base


class TestStageSequence:
    def test_artifacts_exist(self, run_dir):
        out, _ = run_dir
        for name in (
            "config.json", "cohort.jsonl", "ground_truth.json",
            "preprocessed.jsonl", "vocab.json", "split.json",
            "code.ckpt", "code_history.json",
            "text.ckpt", "token_vocab.json",
            "reps_mortality.jsonl", "head_mortality.ckpt",
            "report_mortality.json", "report_mortality.csv",
        ):
            assert (out / name).exists(), name

    def test_split_is_disjoint(self, run_dir):
        out, _ = run_dir
        split = json.loads((out / "split.json").read_text())
        assert set(split) == {"holdout", "train"}
        assert not set(split["train"]) & set(split["holdout"])
        assert len(split["train"]) + len(split["holdout"]) == 18

    def test_report_shape(self, run_dir):
        out, _ = run_dir
        report = json.loads((out / "report_mortality.json").read_text())
        assert set(report) == {"auroc", "auprc"}
        for metric in report.values():
            assert set(metric) == {"folds", "mean", "std"}
            assert len(metric["folds"]) == 1
            assert 0.0 <= metric["mean"] <= 1.0

    def test_evaluate_is_reproducible(self, run_dir):
        """Same artifacts, same seed: the report file comes back identical."""
        out, base = run_dir
        before = (out / "report_mortality.json").read_bytes()
        assert main(["evaluate", *base]) == 0
        assert (out / "report_mortality.json").read_bytes() == before

    def test_represent_is_reproducible(self, run_dir):
        out, base = run_dir
        before = (out / "reps_mortality.jsonl").read_bytes()
        assert main(["represent", *base]) == 0
        assert (out / "reps_mortality.jsonl").read_bytes() == before

    def test_manifest_records_the_checked_files_and_is_reproducible(self, run_dir):
        out, base = run_dir
        before = (out / "manifest.json").read_bytes()
        assert json.loads(before) == {
            name: {"sha256": hashlib.sha256((out / name).read_bytes()).hexdigest()}
            for name in ("preprocessed.jsonl", "reps_mortality.jsonl")
        }
        for stage in ("preprocess", "represent"):
            assert main([stage, *base]) == 0
            assert (out / "manifest.json").read_bytes() == before

    def test_train_code_is_reproducible(self, run_dir):
        out, base = run_dir
        before = (out / "code.ckpt").read_bytes()
        assert main(["train-code", *base]) == 0
        assert (out / "code.ckpt").read_bytes() == before

    def test_export_matrix(self, run_dir):
        out, base = run_dir
        assert main(["export", *base]) == 0
        lines = (out / "code_embeddings.csv").read_text().strip().splitlines()
        vocab = json.loads((out / "vocab.json").read_text())
        assert len(lines) == 1 + len(vocab["entries"])
        assert lines[0].split(",")[:2] == ["code_id", "e0"]
        assert len(lines[1].split(",")) == 1 + 8

    def test_codes_task_skips_the_head(self, run_dir):
        out, base = run_dir
        assert main(["evaluate", *base, "--task", "codes"]) == 0
        report = json.loads((out / "report_codes.json").read_text())
        assert "dx_recall@5" in report
        assert "dx_freq_recall@5" in report

    def test_config_copied_into_run_dir(self, run_dir):
        out, _ = run_dir
        copied = json.loads((out / "config.json").read_text())
        assert copied["seed"] == 7
        assert copied["synth"]["n_patients"] == 18


class TestPrerequisites:
    def test_evaluate_on_empty_dir(self, tmp_path, capsys):
        assert main(["evaluate", "--out", str(tmp_path / "fresh")]) == 1
        assert "run preprocess first" in capsys.readouterr().err

    def test_missing_representations(self, run_dir, capsys):
        _, base = run_dir
        assert main(["train-task", *base, "--task", "readmission"]) == 1
        assert "run represent first" in capsys.readouterr().err

    def test_missing_head(self, run_dir, capsys):
        _, base = run_dir
        assert main(["represent", *base, "--task", "readmission"]) == 0
        assert main(["evaluate", *base, "--task", "readmission"]) == 1
        assert "run train-task first" in capsys.readouterr().err

    def test_train_task_refuses_codes(self, run_dir, capsys):
        _, base = run_dir
        assert main(["train-task", *base, "--task", "codes"]) == 1
        assert "output head" in capsys.readouterr().err

    def test_malformed_cohort_structure(self, tmp_path, capsys):
        (tmp_path / "cohort.jsonl").write_text("5\n")
        assert main(["preprocess", "--out", str(tmp_path)]) == 1
        assert "line 1: record must be a JSON object, got int" in capsys.readouterr().err

    def test_non_string_gender(self, run_dir, tmp_path, capsys):
        out, _ = run_dir
        record = json.loads((out / "cohort.jsonl").read_text().splitlines()[0])
        record["demographics"]["gender"] = None
        (tmp_path / "cohort.jsonl").write_text(json.dumps(record) + "\n")
        assert main(["preprocess", "--out", str(tmp_path)]) == 1
        assert "line 1: gender must be a string, got None" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "notes_dir": "x"}))
        assert main(["generate", "--config", str(bad)]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_output_activation_key_is_refused(self, tmp_path, capsys):
        """The code model always ends in a sigmoid; the old key is not read."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"code_embedder": {"output_activation": "sigmoid"}}))
        assert main(["generate", "--config", str(bad)]) == 1
        assert "unknown keys ['output_activation']" in capsys.readouterr().err

    def test_ablate_needs_crossval(self, run_dir, capsys):
        _, base = run_dir
        assert main(["evaluate", *base, "--ablate", "text"]) == 1
        assert "--crossval" in capsys.readouterr().err

    def test_unknown_ablate_segment(self, run_dir, capsys):
        _, base = run_dir
        assert main(["evaluate", *base, "--crossval", "--ablate", "notes"]) == 1
        assert "unknown segments" in capsys.readouterr().err


class TestBadUserPath:
    """A path the user names that cannot be read or written as asked exits 1
    naming it; a file that is not UTF-8 also names the line where it can."""

    @pytest.mark.parametrize("case", ["out-is-a-file", "config-is-a-dir", "cohort-is-a-dir",
                                      "group-map-is-a-dir"])
    def test_unusable_path_exits_1_naming_it(self, run_dir, tmp_path, capsys, case):
        out, _ = run_dir
        bad = tmp_path / "bad"
        if case == "out-is-a-file":
            bad.write_text("x")
        else:
            bad.mkdir()
        paths = {"out": str(tmp_path / "run")}
        if case == "cohort-is-a-dir":
            paths["cohort"] = str(bad)
        elif case == "group-map-is-a-dir":
            paths.update(cohort=str(out / "cohort.jsonl"), group_map=str(bad))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": paths}))
        argv = {
            "out-is-a-file": ["generate", "--out", str(bad)],
            "config-is-a-dir": ["generate", "--config", str(bad)],
        }.get(case, ["preprocess", "--config", str(config)])
        assert main(argv) == 1
        assert str(bad) in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"seed": "\xff"}')
        assert main(["generate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON ('utf-8' codec")

    def test_own_cohort_not_utf8_names_the_line(self, run_dir, tmp_path, capsys):
        out, _ = run_dir
        cohort = tmp_path / "own.jsonl"
        cohort.write_bytes((out / "cohort.jsonl").read_bytes().replace(b"\n", b"\n\xff\n", 1))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {"cohort": str(cohort), "out": str(tmp_path)}}))
        assert main(["preprocess", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cohort}: line 2: not UTF-8 (invalid start byte at byte 0)\n"
        )

    def test_group_map_not_utf8_names_the_line(self, run_dir, tmp_path, capsys):
        out, _ = run_dir
        group_map = tmp_path / "map.csv"
        group_map.write_bytes(b"raw_id,group_id\nD000,G\nD\xff01,G\n")
        paths = {"cohort": str(out / "cohort.jsonl"), "group_map": str(group_map),
                 "out": str(tmp_path / "run")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": paths}))
        assert main(["preprocess", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {group_map}: line 3: not UTF-8 (invalid start byte at byte 1)\n"
        )

    def test_preprocessed_not_utf8_names_the_line_and_stage(self, run_dir, tmp_path, capsys):
        base = _copy_run(run_dir, tmp_path)
        path = tmp_path / "preprocessed.jsonl"
        lines = path.read_text().count("\n")
        with open(path, "ab") as fh:
            fh.write(b'{"patient_id": "\xc3"}\n')
        assert main(["train-code", *base]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line {lines + 1}: not UTF-8 (invalid continuation byte at byte 16)"
            "; re-run preprocess\n"
        )


def _tamper_header(path, edit):
    """Rewrite a checkpoint's JSON header in place through edit(header)."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 10)
    header = json.loads(raw[14 : 14 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:10] + struct.pack("<I", len(blob)) + blob + raw[14 + hlen :])


class TestTamperedCheckpoint:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h["config"]["code_embedder"].update(bogus=1), "unknown keys"),
            (
                lambda h: h["config"]["code_embedder"].update(output_activation="sigmoid"),
                r"unknown keys \['output_activation'\]; re-run train-code\n$",
            ),
            (lambda h: h["config"]["code_embedder"].update(d_code="8"), "d_code"),
            (lambda h: h["config"].pop("code_embedder"), "lacks the 'code_embedder'"),
            (lambda h: h.pop("params"), "missing field 'params'"),
            (lambda h: h["params"][0].pop("shape"), "param 0: missing field 'shape'"),
            (lambda h: h.update(vocab_hash=None), "vocab_hash must be a string, got None"),
            (lambda h: h.update(vocab_hash=5), "vocab_hash must be a string, got 5"),
            (
                lambda h: h["params"][0].update(name=["embed.w"]),
                r"param 0: name must be a non-empty string, got \['embed.w'\]",
            ),
            (
                lambda h: h["params"][0].update(name={"embed": "w"}),
                r"param 0: name must be a non-empty string, got \{'embed': 'w'\}",
            ),
            (
                lambda h: h["params"][0].update(shape=[str(d) for d in h["params"][0]["shape"]]),
                r"param 0, dim 0: dim must be a non-negative integer, got '\d+'",
            ),
            (
                lambda h: h["params"][0].update(shape=[float(d) for d in h["params"][0]["shape"]]),
                r"param 0, dim 0: dim must be a non-negative integer, got \d+\.0",
            ),
        ],
        ids=[
            "unknown-key", "output-activation", "wrong-type", "no-section", "no-params",
            "bad-entry", "null-vocab-hash", "int-vocab-hash", "name-list", "name-dict",
            "shape-str", "shape-float",
        ],
    )
    def test_exits_1_naming_the_file(self, run_dir, tmp_path, capsys, edit, message):
        out, _ = run_dir
        for name in ("vocab.json", "code.ckpt"):
            shutil.copy(out / name, tmp_path / name)
        ckpt = tmp_path / "code.ckpt"
        _tamper_header(ckpt, edit)
        assert main(["export", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {ckpt}" in err
        assert re.search(message, err)


    def test_renamed_parameter_names_file_and_stage(self, run_dir, tmp_path, capsys):
        out, _ = run_dir
        for name in ("vocab.json", "code.ckpt"):
            shutil.copy(out / name, tmp_path / name)
        ckpt = tmp_path / "code.ckpt"

        def rename(header):
            [entry] = [e for e in header["params"] if e["name"] == "embed.w"]
            entry["name"] = "embed.renamed"

        _tamper_header(ckpt, rename)
        assert main(["export", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {ckpt}" in err
        assert "'embed.w'" in err and "re-run train-code" in err

    def test_nan_parameter_names_file_parameter_and_stage(self, run_dir, tmp_path, capsys):
        out, _ = run_dir
        for name in ("vocab.json", "code.ckpt"):
            shutil.copy(out / name, tmp_path / name)
        ckpt = tmp_path / "code.ckpt"
        raw = bytearray(ckpt.read_bytes())
        (hlen,) = struct.unpack_from("<I", raw, 10)
        first = json.loads(raw[14 : 14 + hlen])["params"][0]["name"]
        struct.pack_into("<f", raw, 14 + hlen, float("nan"))
        ckpt.write_bytes(bytes(raw))
        assert main(["export", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {ckpt}" in err
        assert f"NaN in parameter {first!r}" in err and "re-run train-code" in err
        assert not (tmp_path / "code_embeddings.csv").exists()


class TestMalformedArtifact:
    @pytest.mark.parametrize(
        "name, edit, command, writer",
        [
            ("token_vocab.json", lambda o: o.pop("tokens"), "represent", "train-text"),
            ("token_vocab.json", lambda o: o["tokens"].append(["x"]), "represent", "train-text"),
            ("split.json", lambda o: o.pop("train"), "train-code", "preprocess"),
            ("split.json", lambda o: o["train"].append("nobody"), "train-code", "preprocess"),
            ("split.json", lambda o: o["holdout"].append(o["holdout"][0]), "evaluate", "preprocess"),
            ("vocab.json", lambda o: o["entries"][0].pop("group_id"), "export", "preprocess"),
            ("vocab.json", lambda o: o["entries"][0].update(group_id=["x"]), "export", "preprocess"),
            ("vocab.json", lambda o: o["entries"].append(o["entries"][0]), "export", "preprocess"),
            ("vocab.json", lambda o: o["entries"][0].update(freq="x"), "export", "preprocess"),
            ("vocab.json", lambda o: o["entries"][0].update(group_id=3), "export", "preprocess"),
            ("vocab.json", lambda o: o["entries"][0].update(system="zz"), "export", "preprocess"),
        ],
        ids=[
            "token-vocab", "token-list", "split", "split-unknown-patient", "split-repeat",
            "vocab", "vocab-group-list", "vocab-duplicate", "vocab-freq-str",
            "vocab-group-int", "vocab-unknown-system",
        ],
    )
    def test_exits_1_naming_file_and_stage(
        self, run_dir, tmp_path, capsys, name, edit, command, writer
    ):
        out, _ = run_dir
        shutil.copytree(out, tmp_path, dirs_exist_ok=True)
        doc = json.loads((tmp_path / name).read_text())
        edit(doc)
        (tmp_path / name).write_text(json.dumps(doc))
        config = dict(TINY_CONFIG, paths={"out": str(tmp_path)})
        (tmp_path / "tiny_config.json").write_text(json.dumps(config))
        assert main([command, "--config", str(tmp_path / "tiny_config.json")]) == 1
        err = capsys.readouterr().err
        assert f"error: {tmp_path / name}" in err
        assert f"re-run {writer}" in err

    def test_split_overlap_names_count_and_first_id(self, run_dir, tmp_path, capsys):
        """A patient in both lists would be trained on and then scored."""
        out, _ = run_dir
        shutil.copytree(out, tmp_path, dirs_exist_ok=True)
        split = json.loads((tmp_path / "split.json").read_text())
        split["train"] += split["holdout"][:2]
        (tmp_path / "split.json").write_text(json.dumps(split))
        config = dict(TINY_CONFIG, paths={"out": str(tmp_path)})
        (tmp_path / "tiny_config.json").write_text(json.dumps(config))
        assert main(["train-task", "--config", str(tmp_path / "tiny_config.json")]) == 1
        first = min(split["holdout"][:2])
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'split.json'}: split: 2 patient id(s) in both train and "
            f"holdout, first {first!r}; re-run preprocess\n"
        )


def _retag_all(rows, k):
    for row in rows:
        row["task"] = "los9"


def _retag_one(rows, k):
    rows[k]["task"] = "los9"


def _shorten_one(rows, k):
    rows[k]["z"].pop()


def _repeat_previous_key(rows, k):
    rows[k].update(patient_id=rows[k - 1]["patient_id"], visit_index=rows[k - 1]["visit_index"])


class TestMalformedRepresentations:
    @pytest.mark.parametrize("command", ["train-task", "evaluate"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (_retag_all, " holds representations for task 'los9', not 'mortality'"),
            (_retag_one, ":{line}: task 'los9' and width"),
            (_shorten_one, ":{line}: task 'mortality' and width"),
            (lambda rows, k: rows.clear(), ": no representation rows"),
            (
                lambda rows, k: rows[k].update(visit_index=1.7),
                ":{line}: bad representation row (visit_index must be a non-negative integer",
            ),
            (
                lambda rows, k: rows[k].update(visit_index=True),
                ":{line}: bad representation row (visit_index must be a non-negative integer",
            ),
            (
                lambda rows, k: rows[k].update(patient_id=5),
                ":{line}: bad representation row (patient_id must be a non-empty string",
            ),
            (_repeat_previous_key, ":{line}: line {previous} already holds visit"),
            (
                lambda rows, k: rows[k]["z"].__setitem__(2, 1e39),
                ":{line}: bad representation row (z item 2 is outside the float32 range)",
            ),
        ],
        ids=[
            "other-task", "one-row-other-task", "short-row", "empty", "float-index",
            "bool-index", "int-patient", "repeated-key", "beyond-float32",
        ],
    )
    def test_exits_1_naming_file_and_represent(
        self, run_dir, tmp_path, capsys, command, edit, message
    ):
        """The edited row belongs to a training visit, which evaluate never
        scores, so only the reader can catch it there."""
        out, _ = run_dir
        shutil.copytree(out, tmp_path, dirs_exist_ok=True)
        path = tmp_path / "reps_mortality.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        train = set(json.loads((tmp_path / "split.json").read_text())["train"])
        k = next(i for i, row in enumerate(rows) if i > 0 and row["patient_id"] in train)
        edit(rows, k)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        config = dict(TINY_CONFIG, paths={"out": str(tmp_path)})
        (tmp_path / "tiny_config.json").write_text(json.dumps(config))
        assert main([command, "--config", str(tmp_path / "tiny_config.json")]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}" + message.format(line=k + 1, previous=k) in err
        assert "re-run represent" in err


def _cut_at_half(rows):
    """Keep the first half of the lines; the rest of the visits go missing."""
    missing = [(row["patient_id"], row["visit_index"]) for row in rows[len(rows) // 2 :]]
    del rows[len(rows) // 2 :]
    return f"lacks {len(missing)} visit(s) of preprocessed.jsonl, first {min(missing)!r}"


def _rekey_to_absent_patient(rows):
    rows[1]["patient_id"] = "nobody"
    return (
        "holds 1 visit(s) absent from preprocessed.jsonl, "
        f"first {('nobody', rows[1]['visit_index'])!r}"
    )


class TestRepresentationKeys:
    """A reps file must hold exactly the cohort's visits, or the join would
    silently score fewer rows."""

    @pytest.mark.parametrize("command", ["train-task", "evaluate"])
    @pytest.mark.parametrize("edit", [_cut_at_half, _rekey_to_absent_patient], ids=["cut", "rekey"])
    def test_exits_1_naming_file_and_represent(self, run_dir, tmp_path, capsys, command, edit):
        base = _copy_run(run_dir, tmp_path)
        path = tmp_path / "reps_mortality.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        message = edit(rows)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main([command, *base]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}; re-run represent\n"


class TestGroupMap:
    def test_grouped_codes_survive_preprocessed_jsonl(self, tmp_path):
        """Later stages re-ingest preprocessed.jsonl, so it must hold the
        group ids that vocab.json lists, not the raw ids they replaced."""
        config_path = tmp_path / "c.json"
        doc = dict(TINY_CONFIG, paths={"out": str(tmp_path)})
        config_path.write_text(json.dumps(doc))
        base = ["--config", str(config_path)]
        assert main(["generate", *base]) == 0

        raw = ingest_cohort(str(tmp_path / "cohort.jsonl"))
        by_system = {}
        for system, code in {c for p in raw for v in p.visits for c in v.codes}:
            by_system.setdefault(system, []).append(code)
        rows = [
            (code, f"{system}-g{i % 3}")
            for system, codes in sorted(by_system.items())
            for i, code in enumerate(sorted(codes))
        ]
        assert len(rows) > 9
        map_path = tmp_path / "groups.csv"
        map_path.write_text("raw_id,group_id\n" + "".join(f"{r},{g}\n" for r, g in rows))
        doc["paths"]["group_map"] = str(map_path)
        config_path.write_text(json.dumps(doc))
        for stage in ("preprocess", "train-code"):
            assert main([stage, *base]) == 0, stage
        assert main(["evaluate", *base, "--task", "codes"]) == 0

        groups = {g for _, g in rows}
        pre = ingest_cohort(str(tmp_path / "preprocessed.jsonl"))
        assert {c for p in pre for v in p.visits for _, c in v.codes} <= groups
        vocab = CodeVocabulary.from_json(json.loads((tmp_path / "vocab.json").read_text()))
        assert {e.group_id for e in vocab.entries} <= groups
        encoded = [encode_visit_codes(v, vocab) for p in pre for v in p.visits]
        assert sum(x.sum() for x in encoded) > 0
        for x, v in zip(encoded, (v for p in pre for v in p.visits)):
            assert x.sum() == len(v.codes)

        cfg = TINY_CONFIG["preprocess"]
        expected = preprocess(raw, **cfg, group_map=load_group_map(str(map_path)))
        assert pre == expected
        split = json.loads((tmp_path / "split.json").read_text())
        values = ev.next_code_report(
            load_code_model(str(tmp_path / "code.ckpt"), vocab),
            expected.subset(split["train"]),
            expected.subset(split["holdout"]),
            vocab,
            TINY_CONFIG["eval"]["recall_ks"],
        )
        report = json.loads((tmp_path / "report_codes.json").read_text())
        assert {name: r["folds"] for name, r in report.items()} == {
            name: [v] for name, v in values.items()
        }


    def test_empty_group_id_exits_1_naming_the_row(self, run_dir, tmp_path, capsys):
        """A map row `<code>,` would make preprocess write an empty code,
        which every later stage refuses; preprocess refuses the map instead."""
        base = _copy_run(run_dir, tmp_path)
        raw = ingest_cohort(str(tmp_path / "cohort.jsonl"))
        code = min(c for p in raw for v in p.visits for _, c in v.codes)
        group_map = tmp_path / "groups.csv"
        group_map.write_text(f"raw_id,group_id\n{code},\n")
        config = dict(TINY_CONFIG, paths={"out": str(tmp_path), "group_map": str(group_map)})
        (tmp_path / "tiny_config.json").write_text(json.dumps(config))
        before = (tmp_path / "preprocessed.jsonl").read_bytes()
        assert main(["preprocess", *base]) == 1
        assert capsys.readouterr().err == f"error: {group_map}: row 2 has an empty group_id\n"
        assert (tmp_path / "preprocessed.jsonl").read_bytes() == before


class TestCrossvalCommand:
    def test_writes_per_fold_report(self, run_dir):
        out, base = run_dir
        assert main(["evaluate", *base, "--crossval"]) == 0
        report = json.loads((out / "crossval_mortality.json").read_text())
        assert set(report) == {"auroc", "auprc"}
        assert len(report["auroc"]["folds"]) == 2

    def test_ablated_variant_names(self, run_dir):
        out, base = run_dir
        assert main(["evaluate", *base, "--crossval", "--ablate", "text,demo"]) == 0
        report = json.loads((out / "crossval_mortality.json").read_text())
        assert set(report) == {"auroc[code]", "auprc[code]"}

    def test_codes_task_refuses_ablate(self, run_dir, capsys):
        out, base = run_dir
        argv = ["evaluate", *base, "--task", "codes", "--crossval", "--ablate", "text,demo"]
        assert main(argv) == 1
        assert "ablation 'code' needs a task head" in capsys.readouterr().err
        assert not (out / "crossval_codes.json").exists()


class TestFlagOverrides:
    def test_seed_and_out_flags_override_config(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        doc = dict(TINY_CONFIG)
        doc["paths"] = {"out": str(tmp_path / "ignored")}
        cfg_path.write_text(json.dumps(doc))
        other = tmp_path / "actual"
        assert main(["generate", "--config", str(cfg_path), "--out", str(other), "--seed", "123"]) == 0
        assert not (tmp_path / "ignored").exists()
        copied = json.loads((other / "config.json").read_text())
        assert copied["seed"] == 123

    def test_folds_flag_overrides_config(self, tmp_path):
        out = tmp_path / "r"
        assert main(["generate", "--out", str(out), "--folds", "3"]) == 0
        copied = json.loads((out / "config.json").read_text())
        assert copied["eval"]["folds"] == 3


def _copy_run(run_dir, tmp_path) -> list:
    """Copy the module run into tmp_path; the --config arguments that use it."""
    out, _ = run_dir
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    config = dict(TINY_CONFIG, paths={"out": str(tmp_path)})
    (tmp_path / "tiny_config.json").write_text(json.dumps(config))
    return ["--config", str(tmp_path / "tiny_config.json")]


class TestRunDirectoryContract:
    """Every read fault exits 1 naming the file and the stage to re-run."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c.update(d_in=None),
            lambda c: c.update(d_in="abc"),
            lambda c: c.update(d_in=True),
            lambda c: c.pop("d_in"),
            lambda c: c.update(task="bogus"),
            lambda c: c.update(task="readmission30"),
        ],
        ids=["null-d-in", "str-d-in", "bool-d-in", "no-d-in", "bogus-task", "other-task"],
    )
    def test_tampered_head_header(self, run_dir, tmp_path, capsys, edit):
        base = _copy_run(run_dir, tmp_path)
        head = tmp_path / "head_mortality.ckpt"
        _tamper_header(head, lambda h: edit(h["config"]))
        assert main(["evaluate", *base]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {head}: ") and err.endswith("; re-run train-task\n")

    def test_corrupt_preprocessed_cohort(self, run_dir, tmp_path, capsys):
        base = _copy_run(run_dir, tmp_path)
        path = tmp_path / "preprocessed.jsonl"
        lines = path.read_text().count("\n")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{bad\n")
        assert main(["train-code", *base]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line {lines + 1}: malformed JSON "
            "(Expecting property name enclosed in double quotes); re-run preprocess\n"
        )

    def test_checkpoint_cut_in_half(self, run_dir, tmp_path, capsys):
        base = _copy_run(run_dir, tmp_path)
        ckpt = tmp_path / "code.ckpt"
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[: len(raw) // 2])
        (tmp_path / "code_embeddings.csv").unlink(missing_ok=True)
        assert main(["export", *base]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: truncated parameter ")
        assert err.endswith("; re-run train-code\n")
        assert not (tmp_path / "code_embeddings.csv").exists()

    def test_split_with_folds_key_still_reads(self, run_dir, tmp_path):
        """Older split.json files also carry the fold count, which nothing reads."""
        base = _copy_run(run_dir, tmp_path)
        split = json.loads((tmp_path / "split.json").read_text())
        (tmp_path / "split.json").write_text(json.dumps(dict(split, folds=2)))
        assert main(["evaluate", *base]) == 0

    def test_missing_cohort_names_generate(self, tmp_path, capsys):
        assert main(["preprocess", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'cohort.jsonl'} not found; run generate first\n"
        )

    def test_crossval_fold_with_bad_input_exits_1(self, run_dir, tmp_path, capsys):
        """Nine folds of 18 patients leave a test fold with one class only."""
        base = _copy_run(run_dir, tmp_path)
        assert main(["evaluate", *base, "--crossval", "--folds", "9"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: crossval: fold ")
        assert "both classes must be present" in err

    def test_readme_lists_the_artifact_table(self):
        """README's artifact table is ARTIFACTS, one file per row."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", readme, flags=re.MULTILINE)
        assert {name.replace("<task>", "{task}"): stage for name, stage in rows} == ARTIFACTS
        assert len(rows) == len(ARTIFACTS)
