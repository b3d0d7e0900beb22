"""Artifact contract: every run-directory file a stage reads, made empty, cut
in half, cut at a line or given one of four single-bit flips, leaves that
stage exiting 0 or 1, never 2. The mutations that exit 1 today keep exiting
1 and name the file. The mutations are hand-rolled and seeded from the file
name's crc32, so every run of the test makes the same ones.

manifest.json only spares the shape walk of the files it records: the same
mutations of it, or its absence, change no reader's exit code or outputs."""

import hashlib
import json
import shutil
import zlib

import numpy as np
import pytest

from visitrep import cohort, patient_rep
from visitrep.cli import main

from test_cli import TINY_CONFIG

# Run-directory file -> the stages that read it ("evaluate-codes" is
# `evaluate --task codes`).
READERS = {
    "cohort.jsonl": ["preprocess"],
    "preprocessed.jsonl": ["train-code", "train-text", "represent", "train-task", "evaluate",
                           "evaluate-codes"],
    "vocab.json": ["export"],
    "split.json": ["train-code", "train-text", "represent", "train-task", "evaluate",
                   "evaluate-codes"],
    "code.ckpt": ["represent", "evaluate-codes", "export"],
    "token_vocab.json": ["represent"],
    "text.ckpt": ["represent"],
    "reps_mortality.jsonl": ["train-task", "evaluate"],
    "head_mortality.ckpt": ["evaluate"],
}

# (file, mutation) -> the readers under which it exits 0 today. A cut or
# flipped raw cohort is another valid cohort, so exit 0 is right there. The
# rest are flips in a checkpoint's float32 payload or in a JSON Lines value,
# which no check sees yet.
EXIT_0 = {
    **dict.fromkeys([("cohort.jsonl", m) for m in ("line", "flip1", "flip2")], {"preprocess"}),
    ("preprocessed.jsonl", "flip2"): set(READERS["preprocessed.jsonl"]),
    **{(name, f"flip{i}"): set(READERS[name]) for name, flips in [
        ("code.ckpt", (0, 2, 3)), ("text.ckpt", (0, 1, 3)),
        ("reps_mortality.jsonl", (1, 3)), ("head_mortality.ckpt", (0, 1, 2, 3)),
    ] for i in flips},
}

# A fault that shows only against another file is named at that file: the
# split's patient ids are checked against preprocessed.jsonl, and the
# vocabulary export reads against the hash in code.ckpt.
CHECKED_AGAINST = {
    "preprocessed.jsonl": ["split.json"],
    "vocab.json": ["code.ckpt"],
    "token_vocab.json": ["text.ckpt"],
}


def mutations(name: str, data: bytes):
    """(mutation, bytes): empty, the first half, the whole lines of the first
    half, then four single-bit flips at positions drawn from crc32(name)."""
    yield "empty", b""
    yield "half", data[: len(data) // 2]
    yield "line", data[: data.rfind(b"\n", 0, len(data) // 2) + 1]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for i, (pos, bit) in enumerate(zip(rng.integers(len(data), size=4),
                                       rng.integers(8, size=4))):
        flipped = bytearray(data)
        flipped[pos] ^= 1 << int(bit)
        yield f"flip{i}", bytes(flipped)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A run directory through evaluate, and the config that built it."""
    root = tmp_path_factory.mktemp("contract")
    config = root / "tiny_config.json"
    config.write_text(json.dumps(dict(TINY_CONFIG, paths={"out": str(root / "run")})))
    for stage in ("generate", "preprocess", "train-code", "train-text", "represent",
                  "train-task", "evaluate"):
        assert main([stage, "--config", str(config)]) == 0, stage
    return root / "run", config


def run_stage(built, run, name, data, stage) -> int:
    """The exit code of `stage` on a copy of the built run directory whose
    file `name` holds `data`, or is absent when `data` is None."""
    source, config = built
    shutil.rmtree(run, ignore_errors=True)
    shutil.copytree(source, run)
    if data is None:
        (run / name).unlink()
    else:
        (run / name).write_bytes(data)
    argv = ["evaluate", "--task", "codes"] if stage == "evaluate-codes" else [stage]
    return main([*argv, "--config", str(config), "--out", str(run)])


def test_readers_are_the_stages_that_need_each_file(built, tmp_path, capsys):
    """Each file's absence fails exactly the stages READERS lists for it."""
    stages = sorted({stage for readers in READERS.values() for stage in readers})
    wrong = []
    for name, readers in READERS.items():
        for stage in stages:
            code = run_stage(built, tmp_path / "run", name, None, stage)
            if code != (1 if stage in readers else 0):
                wrong.append((name, stage, code, capsys.readouterr().err))
    assert wrong == []


@pytest.mark.parametrize("name", READERS)
def test_every_mutation_exits_0_or_1_and_exit_1_names_the_file(
    built, tmp_path, capsys, name
):
    run = tmp_path / "run"
    faults = []
    for mutation, data in mutations(name, (built[0] / name).read_bytes()):
        for stage in READERS[name]:
            code = run_stage(built, run, name, data, stage)
            err = capsys.readouterr().err
            named = any(str(run / f) in err for f in [name, *CHECKED_AGAINST.get(name, [])])
            allowed = (0, 1) if stage in EXIT_0.get((name, mutation), ()) else (1,)
            if code not in allowed or (code == 1 and not named):
                faults.append((mutation, stage, code, err))
    assert faults == []


# The stages that read a file manifest.json records, and the one of them that
# rewrites the manifest.
RECORDED_READERS = READERS["preprocessed.jsonl"]
WRITES_MANIFEST = {"represent"}


def outcome(run, stage, code, out: str) -> tuple:
    """A stage's exit code, stdout and run-directory files, the manifest
    only when the stage writes it."""
    files = {
        path.name: path.read_bytes() for path in sorted(run.iterdir())
        if path.name != "manifest.json" or stage in WRITES_MANIFEST
    }
    return code, out.replace(str(run), "<run>"), files


def test_walked_and_unwalked_parses_agree(built):
    """The oracle for the digest skip: the files the pipeline wrote parse to
    the same Cohort and the same table with the shape walk and without."""
    run, _ = built
    digests = json.loads((run / "manifest.json").read_text())
    pre, reps = run / "preprocessed.jsonl", run / "reps_mortality.jsonl"
    for path in (pre, reps):
        assert digests[path.name]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    unwalked = cohort.ingest_cohort(str(pre), recorded=digests[pre.name]["sha256"])
    assert unwalked == cohort.ingest_cohort(str(pre))
    a = patient_rep.read_representations(reps, "mortality")
    b = patient_rep.read_representations(reps, "mortality", recorded=digests[reps.name]["sha256"])
    assert (a.task, a.keys, a.vectors.tobytes()) == (b.task, b.keys, b.vectors.tobytes())


def test_an_intact_manifest_skips_every_shape_walk(built, tmp_path, monkeypatch, capsys):
    """With the manifest as the pipeline left it, no reader walks `_RECORD`
    or `_ROW`; without it, each walks the lines it reads."""
    walks = []

    def counted(name, check):
        def walk(obj, *where):
            walks.append(name)
            return check(obj, *where)

        return walk

    for module, name in ((cohort, "_RECORD"), (patient_rep, "_ROW")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    run, intact = tmp_path / "run", (built[0] / "manifest.json").read_bytes()
    for stage in RECORDED_READERS:
        assert run_stage(built, run, "manifest.json", intact, stage) == 0, stage
        assert walks == [], stage
        assert run_stage(built, run, "manifest.json", None, stage) == 0, stage
        reads_reps = stage in READERS["reps_mortality.jsonl"]
        assert set(walks) == {"_RECORD", *["_ROW"] * reads_reps}, stage
        walks.clear()


def manifest_variants(intact: bytes):
    """The contract's mutations of manifest.json, then well-formed entries
    holding each other's digest, an entry under a misspelt name, a document
    that is not an object, and no file at all."""
    yield from mutations("manifest.json", intact)
    doc = json.loads(intact)
    names = sorted(doc)
    swapped = {name: doc[other] for name, other in zip(names, names[::-1])}
    yield "other-digests", json.dumps(swapped).encode()
    yield "misnamed", json.dumps({name.replace(".jsonl", ".jsonm"): entry
                                  for name, entry in doc.items()}).encode()
    yield "list", b"[]\n"
    yield "absent", None


def test_a_mutated_or_absent_manifest_changes_no_reader_outcome(built, tmp_path, capsys):
    """Every mutation of manifest.json, and its absence, leaves each reader's
    exit code, stdout and outputs as they are with the intact manifest; the
    stage that rewrites the manifest writes the intact run's bytes."""
    run = tmp_path / "run"
    intact = (built[0] / "manifest.json").read_bytes()
    faults = []
    for stage in RECORDED_READERS:
        code = run_stage(built, run, "manifest.json", intact, stage)
        want = outcome(run, stage, code, capsys.readouterr().out)
        assert code == 0, stage
        for mutation, data in manifest_variants(intact):
            code = run_stage(built, run, "manifest.json", data, stage)
            if outcome(run, stage, code, capsys.readouterr().out) != want:
                faults.append((mutation, stage, code))
    assert faults == []
