"""Artifact contract: every run-directory file a stage reads, made empty, cut
in half, cut at a line or given one of four single-bit flips, leaves that
stage exiting 0 or 1, never 2. The mutations that exit 1 today keep exiting
1 and name the file. The mutations are hand-rolled and seeded from the file
name's crc32, so every run of the test makes the same ones."""

import json
import shutil
import zlib

import numpy as np
import pytest

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
        ("reps_mortality.jsonl", (0, 1)), ("head_mortality.ckpt", (0, 1, 2, 3)),
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
