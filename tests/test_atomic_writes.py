"""Artifacts are replaced whole: a writer that raises midway leaves the
previous file byte for byte and no `<path>.tmp`, and no module in
src/visitrep opens a file for writing except through `atomic_open`."""

import ast
from pathlib import Path

import numpy as np
import pytest

from visitrep.atomic import atomic_open, write_json
from visitrep.checkpoint import write_checkpoint
from visitrep.numerics import Parameter
from visitrep.patient_rep import Representations, write_representations

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "visitrep"
OPENER = PACKAGE / "atomic.py"


class Boom(Exception):
    pass


def assert_untouched(path, before):
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


class TestAtomicOpen:
    def test_replaces_the_file_once_the_block_ends(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("old")
        with atomic_open(path) as fh:
            fh.write("new\n")
            assert path.read_text() == "old"
        assert_untouched(path, b"new\n")

    def test_raise_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"old")
        with pytest.raises(Boom):
            with atomic_open(path, "wb") as fh:
                fh.write(b"partial")
                raise Boom
        assert_untouched(path, b"old")

    def test_raise_before_any_file_leaves_none(self, tmp_path):
        with pytest.raises(Boom):
            with atomic_open(tmp_path / "a.json"):
                raise Boom
        assert list(tmp_path.iterdir()) == []

    def test_write_json_is_sorted_indented_and_ends_in_a_newline(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(path, {"b": 1, "a": [2]})
        assert path.read_text() == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


class FailingParameter(Parameter):
    """A parameter whose data can be read `reads` more times, then raises: the
    checkpoint header reads each shape once, the payload loop reads again."""

    def __init__(self, data, name, reads):
        super().__init__(data, name)
        self.reads = reads

    def __getattribute__(self, attr):
        if attr == "data" and "reads" in self.__dict__:
            if self.reads == 0:
                raise Boom(self.name)
            self.reads -= 1
        return super().__getattribute__(attr)


class TestWriterRaisingMidway:
    def test_write_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        good = [Parameter(np.ones((2, 3)), "a"), Parameter(np.zeros(4), "b")]
        write_checkpoint(path, "code", {}, "h", good)
        before = path.read_bytes()
        params = [Parameter(np.ones((2, 3)), "a"), FailingParameter(np.zeros(4), "b", reads=1)]
        with pytest.raises(Boom):
            write_checkpoint(path, "code", {}, "other", params)
        assert_untouched(path, before)

    def test_write_representations(self, tmp_path):
        path = tmp_path / "reps.jsonl"
        write_representations(path, Representations("mortality", [("p", 0)], np.ones((1, 2))))
        before = path.read_bytes()
        # The second row's patient id is not JSON, so the first row is written
        # before the writer raises.
        keys = [("q", 0), (object(), 1)]
        with pytest.raises(TypeError):
            write_representations(path, Representations("mortality", keys, np.zeros((2, 2))))
        assert_untouched(path, before)


def _writes(mode) -> bool:
    """Whether an argument is a literal file mode that writes, appends,
    creates or updates."""
    value = mode.value if isinstance(mode, ast.Constant) else None
    if not isinstance(value, str) or not set(value) <= set("rwxabt+"):
        return False
    return bool(set(value) & set("wax+"))


def write_opens(source: str) -> list:
    """(line, call) of each call that may open a file for writing: open()
    with a writing mode or a mode that is not a literal, x.open(...) with a
    writing mode among its arguments, and x.write_text() / x.write_bytes()."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        builtin = isinstance(node.func, ast.Name)
        name = node.func.id if builtin else getattr(node.func, "attr", None)
        positional = node.args[1:] if builtin else node.args
        modes = [k.value for k in node.keywords if k.arg == "mode"] + positional
        if (
            name in ("write_text", "write_bytes") and not builtin
            or name == "open" and any(_writes(m) for m in modes)
            or name == "open" and builtin and modes and not isinstance(modes[0], ast.Constant)
        ):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_oracle_finds_writing_opens_and_accepts_reads():
    source = (
        "open(p)\n"
        "open(p, 'rb')\n"
        "open(p, encoding='utf-8')\n"
        "open(p, 'w')\n"
        "open(p, mode='a')\n"
        "open(p, m)\n"
        "path.open('x')\n"
        "path.open()\n"
        "path.write_text(s)\n"
        "gzip.open(p, 'r+')\n"
    )
    assert [line for line, _ in write_opens(source)] == [4, 5, 6, 7, 9, 10]


def test_every_write_goes_through_atomic_open():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {call}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != OPENER
        for line, call in write_opens(path.read_text(encoding="utf-8"))
    ]
    assert not found, "files opened for writing outside atomic_open:\n" + "\n".join(found)
