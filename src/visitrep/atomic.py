"""Whole-file writes. Each artifact is written to `<path>.tmp` and renamed
over `path` once complete, so a writer that raises or a stage that is
killed leaves the previous file or none, never a truncated one. There is no
fsync: the guarded failure is a killed process, not a power loss."""

from __future__ import annotations

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """open(`<path>.tmp`, mode), replacing `path` when the block ends and
    deleted when it raises. Text is UTF-8 with no newline translation."""
    tmp = f"{path}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, obj) -> None:
    """obj as sorted-key JSON, indented by two, with a final newline."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
