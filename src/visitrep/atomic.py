"""Whole-file writes, and the digest that names a file's bytes. Each
artifact is written to `<path>.tmp` and renamed over `path` once complete,
so a writer that raises or a stage that is killed leaves the previous file
or none, never a truncated one. There is no fsync: the guarded failure is a
killed process, not a power loss."""

from __future__ import annotations

import contextlib
import hashlib
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


def file_sha256(fh) -> str:
    """The sha256 hex digest of a binary file's bytes, read from its start in
    64 KiB chunks (hashlib.file_digest needs Python 3.11); `fh` is left at
    its start. Chunks this small come from the heap and are reused, where a
    1 MiB read raised a cli-pipeline run's peak RSS by about 1 MB."""
    fh.seek(0)
    digest = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 16), b""):
        digest.update(chunk)
    fh.seek(0)
    return digest.hexdigest()
