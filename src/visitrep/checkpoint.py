"""Binary checkpoint container.

Layout: 8-byte magic "TAPERCKP", little-endian u16 version, little-endian
u32 header length, UTF-8 JSON header, then the parameters as little-endian
float32 in row-major order, concatenated in header order. The header records
the section kind ("code" / "text" / "classifier"), the producing config, a
vocabulary content hash, and every parameter's name and shape. Training is
float64 but storage narrows to float32; loading a fresh save of a loaded
model reproduces the file byte for byte.

A model is written as its `parameters()`, each under its own name, and read
back through `read_model`, which checks the kind, the vocabulary hash and the
config section before `load_params` fills a freshly built model.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Sequence

import numpy as np

from .atomic import atomic_open
from .errors import CheckpointError, ValidationError
from .numerics import load_state
from .shape import COUNT, NAME, STRING, Scalar, checker

MAGIC = b"TAPERCKP"
VERSION = 1
KINDS = ("code", "text", "classifier")
_HEADER = checker({
    "kind": Scalar({str}, f"one of {KINDS}", KINDS.__contains__),
    "config": {},
    "vocab_hash": STRING,
    "params": ["param", {"name": NAME, "shape": ["dim", COUNT]}],
}, "header")


def write_checkpoint(
    path: str,
    kind: str,
    config: dict,
    vocab_hash: str,
    params: Sequence,
) -> None:
    """params: ordered Parameters, each written under its name."""
    if kind not in KINDS:
        raise CheckpointError(f"checkpoint: unknown section kind {kind!r}")
    header = {
        "kind": kind,
        "config": config,
        "vocab_hash": vocab_hash,
        "params": [{"name": p.name, "shape": list(p.data.shape)} for p in params],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for p in params:
            fh.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def read_checkpoint(path: str) -> tuple:
    """Returns (kind, config, vocab_hash, {name: float64 array})."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 14 or raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<H", raw, 8)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<I", raw, 10)
    start = 14
    if start + hlen > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = _HEADER(json.loads(raw[start : start + hlen].decode("utf-8")), path)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header ({e})")
    except ValidationError as e:
        raise CheckpointError(str(e)) from None

    params = {}
    offset = start + hlen
    for entry in header["params"]:
        count = math.prod(entry["shape"])
        if offset + 4 * count > len(raw):
            raise CheckpointError(f"{path}: truncated parameter {entry['name']!r}")
        flat = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        params[entry["name"]] = flat.reshape(entry["shape"]).astype(np.float64)
        offset += 4 * count
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes after parameters")
    return header["kind"], header["config"], header["vocab_hash"], params


def read_model(path: str, kind: str, vocab_hash: str, section: str, cls) -> tuple:
    """(config, header config, {name: array}) of a `kind` checkpoint trained
    against `vocab_hash`; config is the header's `section` as a `cls`."""
    got_kind, header, got_hash, arrays = read_checkpoint(path)
    if got_kind != kind:
        raise CheckpointError(f"{path}: checkpoint holds a {got_kind!r} model, expected {kind!r}")
    if got_hash != vocab_hash:
        raise CheckpointError(
            f"{path}: checkpoint was trained against a different vocabulary "
            f"(hash {got_hash[:12]}.. != current {vocab_hash[:12]}..)"
        )
    if section not in header:
        raise CheckpointError(f"{path}: header config lacks the {section!r} section")
    try:
        return cls.from_json(header[section]), header, arrays
    except ValidationError as e:
        raise CheckpointError(f"{path}: {e}") from e


def load_params(path: str, params, arrays: dict) -> None:
    """Set params from a checkpoint's arrays; a missing name, a wrong shape or
    a non-finite entry is an error naming the file."""
    try:
        load_state(params, arrays)
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from e
