"""Binary checkpoint container.

Layout: 8-byte magic "TAPERCKP", little-endian u16 version, little-endian
u32 header length, UTF-8 JSON header, then the parameters as little-endian
float32 in row-major order, concatenated in header order. The header records
the section kind ("code" / "text" / "classifier"), the producing config, a
vocabulary content hash, and every parameter's name and shape. Training is
float64 but storage narrows to float32; loading a fresh save of a loaded
model reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import struct
from typing import Sequence

import numpy as np

from .errors import CheckpointError, ValidationError
from .numerics import load_state

MAGIC = b"TAPERCKP"
VERSION = 1
KINDS = ("code", "text", "classifier")


def write_checkpoint(
    path: str,
    kind: str,
    config: dict,
    vocab_hash: str,
    named_params: Sequence,
) -> None:
    """named_params: ordered (name, float array) pairs."""
    if kind not in KINDS:
        raise CheckpointError(f"checkpoint: unknown section kind {kind!r}")
    header = {
        "kind": kind,
        "config": config,
        "vocab_hash": vocab_hash,
        "params": [{"name": n, "shape": list(a.shape)} for n, a in named_params],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in named_params:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


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
        header = json.loads(raw[start : start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header ({e})")
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header (not an object)")
    if header.get("kind") not in KINDS:
        raise CheckpointError(f"{path}: unknown section kind {header.get('kind')!r}")
    missing = sorted({"config", "vocab_hash", "params"} - set(header))
    if missing:
        raise CheckpointError(f"{path}: header lacks {missing}")
    if not isinstance(header["config"], dict):
        raise CheckpointError(f"{path}: header config is not an object")
    if not isinstance(header["vocab_hash"], str):
        raise CheckpointError(f"{path}: header vocab_hash is not a string")
    try:
        entries = [(e["name"], tuple(int(d) for d in e["shape"])) for e in header["params"]]
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: corrupt parameter list in header ({e!r})")

    params = {}
    offset = start + hlen
    for name, shape in entries:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 4
        if count < 0 or offset + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated parameter {name!r}")
        flat = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        params[name] = flat.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes after parameters")
    return header["kind"], header["config"], header["vocab_hash"], params


def expect_kind(path: str, got: str, want: str) -> None:
    if got != want:
        raise CheckpointError(f"{path}: checkpoint holds a {got!r} model, expected {want!r}")


def expect_vocab_hash(path: str, got: str, want: str) -> None:
    if got != want:
        raise CheckpointError(
            f"{path}: checkpoint was trained against a different vocabulary "
            f"(hash {got[:12]}.. != current {want[:12]}..)"
        )


def load_params(path: str, params, arrays: dict, stage: str) -> None:
    """Set params from a checkpoint's arrays; a missing name, a wrong shape or
    a non-finite entry is an error naming the file and the stage that
    rewrites it."""
    try:
        load_state(params, arrays)
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}; re-run {stage}") from e


def header_config(path: str, config: dict, key: str, cls):
    """The config dataclass stored under `key` of a checkpoint's header config."""
    if key not in config:
        raise CheckpointError(f"{path}: header config lacks the {key!r} section")
    try:
        return cls.from_json(config[key])
    except ValidationError as e:
        raise CheckpointError(f"{path}: {e}") from e
