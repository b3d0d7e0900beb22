"""Checkpoint container: byte layout, round trips, and mismatch errors."""

import struct

import numpy as np
import pytest

from visitrep.checkpoint import (
    MAGIC,
    expect_kind,
    expect_vocab_hash,
    read_checkpoint,
    write_checkpoint,
)
from visitrep.errors import CheckpointError


def sample_params(seed=0):
    rng = np.random.default_rng(seed)
    return [
        ("embed.w", rng.normal(size=(4, 3))),
        ("out.b", rng.normal(size=(5,))),
    ]


class TestRoundTrip:
    def test_read_recovers_everything(self, tmp_path):
        path = tmp_path / "m.ckpt"
        params = sample_params()
        write_checkpoint(path, "code", {"d_code": 4}, "abc123", params)
        kind, config, vocab_hash, arrays = read_checkpoint(path)
        assert kind == "code"
        assert config == {"d_code": 4}
        assert vocab_hash == "abc123"
        assert list(arrays) == ["embed.w", "out.b"]
        for name, arr in params:
            assert arrays[name].dtype == np.float64
            np.testing.assert_array_equal(arrays[name], arr.astype(np.float32))

    def test_second_save_is_byte_identical(self, tmp_path):
        """Storage is float32; saving what was loaded loses nothing further."""
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        write_checkpoint(a, "text", {}, "h", sample_params(1))
        _, _, _, arrays = read_checkpoint(a)
        write_checkpoint(b, "text", {}, "h", list(arrays.items()))
        assert a.read_bytes() == b.read_bytes()

    def test_file_starts_with_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, "classifier", {}, "h", sample_params())
        assert path.read_bytes()[:8] == MAGIC

    def test_parameter_order_preserved(self, tmp_path):
        path = tmp_path / "m.ckpt"
        params = [("z", np.zeros(2)), ("a", np.ones(2))]
        write_checkpoint(path, "code", {}, "h", params)
        _, _, _, arrays = read_checkpoint(path)
        assert list(arrays) == ["z", "a"]


class TestValidation:
    def test_unknown_kind_rejected_on_write(self, tmp_path):
        with pytest.raises(CheckpointError, match="kind"):
            write_checkpoint(tmp_path / "x", "codez", {}, "h", sample_params())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="not a checkpoint file"):
            read_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, "code", {}, "h", sample_params())
        raw = bytearray(path.read_bytes())
        raw[8:10] = struct.pack("<H", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, "code", {}, "h", sample_params())
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, "code", {}, "h", sample_params())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            read_checkpoint(path)

    def test_kind_mismatch_message_names_both(self, tmp_path):
        with pytest.raises(CheckpointError, match="holds a 'text' model.*'code'"):
            expect_kind("m.ckpt", "text", "code")

    def test_vocab_hash_mismatch_is_loud(self):
        with pytest.raises(CheckpointError, match="different vocabulary"):
            expect_vocab_hash("m.ckpt", "aaa", "bbb")
        expect_vocab_hash("m.ckpt", "same", "same")

