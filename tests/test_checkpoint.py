"""Checkpoint container: byte layout, round trips, and mismatch errors."""

import struct

import numpy as np
import pytest
from conftest import make_cohort, make_record, make_visit

from visitrep.checkpoint import KINDS, MAGIC, read_checkpoint, read_model, write_checkpoint
from visitrep.code_embedder import (
    CodeEmbedderConfig,
    CodeEmbedderModel,
    load_code_model,
    save_code_model,
)
from visitrep.cohort import TASK_MORTALITY, build_vocabulary
from visitrep.errors import CheckpointError
from visitrep.numerics import Parameter
from visitrep.tasks import ClassifierModel, TaskHeadConfig, load_classifier, save_classifier
from visitrep.text_embedder import (
    SummarizerConfig,
    SummarizerModel,
    TokenVocabulary,
    load_summarizer,
    save_summarizer,
)


def sample_params(seed=0):
    rng = np.random.default_rng(seed)
    return [
        Parameter(rng.normal(size=(4, 3)), "embed.w"),
        Parameter(rng.normal(size=(5,)), "out.b"),
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
        for p in params:
            assert arrays[p.name].dtype == np.float64
            np.testing.assert_array_equal(arrays[p.name], p.data.astype(np.float32))

    def test_second_save_is_byte_identical(self, tmp_path):
        """Storage is float32; saving what was loaded loses nothing further."""
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        write_checkpoint(a, "text", {}, "h", sample_params(1))
        _, _, _, arrays = read_checkpoint(a)
        write_checkpoint(b, "text", {}, "h", [Parameter(a, n) for n, a in arrays.items()])
        assert a.read_bytes() == b.read_bytes()

    def test_file_starts_with_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, "classifier", {}, "h", sample_params())
        assert path.read_bytes()[:8] == MAGIC

    def test_parameter_order_preserved(self, tmp_path):
        path = tmp_path / "m.ckpt"
        params = [Parameter(np.zeros(2), "z"), Parameter(np.ones(2), "a")]
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
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, "text", {}, "h", sample_params())
        with pytest.raises(CheckpointError, match="holds a 'text' model.*'code'"):
            read_model(path, "code", "h", "code_embedder", CodeEmbedderConfig)

    def test_vocab_hash_mismatch_is_loud(self, tmp_path):
        path = tmp_path / "m.ckpt"
        config = {"code_embedder": CodeEmbedderConfig().to_json()}
        write_checkpoint(path, "code", config, "aaa", sample_params())
        with pytest.raises(CheckpointError, match="different vocabulary"):
            read_model(path, "code", "bbb", "code_embedder", CodeEmbedderConfig)
        cfg, header, arrays = read_model(path, "code", "aaa", "code_embedder", CodeEmbedderConfig)
        assert (cfg, header, list(arrays)) == (CodeEmbedderConfig(), config, ["embed.w", "out.b"])


def model_files():
    """kind -> (save(path, model), load(path), a freshly drawn model)."""
    cohort = make_cohort(make_record("p", [make_visit(codes=[("dx", "a"), ("med", "x")])]))
    vocab = build_vocabulary(cohort)
    tokens = TokenVocabulary(("<unk>", "aa", "bb"))
    rng = np.random.default_rng(0)
    code_cfg = CodeEmbedderConfig(d_code=4, n_layers=1, n_heads=2, d_head=2)
    return {
        "code": (
            lambda path, model: save_code_model(path, model, vocab.content_hash()),
            lambda path: load_code_model(path, vocab),
            CodeEmbedderModel(len(vocab), code_cfg, rng),
        ),
        "text": (
            save_summarizer,
            lambda path: load_summarizer(path, tokens),
            SummarizerModel(tokens, SummarizerConfig(d_text=3, d_enc=2), rng),
        ),
        "classifier": (
            lambda path, model_config: save_classifier(path, *model_config, "h"),
            lambda path: load_classifier(path, "h", TASK_MORTALITY, 5),
            (ClassifierModel(5, TASK_MORTALITY, rng), TaskHeadConfig(epochs=3)),
        ),
    }


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_resaves_byte_for_byte_and_other_loaders_refuse_it(tmp_path, kind):
    files = model_files()
    save, load, model = files[kind]
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save(first, model)
    save(second, load(first))
    assert first.read_bytes() == second.read_bytes()
    for other in set(KINDS) - {kind}:
        with pytest.raises(CheckpointError, match=f"holds a '{kind}' model, expected '{other}'"):
            files[other][1](first)

