"""Run-config parsing: strict keys, overrides, canonical serialization."""

import json

import pytest

from visitrep.cli import main
from visitrep.config import (
    Paths,
    RunConfig,
    TASK_ALIASES,
    load_run_config,
    write_run_config,
)
from visitrep.errors import ValidationError


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_task_aliases_cover_all_four_tasks(self):
        assert set(TASK_ALIASES) == {"readmission", "mortality", "los", "codes"}
        assert RunConfig(task="los").internal_task == "los9"

    def test_json_round_trip(self):
        cfg = RunConfig(seed=11, task="readmission", paths=Paths(out="elsewhere"))
        again = RunConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_partial_document_fills_defaults(self):
        cfg = RunConfig.from_json({"seed": 3, "eval": {"folds": 2}})
        assert cfg.seed == 3
        assert cfg.eval.folds == 2
        assert cfg.task == "mortality"
        assert cfg.code_embedder.d_code == 128

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown keys.*fold_count"):
            RunConfig.from_json({"fold_count": 7})

    def test_unknown_section_key(self):
        with pytest.raises(ValidationError, match="config.synth: unknown keys"):
            RunConfig.from_json({"synth": {"patients": 10}})

    def test_unknown_task_name(self):
        with pytest.raises(ValidationError, match="unknown task 'triage'"):
            RunConfig.from_json({"task": "triage"})

    def test_tuple_fields_survive_json(self):
        doc = {
            "synth": {
                "vocab_sizes": [["dx", 4], ["med", 4]],
                "n_conditions": 3,
                "codes_per_condition": 2,
            },
            "eval": {"recall_ks": [3, 7]},
        }
        cfg = RunConfig.from_json(doc)
        assert cfg.synth.vocab_sizes == (("dx", 4), ("med", 4))
        assert cfg.eval.recall_ks == (3, 7)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        cfg = RunConfig(seed=5, task="codes")
        write_run_config(cfg, path)
        assert load_run_config(path) == cfg

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_run_config(path)

    def test_written_file_is_canonical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_run_config(RunConfig(), a)
        write_run_config(RunConfig(), b)
        assert a.read_bytes() == b.read_bytes()
        keys = list(json.loads(a.read_text()))
        assert keys == sorted(keys)


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("eval", "recall_ks", ["a"]),
        ("eval", "recall_ks", [1.5]),
        ("eval", "recall_ks", [True]),
        ("synth", "vocab_sizes", [["dx", "x"]]),
        ("synth", "vocab_sizes", [1.5]),
        ("synth", "vocab_sizes", [["zz", 40], ["med", 40]]),
        ("synth", "vocab_sizes", [["dx", -4], ["med", 60]]),
        ("synth", "vocab_sizes", [["dx", 40, 3], ["med", 40]]),
    ],
    ids=[
        "recall-str", "recall-float", "recall-bool", "sizes-str-size", "sizes-float",
        "sizes-unknown-system", "sizes-negative", "sizes-triple",
    ],
)
def test_bad_tuple_item_exits_1_naming_the_field(tmp_path, capsys, section, field, value):
    """Every stage reads the config first, so generate stands for all of them."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {field: value}, "paths": {"out": str(tmp_path)}}))
    assert main(["generate", "--config", str(path)]) == 1
    assert f"error: config.{section}, {field} 0: {field} must be " in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, field",
    [
        ({"n_noise_tokens": -1}, "n_noise_tokens"),
        ({"tokens_per_condition": 0, "shared_tokens": 0}, "tokens_per_condition"),
        ({"noise_token_rate": 1.5}, "noise_token_rate"),
        ({"noise_token_rate": -0.1}, "noise_token_rate"),
        ({"note_tokens": -1}, "note_tokens"),
        ({"shared_tokens": -3}, "shared_tokens"),
        ({"shared_tokens": 20}, "shared_tokens"),
        ({"codes_per_condition": -1}, "codes_per_condition"),
        ({"vocab_sizes": [["dx", 16], ["dx", 16], ["med", 16]]}, "vocab_sizes"),
    ],
    ids=[
        "noise-tokens-negative", "tokens-zero", "noise-rate-above-1", "noise-rate-negative",
        "note-tokens-negative", "shared-negative", "shared-above-tokens", "codes-negative",
        "sizes-repeated-system",
    ],
)
def test_synth_out_of_range_exits_1_naming_the_field(tmp_path, capsys, values, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"synth": values, "paths": {"out": str(tmp_path)}}))
    assert main(["generate", "--config", str(path)]) == 1
    assert f"error: synth: {field} " in capsys.readouterr().err
    assert not (tmp_path / "cohort.jsonl").exists()
