"""Run-config parsing: strict keys, overrides, canonical serialization."""

import json
import re

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
from visitrep.jsonconfig import JsonConfig
from visitrep.shape import number_in


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
        with pytest.raises(ValidationError, match="^config: task must be one of .*, got 'triage'$"):
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
    assert f"error: config.synth: {field} " in capsys.readouterr().err
    assert not (tmp_path / "cohort.jsonl").exists()


# (section, field, value): a value out of each declared field's shape, then
# values that break a rule across fields. None is the top level.
OUT_OF_RANGE = [
    (None, "task", "triage"),
    ("preprocess", "min_code_freq", 0),
    ("preprocess", "min_visits", 0),
    *[("synth", name, 0) for name in (
        "n_patients", "codes_per_condition", "visits_min", "visits_max",
        "tokens_per_condition", "n_noise_tokens", "note_tokens",
    )],
    ("synth", "n_conditions", 1),
    ("synth", "shared_tokens", -1),
    ("synth", "chronic_fraction", 1.5),
    ("synth", "noise_token_rate", -0.1),
    ("synth", "label_noise", 0.5),
    ("synth", "vocab_sizes", [["dx", 0]]),
    *[("code_embedder", name, 0) for name in (
        "d_code", "n_layers", "n_heads", "d_head", "window", "epochs", "batch_size",
        "lr_period", "lr0", "prob_clip",
    )],
    ("code_embedder", "lr_min", -0.1),
    ("code_embedder", "val_fraction", 1.0),
    *[("summarizer", name, 0) for name in (
        "d_text", "d_enc", "chunk_size", "epochs", "batch_size", "lr_every",
        "min_token_freq", "max_tokens", "lr0", "lr_factor",
    )],
    ("summarizer", "lr_factor", 1.5),
    ("summarizer", "teacher_forcing", 1.5),
    ("summarizer", "val_fraction", 1.0),
    *[("task_head", name, 0) for name in ("epochs", "batch_size", "lr_every", "lr_factor")],
    ("task_head", "lr0", -0.01),
    ("eval", "folds", 1),
    ("eval", "recall_ks", [0]),
    # rules across fields
    ("synth", "visits_min", 6),
    ("synth", "shared_tokens", 9),
    ("synth", "vocab_sizes", [["dx", 40], ["dx", 40]]),
    ("code_embedder", "lr_min", 1.0),
    ("eval", "recall_ks", []),
]


def sections() -> dict:
    """Section name (None for the top level) -> its config class."""
    nested = {k: type(v) for k, v in vars(RunConfig()).items() if isinstance(v, JsonConfig)}
    return {None: RunConfig, **nested}


def test_out_of_range_table_covers_every_declared_field():
    for cls in sections().values():
        assert set(cls.json_fields) <= set(vars(cls()))
    declared = {(s, name) for s, cls in sections().items() for name in cls.json_fields}
    assert declared == {(s, name) for s, name, _ in OUT_OF_RANGE}


@pytest.mark.parametrize(
    "section, field, value", OUT_OF_RANGE,
    ids=[f"{s or 'top'}.{f}={v}" for s, f, v in OUT_OF_RANGE],
)
def test_out_of_range_is_refused_at_construction_and_by_generate(
    tmp_path, capsys, section, field, value
):
    """The constructor and a config file meet one check, with one message."""
    where = f"config.{section}" if section else "config"
    said = f"^{re.escape(where)}(, {field} \\d+)?: {field} "
    with pytest.raises(ValidationError, match=said):
        sections()[section](**{field: value})
    doc = {section: {field: value}} if section else {field: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**doc, "paths": {"out": str(tmp_path)}}))
    assert main(["generate", "--config", str(path)]) == 1
    assert re.match(f"error: {said[1:]}", capsys.readouterr().err)
    assert not (tmp_path / "cohort.jsonl").exists()


@pytest.mark.parametrize("ends, admitted", [
    ("[]", [True, True, True]), ("[)", [True, True, False]),
    ("(]", [False, True, True]), ("()", [False, True, False]),
])
def test_number_in_admits_an_end_only_under_a_square_bracket(ends, admitted):
    ok = number_in(0, 1, ends).ok
    assert [ok(v) for v in (0, 0.5, 1)] == admitted
    assert not ok(-0.5) and not ok(1.5) and not ok(float("nan"))
