"""Run configuration: a single JSON document that drives every CLI stage.

The file mirrors the per-module config dataclasses key for key, so a run
directory's copy of the config is enough to reproduce the run. Unknown keys
are rejected at every level rather than silently ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .atomic import write_json
from .cohort import TASK_CODES, TASK_LOS, TASK_MORTALITY, TASK_READMISSION
from .code_embedder import CodeEmbedderConfig
from .errors import ValidationError
from .evaluation import EvalConfig
from .jsonconfig import JsonConfig
from .shape import POSITIVE, Scalar
from .synth import SynthConfig
from .tasks import TaskHeadConfig
from .text_embedder import SummarizerConfig

TASK_ALIASES = {
    "readmission": TASK_READMISSION,
    "mortality": TASK_MORTALITY,
    "los": TASK_LOS,
    "codes": TASK_CODES,
}


@dataclass(frozen=True)
class Paths(JsonConfig):
    json_name = "config.paths"

    cohort: str = ""
    group_map: str = ""
    out: str = "run"


@dataclass(frozen=True)
class PreprocessConfig(JsonConfig):
    json_name = "config.preprocess"
    json_fields = {"min_code_freq": POSITIVE, "min_visits": POSITIVE}

    min_code_freq: int = 5
    min_age: int = 18
    min_visits: int = 1


@dataclass(frozen=True)
class RunConfig(JsonConfig):
    json_fields = {"task": Scalar({str}, f"one of {sorted(TASK_ALIASES)}",
                                  TASK_ALIASES.__contains__)}

    seed: int = 0
    task: str = "mortality"
    paths: Paths = field(default_factory=Paths)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    code_embedder: CodeEmbedderConfig = field(default_factory=CodeEmbedderConfig)
    summarizer: SummarizerConfig = field(default_factory=SummarizerConfig)
    task_head: TaskHeadConfig = field(default_factory=TaskHeadConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    @property
    def internal_task(self) -> str:
        return TASK_ALIASES[self.task]


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # also a file that is not UTF-8
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return RunConfig.from_json(obj)


def write_run_config(config: RunConfig, path: str) -> None:
    write_json(path, config.to_json())
