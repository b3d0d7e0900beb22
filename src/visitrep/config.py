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
    cohort: str = ""
    group_map: str = ""
    out: str = "run"


@dataclass(frozen=True)
class PreprocessConfig(JsonConfig):
    min_code_freq: int = 5
    min_age: int = 18
    min_visits: int = 1

    def validate(self) -> None:
        for name in ("min_code_freq", "min_visits"):
            if getattr(self, name) < 1:
                raise ValidationError(f"preprocess: {name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class RunConfig(JsonConfig):
    seed: int = 0
    task: str = "mortality"
    paths: Paths = field(default_factory=Paths)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    code_embedder: CodeEmbedderConfig = field(default_factory=CodeEmbedderConfig)
    summarizer: SummarizerConfig = field(default_factory=SummarizerConfig)
    task_head: TaskHeadConfig = field(default_factory=TaskHeadConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def validate(self) -> None:
        if self.task not in TASK_ALIASES:
            raise ValidationError(
                f"config: unknown task {self.task!r}, expected one of {sorted(TASK_ALIASES)}"
            )

    @property
    def internal_task(self) -> str:
        return TASK_ALIASES[self.task]


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return RunConfig.from_json(obj)


def write_run_config(config: RunConfig, path: str) -> None:
    write_json(path, config.to_json())
