"""The two benchmark workloads.

Each workload builds its inputs from the workload seed with the package's
own synthetic cohort generator, so the program under test only ever sees a
generated cohort. ``setup()`` is one set-up repetition, ``run()`` one
measured iteration, and ``check()`` validates the last iteration's outputs,
returning (failures, quality values). Model seeds stay fixed, so repeated
iterations of one workload do identical work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
import time

# Wrapped functions are called through their modules, so the wrappers that
# run.py installs on the module attributes see these calls too.
from visitrep import code_embedder, synth
from visitrep.cli import main as cli_main
from visitrep.code_embedder import CodeEmbedderConfig
from visitrep.cohort import build_vocabulary, patient_kfold_split
from visitrep.evaluation import auc_roc
from visitrep.numerics import derive_seed
from visitrep.synth import SynthConfig
from visitrep.tasks import TaskHeadConfig

from .layers import next_code_prefixes

# The c5/c6 acceptance-test model shape: d=32, one layer, four heads, B=32.
CODE_SHAPE = dict(d_code=32, n_layers=1, n_heads=4, d_head=8, window=2, batch_size=32, lr0=2e-3)
# The c6 summarizer shape: frozen bag encoder, 16-wide GRUs.
TEXT_SHAPE = dict(d_text=16, d_enc=16, chunk_size=32, batch_size=16, train_encoder=False)


def throughput_stages() -> dict:
    """End-to-end throughputs: stage -> (public function, work per call).
    Work is epochs x rows for training calls and items for inference calls."""
    return {
        "train_code_visits_per_s": (
            "visitrep.code_embedder:train_code_embedder",
            lambda a: a["config"].epochs * a["cohort"].n_visits(),
        ),
        "train_text_visits_per_s": (
            "visitrep.text_embedder:train_summarizer",
            lambda a: a["config"].epochs * a["cohort"].n_visits(),
        ),
        "represent_visits_per_s": (
            "visitrep.patient_rep:RepresentationPipeline.represent_cohort",
            lambda a: a["cohort"].n_visits(),
        ),
        "train_head_rows_per_s": (
            "visitrep.tasks:train_task",
            lambda a: (a.get("config") or TaskHeadConfig()).epochs * len(a["X"]),
        ),
        "next_code_prefixes_per_s": (
            "visitrep.evaluation:next_code_recall",
            lambda a: next_code_prefixes(a["cohort"]) if a["model"] is not None else 0,
        ),
    }


class Workload:
    def __init__(self, seed: int, workdir: str, tracer=None):
        self.seed = seed
        self.tracer = tracer
        # (wall s, cpu s) per CLI stage, summed over calls; only the CLI
        # workload runs stages.
        self.stage_times: dict = {}

    def close(self) -> None:
        pass


class FitCode(Workload):
    """c5 recovery cohort, code embedder training only."""

    PAIR_AUC_MIN = 0.9  # as in acceptance test c5

    def __init__(self, seed: int, workdir: str, tracer=None):
        super().__init__(seed, workdir, tracer)
        # c5 trains 80 epochs; 40 keep every seed tried above the c5 threshold.
        self.config = CodeEmbedderConfig(**CODE_SHAPE, epochs=40, lr_period=40, seed=3)

    def setup(self) -> None:
        config = SynthConfig(
            n_patients=1000, n_conditions=8, label_noise=0.1,
            seed=derive_seed(self.seed, "fit-code"),
        )
        cohort, self.truth = synth.generate_cohort(config)
        held = set(patient_kfold_split(cohort, 5, seed=17)[0])
        self.train = cohort.subset([p for p in cohort.patient_ids() if p not in held])
        self.vocab = build_vocabulary(self.train)

    def run(self) -> None:
        self.model, _ = code_embedder.train_code_embedder(self.train, self.vocab, self.config)

    def check(self):
        emb = self.model.embed.data
        emb = emb / (emb * emb).sum(axis=1, keepdims=True) ** 0.5
        owner = self.truth.code_condition()
        cond = [owner.get((e.system, e.group_id)) for e in self.vocab.entries]
        sims, same = [], []
        for i in range(len(cond)):
            for j in range(i + 1, len(cond)):
                if cond[i] is not None and cond[j] is not None:
                    sims.append(float(emb[i] @ emb[j]))
                    same.append(1.0 if cond[i] == cond[j] else 0.0)
        pair_auc = auc_roc(sims, same)
        failures = []
        if not pair_auc >= self.PAIR_AUC_MIN:
            failures.append(f"pair_auc {pair_auc:.4f} < {self.PAIR_AUC_MIN}")
        return failures, {"pair_auc": pair_auc}


CLI_STAGES = (
    ("preprocess", ["preprocess"]),
    ("train-code", ["train-code"]),
    ("train-text", ["train-text"]),
    ("represent", ["represent"]),
    ("train-task", ["train-task"]),
    ("evaluate", ["evaluate"]),
    ("evaluate-codes", ["evaluate", "--task", "codes"]),
    ("export", ["export"]),
)


class CliPipeline(Workload):
    """Every CLI stage in process, in a temporary run directory."""

    def __init__(self, seed: int, workdir: str, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.dir = tempfile.mkdtemp(prefix="cli-pipeline-", dir=workdir)
        self.config_path = os.path.join(self.dir, "bench_config.json")
        config = {
            "seed": seed,
            "task": "mortality",
            "paths": {"out": self.dir},
            # 400 patients keep an iteration near 9 s, so a run holds several.
            "synth": {"n_patients": 400, "n_conditions": 8, "label_noise": 0.1},
            # Short training: the stages, not convergence, are what is timed.
            # 24 code epochs keep dx recall@10 above the frequency baseline on
            # every cohort draw tried (seeds 1-16, smallest margin 0.032).
            "code_embedder": dict(CODE_SHAPE, epochs=24, lr_period=24, seed=3),
            "summarizer": dict(TEXT_SHAPE, epochs=2),
            "task_head": {"epochs": 30, "batch_size": 32},
            "eval": {"folds": 2, "recall_ks": [10]},
        }
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)

    def _stage(self, name: str, argv: list) -> None:
        region = self.tracer.region(f"cli.{name}") if self.tracer else contextlib.nullcontext()
        wall, cpu = time.perf_counter(), time.process_time()
        with region, contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv + ["--config", self.config_path])
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        total = self.stage_times.get(name, (0.0, 0.0))
        self.stage_times[name] = (total[0] + wall, total[1] + cpu)
        if code != 0:
            raise RuntimeError(f"visitrep {' '.join(argv)} exited with code {code}")

    def setup(self) -> None:
        self._stage("generate", ["generate"])

    def run(self) -> None:
        for name, argv in CLI_STAGES:
            self._stage(name, argv)

    def _read_json(self, name: str):
        with open(os.path.join(self.dir, name), encoding="utf-8") as fh:
            return json.load(fh)

    def check(self):
        failures = []
        with open(os.path.join(self.dir, "preprocessed.jsonl"), encoding="utf-8") as fh:
            visits = sum(len(json.loads(line)["visits"]) for line in fh if line.strip())
        with open(os.path.join(self.dir, "reps_mortality.jsonl"), encoding="utf-8") as fh:
            rows = sum(1 for line in fh if line.strip())
        if rows != visits:
            failures.append(f"reps_mortality.jsonl has {rows} rows for {visits} visits")
        codes = self._read_json("report_codes.json")
        model, base = codes["dx_recall@10"]["mean"], codes["dx_freq_recall@10"]["mean"]
        if not model > base:
            failures.append(f"dx recall@10 {model:.4f} does not beat the baseline {base:.4f}")
        auroc = self._read_json("report_mortality.json")["auroc"]["mean"]
        if not math.isfinite(auroc):
            failures.append(f"holdout AUROC is {auroc}")
        return failures, {"auroc_full": auroc, "dx_recall10_gap": model - base}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"fit-code": FitCode, "cli-pipeline": CliPipeline}
