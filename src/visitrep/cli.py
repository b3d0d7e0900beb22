"""Command-line pipeline over the run directory.

Stages communicate only through files under --out, so every stage can be
re-run from what the previous ones persisted: generate writes a synthetic
cohort, preprocess filters it and fixes the code vocabulary plus a train /
holdout patient split, the train-* stages write checkpoints, represent
writes per-visit vectors, and evaluate writes a metric report (either
scoring the persisted artifacts on the holdout patients, or with
--crossval retraining everything per fold). Nothing writes timestamps, so
re-running a stage with the same config reproduces its files byte for
byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import asdict, replace

from . import evaluation as ev
from .cohort import (
    TASK_CODES,
    TASK_LOS,
    CodeVocabulary,
    Cohort,
    DemographicsCodec,
    build_vocabulary,
    extract_labels,
    ingest_cohort,
    load_group_map,
    patient_kfold_split,
    preprocess,
    write_cohort_jsonl,
)
from .code_embedder import load_code_model, save_code_model, train_code_embedder
from .config import TASK_ALIASES, RunConfig, load_run_config, write_run_config
from .errors import ValidationError
from .numerics import derive_seed
from .patient_rep import (
    SEGMENTS,
    Representations,
    RepresentationPipeline,
    join_representations,
    read_representations,
    write_representations,
)
from .synth import generate_cohort, write_ground_truth
from .tasks import balance_for_los, load_classifier, save_classifier, train_task
from .text_embedder import TokenVocabulary, load_summarizer, save_summarizer, train_summarizer


def _p(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.paths.out, name)


def _need(path: str, hint: str) -> str:
    if not os.path.exists(path):
        raise ValidationError(f"{path} not found; {hint}")
    return path


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_artifact(cfg: RunConfig, name: str, stage: str, parse):
    """parse(JSON of run-directory file `name`); a missing or malformed file
    is an error naming the file and the stage that writes it."""
    path = _need(_p(cfg, name), f"run {stage} first")
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}; re-run {stage}") from exc


def _load_preprocessed(cfg: RunConfig):
    cohort = ingest_cohort(_need(_p(cfg, "preprocessed.jsonl"), "run preprocess first"))
    return cohort, _read_artifact(cfg, "vocab.json", "preprocess", CodeVocabulary.from_json)


def _read_split(cfg: RunConfig, cohort: Cohort):
    """(train ids, holdout ids) from split.json, each naming a patient of `cohort`."""
    known = set(cohort.patient_ids())

    def parse(obj):
        ids = [obj.get(key) if isinstance(obj, dict) else None for key in ("train", "holdout")]
        if not all(isinstance(x, list) and all(isinstance(i, str) for i in x) for x in ids):
            raise ValidationError("split: expected 'train' and 'holdout' lists of patient ids")
        unknown = sorted(set(ids[0] + ids[1]) - known)
        if unknown:
            raise ValidationError(
                f"split: {len(unknown)} patient id(s) absent from preprocessed.jsonl, "
                f"first {unknown[0]!r}"
            )
        both = sorted(set(ids[0]) & set(ids[1]))
        if both:
            raise ValidationError(
                f"split: {len(both)} patient id(s) in both train and holdout, first {both[0]!r}"
            )
        for key, listed in zip(("train", "holdout"), ids):
            twice = sorted(pid for pid, n in Counter(listed).items() if n > 1)
            if twice:
                raise ValidationError(
                    f"split: {len(twice)} patient id(s) listed twice in {key}, first {twice[0]!r}"
                )
        return ids

    return _read_artifact(cfg, "split.json", "preprocess", parse)


# -- stages ------------------------------------------------------------------------


def cmd_generate(cfg: RunConfig, args) -> None:
    synth_cfg = replace(cfg.synth, seed=derive_seed(cfg.seed, "generate"))
    cohort, truth = generate_cohort(synth_cfg)
    path = _p(cfg, "cohort.jsonl")
    write_cohort_jsonl(cohort, path)
    write_ground_truth(truth, _p(cfg, "ground_truth.json"))
    print(f"wrote {path} ({len(cohort.patients)} patients)")
    print(f"wrote {_p(cfg, 'ground_truth.json')}")


def cmd_preprocess(cfg: RunConfig, args) -> None:
    src = cfg.paths.cohort or _p(cfg, "cohort.jsonl")
    _need(src, "run generate first, or point paths.cohort at a cohort file")
    cohort = ingest_cohort(src)
    group_map = load_group_map(cfg.paths.group_map) if cfg.paths.group_map else None
    pre = preprocess(
        cohort,
        min_code_freq=cfg.preprocess.min_code_freq,
        min_age=cfg.preprocess.min_age,
        min_visits=cfg.preprocess.min_visits,
        group_map=group_map,
    )
    write_cohort_jsonl(pre, _p(cfg, "preprocessed.jsonl"))
    vocab = build_vocabulary(pre)
    _write_json(_p(cfg, "vocab.json"), vocab.to_json())
    folds = patient_kfold_split(pre, cfg.eval.folds, derive_seed(cfg.seed, "split"))
    holdout = sorted(folds[0])
    train = sorted(set(pre.patient_ids()) - set(holdout))
    _write_json(
        _p(cfg, "split.json"),
        {"folds": cfg.eval.folds, "holdout": holdout, "train": train},
    )
    print(
        f"wrote {_p(cfg, 'preprocessed.jsonl')} "
        f"({len(pre.patients)} patients, {len(vocab)} codes, {len(holdout)} held out)"
    )


def cmd_train_code(cfg: RunConfig, args) -> None:
    pre, vocab = _load_preprocessed(cfg)
    train_ids, _ = _read_split(cfg, pre)
    code_cfg = replace(cfg.code_embedder, seed=derive_seed(cfg.seed, "train-code"))
    model, history = train_code_embedder(pre.subset(train_ids), vocab, code_cfg)
    save_code_model(_p(cfg, "code.ckpt"), model, vocab.content_hash())
    _write_json(_p(cfg, "code_history.json"), asdict(history))
    print(f"wrote {_p(cfg, 'code.ckpt')} (best epoch {history.best_epoch})")


def cmd_train_text(cfg: RunConfig, args) -> None:
    pre, _ = _load_preprocessed(cfg)
    train_ids, _ = _read_split(cfg, pre)
    summ_cfg = replace(cfg.summarizer, seed=derive_seed(cfg.seed, "train-text"))
    model, history = train_summarizer(pre.subset(train_ids), summ_cfg)
    _write_json(_p(cfg, "token_vocab.json"), model.bag.vocab.to_json())
    save_summarizer(_p(cfg, "text.ckpt"), model)
    _write_json(_p(cfg, "text_history.json"), asdict(history))
    print(f"wrote {_p(cfg, 'text.ckpt')} ({len(model.bag.vocab)} tokens)")


def _load_models(cfg: RunConfig, vocab: CodeVocabulary):
    code_model = load_code_model(_need(_p(cfg, "code.ckpt"), "run train-code first"), vocab)
    token_vocab = _read_artifact(cfg, "token_vocab.json", "train-text", TokenVocabulary.from_json)
    summarizer = load_summarizer(_need(_p(cfg, "text.ckpt"), "run train-text first"), token_vocab)
    conflicts = []
    if code_model.config.d_code != cfg.code_embedder.d_code:
        conflicts.append(
            f"code_embedder.d_code is {cfg.code_embedder.d_code} in the config "
            f"but {code_model.config.d_code} in code.ckpt"
        )
    for name in ("d_text", "d_enc", "chunk_size"):
        want, got = getattr(cfg.summarizer, name), getattr(summarizer.config, name)
        if want != got:
            conflicts.append(f"summarizer.{name} is {want} in the config but {got} in text.ckpt")
    if conflicts:
        raise ValidationError(
            "config/checkpoint conflict: "
            + "; ".join(conflicts)
            + "; re-run the training stages or restore the config"
        )
    return code_model, summarizer


def cmd_represent(cfg: RunConfig, args) -> None:
    pre, vocab = _load_preprocessed(cfg)
    train_ids, _ = _read_split(cfg, pre)
    code_model, summarizer = _load_models(cfg, vocab)
    codec = DemographicsCodec.from_cohort(pre.subset(train_ids))
    pipeline = RepresentationPipeline(code_model, summarizer, codec, vocab)
    reps = pipeline.represent_cohort(pre, cfg.internal_task)
    path = _p(cfg, f"reps_{cfg.task}.jsonl")
    write_representations(path, reps)
    print(f"wrote {path} ({len(reps.keys)} visits, width {pipeline.space.total_dim})")


def _read_reps(cfg: RunConfig) -> Representations:
    """reps_<task>.jsonl; a fault or a foreign task names the file and the fix."""
    path = _need(_p(cfg, f"reps_{cfg.task}.jsonl"), "run represent first")
    try:
        reps = read_representations(path)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{exc}; re-run represent") from exc
    if reps.task != cfg.internal_task:
        raise ValidationError(
            f"{path} holds representations for task {reps.task!r}, "
            f"not {cfg.internal_task!r}; re-run represent"
        )
    return reps


def cmd_train_task(cfg: RunConfig, args) -> None:
    task = cfg.internal_task
    if task == TASK_CODES:
        raise ValidationError(
            "code prediction reuses the sequence model's output head; "
            "run evaluate --task codes against code.ckpt instead"
        )
    pre, vocab = _load_preprocessed(cfg)
    train_ids, _ = _read_split(cfg, pre)
    reps = _read_reps(cfg)
    X, y, _ = join_representations(reps, extract_labels(pre.subset(train_ids), task))
    head_cfg = replace(cfg.task_head, seed=derive_seed(cfg.seed, f"train-task:{cfg.task}"))
    model, history = train_task(X, y, task, head_cfg)
    path = _p(cfg, f"head_{cfg.task}.ckpt")
    save_classifier(path, model, head_cfg, vocab.content_hash())
    _write_json(_p(cfg, f"head_{cfg.task}_history.json"), asdict(history))
    print(f"wrote {path} ({X.shape[0]} training visits)")


def _variant_from_ablate(ablate: str) -> str:
    zeroed = [s.strip() for s in ablate.split(",") if s.strip()]
    unknown = set(zeroed) - set(SEGMENTS)
    if unknown:
        raise ValidationError(
            f"--ablate: unknown segments {sorted(unknown)}, expected from {list(SEGMENTS)}"
        )
    kept = tuple(s for s in SEGMENTS if s not in zeroed)
    if not kept:
        raise ValidationError("--ablate: cannot zero every segment")
    for name, segments in ev.ABLATION_VARIANTS.items():
        if segments == kept:
            return name
    raise AssertionError(f"no variant keeps {kept}")


def _evaluate_artifacts(cfg: RunConfig) -> dict:
    task = cfg.internal_task
    pre, vocab = _load_preprocessed(cfg)
    train_ids, holdout = _read_split(cfg, pre)
    if task == TASK_CODES:
        model = load_code_model(_need(_p(cfg, "code.ckpt"), "run train-code first"), vocab)
        values = ev.next_code_report(
            model, pre.subset(train_ids), pre.subset(holdout), vocab, cfg.eval.recall_ks
        )
        return {name: ev.MetricReport(name, [v]) for name, v in values.items()}

    reps = _read_reps(cfg)
    model, _ = load_classifier(
        _need(_p(cfg, f"head_{cfg.task}.ckpt"), "run train-task first"), vocab.content_hash()
    )
    X_test, y_test, _ = join_representations(reps, extract_labels(pre.subset(holdout), task))
    if X_test.shape[1] != model.d_in:
        raise ValidationError(
            f"representation width {X_test.shape[1]} does not match the classifier "
            f"input width {model.d_in}; re-run represent and train-task together"
        )
    if task == TASK_LOS:
        train_xy = join_representations(reps, extract_labels(pre.subset(train_ids), task))[:2]
        _, (X_test, y_test) = balance_for_los(
            train_xy, (X_test, y_test), seed=derive_seed(cfg.seed, "balance")
        )
    return {
        name: ev.MetricReport(name, [value])
        for name, value in ev.score_head(model, X_test, y_test, task).items()
    }


def cmd_evaluate(cfg: RunConfig, args) -> None:
    if args.crossval:
        pre, _ = _load_preprocessed(cfg)
        variant = _variant_from_ablate(args.ablate) if args.ablate else "full"
        eval_cfg = replace(cfg.eval, seed=derive_seed(cfg.seed, "evaluate"))
        reports = ev.crossval(
            pre,
            cfg.internal_task,
            code_config=cfg.code_embedder,
            summarizer_config=cfg.summarizer,
            head_config=cfg.task_head,
            eval_config=eval_cfg,
            ablations=(variant,),
        )
        base = f"crossval_{cfg.task}"
    else:
        if args.ablate:
            raise ValidationError(
                "--ablate requires --crossval: the task head has to be retrained "
                "on the ablated inputs"
            )
        reports = _evaluate_artifacts(cfg)
        base = f"report_{cfg.task}"
    ev.write_report_json(_p(cfg, base + ".json"), reports)
    ev.write_report_csv(_p(cfg, base + ".csv"), reports)
    print(f"wrote {_p(cfg, base + '.json')}")
    for name in sorted(reports):
        rep = reports[name]
        print(f"{name}: mean={rep.mean:.6f} std={rep.std:.6f} folds={len(rep.folds)}")


def cmd_export(cfg: RunConfig, args) -> None:
    vocab = _read_artifact(cfg, "vocab.json", "preprocess", CodeVocabulary.from_json)
    model = load_code_model(_need(_p(cfg, "code.ckpt"), "run train-code first"), vocab)
    path = _p(cfg, "code_embeddings.csv")
    matrix = model.embed.data
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("code_id," + ",".join(f"e{i}" for i in range(matrix.shape[1])) + "\n")
        for entry, row in zip(vocab.entries, matrix):
            fh.write(entry.code_id + "," + ",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {path} ({matrix.shape[0]} codes x {matrix.shape[1]} dims)")


COMMANDS = {
    "generate": cmd_generate,
    "preprocess": cmd_preprocess,
    "train-code": cmd_train_code,
    "train-text": cmd_train_text,
    "represent": cmd_represent,
    "train-task": cmd_train_task,
    "evaluate": cmd_evaluate,
    "export": cmd_export,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visitrep",
        description="Patient-representation pipeline over visit codes, note text, and demographics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "generate": "write a synthetic cohort and its ground truth",
        "preprocess": "filter the cohort, fix the vocabulary and patient split",
        "train-code": "fit the visit-sequence code embedder",
        "train-text": "fit the note-text summarizer",
        "represent": "write per-visit representation vectors",
        "train-task": "fit a task head on the training split",
        "evaluate": "score the holdout split, or --crossval for the full harness",
        "export": "write the code embedding matrix as CSV",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="run config JSON")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", metavar="DIR", help="override the run directory")
        p.add_argument("--task", choices=sorted(TASK_ALIASES), help="override the config task")
        p.add_argument("--folds", type=int, help="override eval.folds")
        if name == "evaluate":
            p.add_argument(
                "--crossval", action="store_true", help="retrain everything per fold"
            )
            p.add_argument(
                "--ablate",
                metavar="SEGMENTS",
                help="comma list of segments to zero (code,text,demo); needs --crossval",
            )
    return parser


def _resolve(args) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out:
        cfg = replace(cfg, paths=replace(cfg.paths, out=args.out))
    if args.task:
        cfg = replace(cfg, task=args.task)
    if args.folds is not None:
        cfg = replace(cfg, eval=replace(cfg.eval, folds=args.folds))
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        os.makedirs(cfg.paths.out, exist_ok=True)
        write_run_config(cfg, _p(cfg, "config.json"))
        COMMANDS[args.command](cfg, args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
