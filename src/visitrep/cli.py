"""Command-line pipeline over the run directory.

Stages communicate only through the run directory's files (under --out),
each declared in ARTIFACTS with the stage that writes it: generate writes a
synthetic cohort, preprocess filters it and fixes the code vocabulary plus
a train / holdout patient split, the train-* stages write checkpoints,
represent writes per-visit vectors, and evaluate writes a metric report
(scoring the holdout patients, or with --crossval retraining per fold).
Files are replaced atomically and carry no timestamps, so re-running a
stage with the same config reproduces them byte for byte. Every read goes
through `_read`, whose errors name the file and the stage to run or re-run.
manifest.json records the sha256 of each RECORDED file a stage wrote or
read and checked; a reader given that digest (`_recorded`) skips only its
shape walk, on bytes that match it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from dataclasses import asdict, replace

from . import evaluation as ev
from .atomic import atomic_open, file_sha256, write_json
from .cohort import (
    TASK_CODES,
    TASK_LOS,
    CodeVocabulary,
    Cohort,
    build_vocabulary,
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
    RepresentationPipeline,
    join_representations,
    read_representations,
    write_representations,
)
from .shape import STRING, checker
from .synth import generate_cohort
from .tasks import balance_for_los, load_classifier, save_classifier, train_task
from .text_embedder import TokenVocabulary, load_summarizer, save_summarizer, train_summarizer


# Run-directory file -> the stage that writes it; "{task}" is the run's task.
ARTIFACTS = {
    "config.json": "every stage",
    **dict.fromkeys(["cohort.jsonl", "ground_truth.json"], "generate"),
    **dict.fromkeys(["preprocessed.jsonl", "vocab.json", "split.json"], "preprocess"),
    **dict.fromkeys(["code.ckpt", "code_history.json"], "train-code"),
    **dict.fromkeys(["text.ckpt", "token_vocab.json", "text_history.json"], "train-text"),
    "reps_{task}.jsonl": "represent",
    **dict.fromkeys(["head_{task}.ckpt", "head_{task}_history.json"], "train-task"),
    **dict.fromkeys(["report_{task}.json", "report_{task}.csv"], "evaluate"),
    **dict.fromkeys(["crossval_{task}.json", "crossval_{task}.csv"], "evaluate"),
    "code_embeddings.csv": "export",
    "manifest.json": "preprocess, represent",
}
# The files whose sha256 manifest.json records, "{task}" for every task.
RECORDED = ("preprocessed.jsonl", "reps_{task}.jsonl")


def _path(cfg: RunConfig, name: str) -> str:
    """Where artifact `name`, a key of ARTIFACTS, lives in the run directory."""
    if name not in ARTIFACTS:
        raise KeyError(f"{name} is not a run-directory artifact")
    return os.path.join(cfg.paths.out, name.format(task=cfg.task))


def _read(cfg: RunConfig, name: str, parse):
    """parse(the JSON document) of a .json artifact, else parse(its path).

    A missing file is `<path> not found; run <stage> first`; a ValueError from
    the parser names the file once (the path-taking parsers name it
    themselves) and ends `; re-run <stage>`."""
    path, stage = _path(cfg, name), ARTIFACTS[name]
    if not os.path.exists(path):
        raise ValidationError(f"{path} not found; run {stage} first")
    document = name.endswith(".json")
    try:
        if not document:
            return parse(path)
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except ValueError as exc:
        raise ValidationError(f"{path + ': ' if document else ''}{exc}; re-run {stage}") from exc


def _manifest(cfg: RunConfig) -> dict:
    """manifest.json as {file name: sha256 hex}. The manifest only spares a
    check, so an absent or unreadable file, one that is not a JSON object,
    and an entry that is not {"sha256": "<string>"} for a file RECORDED
    names all read as no entry, never as an error, and are not written back."""
    try:
        with open(_path(cfg, "manifest.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {}
    names = {name.format(task=task) for name in RECORDED for task in TASK_ALIASES}
    entries = doc.items() if isinstance(doc, dict) else ()
    return {
        name: entry["sha256"] for name, entry in entries
        if name in names and isinstance(entry, dict) and isinstance(entry.get("sha256"), str)
    }


def _recorded(cfg: RunConfig, name: str, reader):
    """`reader` given the sha256 manifest.json records for artifact `name`, or
    None: the one place a reader is offered the digest that lets it skip its
    shape walk, which it does only on bytes that match."""
    return functools.partial(reader, recorded=_manifest(cfg).get(name.format(task=cfg.task)))


def _record(cfg: RunConfig, *names) -> None:
    """Record in manifest.json the sha256 of each named artifact, bytes this
    stage wrote or read and checked, keeping the manifest's other entries."""
    manifest = _manifest(cfg)
    for name in names:
        path = _path(cfg, name)
        with open(path, "rb") as fh:
            manifest[os.path.basename(path)] = file_sha256(fh)
    write_json(_path(cfg, "manifest.json"), {n: {"sha256": d} for n, d in manifest.items()})


def _read_preprocessed(cfg: RunConfig) -> Cohort:
    """preprocessed.jsonl, through its recorded digest."""
    return _read(cfg, "preprocessed.jsonl", _recorded(cfg, "preprocessed.jsonl", ingest_cohort))


def _load_preprocessed(cfg: RunConfig):
    """preprocessed.jsonl and its code vocabulary, built as preprocess built
    vocab.json; only export reads that file back."""
    cohort = _read_preprocessed(cfg)
    return cohort, build_vocabulary(cohort)


_SPLIT = checker({key: [f"{key} id", STRING] for key in ("train", "holdout")}, "split")


def _read_split(cfg: RunConfig, cohort: Cohort):
    """(train ids, holdout ids) from split.json, each naming a patient of `cohort`."""
    known = set(cohort.patient_ids())

    def parse(obj):
        ids = [_SPLIT(obj)["train"], obj["holdout"]]
        faults = [
            (set(ids[0] + ids[1]) - known, "absent from preprocessed.jsonl"),
            (set(ids[0]) & set(ids[1]), "in both train and holdout"),
        ] + [
            ({pid for pid, n in Counter(listed).items() if n > 1}, f"listed twice in {key}")
            for key, listed in zip(("train", "holdout"), ids)
        ]
        for bad, what in faults:
            if bad:
                raise ValidationError(f"split: {len(bad)} patient id(s) {what}, first {min(bad)!r}")
        return ids

    return _read(cfg, "split.json", parse)


def _read_reps(cfg: RunConfig, cohort: Cohort):
    """The task's reps file, refused unless its visit keys are exactly the
    visits of `cohort` (represent writes one row per visit)."""
    task = cfg.internal_task
    visits = {(p.patient_id, vi) for p in cohort.patients for vi in range(len(p.visits))}
    read = _recorded(cfg, "reps_{task}.jsonl", read_representations)

    def parse(path):
        reps = read(path, task)
        keys = set(reps.keys)
        for bad, what in (
            (keys - visits, "holds {} visit(s) absent from preprocessed.jsonl"),
            (visits - keys, "lacks {} visit(s) of preprocessed.jsonl"),
        ):
            if bad:
                raise ValidationError(f"{path}: {what.format(len(bad))}, first {min(bad)!r}")
        return reps

    return _read(cfg, "reps_{task}.jsonl", parse)


# -- stages ------------------------------------------------------------------------


def cmd_generate(cfg: RunConfig, args) -> None:
    synth_cfg = replace(cfg.synth, seed=derive_seed(cfg.seed, "generate"))
    cohort, truth = generate_cohort(synth_cfg)
    path = _path(cfg, "cohort.jsonl")
    write_cohort_jsonl(cohort, path)
    write_json(_path(cfg, "ground_truth.json"), truth.to_json())
    print(f"wrote {path} ({len(cohort.patients)} patients)")
    print(f"wrote {_path(cfg, 'ground_truth.json')}")


def cmd_preprocess(cfg: RunConfig, args) -> None:
    # paths.cohort names a file outside the run directory, which no stage writes.
    own = cfg.paths.cohort
    cohort = ingest_cohort(own) if own else _read(cfg, "cohort.jsonl", ingest_cohort)
    group_map = load_group_map(cfg.paths.group_map) if cfg.paths.group_map else None
    pre = preprocess(
        cohort,
        min_code_freq=cfg.preprocess.min_code_freq,
        min_age=cfg.preprocess.min_age,
        min_visits=cfg.preprocess.min_visits,
        group_map=group_map,
    )
    write_cohort_jsonl(pre, _path(cfg, "preprocessed.jsonl"))
    _record(cfg, "preprocessed.jsonl")
    vocab = build_vocabulary(pre)
    write_json(_path(cfg, "vocab.json"), vocab.to_json())
    folds = patient_kfold_split(pre, cfg.eval.folds, derive_seed(cfg.seed, "split"))
    holdout = sorted(folds[0])
    train = sorted(set(pre.patient_ids()) - set(holdout))
    write_json(_path(cfg, "split.json"), {"holdout": holdout, "train": train})
    print(
        f"wrote {_path(cfg, 'preprocessed.jsonl')} "
        f"({len(pre.patients)} patients, {len(vocab)} codes, {len(holdout)} held out)"
    )


def cmd_train_code(cfg: RunConfig, args) -> None:
    pre, vocab = _load_preprocessed(cfg)
    train_ids, _ = _read_split(cfg, pre)
    code_cfg = replace(cfg.code_embedder, seed=derive_seed(cfg.seed, "train-code"))
    model, history = train_code_embedder(pre.subset(train_ids), vocab, code_cfg)
    save_code_model(_path(cfg, "code.ckpt"), model, vocab.content_hash())
    write_json(_path(cfg, "code_history.json"), asdict(history))
    print(f"wrote {_path(cfg, 'code.ckpt')} (best epoch {history.best_epoch})")


def cmd_train_text(cfg: RunConfig, args) -> None:
    pre = _read_preprocessed(cfg)
    train_ids, _ = _read_split(cfg, pre)
    summ_cfg = replace(cfg.summarizer, seed=derive_seed(cfg.seed, "train-text"))
    model, history = train_summarizer(pre.subset(train_ids), summ_cfg)
    write_json(_path(cfg, "token_vocab.json"), model.bag.vocab.to_json())
    save_summarizer(_path(cfg, "text.ckpt"), model)
    write_json(_path(cfg, "text_history.json"), asdict(history))
    print(f"wrote {_path(cfg, 'text.ckpt')} ({len(model.bag.vocab)} tokens)")


def _load_models(cfg: RunConfig, vocab: CodeVocabulary):
    """The code model and the summarizer, each refused where a width it was
    trained with differs from the run config's."""

    def configured(section, names, load):
        def parse(path):
            model = load(path)
            for name in names:
                got, want = getattr(model.config, name), getattr(getattr(cfg, section), name)
                if got != want:
                    raise ValidationError(
                        f"{path}: trained with {section}.{name} {got}, the config says {want}"
                    )
            return model

        return parse

    code_model = _read(cfg, "code.ckpt", configured(
        "code_embedder", ["d_code"], lambda path: load_code_model(path, vocab)
    ))
    token_vocab = _read(cfg, "token_vocab.json", TokenVocabulary.from_json)
    summarizer = _read(cfg, "text.ckpt", configured(
        "summarizer", ["d_text", "d_enc", "chunk_size"],
        lambda path: load_summarizer(path, token_vocab),
    ))
    return code_model, summarizer


def cmd_represent(cfg: RunConfig, args) -> None:
    pre, vocab = _load_preprocessed(cfg)
    train_ids, _ = _read_split(cfg, pre)
    code_model, summarizer = _load_models(cfg, vocab)
    pipeline = RepresentationPipeline(code_model, summarizer, vocab, pre.subset(train_ids))
    reps = pipeline.represent_cohort(pre, cfg.internal_task)
    path = _path(cfg, "reps_{task}.jsonl")
    write_representations(path, reps)
    _record(cfg, "preprocessed.jsonl", "reps_{task}.jsonl")
    print(f"wrote {path} ({len(reps.keys)} visits, width {pipeline.space.total_dim})")


def cmd_train_task(cfg: RunConfig, args) -> None:
    task = cfg.internal_task
    if task == TASK_CODES:
        raise ValidationError(
            "code prediction reuses the sequence model's output head; "
            "run evaluate --task codes against code.ckpt instead"
        )
    pre, vocab = _load_preprocessed(cfg)
    train_ids, _ = _read_split(cfg, pre)
    reps = _read_reps(cfg, pre)
    X, y = join_representations(reps, pre.subset(train_ids))
    head_cfg = replace(cfg.task_head, seed=derive_seed(cfg.seed, f"train-task:{cfg.task}"))
    model, history = train_task(X, y, task, head_cfg)
    path = _path(cfg, "head_{task}.ckpt")
    save_classifier(path, model, head_cfg, vocab.content_hash())
    write_json(_path(cfg, "head_{task}_history.json"), asdict(history))
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
    return {segments: name for name, segments in ev.ABLATION_VARIANTS.items()}[kept]


def _evaluate_artifacts(cfg: RunConfig) -> dict:
    task = cfg.internal_task
    pre, vocab = _load_preprocessed(cfg)
    train_ids, holdout = _read_split(cfg, pre)
    if task == TASK_CODES:
        model = _read(cfg, "code.ckpt", lambda path: load_code_model(path, vocab))
        values = ev.next_code_report(
            model, pre.subset(train_ids), pre.subset(holdout), vocab, cfg.eval.recall_ks
        )
        return {name: ev.MetricReport(name, [v]) for name, v in values.items()}

    reps = _read_reps(cfg, pre)
    model, _ = _read(cfg, "head_{task}.ckpt", lambda path: load_classifier(
        path, vocab.content_hash(), task=task, d_in=reps.vectors.shape[1]
    ))
    X_test, y_test = join_representations(reps, pre.subset(holdout))
    if task == TASK_LOS:
        _, y_train = join_representations(reps, pre.subset(train_ids))
        X_test, y_test = balance_for_los(
            y_train, X_test, y_test, seed=derive_seed(cfg.seed, "balance")
        )
    return {
        name: ev.MetricReport(name, [value])
        for name, value in ev.score_head(model, X_test, y_test, task).items()
    }


def cmd_evaluate(cfg: RunConfig, args) -> None:
    if args.crossval:
        pre = _read_preprocessed(cfg)
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
        base = "crossval_{task}"
    else:
        if args.ablate:
            raise ValidationError(
                "--ablate requires --crossval: the task head has to be retrained "
                "on the ablated inputs"
            )
        reports = _evaluate_artifacts(cfg)
        base = "report_{task}"
    ev.write_report_json(_path(cfg, base + ".json"), reports)
    ev.write_report_csv(_path(cfg, base + ".csv"), reports)
    print(f"wrote {_path(cfg, base + '.json')}")
    for name in sorted(reports):
        rep = reports[name]
        print(f"{name}: mean={rep.mean:.6f} std={rep.std:.6f} folds={len(rep.folds)}")


def cmd_export(cfg: RunConfig, args) -> None:
    vocab = _read(cfg, "vocab.json", CodeVocabulary.from_json)
    model = _read(cfg, "code.ckpt", lambda path: load_code_model(path, vocab))
    path = _path(cfg, "code_embeddings.csv")
    matrix = model.embed.data
    with atomic_open(path) as fh:
        fh.write("code_id," + ",".join(f"e{i}" for i in range(matrix.shape[1])) + "\n")
        for entry, row in zip(vocab.entries, matrix):
            fh.write(entry.code_id + "," + ",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {path} ({matrix.shape[0]} codes x {matrix.shape[1]} dims)")


COMMANDS = {
    "generate": (cmd_generate, "write a synthetic cohort and its ground truth"),
    "preprocess": (cmd_preprocess, "filter the cohort, fix the vocabulary and patient split"),
    "train-code": (cmd_train_code, "fit the visit-sequence code embedder"),
    "train-text": (cmd_train_text, "fit the note-text summarizer"),
    "represent": (cmd_represent, "write per-visit representation vectors"),
    "train-task": (cmd_train_task, "fit a task head on the training split"),
    "evaluate": (cmd_evaluate, "score the holdout split, or --crossval for the full harness"),
    "export": (cmd_export, "write the code embedding matrix as CSV"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visitrep",
        description="Patient-representation pipeline over visit codes, note text, and demographics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
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
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        os.makedirs(cfg.paths.out, exist_ok=True)
        write_run_config(cfg, _path(cfg, "config.json"))
        COMMANDS[args.command][0](cfg, args)
    except (ValueError, OSError) as exc:  # OSError names the path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
