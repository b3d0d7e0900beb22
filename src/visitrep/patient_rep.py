"""Per-visit patient vectors built from the frozen upstream models.

A visit's vector is the concatenation [code; text; demo], and a task's
vectors are the rows of one `Representations` table. The code segment
comes from the causal encoder over the patient's earlier visits (for the
clinical tasks the current visit's codes are excluded; for next-code
prediction the current visit is included since the target is the following
one). The text segment summarizes the task's note window; a visit with no
usable text gets a zero segment, as does the first visit's code segment.
The demographics segment is the per-visit snapshot (age drifts with time).

Inference is batched, one block per segment. The code pass is one
`encode_history` call over every patient, which `forward_histories` runs
in packed code-model batches; attention's causal and padding masks keep
every row equal to the patient's own forward.
The text pass hands every visit's token-id windows to
`text_embedder.sentence_batches`, the path summarizer training uses: each
batch of visits with one sentence count is bag-encoded in one
`encode_batch` and summarized in one `summarize`, so no visit is padded
with extra sentences.

A JSONL export holds one task and one width. Each value is written as
`%.9g` of its float32 value, the fewest digits that read back to the same
float32 (a negative zero as `-0.0`), and is read back through float32, so
a file written with more digits reads to the same table. Given the sha256
a run directory's manifest records for the file, the reader skips the
`_ROW` shape walk on bytes that match it; every other check still runs.

Extraction never mutates the upstream models, so segments can be zeroed
after the fact to produce every ablation variant from one pass.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open, file_sha256
from .cohort import (
    TASK_CODES,
    TASKS,
    Cohort,
    CodeVocabulary,
    DemographicsCodec,
    extract_labels,
    select_task_text,
    visit_matrix,
)
from .code_embedder import CodeEmbedderModel, encode_history
from .errors import ValidationError
from .shape import COUNT, NAME, STRING, Scalar, checker
from .text_embedder import SummarizerModel, sentence_batches, summarize, text_chunks

SEGMENTS = ("code", "text", "demo")


@dataclass(frozen=True)
class RepresentationSpace:
    """Fixed segment layout of the concatenated vector."""

    d_code: int
    d_enc: int
    d_demo: int

    def __post_init__(self):
        for name in ("d_code", "d_enc", "d_demo"):
            if getattr(self, name) < 1:
                raise ValidationError(f"representation: {name} must be >= 1")

    @property
    def total_dim(self) -> int:
        return self.d_code + self.d_enc + self.d_demo

    def offsets(self) -> dict:
        return {
            "code": (0, self.d_code),
            "text": (self.d_code, self.d_code + self.d_enc),
            "demo": (self.d_code + self.d_enc, self.total_dim),
        }


@dataclass(frozen=True, eq=False)
class Representations:
    """One task's vectors: row i of `vectors` belongs to the visit keys[i]."""

    task: str
    keys: list  # of (patient_id, visit_index)
    vectors: np.ndarray  # (visits, width) float64


def zero_segments(z: np.ndarray, space: RepresentationSpace, keep) -> np.ndarray:
    """Copy of z (vector or matrix) with every segment outside `keep` zeroed."""
    keep = tuple(keep)
    unknown = set(keep) - set(SEGMENTS)
    if unknown:
        raise ValidationError(f"unknown segments {sorted(unknown)}, expected from {SEGMENTS}")
    if not keep:
        raise ValidationError("at least one segment must be kept")
    out = np.array(z, dtype=np.float64, copy=True)
    for name, (lo, hi) in space.offsets().items():
        if name not in keep:
            out[..., lo:hi] = 0.0
    return out


class RepresentationPipeline:
    """Joins the frozen models into per-visit vectors for one cohort; the
    demographics codec is fit on `train`, the patients the models saw."""

    def __init__(
        self,
        code_model: CodeEmbedderModel,
        summarizer: SummarizerModel,
        vocab: CodeVocabulary,
        train: Cohort,
    ):
        self.code_model = code_model
        self.summarizer = summarizer
        self.vocab = vocab
        self.demo_codec = DemographicsCodec.from_cohort(train)
        self.space = RepresentationSpace(
            d_code=code_model.config.d_code,
            d_enc=summarizer.config.d_enc,
            d_demo=self.demo_codec.dim,
        )

    def _text_vectors(self, cohort: Cohort, task: str) -> np.ndarray:
        """(visits, d_enc) text segments in cohort visit order; a visit with
        no usable text keeps a zero row."""
        config, bag = self.summarizer.config, self.summarizer.bag
        chunks = [
            text_chunks(select_task_text(visit, task), bag.vocab, config.chunk_size)
            for record in cohort.patients
            for visit in record.visits
        ]
        out = np.zeros((len(chunks), self.space.d_enc))
        for rows, u in sentence_batches(bag, chunks, config.batch_size):
            out[rows] = summarize(self.summarizer, u.data)
        return out

    def represent_cohort(self, cohort: Cohort, task: str) -> Representations:
        """The task's vectors for every visit, in cohort order."""
        if task not in TASKS:
            raise ValidationError(f"unknown task {task!r}, expected one of {TASKS}")
        patients = cohort.patients
        code = encode_history(self.code_model, [visit_matrix(r, self.vocab) for r in patients])
        if task != TASK_CODES:
            code = [np.vstack([np.zeros((1, self.space.d_code)), h[:-1]]) for h in code]
        keys = [(r.patient_id, vi) for r in patients for vi in range(len(r.visits))]
        demo = [self.demo_codec.encode(r, vi) for r in patients for vi in range(len(r.visits))]
        blocks = [np.concatenate(code), self._text_vectors(cohort, task), np.stack(demo)]
        return Representations(task, keys, np.hstack(blocks))


_NEGATIVE_ZERO = re.compile(r"-0(?=[,\]])")  # %.9g writes -0.0 as -0, which JSON reads as 0


def write_representations(path, reps: Representations) -> None:
    """JSONL export, one visit per line, written one row at a time: each value
    is the `%.9g` of its float32 value, a negative zero `-0.0`."""
    task = json.dumps(reps.task)
    z_format = "[" + ", ".join(["%.9g"] * reps.vectors.shape[1]) + "]"
    with atomic_open(path) as fh:
        for (patient_id, visit_index), row in zip(reps.keys, reps.vectors):
            z = _NEGATIVE_ZERO.sub("-0.0", z_format % tuple(row.astype(np.float32).tolist()))
            fh.write(f'{{"patient_id": {json.dumps(patient_id)}, "visit_index": '
                     f'{json.dumps(visit_index)}, "task": {task}, "z": {z}}}\n')


_ROW = checker({"patient_id": NAME, "visit_index": COUNT, "task": STRING,
                "z": ["z item", Scalar({float, int}, "a finite number", math.isfinite)]}, "row")


def read_representations(path, task: str, *, recorded=None) -> Representations:
    """The table a JSONL export holds. Each row, of the `_ROW` shape, needs a
    visit key of its own and the first row's task and width, and each value
    must be a finite float32; the file must hold at least one row, and rows
    for `task`. `recorded` is the sha256 the run directory's manifest holds
    for the file: when the bytes read match it, the `_ROW` walk is skipped."""
    rows, line_of = [], {}
    with open(path, "rb") as fh, np.errstate(over="ignore"):
        walk = recorded is None or file_sha256(fh) != recorded
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if walk:
                    _ROW(obj)
                z = np.array(obj["z"], dtype=np.float32)
            except (ValueError, OverflowError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad representation row ({exc})") from exc
            key, row_task = (obj["patient_id"], obj["visit_index"]), obj["task"]
            if not rows:
                first = (lineno, row_task, len(z))
            if (row_task, len(z)) != first[1:]:
                raise ValidationError(
                    f"{path}:{lineno}: task {row_task!r} and width {len(z)}, but line "
                    f"{first[0]} has task {first[1]!r} and width {first[2]}"
                )
            if key in line_of:
                raise ValidationError(
                    f"{path}:{lineno}: line {line_of[key]} already holds visit {key!r}"
                )
            line_of[key] = lineno
            rows.append(z)
    if not rows:
        raise ValidationError(f"{path}: no representation rows")
    if first[1] != task:
        raise ValidationError(f"{path} holds representations for task {first[1]!r}, not {task!r}")
    table = np.stack(rows)
    finite = np.isfinite(table)
    if not finite.all():
        row, item = np.argwhere(~finite)[0]
        raise ValidationError(
            f"{path}:{list(line_of.values())[row]}: bad representation row (z item {item} "
            "is outside the float32 range)"
        )
    return Representations(first[1], list(line_of), table.astype(np.float64))


def join_representations(reps: Representations, cohort: Cohort):
    """The labelled rows of `cohort` for the table's task: (X, y) for the
    visits `extract_labels` labels and the table holds, in label order, with
    y a float vector.
    """
    row_of = {key: i for i, key in enumerate(reps.keys)}
    rows, targets = [], []
    for label in extract_labels(cohort, reps.task):
        key = (label.patient_id, label.visit_index)
        if key in row_of:
            rows.append(row_of[key])
            targets.append(label.value)
    if not rows:
        raise ValidationError("no overlap between representations and labels")
    return reps.vectors[rows], np.asarray(targets, dtype=np.float64)
