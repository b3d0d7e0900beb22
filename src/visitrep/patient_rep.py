"""Per-visit patient vectors assembled from the frozen upstream models.

A visit's vector is the concatenation [code; text; demo]. The code segment
comes from the causal encoder over the patient's earlier visits (for the
clinical tasks the current visit's codes are excluded; for next-code
prediction the current visit is included since the target is the following
one). The text segment summarizes the task's note window; a visit with no
usable text gets a zero segment, as does the first visit's code segment.
The demographics segment is the per-visit snapshot (age drifts with time).

Inference is batched. The text pass chunks every visit's task text into
token-id windows and hands them to `text_embedder.sentence_batches`, the
path summarizer training uses: visits are grouped by sentence count, each
batch of the summarizer's batch size is bag-encoded in one `encode_batch`
and summarized in one `summarize`, so no visit is padded with extra
sentences. The code pass encodes the histories of each
code-model batch of patients in one padded forward; the causal and
padding masks keep every row equal to its own unpadded forward.

Extraction never mutates the upstream models, so segments can be zeroed
after the fact to produce every ablation variant from one pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cohort import (
    TASK_CODES,
    TASKS,
    Cohort,
    CodeVocabulary,
    DemographicsCodec,
    encode_visit_codes,
    select_task_text,
)
from .code_embedder import CodeEmbedderModel, encode_history
from .errors import ValidationError
from .text_embedder import (
    BagEncoder,
    SummarizerModel,
    sentence_batches,
    summarize,
    text_chunks,
)

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


@dataclass(frozen=True)
class PatientRepresentation:
    patient_id: str
    visit_index: int
    task: str
    vector: np.ndarray


def assemble(space: RepresentationSpace, code_vec, text_vec, demo_vec) -> np.ndarray:
    """Concatenate the three segments, checking each width by name."""
    parts = (("code", code_vec, space.d_code), ("text", text_vec, space.d_enc),
             ("demo", demo_vec, space.d_demo))
    for name, vec, want in parts:
        vec = np.asarray(vec)
        if vec.shape != (want,):
            raise ValidationError(
                f"{name} segment: expected length {want}, got shape {vec.shape}"
            )
    return np.concatenate([code_vec, text_vec, demo_vec]).astype(np.float64)


def read_segment(space: RepresentationSpace, z: np.ndarray, name: str) -> np.ndarray:
    if name not in SEGMENTS:
        raise ValidationError(f"unknown segment {name!r}, expected one of {SEGMENTS}")
    lo, hi = space.offsets()[name]
    return z[..., lo:hi]


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
    """Joins the frozen models into per-visit vectors for one cohort."""

    def __init__(
        self,
        code_model: CodeEmbedderModel,
        encoder: BagEncoder,
        summarizer: SummarizerModel,
        demo_codec: DemographicsCodec,
        vocab: CodeVocabulary,
    ):
        self.code_model = code_model
        self.encoder = encoder
        self.summarizer = summarizer
        self.demo_codec = demo_codec
        self.vocab = vocab
        self.space = RepresentationSpace(
            d_code=code_model.config.d_code,
            d_enc=summarizer.config.d_enc,
            d_demo=demo_codec.dim,
        )

    def _text_vectors(self, cohort: Cohort, task: str) -> np.ndarray:
        """(visits, d_enc) text segments in cohort visit order; a visit with
        no usable text keeps a zero row."""
        config = self.summarizer.config
        chunks = [
            text_chunks(select_task_text(visit, task), self.encoder.vocab, config.chunk_size)
            for record in cohort.patients
            for visit in record.visits
        ]
        out = np.zeros((len(chunks), self.space.d_enc))
        for rows, u in sentence_batches(self.encoder, chunks, config.batch_size):
            out[rows] = summarize(self.summarizer, u.data)
        return out

    def represent_cohort(self, cohort: Cohort, task: str) -> list:
        """One PatientRepresentation per visit, in cohort order."""
        if task not in TASKS:
            raise ValidationError(f"unknown task {task!r}, expected one of {TASKS}")
        text = iter(self._text_vectors(cohort, task))
        patients = cohort.patients
        step = self.code_model.config.batch_size
        reps = []
        for start in range(0, len(patients), step):
            chunk = patients[start : start + step]
            histories = encode_history(
                self.code_model,
                [np.stack([encode_visit_codes(v, self.vocab) for v in r.visits]) for r in chunk],
            )
            for record, history in zip(chunk, histories):
                for vi in range(len(record.visits)):
                    if task == TASK_CODES:
                        code_vec = history[vi]
                    elif vi == 0:
                        code_vec = np.zeros(self.space.d_code)
                    else:
                        code_vec = history[vi - 1]
                    z = assemble(
                        self.space, code_vec, next(text), self.demo_codec.encode(record, vi)
                    )
                    reps.append(PatientRepresentation(record.patient_id, vi, task, z))
        return reps


def write_representations(path, reps) -> None:
    """JSONL export, one visit per line, values rounded to float32."""
    with open(path, "w", encoding="utf-8") as fh:
        for rep in reps:
            row = {
                "patient_id": rep.patient_id,
                "visit_index": rep.visit_index,
                "task": rep.task,
                "z": [float(v) for v in rep.vector.astype(np.float32)],
            }
            fh.write(json.dumps(row) + "\n")


def read_representations(path) -> list:
    reps = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                rep = PatientRepresentation(
                    patient_id=obj["patient_id"],
                    visit_index=int(obj["visit_index"]),
                    task=obj["task"],
                    vector=np.asarray(obj["z"], dtype=np.float64),
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad representation row ({exc})") from exc
            reps.append(rep)
    return reps


def join_representations(reps, labels):
    """Align representations with labels on (patient_id, visit_index).

    Returns (X, y, keys) for the visits present on both sides, ordered by
    the label list. y is a float vector for scalar targets or a matrix for
    multi-hot targets.
    """
    by_key = {(r.patient_id, r.visit_index): r for r in reps}
    rows, targets, keys = [], [], []
    for label in labels:
        key = (label.patient_id, label.visit_index)
        rep = by_key.get(key)
        if rep is None:
            continue
        rows.append(rep.vector)
        targets.append(label.value)
        keys.append(key)
    if not rows:
        raise ValidationError("no overlap between representations and labels")
    X = np.stack(rows)
    first = targets[0]
    if isinstance(first, np.ndarray):
        y = np.stack(targets)
    else:
        y = np.asarray(targets, dtype=np.float64)
    return X, y, keys
