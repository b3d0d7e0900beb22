"""Downstream classifier heads trained on frozen per-visit vectors.

One hidden layer at half the input width with ReLU, then a task-shaped
output: a single sigmoid probability for the binary tasks, nine softmax
probabilities for length-of-stay. Heads never touch upstream parameters;
they see only the exported vectors. Next-code prediction has no head here
because the sequence model's own output layer already ranks codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .checkpoint import load_params, read_model, write_checkpoint
from .cohort import N_LOS_CLASSES, TASK_CODES, TASK_LOS, TASK_MORTALITY, TASK_READMISSION
from .errors import CheckpointError, ValidationError
from .jsonconfig import JsonConfig
from .numerics import Parameter, Tensor
from .shape import COUNT, POSITIVE, Scalar, checker, number_in

BINARY_TASKS = (TASK_READMISSION, TASK_MORTALITY)
HEAD_TASKS = (*BINARY_TASKS, TASK_LOS)
PROB_CLIP = 1e-7


@dataclass(frozen=True)
class TaskHeadConfig(JsonConfig):
    json_name = "config.task_head"
    json_fields = {**dict.fromkeys(["epochs", "batch_size", "lr_every"], POSITIVE),
                   "lr0": number_in(0, ends="()"), "lr_factor": number_in(0, 1, "(]"),
                   "seed": COUNT}

    epochs: int = 30
    batch_size: int = 32
    lr0: float = 1e-2
    lr_factor: float = 0.1
    lr_every: int = 10
    seed: int = 0


def task_output_width(task: str) -> int:
    if task in BINARY_TASKS:
        return 1
    if task == TASK_LOS:
        return N_LOS_CLASSES
    if task == TASK_CODES:
        raise ValidationError("code prediction uses the sequence model's output head")
    raise ValidationError(f"unknown task {task!r}")


class ClassifierModel:
    """Two-layer head: d_in -> ceil(d_in/2) with ReLU -> task outputs."""

    def __init__(self, d_in: int, task: str, rng):
        if d_in < 1:
            raise ValidationError(f"classifier: d_in must be >= 1, got {d_in}")
        self.d_in = d_in
        self.task = task
        self.n_out = task_output_width(task)
        hidden = math.ceil(d_in / 2)
        self.hidden = hidden
        self.w1 = Parameter(nm.uniform_init(rng, (d_in, hidden), fan_in=d_in), name="w1")
        self.b1 = Parameter(np.zeros(hidden), name="b1")
        self.w2 = Parameter(nm.uniform_init(rng, (hidden, self.n_out), fan_in=hidden), name="w2")
        self.b2 = Parameter(np.zeros(self.n_out), name="b2")

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, x: Tensor) -> Tensor:
        """Probabilities (n, n_out): sigmoid when binary, softmax otherwise."""
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ValidationError(
                f"classifier expects input of width {self.d_in}, got shape {x.shape}"
            )
        h = nm.linear(x, self.w1, self.b1, relu=True)
        logits = nm.linear(h, self.w2, self.b2)
        if self.n_out == 1:
            return nm.sigmoid(logits)
        return nm.softmax(logits)


def predict(model: ClassifierModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities of (n, d_in) rows: (n,) for binary heads, (n, 9)
    for length of stay."""
    probs = model.forward(Tensor(x)).data
    return probs[:, 0] if model.n_out == 1 else probs


def _los_one_hot(y: np.ndarray) -> np.ndarray:
    """Length-of-stay classes 1..9 to one-hot columns 0..8."""
    y = np.asarray(y)
    if not np.isin(y, np.arange(1, N_LOS_CLASSES + 1)).all():
        raise ValidationError(
            f"length-of-stay labels must be integers in 1..{N_LOS_CLASSES}"
        )
    hot = np.zeros((len(y), N_LOS_CLASSES))
    hot[np.arange(len(y)), y.astype(int) - 1] = 1.0
    return hot


def classification_loss(probs: Tensor, y: np.ndarray, task: str) -> Tensor:
    """Mean cross-entropy; binary targets use both log terms."""
    n = probs.shape[0]
    if task in BINARY_TASKS:
        target = np.asarray(y, dtype=np.float64).reshape(n, 1)
        return nm.scale(nm.binary_xent(probs, target, 1.0 - target, PROB_CLIP), 1.0 / n)
    hot = _los_one_hot(y)
    picked = nm.mul(Tensor(hot), nm.log(nm.clip(probs, PROB_CLIP, 1.0)))
    return nm.scale(nm.tsum(picked), -1.0 / n)


def train_task(X: np.ndarray, y: np.ndarray, task: str, config: TaskHeadConfig = None):
    """Fit one head on precomputed vectors; returns (model, history)."""
    config = config or TaskHeadConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    task_output_width(task)
    if X.ndim != 2 or len(X) != len(y):
        raise ValidationError(
            f"train_task: X {X.shape} and y {y.shape} must align on one row per visit"
        )
    if len(np.unique(y)) < 2:
        raise ValidationError("train_task: training labels contain a single class")
    if task in BINARY_TASKS and not np.isin(y, (0.0, 1.0)).all():
        raise ValidationError(f"train_task: {task} labels must be 0 or 1")
    if task == TASK_LOS:
        _los_one_hot(y)  # validates the label range up front

    rng = np.random.default_rng(config.seed)
    model = ClassifierModel(X.shape[1], task, rng)
    n = len(X)

    def batches(order):
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            probs = model.forward(Tensor(X[rows]))
            yield classification_loss(probs, y[rows], task), len(rows)

    history = nm.fit(
        model.parameters(),
        nm.StepDecay(lr0=config.lr0, factor=config.lr_factor, every=config.lr_every),
        config.epochs,
        rng,
        n,
        batches,
    )
    return model, history


def balance_for_los(y_train, X_test, y_test, seed: int = 0):
    """The test split (X, y) downsampled to equal per-class counts.

    Classes are those present in the training labels; a training class with
    no test examples is an error (the balanced test could not cover it). The
    rows chosen depend on the labels and the seed alone.
    """
    y_test = np.asarray(y_test)
    classes = sorted(np.unique(y_train).tolist())
    missing = [int(c) for c in classes if not (y_test == c).any()]
    if missing:
        raise ValidationError(
            f"balance_for_los: test split has no examples of classes {missing}"
        )
    per_class = min(int((y_test == c).sum()) for c in classes)
    rng = np.random.default_rng(seed)
    chosen = []
    for c in classes:
        pool = np.flatnonzero(y_test == c)
        chosen.extend(rng.choice(pool, size=per_class, replace=False).tolist())
    chosen = np.array(sorted(chosen))
    return np.asarray(X_test)[chosen], y_test[chosen]


def save_classifier(path, model: ClassifierModel, config: TaskHeadConfig, vocab_hash: str) -> None:
    """Persist one task head; the hash ties it to the upstream vocabulary."""
    meta = {"d_in": model.d_in, "task": model.task, "task_head": config.to_json()}
    write_checkpoint(path, "classifier", meta, vocab_hash, model.parameters())


_HEADER = checker({"task": Scalar({str}, f"one of {HEAD_TASKS}", HEAD_TASKS.__contains__),
                   "d_in": POSITIVE}, "header")


def load_classifier(path, vocab_hash: str, task: str, d_in: int):
    """Rebuild (model, config); refuses other kinds, other vocabularies and a
    head of another task or input width."""
    config, meta, arrays = read_model(path, "classifier", vocab_hash, "task_head", TaskHeadConfig)
    _HEADER(meta, path)
    head_task, width = meta["task"], meta["d_in"]
    if (task, d_in) != (head_task, width):
        raise CheckpointError(
            f"{path}: holds a {head_task!r} head of input width {width}, "
            f"expected a {task!r} head of width {d_in}"
        )
    model = ClassifierModel(width, head_task, np.random.default_rng(0))
    load_params(path, model.parameters(), arrays)
    return model, config
