"""Shared builders for hand-made cohort fixtures and test graphs."""

from __future__ import annotations

import numpy as np

import visitrep.numerics as nm
from visitrep.code_embedder import skip_gram_counts
from visitrep.cohort import Cohort, Note, PatientRecord, Visit, DAY, HOUR


def make_visit(
    admit_day: float = 0.0,
    los_days: float = 2.0,
    codes=(),
    notes=(),
    died: bool = False,
) -> Visit:
    """Build a Visit from day-denominated times and (system, code) pairs."""
    admit = int(admit_day * DAY)
    discharge = admit + int(los_days * DAY)
    code_objs = frozenset((s, c) for s, c in codes)
    note_objs = []
    for n in notes:
        if isinstance(n, Note):
            note_objs.append(n)
        else:
            offset_hours, text = n[0], n[1]
            kind = n[2] if len(n) > 2 else None
            note_objs.append(Note(time=admit + int(offset_hours * HOUR), text=text, kind=kind))
    return Visit(
        admit_time=admit,
        discharge_time=discharge,
        codes=code_objs,
        notes=tuple(sorted(note_objs, key=lambda n: n.time)),
        died_in_visit=died,
    )


def make_record(pid: str, visits, age: int = 50, gender: str = "f", race: str = "r0") -> PatientRecord:
    return PatientRecord(patient_id=pid, age=age, gender=gender, race=race, visits=tuple(visits))


def make_cohort(*records) -> Cohort:
    return Cohort(list(records))


def all_kernel_loss():
    """(build, params): a composite loss that routes gradients through all
    twenty kernels, and the four parameters it reads."""
    rng = np.random.default_rng(11)
    a = nm.Parameter(rng.normal(size=(3, 4)) * 0.5, name="a")
    b = nm.Parameter(rng.normal(size=(4, 3)) * 0.5, name="b")
    table = nm.Parameter(rng.normal(size=(5, 4)) * 0.5, name="table")
    v = nm.Parameter(rng.normal(size=(2, 3, 4)) * 0.5, name="v")
    mask = np.array(
        [[False, True, False], [True, False, False], [False, False, True]]
    )
    idx = np.array([0, 2, 4])

    def kernel_loss():
        prod = nm.matmul(a, b)
        att = nm.softmax(nm.masked_fill(nm.scale(prod, 0.5), mask))
        att2 = nm.matmul(att, nm.transpose(b))
        normed = nm.layer_norm(att2)
        acts = nm.relu(normed) + nm.tanh(normed) + nm.sigmoid(normed)
        mixed = nm.mul(acts, nm.gather_rows(table, idx))
        squashed = nm.sigmoid(nm.shift(nm.scale(mixed, 1.7), 0.3))
        logged = nm.log(nm.clip(squashed, 0.01, 0.99))
        t1 = nm.tsum(nm.reshape(logged, (2, 6)))
        t2 = nm.tsum(nm.mean(nm.slice_axis(v, 1, 1, 3), axis=1))
        t3 = nm.mean(nm.mean(nm.concat([prod, att], axis=0), axis=1), axis=0)
        return t1 + nm.scale(t2, 0.5) + t3

    return kernel_loss, [a, b, table, v]


def backward_graph_nodes(root):
    """Tensors a backward walk from root visits, leaves included."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent, _ in stack.pop()._vjps:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def padded(batch, rows: np.ndarray) -> np.ndarray:
    """A packed batch's (N, ...) rows in the padded (B, T, ...) layout of
    its `real` mask, zeros in the padded slots: the layout the composed
    oracles run on."""
    out = np.zeros(batch.real.shape + rows.shape[1:])
    out[batch.real] = rows
    return out


def row_counts(targets: np.ndarray, real: np.ndarray, window: int) -> tuple:
    """skip_gram_counts of the real rows of padded targets (B, T, |C|)."""
    return skip_gram_counts(targets[real], real.sum(axis=1), window)
