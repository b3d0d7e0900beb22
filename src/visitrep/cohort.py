"""Longitudinal cohort model: ingestion, filtering, vocabularies, encodings,
task labels, task text windows, and patient-keyed fold splitting.

The on-disk form is JSON Lines, one patient per line:

    {"patient_id": "p1",
     "demographics": {"age": 63, "gender": "f", "race": "r0"},
     "visits": [{"admit_time": 0, "discharge_time": 172800,
                 "codes": [{"system": "dx", "code": "428"}],
                 "notes": [{"time": 3600, "kind": null, "text": "..."}],
                 "died_in_visit": false}]}

In memory a code is a (system, id) pair, and a visit holds a frozenset of
them. Equal code sets in a cohort are one shared frozenset: each function
that builds a cohort keeps a pool of the sets it has made. Grouping in
`preprocess` replaces the id by its group id, so a written preprocessed
cohort holds group ids.

Timestamps are integer seconds. Ingest checks each line against one
declared shape (`_RECORD`, see `visitrep.shape`), then the rules across
fields: a stay ends no earlier than it starts, note times stay inside
[admit - 1 day, discharge + 1 day], and no two visits share an admission
time (visits are kept in admission order). Bytes are checked once: given
the sha256 a run directory's manifest records for the file, ingest skips
the shape walk when the file's bytes match it, since preprocess writes
only records of that shape; the rules across fields still run. A record
that fails its unwalked parse with anything but a ValidationError is
walked then, so bytes edited under a re-recorded digest still name the
line.
"""

from __future__ import annotations

import csv
import hashlib
import json
import string
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np

from .atomic import atomic_open, file_sha256
from .errors import ValidationError
from .shape import COUNT, INTEGER, NAME, POSITIVE, STRING, Scalar, checker

HOUR = 3600
DAY = 86400
YEAR = 31_557_600  # 365.25 days

SYSTEMS = ("dx", "proc", "med")
READMISSION_WINDOW = 30 * DAY
DISCHARGE_SUMMARY_KIND = "discharge_summary"

TASK_READMISSION = "readmission30"
TASK_MORTALITY = "mortality"
TASK_LOS = "los9"
TASK_CODES = "code_prediction"
TASKS = (TASK_READMISSION, TASK_MORTALITY, TASK_LOS, TASK_CODES)

N_LOS_CLASSES = 9
# Age buckets: under 30 (and so any age under 18), 30-49, 50-69, and 70 on.
AGE_EDGES = (30, 50, 70)


@dataclass(frozen=True, slots=True)
class Note:
    time: int
    text: str
    kind: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Visit:
    admit_time: int
    discharge_time: int
    codes: frozenset  # of (system, id) tuples
    notes: tuple
    died_in_visit: bool = False

    def los_days(self) -> float:
        return (self.discharge_time - self.admit_time) / DAY


@dataclass(frozen=True, slots=True)
class PatientRecord:
    patient_id: str
    age: int
    gender: str
    race: str
    visits: tuple


@dataclass
class Cohort:
    patients: list

    def __len__(self) -> int:
        return len(self.patients)

    def __iter__(self):
        return iter(self.patients)

    def patient_ids(self) -> list[str]:
        return [p.patient_id for p in self.patients]

    def subset(self, ids: Iterable[str]) -> "Cohort":
        wanted = set(ids)
        return Cohort([p for p in self.patients if p.patient_id in wanted])

    def n_visits(self) -> int:
        return sum(len(p.visits) for p in self.patients)


# -- ingestion -------------------------------------------------------------------


_SYSTEM = Scalar({str}, f"one of {SYSTEMS}", SYSTEMS.__contains__)
_RECORD = checker({
    "patient_id": NAME, "demographics": {"age": COUNT, "gender": STRING, "race": STRING},
    "visits": ["visit", {
        "admit_time": INTEGER, "discharge_time": INTEGER,
        "codes": ["code", {"system": _SYSTEM, "code": NAME}],
        "notes?": ["note", {"time": INTEGER, "text": STRING,
                            "kind?": Scalar({str, type(None)}, "a string or null")}],
        "died_in_visit?": Scalar({bool}, "a boolean"),
    }],
}, "record")


def _utf8_lines(path: str, lines):
    """Yield (line number, text) for each byte line; one that is not UTF-8
    raises, naming the file and the line."""
    for lineno, line in enumerate(lines, start=1):
        try:
            yield lineno, line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValidationError(
                f"{path}: line {lineno}: not UTF-8 ({e.reason} at byte {e.start})")


def _parse_record(obj, where: str, pool: dict, walk: bool) -> PatientRecord:
    if walk:
        _RECORD(obj, where)
    visits = []
    for i, v in enumerate(obj["visits"]):
        admit, discharge = v["admit_time"], v["discharge_time"]
        if discharge < admit:
            raise ValidationError(
                f"{where}, visit {i}: discharge_time {discharge} < admit_time {admit}")
        notes = [Note(n["time"], n["text"], n.get("kind")) for n in v.get("notes", ())]
        for j, n in enumerate(notes):
            if not admit - DAY <= n.time <= discharge + DAY:
                raise ValidationError(f"{where}, visit {i}, note {j}: note time {n.time} "
                                      "outside [admit - 1d, discharge + 1d]")
        codes = frozenset(map(itemgetter("system", "code"), v["codes"]))
        codes = pool.setdefault(codes, codes)
        notes.sort(key=lambda n: n.time)
        visits.append(Visit(admit, discharge, codes, tuple(notes), v.get("died_in_visit", False)))
    if not visits:
        raise ValidationError(f"{where}: visits must be a non-empty list, got []")
    visits.sort(key=lambda v: v.admit_time)
    if any(a.admit_time == b.admit_time for a, b in zip(visits, visits[1:])):
        raise ValidationError(f"{where}: visits are not strictly ordered by admit_time")
    d = obj["demographics"]
    return PatientRecord(obj["patient_id"], d["age"], d["gender"], d["race"], tuple(visits))


def ingest_cohort(path: str, *, recorded: Optional[str] = None) -> Cohort:
    """Parse a JSONL cohort file; the first bad line raises, naming its number.

    `recorded` is the sha256 the run directory's manifest holds for the
    file: when the bytes read match it, the `_RECORD` shape walk is skipped.
    """
    patients: dict[str, PatientRecord] = {}
    pool: dict[frozenset, frozenset] = {}
    with open(path, "rb") as fh:
        walk = recorded is None or file_sha256(fh) != recorded
        for lineno, line in _utf8_lines(path, fh):
            if not line.strip(string.whitespace):
                continue
            where = f"{path}: line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"{where}: malformed JSON ({e.msg})")
            try:
                record = _parse_record(obj, where, pool, walk)
            except Exception as exc:
                if not (walk or isinstance(exc, ValidationError)):
                    _RECORD(obj, where)
                raise
            if record.patient_id in patients:
                raise ValidationError(f"{where}: duplicate patient_id {record.patient_id!r}")
            patients[record.patient_id] = record
    if not patients:
        raise ValidationError(f"{path}: no valid patient records")
    return Cohort(list(patients.values()))


def write_cohort_jsonl(cohort: Cohort, path: str) -> None:
    """Inverse of ingest_cohort; code order inside a visit is canonicalized."""
    with atomic_open(path) as fh:
        for p in cohort.patients:
            obj = {
                "patient_id": p.patient_id,
                "demographics": {"age": p.age, "gender": p.gender, "race": p.race},
                "visits": [
                    {
                        "admit_time": v.admit_time,
                        "discharge_time": v.discharge_time,
                        "codes": [{"system": s, "code": c} for s, c in sorted(v.codes)],
                        "notes": [
                            {"time": n.time, "kind": n.kind, "text": n.text} for n in v.notes
                        ],
                        "died_in_visit": v.died_in_visit,
                    }
                    for v in p.visits
                ],
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


# -- grouping and preprocessing -----------------------------------------------


def load_group_map(path: str) -> dict:
    """CSV with header 'raw_id,group_id' mapping codes onto coarser groups;
    a line that is not UTF-8, or a row with an empty raw or group id, raises,
    naming its number, so every code preprocess writes is a non-empty
    string. Lines end at \\n, \\r or \\r\\n."""
    mapping: dict[str, str] = {}
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    reader = csv.reader(text for _, text in _utf8_lines(path, lines))
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["raw_id", "group_id"]:
        raise ValidationError(f"{path}: expected header 'raw_id,group_id', got {header}")
    for i, row in enumerate(reader, start=2):
        if len(row) < 2:
            raise ValidationError(f"{path}: row {i} has fewer than two columns")
        for column, value in zip(("raw_id", "group_id"), row):
            if not value:
                raise ValidationError(f"{path}: row {i} has an empty {column}")
        mapping[row[0]] = row[1]
    return mapping


def code_counts(patients) -> Counter:
    """The number of visits each (system, id) code occurs in."""
    return Counter(code for p in patients for v in p.visits for code in v.codes)


def preprocess(
    cohort: Cohort,
    min_code_freq: int = 5,
    min_age: int = 18,
    min_visits: int = 1,
    group_map: Optional[dict] = None,
) -> Cohort:
    """Group codes, drop under-age / short-history patients, drop rare codes.

    A mapped code (system, id) becomes (system, group id), so the cohort
    written from the result re-ingests to the same codes; codes missing from
    the grouping map stay as they are. Frequencies
    are counted once per visit occurrence over the corpus that survives the
    patient filters, which makes the whole function idempotent.
    """
    grouped: list[PatientRecord] = []
    for p in cohort.patients:
        if p.age < min_age or len(p.visits) < min_visits:
            continue
        if group_map:
            new_visits = []
            for v in p.visits:
                codes = frozenset((s, group_map.get(c, c)) for s, c in v.codes)
                new_visits.append(replace(v, codes=codes))
            grouped.append(replace(p, visits=tuple(new_visits)))
        else:
            grouped.append(p)

    kept = {k for k, n in code_counts(grouped).items() if n >= min_code_freq}
    pool: dict[frozenset, frozenset] = {}  # trimmed once per distinct code set, shared
    trimmed = {codes: pool.setdefault(k := codes & kept, k)
               for codes in {v.codes for p in grouped for v in p.visits}}
    out = [replace(p, visits=tuple(replace(v, codes=trimmed[v.codes]) for v in p.visits))
           for p in grouped]

    if not out:
        raise ValidationError("preprocess: no patients survive the filters")
    return Cohort(out)


# -- vocabulary and encodings ----------------------------------------------------


@dataclass(frozen=True)
class VocabEntry:
    system: str
    group_id: str
    freq: int

    @property
    def code_id(self) -> str:
        return f"{self.system}:{self.group_id}"


class CodeVocabulary:
    """Dense, deterministic (system, group_id) <-> index mapping; an
    entry's index is its position in `entries`."""

    def __init__(self, entries: list):
        self.entries = list(entries)
        self._index = {(e.system, e.group_id): i for i, e in enumerate(self.entries)}
        if len(self._index) != len(self.entries):
            raise ValidationError("vocabulary: duplicate (system, group_id) entry")

    def __len__(self) -> int:
        return len(self.entries)

    def system_indices(self, system: str) -> np.ndarray:
        return np.array(
            [i for i, e in enumerate(self.entries) if e.system == system], dtype=np.intp
        )

    def content_hash(self) -> str:
        payload = json.dumps([[e.system, e.group_id] for e in self.entries])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_json(self) -> dict:
        return {
            "entries": [
                {"system": e.system, "group_id": e.group_id, "freq": e.freq}
                for e in self.entries
            ]
        }

    @staticmethod
    def from_json(obj: dict) -> "CodeVocabulary":
        entries = _VOCABULARY(obj)["entries"]
        return CodeVocabulary([VocabEntry(e["system"], e["group_id"], e["freq"]) for e in entries])


_VOCABULARY = checker(
    {"entries": ["entry", {"system": _SYSTEM, "group_id": NAME, "freq": POSITIVE}]}, "vocabulary")


def build_vocabulary(cohort: Cohort) -> CodeVocabulary:
    """Vocabulary over every code in the (already preprocessed) cohort,
    ordered by (system, group_id) so indices are reproducible."""
    freq = code_counts(cohort.patients)
    if not freq:
        raise ValidationError("build_vocabulary: cohort contains no codes")
    return CodeVocabulary(
        [VocabEntry(system=s, group_id=g, freq=freq[(s, g)]) for s, g in sorted(freq)]
    )


def encode_visit_codes(visit: Visit, vocab: CodeVocabulary) -> np.ndarray:
    """Multi-hot float64 vector; duplicates collapse, unknown codes are ignored."""
    x = np.zeros(len(vocab), dtype=np.float64)
    for code in visit.codes:
        idx = vocab._index.get(code)
        if idx is not None:
            x[idx] = 1.0
    return x


def visit_matrix(record: PatientRecord, vocab: CodeVocabulary) -> np.ndarray:
    """(visits, |C|) float64: the patient's visits as `encode_visit_codes` rows."""
    return np.stack([encode_visit_codes(v, vocab) for v in record.visits])


class DemographicsCodec:
    """One-hot gender and race (with reserved 'other' slots) plus age buckets.

    The age used for visit t is the recorded age plus whole years elapsed
    since the patient's first admission, so the vector can drift over time.
    """

    def __init__(self, genders: list, races: list):
        self.genders = sorted(set(genders))
        self.races = sorted(set(races))

    @staticmethod
    def from_cohort(cohort: Cohort) -> "DemographicsCodec":
        return DemographicsCodec(
            genders=[p.gender for p in cohort.patients],
            races=[p.race for p in cohort.patients],
        )

    @property
    def dim(self) -> int:
        return (len(self.genders) + 1) + (len(self.races) + 1) + len(AGE_EDGES) + 1

    def _one_hot(self, value: str, categories: list) -> np.ndarray:
        v = np.zeros(len(categories) + 1, dtype=np.float64)
        try:
            v[categories.index(value)] = 1.0
        except ValueError:
            v[-1] = 1.0  # reserved 'other' slot
        return v

    def encode(self, record: PatientRecord, visit_index: int) -> np.ndarray:
        if not 0 <= visit_index < len(record.visits):
            raise ValidationError(
                f"demographics: visit index {visit_index} out of range for "
                f"{len(record.visits)} visits"
            )
        elapsed = record.visits[visit_index].admit_time - record.visits[0].admit_time
        age = record.age + elapsed // YEAR
        bucket = np.zeros(len(AGE_EDGES) + 1, dtype=np.float64)
        bucket[bisect_right(AGE_EDGES, age)] = 1.0
        return np.concatenate(
            [
                self._one_hot(record.gender, self.genders),
                self._one_hot(record.race, self.races),
                bucket,
            ]
        )


# -- labels --------------------------------------------------------------------


def los_bucket(stay_days: float) -> int:
    """Length-of-stay class: days 1..7 map to classes 1..7 (ceil, floored at
    1), (7, 14] maps to 8, and anything longer maps to 9."""
    if stay_days < 0:
        raise ValidationError(f"los_bucket: negative stay {stay_days}")
    if stay_days > 14:
        return 9
    if stay_days > 7:
        return 8
    return int(min(max(np.ceil(stay_days), 1), 7))


@dataclass(frozen=True)
class VisitLabel:
    patient_id: str
    visit_index: int
    value: object  # float for binary tasks, int class for los9


def extract_labels(cohort: Cohort, task: str) -> list:
    """Per-visit supervision targets for one task head.

    readmission30 labels every non-final visit with whether the next
    admission starts within 30 days of discharge; mortality uses the
    died_in_visit flag; and los9 buckets the stay length.
    code_prediction has no head: next-code recall scores it from the visit
    matrices.
    """
    if task not in TASKS:
        raise ValidationError(f"extract_labels: unknown task {task!r}, expected one of {TASKS}")
    if task == TASK_CODES:
        raise ValidationError("extract_labels: code_prediction is scored by next-code recall")
    out: list[VisitLabel] = []
    for p in cohort.patients:
        for i, v in enumerate(p.visits):
            if task == TASK_READMISSION:
                if i + 1 >= len(p.visits):
                    continue
                gap = p.visits[i + 1].admit_time - v.discharge_time
                out.append(VisitLabel(p.patient_id, i, float(gap <= READMISSION_WINDOW)))
            elif task == TASK_MORTALITY:
                out.append(VisitLabel(p.patient_id, i, float(v.died_in_visit)))
            else:
                out.append(VisitLabel(p.patient_id, i, los_bucket(v.los_days())))
    return out


# -- task text windows ------------------------------------------------------------


def select_task_text(visit: Visit, task: str) -> str:
    """Concatenated note text for one visit under the task's time window."""
    if task not in TASKS:
        raise ValidationError(f"select_task_text: unknown task {task!r}")
    notes = sorted(visit.notes, key=lambda n: n.time)
    if task == TASK_READMISSION:
        summaries = [n for n in notes if n.kind == DISCHARGE_SUMMARY_KIND]
        if summaries:
            chosen = summaries
        else:
            lo = visit.discharge_time - 48 * HOUR
            chosen = [n for n in notes if lo <= n.time <= visit.discharge_time]
    elif task in (TASK_MORTALITY, TASK_LOS):
        hi = visit.admit_time + 24 * HOUR
        chosen = [n for n in notes if visit.admit_time <= n.time <= hi]
    else:
        chosen = notes
    return " ".join(n.text for n in chosen)


# -- folds ------------------------------------------------------------------------


def patient_kfold_split(cohort: Cohort, k: int, seed: int) -> list:
    """Disjoint patient-id folds whose sizes differ by at most one."""
    ids = sorted(cohort.patient_ids())
    if k < 2:
        raise ValidationError(f"patient_kfold_split: k must be at least 2, got {k}")
    if k > len(ids):
        raise ValidationError(
            f"patient_kfold_split: k={k} exceeds the {len(ids)} patients available"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    folds: list[list[str]] = [[] for _ in range(k)]
    for pos, idx in enumerate(order):
        folds[pos % k].append(ids[idx])
    return folds
