"""Shared builders for hand-made cohort fixtures."""

from __future__ import annotations

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
