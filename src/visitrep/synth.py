"""Synthetic cohort generator with planted latent structure.

Each patient carries one to three latent conditions. A condition owns a
disjoint set of codes (spread over the dx/proc/med systems) and a token
template for note text; templates share a couple of tokens with a
neighbouring condition so the text signal overlaps but does not duplicate
the code signal. Chronic conditions emit their codes in every visit, acute
ones in exactly one. Mortality and readmission are threshold functions of
per-condition severity weights with labels flipped at a configured noise
rate, and length of stay is drawn from a condition-scaled distribution.

Because every emitted code is owned by exactly one condition, pairwise
"same condition" membership is an exact oracle for what the code embedder
should recover, and the label thresholds bound what any classifier can do.

A note word is a `random()` coin (noise at `noise_token_rate`) and then an
`integers(n)` index. Cohort bytes depend on that order of draws, so
`_block_words` replays both notes of a visit word for word from one PCG64
`random_raw` block: a coin is `(w >> 11) * 2**-53` of a 64-bit word `w`, an
index is `(u * n) >> 32` of a 32-bit half `u` (the buffered high half, else a
fresh word's low half; Lemire's method). Bounds outside [2, 2**32] (numpy
draws nothing for 1 and 64-bit words above 2**32) and rejected halves (numpy
draws again) take the scalar calls of `_scalar_words` instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .atomic import atomic_open
from .cohort import DAY, HOUR, SYSTEMS, Cohort, Note, PatientRecord, Visit
from .errors import ValidationError
from .jsonconfig import JsonConfig
from .shape import COUNT, POSITIVE, Scalar, at_least, number_in

SYSTEM_PREFIX = {"dx": "D", "proc": "P", "med": "M"}


@dataclass(frozen=True)
class SynthConfig(JsonConfig):
    json_name = "config.synth"
    json_fields = {
        **dict.fromkeys(["n_patients", "codes_per_condition", "visits_min", "visits_max",
                         "tokens_per_condition", "n_noise_tokens", "note_tokens"], POSITIVE),
        "n_conditions": at_least(2), "shared_tokens": COUNT, "label_noise": number_in(0, 0.5, "[)"),
        "chronic_fraction": number_in(0, 1), "noise_token_rate": number_in(0, 1),
        "vocab_sizes": ["vocab_sizes", Scalar(
            {list}, f"a [system, size >= 1] pair, system in {SYSTEMS}",
            lambda p: len(p) == 2 and p[0] in SYSTEMS and type(p[1]) is int and p[1] >= 1)],
    }

    n_patients: int = 200
    n_conditions: int = 8
    codes_per_condition: int = 6
    chronic_fraction: float = 0.5
    visits_min: int = 2
    visits_max: int = 5
    vocab_sizes: tuple = (("dx", 16), ("proc", 16), ("med", 16))
    tokens_per_condition: int = 8
    shared_tokens: int = 2
    n_noise_tokens: int = 12
    noise_token_rate: float = 0.3
    note_tokens: int = 24
    label_noise: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        for low, high in (("visits_min", "visits_max"), ("shared_tokens", "tokens_per_condition")):
            if getattr(self, low) > getattr(self, high):
                raise ValidationError(f"{self.json_name}: {low} must be <= {high} "
                                      f"({getattr(self, high)}), got {getattr(self, low)}")
        systems = [s for s, _ in self.vocab_sizes]
        for s in systems:
            if systems.count(s) > 1:
                raise ValidationError(
                    f"{self.json_name}: vocab_sizes names system {s!r} more than once")
        pool = sum(n for _, n in self.vocab_sizes)
        need = self.n_conditions * self.codes_per_condition
        if need > pool:
            raise ValidationError(
                f"{self.json_name}: {need} condition codes requested but only {pool} ids available"
            )


@dataclass(frozen=True)
class Condition:
    cid: int
    chronic: bool
    mortality_weight: float
    readmission_weight: float
    los_scale: float
    codes: tuple  # ((system, raw_id), ...)
    tokens: tuple  # note-template tokens, including shared ones


@dataclass
class GroundTruth:
    conditions: list
    patient_conditions: dict  # patient_id -> tuple of condition ids
    mortality_threshold: float
    readmission_threshold: float
    label_noise: float
    seed: int

    def code_condition(self) -> dict:
        """(system, raw_id) -> owning condition id."""
        owner = {}
        for cond in self.conditions:
            for code in cond.codes:
                owner[tuple(code)] = cond.cid
        return owner

    def to_json(self) -> dict:
        return asdict(self)


def write_ground_truth(gt: GroundTruth, path: str) -> None:
    with atomic_open(path) as fh:
        json.dump(gt.to_json(), fh, sort_keys=True, indent=1)


def _build_conditions(config: SynthConfig, rng: np.random.Generator) -> list:
    # Deal code ids round-robin over systems so each condition spans systems.
    pools = {sys: [f"{SYSTEM_PREFIX[sys]}{i:03d}" for i in range(n)] for sys, n in config.vocab_sizes}
    order = [sys for sys, _ in config.vocab_sizes]
    cursor = {sys: 0 for sys in order}
    n_chronic = int(round(config.chronic_fraction * config.n_conditions))
    chronic_flags = np.zeros(config.n_conditions, dtype=bool)
    chronic_flags[rng.permutation(config.n_conditions)[:n_chronic]] = True

    conditions = []
    wheel = 0
    for cid in range(config.n_conditions):
        codes = []
        for _ in range(config.codes_per_condition):
            for attempt in range(len(order)):
                sys = order[(wheel + attempt) % len(order)]
                if cursor[sys] < len(pools[sys]):
                    codes.append((sys, pools[sys][cursor[sys]]))
                    cursor[sys] += 1
                    wheel += attempt + 1
                    break
            else:
                raise ValidationError("synth: ran out of code ids")
        own = [f"c{cid}t{j}" for j in range(config.tokens_per_condition)]
        neighbour = (cid + 1) % config.n_conditions
        shared = [f"c{neighbour}t{j}" for j in range(config.shared_tokens)]
        conditions.append(
            Condition(
                cid=cid,
                chronic=bool(chronic_flags[cid]),
                mortality_weight=float(rng.uniform(0.0, 1.0)),
                readmission_weight=float(rng.uniform(0.0, 1.0)),
                los_scale=float(rng.uniform(0.5, 1.5)),
                codes=tuple(codes),
                tokens=tuple(own + shared),
            )
        )
    return conditions


def _scalar_words(rng, count, rate, n_noise, template) -> list:
    words = []
    for _ in range(count):
        if rng.random() < rate:
            words.append(f"noise{rng.integers(n_noise)}")
        else:
            words.append(template[rng.integers(len(template))])
    return words


def _block_words(rng, count, rate, n_noise, template):
    """`_scalar_words`' words and end state from one `random_raw` block, or None,
    with the generator untouched, where a bound is outside [2, 2**32] or a
    32-bit half is rejected (the scalar calls would then draw another)."""
    bounds = {True: n_noise, False: len(template)}
    if not all(2 <= n <= 2**32 for n in bounds.values()):
        return None
    rejected = {noise: (2**32 - n) % n for noise, n in bounds.items()}  # low 32 bits below
    noise_below = math.ceil(rate * 2**53) << 11  # (w >> 11) * 2**-53 < rate, in integers
    bg = rng.bit_generator
    entry = bg.state
    has, half = entry["has_uint32"], entry["uinteger"]
    take = iter(bg.random_raw(count + (count - has + 1) // 2).tolist()).__next__
    words = []
    for _ in range(count):
        noise = take() < noise_below  # random()
        if has:  # integers(n): the buffered high half, else a fresh word's low half
            has, u = 0, half
        else:
            word = take()
            has, u, half = 1, word & 0xFFFFFFFF, word >> 32
        m = u * bounds[noise]
        if m & 0xFFFFFFFF < rejected[noise]:
            bg.state = entry
            return None
        words.append(f"noise{m >> 32}" if noise else template[m >> 32])
    bg.state = {**bg.state, "has_uint32": has, "uinteger": half}
    return words


def _note_texts(config, rng, conditions, active_cids, all_cids) -> tuple:
    """A visit's two note texts, the admission note's first."""
    sources = active_cids if active_cids else all_cids
    template = [t for cid in sources for t in conditions[cid].tokens]
    k = config.note_tokens
    draw = (rng, 2 * k, config.noise_token_rate, config.n_noise_tokens, template)
    words = _block_words(*draw)
    if words is None:
        words = _scalar_words(*draw)
    return " ".join(words[:k]), " ".join(words[k:])


def generate_cohort(config: SynthConfig) -> tuple:
    """Deterministically build (Cohort, GroundTruth) from the config seed."""
    rng = np.random.default_rng(config.seed)
    conditions = _build_conditions(config, rng)

    # Draw patient skeletons first so label thresholds can sit at the
    # empirical medians (roughly balanced classes at noise 0).
    patient_conditions = {}
    for i in range(config.n_patients):
        pid = f"s{i:05d}"
        n_cond = min(int(rng.integers(1, 4)), config.n_conditions)
        patient_conditions[pid] = tuple(
            sorted(int(c) for c in rng.choice(config.n_conditions, size=n_cond, replace=False))
        )
    m_sev = {
        pid: sum(conditions[c].mortality_weight for c in cids)
        for pid, cids in patient_conditions.items()
    }
    r_sev = {
        pid: sum(conditions[c].readmission_weight for c in cids)
        for pid, cids in patient_conditions.items()
    }
    m_thr = float(np.median(list(m_sev.values())))
    r_thr = float(np.median(list(r_sev.values())))

    patients = []
    for pid, cids in patient_conditions.items():
        n_visits = int(rng.integers(config.visits_min, config.visits_max + 1))
        chronic_here = [c for c in cids if conditions[c].chronic]
        acute_here = [c for c in cids if not conditions[c].chronic]
        acute_visit = {c: int(rng.integers(n_visits)) for c in acute_here}

        dies = (m_sev[pid] > m_thr) != (rng.random() < config.label_noise)
        readmit_base = r_sev[pid] > r_thr
        los_sev = sum(conditions[c].los_scale for c in cids)

        visits = []
        admit = int(rng.integers(0, 30)) * DAY
        for v in range(n_visits):
            los_days = float(min(30.0, rng.exponential(scale=1.0 + 1.8 * los_sev)))
            discharge = admit + max(HOUR, int(los_days * DAY))

            active = list(chronic_here) + [c for c in acute_here if acute_visit[c] == v]
            codes = frozenset(code for c in active for code in conditions[c].codes)
            admit_text, discharge_text = _note_texts(config, rng, conditions, active, cids)
            notes = (
                Note(time=admit + 2 * HOUR, text=admit_text),
                Note(
                    time=discharge - HOUR if discharge - HOUR > admit else discharge,
                    text=discharge_text,
                    kind="discharge_summary",
                ),
            )
            visits.append(
                Visit(
                    admit_time=admit,
                    discharge_time=discharge,
                    codes=codes,
                    notes=tuple(sorted(notes, key=lambda n: n.time)),
                    died_in_visit=dies,
                )
            )
            if v + 1 < n_visits:
                readmit = readmit_base != (rng.random() < config.label_noise)
                gap_days = rng.uniform(2.0, 27.0) if readmit else rng.uniform(35.0, 90.0)
                admit = discharge + int(gap_days * DAY)

        # Age tilts with total condition burden so the demographics segment
        # carries real (but weaker-than-code) label signal, the way the
        # other modalities are built to. Gender and race stay uninformative.
        raw_age = int(rng.integers(18, 90))
        burden = m_sev[pid] + r_sev[pid]
        age = min(max(round(0.45 * (raw_age - 18) + 9.0 * burden + 20.0), 18), 90)
        patients.append(
            PatientRecord(
                patient_id=pid,
                age=age,
                gender=["f", "m"][rng.integers(2)],
                race=["r0", "r1", "r2"][rng.integers(3)],
                visits=tuple(visits),
            )
        )

    gt = GroundTruth(
        conditions=conditions,
        patient_conditions=patient_conditions,
        mortality_threshold=m_thr,
        readmission_threshold=r_thr,
        label_noise=config.label_noise,
        seed=config.seed,
    )
    return Cohort(patients), gt
