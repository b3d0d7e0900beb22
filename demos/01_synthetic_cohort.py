"""Generate a tiny synthetic cohort and print what was planted in it.

Each patient draws one or two latent conditions; each condition owns a
few codes, a note vocabulary, and outcome weights. The generator hands
back the ground truth next to the cohort so the other demos can measure
what a model recovered.
"""

from visitrep.cohort import extract_labels
from visitrep.synth import SynthConfig, generate_cohort

cfg = SynthConfig(n_patients=5, n_conditions=3, seed=4)
cohort, gt = generate_cohort(cfg)

print(f"{len(cohort)} patients, {cohort.n_visits()} visits")
print(f"mortality threshold {gt.mortality_threshold:.2f}, "
      f"label noise {gt.label_noise:.0%}\n")

for cond in gt.conditions:
    codes = ", ".join(f"{s}:{r}" for s, r in cond.codes[:3])
    print(f"condition {cond.cid}: chronic={cond.chronic} "
          f"mortality_weight={cond.mortality_weight:.2f} codes [{codes}, ...]")

print()
for record in cohort:
    conds = gt.patient_conditions[record.patient_id]
    print(f"{record.patient_id}: age {record.age} {record.gender}/{record.race}, "
          f"{len(record.visits)} visits, conditions {list(conds)}")
    visit = record.visits[0]
    keys = sorted(f"{s}:{c}" for s, c in visit.codes)
    note = visit.notes[0].text if visit.notes else ""
    print(f"  first visit: {len(visit.codes)} codes, stays "
          f"{visit.los_days():.1f} days, codes {keys[:4]}")
    print(f"  note starts: {note[:60]!r}")

labels = extract_labels(cohort, "mortality")
positives = sum(1 for row in labels if row.value > 0)
print(f"\nmortality-positive visit labels: {positives}/{len(labels)}")
