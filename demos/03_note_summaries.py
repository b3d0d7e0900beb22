"""Compress visit notes into fixed-size vectors with the recurrent autoencoder.

Notes are tokenized, chunked into sentences, and bag-encoded into one row
per sentence; the encoder reads the rows bidirectionally, attention-pools
them, and a decoder tries to reproduce the rows from the pooled state. The
pooled state is the visit's text summary. Reconstruction error falling
while held-out error tracks it is the signal that the summary is carrying
sentence content rather than memorizing.
"""

import numpy as np

from visitrep.synth import SynthConfig, generate_cohort
from visitrep.text_embedder import (
    SummarizerConfig,
    sentence_matrix,
    summarize,
    train_summarizer,
)


def main():
    cohort, gt = generate_cohort(
        SynthConfig(n_patients=80, n_conditions=4, label_noise=0.1, seed=12)
    )
    cfg = SummarizerConfig(
        d_text=12, d_enc=10, chunk_size=16, epochs=8, batch_size=16, seed=5
    )
    model, history = train_summarizer(cohort, cfg)
    print(f"token vocabulary: {len(model.bag.vocab)} entries")
    for epoch, (tr, va) in enumerate(zip(history.train_loss, history.val_loss)):
        print(f"epoch {epoch:2d}: train {tr:8.4f}  val {va:8.4f}")
    print(f"best epoch {history.best_epoch}")

    # Summaries of same-condition visits should sit closer than cross-condition
    # ones. Compare a few patients' first visits.
    vecs, conds = [], []
    for record in cohort.patients[:30]:
        text = " ".join(n.text for n in record.visits[0].notes)
        mat = sentence_matrix(text, model.bag, cfg.chunk_size)
        if mat is None:
            continue
        vecs.append(summarize(model, mat[None])[0])
        conds.append(frozenset(gt.patient_conditions[record.patient_id]))
    vecs = np.stack(vecs)
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    same, cross = [], []
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            (same if conds[i] == conds[j] else cross).append(float(vecs[i] @ vecs[j]))
    print(f"\nsummary cosine, same condition set:  {np.mean(same):+.3f} ({len(same)} pairs)")
    print(f"summary cosine, cross condition set: {np.mean(cross):+.3f} ({len(cross)} pairs)")


if __name__ == "__main__":
    main()
