"""Assemble per-visit patient vectors and score them on mortality prediction.

The patient vector is [code history; note summary; demographics]. Code and
text models are trained on the train split only, frozen, and the task head
is a small MLP fit on the joined vectors. Zeroing segments at both fit and
score time shows what each modality contributes on its own, and a head fit
on labels permuted within each split (the "shuffled" variant, trained in the
same pass) is the chance-level control.
"""

import time

from visitrep.code_embedder import CodeEmbedderConfig
from visitrep.evaluation import EvalConfig, crossval
from visitrep.synth import SynthConfig, generate_cohort
from visitrep.tasks import TaskHeadConfig
from visitrep.text_embedder import SummarizerConfig


def main():
    cohort, _ = generate_cohort(
        SynthConfig(n_patients=500, n_conditions=8, label_noise=0.1, seed=202)
    )
    code_cfg = CodeEmbedderConfig(
        d_code=32, n_layers=1, n_heads=4, d_head=8, window=2,
        epochs=30, batch_size=32, lr0=2e-3, lr_period=30, seed=3,
    )
    summ_cfg = SummarizerConfig(
        d_text=16, d_enc=16, chunk_size=32, epochs=6, batch_size=16,
        train_encoder=False,
    )
    head_cfg = TaskHeadConfig(epochs=30, batch_size=32)
    eval_cfg = EvalConfig(folds=2, recall_ks=(10,), seed=3)

    start = time.perf_counter()
    reports = crossval(
        cohort, "mortality", code_cfg, summ_cfg, head_cfg, eval_cfg,
        ablations=("full", "code", "text", "demo", "shuffled"),
    )
    print(f"2-fold crossval in {time.perf_counter() - start:.1f}s\n")
    print(f"{'variant':10s} {'auroc':>8s} {'auprc':>8s}")
    for variant in ("full", "code", "text", "demo"):
        suffix = "" if variant == "full" else f"[{variant}]"
        roc = reports[f"auroc{suffix}"]
        prc = reports[f"auprc{suffix}"]
        print(f"{variant:10s} {roc.mean:8.4f} {prc.mean:8.4f}")

    print(f"\nshuffled-label control auroc: {reports['auroc[shuffled]'].mean:.4f} "
          f"(should hover at 0.5)")


if __name__ == "__main__":
    main()
