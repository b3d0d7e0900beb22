"""The benchmark's traced run wraps package functions by name: every span
target and kernel it names must still resolve, so a rename fails here
instead of in `perfbench/run.py --trace 1`."""

from perfbench.layers import KERNELS, SPANS
from perfbench.tracing import resolve


def test_every_traced_name_resolves():
    targets = [target for _, target in SPANS]
    targets += [f"visitrep.numerics.tensor:{op}" for op in KERNELS]
    missing = []
    for target in targets:
        try:
            owner, attr = resolve(target)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        if not callable(getattr(owner, attr, None)):
            missing.append(target)
    assert not missing, f"unresolved benchmark targets: {missing}"
