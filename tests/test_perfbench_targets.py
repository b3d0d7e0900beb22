"""The benchmark's traced run wraps package functions by name: every span
target and kernel it names must still resolve, so a rename fails here
instead of in `perfbench/run.py --trace 1`. The hooks on those wrappers
read arguments by position and by name, so one test also runs every CLI
stage under them. The kernels it names that the package never calls are
pinned, so the list of kernels kept only for the benchmark stays exact."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import TINY_CONFIG

from perfbench.layers import KERNELS, SPANS
from perfbench.tracing import resolve
from perfbench.workloads import throughput_stages

ROOT = Path(__file__).resolve().parents[1]
# Kernels with no caller in src/visitrep, kept only because KERNELS names them.
UNCALLED_KERNELS = {"relu", "layer_norm", "masked_fill", "shift", "concat", "slice_axis"}

# Runs in a fresh interpreter, so the rebinding cannot leak into other tests.
TRACED_STAGES = """
import json, sys
from perfbench import layers, workloads
from perfbench.tracing import StageTimer, Tracer
from visitrep.cli import main

tracer = Tracer("tier1")
layers.install(tracer)
timer = StageTimer(workloads.throughput_stages())
base = ["--config", sys.argv[1]]
assert main(["generate", *base]) == 0
tracer.begin("run")
for argv in (["preprocess"], ["train-code"], ["train-text"], ["represent"], ["train-task"],
             ["evaluate"], ["evaluate", "--task", "codes"], ["export"]):
    assert main([*argv, *base]) == 0, argv
metrics = layers.per_layer_metrics(tracer, iterations=1, setup_reps=1, cli_stages={})
print(json.dumps({"metrics": metrics, "stages": timer.take()}))
"""


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


def test_the_kernels_the_package_never_calls_are_pinned():
    """Calls are matched by name, as a method or a function, like
    tests/test_checked_once.py does."""
    called = set()
    for path in (ROOT / "src" / "visitrep").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                called.add(name)
    assert set(KERNELS) - called == UNCALLED_KERNELS


def test_hooks_run_on_every_cli_stage(tmp_path):
    config = tmp_path / "tiny_config.json"
    config.write_text(json.dumps(dict(TINY_CONFIG, paths={"out": str(tmp_path / "run")})))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_STAGES, str(config)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = result["metrics"]
    assert metrics["patient_rep.represent_cohort.s"] > 0
    assert metrics["patient_rep.read_representations.bytes"] > 0
    assert metrics["evaluation.prefixes_scored"] > 0
    stages = result["stages"]
    assert set(stages) == set(throughput_stages())
    assert all(items > 0 for _, items in stages.values()), stages
