"""The walkthroughs in demos/ run to completion against the current package.

Each demo runs as its own process with src/ on PYTHONPATH and must exit 0;
together they take a few seconds. Demo 03 calls `sentence_matrix` and
`summarize` directly, and demo 05 drives every CLI stage. Demo 04 is left
out: it cross-validates mortality over four ablations and the
shuffled-label null (about 7 s on 2 CPUs), and the same `crossval` call
already runs in test_acceptance's c6.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_synthetic_cohort.py",
    "02_code_embeddings.py",
    "03_note_summaries.py",
    "05_cli_pipeline.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
