"""Every quick demo runs to completion against the current package.

Each demo runs in a fresh interpreter with a temporary working directory, so
a name or flag it still uses after being deleted from the package fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = [
    "bounds_and_witnesses.py",
    "build_and_verify.py",
    "group_structure.py",
    "matrix_vs_cycle.py",
    "nonsimple_witness.py",
    "prime_example.py",
    "ybe_export.py",
]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
