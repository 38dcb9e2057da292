"""The benchmark's self-test must pass against this checkout.

``perfbench/`` calls library functions by name and traces them through
their import aliases; deleting or renaming one of those names breaks the
benchmark without failing any library test. Running its self-test here
makes such a change fail the suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
