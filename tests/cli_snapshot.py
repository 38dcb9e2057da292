"""Write the CLI byte-identity snapshot of this checkout into OUTDIR.

Usage: python tests/cli_snapshot.py OUTDIR

Runs five commands on every bundled fixture in csv and json (70 runs):
``classify``, ``report`` and ``limits`` at the fixture defaults,
``propagate --n 200 --K 64`` and ``simulate --n 50 --reps 20000 --seed 7``.
Each run leaves ``<fixture>.<command>.<format>.out`` (stdout) and ``.rc``
(exit code). Two checkouts agree when ``diff -r`` of their snapshots is
empty.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = SRC / "nearcrit" / "fixtures"

COMMANDS = {
    "classify": [],
    "report": [],
    "limits": [],
    "propagate": ["--n", "200", "--K", "64"],
    "simulate": ["--n", "50", "--reps", "20000", "--seed", "7"],
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/cli_snapshot.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for scn in sorted(FIXTURES.glob("*.scn")):
        for command, extra in COMMANDS.items():
            for fmt in ("csv", "json"):
                proc = subprocess.run(
                    [sys.executable, "-m", "nearcrit.cli", "--scenario", str(scn),
                     "--command", command, "--format", fmt, *extra],
                    capture_output=True, env=env, check=False,
                )
                stem = f"{scn.stem}.{command}.{fmt}"
                (out / f"{stem}.out").write_bytes(proc.stdout)
                (out / f"{stem}.rc").write_text(f"{proc.returncode}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
