"""Write the CLI byte-identity snapshot of a checkout into OUTDIR, or
compare two snapshots.

Usage: python tests/cli_snapshot.py OUTDIR [SRC]
       python tests/cli_snapshot.py --compare A B

SRC is the ``src`` directory of the checkout to run (default: the one next
to this script), so one script can snapshot two checkouts.

Runs five commands on every bundled fixture in csv and json (70 runs):
``classify``, ``report`` and ``limits`` at the fixture defaults,
``propagate --n 200 --K 64`` and ``simulate --n 50 --reps 20000 --seed 7``;
and ``report --reps 2000 --seed 3`` in csv (REPORT_MC, 7 runs), whose
Monte Carlo column draws every row from one seeded run.
Then ``classify`` on malformed copies of ``thm1_poisson``,
``thm3_cp_finite`` and ``thm5_nb``, one per fault of the scenario-file
format and three whose declared limit constants are not the ones the rules
give (MALFORMED), and one command in csv on each copy in VARIANTS (99 runs
in all). Each
run leaves ``<stem>.out`` (stdout), ``<stem>.rc`` (exit code) and
``<stem>.err``, the stderr lines that start with ``error:`` or
``warning:``; Python's own warning lines carry source line numbers, which
any edit moves. Scenario paths are relative to the working directory, so
messages that name the file read the same for every checkout. Two
checkouts agree when ``diff -r`` of their snapshots is empty.

``--compare A B`` lists every file of two snapshots that differs, one line
each: for a file whose text differs only in its numbers, how many numbers
moved, the largest absolute and relative difference among them (relative
to the larger magnitude of the pair) and the old and new text of the pair
with the largest relative one, so a move at rounding level (2.2e-16 to
4.4e-16 reads as 0.5 relative) shows as such; otherwise that the text
differs, or that the file is missing on one side. A moved ``simulate``
output also gets the total-variation distance between its two sample laws,
so a new draw of the same law reads as a small ``tv`` (of the order of
sqrt(support / reps)). The exit status is 0 when the snapshots agree and 1
when a file differs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = {
    "classify": [],
    "report": [],
    "limits": [],
    "propagate": ["--n", "200", "--K", "64"],
    "simulate": ["--n", "50", "--reps", "20000", "--seed", "7"],
}

# run in csv only, as <fixture>.report_mc.csv
REPORT_MC = ["--command", "report", "--reps", "2000", "--seed", "3"]

# stem: (fixture, line to replace, replacement)
MALFORMED = {
    "bad_duplicate_key": ("thm1_poisson", "run.K = 64", "run.K = 64\nrun.K = 32"),
    "bad_empty_value": ("thm1_poisson", "run.K = 64", "run.K ="),
    "bad_not_a_number": ("thm1_poisson", "offspring.rho.c = 1", "offspring.rho.c = one"),
    "bad_not_an_integer": ("thm1_poisson", "run.K = 64", "run.K = 6.4"),
    "bad_divergent": ("thm1_poisson", "limits.divergent = true",
                      "limits.divergent = yes"),
    "bad_missing_key": ("thm1_poisson", "immigration.family = bernoulli\n", ""),
    "bad_no_base": ("thm3_cp_finite", "immigration.base = delta2\n", ""),
    "bad_unknown_base": ("thm3_cp_finite", "immigration.base = delta2",
                         "immigration.base = delta3"),
    "bad_lambda_seq": ("thm3_cp_finite", "limits.lambda_seq = 2,1,0",
                       "limits.lambda_seq = 2;1;0"),
    # parses, but a lambda sequence must end in a zero (exit 3, not a traceback)
    "bad_lambda_seq_tail": ("thm3_cp_finite", "limits.lambda_seq = 2,1,0",
                            "limits.lambda_seq = 2,1"),
    "bad_n_grid": ("thm1_poisson", "run.n_grid = 100,1000,10000",
                   "run.n_grid = 100,1e3"),
    "bad_x_grid": ("thm3_cp_finite", "run.n_grid = 100,1000",
                   "run.n_grid = 100,1000\nrun.x_grid = 0.5,x"),
    "bad_rule": ("thm1_poisson", "immigration.m1.rule = 2*(n+1)^-1",
                 "immigration.m1.rule = 2*(n+1)^+1"),
    # parse, but declare limit constants the rules do not give (exit 3)
    "bad_lambda_declared": ("thm1_poisson", "limits.lambda = 2", "limits.lambda = 2.15"),
    "bad_lambda_seq_declared": ("thm3_cp_finite", "limits.lambda_seq = 2,1,0",
                                "limits.lambda_seq = 2,0.5,0"),
    "bad_nb_lambda_declared": ("thm5_nb", "limits.lambda = 1", "limits.lambda = 3"),
}

# stem: (fixture, [(line to replace, replacement), ...], command line):
# thm6_example1 with n0 = 1 (rho_1 > 0, which linear-fractional maps need)
# and nu = 1, under quadratic and linear-fractional offspring; the declared
# immigration rate 2 at n = 1 makes the first factor negative below x = 0.25
VARIANTS = {
    f"thm6_example1_{kind}": (
        "thm6_example1",
        [("offspring.family = bernoulli",
          f"offspring.family = {kind}\noffspring.nu = 1"),
         ("offspring.rho.n0 = 0", "offspring.rho.n0 = 1"),
         ("limits.nu = 0", "limits.nu = 1")],
        ["--command", "limits", "--x-grid", "0.25,0.5,0.9", "--tol", "1e-7"])
    for kind in ("quadratic", "linear_fractional")
}
# thm1_poisson without its limits.* lines, whose report the rules alone fix
VARIANTS["thm1_poisson_rules_only"] = (
    "thm1_poisson",
    [(f"{line}\n", "") for line in ("limits.lambda = 2", "limits.nu = 0",
                                    "limits.divergent = true")],
    ["--command", "report"])
# immigration kinds no fixture pairs with these offspring laws: Poisson
# cohorts and custom delta2 cohorts over K-wide quadratic maps, and the
# product law of a custom mixture
_DELTA2 = ("immigration.family = bernoulli",
           "immigration.family = custom\nimmigration.base = delta2\n"
           "immigration.support = 3")
VARIANTS["thm5_nb_poisson"] = (
    "thm5_nb", [("immigration.family = bernoulli", "immigration.family = poisson")],
    ["--command", "propagate"])
VARIANTS["thm5_nb_delta2"] = ("thm5_nb", [_DELTA2], ["--command", "propagate"])
VARIANTS["thm6_example1_delta2"] = (
    "thm6_example1", [_DELTA2], ["--command", "limits", "--x-grid", "0.25,0.5,0.9"])


def _run(out: Path, stem: str, cwd: Path, env: dict, argv: list[str]) -> None:
    proc = subprocess.run([sys.executable, "-m", "nearcrit.cli", *argv],
                          capture_output=True, cwd=cwd, env=env, check=False)
    (out / f"{stem}.out").write_bytes(proc.stdout)
    (out / f"{stem}.rc").write_text(f"{proc.returncode}\n")
    kept = [line for line in proc.stderr.decode().splitlines(keepends=True)
            if line.startswith(("error:", "warning:"))]
    (out / f"{stem}.err").write_text("".join(kept))


_NUMBER = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def _moved(old: str, new: str) -> str:
    """How the text ``new`` differs from ``old``, as one report field."""
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return "text differs"
    texts = [(a, b) for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new))
             if a != b]
    pairs = [(float(a), float(b)) for a, b in texts]
    abs_gap = max(abs(a - b) for a, b in pairs)
    # 0.0 and -0.0 differ in text only
    rel = [abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0 for a, b in pairs]
    top = max(range(len(rel)), key=rel.__getitem__)
    return (f"{len(pairs)} numbers moved, max abs {abs_gap:.3e}, "
            f"max rel {rel[top]:.3e} ({texts[top][0]} -> {texts[top][1]})")


def _sample_law(name: str, text: str) -> list[float] | None:
    """The empirical law printed by a ``simulate`` run, or None for any other
    output (or one that holds no law, such as an error run's)."""
    if ".simulate." not in name:
        return None
    law = []
    try:
        if name.endswith(".json.out"):
            law = [float(p) for p in json.loads(text)["pmf"]]
        elif name.endswith(".csv.out") and text.startswith("k,p\n"):
            law = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
    except (ValueError, KeyError, IndexError, TypeError):
        pass
    return law or None


def _tv(a: list[float], b: list[float]) -> float:
    top = max(len(a), len(b))
    a, b = a + [0.0] * (top - len(a)), b + [0.0] * (top - len(b))
    return 0.5 * sum(abs(x - y) for x, y in zip(a, b))


def compare(old_dir: Path, new_dir: Path) -> list[str]:
    """One line per file that differs between two snapshot directories."""
    lines = []
    names = sorted({p.name for p in old_dir.iterdir()}
                   | {p.name for p in new_dir.iterdir()})
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not old.exists() or not new.exists():
            lines.append(f"{name}: only in {old_dir if old.exists() else new_dir}")
        elif old.read_bytes() != new.read_bytes():
            old_text, new_text = old.read_text(), new.read_text()
            line = f"{name}: {_moved(old_text, new_text)}"
            laws = _sample_law(name, old_text), _sample_law(name, new_text)
            if None not in laws:
                line += f", tv {_tv(*laws):.3e}"
            lines.append(line)
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        lines = compare(Path(argv[1]), Path(argv[2]))
        print("\n".join(lines) if lines else "snapshots agree")
        return 1 if lines else 0
    if len(argv) not in (1, 2):
        print("usage: python tests/cli_snapshot.py OUTDIR [SRC]\n"
              "       python tests/cli_snapshot.py --compare A B", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    src = Path(argv[1]).resolve() if len(argv) == 2 else (
        Path(__file__).resolve().parents[1] / "src")
    fixtures = src / "nearcrit" / "fixtures"
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    for scn in sorted(fixtures.glob("*.scn")):
        for command, extra in COMMANDS.items():
            for fmt in ("csv", "json"):
                _run(out, f"{scn.stem}.{command}.{fmt}", fixtures, env,
                     ["--scenario", scn.name, "--command", command,
                      "--format", fmt, *extra])
        _run(out, f"{scn.stem}.report_mc.csv", fixtures, env,
             ["--scenario", scn.name, *REPORT_MC, "--format", "csv"])
    copies = {stem: (fixture, [(old, new)], ["--command", "classify"])
              for stem, (fixture, old, new) in MALFORMED.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for stem, (fixture, edits, argv) in {**copies, **VARIANTS}.items():
            text = (fixtures / f"{fixture}.scn").read_text()
            for old, new in edits:
                if old not in text:
                    raise SystemExit(f"{fixture}.scn has no line {old!r}")
                text = text.replace(old, new)
            (Path(tmp) / f"{stem}.scn").write_text(text)
            _run(out, f"{stem}.{argv[1]}.csv", Path(tmp), env,
                 ["--scenario", f"{stem}.scn", *argv])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
