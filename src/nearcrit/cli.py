"""Scenario-file driven command line: classify, propagate, simulate, report, limits."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import diagnostics, engine, limits, pgf
from .errors import (
    NumericError,
    ScenarioParseError,
    ScenarioValidationError,
    WrongRegimeError,
)
from .families import (
    GeneralExpLimit,
    OutsideScope,
    ProductLimit,
    classify,
)
from .scenarios import KEYS, ScenarioFile, parse_scenario

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4
EXIT_WRONG_REGIME = 5

_DEFAULT_TOL = 1e-7


def _first(*values):
    """The first value that is set: run flag, scenario file, built-in default."""
    return next((v for v in values if v is not None), None)


# built once per process: it took about a fifth of a 1.8 ms ``limits`` call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nearcrit",
        description="Propagate, simulate and classify nearly critical "
        "branching processes with immigration from scenario files.",
    )
    p.add_argument("--scenario", required=True, help="path to a .scn file")
    p.add_argument(
        "--command",
        required=True,
        choices=("classify", "propagate", "simulate", "report", "limits"),
    )
    p.add_argument("--n", type=int, help="generation index")
    p.add_argument("--n-grid", type=KEYS["run.n_grid"].parse,
                   help="comma list of generations")
    p.add_argument("--K", type=int, dest="k_trunc", help="truncation length")
    p.add_argument("--reps", type=int, help="Monte Carlo trajectories")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--x-grid", type=KEYS["run.x_grid"].parse,
                   help="comma list of PGF points")
    p.add_argument("--tol", type=float,
                   help="tolerance of the product law (fast-convergence regime)")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


def _pmf_text(p: pgf.Pmf, fmt: str, meta: dict) -> str:
    if fmt == "json":
        payload = dict(meta)
        payload["deficiency"] = p.deficiency
        payload["pmf"] = [float(v) for v in p.coeffs]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = ["k,p"]
    lines += [f"{k},{v:.17g}" for k, v in enumerate(p.coeffs)]
    return "\n".join(lines) + "\n"


def _pgf_grid_text(xs, values, fmt: str, meta: dict) -> str:
    if fmt == "json":
        payload = dict(meta)
        payload["pgf"] = {f"{x:.17g}": v for x, v in zip(xs, values)}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = ["x,g"]
    lines += [f"{x:.17g},{v:.17g}" for x, v in zip(xs, values)]
    return "\n".join(lines) + "\n"


def _limit_output(sf: ScenarioFile, args: argparse.Namespace, k: int, xs,
                  tol: float) -> str:
    spec = sf.spec
    law = classify(spec)
    if isinstance(law, OutsideScope):
        raise WrongRegimeError(f"no limit law to output: {law.reason}")
    meta = {"scenario": spec.name, "law": law.describe()}
    atoms = limits.limit_atoms(law)
    if isinstance(law, GeneralExpLimit):  # PGF on the grid from its atoms
        vals = [atoms.pgf_at(x) for x in xs]
    elif isinstance(law, ProductLimit):  # PGF on the grid, one call
        vals = limits.product_law_eval(spec, xs, tol).tolist()
    else:  # Poisson, negative binomial and compound Poisson have a PMF
        if atoms is not None:
            meta["atoms"] = [float(v) for v in atoms.atoms]
        return _pmf_text(limits.limit_pmf(law, k), args.format, meta)
    return _pgf_grid_text(xs, vals, args.format, meta)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ScenarioValidationError(message)


def _check_run(command: str, *, k, ns, reps, seed, xs, tol) -> None:
    """Reject out-of-range run parameters (flag or file) of ``command``
    before any of them reaches the engine: each is an input error (exit 3),
    while a ValueError from deeper down is a fault of the program."""
    uses = {
        "propagate": ("k", "ns"),
        "simulate": ("ns", "reps"),
        "report": ("k", "ns", "reps", "xs", "tol"),
        "limits": ("k", "xs", "tol"),
    }.get(command, ())
    if "k" in uses:
        _require(k >= 1, f"K={k}: truncation length must be >= 1")
    if "ns" in uses:
        _require(min(ns, default=0) >= 0, "generation index must be >= 0")
    if "reps" in uses and reps is not None:  # Monte Carlo runs
        _require(reps >= 1, "need at least one trajectory")
        _require(reps < 2**63, f"reps={reps} does not fit in a 64-bit count")
        _require(seed >= 0, f"seed={seed} must be >= 0")
    if "xs" in uses:
        _require(all(0.0 <= x <= 1.0 for x in xs), "PGF argument must lie in [0, 1]")
    if "tol" in uses:
        _require(tol > 0.0, f"tol={tol!r} must be positive")


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the exit status, writing artifacts."""
    sf = parse_scenario(args.scenario)
    spec = sf.spec
    for note in sf.notes:
        print(f"warning: {note}", file=sys.stderr)
    k = _first(args.k_trunc, spec.k_trunc)
    n = _first(args.n, spec.horizon)
    seed = _first(args.seed, sf.defaults.seed, 0)
    xs = _first(args.x_grid, sf.defaults.x_grid, diagnostics.DEFAULT_X_GRID)
    tol = _first(args.tol, sf.defaults.tol, _DEFAULT_TOL)
    # the Monte Carlo column of a report comes from --reps only, never from run.reps
    reps = args.reps if args.command == "report" else _first(args.reps, sf.defaults.reps)
    grid = _first(args.n_grid, sf.defaults.n_grid, (spec.horizon,))
    _check_run(args.command, k=k, ns=grid if args.command == "report" else (n,),
               reps=reps, seed=seed, xs=xs, tol=tol)

    if args.command == "classify":
        law = classify(spec)
        if args.format == "json":
            text = json.dumps(
                {"scenario": spec.name, "law": law.describe()}, sort_keys=True
            ) + "\n"
        else:
            text = law.describe() + "\n"
    elif args.command == "propagate":
        state = engine.propagate(spec, n, k)
        text = _pmf_text(
            state.pmf,
            args.format,
            {"scenario": spec.name, "command": "propagate", "n": n, "K": k},
        )
    elif args.command == "simulate":
        if reps is None:
            raise ScenarioValidationError("simulate needs --reps")
        empirical = engine.simulate(spec, n, reps, seed)
        text = _pmf_text(
            empirical,
            args.format,
            {
                "scenario": spec.name,
                "command": "simulate",
                "n": n,
                "reps": reps,
                "seed": seed,
            },
        )
    elif args.command == "report":
        rep = diagnostics.report(
            spec, grid, k, reps=reps, seed=seed, x_grid=xs, tol=tol
        )
        text = rep.to_json() if args.format == "json" else rep.to_csv(
            include_mc=args.reps is not None
        )
    elif args.command == "limits":
        text = _limit_output(sf, args, k, xs, tol)
    else:  # pragma: no cover - argparse restricts choices
        raise ScenarioValidationError(f"unknown command {args.command!r}")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except WrongRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRONG_REGIME
    except (NumericError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
