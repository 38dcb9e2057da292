"""Exact propagation of the generation law and Monte Carlo simulation.

One step of the process compounds the previous law with the offspring law
and convolves in the immigration law; iterating from a point mass at zero
yields the exact (truncated) distribution of any generation. The same
quantities can be evaluated scalar-wise through the composed offspring
maps, giving an independent second route for cross-checks, and a seeded
vectorized simulator gives a third.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import pgf
from .errors import NumericError
from .families import (
    NegativeBinomialLimit,
    PoissonLimit,
    ScenarioSpec,
    classify,
)

DEFICIENCY_FLAG = 1e-6


@dataclass(frozen=True)
class GenerationState:
    """Law of one generation plus the truncation mass lost getting there."""

    n: int
    pmf: pgf.Pmf
    cumulative_deficiency: float
    truncated: bool = False


# generations whose family tables one fetch covers in the forward sweep;
# in perfbench's exact_deep, blocks of 64 to 256 ran alike, while 512 ran
# about 12 % slower and held 0.4 MB more at peak
BLOCK = 256


def step(prev, offspring_pmf, immigration_pmf, k_trunc: int):
    """One generation: compound with offspring, convolve in immigration.

    Takes :class:`pgf.Pmf`s or coefficient vectors and returns the kind of
    ``prev``, as :func:`pgf.compound` and :func:`pgf.convolve` do.
    """
    return pgf.convolve(
        pgf.compound(prev, offspring_pmf, k_trunc), immigration_pmf, k_trunc
    )


def propagate_sequence(spec: ScenarioSpec, ns, k_trunc: int | None = None,
                       initial: pgf.Pmf | None = None) -> list[GenerationState]:
    """States at every requested generation, sharing one forward sweep.

    The sweep runs on plain coefficient vectors. For each block of
    :data:`BLOCK` generations it fetches one validated offspring table and
    one immigration table, then calls :func:`step` on their rows; the law
    is wrapped in a validated :class:`pgf.Pmf` only at a requested
    generation, where its deficiency is read off.

    No per-step validation is needed. Every operand of ``compound`` and
    ``convolve`` is nonnegative and finite with mass at most 1, up to the
    slack a :class:`pgf.Pmf` allows: the starting law and the table rows
    are validated, and each later law is made of sums and products of
    such coefficients, truncated. So an intermediate law has no negative
    entry, no non-finite entry and no excess mass, and the roundoff clamp
    never acts on one: the sweep is bit-equal to a loop of
    :class:`pgf.Pmf`-typed steps over the scalar ``pmf(n, K)``. (A custom
    offspring table whose width changes with n is zero-padded to the
    widest row of a block, and the padding can move the last bit.)
    """
    targets = sorted(set(int(n) for n in ns))
    if targets and targets[0] < 0:
        raise ValueError("generation index must be >= 0")
    k = spec.k_trunc if k_trunc is None else k_trunc
    law = (pgf.Pmf.delta(0) if initial is None else initial).coeffs
    wanted = set(targets)
    out = {}
    if 0 in wanted:
        out[0] = pgf.Pmf(law)
    top = targets[-1] if targets else 0
    for start in range(1, top + 1, BLOCK):
        block = np.arange(start, min(start + BLOCK, top + 1))
        offspring = spec.offspring.pmf(block, k)
        immigration = spec.immigration.pmf(block, k)
        for i, n in enumerate(block.tolist()):
            law = step(law, offspring[i], immigration[i], k)
            if n in wanted:
                out[n] = pgf.Pmf(law)
    states = []
    for n in targets:
        deficiency = out[n].deficiency
        flagged = deficiency > DEFICIENCY_FLAG
        if flagged:
            warnings.warn(
                f"truncation K={k} loses {deficiency:.3e} mass by n={n}; "
                "increase K"
            )
        states.append(GenerationState(n, out[n], deficiency, flagged))
    return states


def propagate(spec: ScenarioSpec, n: int, k_trunc: int | None = None,
              initial: pgf.Pmf | None = None) -> GenerationState:
    """Exact law of generation ``n`` (X_0 = 0 unless ``initial`` is given)."""
    return propagate_sequence(spec, [n], k_trunc, initial)[0]


def composed_eval_all(spec: ScenarioSpec, n: int, x: float) -> np.ndarray:
    """vals[j] = (G_{j+1} o ... o G_n)(x) for j = 0..n, one backward pass.

    The parameters of all n generations come from one array call (a custom
    table's coefficients too), and the sequential recurrence runs the
    family's formula on plain floats.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("PGF argument must lie in [0, 1]")
    formula = spec.offspring.pgf_formula
    cols = spec.offspring.params(np.arange(1, n + 1))
    y = float(x)
    vals = [y]
    for par in zip(*(c.tolist()[::-1] for c in cols)):
        y = formula(par, y)
        if not 0.0 <= y <= 1.0:
            raise NumericError(
                f"composed offspring map left [0, 1] at generation "
                f"{n + 1 - len(vals)}: {y!r}"
            )
        vals.append(y)
    return np.array(vals[::-1])


def _finite_factors(spec: ScenarioSpec, n: int, x: float) -> np.ndarray:
    """H_j(Gbar_{j+1,n}(x)) for j = 1..n at the clamped (finite-n) rates."""
    vals = composed_eval_all(spec, n, x)
    return spec.immigration.pgf_values(np.arange(1, n + 1), vals[1:], "clamped")


def pgf_via_product(spec: ScenarioSpec, n: int, x: float) -> float:
    """F_n(x) as the product of immigration factors over composed maps.

    Independent of :func:`propagate`'s coefficient route; the two agree up
    to the accumulated truncation deficiency.
    """
    return float(np.prod(_finite_factors(spec, n, x)))


def accompanying_eval(spec: ScenarioSpec, n: int, x: float) -> float:
    """Exponential companion exp{sum_j (H_j(Gbar_{j+1,n}(x)) - 1)}."""
    return math.exp(float(np.sum(_finite_factors(spec, n, x) - 1.0)))


# ---------------------------------------------------------------------------
# Monte Carlo


def simulate(spec: ScenarioSpec, n: int, reps: int, seed: int) -> pgf.Pmf:
    """Empirical law of generation ``n`` from ``reps`` seeded trajectories.

    Trajectories are i.i.d., so the population is held as a histogram:
    h[s] trajectories with s individuals. Each generation the family
    samplers split every occupied state exactly by conditional binomials
    (offspring, then immigrants), and the new histogram sums the
    anti-diagonals of the immigration split. One PCG64 stream seeded with
    ``seed`` drives the whole run, so results are reproducible, and the work
    per generation depends on the occupied states, not on ``reps``. One seed
    gives a different sample, of the same law, than releases that drew
    per-trajectory variates.
    """
    if n < 0:
        raise ValueError("generation index must be >= 0")
    if reps < 1:
        raise ValueError("need at least one trajectory")
    if reps > np.iinfo(np.int64).max:
        raise ValueError(f"reps={reps} does not fit in a 64-bit count")
    rng = np.random.default_rng(seed)
    h = np.array([reps], dtype=np.int64)
    for gen in range(1, n + 1):
        kids = spec.offspring.sample(gen, h, rng).sum(axis=0)
        arrivals = spec.immigration.sample(gen, kids, rng)
        h = np.zeros(arrivals.shape[0] + arrivals.shape[1] - 1, dtype=np.int64)
        for k in range(arrivals.shape[1]):
            h[k : k + arrivals.shape[0]] += arrivals[:, k]
    return pgf.Pmf(h[: np.flatnonzero(h)[-1] + 1] / reps)


def default_truncation(spec: ScenarioSpec) -> int:
    """Smallest K with the classified target's tail below 1e-10, doubled."""
    law = classify(spec)
    if isinstance(law, PoissonLimit):
        return 2 * _tail_index(pgf.poisson_coeffs(law.lam, 4096))
    if isinstance(law, NegativeBinomialLimit):
        return 2 * _tail_index(pgf.nb_coeffs(law.r, law.p, 4096))
    return max(2 * spec.k_trunc, 64)


def _tail_index(coeffs: np.ndarray) -> int:
    tail = 1.0 - np.cumsum(coeffs)
    hits = np.nonzero(tail < 1e-10)[0]
    if hits.shape[0] == 0:
        raise NumericError("target tail does not drop below 1e-10 in range")
    return int(hits[0]) + 1
