"""Exact propagation of the generation law and Monte Carlo simulation.

The law of generation b follows from the law at any earlier a < b by the
product over immigrant cohorts,
F_b(x) = F_a(Gbar_{a+1,b}(x)) prod_{j=a+1..b} H_j(Gbar_{j+1,b}(x)), with
Gbar_{j,b} = G_j o ... o G_b; :func:`propagate_sequence` evaluates it on
truncated coefficient series. The same quantities can be evaluated
scalar-wise through the composed offspring maps, giving an independent
second route for cross-checks, and a seeded vectorized simulator gives a
third. The one-generation :func:`step` stays as the forward oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linfrac, pgf
from .errors import NumericError
from .families import (
    NegativeBinomialLimit,
    PoissonLimit,
    ScenarioSpec,
    classify,
    lf_coeffs,
)

DEFICIENCY_FLAG = 1e-6


@dataclass(frozen=True)
class GenerationState:
    """Law of one generation plus the truncation mass lost getting there."""

    n: int
    pmf: pgf.Pmf
    cumulative_deficiency: float
    truncated: bool = False


# generations whose family tables and composed maps one fetch covers in the
# backward pass; in perfbench's exact_deep, blocks of 64 to 256 ran alike,
# while 512 ran about 12 % slower and held 0.4 MB more at peak
BLOCK = 256


def step(prev, offspring_pmf, immigration_pmf, k_trunc: int):
    """One generation: compound with offspring, convolve in immigration.

    Takes :class:`pgf.Pmf`s or coefficient vectors and returns the kind of
    ``prev``, as :func:`pgf.compound` and :func:`pgf.convolve` do. With a
    composed map Gbar_{a+1,b} for the offspring law and the product of the
    cohorts for the immigration law it closes a whole interval.
    """
    return pgf.convolve(
        pgf.compound(prev, offspring_pmf, k_trunc), immigration_pmf, k_trunc
    )


def _advance(spec: ScenarioSpec, law: np.ndarray, a: int, b: int,
             k: int) -> np.ndarray:
    """Coefficients of the law at generation b > a from those at a.

    Walks j = b, ..., a+1 backward in blocks of :data:`BLOCK`, holding the
    composed maps Gbar_{j+1,b} of one block as series truncated at k
    (linear-fractional maps from their closed form, affine maps under
    binomial thinning from one scan over the block, the other polynomial
    kinds by composing each generation's map onto the last one) and
    multiplying in the block's cohorts H_j(Gbar_{j+1,b}); one :func:`step`
    then applies Gbar_{a+1,b} to the law at a and convolves in the cohorts.
    """
    off = spec.offspring
    lf = off.kind == "linear_fractional"
    if lf:
        alpha, beta = linfrac.composed_params_all(spec, b)
        g = lf_coeffs(alpha[a : a + 1], beta[a : a + 1], k)[0]
    else:
        g = np.array([0.0, 1.0])[:k]  # Gbar_{b+1,b}(x) = x
    cohorts = np.ones(1)
    for hi in range(b, a, -BLOCK):
        ns = np.arange(max(a, hi - BLOCK) + 1, hi + 1)
        if lf:
            maps = lf_coeffs(alpha[ns], beta[ns], k)
        else:
            maps, g = off.compose_back(ns, g, k)
        block = spec.immigration.cohort_product(ns, maps, k)
        cohorts = np.convolve(cohorts, block)[:k]
    return step(law, g, cohorts, k)


def propagate_sequence(spec: ScenarioSpec, ns, k_trunc: int | None = None,
                       initial: pgf.Pmf | None = None) -> list[GenerationState]:
    """States at every requested generation, one interval after another.

    Each interval between consecutive targets (from 0, with X_0 = 0 or the
    ``initial`` law) is closed by :func:`_advance`, the product formula of
    the module docstring. The work per generation is one offspring map
    applied to a series and one cohort term, which :func:`pgf.product`
    multiplies out per block; under Bernoulli offspring both are built for
    the whole block at once. Memory stays at one block of maps and tables,
    whatever n is. The law is wrapped in a validated :class:`pgf.Pmf` at
    each target, where its deficiency is read off.

    Every series operation is a sum of products of nonnegative
    coefficients truncated at K (the Poisson exponent's constant term only
    scales the result), so each coefficient below K is exact up to
    rounding, given the family laws as their ``pmf`` rows truncated at K.
    The deficiency is the mass beyond K at the interval ends, plus what
    those rows drop from a custom table or base law wider than K: never
    more than a forward loop of :func:`step` loses, which truncates every
    generation.
    """
    targets = sorted(set(int(n) for n in ns))
    if targets and targets[0] < 0:
        raise ValueError("generation index must be >= 0")
    k = spec.k_trunc if k_trunc is None else k_trunc
    law = (pgf.Pmf.delta(0) if initial is None else initial).coeffs
    out, prev = {}, 0
    for n in targets:
        if n > prev:
            law = _advance(spec, law, prev, n, k)
        out[n] = pgf.Pmf(law)
        prev = n
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
