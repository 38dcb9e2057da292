"""Exact propagation of the generation law and Monte Carlo simulation.

The law of generation b follows from the law at any earlier a < b by the
product over immigrant cohorts,
F_b(x) = F_a(Gbar_{a+1,b}(x)) prod_{j=a+1..b} H_j(Gbar_{j+1,b}(x)), with
Gbar_{j,b} = G_j o ... o G_b; :func:`propagate_sequence` evaluates it on
truncated coefficient series, for every interval between consecutive
targets from one backward sweep, and closes the intervals with one
:func:`step` each. The same quantities can be evaluated
scalar-wise through the composed offspring maps, giving an independent
second route for cross-checks, and a seeded vectorized simulator gives a
third. The one-generation :func:`step` stays as the forward oracle.
"""

from __future__ import annotations

import bisect
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
    """Law of one generation; ``pmf.deficiency`` is the truncation mass
    lost getting there."""

    n: int
    pmf: pgf.Pmf
    truncated: bool = False


# cells (generations x row width) of the widest table that one block of the
# backward pass builds: 256 generations at K = 64. A block holds CELLS over
# its widest row, and never fewer than MIN_BLOCK generations; on the K-wide
# route (quadratic thm5_nb at K = 64 and 128, linear-fractional at 128)
# blocks of 64, 256 and 1024 generations ran within the noise of each other
# on a shared 2-core x86-64 machine, and 256 holds the table at K = 64 to
# the budget. Monte Carlo fetches parameters in blocks of MIN_BLOCK.
CELLS = 256 * 64
MIN_BLOCK = 256


def block_length(spec: ScenarioSpec, k: int) -> int:
    """Generations per block of :func:`_sweep` at truncation ``k``: CELLS
    over the widest row the block builds, the cohort terms' width, which
    the immigration class gives over the offspring class's map width and
    is never below it; at least MIN_BLOCK."""
    widest = spec.immigration.term_width(spec.offspring.map_width(k), k)
    return max(MIN_BLOCK, CELLS // widest)


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


def _sweep(spec: ScenarioSpec, tops: list, k: int) -> list:
    """(Gbar_{a+1,b}, prod_{j=a+1..b} H_j(Gbar_{j+1,b})) truncated at k for
    each interval (a, b] between consecutive entries of 0 and ``tops``
    (ascending, positive), in that order.

    One backward sweep over generations N = tops[-1], ..., 1 in blocks of
    :func:`block_length` serves every interval: the targets cut each block
    into pieces, listed once per block as row bounds (lo, hi) that every
    step of the block reads, and the family tables of a block are fetched
    and validated once. Its composed maps Gbar_{j+1,b} come, for every
    piece at once, from the offspring law's ``_block_maps``: the closed
    form (linear-fractional), one segmented scan (affine maps under
    binomial thinning) or one Horner pass that restarts from x at each
    target (the other polynomial kinds); the top piece continues the map
    carried down from the block above. The cohort terms H_j(Gbar_{j+1,b})
    are built once per block and :func:`pgf.product` multiplies each piece,
    K wide; one short product multiplies the top piece's product into the
    one carried down, which starts as the series 1. A piece whose interval
    goes on below the block passes its map and product down.
    """
    imm, block_maps = spec.immigration, spec.offspring._block_maps(spec, tops, k)
    length = block_length(spec, k)
    identity = np.array([0.0, 1.0])[:k]  # Gbar_{b+1,b}(x) = x
    unit = np.eye(1, k)[0]  # the empty product of cohorts, K wide
    g, cohorts = identity, unit
    tail, times = pgf._short_products(k)
    closed = []
    for hi in range(tops[-1], 0, -length):
        lo = max(0, hi - length)
        ns = np.arange(lo + 1, hi + 1)
        # a piece starts at each generation right above a target
        inner = tops[bisect.bisect_right(tops, lo) : bisect.bisect_left(tops, hi)]
        cuts = [0] + [t - lo for t in inner] + [hi - lo]
        pieces = list(zip(cuts, cuts[1:]))
        maps, outs = block_maps(ns, g, pieces)
        parts = imm.cohort_product(ns, maps, k, pieces)
        tail[:] = cohorts
        parts[-1] = times(parts[-1][::-1])
        closed.extend(zip(outs[:0:-1], parts[:0:-1]))
        if lo == 0 or lo in tops:
            closed.append((outs[0], parts[0]))
            g, cohorts = identity, unit
        else:
            g, cohorts = outs[0], parts[0]
    return closed[::-1]


def propagate_sequence(spec: ScenarioSpec, ns, k_trunc: int | None = None,
                       initial: pgf.Pmf | None = None) -> list[GenerationState]:
    """States at every requested generation from one backward sweep.

    :func:`_sweep` gives, for each interval between consecutive targets
    (from 0, with X_0 = 0 or the ``initial`` law), the composed map
    Gbar_{a+1,b} and the product of its cohorts, the product formula of
    the module docstring; then one :func:`step` per target closes the
    intervals in order. The work per generation is one offspring map
    applied to a series and one cohort term, whatever the number of
    targets, and each target adds one closing step. Memory stays at one
    block of maps and tables, each at most CELLS entries (MIN_BLOCK x K
    once K-wide rows pass CELLS / MIN_BLOCK), plus two series per target,
    whatever n is.
    The law is wrapped in a validated :class:`pgf.Pmf` at each target,
    where its deficiency is read off.

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
    out = {}
    tops = [n for n in targets if n > 0]
    if 0 in targets:
        out[0] = pgf.Pmf(law)
    for n, (g, cohorts) in zip(tops, _sweep(spec, tops, k) if tops else []):
        law = step(law, g, cohorts, k)
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
        states.append(GenerationState(n, out[n], flagged))
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


def _histogram(values: np.ndarray, counts: np.ndarray):
    """(states, counts) of the occupied states, ascending: ``counts`` summed
    at ``values`` in int64, so every count stays exact up to 2^63 - 1."""
    h = np.zeros(int(values.max()) + 1, dtype=np.int64)
    np.add.at(h, values, counts)
    states = h.nonzero()[0]
    return states, h[states]


def _histograms(spec: ScenarioSpec, top: int, reps: int, seed: int):
    """Yield (n, states, counts) for n = 0..top: the occupied trajectory
    states of generation n, ascending, and how many of the ``reps``
    trajectories hold each, as int64.

    The parameters of each block of :data:`MIN_BLOCK` generations come from
    one array call per family (``_sample_params``), so memory does not grow
    with the number of generations. Each generation the offspring
    ``_draw`` splits the occupied states into cells (row, children, count),
    a finite law by binomial stages over its values, most likely first,
    which sum into the histogram of children; the immigration ``_draw``
    splits its occupied states into cells (row, immigrants, count), and the
    next histogram sums the counts at state + immigrants. No array spans
    every state times every total: a generation costs a few NumPy passes
    over the occupied cells, and a bounded stage one multinomial table over
    the occupied states and the values they can take.
    """
    rng = np.random.default_rng(seed)
    off, imm = spec.offspring, spec.immigration
    states, counts = np.zeros(1, dtype=np.int64), np.array([reps], dtype=np.int64)
    yield 0, states, counts
    for lo in range(1, top + 1, MIN_BLOCK):
        ns = np.arange(lo, min(lo + MIN_BLOCK, top + 1))
        for n, off_par, imm_par in zip(ns.tolist(), off._sample_params(ns),
                                       imm._sample_params(ns)):
            _, kids, cnt = off._draw(off_par, counts, states, rng)
            states, counts = _histogram(kids, cnt)
            value, cnt = imm._draw(imm_par, counts, rng)
            states, counts = _histogram(states[:, None] + value, cnt)
            yield n, states, counts


def simulate_sequence(spec: ScenarioSpec, ns, reps: int, seed: int) -> list[pgf.Pmf]:
    """Empirical laws at every requested generation (sorted, as
    :func:`propagate_sequence` gives its states) from one seeded run of
    ``reps`` trajectories to the largest.

    The stream draws generations 1, 2, ... alike whatever the target, so
    each law equals :func:`simulate` at its own n, bit for bit.
    """
    targets = sorted(set(int(n) for n in ns))
    if targets and targets[0] < 0:
        raise ValueError("generation index must be >= 0")
    if reps < 1:
        raise ValueError("need at least one trajectory")
    if reps > np.iinfo(np.int64).max:
        raise ValueError(f"reps={reps} does not fit in a 64-bit count")
    laws = {}
    for n, states, counts in _histograms(spec, targets[-1] if targets else 0, reps, seed):
        if n in targets:
            h = np.zeros(int(states[-1]) + 1, dtype=np.int64)
            h[states] = counts
            laws[n] = pgf.Pmf(h / reps)
    return [laws[n] for n in targets]


def simulate(spec: ScenarioSpec, n: int, reps: int, seed: int) -> pgf.Pmf:
    """Empirical law of generation ``n`` from ``reps`` seeded trajectories.

    Trajectories are i.i.d., so the population is held as a histogram:
    counts[i] trajectories with states[i] individuals, over the occupied
    states only. Each generation the family samplers split every occupied
    state exactly by conditional binomials (offspring, then immigrants)
    into cells, and the next histogram sums them (:func:`_histograms`). One
    PCG64 stream seeded with ``seed`` drives the whole run, so results are
    reproducible, and the work and memory per generation depend on the
    occupied states and the values they can take, not on ``reps``. One
    seed gives a different sample, of the same law, than releases that
    drew per-trajectory variates.
    """
    return simulate_sequence(spec, [n], reps, seed)[0]


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
