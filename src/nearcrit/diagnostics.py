"""Quantitative convergence measurement against the classified limit law.

Builds per-generation tables of total-variation distance (or an x-grid
PGF sup-gap when the limit has no computable PMF), factorial-moment gaps,
the explicit accompanying-law gap bound, the telescoping weight sums and
the hypothesis condition ratios.

A report over an n-grid costs one propagation sweep up to its largest n
and one closing step per row (see :func:`engine.propagate_sequence`),
then one array pass of each row helper over all rows:
:func:`toeplitz_weights`, :func:`accompanying_gap_bound` and
``condition_ratios`` take the whole grid and build the chain logs,
1 - rho_j and m_{j,1} once up to the largest n. The sums over rho_[j,n]
come from tables with a row per generation, so the second Toeplitz sum,
which the report discards, makes one ``pgf_at`` call per table, not one
per row; each row is summed over its own prefix, so every row is bit for
bit its one-generation call. The tv column and the factorial moments
come from one stacked table of the laws.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import engine, limits, pgf
from .errors import WrongRegimeError
from .families import (
    ConditionRatios,
    OutsideScope,
    ScenarioSpec,
    classify,
    condition_ratios,
)
from .linfrac import chain_logs, chain_product

DEFAULT_X_GRID = tuple(round(0.1 * i, 1) for i in range(11))


def tv_distance(a, b: pgf.Pmf):
    """Total-variation distance with deficiencies as an extra atom.

    (1/2)(sum_k |a_k - b_k| + |def(a) - def(b)|); the lost tails are
    treated as mass on one shared absorbing point, keeping the metric
    honest between truncated and analytic laws.

    ``a`` is one :class:`pgf.Pmf` (a float out) or a sequence of them (one
    distance each, from one stacked table); the one law is the one-row
    case of the same code.
    """
    laws = [a] if isinstance(a, pgf.Pmf) else list(a)
    pa = _stacked(laws, len(b))
    pb = _stacked([b], pa.shape[1])[0]
    lost = np.array([p.deficiency for p in laws])
    dist = 0.5 * (np.abs(pa - pb).sum(axis=1) + np.abs(lost - b.deficiency))
    return float(dist[0]) if isinstance(a, pgf.Pmf) else dist


def _stacked(laws, width: int = 1) -> np.ndarray:
    """One law per row, each zero-padded to the widest (at least ``width``)."""
    table = np.zeros((len(laws), max([width, *(len(p) for p in laws)])))
    for row, p in zip(table, laws):
        row[: len(p)] = p.coeffs
    return table


def _grid(n) -> tuple[np.ndarray, int]:
    """(generations, largest) of one generation or an array of them."""
    ns = np.atleast_1d(np.asarray(n, dtype=int))
    if ns.size and ns.min() < 0:
        raise ValueError("generation index must be >= 0")
    return ns, int(ns.max(initial=0))


# entries of one table of the grid helpers: 125 KB, below glibc's default
# mmap threshold, so its temporaries are reused instead of mapped afresh
# (which made each pass over a 420 KB table about 4 times slower per entry
# on a 2-core x86-64 virtual machine)
_TABLE_CELLS = 16_000


def _row_chunks(ns: np.ndarray):
    """Index arrays into ``ns``, in ascending order of n, each a set of rows
    whose table (rows times largest n) holds at most :data:`_TABLE_CELLS`
    entries, one row at least."""
    chunk = []
    for i in np.argsort(ns, kind="stable").tolist():
        if chunk and (len(chunk) + 1) * ns[i] > _TABLE_CELLS:
            yield np.array(chunk)
            chunk = []
        chunk.append(i)
    if chunk:
        yield np.array(chunk)


def _chain_table(s: np.ndarray, ns: np.ndarray):
    """(rho, inside) for generations ``ns`` up to the largest, N:
    rho[i, j-1] = rho_[j,n_i] = exp(S[n_i] - S[j]) where ``inside``
    (j <= n_i), and 1 beyond."""
    inside = np.arange(1, s.shape[0]) <= ns[:, None]
    return np.exp(np.where(inside, s[ns, None] - s[1:], 0.0)), inside


def _row_sums(terms: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """Row i of ``terms`` summed over its first ns[i] entries, by the sum a
    vector of just those entries gets."""
    return np.array([row[:n].sum() for row, n in zip(terms, ns.tolist())])


def _chord_slopes(spec: ScenarioSpec, rho_jn: np.ndarray) -> np.ndarray:
    """vartheta_{j,n} for j = 1..n from rho_jn[..., j-1] = rho_[j,n]; rows
    of a table broadcast against the generations."""
    g = spec.offspring.pgf_at(np.arange(1, rho_jn.shape[-1] + 1), 1.0 - rho_jn)
    # rho_[j,n] can underflow to 0: the IEEE quotient, 0/0 = nan, says so
    with np.errstate(divide="ignore", invalid="ignore"):
        return (1.0 - g) / rho_jn


def toeplitz_weights(spec: ScenarioSpec, n):
    """Weight sums sum_j (1-rho_j) rho_[j,n] and sum_j (1-rho_j) theta_[j,n].

    The first telescopes to 1 - rho_[0,n] exactly; both must approach 1 in
    the divergent regime for the Toeplitz averaging argument to bite.

    A scalar n gives two floats; an array of generations gives two arrays,
    entry i for generation n[i], from one :func:`chain_logs` and one
    ``one_minus_rho`` call up to the largest. Both sums are array passes
    over a table of rho_[j,n] with one row per generation, built for
    chunks of rows (:func:`_row_chunks`): the second makes one ``pgf_at``
    call per chunk, generations 1..N against the points 1 - rho_[j,n], and
    reads nan where a chain product rho_[j,n] it needs underflows to 0.
    Each entry is the sum of its own row's first n terms, so the scalar is
    the one-row case of the same code.
    """
    ns, top = _grid(n)
    s = chain_logs(spec, top)
    one_minus = np.asarray(
        spec.offspring.one_minus_rho(np.arange(1, top + 1)), dtype=float
    )
    sums = np.zeros((2, ns.shape[0]))
    for idx in _row_chunks(ns):
        rows = ns[idx]
        width = int(rows.max())
        rho, inside = _chain_table(s[: width + 1], rows)
        theta = np.where(inside, _chord_slopes(spec, rho), 1.0)
        # theta_[j,n] = prod_{l=j+1..n} theta_{l,n}, built as suffix products
        suffix = np.ones_like(theta)
        suffix[:, :-1] = np.cumprod(theta[:, :0:-1], axis=1)[:, ::-1]
        sums[0, idx] = _row_sums(one_minus[:width] * rho, rows)
        sums[1, idx] = _row_sums(one_minus[:width] * suffix, rows)
    if np.ndim(n):
        return sums[0], sums[1]
    return float(sums[0, 0]), float(sums[1, 0])


def accompanying_gap_bound(spec: ScenarioSpec, n, x: float):
    """(1-x)^2 sum_j m_{j,1}^2 rho_[j,n]^2, the exponential-companion bound.

    A scalar n gives a float; an array of generations gives one bound per
    entry, from one :func:`chain_logs` and one immigration ``mean`` call up
    to the largest and one table of rho_[j,n] per chunk of rows, each
    entry the sum of its own row's first n terms.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("PGF argument must lie in [0, 1]")
    ns, top = _grid(n)
    s = chain_logs(spec, top)
    m2 = np.asarray(spec.immigration.mean(np.arange(1, top + 1)), dtype=float) ** 2
    sums = np.zeros(ns.shape[0])
    for idx in _row_chunks(ns):
        rows = ns[idx]
        width = int(rows.max())
        sums[idx] = _row_sums(m2[:width] * _chain_table(s[: width + 1], rows)[0] ** 2,
                              rows)
    bounds = (1.0 - x) ** 2 * sums
    return bounds if np.ndim(n) else float(bounds[0])


def riemann_gap(spec: ScenarioSpec, j: int, n: int, k: int) -> tuple[float, float]:
    """(lhs - integral, allowance) of the Riemann-sum estimate of order k.

    lhs = sum_{l=j+1..n} (1-rho_l) rho_[l,n] (1-rho_[l,n])^k approximates
    (1-rho_[j,n])^(k+1)/(k+1) within (k+1) max_l (1-rho_l) rho_[l,n].
    """
    s = chain_logs(spec, n)
    l_idx = np.arange(j + 1, n + 1)
    one_minus = np.asarray(spec.offspring.one_minus_rho(l_idx), dtype=float)
    rho_ln = np.exp(s[n] - s[j + 1 :])
    lhs = float(np.sum(one_minus * rho_ln * (1.0 - rho_ln) ** k))
    rho_jn = chain_product(spec, j, n)
    integral = (1.0 - rho_jn) ** (k + 1) / (k + 1)
    allowance = (k + 1) * float(np.max(one_minus * rho_ln))
    return lhs - integral, allowance


# ---------------------------------------------------------------------------
# the per-n convergence report


@dataclass(frozen=True)
class ReportRow:
    n: int
    tv: float
    pgf_gap: float
    mean_gap: float
    m2_gap: float
    bound: float
    toeplitz: float
    ratios: ConditionRatios
    mc_tv: float | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    scenario: str
    law: str
    rows: tuple[ReportRow, ...]

    CSV_COLUMNS = ("n", "tv", "mean_gap", "m2_gap", "bound", "toeplitz")

    def to_csv(self, include_mc: bool = False) -> str:
        cols = list(self.CSV_COLUMNS) + (["mc_tv"] if include_mc else [])
        lines = [",".join(cols)]
        for row in self.rows:
            vals = [f"{row.n:d}"]
            for name in cols[1:]:
                v = getattr(row, name)
                vals.append("" if v is None else f"{v:.17g}")
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        def fields(obj) -> dict:  # nan and inf have no JSON form (RFC 8259): null
            return {k: None if isinstance(v, float) and not math.isfinite(v) else v
                    for k, v in asdict(obj).items()}

        payload = {
            "scenario": self.scenario,
            "law": self.law,
            "rows": [
                {
                    **{k: v for k, v in fields(row).items() if k != "ratios"},
                    "condition_ratios": fields(row.ratios),
                }
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def report(spec: ScenarioSpec, n_grid, k_trunc: int | None = None,
           reps: int | None = None, seed: int = 0,
           x_grid=DEFAULT_X_GRID, tol: float = 1e-7) -> ConvergenceReport:
    """Per-n convergence table against the classified limit law.

    When the limit PMF is unavailable (product regime) the tv column
    carries the sup-norm PGF gap over ``x_grid`` instead, against the
    product law evaluated to within ``tol``. With ``reps`` the mc_tv column
    compares each row with its Monte Carlo law, all rows from one seeded
    run (:func:`engine.simulate_sequence`).
    """
    law = classify(spec)
    if isinstance(law, OutsideScope):
        raise WrongRegimeError(f"cannot build a report: {law.reason}")
    k = spec.k_trunc if k_trunc is None else k_trunc
    target_pmf = limits.limit_pmf(law, k)
    if target_pmf is None:
        target_pgf = limits.product_law_eval(spec, x_grid, tol).tolist()
    lim_mean, lim_m2 = limits.limit_moments(law, spec)
    states = engine.propagate_sequence(spec, n_grid, k)
    ns = np.array([state.n for state in states], dtype=int)
    bounds = accompanying_gap_bound(spec, ns, 0.0)
    toeplitz, _ = toeplitz_weights(spec, ns)
    ratios = condition_ratios(spec, np.maximum(ns, 1))
    laws = [state.pmf for state in states]
    table = _stacked(laws)
    if target_pmf is not None:
        tvs = tv_distance(laws, target_pmf)
    else:
        tvs = [max(abs(pgf.evaluate(law, x) - g) for x, g in zip(x_grid, target_pgf))
               for law in laws]
    means = pgf.factorial_moment(table, 1)
    m2s = pgf.factorial_moment(table, 2)
    # one seeded run to the largest n serves every row; each row's law is
    # the one simulate(spec, n, reps, seed) gives
    empirical = None if reps is None else engine.simulate_sequence(spec, ns, reps, seed)
    rows = []
    for i, state in enumerate(states):
        tv = float(tvs[i])
        m2_gap = abs(float(m2s[i]) - lim_m2) if math.isfinite(lim_m2) else math.nan
        mc_tv = None if empirical is None else tv_distance(empirical[i], state.pmf)
        rows.append(
            ReportRow(
                n=state.n,
                tv=tv,
                pgf_gap=tv if target_pmf is None else math.nan,
                mean_gap=abs(float(means[i]) - lim_mean),
                m2_gap=m2_gap,
                bound=float(bounds[i]),
                toeplitz=float(toeplitz[i]),
                ratios=ratios[i],
                mc_tv=mc_tv,
            )
        )
    return ConvergenceReport(spec.name, law.describe(), tuple(rows))
