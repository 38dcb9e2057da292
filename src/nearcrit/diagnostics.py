"""Quantitative convergence measurement against the classified limit law.

Builds per-generation tables of total-variation distance (or an x-grid
PGF sup-gap when the limit has no computable PMF), factorial-moment gaps,
the explicit accompanying-law gap bound, the telescoping weight sums and
the hypothesis condition ratios.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import engine, limits, pgf
from .errors import NumericError, WrongRegimeError
from .families import (
    CompoundPoissonLimit,
    ConditionRatios,
    GeneralExpLimit,
    LimitLaw,
    NegativeBinomialLimit,
    OutsideScope,
    PoissonLimit,
    ProductLimit,
    ScenarioSpec,
    classify,
    condition_ratios,
)
from .linfrac import chain_logs, chain_product

DEFAULT_X_GRID = tuple(round(0.1 * i, 1) for i in range(11))


def tv_distance(a: pgf.Pmf, b: pgf.Pmf) -> float:
    """Total-variation distance with deficiencies as an extra atom.

    (1/2)(sum_k |a_k - b_k| + |def(a) - def(b)|); the lost tails are
    treated as mass on one shared absorbing point, keeping the metric
    honest between truncated and analytic laws.
    """
    n = max(len(a), len(b))
    pa = np.zeros(n)
    pb = np.zeros(n)
    pa[: len(a)] = a.coeffs
    pb[: len(b)] = b.coeffs
    return 0.5 * (
        float(np.abs(pa - pb).sum()) + abs(a.deficiency - b.deficiency)
    )


def _vartheta_all(spec: ScenarioSpec, n: int) -> np.ndarray:
    """Chord slopes vartheta_{j,n} = (1 - G_j(1 - rho_[j,n])) / rho_[j,n], j = 1..n.

    Each lies in (0, rho_j] by convexity, with rho_j - vartheta_{j,n} <=
    rho_[j,n] G_j''(1); they are the rates of the upper bound.
    """
    s = chain_logs(spec, n)
    rho_jn = np.exp(s[n] - s[1:])
    if not np.all(rho_jn > 0.0):
        j = int(np.argmin(rho_jn > 0.0)) + 1
        raise NumericError(f"chain product rho_[{j},{n}] underflows to 0")
    g = spec.offspring.pgf_at(np.arange(1, n + 1), 1.0 - rho_jn)
    return (1.0 - g) / rho_jn


def toeplitz_weights(spec: ScenarioSpec, n: int) -> tuple[float, float]:
    """Weight sums sum_j (1-rho_j) rho_[j,n] and sum_j (1-rho_j) theta_[j,n].

    The first telescopes to 1 - rho_[0,n] exactly; both must approach 1 in
    the divergent regime for the Toeplitz averaging argument to bite.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    s = chain_logs(spec, n)
    one_minus = np.asarray(
        spec.offspring.one_minus_rho(np.arange(1, n + 1)), dtype=float
    )
    rho_jn = np.exp(s[n] - s[1:])
    rho_sum = float(np.sum(one_minus * rho_jn))
    theta = _vartheta_all(spec, n)
    # theta_[j,n] = prod_{l=j+1..n} theta_{l,n}, built as suffix products
    suffix = np.concatenate([np.cumprod(theta[::-1])[::-1], [1.0]])
    theta_sum = float(np.sum(one_minus * suffix[1:]))
    return rho_sum, theta_sum


def accompanying_gap_bound(spec: ScenarioSpec, n: int, x: float) -> float:
    """(1-x)^2 sum_j m_{j,1}^2 rho_[j,n]^2, the exponential-companion bound."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("PGF argument must lie in [0, 1]")
    s = chain_logs(spec, n)
    m = np.asarray(spec.immigration.mean(np.arange(1, n + 1)), dtype=float)
    rho_jn = np.exp(s[n] - s[1:])
    return (1.0 - x) ** 2 * float(np.sum(m**2 * rho_jn**2))


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
        payload = {
            "scenario": self.scenario,
            "law": self.law,
            "rows": [
                {
                    **{k: v for k, v in asdict(row).items() if k != "ratios"},
                    "condition_ratios": asdict(row.ratios),
                }
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _limit_moments(law: LimitLaw, spec: ScenarioSpec) -> tuple[float, float]:
    """(mean, second factorial moment) of the classified limit."""
    if isinstance(law, PoissonLimit):
        return law.lam, law.lam**2
    if isinstance(law, NegativeBinomialLimit):
        mean = law.r * law.p / (1.0 - law.p)
        m2 = law.r * (law.r + 1.0) * (law.p / (1.0 - law.p)) ** 2
        return mean, m2
    if isinstance(law, (CompoundPoissonLimit, GeneralExpLimit)):
        # (log PGF)'(1) = lambda_1 and (log PGF)''(1) = lambda_2
        lam1 = spec.lambda_l(1)
        return lam1, lam1**2 + spec.lambda_l(2)
    if isinstance(law, ProductLimit):
        return limits.product_law_mean(spec), math.nan
    raise ValueError(f"no limit moments for {law.describe()}")


def _limit_pmf(law: LimitLaw, k_trunc: int) -> pgf.Pmf | None:
    """Limit PMF when computable, else None (PGF-grid comparison instead)."""
    if isinstance(law, PoissonLimit):
        return limits.poisson_pmf(law.lam, k_trunc)
    if isinstance(law, NegativeBinomialLimit):
        return limits.nb_pmf(law.r, law.p, k_trunc)
    atoms = limits.limit_atoms(law)
    return None if atoms is None else limits.cp_pmf(atoms, k_trunc)


def report(spec: ScenarioSpec, n_grid, k_trunc: int | None = None,
           reps: int | None = None, seed: int = 0,
           x_grid=DEFAULT_X_GRID, tol: float = 1e-7) -> ConvergenceReport:
    """Per-n convergence table against the classified limit law.

    When the limit PMF is unavailable (product regime) the tv column
    carries the sup-norm PGF gap over ``x_grid`` instead, against the
    product law evaluated to within ``tol``.
    """
    law = classify(spec)
    if isinstance(law, OutsideScope):
        raise WrongRegimeError(f"cannot build a report: {law.reason}")
    k = spec.k_trunc if k_trunc is None else k_trunc
    target_pmf = _limit_pmf(law, k)
    if target_pmf is None:
        target_pgf = limits.product_law_eval(spec, x_grid, tol).tolist()
    lim_mean, lim_m2 = _limit_moments(law, spec)
    states = engine.propagate_sequence(spec, n_grid, k)
    rows = []
    for state in states:
        n = state.n
        if target_pmf is not None:
            tv = tv_distance(state.pmf, target_pmf)
            gap = tv
        else:
            tv = gap = max(abs(pgf.evaluate(state.pmf, x) - g)
                           for x, g in zip(x_grid, target_pgf))
        mean_gap = abs(pgf.factorial_moment(state.pmf, 1) - lim_mean)
        m2 = pgf.factorial_moment(state.pmf, 2)
        m2_gap = abs(m2 - lim_m2) if math.isfinite(lim_m2) else math.nan
        bound = accompanying_gap_bound(spec, n, 0.0) if n >= 1 else 0.0
        toeplitz, _ = toeplitz_weights(spec, n) if n >= 1 else (0.0, 0.0)
        mc_tv = None
        if reps is not None:
            empirical = engine.simulate(spec, n, reps, seed)
            mc_tv = tv_distance(empirical, state.pmf)
        rows.append(
            ReportRow(
                n=n,
                tv=tv,
                pgf_gap=gap if target_pmf is None else math.nan,
                mean_gap=mean_gap,
                m2_gap=m2_gap,
                bound=bound,
                toeplitz=toeplitz,
                ratios=condition_ratios(spec, max(n, 1)),
                mc_tv=mc_tv,
            )
        )
    return ConvergenceReport(spec.name, law.describe(), tuple(rows))
