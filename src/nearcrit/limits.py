"""Constructors and evaluators for the limit laws.

Covers the Poisson and negative binomial targets, compound Poisson
intensities (finite sequences and alternating series), the general
exponential-of-a-centered-series law, and the infinite-product law of the
fast-convergence regime, together with the worked closed forms used as
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine, pgf
from .errors import (
    NotADistributionError,
    NumericError,
    SeriesDivergenceError,
    UnsupportedFamilyError,
    WrongRegimeError,
)
from .families import CompoundPoissonLimit, GeneralExpLimit, LimitLaw, ScenarioSpec

_ATOM_CLAMP = 1e-12


@dataclass(frozen=True)
class IntensityMeasure:
    """Finite intensity measure on {1, 2, ...}; ``atoms[j-1]`` is mu{j}."""

    atoms: np.ndarray
    tail_bound: float = 0.0
    series_depth: int = 0

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.atoms, dtype=float))
        if np.any(a < -_ATOM_CLAMP):
            raise NotADistributionError("intensity atoms must be nonnegative")
        a = np.where(a < 0.0, 0.0, a)
        if not np.all(np.isfinite(a)) or not math.isfinite(float(a.sum())):
            raise NotADistributionError("intensity must be a finite measure")
        a.setflags(write=False)
        object.__setattr__(self, "atoms", a)

    def total(self) -> float:
        return float(self.atoms.sum())

    def pgf_at(self, x: float) -> float:
        """exp{sum_j mu{j} (x^j - 1)}."""
        if not 0.0 <= x <= 1.0:
            raise ValueError("PGF argument must lie in [0, 1]")
        powers = x ** np.arange(1, self.atoms.shape[0] + 1)
        return math.exp(float(np.sum(self.atoms * (powers - 1.0))))

    def mean(self) -> float:
        return float(np.sum(self.atoms * np.arange(1, self.atoms.shape[0] + 1)))


@dataclass(frozen=True)
class NegBinParams:
    """Negative binomial parameters; PGF ((1-p)/(1-px))^r."""

    r: float
    p: float

    def __post_init__(self):
        if self.r <= 0 or not 0.0 < self.p < 1.0:
            raise ValueError("need r > 0 and p in (0, 1)")

    def pgf_at(self, x: float) -> float:
        return ((1.0 - self.p) / (1.0 - self.p * x)) ** self.r

    def mean(self) -> float:
        return self.r * self.p / (1.0 - self.p)


def poisson_pmf(lam: float, k_trunc: int) -> pgf.Pmf:
    """Poisson(lam) truncated at ``k_trunc``; Poisson(0) is the point mass at 0."""
    return pgf.Pmf(pgf.poisson_coeffs(lam, k_trunc))


def nb_params(lam: float, nu: float) -> NegBinParams:
    """Negative binomial target (r, p) = (2 lam/nu, nu/(2+nu)) for nu > 0."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if nu <= 0:
        raise ValueError("nu must be positive; nu = 0 is the Poisson regime")
    return NegBinParams(2.0 * lam / nu, nu / (2.0 + nu))


def nb_pmf(r: float, p: float, k_trunc: int) -> pgf.Pmf:
    """NB(r, p) truncated at ``k_trunc``, see :func:`pgf.nb_coeffs`."""
    NegBinParams(r, p)
    return pgf.Pmf(pgf.nb_coeffs(r, p, k_trunc))


# ---------------------------------------------------------------------------
# compound Poisson intensities


def _check_cascade(lambdas) -> None:
    seen_zero_at = None
    for idx, val in enumerate(lambdas, start=1):
        if idx >= 2 and val == 0.0 and seen_zero_at is None:
            seen_zero_at = idx
        elif seen_zero_at is not None and val != 0.0:
            raise ValueError(
                f"lambda_{idx} > 0 after lambda_{seen_zero_at} = 0; "
                "a vanished moment ratio cannot reappear"
            )


def cp_intensity_finite(lambdas) -> IntensityMeasure:
    """Atoms mu{j} = (1/j!) sum_{i=0}^{J-j-1} (-1)^i lambda_{j+i} / i!.

    They are the x-basis coefficients j >= 1 of sum_l lambda_l (x-1)^l / l!,
    so one :func:`pgf.taylor_shift` by -1 gives them all. The sequence must
    end in a zero and respect the cascade rule; a negative atom means the
    lambda sequence is inadmissible.
    """
    lam = [float(v) for v in lambdas]
    if len(lam) < 2:
        raise ValueError("need at least (lambda_1, lambda_2=0)")
    if lam[-1] != 0.0:
        raise ValueError("the final lambda must be zero")
    if any(v < 0 for v in lam):
        raise ValueError("lambda values must be nonnegative")
    _check_cascade(lam)
    c = [0.0] + [v / math.factorial(l) for l, v in enumerate(lam, start=1)]
    atoms = pgf.taylor_shift(c, -1.0, len(lam))[1:]
    if np.any(atoms < -_ATOM_CLAMP):
        raise NotADistributionError(
            "lambda sequence produces a negative intensity atom"
        )
    return IntensityMeasure(atoms)


def cp_intensity_series(rule: Callable[[int], float], tol: float,
                        j_max: int = 64, i_max: int = 10_000) -> IntensityMeasure:
    """Atoms mu{j} = (1/j!) sum_{i>=0} (-1)^i lambda_{j+i}/i!, j <= ``j_max``,
    from a rule l -> lambda_l.

    As in :func:`cp_intensity_finite` they are the x-basis coefficients of
    sum_l lambda_l (x-1)^l / l!: the centered series is cut for the
    ``j_max`` + 1 columns 0..j_max by :func:`_centered_cut`, which also ends
    it at the first lambda_l = 0, and one :func:`pgf.taylor_shift` by -1
    gives every atom. No cut within ``j_max`` + ``i_max`` terms, or a term
    that overflows, raises :class:`SeriesDivergenceError`; a negative atom
    means the rule is inadmissible.
    """
    c = _centered_cut(lambda l: rule(l) / math.factorial(l), j_max + 1, tol,
                      j_max + i_max)
    atoms = pgf.taylor_shift(c, -1.0, j_max + 1)[1:]
    if not np.all(np.isfinite(atoms)):
        raise SeriesDivergenceError("intensity series terms overflow in the shift")
    if np.any(atoms < -_ATOM_CLAMP):
        raise NotADistributionError("rule produces a negative intensity atom")
    return IntensityMeasure(atoms, tail_bound=float(abs(atoms[-1])),
                            series_depth=c.shape[0] - 1)


def log_series_intensity(j: int) -> float:
    """Worked intensity mu{j} = (1/j) sum_{k>=j} 1/(k 2^k), the j-th atom of
    :func:`log_series_measure`.

    This is the compound Poisson representation of the limit whose
    moment-ratio sequence is lambda_l = (l-1)!/l, for which the alternating
    intensity series itself diverges.
    """
    if j < 1:
        raise ValueError("atom index must be >= 1")
    return float(log_series_measure(j).atoms[-1])


def log_series_measure(j_max: int = 64) -> IntensityMeasure:
    """Atoms mu{j} = (1/j) sum_{k>=j} 1/(k 2^k), j = 1..``j_max``.

    Each tail is a sum of positive terms, taken from its small end over
    k <= j_max + 64 (the rest is below 2^-64 of it), so every atom is
    exact to rounding. The form (log 2 - sum_{k<j} 1/(k 2^k))/j cancels:
    its relative error is 4e-6 at j = 30 and above 1 at j = 50.
    """
    k = np.arange(1, j_max + 65)
    tails = np.cumsum(np.ldexp(1.0 / k, -k)[::-1])[::-1]
    atoms = tails[:j_max] / k[:j_max]
    return IntensityMeasure(atoms, tail_bound=float(atoms[-1]))


def cp_pmf(measure: IntensityMeasure, k_trunc: int) -> pgf.Pmf:
    """PMF of CP(mu) via exponentiating the x-basis log series directly."""
    a = np.concatenate([[-measure.total()], measure.atoms])
    return pgf.exp_series(a, k_trunc)


# ---------------------------------------------------------------------------
# general exponential limit


def _max_binom_log(l: int, k_trunc: int) -> float:
    """log of max_{k < k_trunc} C(l, k), attained at k = min(l//2, k_trunc-1)."""
    k = min(l // 2, k_trunc - 1)
    return (
        math.lgamma(l + 1.0) - math.lgamma(k + 1.0) - math.lgamma(l - k + 1.0)
    )


def _centered_cut(c_rule: Callable[[int], float], k_trunc: int, tol: float,
                  l_cap: int) -> np.ndarray:
    """(0, c_1, ..., c_L): the centered series sum_l c_l (x-1)^l, cut for
    its x-basis coefficients below x^``k_trunc``.

    The term c_l (x-1)^l moves coefficient k by |c_l| C(l, k), so the series
    ends at the first l with |c_l| max_{k < k_trunc} C(l, k) below tol/100,
    or at the first c_l = 0: by the cascade rule a vanished moment ratio
    never reappears. The test looks at that one term and trusts the rest to
    be smaller. No cut within ``l_cap`` terms, or a term that overflows,
    raises :class:`SeriesDivergenceError`.
    """
    log_target = math.log(tol * 1e-2)
    coeffs = [0.0]
    for l in range(1, l_cap + 1):
        try:
            c = float(c_rule(l))
        except OverflowError:
            c = math.inf
        if not math.isfinite(c):
            raise SeriesDivergenceError(f"centered coefficient c_{l} overflows")
        coeffs.append(c)
        if c == 0.0 or math.log(abs(c)) + _max_binom_log(l, k_trunc) < log_target:
            return np.array(coeffs)
    raise SeriesDivergenceError(
        f"centered coefficients do not truncate within {l_cap} terms "
        f"for {k_trunc} output columns"
    )


def general_limit_pmf(c_rule: Callable[[int], float], k_trunc: int,
                      tol: float = 1e-10, l_cap: int = 10_000) -> pgf.Pmf:
    """PMF of the law with PGF exp{sum_l c_l (x-1)^l}, c_l = lambda_l / l!.

    The series is cut by :func:`_centered_cut`: at the first term that
    moves none of the ``k_trunc`` output columns by tol/100, or at the first
    c_l = 0. No cut within ``l_cap`` terms, or a term that overflows,
    raises :class:`SeriesDivergenceError`. A negative output coefficient
    signals that the sequence does not define a distribution at this
    truncation.
    """
    c = _centered_cut(c_rule, k_trunc, tol, l_cap)
    return pgf.exp_centered(pgf.CenteredSeries(c), k_trunc)


def limit_atoms(law: LimitLaw) -> IntensityMeasure | None:
    """Compound Poisson atoms of a classified limit law: the finite form for
    a lambda sequence, the closed form for the log-series rule; None for
    every other law."""
    if isinstance(law, CompoundPoissonLimit):
        return cp_intensity_finite(law.lambdas)
    if isinstance(law, GeneralExpLimit) and law.rule == "log_series":
        return log_series_measure()
    return None


# ---------------------------------------------------------------------------
# infinite-product limit (fast-convergence regime)

# longest explicit head, and longest composition pass (a Python loop that
# holds about 170 MB at 2^20), the product law may use
PRODUCT_CAP, HORIZON_CAP = 1 << 22, 1 << 20


def _power_of_two(start: int, ok: Callable, what: str, tol: float) -> int:
    """Smallest power-of-two multiple of ``start`` that passes ``ok``."""
    j, cap = start, HORIZON_CAP if what == "horizon" else PRODUCT_CAP
    while not ok(j):
        j *= 2
        if j > cap:
            raise NumericError(f"the product law at tol={tol:g} needs a {what} "
                               f"beyond {cap} generations")
    return j


def _r_bracket(imm, nu: float, tail, v: float) -> tuple[float, float]:
    """(midpoint, half-width) of an interval holding sum_{j>J} r_j at x = 1 - v,
    from ``tail`` = (sum_{j>J} m_{j,1}, Lambda_J, m_{J+1}); see README.md."""
    (s, lam, m_next), chi_lo, chi_hi = tail, 0.0, 0.0
    if imm.kind == "custom":
        u_lo = max(0.0, math.exp(-lam) * v - nu * lam * v * v / 2)
        chi_lo, chi_hi = (u - (1.0 - pgf.evaluate(imm.base_law, 1.0 - u))
                          / imm.base_mean for u in (u_lo, v))
    p3 = m_next * v * v / (2 * (1 - m_next * v)) if m_next * v < 1 else math.inf
    lo = s * chi_lo - (0.0 if imm.kind == "poisson" else s * p3)
    hi = s * (chi_hi + nu * lam * v * v / 2)
    return (lo + hi) / 2, (hi - lo) / 2


def _product_terms(spec: ScenarioSpec, tol: float) -> tuple:
    """x-independent part: (log rho_[j,inf] and m_{j,1} for j = 1..J, M, head,
    r-tail data). The M tail and the r tail each get tol/8 of log g(0); their
    closed-form bounds pick J and the head, from where log_tail holds."""
    if spec.divergent:
        raise WrongRegimeError("the product law needs sum(1-rho_n) < inf")
    off, imm = spec.offspring, spec.immigration
    rule, m1, nu = off.rho_rule, imm.m1, off.nu
    if rule is None:
        raise UnsupportedFamilyError("the product law needs a rho rule")
    share = tol / 8
    start = _power_of_two(64, lambda j: rule.one_minus_rho(j + 1) <= 0.5, "head", tol)

    def tail(j):
        return m1.tail_bound(j), rule.log_tail(j), float(m1.at(j + 1))

    head = _power_of_two(
        start, lambda j: _r_bracket(imm, nu, tail(j), 1.0)[1] <= share, "head", tol)
    # the M tail beyond J lies in [e^-Lambda_J, 1] sum_{j>J} m_{j,1}
    top = max(head, _power_of_two(
        start, lambda j: -math.expm1(-rule.log_tail(j)) * m1.tail_bound(j) / 2
        <= share, "head", tol))
    # log rho_[j,inf] = sum_{j<l<=top} log rho_l - Lambda_top; rho_1 never enters
    logs = np.log1p(-off.one_minus_rho(np.arange(top, 1, -1)))
    log_rho = np.concatenate([np.cumsum(logs)[::-1], [0.0]]) - rule.log_tail(top)
    m = m1.at(np.arange(1, top + 1))
    mean = float(np.sum(m * np.exp(log_rho))
                 + m1.tail_bound(top) * (1 + np.exp(log_rho[-1])) / 2)
    return log_rho, m, mean, head, tail(head)


def product_law_eval(spec: ScenarioSpec, x, tol: float = 1e-7):
    """g(x) = prod_j H_j(Gbar_{j+1,inf}(x)) within ``tol``, at a float or array x.

    log g(x) = -(1-x) M + sum_j r_j(x), with the mean M = sum_j m_{j,1}
    rho_[j,inf] shared by all x and r_j = log H_j(Gbar_{j+1,inf}(x)) + (1-x)
    m_{j,1} rho_[j,inf] summed over a head, the rest bracketed (README.md).
    Rounding adds a few ulps per head term; past the caps: NumericError.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((0.0 <= xs) & (xs <= 1.0)):
        raise ValueError("PGF argument must lie in [0, 1]")
    log_rho, m, mean, head, tail = _product_terms(spec, tol)
    off, imm, rho, vals = spec.offspring, spec.immigration, np.exp(log_rho[:head]), []
    if off.kind != "bernoulli":  # the composition start gets tol/8, see README.md
        m_all, lam = imm.m1.tail_bound(0), off.rho_rule.log_tail
        horizon = _power_of_two(
            head, lambda j: off.nu * lam(j) * m_all / 2 <= tol / 8, "horizon", tol)
    for v in 1.0 - xs.ravel():
        if off.kind == "bernoulli":
            y = 1.0 - rho * v
        else:  # 1 - rho_[N,inf] v is below Gbar_{N+1,inf}(x) by convexity
            start = 1.0 - math.exp(-lam(horizon)) * v
            y = engine.composed_eval_all(spec, horizon, start)[1 : head + 1]
        h = imm.pgf_values(np.arange(1, head + 1), y, "declared")
        if np.min(h) < -1e-12:
            raise NotADistributionError("a product factor went negative; immigration "
                                        "rates are inconsistent with the composed maps")
        r = np.sum(np.log(np.maximum(h, tol / 2)) + m[:head] * rho * v)
        r += _r_bracket(imm, off.nu, tail, v)[0]
        # g is at most its least factor, so a factor below tol/2 gives 0
        vals.append(math.exp(r - v * mean) if np.min(h) > tol / 2 else 0.0)
    return vals[0] if xs.ndim == 0 else np.reshape(vals, xs.shape)


def product_law_mean(spec: ScenarioSpec, tol: float = 1e-8) -> float:
    """Mean sum_j m_{j,1} rho_[j,inf] of the product law within ``tol``;
    by the chain rule it holds for every offspring and immigration kind."""
    return _product_terms(spec, tol)[2]


def inverse_square_product_pgf(x: float) -> float:
    """Closed form prod_j [1 - (1-x)/j^2] = sin(pi sqrt(1-x)) / (pi sqrt(1-x)).

    The removable singularity at x = 1 is handled by the Taylor expansion.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("argument must lie in [0, 1]")
    usq = 1.0 - x
    if usq < 1e-6:
        z = math.pi**2 * usq
        return 1.0 - z / 6.0 + z**2 / 120.0
    u = math.pi * math.sqrt(usq)
    return math.sin(u) / u
