"""Constructors and evaluators for the limit laws.

Covers the Poisson and negative binomial targets, compound Poisson
intensities (finite sequences and alternating series), the general
exponential-of-a-centered-series law, and the infinite-product law of the
fast-convergence regime, together with the worked closed forms used as
cross-checks.
"""

from __future__ import annotations

import functools
import itertools
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
from .families import (
    CompoundPoissonLimit,
    GeneralExpLimit,
    LimitLaw,
    NegativeBinomialLimit,
    PoissonLimit,
    ProductLimit,
    ScenarioSpec,
    cascade_fault,
    hurwitz_zeta,
    lambda_seq_fault,
)


@dataclass(frozen=True)
class IntensityMeasure:
    """Finite intensity measure on {1, 2, ...}; ``atoms[j-1]`` is mu{j}."""

    atoms: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.atoms, dtype=float))
        if np.any(a < -pgf.NEGATIVE_CLAMP):
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


def poisson_pmf(lam: float, k_trunc: int) -> pgf.Pmf:
    """Poisson(lam) truncated at ``k_trunc``; Poisson(0) is the point mass at 0."""
    return pgf.Pmf(pgf.poisson_coeffs(lam, k_trunc))


def nb_pmf(r: float, p: float, k_trunc: int) -> pgf.Pmf:
    """NB(r, p), PGF ((1-p)/(1-px))^r, truncated at ``k_trunc``."""
    if r <= 0 or not 0.0 < p < 1.0:
        raise ValueError("need r > 0 and p in (0, 1)")
    return pgf.Pmf(pgf.nb_coeffs(r, p, k_trunc))


# ---------------------------------------------------------------------------
# compound Poisson intensities


def cp_intensity_finite(lambdas) -> IntensityMeasure:
    """Atoms mu{j} = (1/j!) sum_{i=0}^{J-j-1} (-1)^i lambda_{j+i} / i!.

    They are the x-basis coefficients j >= 1 of sum_l lambda_l (x-1)^l / l!,
    so one :func:`pgf.taylor_shift` by -1 gives them all. The sequence must
    pass :func:`lambda_seq_fault` (a scenario file's is checked when it is
    read); a negative atom means the lambda sequence is inadmissible.
    """
    lam = [float(v) for v in lambdas]
    fault = lambda_seq_fault(lam)
    if fault is not None:
        raise ValueError(fault)
    c = [0.0] + [v / math.factorial(l) for l, v in enumerate(lam, start=1)]
    return IntensityMeasure(pgf.taylor_shift(c, -1.0, len(lam))[1:])


def cp_intensity_series(rule: Callable[[int], float], tol: float,
                        j_max: int = 64) -> IntensityMeasure:
    """Atoms mu{j} = (1/j!) sum_{i>=0} (-1)^i lambda_{j+i}/i!, j <= ``j_max``,
    from a rule l -> lambda_l.

    As in :func:`cp_intensity_finite` they are the x-basis coefficients of
    sum_l lambda_l (x-1)^l / l!: the centered series is cut for the
    ``j_max`` + 1 columns 0..j_max by :func:`_centered_cut`, which also ends
    it at the first lambda_l = 0, and one :func:`pgf.taylor_shift` by -1
    gives every atom. No cut within ``_CUT_TERMS`` terms, or a term that
    overflows, raises :class:`SeriesDivergenceError`; a negative atom means
    the rule is inadmissible.
    """

    def c_rule(l):  # lambda_l/l! from the exact ratio, so l! need not be a float
        num, den = rule(l).as_integer_ratio()
        return num / (den * math.factorial(l))

    c = _centered_cut(c_rule, j_max + 1, tol)
    atoms = pgf.taylor_shift(c, -1.0, j_max + 1)[1:]
    if not np.all(np.isfinite(atoms)):
        raise SeriesDivergenceError("intensity series terms overflow in the shift")
    return IntensityMeasure(atoms)


def log_series_measure(j_max: int = 64, lam: float = 1.0) -> IntensityMeasure:
    """Atoms mu{j} = (lam/j) sum_{k>=j} 1/(k 2^k), j = 1..``j_max``, of the
    log_series rule lambda_l = lam (l - 1)!/l, which they are linear in.

    Each tail is a sum of positive terms, taken from its small end over
    k <= j_max + 64 (the rest is below 2^-64 of it), so every atom is
    exact to rounding. The form (log 2 - sum_{k<j} 1/(k 2^k))/j cancels:
    its relative error is 4e-6 at j = 30 and above 1 at j = 50.
    """
    k = np.arange(1, j_max + 65)
    tails = np.cumsum(np.ldexp(1.0 / k, -k)[::-1])[::-1]
    atoms = lam * (tails[:j_max] / k[:j_max])
    return IntensityMeasure(atoms)


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


# most terms a centered series may take before its cut
_CUT_TERMS = 10_000


def _centered_cut(c_rule: Callable[[int], float], k_trunc: int,
                  tol: float) -> np.ndarray:
    """(0, c_1, ..., c_L): the centered series sum_l c_l (x-1)^l, cut for
    its x-basis coefficients below x^``k_trunc``.

    The term c_l (x-1)^l moves coefficient k by |c_l| C(l, k). The series
    ends at the first L whose term and the L terms after it each move no
    coefficient by tol/100, |c_l| max_{k < k_trunc} C(l, k) < tol/100 for
    l = L, ..., 2L, so a small term among larger ones does not end it. The
    check stops early at a term the rule cannot give as a float (lambda_l
    or l! beyond the float range); the terms beyond that one, or beyond 2L,
    are trusted to stay below. The series also ends at the first c_l = 0:
    by the cascade rule a vanished moment ratio never reappears, and a
    nonzero c_{l+1} after c_l = 0 (l >= 2) raises the ValueError of that
    rule, as :func:`cp_intensity_finite` does. No cut within ``_CUT_TERMS``
    terms, or a kept term that overflows, raises
    :class:`SeriesDivergenceError`.
    """
    log_target = math.log(tol * 1e-2)
    coeffs = [0.0]

    def term(l: int) -> float:
        while len(coeffs) <= l:
            coeffs.append(_term(c_rule, len(coeffs)))
        return coeffs[l]

    def small(l: int) -> bool:
        c = coeffs[l]
        return c == 0.0 or math.log(abs(c)) + _max_binom_log(l, k_trunc) < log_target

    for l in range(1, _CUT_TERMS + 1):
        if not math.isfinite(term(l)):
            raise SeriesDivergenceError(f"centered coefficient c_{l} overflows")
        if coeffs[l] == 0.0:
            if l >= 2 and _term(c_rule, l + 1) != 0.0:
                raise ValueError(cascade_fault(l, l + 1))
            return np.array(coeffs[: l + 1])
        # the terms l..2l, up to the first the rule cannot give as a float
        checked = itertools.takewhile(lambda m: math.isfinite(term(m)),
                                      range(l, 2 * l + 1))
        if all(small(m) for m in checked):
            return np.array(coeffs[: l + 1])
    raise SeriesDivergenceError(
        f"centered coefficients do not truncate within {_CUT_TERMS} terms "
        f"for {k_trunc} output columns"
    )


def _term(c_rule: Callable[[int], float], l: int) -> float:
    """c_l as a float, inf where the rule overflows."""
    try:
        return float(c_rule(l))
    except OverflowError:
        return math.inf


def general_limit_pmf(c_rule: Callable[[int], float], k_trunc: int,
                      tol: float = 1e-10) -> pgf.Pmf:
    """PMF of the law with PGF exp{sum_l c_l (x-1)^l}, c_l = lambda_l / l!.

    The series is cut by :func:`_centered_cut`: at the first term L that,
    with each of the L terms after it, moves none of the ``k_trunc`` output
    columns by tol/100, or at the first c_l = 0. No cut within
    ``_CUT_TERMS`` terms, or a term that overflows, raises
    :class:`SeriesDivergenceError`. The cut series (c_0 = 0) is moved to the
    x basis by :func:`pgf.taylor_shift` by -1, only the columns that feed
    the output, and exponentiated by :func:`pgf.exp_series`. A negative
    output coefficient signals that the sequence does not define a
    distribution at this truncation.
    """
    c = _centered_cut(c_rule, k_trunc, tol)
    return pgf.exp_series(pgf.taylor_shift(c, -1.0, min(k_trunc, len(c))), k_trunc)


def limit_atoms(law: LimitLaw) -> IntensityMeasure | None:
    """Compound Poisson atoms of a classified limit law: the finite form for
    a lambda sequence, the closed form for the log-series rule at its
    lambda; None for every other law."""
    if isinstance(law, CompoundPoissonLimit):
        return cp_intensity_finite(law.lambdas)
    if isinstance(law, GeneralExpLimit) and law.rule == "log_series":
        return log_series_measure(lam=law.lam)
    return None


def limit_pmf(law: LimitLaw, k_trunc: int) -> pgf.Pmf | None:
    """PMF of a classified limit law truncated at ``k_trunc``; None for the
    laws compared on a PGF grid instead (the product law)."""
    if isinstance(law, PoissonLimit):
        return poisson_pmf(law.lam, k_trunc)
    if isinstance(law, NegativeBinomialLimit):
        return nb_pmf(law.r, law.p, k_trunc)
    atoms = limit_atoms(law)
    return None if atoms is None else cp_pmf(atoms, k_trunc)


def limit_moments(law: LimitLaw, spec: ScenarioSpec) -> tuple[float, float]:
    """(mean, second factorial moment) of a classified limit law; the product
    law's second moment is nan."""
    if isinstance(law, PoissonLimit):
        return law.lam, law.lam**2
    if isinstance(law, NegativeBinomialLimit):
        mean = law.r * law.p / (1.0 - law.p)
        m2 = law.r * (law.r + 1.0) * (law.p / (1.0 - law.p)) ** 2
        return mean, m2
    # (log PGF)'(1) = lambda_1 and (log PGF)''(1) = lambda_2
    if isinstance(law, CompoundPoissonLimit):
        return law.lambdas[0], law.lambdas[0] ** 2 + law.lambdas[1]
    if isinstance(law, GeneralExpLimit):  # log_series: lambda_2 = lam/2
        return law.lam, law.lam**2 + law.lam / 2
    if isinstance(law, ProductLimit):
        return product_law_mean(spec), math.nan
    raise ValueError(f"no limit moments for {law.describe()}")


# ---------------------------------------------------------------------------
# infinite-product limit (fast-convergence regime)

# longest explicit head or composition the product law may use
PRODUCT_CAP = 1 << 22


def _power_of_two(start: int, ok: Callable, tol: float) -> int:
    """Smallest power-of-two multiple of ``start`` that passes ``ok``."""
    j = start
    while not ok(j):
        j *= 2
        if j > PRODUCT_CAP:
            raise NumericError(f"the product law at tol={tol:g} needs a head "
                               f"beyond {PRODUCT_CAP} generations")
    return j


def _r_bracket(imm, nu: float, tail, v: float) -> tuple[float, float]:
    """(midpoint, half-width) of an interval holding sum_{j>J} r_j at x = 1 - v,
    from ``tail`` = (sum_{j>J} m_{j,1}, Lambda_J, m_{J+1}); see README.md."""
    s, lam, m_next = tail
    u_lo = max(0.0, math.exp(-lam) * v - nu * lam * v * v / 2)
    lo = s * imm._chi(u_lo) - s * imm._log_slack(m_next, v)
    hi = s * (imm._chi(v) + nu * lam * v * v / 2)
    return (lo + hi) / 2, (hi - lo) / 2


def _m_bracket(rule, m1, j: int, lam: float) -> tuple[float, float, float]:
    """(midpoint, half-width) of an interval holding the M tail sum_{l>j}
    m_{l,1} e^-Lambda_l, and S = sum_{l>j} m_{l,1} plus its error bound, from
    1 - Lambda <= e^-Lambda <= 1 - Lambda + Lambda^2/2 and Lambda_l <= lam =
    Lambda_j, each end no looser than [e^-lam S, S]; see README.md."""
    c, g, q = rule.c, rule.gamma, 1.0 + rule.n0
    d_max = float(rule.one_minus_rho(j + 2))
    # c zeta(g, l+q) <= Lambda_l <= c zeta(g, .) + c^2 zeta(2g, .) (1 - rho_l <= 1/2),
    # q^(1-s)/(s-1) <= zeta(s, q) <= q^(1-s)/(s-1) + q^-s, and c (l+q)^-g <= d_max:
    # Lambda_l is at most the (coef, power) pairs of l + q in lam_hi
    lam_hi = ((c / (g - 1) + c * d_max / (2 * g - 1), g - 1), (c + c * d_max, g))
    s_lo = s_hi = d_lo = d_hi = 0.0
    for t in m1.terms:
        v, e = hurwitz_zeta(t.power, j + 1 + t.shift)
        s_lo, s_hi = s_lo + t.coef * (v - e), s_hi + t.coef * (v + e)
        # (l + shift)^-p (l + q)^-a lies between (l + far)^-(p+a) and (l + near)^-(p+a)
        near, far = sorted((t.shift, q))
        v, e = hurwitz_zeta(t.power + g - 1, j + 1 + far)
        d_lo += t.coef * c / (g - 1) * (v - e)
        d_hi += sum(t.coef * a * sum(hurwitz_zeta(t.power + p, j + 1 + near))
                    for a, p in lam_hi)
    # D = sum_{l>j} m_{l,1} Lambda_l is in [d_lo, d_hi]; the tail in
    # [S - D, S - D + lam D/2], and in [e^-lam S, S]
    lo = max(s_lo - d_hi, math.exp(-lam) * s_lo)
    hi = min(s_hi - d_lo + lam * d_hi / 2, s_hi)
    return (lo + hi) / 2, (hi - lo) / 2, s_hi


def _log_rho(off, top: int, lam: float) -> np.ndarray:
    """log rho_[j,inf] = sum_{j<l<=top} log rho_l - Lambda_top for j = 1..top,
    from ``lam`` = Lambda_top; rho_1 never enters."""
    logs = np.log1p(-off.one_minus_rho(np.arange(top, 1, -1)))
    return np.concatenate([np.cumsum(logs)[::-1], [0.0]]) - lam


def _product_terms(spec: ScenarioSpec, tol: float) -> tuple:
    """x-independent part: (log rho_[j,inf] and m_{j,1} for j = 1..J, M, head,
    r-tail data). The M tail and the r tail each get tol/8 of log g(0); their
    closed-form brackets, each evaluated once per candidate length, pick J and
    the head, from where 1 - rho <= 1/2 and so log_tail and the M bracket hold."""
    off, imm = spec.offspring, spec.immigration
    rule, m1 = off.rho_rule, imm.m1
    if rule is None:
        raise UnsupportedFamilyError("the product law needs a rho rule")
    if rule.divergent_sum():
        raise WrongRegimeError("the product law needs sum(1-rho_n) < inf")
    if not m1.summable():
        raise WrongRegimeError("the product law needs summable immigration means")
    share = tol / 8
    start = _power_of_two(64, lambda j: rule.one_minus_rho(j + 1) <= 0.5, tol)

    @functools.cache
    def tail(j):
        """(r-tail data (S, Lambda_j, m_{j+1,1}), M-tail midpoint, its half-width)"""
        lam = rule.log_tail(j)
        mid, half, s = _m_bracket(rule, m1, j, lam)
        return (s, lam, float(m1.at(j + 1))), mid, half

    head = _power_of_two(start, lambda j: _r_bracket(imm, off.nu, tail(j)[0], 1.0)[1]
                         <= share, tol)
    top = max(head, _power_of_two(start, lambda j: tail(j)[2] <= share, tol))
    log_rho = _log_rho(off, top, tail(top)[0][1])
    m = m1.at(np.arange(1, top + 1))
    mean = float(np.sum(m * np.exp(log_rho)) + tail(top)[1])
    return log_rho, m, mean, head, tail(head)[0]


def _c_bracket(off, n: int, lam: float) -> tuple[float, float]:
    """(midpoint, half-width) of an interval holding C_n = sum_{l>n} a_l
    rho_[l,inf] for any a_l in [c_l/rho_l, c_l/(rho_l - c_l)], c_l =
    nu (1 - rho_l)/2, from ``lam`` = Lambda_n: (1 - rho_l) rho_[l,inf] =
    rho_[l,inf] - rho_[l-1,inf] sums to 1 - e^-lam, and 1 <= 1/rho_l,
    1/(rho_l - c_l) <= 1/(rho_{n+1} - c_{n+1}) while the quadratic window
    (:func:`families._quadratic_g2`) is open beyond n; the interval is
    unbounded while it is not (README.md)."""
    d = float(off.one_minus_rho(n + 1))
    lo = -off.nu / 2 * math.expm1(-lam)
    hi = lo / (1.0 - d - off.nu * d / 2) if off.nu * d <= 1.0 - d else math.inf
    return (lo + hi) / 2, (hi - lo) / 2


def _head_maps(spec: ScenarioSpec, terms: tuple, rho, tol: float) -> Callable:
    """v -> Gbar_{j+1,inf}(1 - v), j = 1..head, from the ``terms`` of
    :func:`_product_terms` and ``rho`` = rho_[j,inf], j = 1..head.

    In y = 1 - x a linear-fractional map is rho y/(1 + a y), and maps beyond
    N compose to Ybar_{N+1,inf}(v) = rho_[N,inf] v/(1 + C_N v), with C_N
    bracketed by :func:`_c_bracket`; N is the smallest power-of-two multiple
    of the head, with the quadratic window open beyond it, whose bracket
    moves g by at most tol/8. Linear-fractional and Bernoulli maps compose
    on to Ybar_{j+1,inf}(v) = rho_[j,inf] v/(1 + C_j v) in closed form;
    quadratic maps are composed from the midpoint over N generations by
    :func:`engine.composed_eval_all`. See README.md.
    """
    off, (_, _, mean, head, tail) = spec.offspring, terms
    if not off.nu:  # affine maps, C_j = 0
        return lambda v: 1.0 - rho * v
    lam = functools.cache(lambda j: tail[1] if j == head else off.rho_rule.log_tail(j))
    # from the midpoint each head factor moves by at most m_{j,1} rho_[j,inf]
    # v^2 times the half-width, so g by at most M times it
    n = _power_of_two(head, lambda j: mean * _c_bracket(off, j, lam(j))[1] <= tol / 8,
                      tol)
    c_n = _c_bracket(off, n, lam(n))[0]
    if not off.composes_lf:
        return lambda v: engine.composed_eval_all(
            spec, n, 1.0 - math.exp(-lam(n)) * v / (1.0 + c_n * v))[1 : head + 1]
    # C_j = sum_{j<l<=N} a_l rho_[l,inf] + C_N, a_l = G_l''(1)/(2 rho_l)
    ls = np.arange(2, n + 1)
    a = off.deriv_at_1(ls, 2) / (2 * off.mean(ls))
    a_rho = a * np.exp(_log_rho(off, n, lam(n))[1:])
    c = np.concatenate([np.cumsum(a_rho[::-1])[::-1], [0.0]])[:head] + c_n
    return lambda v: 1.0 - rho * v / (1.0 + c * v)


def product_law_eval(spec: ScenarioSpec, x, tol: float = 1e-7):
    """g(x) = prod_j H_j(Gbar_{j+1,inf}(x)) within ``tol``, at a float or array x.

    log g(x) = -(1-x) M + sum_j r_j(x), with the mean M = sum_j m_{j,1}
    rho_[j,inf] shared by all x and r_j = log H_j(Gbar_{j+1,inf}(x)) + (1-x)
    m_{j,1} rho_[j,inf] summed over a head, the rest bracketed (README.md).
    Rounding adds a few ulps per head term; past the cap: NumericError.
    The brackets' midpoints can put g above 1 by up to tol; every PGF value
    is at most 1, so such a value is returned as 1, which only moves it
    toward the true value and keeps it within tol.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((0.0 <= xs) & (xs <= 1.0)):
        raise ValueError("PGF argument must lie in [0, 1]")
    terms = log_rho, m, mean, head, tail = _product_terms(spec, tol)
    off, imm, rho, vals = spec.offspring, spec.immigration, np.exp(log_rho[:head]), []
    maps = _head_maps(spec, terms, rho, tol)
    for v in 1.0 - xs.ravel():
        y = maps(v)
        h = imm.pgf_values(np.arange(1, head + 1), y, "declared")
        if np.min(h) < -pgf.NEGATIVE_CLAMP:
            raise NotADistributionError("a product factor went negative; immigration "
                                        "rates are inconsistent with the composed maps")
        r = np.sum(np.log(np.maximum(h, tol / 2)) + m[:head] * rho * v)
        r += _r_bracket(imm, off.nu, tail, v)[0]
        # g is at most its least factor, so a factor below tol/2 gives 0;
        # g <= 1 (see the docstring)
        vals.append(min(math.exp(r - v * mean), 1.0) if np.min(h) > tol / 2 else 0.0)
    return vals[0] if xs.ndim == 0 else np.reshape(vals, xs.shape)


def product_law_mean(spec: ScenarioSpec, tol: float = 1e-8) -> float:
    """Mean sum_j m_{j,1} rho_[j,inf] of the product law within ``tol``: an
    explicit head of J terms plus the midpoint of the second-order tail
    bracket (:func:`_m_bracket`), J the smallest power of two from 64 whose
    half-width is at most tol/8. By the chain rule it holds for every
    offspring and immigration kind."""
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
