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
    SeriesDivergenceError,
    WrongRegimeError,
)
from .families import ScenarioSpec

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

    The sequence must end in a zero and respect the cascade rule; a
    negative atom means the lambda sequence is inadmissible.
    """
    lam = [float(v) for v in lambdas]
    if len(lam) < 2:
        raise ValueError("need at least (lambda_1, lambda_2=0)")
    if lam[-1] != 0.0:
        raise ValueError("the final lambda must be zero")
    if any(v < 0 for v in lam):
        raise ValueError("lambda values must be nonnegative")
    _check_cascade(lam)
    big_j = len(lam)
    atoms = np.empty(big_j - 1)
    for j in range(1, big_j):
        total = 0.0
        for i in range(big_j - j):
            total += (-1.0) ** i / math.factorial(i) * lam[j + i - 1]
        atoms[j - 1] = total / math.factorial(j)
    if np.any(atoms < -_ATOM_CLAMP):
        raise NotADistributionError(
            "lambda sequence produces a negative intensity atom"
        )
    return IntensityMeasure(atoms)


def cp_intensity_series(rule: Callable[[int], float], tol: float,
                        j_max: int = 64, i_max: int = 10_000) -> IntensityMeasure:
    """Atoms mu{j} = (1/j!) sum_{i>=0} (-1)^i lambda_{j+i}/i! from a rule.

    Convergence requires 30 consecutive term magnitudes below ``tol`` with
    a decreasing alternating pattern; otherwise (or on overflow of the
    terms) an explicit divergence signal is raised.
    """
    atoms = np.empty(j_max)
    depth = 0
    for j in range(1, j_max + 1):
        total = 0.0
        small_run = 0
        grow_run = 0
        prev_mag = math.inf
        converged = False
        for i in range(i_max):
            try:
                term = (-1.0) ** i * rule(j + i) / math.factorial(i)
            except OverflowError:
                raise SeriesDivergenceError(
                    f"intensity series terms overflow at j={j}, i={i}"
                ) from None
            if not math.isfinite(term):
                raise SeriesDivergenceError(
                    f"intensity series terms overflow at j={j}, i={i}"
                )
            total += term
            mag = abs(term)
            small_run = small_run + 1 if mag < tol else 0
            grow_run = grow_run + 1 if mag >= prev_mag and mag > tol else 0
            prev_mag = mag
            if small_run >= 30:
                converged = True
                depth = max(depth, i + 1)
                break
            if grow_run >= 64:
                raise SeriesDivergenceError(
                    f"intensity series does not converge at j={j}: term "
                    f"magnitudes stopped decreasing"
                )
        if not converged:
            raise SeriesDivergenceError(
                f"intensity series for atom j={j} showed no convergence "
                f"within {i_max} terms"
            )
        atoms[j - 1] = total / math.factorial(j)
    if np.any(atoms < -_ATOM_CLAMP):
        raise NotADistributionError("rule produces a negative intensity atom")
    tail = float(abs(atoms[-1]))
    return IntensityMeasure(atoms, tail_bound=tail, series_depth=depth)


def log_series_intensity(j: int) -> float:
    """Worked intensity mu{j} = (1/j)[log 2 - sum_{k<j} 1/(k 2^k)].

    This is the compound Poisson representation of the limit whose
    moment-ratio sequence is lambda_l = (l-1)!/l, for which the alternating
    intensity series itself diverges.
    """
    if j < 1:
        raise ValueError("atom index must be >= 1")
    partial = sum(1.0 / (k * 2.0**k) for k in range(1, j))
    return (math.log(2.0) - partial) / j


def log_series_measure(j_max: int = 64) -> IntensityMeasure:
    atoms = np.array([log_series_intensity(j) for j in range(1, j_max + 1)])
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


def general_limit_pmf(c_rule: Callable[[int], float], k_trunc: int,
                      tol: float = 1e-10, l_cap: int = 10_000) -> pgf.Pmf:
    """PMF of the law with PGF exp{sum_l c_l (x-1)^l}, c_l = lambda_l / l!.

    The series is cut at the first l where the dropped term cannot move any
    of the ``k_trunc`` output columns by more than tol/100; the binomial
    factor of the basis change makes that bound |c_l| max_k C(l,k). If the
    bound never triggers before ``l_cap`` the series is reported as
    non-truncatable. A negative output coefficient signals that the
    sequence does not define a distribution at this truncation.
    """
    log_target = math.log(tol * 1e-2)
    coeffs = [0.0]
    for l in range(1, l_cap + 1):
        c = float(c_rule(l))
        coeffs.append(c)
        if c == 0.0 or math.log(abs(c)) + _max_binom_log(l, k_trunc) < log_target:
            break
    else:
        raise SeriesDivergenceError(
            f"centered coefficients do not truncate within {l_cap} terms "
            f"for {k_trunc} output columns"
        )
    return pgf.exp_centered(pgf.CenteredSeries(np.array(coeffs)), k_trunc)


def general_limit_pgf(c_rule: Callable[[int], float], x: float,
                      tol: float = 1e-10, l_cap: int = 10_000_000) -> float:
    """Direct evaluation of exp{sum_l c_l (x-1)^l} at one point of [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("PGF argument must lie in [0, 1]")
    u = x - 1.0
    total = 0.0
    power = 1.0
    grow_run = 0
    prev_mag = math.inf
    for l in range(1, l_cap + 1):
        power *= u
        term = float(c_rule(l)) * power
        total += term
        mag = abs(term)
        if mag < tol * 1e-2:
            return math.exp(total)
        grow_run = grow_run + 1 if mag >= prev_mag else 0
        prev_mag = mag
        if grow_run >= 1000:
            break
    raise SeriesDivergenceError("centered series shows no convergence at x")


# ---------------------------------------------------------------------------
# infinite-product limit (fast-convergence regime)


def _bernoulli_log_tail(spec: ScenarioSpec, top: int) -> float:
    """Analytic estimate of -sum_{l>top} log rho_l for the rho rule."""
    rule = spec.offspring.rho_rule
    return rule.c * (top + rule.n0) ** (1.0 - rule.gamma) / (rule.gamma - 1.0)


def _rho_inf_logs(spec: ScenarioSpec, j_top: int, chunk: int = 1 << 20):
    """Yield (idx, log rho_[j,inf]) for j = 1..j_top in chunks.

    rho_[j,inf] = prod_{l>j} rho_l only ever involves l >= 2, so rho_1 = 0
    (legal for Bernoulli offspring) never enters. The tail beyond the
    accumulation depth is folded in through the integral estimate of the
    rho rule, leaving a second-order error.
    """
    depth = max(j_top, 1 << 20)
    tail_correction = -_bernoulli_log_tail(spec, depth)
    # prefix[j] = sum_{2 <= l <= j} log rho_l, for j = 1..j_top
    prefix = np.empty(j_top + 1)
    prefix[0] = 0.0
    prefix[1] = 0.0
    running = 0.0
    pos = 2
    for lo in range(2, depth + 1, chunk):
        hi = min(lo + chunk - 1, depth)
        delta = spec.offspring.one_minus_rho(np.arange(lo, hi + 1))
        cums = running + np.cumsum(np.log1p(-delta))
        take = max(0, min(hi, j_top) - lo + 1)
        if take > 0:
            prefix[pos : pos + take] = cums[:take]
            pos += take
        running = float(cums[-1])
    total = running + tail_correction
    for lo in range(1, j_top + 1, chunk):
        hi = min(lo + chunk - 1, j_top)
        idx = np.arange(lo, hi + 1)
        yield idx, total - prefix[lo : hi + 1]


def product_law_eval(spec: ScenarioSpec, x: float, tol: float = 1e-7) -> float:
    """g(x) = prod_j H_j(Gbar_{j+1,inf}(x)) to within ``tol``.

    The product is truncated at J with the dropped log-tail bounded by
    (1+eps) (1-x) sum_{j>J} m_{j,1}; Bernoulli offspring use the exact
    affine composed maps, other families grow the composition horizon until
    the (monotone increasing) values stabilize.
    """
    if spec.divergent:
        raise WrongRegimeError(
            "the product law exists only when sum(1-rho_n) converges"
        )
    if not 0.0 <= x <= 1.0:
        raise ValueError("PGF argument must lie in [0, 1]")
    if x == 1.0:
        return 1.0
    eps = 0.1
    target = tol / (1.0 + eps) / (1.0 - x)
    j_top = 64
    while spec.immigration.m1.tail_bound(j_top) >= target:
        j_top *= 2
    if spec.offspring.kind == "bernoulli":
        chunks = (
            (idx, 1.0 + np.exp(logs) * (x - 1.0))
            for idx, logs in _rho_inf_logs(spec, j_top)
        )
    else:
        chunks = [(np.arange(1, j_top + 1), _generic_gbar(spec, x, j_top, tol))]
    log_total = 0.0
    for idx, gbar in chunks:
        factors = spec.immigration.pgf_values(idx, gbar, "declared")
        if np.any(factors <= 0.0):
            if np.any(factors < -1e-12):
                raise NotADistributionError(
                    "a product factor went negative; immigration rates "
                    "are inconsistent with the composed maps"
                )
            return 0.0
        log_total += float(np.sum(np.log(factors)))
    return math.exp(log_total)


def _generic_gbar(spec: ScenarioSpec, x: float, j_top: int,
                  tol: float) -> np.ndarray:
    """Gbar_{j+1,N}(x) for j = 1..j_top, doubling N until it stabilizes."""
    horizon = 2 * j_top
    vals = engine.composed_eval_all(spec, horizon, x)[: j_top + 1]
    while True:
        horizon *= 2
        nxt = engine.composed_eval_all(spec, horizon, x)[: j_top + 1]
        if float(np.max(np.abs(nxt - vals))) < tol / 10.0:
            return nxt[1:]
        vals = nxt


def product_law_mean(spec: ScenarioSpec, tol: float = 1e-8) -> float:
    """Mean of the product law, sum_j m_{j,1} rho_[j,inf], to within ``tol``.

    Only for Bernoulli/Poisson immigration over Bernoulli offspring, where
    the composed-map derivative is the exact product of means.
    """
    if spec.divergent:
        raise WrongRegimeError(
            "the product law exists only when sum(1-rho_n) converges"
        )
    if spec.offspring.kind != "bernoulli":
        raise WrongRegimeError("closed mean needs Bernoulli offspring")
    j_top = 1024
    while True:
        total = 0.0
        rho_last = 0.0
        for idx, logs in _rho_inf_logs(spec, j_top):
            total += float(np.sum(spec.immigration.m1.at(idx) * np.exp(logs)))
            rho_last = float(np.exp(logs[-1]))
        tail = spec.immigration.m1.tail_bound(j_top)
        if (1.0 - rho_last) * tail < tol:
            return total + 0.5 * (1.0 + rho_last) * tail
        j_top *= 2


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
