"""Reference implementations the tests check the library against.

Each one is a scalar or textbook form of a quantity the library computes
by another route: the LF composition by chain-rule derivatives, the LF
coefficients of one generation from its scalar parameters, the
Faà di Bruno coefficient of f''(g), the chord slope vartheta, the product
law by explicit summation, the Poisson and negative binomial
coefficients by their step-by-step recurrences, the changes between
the x and (x-1) bases by binomial columns and alternating sums, the
general exponential law by pointwise summation of its centered series,
the exponential companion of the product over composed maps, and the
limits of the derivative sums of composed maps.
"""

from __future__ import annotations

import math

import numpy as np

from nearcrit import engine
from nearcrit.errors import NumericError, SeriesDivergenceError
from nearcrit.linfrac import LinearFractional, chain_product, lf_alpha_beta


def lf_from_derivatives(d1: float, d2: float) -> LinearFractional:
    """The LF map with (f'(1), f''(1)) = (d1, d2), see ``lf_alpha_beta``."""
    return LinearFractional(*lf_alpha_beta(d1, d2))


def lf_compose(outer: LinearFractional, inner: LinearFractional) -> LinearFractional:
    """Parameters of outer(inner(.)), via chain-rule derivatives at 1."""
    d1o, d2o = outer.deriv_at_1(1), outer.deriv_at_1(2)
    d1i, d2i = inner.deriv_at_1(1), inner.deriv_at_1(2)
    return lf_from_derivatives(d1o * d1i, d2o * d1i**2 + d1o * d2i)


def lf_pmf_coeffs(par: LinearFractional, k_trunc: int) -> np.ndarray:
    """p_0 = 1 - alpha/(1-beta), p_k = alpha beta^(k-1) for k >= 1."""
    out = np.zeros(k_trunc)
    out[0] = 1.0 - par.alpha / (1.0 - par.beta)
    if k_trunc > 1:
        out[1:] = par.alpha * par.beta ** np.arange(k_trunc - 1)
    return out


def faa_weight(k: int, i: int) -> float:
    """Pair weight in the f''(g) coefficient: C(k,i), halved at the midpoint."""
    if i == k - i:
        return 0.5 * math.comb(k, i)
    return float(math.comb(k, i))


def faa_f2_coefficient(g_derivs, k: int) -> float:
    """Coefficient of f''(g) in d^k/dx^k f(g(x)).

    ``g_derivs[i-1]`` must supply g^(i) for i = 1..k-1. The value is
    sum_{i=1..k/2} w_{k,i} g^(i) g^(k-i) with w the halved-midpoint
    binomial weights.
    """
    if k < 2:
        raise ValueError("order must be >= 2")
    g = list(g_derivs)
    if len(g) < k - 1:
        raise ValueError(f"need g^(i) for i = 1..{k - 1}")
    total = 0.0
    for i in range(1, k // 2 + 1):
        total += faa_weight(k, i) * g[i - 1] * g[k - i - 1]
    return total


def vartheta(spec, j: int, n: int) -> float:
    """Chord slope (1 - G_j(1 - rho_[j,n])) / rho_[j,n], the upper-bound rate.

    Lies in (0, rho_j] by convexity; rho_j - vartheta <= rho_[j,n] G_j''(1).
    """
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    rho_jn = chain_product(spec, j, n)
    return (1.0 - spec.offspring.pgf_at(j, 1.0 - rho_jn)) / rho_jn


def product_law_bruteforce(spec, x: float, tol: float,
                           horizon_cap: int = 1 << 20) -> float:
    """Product law g(x) by explicit summation of its log factors.

    The head j <= j_top doubles until (1 - x) sum_{j > j_top} m_{j,1} is
    below tol / 1.1. Bernoulli offspring take rho_[j,inf] from a prefix at
    least 2^20 deep plus the integral estimate of the remaining log tail;
    other offspring double the composition horizon until no value moves by
    tol/10, and raise NumericError past ``horizon_cap``.
    """
    if x == 1.0:
        return 1.0
    m1, rule = spec.immigration.m1, spec.offspring.rho_rule
    j_top = 64
    while m1.tail_bound(j_top) >= tol / 1.1 / (1.0 - x):
        j_top *= 2
    idx = np.arange(1, j_top + 1)
    if spec.offspring.kind == "bernoulli":
        depth = max(j_top, 1 << 20)
        delta = spec.offspring.one_minus_rho(np.arange(2, depth + 1))
        prefix = np.concatenate([[0.0], np.cumsum(np.log1p(-delta))])
        total = prefix[-1] - rule.c * (depth + rule.n0) ** (1.0 - rule.gamma) / (
            rule.gamma - 1.0)
        gbar = 1.0 + np.exp(total - prefix[:j_top]) * (x - 1.0)
    else:
        horizon = 2 * j_top
        gbar = engine.composed_eval_all(spec, horizon, x)[1 : j_top + 1]
        while True:
            horizon *= 2
            if horizon > horizon_cap:
                raise NumericError(f"composition horizon beyond {horizon_cap}")
            nxt = engine.composed_eval_all(spec, horizon, x)[1 : j_top + 1]
            if float(np.max(np.abs(nxt - gbar))) < tol / 10.0:
                break
            gbar = nxt
        gbar = nxt
    factors = spec.immigration.pgf_values(idx, gbar, "declared")
    if np.any(factors <= 0.0):
        return 0.0
    return math.exp(float(np.sum(np.log(factors))))


def poisson_coeffs_loop(lam: float, k_trunc: int) -> np.ndarray:
    """Poisson(lam) coefficients by the recurrence p_{k+1} = p_k lam/(k+1)."""
    out = np.empty(k_trunc)
    out[0] = math.exp(-lam)
    for k in range(k_trunc - 1):
        out[k + 1] = out[k] * lam / (k + 1)
    return out


def nb_coeffs_loop(r: float, p: float, k_trunc: int) -> np.ndarray:
    """NB(r, p) coefficients by the recurrence p_{k+1} = p_k p (k+r)/(k+1)."""
    out = np.empty(k_trunc)
    out[0] = math.exp(r * math.log1p(-p))
    for k in range(k_trunc - 1):
        out[k + 1] = out[k] * p * (k + r) / (k + 1)
    return out


def comb_column(lo: int, hi: int, k: int) -> np.ndarray:
    """C(l, k) for l = lo..hi as floats, falling back to logs on overflow."""
    try:
        return np.array([float(math.comb(l, k)) for l in range(lo, hi + 1)])
    except OverflowError:
        ls = np.arange(lo, hi + 1, dtype=float)
        logs = (
            np.vectorize(math.lgamma)(ls + 1.0)
            - math.lgamma(k + 1.0)
            - np.vectorize(math.lgamma)(ls - k + 1.0)
        )
        return np.exp(logs)


def centered_by_binomials(p) -> np.ndarray:
    """(x-1)-basis coefficients c_l = sum_{k>=l} p_k C(k,l) of sum p_k x^k."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    return np.array([np.sum(comb_column(l, n - 1, l) * p[l:]) for l in range(n)])


def x_basis_by_binomials(c, k_out: int) -> np.ndarray:
    """First ``k_out`` x-basis coefficients sum_{l>=k} c_l C(l,k) (-1)^(l-k)
    of sum c_l (x-1)^l, each alternating sum by numpy's pairwise summation."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    p = np.zeros(k_out)
    for k in range(min(k_out, n)):
        signs = np.where((np.arange(k, n) - k) % 2 == 0, 1.0, -1.0)
        p[k] = np.sum(comb_column(k, n - 1, k) * c[k:] * signs)
    return p


def cp_atoms_loop(lambdas) -> np.ndarray:
    """Compound Poisson atoms mu{j} = (1/j!) sum_{i<J-j} (-1)^i lambda_{j+i}/i!,
    j = 1..J-1, by the double loop of alternating sums, unchecked."""
    lam = [float(v) for v in lambdas]
    big_j = len(lam)
    atoms = np.empty(big_j - 1)
    for j in range(1, big_j):
        total = 0.0
        for i in range(big_j - j):
            total += (-1.0) ** i / math.factorial(i) * lam[j + i - 1]
        atoms[j - 1] = total / math.factorial(j)
    return atoms


def general_limit_pgf(c_rule, x: float, tol: float = 1e-10,
                      l_cap: int = 10_000_000) -> float:
    """exp{sum_l c_l (x-1)^l} at one point of [0, 1] by summing the series
    until a term falls below tol/100; SeriesDivergenceError after 1000
    growing terms or ``l_cap`` terms."""
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


def accompanying_eval(spec, n: int, x: float) -> float:
    """Exponential companion exp{sum_j (H_j(Gbar_{j+1,n}(x)) - 1)} of the
    product ``engine.pgf_via_product``, at the clamped (finite-n) rates."""
    return math.exp(float(np.sum(engine._finite_factors(spec, n, x) - 1.0)))


def deriv_sum_limit(lam: float, nu: float, k: int) -> float:
    """Limit of sum_j m_{j,1} Gbar_{j+1,n}^(k)(1): (k-1)! lam (nu/2)^(k-1)."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if nu <= 0:
        raise ValueError("nu must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return lam
    if lam == 0.0:
        return 0.0
    log_val = math.lgamma(k) + math.log(lam) + (k - 1) * math.log(nu / 2.0)
    if log_val > 700.0:
        raise NumericError(f"limit value overflows at k = {k}")
    return math.exp(log_val)
