"""Reference implementations the tests check the library against.

Each one is a scalar or textbook form of a quantity the library computes
by another route: the LF composition by chain-rule derivatives, the LF
coefficients of one generation from its scalar parameters, the
Faà di Bruno coefficient of f''(g), the chord slope vartheta, the product
law by explicit summation, and the Poisson and negative binomial
coefficients by their step-by-step recurrences.
"""

from __future__ import annotations

import math

import numpy as np

from nearcrit import engine
from nearcrit.errors import NumericError
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
