"""Closed-form linear-fractional PGF calculus.

The two-parameter family f(s) = 1 - a/(1-b) + a s/(1-b s) is closed under
composition and is pinned down by its first two derivatives at 1, which
makes exact evaluation of composed offspring maps possible. This module
holds that calculus, the chain products rho_[j,n] in log space, the
closed-form composed maps of LF or Bernoulli offspring and the product
F_n(x) built on them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import UnsupportedFamilyError

if TYPE_CHECKING:  # pragma: no cover
    from .families import ScenarioSpec


def _holds(mask) -> bool:
    """Whether a condition holds everywhere; np.all costs microseconds on scalars."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) else bool(mask)


def _check_params(alpha, beta) -> None:
    """The proper-PGF conditions on (alpha, beta); maps over arrays."""
    if not _holds((0.0 < alpha) & (alpha <= 1.0)):
        raise ValueError("alpha must lie in (0, 1]")
    if not _holds((0.0 <= beta) & (beta < 1.0)):
        raise ValueError("beta must lie in [0, 1)")
    if not _holds(alpha + beta <= 1.0 + 1e-12):
        raise ValueError("alpha + beta must not exceed 1")


def lf_value(par, x):
    """f(x) for parameters par = (alpha, beta); floats or broadcasting arrays."""
    alpha, beta = par
    return 1.0 - alpha / (1.0 - beta) + alpha * x / (1.0 - beta * x)


def lf_deriv_at_1(par, s: int):
    """f^(s)(1) = s! alpha beta^(s-1) / (1-beta)^(s+1) for parameters
    par = (alpha, beta) and s >= 1; floats or broadcasting arrays."""
    alpha, beta = par
    return math.factorial(s) * alpha * beta ** (s - 1) / (1.0 - beta) ** (s + 1)


def lf_alpha_beta(d1, d2):
    """Invert (f'(1), f''(1)) = (d1, d2) to checked (alpha, beta); maps over arrays.

    alpha = 4 d1^3 / (2 d1 + d2)^2, beta = d2 / (2 d1 + d2).
    """
    if not _holds(d1 > 0.0):
        raise ValueError("first derivative must be positive")
    if not _holds(d2 >= 0.0):
        raise ValueError("second derivative must be nonnegative")
    denom = 2.0 * d1 + d2
    alpha, beta = 4.0 * d1**3 / denom**2, d2 / denom
    _check_params(alpha, beta)
    return alpha, beta


# ---------------------------------------------------------------------------
# composed offspring maps of a scenario


def _require_lf(spec: "ScenarioSpec") -> None:
    if not spec.offspring.composes_lf:
        raise UnsupportedFamilyError(
            "closed-form composed maps need linear-fractional or Bernoulli offspring"
        )


def chain_logs(spec: "ScenarioSpec", n: int) -> np.ndarray:
    """S[l] = sum_{m=2..l} log rho_m for l = 0..n (S[0] = S[1] = 0).

    Composed maps G_{j+1} o ... o G_n with j >= 1 never involve rho_1, so
    the accumulation starts at l = 2; rho_1 = 0 (a legal Bernoulli edge)
    then cannot poison the chain products. Products that do include rho_1
    multiply it back in explicitly.
    """
    s = np.zeros(n + 1)
    if n >= 2:
        delta = spec.offspring.one_minus_rho(np.arange(2, n + 1))
        s[2:] = np.cumsum(np.log1p(-delta))
    return s


def chain_product(spec: "ScenarioSpec", j: int, n: int) -> float:
    """rho_[j,n] = rho_{j+1} ... rho_n, computed in log space."""
    if j > n:
        raise ValueError("need j <= n")
    s = chain_logs(spec, n)
    val = float(np.exp(s[n] - s[j]))
    if j == 0 and n >= 1:
        val *= float(spec.offspring.mean(1))
    return val


def interval_params(spec: "ScenarioSpec", tops):
    """(alpha_j, beta_j), j = 0..N, of the maps G_{j+1} o ... o G_b that
    compose each interval (a, b] between consecutive entries of 0 and
    ``tops`` (ascending, N = tops[-1]) from j, a <= j < b, to its top;
    entry N is the identity.

    One :func:`chain_logs` pass to N serves every interval; ``tops`` = [n]
    gives the maps G_{j+1} o ... o G_n for j = 0..n.
    """
    _require_lf(spec)
    top = int(tops[-1])
    alpha, beta = np.ones(top + 1), np.zeros(top + 1)
    if top == 0:
        return alpha, beta
    s = chain_logs(spec, top)
    ns = np.arange(1, top + 1)
    g2, rho = spec.offspring.deriv_at_1(ns, 2), spec.offspring.mean(ns)
    for a, b in zip([0, *tops[:-1]], tops):
        al, be = _composed_params(s, g2, rho, int(a), int(b))
        alpha[a:b], beta[a:b] = al[:-1], be[:-1]
    return alpha, beta


def _composed_params(s, g2, rho, a: int, b: int):
    """(alpha_j, beta_j) of G_{j+1} o ... o G_b for j = a..b, from the chain
    logs S through b, g2[i-1] = G_i''(1) and rho[i-1] = rho_i.

    The chain rule gives the first derivative at 1, d1_j = rho_[j,b], and
    the second, d2_j = 2 d1_j T_j with
    T_j = sum_{i=j+1..b} G_i''(1) rho_[i,b] / (2 rho_i), so the LF map with
    those derivatives has alpha = d1/(1 + T)^2 and beta = T/(1 + T). Every
    factor is a probability or a second derivative, so nothing overflows
    or turns into 0/0 however far the chain decays: the same map written
    as 4 d1^3/(2 d1 + d2)^2 gave 0/0 once rho_[j,b] fell below about
    1e-160, and d2 as exp(-S_j) times a sum overflows from S_j < -709 on.
    """
    d1 = np.exp(s[b] - s[a : b + 1])  # d1[j-a] = rho_[j,b] for j >= 1
    if a == 0:
        d1[0] *= rho[0]
    # a Bernoulli rho_1 = 0 has G_1''(1) = 0: its term is 0, not 0/0
    terms = np.divide(g2[a:b] * d1[1:], 2.0 * rho[a:b],
                      out=np.zeros(b - a), where=g2[a:b] != 0.0)
    t = np.concatenate([np.cumsum(terms[::-1])[::-1], [0.0]])
    return d1 / (1.0 + t) ** 2, t / (1.0 + t)


def generation_pgf(spec: "ScenarioSpec", n: int, x: float) -> float:
    """F_n(x) as the exact product prod_j H_j(Gbar_{j+1,n}(x)), any immigration.

    Weights follow the "clamped" rule like the engine's PMF path, so the two
    routes stay oracles for each other even on rate rules that overshoot 1
    early.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("PGF argument must lie in [0, 1]")
    if n == 0:
        return 1.0
    alpha, beta = interval_params(spec, [n])
    gbar = lf_value((alpha[1 : n + 1], beta[1 : n + 1]), x)
    ns = np.arange(1, n + 1)
    return float(np.prod(spec.immigration.pgf_values(ns, gbar, "clamped")))
