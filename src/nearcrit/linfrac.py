"""Closed-form linear-fractional PGF calculus.

The two-parameter family f(s) = 1 - a/(1-b) + a s/(1-b s) is closed under
composition and is pinned down by its first two derivatives at 1, which
makes exact evaluation of composed offspring maps possible. This module
holds that calculus, the chain products rho_[j,n] in log space, the
closed-form product F_n(x) for LF or Bernoulli offspring, and the
derivatives at 1 of composed maps of any family, by truncated
Taylor-series composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class LinearFractional:
    """Parameters (alpha, beta) of f(s) = 1 - a/(1-b) + a s/(1-b s).

    beta = 0 degenerates to Bernoulli(alpha); a proper PGF needs
    alpha in (0, 1], beta in [0, 1) and alpha + beta <= 1.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        _check_params(self.alpha, self.beta)

    def value_at(self, x: float) -> float:
        return lf_value((self.alpha, self.beta), x)

    def deriv_at_1(self, s: int) -> float:
        """s-th derivative at 1: s! alpha beta^(s-1) / (1-beta)^(s+1)."""
        if s < 1:
            raise ValueError("derivative order must be >= 1")
        if s == 1:
            return self.alpha / (1.0 - self.beta) ** 2
        return (
            math.factorial(s)
            * self.alpha
            * self.beta ** (s - 1)
            / (1.0 - self.beta) ** (s + 1)
        )


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
    if spec.offspring.kind not in ("linear_fractional", "bernoulli"):
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


def composed_params_all(spec: "ScenarioSpec", n: int):
    """(alpha_j, beta_j) arrays of the maps G_{j+1} o ... o G_n, j = 0..n.

    First derivative at 1 is the product rho_{j+1}...rho_n (computed in log
    space); second derivative is the weighted sum over interior factors.
    """
    _require_lf(spec)
    if n == 0:
        return np.ones(1), np.zeros(1)
    s = chain_logs(spec, n)
    rho1 = float(spec.offspring.mean(1))
    d1 = np.exp(s[n] - s)  # d1[j] = rho_[j,n] for j >= 1
    d1[0] *= rho1
    g2 = spec.offspring.second_deriv(np.arange(1, n + 1))
    # w_i = G_i''(1) * exp(S_{i-1}) * rho_[i,n]^2 for i = 1..n
    w = g2 * np.exp(s[:-1]) * np.exp(2.0 * (s[n] - s[1:]))
    suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
    d2 = np.exp(-s) * suffix
    d2[0] = w[0] + rho1 * suffix[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = 2.0 * d1 + d2
        alpha = 4.0 * d1**3 / denom**2
        beta = d2 / denom
    return alpha, beta


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
    alpha, beta = composed_params_all(spec, n)
    gbar = lf_value((alpha[1 : n + 1], beta[1 : n + 1]), x)
    ns = np.arange(1, n + 1)
    return float(np.prod(spec.immigration.pgf_values(ns, gbar, "clamped")))


# ---------------------------------------------------------------------------
# derivatives of composed maps at 1


def composed_deriv_profile(spec: "ScenarioSpec", n: int, k_max: int) -> np.ndarray:
    """Array of shape (n+1, k_max): row j holds Gbar_{j+1,n}^(k)(1), k = 1..k_max.

    Single backward sweep l = n..1 over the truncated Taylor series at 1,
    h(t) = Gbar_{l+1,n}(1 + t) - 1 = sum_m b_m t^m with b_m = Gbar^(m)(1)/m!.
    Row n is the identity map, h = t. Each G_l maps h to
    sum_s (G_l^(s)(1)/s!) h^s, applied by Horner with one truncated
    convolution per order; the constant term of h is 0, so orders above
    k_max never feed back into the kept ones.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    fact = np.array([math.factorial(m) for m in range(1, k_max + 1)], dtype=float)
    out = np.zeros((n + 1, k_max))
    h = np.zeros(k_max + 1)
    h[1] = 1.0
    out[n] = h[1:] * fact
    for l in range(n, 0, -1):
        acc = np.zeros(k_max + 1)
        for s in range(k_max, 0, -1):
            acc[0] += spec.offspring.deriv_at_1(l, s) / fact[s - 1]
            acc = np.convolve(acc, h)[: k_max + 1]
        h = acc
        out[l - 1] = h[1:] * fact
    return out
