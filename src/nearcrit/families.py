"""Generation-indexed offspring and immigration families.

Families are immutable value objects built from closed-form parameter
rules: the offspring mean follows rho_n = 1 - c (n + n0)^(-gamma) and
immigration means are finite sums of power terms coef (n + shift)^(-power).
Each family exposes PGF values, derivatives at 1, extracted PMFs and exact
samplers per generation, and the scenario wrapper dispatches the limit-law
hypotheses over the declared constants.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from . import pgf
from .errors import NumericError, ScenarioValidationError
from .linfrac import LinearFractional, lf_alpha_beta, lf_value

_NUM = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_TERM_RE = re.compile(
    rf"""^\s*
    (?:(?P<coef>{_NUM})\s*\*\s*)?      # optional leading coefficient
    (?: \(\s*n\s*(?:\+\s*(?P<shift>{_NUM}))?\s*\) | n )
    \s*\^\s*(?P<power>-?{_NUM})\s*$""",
    re.VERBOSE,
)
_CONST_RE = re.compile(rf"^\s*(?P<coef>{_NUM})\s*$")
# a '+' separates terms unless it is the sign of a float exponent (5e+0)
_TERM_SEP = re.compile(r"(?<![0-9.][eE])\+")


def hurwitz_zeta(s: float, q: float, log_scale: float = 0.0) -> tuple[float, float]:
    """(e^log_scale zeta(s, q), error bound), zeta(s, q) = sum_{n>=0} (n+q)^-s.

    Euler-Maclaurin for s > 1: the remainder is below the first omitted
    correction (completely monotone summand), of order s^8 q^(-s-7)."""
    base = math.exp(log_scale - s * math.log(q)) if log_scale else q**-s
    terms, rising = [base * (q / (s - 1.0) + 0.5)], s  # s (s+1) ... (s+2k-2)
    for k, w in enumerate((1 / 12, -1 / 720, 1 / 30240, -1 / 1209600), start=1):
        terms.append(w * rising * base * q ** (1 - 2 * k))  # w = B_2k / (2k)!
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return sum(terms[:-1]), abs(terms[-1])


@dataclass(frozen=True)
class PowerTerm:
    """One term coef * (n + shift)^(-power)."""

    coef: float
    shift: float
    power: float

    def at(self, n):
        return self.coef * (np.asarray(n, dtype=float) + self.shift) ** -self.power

    def __str__(self) -> str:
        if self.power == 0:
            return f"{self.coef:.17g}"
        base = f"(n+{self.shift:.17g})" if self.shift != 0 else "n"
        return f"{self.coef:.17g}*{base}^-{self.power:.17g}"


@dataclass(frozen=True)
class PowerSum:
    """Finite sum of decaying power terms, the closed-form rate rules."""

    terms: tuple[PowerTerm, ...]

    @classmethod
    def parse(cls, text: str) -> "PowerSum":
        # split on '+' but rejoin pieces cut inside a "(n+shift)" group
        pieces, buf = [], ""
        for chunk in _TERM_SEP.split(text):
            buf = f"{buf}+{chunk}" if buf else chunk
            if buf.count("(") == buf.count(")"):
                pieces.append(buf)
                buf = ""
        if buf:
            raise ScenarioValidationError(f"unbalanced parentheses in rule {text!r}")
        parsed = []
        for piece in pieces:
            m = _TERM_RE.match(piece)
            if m:
                coef = float(m.group("coef")) if m.group("coef") else 1.0
                shift = float(m.group("shift")) if m.group("shift") else 0.0
                power = -float(m.group("power"))
                if power < 0:
                    raise ScenarioValidationError(
                        f"rule term {piece!r} grows with n; exponent must be <= 0"
                    )
                parsed.append(PowerTerm(coef, shift, power))
                continue
            m = _CONST_RE.match(piece)
            if m:
                parsed.append(PowerTerm(float(m.group("coef")), 0.0, 0.0))
                continue
            raise ScenarioValidationError(f"cannot parse rule term {piece!r}")
        return cls(tuple(parsed))

    def at(self, n):
        vals = self.terms[0].at(n)
        for t in self.terms[1:]:
            vals = vals + t.at(n)
        return vals

    def leading(self) -> tuple[float, float]:
        """(power, coef) of the slowest-decaying part, coef summed over ties."""
        p = min(t.power for t in self.terms)
        return p, sum(t.coef for t in self.terms if t.power == p)

    def summable(self) -> bool:
        return all(t.power > 1 for t in self.terms)

    def tail_bound(self, j: int) -> float:
        """sum_{n > j} of the rule plus the error bound of :func:`hurwitz_zeta`."""
        if not self.summable():
            raise ScenarioValidationError("tail bound needs all exponents > 1")
        return sum(t.coef * sum(hurwitz_zeta(t.power, j + 1 + t.shift))
                   for t in self.terms)

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms)


@dataclass(frozen=True)
class RhoRule:
    """Offspring-mean rule rho_n = 1 - c (n + n0)^(-gamma)."""

    c: float
    gamma: float
    n0: float = 0.0

    def __post_init__(self):
        if self.c <= 0 or self.gamma <= 0 or self.n0 < 0:
            raise ScenarioValidationError("rho rule needs c > 0, gamma > 0, n0 >= 0")
        if self.c * (1.0 + self.n0) ** -self.gamma > 1.0:
            raise ScenarioValidationError("rho rule gives rho_1 < 0")

    def one_minus_rho(self, n):
        return self.c * (np.asarray(n, dtype=float) + self.n0) ** -self.gamma

    def rho(self, n):
        return 1.0 - self.one_minus_rho(n)

    def log_tail(self, j: int) -> float:
        """Lambda_j = -log prod_{l>j} rho_l, for d = 1 - rho_{j+1} <= 1/2.

        sum_k c^k/k zeta(k gamma, j+1+n0), from -log(1-d) = sum_k d^k/k; term k
        is below d^(k-1) times the first, so terms up to d^k <= 1e-17 suffice."""
        q, d = j + 1.0 + self.n0, float(self.one_minus_rho(j + 1))
        ks = range(1, 1 + math.ceil(math.log(1e-17) / math.log(d)))
        return sum(hurwitz_zeta(k * self.gamma, q, k * math.log(self.c))[0] / k
                   for k in ks)

    def divergent_sum(self) -> bool:
        """Whether sum (1 - rho_n) diverges; decided from the rule, gamma <= 1."""
        return self.gamma <= 1.0


# ---------------------------------------------------------------------------
# offspring


def _table_moment(table, n, k: int):
    """Factorial moment of a per-generation PMF table; maps over arrays."""
    if np.ndim(n):
        return np.array(
            [
                pgf.factorial_moment(pgf.Pmf(table(int(v))), k)
                for v in np.asarray(n).ravel()
            ]
        )
    return pgf.factorial_moment(pgf.Pmf(table(int(n))), k)


def _table_pgf(table, n, x):
    """Custom-table PGF values, one generation at a time; maps over arrays."""
    ns, xs = np.broadcast_arrays(n, x)
    vals = [
        np.polyval(np.asarray(table(int(m)))[::-1], y)
        for m, y in zip(ns.flat, xs.flat)
    ]
    return np.reshape(vals, ns.shape)


def _bernoulli_pgf(par, x):
    p0, p1 = par
    return p0 + p1 * x


def _quadratic_g2(delta, nu):
    """G''(1) = min(nu delta, 1 - delta) of the quadratic law of mean 1 - delta.

    nu delta <= 1 - delta is the window nu <= rho/(1 - rho); a generation
    outside it is clamped to the edge, where p1 = 0.
    """
    return np.minimum(nu * delta, 1.0 - delta)


def _quadratic_params(delta, nu):
    """(p0, p1, p2) with p2 = G''(1)/2; a clamped generation gets p1 = 0
    exactly, never a rounded p1 < 0 or p0 + p2 > 1."""
    p2 = _quadratic_g2(delta, nu) / 2.0
    return delta + p2, 1.0 - delta - 2.0 * p2, p2


def _quadratic_pgf(par, x):
    # 1 - G(x) = (1 - x)(p1 + p2 (1 + x)): exactly 1 at x = 1 and never
    # above it, where p0 + (p1 + p2 x) x can round to 1 + eps
    _, p1, p2 = par
    return 1.0 - (1.0 - x) * (p1 + p2 * (1.0 + x))


# G_n(x) = formula(params(n), x) for each closed-form kind
_PGF_FORMULAS = {
    "bernoulli": _bernoulli_pgf,
    "quadratic": _quadratic_pgf,
    "linear_fractional": lf_value,
}


@dataclass(frozen=True)
class OffspringFamily:
    """Offspring law per generation; kind selects the closed form.

    * quadratic: degree-2 polynomial with G_n''(1) = nu (1 - rho_n), capped
      at rho_n in the early generations outside the window
    * bernoulli: G_n(x) = 1 - rho_n + rho_n x, the quadratic with nu = 0
    * linear_fractional: LF map with G_n''(1) = nu (1 - rho_n)
    * custom: user PMF table per n
    """

    kind: str
    rho_rule: RhoRule | None = None
    nu: float = 0.0
    table: Callable[[int], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("bernoulli", "quadratic", "linear_fractional", "custom"):
            raise ScenarioValidationError(f"unknown offspring family {self.kind!r}")
        if self.kind == "custom":
            if self.table is None:
                raise ScenarioValidationError("custom offspring needs a PMF table")
            return
        if self.rho_rule is None:
            raise ScenarioValidationError(f"{self.kind} offspring needs a rho rule")
        if self.nu < 0:
            raise ScenarioValidationError("nu must be nonnegative")
        if self.kind == "bernoulli" and self.nu != 0.0:
            raise ScenarioValidationError("Bernoulli offspring forces nu = 0")

    # -- mean sequence ------------------------------------------------------

    def mean(self, n):
        if self.kind == "custom":
            return _table_moment(self.table, n, 1)
        return self.rho_rule.rho(n)

    def one_minus_rho(self, n):
        if self.kind == "custom":
            return 1.0 - self.mean(n)
        return self.rho_rule.one_minus_rho(n)

    def start_offset(self, horizon: int = 10**6) -> int:
        """First generation whose parameters are not window-clamped, by the
        test of :func:`_quadratic_g2`."""
        if self.kind != "quadratic":
            return 1
        for n in range(1, horizon + 1):
            delta = float(self.rho_rule.one_minus_rho(n))
            if self.nu * delta <= 1.0 - delta:
                return n
        raise ScenarioValidationError("quadratic family never becomes admissible")

    def second_deriv(self, n):
        """G_n''(1): nu (1 - rho_n), for quadratic (and Bernoulli, nu = 0)
        capped at rho_n by the window of :func:`_quadratic_g2`."""
        if self.kind == "custom":
            return _table_moment(self.table, n, 2)
        delta = self.one_minus_rho(n)
        if self.kind == "linear_fractional":
            return self.nu * delta
        return _quadratic_g2(delta, self.nu)

    def deriv_at_1(self, n: int, s: int) -> float:
        """s-th derivative of G_n at 1."""
        if s < 1:
            raise ValueError("derivative order must be >= 1")
        if s == 1:
            return float(self.mean(n))
        if self.kind == "linear_fractional":
            return self.lf_params(n).deriv_at_1(s)
        if self.kind == "custom":
            return pgf.factorial_moment(pgf.Pmf(self.table(n)), s)
        return float(self.second_deriv(n)) if s == 2 else 0.0

    def params(self, ns):
        """Closed-form parameters of G_n; maps over arrays of generations.

        * bernoulli: (1 - rho_n, rho_n)
        * quadratic: (p0, p1, p2)
        * linear_fractional: (alpha, beta), checked like LinearFractional
        """
        if self.kind == "custom":
            raise ScenarioValidationError("custom offspring has no closed form")
        # curvatures come from the unrounded 1 - rho_n, never from 1 - rho_n
        # rounded through rho_n
        delta = self.rho_rule.one_minus_rho(ns)
        if self.kind == "bernoulli":
            rho = 1.0 - delta
            return 1.0 - rho, rho
        if self.kind == "linear_fractional":
            return lf_alpha_beta(1.0 - delta, self.nu * delta)
        return _quadratic_params(delta, self.nu)

    @property
    def pgf_formula(self) -> Callable:
        """f with G_n(x) = f(params(n), x), on floats or broadcasting arrays."""
        if self.kind == "custom":
            raise ScenarioValidationError("custom offspring has no closed form")
        return _PGF_FORMULAS[self.kind]

    def lf_params(self, n: int) -> LinearFractional:
        if self.kind == "linear_fractional":
            return LinearFractional(*(float(v) for v in self.params(n)))
        if self.kind == "bernoulli":
            return LinearFractional(float(self.params(n)[1]), 0.0)
        raise ScenarioValidationError(f"{self.kind} offspring has no LF parameters")

    def pgf_at(self, n, x):
        """G_n(x); convex, nondecreasing, G_n(1) = 1.

        Arrays of generations and points broadcast against each other;
        scalar n and x give a float.
        """
        xs = np.asarray(x, dtype=float)
        if not np.all((0.0 <= xs) & (xs <= 1.0)):
            raise ValueError("PGF argument must lie in [0, 1]")
        if self.kind == "custom":
            vals = _table_pgf(self.table, n, xs)
        else:
            vals = self.pgf_formula(self.params(n), xs)
        return float(vals) if np.ndim(vals) == 0 else vals

    def pmf(self, n, k_trunc: int):
        """Coefficients of G_n truncated at ``k_trunc``.

        A scalar n gives a :class:`pgf.Pmf`; an array of generations gives
        a :func:`pgf.coeff_table` with one row per generation, from one
        ``params`` call. The scalar is the one-row case of the same table.
        Linear-fractional rows hold p_0 = 1 - alpha/(1 - beta) and
        p_k = alpha beta^(k-1), custom rows are zero-padded to the widest
        row, and the other kinds hold their parameters.
        """
        ns = np.atleast_1d(n)
        if self.kind == "custom":
            rows = [np.asarray(self.table(int(m)), dtype=float)[:k_trunc]
                    for m in ns]
            raw = np.zeros((len(rows), max(r.shape[0] for r in rows)))
            for row, r in zip(raw, rows):
                row[: r.shape[0]] = r
        elif self.kind == "linear_fractional":
            alpha, beta = self.params(ns)
            raw = np.empty((ns.shape[0], k_trunc))
            raw[:, 0] = 1.0 - alpha / (1.0 - beta)
            np.power(beta[:, None], np.arange(k_trunc - 1), out=raw[:, 1:])
            raw[:, 1:] *= alpha[:, None]
        else:
            raw = np.stack(self.params(ns), axis=1)[:, :k_trunc]
        return pgf.coeff_table(raw) if np.ndim(n) else pgf.Pmf(raw[0])

    def sample(self, n: int, h: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """out[s, t]: how many of the h[s] trajectories with s parents in
        generation ``n`` have t children in total, drawn exactly.

        The closed-form kinds draw in stages over histograms: for quadratic
        (Bernoulli being the nu = 0 case) the parents without exactly one
        child and then the ones with two among them, for linear-fractional
        the parents with children, the ones among them with extra children
        and then the extra children. Each stage splits every occupied cell
        by conditional binomials (see _split), so the work depends on the
        occupied states, not on the number of trajectories.
        """
        states = np.flatnonzero(h)
        if self.kind in ("bernoulli", "quadratic"):
            # Bernoulli is the nu = 0 quadratic
            p0, _, p2 = (float(v) for v in
                         _quadratic_params(self.one_minus_rho(n), self.nu))
            row, split, cnt = _binomial_cells(h[states], states, p0 + p2, rng)
            kids = states[row] - split
            if p2:  # none of the split parents has two children when p2 = 0
                cell, twos, cnt = _binomial_cells(cnt, split, p2 / (p0 + p2), rng)
                row, kids = row[cell], kids[cell] + 2 * twos
        elif self.kind == "linear_fractional":
            par = self.lf_params(n)
            row, alive, cnt = _binomial_cells(h[states], states,
                                              par.alpha / (1.0 - par.beta), rng)
            # a parent with children has more than one with probability beta,
            # and then Geometric(1 - beta) more: m such parents add m plus a
            # NegativeBinomial(m, 1 - beta) count of extra children
            cell, more, cnt = _binomial_cells(cnt, alive, par.beta, rng)
            row, kids = row[cell], alive[cell] + more
            cell, extra, cnt = _cells(_split(
                cnt, lambda y: _nb_hazard(more, par.beta, y), rng))
            row, kids = row[cell], kids[cell] + extra
        else:
            # custom table: the s-fold convolution of the table for s parents
            probs = _sampling_probs(np.asarray(self.table(n), dtype=float))
            laws = [np.ones(1)]
            for _ in range(int(states.max(initial=0))):
                laws.append(np.convolve(laws[-1], probs))
            cols = np.zeros((laws[-1].shape[0], states.shape[0]))
            for i, s in enumerate(states):
                cols[: laws[s].shape[0], i] = laws[s]
            haz = _table_hazards(cols)
            row, kids, cnt = _cells(_split(h[states], lambda k: haz[k], rng))
        out = np.zeros((h.shape[0], int(kids.max(initial=0)) + 1), dtype=np.int64)
        np.add.at(out, (states[row], kids), cnt)
        return out


def _split(counts: np.ndarray, hazard: Callable, rng: np.random.Generator) -> np.ndarray:
    """out[i, k]: how many of ``counts[i]`` independent draws take the value k.

    ``hazard(k)`` is P(X = k | X >= k), a scalar or one value per row. The
    values are visited in increasing order, each taking a Binomial share of
    the draws still left (the conditional-binomial method; Davis, CSDA 16,
    1993), until no draw is left: an unbounded law is never truncated, and
    a bounded one stops at its last support point, whose hazard is 1.
    """
    left = np.array(counts, dtype=np.int64)
    cols = []
    while left.any():
        cols.append(rng.binomial(left, hazard(len(cols))))
        left -= cols[-1]
    return np.array(cols or [left]).T


def _cells(out: np.ndarray):
    """(row, value, count) of the nonzero entries of a split matrix."""
    row, value = np.nonzero(out)
    return row, value, out[row, value]


def _table_hazards(probs: np.ndarray) -> np.ndarray:
    """P(X = k | X >= k) of bounded laws whose values run down the first axis.

    The tails are summed from the top, so no hazard rounds above 1 and the
    last support point gets exactly 1.
    """
    tails = np.cumsum(probs[::-1], axis=0)[::-1]
    return np.divide(probs, tails, out=np.ones_like(probs), where=tails > 0.0)


def _binomial_cells(counts: np.ndarray, sizes: np.ndarray, p: float,
                    rng: np.random.Generator):
    """Cells (i, k, c): c of the ``counts[i]`` trajectories, each of
    ``sizes[i]`` units, have exactly k units with an event of probability p.

    Events are counted on the rarer side, probability q = min(p, 1 - p).
    The hazards come from the binomial weights relative to k = 0,
    prod_{l<k} (s - l) q / ((l + 1)(1 - q)), summed in logs and scaled by
    their maximum over k, so no size overflows or vanishes.
    """
    q = 1.0 - p if p > 0.5 else p
    if q == 0.0:
        row, k, cnt = np.arange(counts.shape[0]), np.zeros_like(sizes), counts
    else:
        ks = np.arange(int(sizes.max(initial=0)) + 1)[:, None]
        logw = np.zeros((ks.shape[0], sizes.shape[0]))
        np.cumsum(np.log(np.maximum(sizes - ks[:-1], 1) * (q / (1.0 - q) / ks[1:])),
                  axis=0, out=logw[1:])
        logw[ks > sizes] = -np.inf
        haz = _table_hazards(np.exp(logw - logw.max(axis=0)))
        row, k, cnt = _cells(_split(counts, lambda d: haz[d], rng))
    return row, (sizes[row] - k if p > 0.5 else k), cnt


def _nb_hazard(m: np.ndarray, beta: float, y: int) -> np.ndarray:
    """P(Y = y | Y >= y) for Y ~ NegativeBinomial(m, 1 - beta), per entry of m.

    P(Y >= y) = P(Binomial(m + y - 1, 1 - beta) <= m - 1) is a finite sum,
    which makes the hazard (1 - beta) over 1 + sum_{j=1..m-1} of
    prod_{l<j} (m - 1 - l) beta / ((y + 1 + l)(1 - beta)); m = 0 is Y = 0.
    Every term is positive, so the sums carry no cancellation; a sum beyond
    the float range is inf and its hazard 0.
    """
    ls = np.arange(max(int(m.max(initial=0)) - 1, 0))
    inside = ls < m[:, None] - 1
    factors = np.where(inside, (m[:, None] - 1 - ls)
                       * (beta / (1.0 - beta) / (y + 1.0 + ls)), 1.0)
    sums = 1.0 + np.sum(np.cumprod(factors, axis=1), axis=1, where=inside)
    return np.where(m > 0, (1.0 - beta) / sums, 1.0)


def _poisson_hazard(lam: float, k: int) -> float:
    """P(X = k | X >= k) for X ~ Poisson(lam).

    The inverse of sum_{i>=0} lam^i k!/(k+i)!, a series of positive terms
    summed until the rest, below term * lam/(j + 1 - lam) once j + 1 > lam,
    is under half an ulp of the sum.
    """
    total, term, j = 1.0, 1.0, k + 1
    while True:
        term *= lam / j
        total += term
        if j + 1 > lam and term * lam <= (j + 1 - lam) * 2.0**-53 * total:
            return 1.0 / total
        j += 1


def _sampling_probs(table: np.ndarray) -> np.ndarray:
    total = float(table.sum())
    if total < 1.0 - 1e-9:
        raise NumericError(
            f"cannot sample a law missing {1.0 - total:.3e} mass; "
            "raise the table support"
        )
    return table / total


# ---------------------------------------------------------------------------
# immigration


def log_two_base(support: int) -> np.ndarray:
    """Coefficients of the law with PGF 1 - log(2 - x), truncated.

    p_0 = 1 - log 2 and p_k = 1/(k 2^k); unit mean, all factorial moments
    (k-1)!. Unbounded support, so a truncation bound must be declared.
    """
    k = np.arange(1, support)
    out = np.empty(support)
    out[0] = 1.0 - math.log(2.0)
    out[1:] = 1.0 / (k * 2.0**k)
    return out


BASE_LAWS: dict[str, Callable[[int], np.ndarray]] = {
    "log_two": log_two_base,
    "delta2": lambda support: np.array([0.0, 0.0, 1.0])[:support],
}


RATE_RULES = ("declared", "clamped")


@dataclass(frozen=True)
class ImmigrationFamily:
    """Immigration law per generation.

    * poisson:   H_n(x) = exp{m_{n,1}(x - 1)}
    * custom:    mixture toward a fixed base law B: H_n = 1 + w_n (B - 1),
      with w_n = m_{n,1}/B'(1) so the mean matches the m1 rule
    * bernoulli: the mixture toward B(x) = x, H_n(x) = 1 + m_{n,1}(x - 1)

    Mixture weights follow one of two rules (:data:`RATE_RULES`): the
    product law uses the declared weights; the finite-n routes (PMFs,
    sampling, and their PGF oracles) need probabilities, so there Bernoulli
    weights are clamped at 1 with a warning and custom weights above 1 are
    rejected.
    """

    kind: str
    m1: PowerSum | None = None
    base: tuple[float, ...] | None = None
    base_name: str | None = None
    # the validated base law of a mixture kind and its mean, built once
    base_law: pgf.Pmf | None = field(default=None, init=False, repr=False,
                                     compare=False)
    base_mean: float | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        if self.kind not in ("bernoulli", "poisson", "custom"):
            raise ScenarioValidationError(f"unknown immigration family {self.kind!r}")
        if self.m1 is None:
            raise ScenarioValidationError("immigration needs an m1 rule")
        if self.kind == "custom":
            if self.base is None:
                raise ScenarioValidationError("custom immigration needs a base law")
            object.__setattr__(self, "base", tuple(float(v) for v in self.base))
        if self.kind != "poisson":
            base = self.base if self.kind == "custom" else (0.0, 1.0)
            law = pgf.Pmf(np.asarray(base))
            object.__setattr__(self, "base_law", law)
            object.__setattr__(self, "base_mean", pgf.factorial_moment(law, 1))

    def mean(self, n):
        """Declared m_{n,1} straight from the rule (never clamped)."""
        return self.m1.at(n)

    def weight(self, ns, rates: str):
        """Mixture weights w_n = m_{n,1}/B'(1) under the named rule.

        "declared" returns them as they are; "clamped" (the finite-n routes)
        caps Bernoulli weights at 1 with a warning and rejects a custom
        weight above 1.
        """
        if rates not in RATE_RULES:
            raise ValueError(f"unknown rate rule {rates!r}")
        w = self.m1.at(ns) / self.base_mean
        if rates == "declared" or (w <= 1.0).all():
            return w
        if self.kind == "custom":
            first = np.flatnonzero(~(np.ravel(w) <= 1.0))[0]
            raise ScenarioValidationError(
                f"mixture weight {np.ravel(w)[first]:.4g} at "
                f"n={np.ravel(ns)[first]} is not a probability"
            )
        warnings.warn(
            "Bernoulli immigration mean exceeds 1 for early generations; "
            "rate clamped (early-generation adjustment)",
            stacklevel=3,
        )
        return np.minimum(w, 1.0)

    def factorial_moment_at(self, n: int, k: int) -> float:
        """m_{n,k} = H_n^(k)(1)."""
        if self.kind == "poisson":
            return float(self.m1.at(n)) ** k
        return float(self.weight(n, "declared")) * pgf.factorial_moment(self.base_law, k)

    def m2_ratio_vanishes(self, rho_rule: RhoRule) -> bool:
        """Whether m_{n,2}/(1 - rho_n) -> 0, decided from the rules."""
        p1, _ = self.m1.leading()
        if self.kind == "poisson":
            return 2.0 * p1 > rho_rule.gamma
        return pgf.factorial_moment(self.base_law, 2) == 0.0 or p1 > rho_rule.gamma

    def pgf_values(self, ns, xs, rates: str) -> np.ndarray:
        """H_n(x) at generations ``ns`` and matching points ``xs``.

        ``rates`` names the weight rule, "declared" or "clamped".
        """
        if self.kind == "poisson":
            return np.exp(self.m1.at(ns) * (xs - 1.0))
        # B(x) = x itself for Bernoulli, sparing a polynomial evaluation
        base = (xs if self.kind == "bernoulli"
                else np.polyval(self.base_law.coeffs[::-1], xs))
        return 1.0 + self.weight(ns, rates) * (base - 1.0)

    def pmf(self, n, k_trunc: int):
        """Coefficients of H_n truncated at ``k_trunc``, at the clamped rates.

        A scalar n gives a :class:`pgf.Pmf`; an array of generations gives
        a :func:`pgf.coeff_table` with one row per generation, from one
        ``m1.at`` or ``weight`` call. The scalar is the one-row case of the
        same table.
        """
        ns = np.atleast_1d(n)
        if self.kind == "poisson":
            raw = pgf.poisson_coeffs(self.m1.at(ns), k_trunc)
        else:
            w = self.weight(ns, "clamped")
            raw = w[:, None] * self.base_law.coeffs[:k_trunc]
            raw[:, 0] += 1.0 - w
        return pgf.coeff_table(raw) if np.ndim(n) else pgf.Pmf(raw[0])

    def sample(self, n: int, h: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """out[v, k]: how many of the h[v] trajectories in state v receive k
        immigrants in generation ``n``, drawn exactly (see _split).

        Poisson runs the conditional binomials over k until every trajectory
        is placed; a mixture draws its weight and then the base law, which
        for Bernoulli is the point mass at 1 and needs no draw.
        """
        if self.kind == "poisson":
            lam = float(self.m1.at(n))
            return _split(h, lambda k: _poisson_hazard(lam, k), rng)
        mixed = rng.binomial(h, float(self.weight(n, "clamped")))
        if self.kind == "bernoulli":
            return np.stack([h - mixed, mixed], axis=1)
        haz = _table_hazards(_sampling_probs(self.base_law.coeffs))
        out = _split(mixed, lambda k: haz[k], rng)
        out[:, 0] += h - mixed
        return out


# ---------------------------------------------------------------------------
# scenario and limit-law dispatch


@dataclass(frozen=True)
class PoissonLimit:
    lam: float

    def describe(self) -> str:
        return f"Poisson lambda={self.lam:.17g}"


@dataclass(frozen=True)
class CompoundPoissonLimit:
    lambdas: tuple[float, ...]

    def describe(self) -> str:
        inner = ",".join(f"{v:.17g}" for v in self.lambdas)
        return f"CompoundPoisson lambda_seq=[{inner}]"


@dataclass(frozen=True)
class NegativeBinomialLimit:
    r: float
    p: float

    def describe(self) -> str:
        return f"NegativeBinomial r={self.r:.17g} p={self.p:.17g}"


@dataclass(frozen=True)
class GeneralExpLimit:
    """Exponential of a centered series with moment-ratio limits lambda_l."""

    rule: str
    lam: float
    nu: float

    def describe(self) -> str:
        return f"GeneralExp rule={self.rule} lambda={self.lam:.17g}"


@dataclass(frozen=True)
class ProductLimit:
    def describe(self) -> str:
        return "ProductLaw (infinite product of immigration factors)"


@dataclass(frozen=True)
class OutsideScope:
    reason: str

    def describe(self) -> str:
        return f"OutsideScope: {self.reason}"


LimitLaw = Union[
    PoissonLimit,
    CompoundPoissonLimit,
    NegativeBinomialLimit,
    GeneralExpLimit,
    ProductLimit,
    OutsideScope,
]


def _log_series_lambda(l: int) -> float:
    return math.factorial(l - 1) / l


LAMBDA_RULES = {"log_series": _log_series_lambda}


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one inhomogeneous process plus declared limits."""

    offspring: OffspringFamily
    immigration: ImmigrationFamily
    lam: float
    nu: float
    divergent: bool
    horizon: int = 1000
    k_trunc: int = 64
    lambda_seq: tuple[float, ...] | None = None
    lambda_rule: str | None = None
    name: str = "scenario"

    def __post_init__(self):
        if self.horizon < 0 or self.k_trunc < 1:
            raise ScenarioValidationError("horizon must be >= 0 and K >= 1")
        if self.lambda_rule is not None and self.lambda_rule not in LAMBDA_RULES:
            raise ScenarioValidationError(
                f"unknown lambda rule {self.lambda_rule!r}"
            )

    # -- declared moment-ratio limits ---------------------------------------

    def lambda_l(self, l: int) -> float:
        """Declared limit of m_{n,l} / (l (1 - rho_n))."""
        if l < 1:
            raise ValueError("index must be >= 1")
        if self.lambda_seq is not None:
            return self.lambda_seq[l - 1] if l <= len(self.lambda_seq) else 0.0
        if self.lambda_rule is not None:
            return LAMBDA_RULES[self.lambda_rule](l)
        return self.lam if l == 1 else 0.0

    def lambda_over_factorial(self, l: int) -> float:
        """lambda_l / l!, computed stably for the named rules."""
        if self.lambda_rule == "log_series":
            return 1.0 / l**2
        return self.lambda_l(l) / math.factorial(l)

    def validate(self) -> list[str]:
        """Hard checks raise; soft mismatches come back as warnings."""
        notes = []
        rho_rule = self.offspring.rho_rule
        if self.offspring.kind == "linear_fractional" and rho_rule.rho(1) <= 0.0:
            raise ScenarioValidationError("offspring.rho gives rho_1 = 0, which "
                                          "linear-fractional offspring cannot take")
        if rho_rule is not None and rho_rule.divergent_sum() != self.divergent:
            raise ScenarioValidationError(
                "declared divergence flag contradicts the rho rule "
                f"(gamma={rho_rule.gamma:g})"
            )
        n = max(self.horizon, 1)
        delta = float(self.offspring.one_minus_rho(n))
        m1 = float(self.immigration.mean(n))
        if delta > 0:
            lam_at_n = m1 / delta
            if self.lam > 0 and abs(lam_at_n - self.lam) > 0.1 * self.lam:
                notes.append(
                    f"declared lambda={self.lam:g} vs rule value {lam_at_n:.4g} "
                    f"at n={n} (>10% off)"
                )
            g2 = float(self.offspring.second_deriv(n))
            nu_at_n = g2 / delta
            if self.nu > 0 and abs(nu_at_n - self.nu) > 0.1 * self.nu:
                notes.append(
                    f"declared nu={self.nu:g} vs rule value {nu_at_n:.4g} "
                    f"at n={n} (>10% off)"
                )
            if self.nu == 0 and nu_at_n > 0.1:
                notes.append(f"declared nu=0 but rule gives {nu_at_n:.4g} at n={n}")
        if self.immigration.kind == "bernoulli":
            m_first = float(self.immigration.mean(1))
            if m_first > 1.0:
                notes.append(
                    f"Bernoulli immigration mean {m_first:.4g} at n=1 exceeds 1; "
                    "PMF/sampling paths clamp it"
                )
        if self.offspring.kind == "quadratic":
            start = self.offspring.start_offset()
            if start > 1:
                notes.append(
                    f"quadratic window clamps generations below n={start}"
                )
        return notes


def classify(spec: ScenarioSpec) -> LimitLaw:
    """Dispatch the scenario onto its limit law from the declared rules.

    The divergence of sum(1 - rho_n) is a declared, rule-validated flag;
    moment-ratio conditions are decided by comparing rule exponents, never
    estimated from finitely many terms.
    """
    if not spec.divergent:
        if spec.immigration.m1.summable():
            return ProductLimit()
        return OutsideScope(
            "sum(1-rho_n) < inf needs summable immigration means"
        )
    if spec.nu == 0.0:
        if spec.lambda_seq is not None:
            return CompoundPoissonLimit(tuple(spec.lambda_seq))
        if spec.lambda_rule is not None:
            return GeneralExpLimit(spec.lambda_rule, spec.lam, spec.nu)
        if spec.immigration.m2_ratio_vanishes(spec.offspring.rho_rule):
            return PoissonLimit(spec.lam)
        return OutsideScope(
            "second immigration moments do not vanish relative to 1-rho"
        )
    if spec.immigration.m2_ratio_vanishes(spec.offspring.rho_rule):
        return NegativeBinomialLimit(2.0 * spec.lam / spec.nu, spec.nu / (2.0 + spec.nu))
    return OutsideScope("nu > 0 requires second immigration moments o(1-rho)")


@dataclass(frozen=True)
class ConditionRatios:
    """Hypothesis diagnostics at one generation."""

    m1_ratio: float
    m2_ratio: float
    g2_ratio: float
    g3_ratio: float
    partial_sum: float


def condition_ratios(spec: ScenarioSpec, n: int) -> ConditionRatios:
    """Per-n values of the moment ratios the limit-law hypotheses constrain."""
    if n < 1:
        raise ValueError("generation index must be >= 1")
    delta = float(spec.offspring.one_minus_rho(n))
    partial = float(np.sum(spec.offspring.one_minus_rho(np.arange(1, n + 1))))
    return ConditionRatios(
        m1_ratio=spec.immigration.factorial_moment_at(n, 1) / delta,
        m2_ratio=spec.immigration.factorial_moment_at(n, 2) / delta,
        g2_ratio=float(spec.offspring.second_deriv(n)) / delta,
        g3_ratio=spec.offspring.deriv_at_1(n, 3) / delta,
        partial_sum=partial,
    )
