"""Generation-indexed offspring and immigration families.

Families are immutable value objects built from closed-form parameter
rules: the offspring mean follows rho_n = 1 - c (n + n0)^(-gamma) and
immigration means are finite sums of power terms coef (n + shift)^(-power).
Each kind of law is one small frozen dataclass under the base
:class:`OffspringFamily` (Bernoulli, quadratic, linear-fractional, custom
table) or :class:`ImmigrationFamily` (Poisson, Bernoulli, custom mixture)
that takes only the fields its kind reads and holds its own formulas: PGF
values, derivatives at 1, extracted PMFs and exact samplers per
generation, and its part of the propagation and product-law routes. One
table, :data:`FAMILIES`, names each class in scenario files. The scenario
wrapper derives the limit constants from the rules and dispatches the
limit-law hypotheses over them.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, NamedTuple, Union

import numpy as np

from . import pgf
from .errors import NumericError, ScenarioValidationError
from .linfrac import interval_params, lf_alpha_beta, lf_deriv_at_1, lf_value

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

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms)


@dataclass(frozen=True)
class RhoRule:
    """Offspring-mean rule rho_n = 1 - c (n + n0)^(-gamma)."""

    c: float
    gamma: float
    n0: float = 0.0

    def __post_init__(self):
        if not (0 < self.c < math.inf and 0 < self.gamma < math.inf
                and 0 <= self.n0 < math.inf):
            raise ScenarioValidationError("rho rule needs finite c > 0, gamma > 0, n0 >= 0")
        if self.c * (1.0 + self.n0) ** -self.gamma > 1.0:
            raise ScenarioValidationError("rho rule gives rho_1 < 0")

    def one_minus_rho(self, n):
        return self.c * (np.asarray(n, dtype=float) + self.n0) ** -self.gamma

    def rho(self, n):
        return 1.0 - self.one_minus_rho(n)

    def log_tail(self, j: int) -> float:
        """Lambda_j = -log prod_{l>j} rho_l, for d = 1 - rho_{j+1} <= 1/2.

        sum_k c^k/k zeta(k gamma, j+1+n0), from -log(1-d) = sum_k d^k/k; term k
        is below d^(k-1) times the first, so terms up to d^k <= 1e-17 suffice;
        d = 0 means the whole tail is below the float range, and one does."""
        q, d = j + 1.0 + self.n0, float(self.one_minus_rho(j + 1))
        terms = 1 if d == 0.0 else math.ceil(math.log(1e-17) / math.log(d))
        return sum(hurwitz_zeta(k * self.gamma, q, k * math.log(self.c))[0] / k
                   for k in range(1, 1 + terms))

    def divergent_sum(self) -> bool:
        """Whether sum (1 - rho_n) diverges; decided from the rule, gamma <= 1."""
        return self.gamma <= 1.0


# ---------------------------------------------------------------------------
# offspring


def _affine_scan(rows: np.ndarray, g: np.ndarray, pieces: list, width: int):
    """:meth:`OffspringFamily.compose_back` for rows (p0, p1) and an affine
    ``g``: the pieces (lo, hi) of rows, the top one over g and the others
    over x, composed by one segmented doubling scan over the rows followed
    by g (Hillis & Steele; Blelloch, CMU-CS-90-190).

    Entry i starts as G_{ns[i]} = (a, s) = (p0, p1), and a step of span d
    composes entries i and i + d into (a_i + s_i a_{i+d}, s_i s_{i+d}) when
    i + d lies in the piece of i or is g; an entry of a lower piece whose
    partner lies beyond it keeps its value. So after log2(longest piece)
    steps a_i + s_i x is G_{ns[i]} o ... o (g or x), x the identity that
    ends every lower piece, and the work and memory do not depend on how
    the rows fall into pieces. Every later cohort shares the chain
    s = p1 p1' ..., so the scan runs in long double. The pieces are not
    empty; a single piece is composed exactly as an unsegmented scan.
    """
    count = rows.shape[0]
    cols = np.zeros((2, count + 1), dtype=np.longdouble)
    cols[: rows.shape[1], :count] = rows.T
    cols[: g.shape[0], count] = g
    # distance of each entry of a lower piece to the piece's last row: the
    # entries below span keep their value; the top piece ends at g, and
    # the slices of a step stop there
    gap = np.concatenate([np.arange(hi - lo)[::-1] for lo, hi in pieces[:-1]] or [[]])
    order = np.argsort(gap, kind="stable")
    gap, longest = gap[order], max(hi - lo for lo, hi in pieces)
    a, s = cols
    span = 1
    while span <= longest:
        keep = order[: np.searchsorted(gap, span)]
        held = cols[:, keep] if keep.size else None
        a[:-span] = a[:-span] + s[:-span] * a[span:]
        s[:-span] = s[:-span] * s[span:]
        if keep.size:
            cols[:, keep] = held
        span *= 2
    maps = cols[:width, 1:].T.astype(float)
    maps[[hi - 1 for _, hi in pieces[:-1]]] = np.array([0.0, 1.0])[:width]  # x
    return maps, [cols[:width, lo].astype(float) for lo, _ in pieces]


def lf_coeffs(alpha, beta, k_trunc: int) -> np.ndarray:
    """Coefficient table of linear-fractional maps, one row per (alpha, beta):
    p_0 = 1 - alpha/(1 - beta) and p_k = alpha beta^(k-1), truncated at
    ``k_trunc`` and validated as :func:`pgf.coeff_table`."""
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    raw = np.empty((alpha.shape[0], k_trunc))
    raw[:, 0] = 1.0 - alpha / (1.0 - beta)
    np.power(beta[:, None], np.arange(k_trunc - 1), out=raw[:, 1:])
    raw[:, 1:] *= alpha[:, None]
    return pgf.coeff_table(raw)


def _polynomial_pgf(par, x):
    """sum_k par[k] x^k by Horner from the top coefficient; the coefficients
    and x broadcast, and the result is np.polyval(par[::-1], x) bit for bit."""
    y = 0.0 * x
    for c in par[::-1]:
        y = y * x + c
    return y


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


class _ByName(type):
    """Metaclass of the family bases: ``OffspringFamily(kind=name, **fields)``
    builds the class that :data:`FAMILIES` names, for callers that hold a
    kind name (perfbench's product-law check builds a Bernoulli twin so)."""

    def __call__(cls, *args, kind=None, **fields):
        if kind is not None:
            cls = family_class(cls.role, kind)
        return super().__call__(*args, **fields)


class OffspringFamily(metaclass=_ByName):
    """Offspring law per generation: one frozen dataclass per kind, which
    takes only the fields it reads and is named ``kind`` in scenario files.

    Each kind gives its closed form G_n(x) = pgf_formula(params(n), x) and
    its derivatives at 1, ``deriv_at_1(n, s)``. The base serves the kinds
    with a rho rule, whose parameters come from the unrounded 1 - rho_n,
    never from 1 - rho_n rounded through rho_n; a custom table overrides
    ``mean``, ``one_minus_rho`` and ``params``.
    """

    role = "offspring"
    # composed maps G_{j+1} o ... o G_n stay linear-fractional (linfrac)
    composes_lf = False

    def __post_init__(self):
        if not 0 <= self.nu < math.inf:
            raise ScenarioValidationError("nu must be finite and nonnegative")

    def mean(self, n):
        return self.rho_rule.rho(n)

    def one_minus_rho(self, n):
        return self.rho_rule.one_minus_rho(n)

    def params(self, ns):
        """Closed-form parameters of G_n; maps over arrays of generations."""
        return self._params(self.rho_rule.one_minus_rho(ns))

    def deriv_at_1(self, n, s: int):
        """s-th derivative of G_n at 1; maps over arrays of generations, a
        scalar n gives a float."""
        if s < 1:
            raise ValueError("derivative order must be >= 1")
        vals = self.mean(n) if s == 1 else self._higher_deriv(n, s)
        return float(vals) if np.ndim(n) == 0 else np.asarray(vals, dtype=float)

    def pgf_at(self, n, x):
        """G_n(x); convex, nondecreasing, G_n(1) = 1.

        Arrays of generations and points broadcast against each other;
        scalar n and x give a float.
        """
        xs = np.asarray(x, dtype=float)
        if not np.all((0.0 <= xs) & (xs <= 1.0)):
            raise ValueError("PGF argument must lie in [0, 1]")
        vals = self.pgf_formula(self.params(n), xs)
        return float(vals) if np.ndim(vals) == 0 else vals

    def pmf(self, n, k_trunc: int):
        """Coefficients of G_n truncated at ``k_trunc``.

        A scalar n gives a :class:`pgf.Pmf`; an array of generations gives
        a :func:`pgf.coeff_table` with one row per generation, from one
        ``params`` call. The scalar is the one-row case of the same table.
        """
        raw = self._rows(np.atleast_1d(n), k_trunc)
        return raw if np.ndim(n) else pgf.Pmf(raw[0])

    def _rows(self, ns, k_trunc: int) -> np.ndarray:
        # the parameters are the coefficients
        return pgf.coeff_table(np.stack(self.params(ns), axis=1)[:, :k_trunc])

    def compose_back(self, ns, g, k_trunc: int, pieces):
        """Apply the maps of generations ``ns`` (ascending) to series, last
        generation first, in pieces; polynomial kinds only.

        ``pieces`` holds the row bounds (lo, hi) of consecutive pieces that
        cover ``ns``: the top piece is applied to the series ``g``, every
        other piece to the identity x. Returns ``(maps, outs)``:
        maps[i] = G_{ns[i]+1} o ... o G_{top of its piece} o (g or x), so
        the top row of a piece holds g or x itself; and
        outs[p] = G_{ns[lo]} o maps[lo] for piece p = (lo, hi), the whole
        piece composed. Each G_n is its ``pmf`` row truncated at
        ``k_trunc``, without the block's all-zero top columns. Under rows of
        width 2 an affine ``g`` stays affine, and one segmented scan
        composes the (p0, p1) pairs of all pieces into 2-wide maps.
        Otherwise every series is ``k_trunc`` wide, g and x zero-padded
        from a piece's first generation on, and G_n is applied by Horner
        with one short product per degree above 1 on one pad per block
        (``pgf._short_products``), which forms only the kept coefficients.
        Rows narrower than 3 are zero-padded to 3 once per block, so a row
        of degree at most 1 takes the same Horner steps with p2 = 0, which
        adds only exact zeros. Every term is a sum of products of
        nonnegative coefficients, so nothing below ``k_trunc`` is lost.
        """
        rows = self.pmf(ns, k_trunc)
        # a zero top column (quadratic with nu = 0) would only add degree
        used = np.flatnonzero(rows.any(axis=0))
        rows = rows[:, : used[-1] + 1 if used.size else 1]
        if rows.shape[1] <= 2 and g.shape[0] <= 2:
            return _affine_scan(rows, g, pieces, min(2, k_trunc))
        if rows.shape[1] < 3:
            rows = np.pad(rows, ((0, 0), (0, 3 - rows.shape[1])))
        maps = np.zeros((rows.shape[0], k_trunc))
        coefs = rows.tolist()
        tail, times = pgf._short_products(k_trunc)
        x = np.eye(1, k_trunc, 1)[0]
        g = np.append(g, np.zeros(k_trunc - g.shape[0]))
        outs = []
        for lo, hi in pieces[::-1]:
            for i in range(hi - 1, lo - 1, -1):
                p = coefs[i]
                maps[i] = g
                # Horner on g: p_d g + p_{d-1} formed in the pad's tail, then
                # one short product by g per lower coefficient
                rev = g[::-1]
                np.multiply(g, p[-1], out=tail)
                tail[0] += p[-2]
                for c in p[-3:0:-1]:
                    tail[:] = times(rev)
                    tail[0] += c
                g = times(rev)
                g[0] += p[0]
            outs.append(g)
            g = x
        return maps, outs[::-1]

    def map_width(self, k_trunc: int) -> int:
        """Columns of the composed maps of one block of ``engine._sweep``,
        at most: ``k_trunc``, or 2 for a kind whose ``pmf`` rows are 2 wide
        at every generation, which :meth:`compose_back` keeps affine. A
        kind whose rows only happen to be 2 wide (a custom table) is still
        composed affinely, in a block sized for ``k_trunc``."""
        return k_trunc

    def _block_maps(self, spec, tops, k_trunc: int) -> Callable:
        """f(ns, g, pieces) -> (maps, outs) of one block of ``engine._sweep``:
        :meth:`compose_back` onto the series g the sweep carries down."""
        return lambda ns, g, pieces: self.compose_back(ns, g, k_trunc, pieces)

    def _draw(self, plan, counts, states, rng):
        """(row, children, count) cells of a finite law by its plan
        (:func:`_peel_plans`): one :func:`_binomial_cells` split of the
        parents left per stage, and the children mode * s plus each stage's
        step times the rest."""
        mode, ps, steps, stages = plan
        row, left, cnt = _binomial_cells(counts, states, ps[0], rng)
        kids = mode * states[row] + steps[0] * left
        for j in range(1, stages):
            cell, left, cnt = _binomial_cells(cnt, left, ps[j], rng)
            row, kids = row[cell], kids[cell] + steps[j] * left
        return row, kids, cnt

    def _check(self) -> None:
        """The first hard check of :meth:`ScenarioSpec.validate`."""

    def _notes(self) -> list[str]:
        return []


@dataclass(frozen=True)
class QuadraticOffspring(OffspringFamily):
    """Degree-2 polynomial, params (p0, p1, p2), with G_n''(1) = nu (1 - rho_n)
    capped at rho_n by the window of :func:`_quadratic_g2`."""

    kind = "quadratic"
    rho_rule: RhoRule
    nu: float = 0.0
    pgf_formula = staticmethod(_quadratic_pgf)

    def _params(self, delta):
        return _quadratic_params(delta, self.nu)

    def map_width(self, k_trunc: int) -> int:
        # nu = 0 sets p2 = 0 at every generation (Bernoulli too)
        return min(2, k_trunc) if self.nu == 0.0 else k_trunc

    def _higher_deriv(self, n, s: int):
        if s == 2:
            return _quadratic_g2(self.one_minus_rho(n), self.nu)
        return np.zeros(np.shape(n))

    def start_offset(self) -> int:
        """First generation whose parameters are not window-clamped, by the
        test of :func:`_quadratic_g2`; 1 - rho_n decreases to 0, so the test
        holds from one generation on, which doubling and bisection find."""

        def opened(n: int) -> bool:
            delta = float(self.rho_rule.one_minus_rho(n))
            return self.nu * delta <= 1.0 - delta

        lo, hi = 0, 1  # opened(hi), and lo = 0 or not opened(lo)
        while not opened(hi):
            if hi == 2**1023:  # the next generation is beyond the float range
                raise NumericError("quadratic window stays clamped beyond n = 2^1023")
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if opened(mid) else (mid, hi)
        return hi

    def _notes(self) -> list[str]:
        start = self.start_offset()
        note = f"quadratic window clamps generations below n={start}"
        return [note] if start > 1 else []

    def _sample_params(self, ns) -> list:
        # (p0, p1, p2) from the unrounded 1 - rho_n; p2 = 0 for Bernoulli
        p = _quadratic_params(self.one_minus_rho(ns), self.nu)
        return _peel_plans(np.stack(p, axis=1))


@dataclass(frozen=True)
class BernoulliOffspring(QuadraticOffspring):
    """G_n(x) = 1 - rho_n + rho_n x, params (1 - rho_n, rho_n): the quadratic
    law with nu = 0, sampled from the same (p0, p1, p2), and its composed
    maps are affine."""

    kind = "bernoulli"
    composes_lf = True
    pgf_formula = staticmethod(_polynomial_pgf)

    def __post_init__(self):
        super().__post_init__()
        if self.nu != 0.0:
            raise ScenarioValidationError("Bernoulli offspring forces nu = 0")

    def _params(self, delta):
        rho = 1.0 - delta
        return 1.0 - rho, rho


@dataclass(frozen=True)
class LinearFractionalOffspring(OffspringFamily):
    """LF map with G_n''(1) = nu (1 - rho_n), params (alpha, beta) checked
    by :func:`linfrac.lf_alpha_beta`; its ``pmf`` rows hold
    p_0 = 1 - alpha/(1 - beta) and p_k = alpha beta^(k-1)."""

    kind = "linear_fractional"
    rho_rule: RhoRule
    nu: float = 0.0
    composes_lf = True
    pgf_formula = staticmethod(lf_value)

    def _params(self, delta):
        return lf_alpha_beta(1.0 - delta, self.nu * delta)

    def _higher_deriv(self, n, s: int):
        # G_n''(1) is the rule value, which the parameters carry to rounding
        if s == 2:
            return self.nu * self.one_minus_rho(n)
        return lf_deriv_at_1(self.params(n), s)

    def _rows(self, ns, k_trunc: int) -> np.ndarray:
        return lf_coeffs(*self.params(ns), k_trunc)

    def _block_maps(self, spec, tops, k_trunc: int) -> Callable:
        # Gbar_{j+1,b} in closed form for every interval, from one
        # interval_params; the series carried down is not needed
        alpha, beta = interval_params(spec, tops)
        # the cohort of a target b meets the identity Gbar_{b+1,b}
        cohort_alpha, cohort_beta = alpha.copy(), beta.copy()
        cohort_alpha[tops], cohort_beta[tops] = 1.0, 0.0

        def block(ns, g, pieces):
            bottoms = [int(ns[0]) - 1 + lo for lo, _ in pieces]
            return (lf_coeffs(cohort_alpha[ns], cohort_beta[ns], k_trunc),
                    list(lf_coeffs(alpha[bottoms], beta[bottoms], k_trunc)))

        return block

    def _check(self) -> None:
        if self.rho_rule.rho(1) <= 0.0:
            raise ScenarioValidationError("offspring.rho gives rho_1 = 0, which "
                                          "linear-fractional offspring cannot take")
        # beta_n = d2/(2 d1 + d2), (d1, d2) = (rho_n, nu (1 - rho_n)), is
        # largest and alpha_n = 4 d1^3/(2 d1 + d2)^2 smallest at n = 1
        delta = float(self.one_minus_rho(1))
        d1, d2 = 1.0 - delta, self.nu * delta
        if not (d2 / (2.0 * d1 + d2) < 1.0 and 4.0 * d1**3 / (2.0 * d1 + d2)**2 > 0.0):
            raise ScenarioValidationError(
                f"offspring.nu = {self.nu:g} rounds G_1 to beta = 1 or alpha = 0, "
                "no linear-fractional law")

    def _sample_params(self, ns) -> list:
        # (1 - rho_n, beta_n): the childless probability comes from the
        # unrounded 1 - rho_n, never from 1 - alpha/(1 - beta)
        delta = self.one_minus_rho(ns)
        return list(zip(delta.tolist(), self._params(delta)[1].tolist()))

    def _draw(self, par, counts, states, rng):
        delta, beta = par
        # G_n(0) = delta (2 rho + nu)/(2 rho + nu delta)
        rho = 1.0 - delta
        childless = delta * (2.0 * rho + self.nu) / (2.0 * rho + self.nu * delta)
        row, dead, cnt = _binomial_cells(counts, states, childless, rng)
        alive = states[row] - dead
        # a parent with children has more than one with probability beta,
        # and then Geometric(1 - beta) more: m such parents add m plus a
        # NegativeBinomial(m, 1 - beta) count of extra children
        cell, more, cnt = _binomial_cells(cnt, alive, beta, rng)
        out = _split(cnt, lambda y: _nb_hazard(more, beta, y), rng)
        kids = (alive[cell] + more)[:, None] + np.arange(out.shape[1])
        return row[cell][:, None], kids, out


@dataclass(frozen=True)
class CustomOffspring(OffspringFamily):
    """User PMF table per n, the polynomial sum_k p_k(n) x^k, with no rho
    rule: it has no file form and no product law."""

    kind = "custom"
    rho_rule = None
    pgf_formula = staticmethod(_polynomial_pgf)
    table: Callable[[int], np.ndarray] | None = None

    def __post_init__(self):
        if self.table is None:
            raise ScenarioValidationError("custom offspring needs a PMF table")

    def mean(self, n):
        return self._higher_deriv(n, 1)

    def one_minus_rho(self, n):
        return 1.0 - self.mean(n)

    def params(self, ns):
        """The table's coefficients (p_0, ..., p_d), each row zero-padded to
        the widest row; an empty ``ns`` gives one zero column."""
        ns = np.asarray(ns)
        rows = [np.asarray(self.table(int(m)), dtype=float) for m in ns.flat]
        raw = np.zeros((ns.size, max((r.shape[0] for r in rows), default=1)))
        for row, r in zip(raw, rows):
            row[: r.shape[0]] = r
        return tuple(col.reshape(ns.shape) for col in raw.T)

    def _higher_deriv(self, n, s: int):
        """s-th factorial moment of the table at generations ``n``.

        One array operation on the ``params`` columns, validated as one
        :func:`pgf.coeff_table`; maps over arrays, a scalar n gives a float.
        """
        cols = self.params(n)
        table = np.stack(cols, axis=-1).reshape(-1, len(cols))
        if table.size:
            table = pgf.coeff_table(table)
        moments = pgf.factorial_moment(table, s)
        return moments.reshape(np.shape(n)) if np.ndim(n) else float(moments[0])

    def _sample_params(self, ns) -> list:
        return _peel_plans(_sampling_probs(np.stack(self.params(ns), axis=1)))


def _split(counts: np.ndarray, hazard: Callable, rng: np.random.Generator) -> np.ndarray:
    """out[i, k]: how many of ``counts[i]`` independent draws take the value k,
    for the unbounded laws (Poisson immigrants, negative binomial extras).

    ``hazard(k)`` is P(X = k | X >= k), a scalar or one value per row. The
    values are visited in increasing order, each taking a Binomial share of
    the draws still left (the conditional-binomial method; Davis, CSDA 16,
    1993), until no draw is left, so nothing is truncated. A bounded law is
    one ``rng.multinomial`` draw instead (:func:`_mode_last`).
    """
    left = np.array(counts, dtype=np.int64)
    cols = []
    while left.any():
        cols.append(rng.binomial(left, hazard(len(cols))))
        left -= cols[-1]
    return np.array(cols or [left]).T


def _mode_last(probs: np.ndarray):
    """(table, perm): the rows of ``probs`` normalized in place to sum 1,
    each row's most likely value swapped into the last column, and that
    swap: column c of row i holds value perm[i, c], and perm, its own
    inverse, takes a draw's columns back to values.

    ``rng.multinomial`` over the table runs the conditional binomials of
    :func:`_split` in C: value k takes a Binomial share, of probability
    p_k/(1 - sum_{i<k} p_i), of the draws left. With the mode last that
    remainder never falls below p_max >= 1/S over S values, so no
    conditional probability comes from cancellation or rounds above 1.
    """
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    mode = probs.argmax(axis=-1)
    width = probs.shape[-1]
    rows = np.arange(probs.shape[0])
    perm = np.arange(width)[None, :].repeat(rows.shape[0], axis=0)
    perm[rows, mode] = width - 1
    perm[:, -1] = mode
    return probs[rows[:, None], perm], perm


def _binomial_cells(counts: np.ndarray, sizes: np.ndarray, p: float,
                    rng: np.random.Generator):
    """(row, events, count): the nonzero cells of one binomial stage, in
    which ``count`` of the ``counts[row]`` trajectories, each of
    ``sizes[row]`` units, have exactly ``events`` units with an event of
    probability p. Cells come ordered by row, then by the count of the
    rarer outcome, q = min(p, 1 - p); a caller passes whichever of p and
    1 - p it has unrounded.

    The Binomial(sizes[i], q) weights relative to k = 0,
    prod_{l<k} (s - l) q / ((l + 1)(1 - q)), are summed in logs and scaled
    by their maximum over k, so no size overflows or vanishes; a factor
    s - l <= 0 is log 0 = -inf, which every later k keeps, so the values
    beyond s get weight 0 without a mask. One ``rng.multinomial`` draw over
    their :func:`_mode_last` table splits every row, its most likely k last.
    """
    q = 1.0 - p if p > 0.5 else p
    if q == 0.0:
        out, k = counts[:, None], np.zeros((sizes.shape[0], 1), dtype=np.intp)
    else:
        ls = np.arange(int(sizes.max(initial=0)) + 1)
        logw = np.zeros((sizes.shape[0], ls.shape[0]))
        factors = logw[:, 1:]
        np.multiply(np.maximum(sizes[:, None] - ls[:-1], 0), q / (1.0 - q) / ls[1:],
                    out=factors)
        with np.errstate(divide="ignore"):
            np.log(factors, out=factors)
        np.add.accumulate(logw, axis=1, out=logw)
        logw -= np.maximum.reduce(logw, axis=1, keepdims=True)
        table, k = _mode_last(np.exp(logw, out=logw))
        out = rng.multinomial(counts, table)
    # the swap k takes the draw's columns back to value order
    out = out[np.arange(out.shape[0])[:, None], k]
    row, k = out.nonzero()
    return row, (sizes[row] - k if p > 0.5 else k), out[row, k]


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
    """The rows of ``table`` normalized to sum 1, if none misses mass."""
    total = np.add.reduce(table, axis=-1, keepdims=True)
    if total.min(initial=1.0) < 1.0 - 1e-9:
        raise NumericError(
            f"cannot sample a law missing {1.0 - total.min():.3e} mass; "
            "raise the table support"
        )
    return table / total


def _peel_plans(probs: np.ndarray) -> list:
    """(mode, ps, steps, stages) of :meth:`OffspringFamily._draw` per row of
    ``probs``: the values ranked most likely first (ties to the larger), and
    one stage per positive value after the mode (at least one), which splits
    the value before it from the rest at ps[j]: the rest's mass, summed from
    the smallest, over the mass left (at the first stage the rest's mass
    alone, 1 - rho_n for Bernoulli), so a rare rest is drawn at its rate.
    The value split off holds 1/m of the mass left over m values, so
    ps[j] <= 1 - 1/m; steps[j] is the next value minus it."""
    padded = np.zeros((probs.shape[0], probs.shape[1] + 1))  # a point mass has a stage too
    padded[:, :-1] = probs
    least = padded.argsort(axis=1, kind="stable")  # ties: the smaller value first
    rest = padded[np.arange(padded.shape[0])[:, None], least].cumsum(axis=1)[:, -2::-1]
    p = rest.copy()
    p[:, 1:] /= np.maximum(rest[:, :-1], np.finfo(float).tiny)  # 0/0 past the stages
    stages = np.maximum((probs > 0.0).sum(axis=1) - 1, 1).tolist()
    return list(zip(least[:, -1].tolist(), p.tolist(), np.diff(least[:, ::-1]).tolist(),
                    stages))


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

# the moment-ratio rule of a named base whose cut at ``immigration.support``
# would make its limit a finite compound Poisson: log_two has f_l = (l - 1)!
BASE_RULES = {"log_two": "log_series"}


RATE_RULES = ("declared", "clamped")


class ImmigrationFamily(metaclass=_ByName):
    """Immigration law per generation: one frozen dataclass per kind, which
    takes only the fields it reads and is named ``kind`` in scenario files.

    Every kind's mean is its m1 rule, and its ``_draw`` splits the occupied
    states into cells (see :func:`engine._histograms`).
    The base serves the mixtures toward a fixed base law B,
    H_n = 1 + w_n (B - 1) with w_n = m_{n,1}/B'(1) so the mean matches the
    m1 rule; Poisson immigration overrides what differs.

    Mixture weights follow one of two rules (:data:`RATE_RULES`): the
    product law uses the declared weights; the finite-n routes (PMFs,
    sampling, and their PGF oracles) need probabilities, so there each
    mixture's ``_clamp`` caps or rejects weights above 1.
    """

    role = "immigration"
    # the named base law of a custom mixture, which the file form reads
    base = base_name = None

    def _set_base(self, coeffs) -> None:
        # the validated base law and its mean, built once
        law = pgf.Pmf(np.asarray(coeffs))
        object.__setattr__(self, "base_law", law)
        object.__setattr__(self, "base_mean", pgf.factorial_moment(law, 1))

    def mean(self, n):
        """Declared m_{n,1} straight from the rule (never clamped)."""
        return self.m1.at(n)

    def weight(self, ns, rates: str):
        """Mixture weights w_n = m_{n,1}/B'(1) under the named rule."""
        if rates not in RATE_RULES:
            raise ValueError(f"unknown rate rule {rates!r}")
        w = self.m1.at(ns) / self.base_mean
        if rates == "declared" or (w <= 1.0).all():
            return w
        return self._clamp(w, ns)

    def factorial_moment_at(self, n, k: int):
        """m_{n,k} = H_n^(k)(1); maps over arrays of generations, a scalar n
        gives a float."""
        vals = self.weight(n, "declared") * pgf.factorial_moment(self.base_law, k)
        return float(vals) if np.ndim(n) == 0 else vals

    def limit_atoms(self, lam: float) -> np.ndarray | str:
        """Atoms mu{1}, ... of the compound Poisson limit at lambda = ``lam``
        and nu = 0, :func:`limits.cp_limit_atoms` on the base law, or the
        rule of a named base in :data:`BASE_RULES`."""
        if self.base_name in BASE_RULES:
            return BASE_RULES[self.base_name]
        from .limits import cp_limit_atoms  # limits imports this module
        return cp_limit_atoms(self.base_law.coeffs, lam, self.base_mean)

    def lambda_ratios(self, lam: float) -> tuple[float, ...] | str:
        """lambda_l = lim m_{n,l}/(l (1 - rho_n)) for lambda_1 = ``lam``, as
        (lambda_1, ..., 0) up to the first zero, or the name of a rule: the
        factorial moments lambda_l = sum_{i>=l} i(i-1)...(i-l+1) mu{i} of
        the :meth:`limit_atoms`, sums of positive terms (one beyond the
        float range reads inf)."""
        atoms = self.limit_atoms(lam)
        if isinstance(atoms, str):
            return atoms
        # the tails never grow: the atoms are positive up to B's degree; each
        # sum runs over i >= l, so an overflowed (i)_l never meets a zero
        a = np.trim_zeros(atoms, "b")
        i = np.arange(1.0, a.shape[0] + 1)
        falling, ratios = i, []
        with np.errstate(over="ignore"):
            for l in range(1, a.shape[0] + 1):
                ratios.append(float(falling @ a[l - 1:]))
                falling = falling[1:] * (i[l:] - l)
        return (*ratios, 0.0) if ratios else (0.0, 0.0)  # lambda = 0: (0, 0)

    def pgf_values(self, ns, xs, rates: str) -> np.ndarray:
        """H_n(x) at generations ``ns`` and matching points ``xs``.

        ``rates`` names the weight rule, "declared" or "clamped".
        """
        base = _polynomial_pgf(self.base_law.coeffs, xs)
        return 1.0 + self.weight(ns, rates) * (base - 1.0)

    def pmf(self, n, k_trunc: int):
        """Coefficients of H_n truncated at ``k_trunc``, at the clamped rates.

        A scalar n gives a :class:`pgf.Pmf`; an array of generations gives
        a :func:`pgf.coeff_table` with one row per generation, from one
        ``m1.at`` or ``weight`` call. The scalar is the one-row case of the
        same table.
        """
        raw = self._rows(np.atleast_1d(n), k_trunc)
        return pgf.coeff_table(raw) if np.ndim(n) else pgf.Pmf(raw[0])

    def _rows(self, ns, k_trunc: int) -> np.ndarray:
        w = self.weight(ns, "clamped")
        raw = w[:, None] * self.base_law.coeffs[:k_trunc]
        raw[:, 0] += 1.0 - w
        return raw

    def cohort_product(self, ns, maps, k_trunc: int, pieces):
        """prod_i H_{ns[i]}(maps[i]) over each piece, truncated at
        ``k_trunc``, at the clamped rates; ``maps`` holds one coefficient
        series per generation.

        ``pieces`` holds the row bounds (lo, hi) of consecutive pieces that
        cover the rows, and the list of the pieces' products comes back;
        the terms are built once for all rows.

        * a mixture over affine maps g0 + g1 x and a base law wider than 2:
          H = 1 - w + w B, with B(g0 + g1 x) for all rows from one matrix
          product (:func:`pgf.affine_compose`) on the base law truncated at
          k_trunc;
        * otherwise the ``pmf`` rows I_n applied to the maps: I_n0 + I_n1 g
          for Bernoulli, :func:`pgf.compound` for wider rows.

        :func:`pgf.product` then multiplies the cohort series of each piece.
        All terms are nonnegative. Poisson immigration has its own route.
        """
        terms = None
        if maps.shape[1] <= 2 < self.base_law.coeffs.shape[0]:
            wide = pgf.affine_compose(self.base_law.coeffs[:k_trunc], maps)
            if wide is not None:
                w = self.weight(ns, "clamped")
                terms = w[:, None] * wide
                terms[:, 0] += 1.0 - w
        if terms is None:
            rows = self.pmf(ns, k_trunc)
            if rows.shape[1] == 2:
                terms = rows[:, 1:] * maps
                terms[:, 0] += rows[:, 0]
            else:
                terms = [pgf.compound(r, g, k_trunc) for r, g in zip(rows, maps)]
        return pgf.product(terms, k_trunc, pieces)

    def term_width(self, map_width: int, k_trunc: int) -> int:
        """Columns of the cohort terms that :meth:`cohort_product` builds
        over maps ``map_width`` wide: those of the maps or of the base law
        cut at ``k_trunc``, whichever is wider (a base law too wide for
        float binomials, see :func:`pgf.affine_compose`, gives
        ``k_trunc``-wide terms, in blocks of MIN_BLOCK anyway)."""
        return max(map_width, min(self.base_law.coeffs.shape[0], k_trunc))

    def _chi(self, u: float) -> float:
        """chi(u) = u - psi(u) of the product law's bracket, where
        H_j(1 - u) = 1 - m_{j,1} psi(u) (README.md): 0 where psi(u) = u
        (Bernoulli) or log H_j is exact (Poisson)."""
        return 0.0

    def _log_slack(self, m: float, v: float) -> float:
        # -(log(1 - m_j psi) + m_j psi) <= m_j (this) for psi <= v, m_j <= m
        return m * v * v / (2 * (1 - m * v)) if m * v < 1 else math.inf

    def _sample_params(self, ns) -> list:
        """What ``_draw`` reads at each generation of ``ns``, from one array
        call for a block: the weight at the clamped rates, the base law's
        :func:`_mode_last` table over its positive values, and value 0 and
        those values."""
        table, perm = _mode_last(_sampling_probs(self.base_law.coeffs)[None, :])
        live = table[0] > 0.0
        base = table[0][live], np.append(0, perm[0][live])
        return [(w, base) for w in self.weight(ns, "clamped").tolist()]

    def _draw(self, par, counts, rng):
        # the weight's binomial, then the base law in one multinomial draw;
        # a one-value base (Bernoulli's point mass at 1) needs no draw
        w, (table, values) = par
        mixed = rng.binomial(counts, w)
        out = np.empty((counts.shape[0], values.shape[0]), dtype=np.int64)
        out[:, 0] = counts - mixed
        out[:, 1:] = rng.multinomial(mixed, table) if table.shape[0] > 1 else mixed[:, None]
        return values, out

    def _notes(self) -> list[str]:
        return []


@dataclass(frozen=True)
class PoissonImmigration(ImmigrationFamily):
    """H_n(x) = exp{m_{n,1}(x - 1)}; no weight rule applies."""

    kind = "poisson"
    m1: PowerSum

    def factorial_moment_at(self, n, k: int):
        vals = np.asarray(self.m1.at(n), dtype=float) ** k
        return float(vals) if np.ndim(n) == 0 else vals

    def limit_atoms(self, lam: float) -> np.ndarray:
        # B(x) = x: m_{n,2} = m_{n,1}^2 vanishes against 1 - rho_n
        return np.array([lam])

    def pgf_values(self, ns, xs, rates: str) -> np.ndarray:
        return np.exp(self.m1.at(ns) * (xs - 1.0))

    def _rows(self, ns, k_trunc: int) -> np.ndarray:
        return pgf.poisson_coeffs(self.m1.at(ns), k_trunc)

    def cohort_product(self, ns, maps, k_trunc: int, pieces):
        """The exponent sum_i m_i (maps_i - 1) of each piece: over affine
        maps it is A + lam x, with lam = sum_i m_i g1_i, and the product is
        e^(A + lam) times the Poisson(lam) coefficients; over wider maps it
        goes through one :func:`pgf.exp_series` per piece. The exponent's
        constant only scales the result."""
        m = self.m1.at(ns)
        if maps.shape[1] <= 2:
            lam, scale = np.zeros(len(pieces)), np.zeros(len(pieces))
            for p, (lo, hi) in enumerate(pieces):
                mp, gp = m[lo:hi], maps[lo:hi]
                lam[p] = float(mp @ gp[:, 1]) if maps.shape[1] == 2 else 0.0
                scale[p] = math.exp(float(mp @ (gp[:, 0] - 1.0)) + lam[p])
            out = list(scale[:, None] * pgf.poisson_coeffs(lam, k_trunc))
        else:
            out = []
            for lo, hi in pieces:
                expo = np.zeros(k_trunc)
                expo[: maps.shape[1]] = np.einsum("j,jl->l", m[lo:hi], maps[lo:hi])
                expo[0] = m[lo:hi] @ (maps[lo:hi, 0] - 1.0)
                out.append(pgf.exp_series(expo, k_trunc).coeffs)
        return out

    def term_width(self, map_width: int, k_trunc: int) -> int:
        return map_width  # no terms: the exponent combines the maps

    def _log_slack(self, m: float, v: float) -> float:
        return 0.0  # log H_j = -m_{j,1} u_j exactly

    def _sample_params(self, ns) -> list:
        return np.asarray(self.m1.at(ns), dtype=float).tolist()

    def _draw(self, lam, counts, rng):
        # conditional binomials over k until every trajectory is placed
        out = _split(counts, lambda k: _poisson_hazard(lam, k), rng)
        return np.arange(out.shape[1]), out


@dataclass(frozen=True)
class BernoulliImmigration(ImmigrationFamily):
    """The mixture toward B(x) = x, H_n(x) = 1 + m_{n,1}(x - 1); weights
    above 1 are clamped at 1 with a warning."""

    kind = "bernoulli"
    m1: PowerSum

    def __post_init__(self):
        self._set_base((0.0, 1.0))

    def _clamp(self, w, ns):
        warnings.warn(
            "Bernoulli immigration mean exceeds 1 for early generations; "
            "rate clamped (early-generation adjustment)",
            stacklevel=4,
        )
        return np.minimum(w, 1.0)

    def _notes(self) -> list[str]:
        m_first = float(self.mean(1))
        if m_first > 1.0:
            return [f"Bernoulli immigration mean {m_first:.4g} at n=1 exceeds 1; "
                    "PMF/sampling paths clamp it"]
        return []


@dataclass(frozen=True)
class CustomImmigration(ImmigrationFamily):
    """The mixture toward a declared base law, named in :data:`BASE_LAWS`
    when it has a file form; weights above 1 are rejected."""

    kind = "custom"
    m1: PowerSum
    base: tuple[float, ...] | None = None
    base_name: str | None = None

    def __post_init__(self):
        if self.base is None:
            raise ScenarioValidationError("custom immigration needs a base law")
        object.__setattr__(self, "base", tuple(float(v) for v in self.base))
        self._set_base(self.base)
        if not self.base_mean > 0.0:
            raise ScenarioValidationError("custom immigration needs a base law "
                                          "with a positive mean")

    def _clamp(self, w, ns):
        first = np.flatnonzero(~(np.ravel(w) <= 1.0))[0]
        raise ScenarioValidationError(
            f"mixture weight {np.ravel(w)[first]:.4g} at "
            f"n={np.ravel(ns)[first]} is not a probability"
        )

    def _chi(self, u: float) -> float:
        return u - (1.0 - pgf.evaluate(self.base_law, 1.0 - u)) / self.base_mean


# each family class by its ``<role>.family`` name in scenario files
FAMILIES = {
    "offspring": {cls.kind: cls for cls in (
        BernoulliOffspring, QuadraticOffspring, LinearFractionalOffspring, CustomOffspring)},
    "immigration": {cls.kind: cls for cls in (
        PoissonImmigration, BernoulliImmigration, CustomImmigration)},
}


def family_class(role: str, name: str) -> type:
    """The class that ``<role>.family = name`` names in a scenario file."""
    try:
        return FAMILIES[role][name]
    except KeyError:
        raise ScenarioValidationError(f"unknown {role} family {name!r}") from None


# ---------------------------------------------------------------------------
# scenario and limit-law dispatch


@dataclass(frozen=True)
class PoissonLimit:
    lam: float

    def describe(self) -> str:
        return f"Poisson lambda={self.lam:.17g}"


def cascade_fault(zero_at: int, idx: int) -> str:
    """The cascade rule's message for lambda_idx > 0 after lambda_zero_at = 0."""
    return (f"lambda_{idx} > 0 after lambda_{zero_at} = 0; "
            "a vanished moment ratio cannot reappear")


def lambda_seq_fault(lambdas) -> str | None:
    """Why ``lambdas`` cannot be the moment-ratio limits (lambda_1, ...,
    lambda_J) of a compound Poisson limit, or None: it needs two values or
    more, all finite and nonnegative, the last zero, and by the cascade
    rule none nonzero after a zero from lambda_2 on."""
    lam = [float(v) for v in lambdas]
    if len(lam) < 2:
        return "need at least (lambda_1, lambda_2=0)"
    if lam[-1] != 0.0:
        return "the final lambda must be zero"
    if not all(0.0 <= v < math.inf for v in lam):
        return "lambda values must be finite and nonnegative"
    zero_at = lam.index(0.0, 1) + 1
    for idx, v in enumerate(lam[zero_at:], start=zero_at + 1):
        if v != 0.0:
            return cascade_fault(zero_at, idx)
    return None


@dataclass(frozen=True)
class CompoundPoissonLimit:
    """The moment-ratio limits lambda_l and the atoms mu{i} they are the
    factorial moments of (:meth:`ImmigrationFamily.lambda_ratios`)."""

    lambdas: tuple[float, ...]
    atoms: tuple[float, ...]

    def describe(self) -> str:
        inner = ",".join(f"{v:.17g}" for v in self.lambdas)
        return f"CompoundPoisson lambda_seq=[{inner}]"


@dataclass(frozen=True)
class NegativeBinomialLimit:
    r: float
    p: float

    @classmethod
    def from_limits(cls, lam: float, nu: float) -> "NegativeBinomialLimit":
        """The target (r, p) = (2 lam/nu, nu/(2+nu)) of the limit constants
        lam > 0 and nu > 0; NumericError if it rounds to r = 0 or p = 1."""
        if lam <= 0:
            raise ValueError("lam must be positive")
        if nu <= 0:
            raise ValueError("nu must be positive; nu = 0 is the Poisson regime")
        target = cls(2.0 * lam / nu, nu / (2.0 + nu))
        if not (target.r > 0.0 and target.p < 1.0):
            raise NumericError(f"nu = {nu!r} against lambda = {lam!r} rounds the "
                               f"negative binomial limit to r = {target.r!r}, "
                               f"p = {target.p!r}")
        return target

    def describe(self) -> str:
        return f"NegativeBinomial r={self.r:.17g} p={self.p:.17g}"


@dataclass(frozen=True)
class GeneralExpLimit:
    """The compound Poisson limit of a named base law in :data:`BASE_RULES`,
    its atoms from the base's untruncated tails
    (:func:`limits.log_series_measure` for log_two)."""

    rule: str
    lam: float

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


class LimitConstants(NamedTuple):
    """The limit constants that the rules fix, None where they fix none: the
    divergence of sum(1 - rho_n), lambda = lim m_{n,1}/(1 - rho_n), nu =
    lim G_n''(1)/(1 - rho_n) and the ratios lambda_l."""

    divergent: bool | None = None
    lam: float | None = None
    nu: float | None = None
    ratios: tuple[float, ...] | str | None = None


def _agrees(declared, derived) -> bool:
    """Exactly for the divergence and a rule name; within 1e-9 relative for
    lambda, nu and each lambda_l, a sequence read with zeros past its end; a
    lambda_l beyond the float range (inf) agrees with none."""
    if isinstance(declared, (bool, str)) or isinstance(derived, str):
        return declared == derived
    a, b = (v if isinstance(v, (tuple, list)) else (v,) for v in (declared, derived))
    return all(math.isclose(x, y, rel_tol=1e-9) for x, y in zip_longest(a, b, fillvalue=0.0))


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one inhomogeneous process. ``lam``, ``nu``,
    ``divergent``, ``lambda_seq`` and ``lambda_rule`` are optional declared
    values, which only :meth:`validate` reads, against :meth:`constants`."""

    offspring: OffspringFamily
    immigration: ImmigrationFamily
    lam: float | None = None
    nu: float | None = None
    divergent: bool | None = None
    horizon: int = 1000
    k_trunc: int = 64
    lambda_seq: tuple[float, ...] | None = None
    lambda_rule: str | None = None
    name: str = "scenario"

    def __post_init__(self):
        if self.horizon < 0 or self.k_trunc < 1:
            raise ScenarioValidationError("horizon must be >= 0 and K >= 1")
        for key, v in (("limits.lambda", self.lam), ("limits.nu", self.nu)):
            if v is not None and not 0.0 <= v < math.inf:
                raise ScenarioValidationError(f"{key} = {v:g} must be finite and >= 0")
        if self.lambda_rule not in (None, *BASE_RULES.values()):
            raise ScenarioValidationError(f"unknown lambda rule {self.lambda_rule!r}")
        fault = None if self.lambda_seq is None else lambda_seq_fault(self.lambda_seq)
        if fault is not None:
            raise ScenarioValidationError(f"limits.lambda_seq: {fault}")

    def constants(self) -> LimitConstants:
        """Divergence is gamma <= 1 of the rho rule. When the sum diverges and
        m1 = a n^-p + ... decays no slower than 1 - rho_n = c (n + n0)^-gamma,
        lambda is a/c (p = gamma) or 0 (p > gamma), and nu the offspring's
        (0 for Bernoulli). A custom table has no rho rule and no constants."""
        rule = self.offspring.rho_rule
        if rule is None:
            return LimitConstants()
        p, a = self.immigration.m1.leading()
        if not rule.divergent_sum() or p < rule.gamma:
            return LimitConstants(rule.divergent_sum())
        lam = a / rule.c if p == rule.gamma else 0.0
        return LimitConstants(True, lam, self.offspring.nu,
                              self.immigration.lambda_ratios(lam))

    def validate(self) -> list[str]:
        """Hard checks raise, notes on clamped generations come back. Each
        declared limit constant must agree with the one the rules fix; one
        they do not fix is not read."""
        self.offspring._check()
        const = self.constants()
        checks = (("limits.divergent", self.divergent, const.divergent),
                  ("limits.lambda", self.lam, const.lam), ("limits.nu", self.nu, const.nu),
                  ("limits.lambda_seq", self.lambda_seq, const.ratios),
                  ("limits.lambda_rule", self.lambda_rule, const.ratios))
        for key, declared, derived in checks:
            if None not in (declared, derived) and not _agrees(declared, derived):
                raise ScenarioValidationError(f"{key} = {json.dumps(declared)} but the "
                                              f"rules give {json.dumps(derived)}")
        return self.immigration._notes() + self.offspring._notes()


def classify(spec: ScenarioSpec) -> LimitLaw:
    """Dispatch the scenario onto its limit law over the constants its rules
    fix (:meth:`ScenarioSpec.constants`). With lambda_2 = 0 it is NB(2
    lambda/nu, nu/(2 + nu)), or Poisson(lambda) when nu = 0 or lambda = 0
    (the point mass at 0); otherwise nu = 0 is needed, and the law is
    compound Poisson with the immigration's ``limit_atoms``, or the
    named-rule law."""
    divergent, lam, nu, ratios = spec.constants()
    if divergent is None:
        return OutsideScope("the offspring has no rho rule to fix the limit constants")
    if not divergent:
        if spec.immigration.m1.summable():
            return ProductLimit()
        return OutsideScope("sum(1-rho_n) < inf needs summable immigration means")
    if lam is None:
        return OutsideScope("immigration means decay slower than 1-rho_n: lambda = inf")
    if isinstance(ratios, str) or ratios[1] != 0.0:
        if nu != 0.0:
            return OutsideScope("nu > 0 requires second immigration moments o(1-rho)")
        if isinstance(ratios, str):
            return GeneralExpLimit(ratios, lam)
        return CompoundPoissonLimit(ratios, tuple(spec.immigration.limit_atoms(lam).tolist()))
    if nu == 0.0 or lam == 0.0:
        return PoissonLimit(lam)
    return NegativeBinomialLimit.from_limits(lam, nu)


@dataclass(frozen=True)
class ConditionRatios:
    """Hypothesis diagnostics at one generation."""

    m1_ratio: float
    m2_ratio: float
    g2_ratio: float
    g3_ratio: float
    partial_sum: float


def condition_ratios(spec: ScenarioSpec, n):
    """Per-n values of the moment ratios the limit-law hypotheses constrain.

    A scalar n gives one :class:`ConditionRatios`; an array of generations
    gives a tuple of them, entry i for generation n[i]. Each ratio is one
    array operation on the family moments at all the generations, and the
    partial sums of 1 - rho_j are taken over prefixes of one
    ``one_minus_rho`` call up to the largest, so the scalar is the one-row
    case of the same code.
    """
    ns = np.atleast_1d(np.asarray(n, dtype=int))
    if ns.min(initial=1) < 1:
        raise ValueError("generation index must be >= 1")
    top = int(ns.max(initial=0))
    one_minus = spec.offspring.one_minus_rho(np.arange(1, top + 1))
    off, imm = spec.offspring, spec.immigration
    delta = np.asarray(off.one_minus_rho(ns), dtype=float)
    # 1 - rho_n can underflow to 0: the IEEE quotient, inf or nan, says so
    with np.errstate(divide="ignore", invalid="ignore"):
        cols = (imm.factorial_moment_at(ns, 1) / delta,
                imm.factorial_moment_at(ns, 2) / delta,
                off.deriv_at_1(ns, 2) / delta,
                off.deriv_at_1(ns, 3) / delta,
                np.array([np.sum(one_minus[:k]) for k in ns.tolist()]))
    rows = tuple(ConditionRatios(*row) for row in zip(*(c.tolist() for c in cols)))
    return rows if np.ndim(n) else rows[0]
