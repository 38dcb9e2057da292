"""Truncated coefficient arithmetic for integer-valued probability laws.

A law on {0, 1, 2, ...} is held as a fixed-length vector of PMF
coefficients; mass beyond the truncation bound is tracked as an explicit
deficiency and never renormalized away (renormalizing would silently bias
total-variation distances). The same vector doubles as the truncated
coefficient list of the probability generating function, so convolution,
compounding and series exponentiation are ordinary power-series
operations on it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NotADistributionError, NumericError

# Negative values above this magnitude are genuine errors, below it they
# are roundoff and get clamped to zero.
NEGATIVE_CLAMP = 1e-12

# Mass overshoot tolerated before the coefficients are rejected outright.
_MASS_SLACK = 1e-9


def _clean(c: np.ndarray):
    """``c`` with roundoff negatives clamped, and its totals over the last axis.

    The minimum is taken first: once no entry is below the clamp, a nan or
    +inf entry makes its sum non-finite, and one sum per law checks both
    finiteness and mass. A nan in one row of a table hides a -inf in
    another from the minimum; that row then sums inf - inf to nan, which
    the same check rejects. The laws are summed again only when a roundoff
    negative was clamped.
    """
    worst = float(c.min())
    if worst < -NEGATIVE_CLAMP:
        raise NotADistributionError(
            f"negative coefficient {worst:.3e} exceeds the roundoff clamp"
        )
    with np.errstate(invalid="ignore"):
        total = c.sum(axis=-1)
    if not np.isfinite(total).all():
        raise NotADistributionError("coefficients must be finite")
    if worst < 0.0:
        c = np.where(c < 0.0, 0.0, c)
        total = c.sum(axis=-1)
    if (total > 1.0 + _MASS_SLACK).any():
        raise NotADistributionError(f"total mass {float(total.max())!r} exceeds 1")
    return c, total


def _clean_coeffs(raw) -> tuple[np.ndarray, float]:
    """Validated coefficient vector and its total mass.

    The input is always copied, so freezing the result never freezes an
    array the caller still owns.
    """
    c = np.array(raw, dtype=float, ndmin=1)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must form a non-empty 1-D vector")
    c, total = _clean(c)
    return c, float(total)


def coeff_table(raw) -> np.ndarray:
    """Validated table with one law per row, each checked as :class:`Pmf`
    checks one: the negative clamp, finiteness and mass at most 1 + slack.

    A table that :class:`Pmf` would reject in any row raises the same
    exception class; the rows need no further validation. Unlike
    :class:`Pmf` it does not copy: when no entry needed clamping, the
    result is ``raw`` itself (as a float array).
    """
    c = np.asarray(raw, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise ValueError("a coefficient table must be a non-empty 2-D array")
    return _clean(c)[0]


@dataclass(frozen=True)
class Pmf:
    """Truncated PMF with its lost tail mass tracked as ``deficiency``.

    ``coeffs[k]`` is P(X = k); ``deficiency = 1 - sum(coeffs)`` is the mass
    pushed beyond the truncation bound by earlier operations.
    """

    coeffs: np.ndarray
    deficiency: float = field(init=False)

    def __post_init__(self):
        c, total = _clean_coeffs(self.coeffs)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "deficiency", max(0.0, 1.0 - total))

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    @classmethod
    def delta(cls, k: int) -> "Pmf":
        """Point mass at ``k``."""
        if k < 0:
            raise ValueError("support point must be nonnegative")
        c = np.zeros(k + 1)
        c[k] = 1.0
        return cls(c)


def _coeffs(p) -> np.ndarray:
    return p.coeffs if isinstance(p, Pmf) else p


def _as_given(out: np.ndarray, first):
    """A validated :class:`Pmf` when the first operand was one, else the array."""
    return Pmf(out) if isinstance(first, Pmf) else out


def convolve(a, b, k_trunc: int):
    """Law of the sum of independent draws from ``a`` and ``b``.

    Coefficient k of the result is sum_{i+j=k} a_i b_j for k < k_trunc;
    everything beyond goes into the deficiency. The result always has
    exactly ``k_trunc`` coefficients. The operands are :class:`Pmf`s or
    coefficient vectors; the result is a :class:`Pmf` when ``a`` is one,
    and a plain vector, left unvalidated, when ``a`` is a vector.
    """
    if k_trunc <= 0:
        raise ValueError("truncation length must be positive")
    full = np.convolve(_coeffs(a), _coeffs(b))[:k_trunc]
    out = np.zeros(k_trunc)
    out[: full.shape[0]] = full
    return _as_given(out, a)


def _short_products(k: int):
    """``(tail, times)`` for a loop of products of series ``k`` wide, each
    forming only the k kept coefficients of np.convolve(a, b)[:k], the
    "short product" of Mulders (AAECC 11, 2000).

    ``tail`` is the last k entries of a zero-filled pad of length 2k - 1. A
    loop writes its series a into ``tail`` (or forms it there, as with
    ``np.multiply(..., out=tail)``), and ``times(r)``, r the other operand
    b reversed, correlates the pad with r: coefficient l is
    sum_j a_{l-j} b_j. Every operand of the propagation route is
    zero-padded to k, which adds only exact zeros. ``np.convolve`` forms
    all 2k - 1 coefficients and the slice drops k - 1 of them: this takes
    2.2 against 2.9 µs at k = 64, 4.3 against 5.8 µs at k = 128 and 9.9
    against 11.1 µs at k = 256 (NumPy 2.4, 2-core x86-64 Xeon). A loop that
    reverses its operands once makes one ``np.correlate`` per product and
    no Python frame.
    """
    pad = np.zeros(2 * k - 1)
    return pad[k - 1 :], functools.partial(np.correlate, pad)


@functools.lru_cache(maxsize=8)
def _binomials(w: int):
    """(B, idx): B[m, l] = C(l+m, l) where l + m < w and zero beyond, and
    idx[m, l] = min(l + m, w - 1); None when a binomial overflows the float
    range (w beyond ~1000)."""
    pascal = np.zeros((w, w))  # pascal[n, l] = C(n, l)
    pascal[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, w):
            pascal[n, 1:] = pascal[n - 1, 1:] + pascal[n - 1, :-1]
    if not np.isfinite(pascal).all():
        return None
    n = np.add.outer(np.arange(w), np.arange(w))
    idx = np.minimum(n, w - 1)
    binom = np.where(n < w, pascal[idx, np.arange(w)], 0.0)
    binom.setflags(write=False)
    idx.setflags(write=False)
    return binom, idx


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """out[i, m] = x[i]^m for m < count, by running products."""
    out = np.empty((x.shape[0], count))
    out[:, 0] = 1.0
    out[:, 1:] = x[:, None]
    return np.cumprod(out, axis=1, out=out)


def affine_compose(c, maps: np.ndarray):
    """Rows c(g0 + g1 x) for the affine maps g0 + g1 x held in ``maps``, the
    law ``c`` thinned and shifted, as wide as ``c``; None when the
    binomials overflow.

    c(g0 + g1 x)_l = g1^l sum_m c_{l+m} C(l+m, l) g0^m: one product of the
    Vandermonde matrix of g0 with the Hankel matrix c_{l+m} C(l+m, l) of
    :func:`_binomials`, all terms nonnegative.
    """
    c = np.asarray(c, dtype=float)
    tables = _binomials(c.shape[0])
    if tables is None:
        return None
    binom, idx = tables
    g1 = maps[:, 1] if maps.shape[1] > 1 else np.zeros(maps.shape[0])
    # einsum, not matmul: a threaded BLAS product of a block spends more
    # waking its thread pool (about 6 ms on 2 cores) than computing
    vander = np.einsum("jm,ml->jl", _powers(maps[:, 0], c.shape[0]), c[idx] * binom)
    return vander * _powers(g1, c.shape[0])


def compound(count, jump, k_trunc: int):
    """Law of a ``count``-indexed sum of i.i.d. ``jump`` draws.

    Coefficient view of composing the count PGF with the jump PGF:
    sum_k count_k * (jump pgf)^k, truncated at ``k_trunc``. Every count
    term up to the last nonzero one enters, however small; only exact
    trailing zeros are skipped.

    An affine jump g0 + g1 x (binomial thinning) gives the count law
    thinned by :func:`affine_compose`, one matrix-vector product, unless
    its binomials overflow. Otherwise the polynomial sum_{k<top} count_k J^k
    is evaluated by the
    baby-step/giant-step scheme of Paterson & Stockmeyer (SIAM J. Comput. 2,
    1973): with s = ceil(sqrt(top)), the powers J^0..J^s take s - 1
    convolutions, one matrix product forms the blocks
    B_b = sum_{i<s} count_{bs+i} J^i, and Horner in J^s combines them in
    ceil(top/s) - 1 more, each a short product (:func:`_short_products`) on
    the jump zero-padded to ``k_trunc``. Each output coefficient below
    ``k_trunc`` is a sum of products of nonnegative operands, so it carries
    only rounding error, relative to its own size, of a few ulps per
    operation on its path; the one loss is the mass beyond ``k_trunc``,
    which lands in the deficiency and is never renormalized.

    Operands and result follow :func:`convolve`: a :class:`Pmf` ``count``
    gives a validated :class:`Pmf` out, a vector gives a vector out.
    """
    if k_trunc <= 0:
        raise ValueError("truncation length must be positive")
    cw, j = _coeffs(count), _coeffs(jump)[:k_trunc]
    thinned = affine_compose(cw, j[None, :]) if j.shape[0] <= 2 else None
    if thinned is not None:
        out = np.zeros(k_trunc)
        out[: min(cw.shape[0], k_trunc)] = thinned[0, :k_trunc]
        return _as_given(out, count)
    nonzero = np.flatnonzero(cw)
    top = int(nonzero[-1]) + 1 if nonzero.size else 1
    s = math.isqrt(top - 1) + 1
    q = -(-top // s)
    tail, times = _short_products(k_trunc)
    powers = np.zeros((s + 1, k_trunc))  # J^0 .. J^s
    powers[0, 0] = 1.0
    powers[1, : j.shape[0]] = j
    rev = powers[1, ::-1].copy()
    for i in range(2, s + 1):
        tail[:] = powers[i - 1]
        powers[i] = times(rev)
    kept = np.zeros(q * s)
    kept[:top] = cw[:top]
    blocks = kept.reshape(q, s) @ powers[:s]
    giant = powers[s, ::-1].copy()
    out = blocks[q - 1]
    for b in range(q - 2, -1, -1):
        tail[:] = out
        out = times(giant) + blocks[b]
    return _as_given(out, count)


# rows at most this wide are multiplied pairwise while at least this many
# remain (see :func:`product`)
_PAIR_WIDTH, _PAIR_ROWS = 32, 16


def _pair_level(t: np.ndarray, k_trunc: int) -> np.ndarray:
    """Row i is t[2i] t[2i+1] truncated at ``k_trunc``, for an even number
    of rows: one einsum of each even row against the sliding windows of the
    zero-padded odd row after it, a read-only strided view of the pad."""
    h, w = t.shape[0] // 2, t.shape[1]
    ow = min(2 * w - 1, k_trunc)
    pad = np.zeros((h, w - 1 + ow), dtype=t.dtype)
    pad[:, w - 1 : w - 1 + min(w, ow)] = t[1::2, :ow]
    step_r, step_l = pad.strides
    win = as_strided(pad, (h, ow, w), (step_r, step_l, step_l), writeable=False)
    return np.einsum("ri,rli->rl", t[0::2, ::-1], win)


def product(terms, k_trunc: int, pieces):
    """Products of the series in the rows of ``terms``, one per piece,
    truncated at ``k_trunc`` and ``k_trunc`` wide: ``pieces`` holds the row
    bounds (lo, hi) of consecutive pieces from row 0 on, and each product
    is computed as that piece alone would be; a piece of no rows gives the
    series 1.

    While at least ``_PAIR_ROWS`` rows of pieces with two or more rows
    remain, none wider than ``_PAIR_WIDTH``, they are multiplied in pairs
    within their piece, all pairs of all pieces in one vectorized pass, so
    each level halves every piece and about doubles the width; a piece of
    odd length is first padded with the series 1, which moves no
    coefficient. The rest of each piece is multiplied into a running
    product, one short product per row (:func:`_short_products`): the
    rows zero-padded to ``k_trunc`` and reversed once, then per row one
    copy into the pad and one ``np.correlate``. A level of narrow rows is
    a few vectorized passes and saves one short product per pair, but its
    multiply-adds grow with the square of the width: 256 rows of width 2
    take 5 levels and 8 short products, while 64-wide rows take one short
    product each. Either way each coefficient is a sum of
    products of nonnegative operands, exact up to rounding.
    """
    t = np.asarray(terms, dtype=float)
    sizes = [hi - lo for lo, hi in pieces]

    def pairing() -> bool:
        return (t.shape[1] <= _PAIR_WIDTH
                and sum(z for z in sizes if z > 1) >= _PAIR_ROWS)

    if pairing():
        # the rows of one block are nearly equal, so a level rounds them
        # alike and doubles the rounding of the levels before it; in long
        # double that stays far below float64's own rounding
        t = t.astype(np.longdouble)
        while pairing():
            ends = [e for e, z in zip(itertools.accumulate(sizes), sizes) if z % 2]
            if ends:  # each odd piece gets the series 1 after its last row
                t = np.insert(t, ends, np.eye(1, t.shape[1]), axis=0)
            t = _pair_level(t, k_trunc)
            sizes = [(z + 1) // 2 for z in sizes]
    w = min(t.shape[1], k_trunc)
    # the rows zero-padded and reversed, back in float64
    rev = np.zeros((t.shape[0], k_trunc))
    rev[:, k_trunc - w :] = t[:, w - 1 :: -1]
    tail, times = _short_products(k_trunc)
    out, lo = [], 0
    for size in sizes:
        tail[:] = rev[lo, ::-1] if size else np.eye(1, k_trunc)[0]
        for i in range(lo + 1, lo + size):
            tail[:] = times(rev[i])
        out.append(tail.copy())
        lo += size
    return out


def evaluate(p: Pmf, x: float) -> float:
    """PGF value sum_k coeffs[k] x^k, Horner order from the highest index."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("PGF argument must lie in [0, 1]")
    return float(np.polyval(p.coeffs[::-1], x))


def factorial_moment(p, k: int):
    """k-th factorial moment sum_j j(j-1)...(j-k+1) coeffs[j].

    ``p`` is a :class:`Pmf` (a float out) or a table with one law per row
    (one moment per row); the law is the one-row case of the same sum.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    c = p.coeffs if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    j = np.arange(c.shape[-1], dtype=float)
    ff = np.ones_like(j)
    for i in range(k):
        ff *= j - i
    moments = np.sum(ff * c, axis=-1)
    return float(moments) if c.ndim == 1 else moments


def taylor_shift(c, a: float, k_trunc: int) -> np.ndarray:
    """First ``k_trunc`` coefficients of sum_l c_l (x + a)^l.

    Horner from the top coefficient: out <- (x + a) out + c_l, cut at
    ``k_trunc`` each time. Multiplying by (x + a) moves coefficient i only
    into i and i + 1, so a kept coefficient never depends on a cut one and
    the cost is O(len(c) k_trunc) (von zur Gathen & Gerhard, ISSAC 1997).
    a = 1 rewrites an x-basis series in the (x-1) basis, by sums of
    nonnegative terms when c >= 0; a = -1 is the inverse, with alternating
    signs.
    """
    if k_trunc <= 0:
        raise ValueError("truncation length must be positive")
    out = np.zeros(k_trunc)
    for cl in np.asarray(c, dtype=float)[::-1]:
        out[1:] = out[:-1] + a * out[1:]
        out[0] = a * out[0] + cl
    return out


def exp_series(a: np.ndarray, k_trunc: int) -> Pmf:
    """Coefficients of exp of a power series given in the x basis.

    Standard recurrence b_0 = e^{a_0}, n b_n = sum_{k=1..n} k a_k b_{n-k}.
    Raises :class:`NotADistributionError` if the result has a negative
    coefficient beyond the roundoff clamp.
    """
    if k_trunc <= 0:
        raise ValueError("truncation length must be positive")
    a = np.asarray(a, dtype=float)
    b = np.zeros(k_trunc)
    b[0] = math.exp(a[0])
    ka = np.arange(a.shape[0]) * a
    for n in range(1, k_trunc):
        m = min(n, a.shape[0] - 1)
        b[n] = np.dot(ka[1 : m + 1], b[n - 1 :: -1][:m]) / n
    if not np.all(np.isfinite(b)):
        raise NumericError("series exponentiation overflowed")
    return Pmf(b)


def poisson_coeffs(lam, k_trunc: int) -> np.ndarray:
    """Poisson(lam) coefficients, e^-lam times the running product of lam/k.

    An array of means gives one row per mean.
    """
    lams = np.asarray(lam, dtype=float)
    if (lams < 0).any():
        raise ValueError("Poisson mean must be nonnegative")
    if k_trunc <= 0:
        raise ValueError("truncation length must be positive")
    ratios = np.empty(lams.shape + (k_trunc,))
    ratios[..., 0] = np.exp(-lams)
    ratios[..., 1:] = lams[..., None] / np.arange(1.0, k_trunc)
    return np.cumprod(ratios, axis=-1, out=ratios)


def nb_coeffs(r: float, p: float, k_trunc: int) -> np.ndarray:
    """NB(r, p) coefficients, (1-p)^r times the running product of p (k+r)/(k+1)."""
    if k_trunc <= 0:
        raise ValueError("truncation length must be positive")
    ks = np.arange(k_trunc - 1.0)
    ratios = np.empty(k_trunc)
    ratios[0] = math.exp(r * math.log1p(-p))
    ratios[1:] = p * (ks + r) / (ks + 1.0)
    return np.cumprod(ratios)
