"""Reference implementations the tests check the library against.

Each one is a scalar or textbook form of a quantity the library computes
by another route: the LF composition by chain-rule derivatives, the LF
coefficients of one generation from its scalar parameters, the tail sum
of a power-sum rule with its error bound, a centered series by Horner,
the Faà di Bruno coefficient of f''(g), the chord slope vartheta, the
product law by explicit summation, the Poisson and negative binomial
coefficients by their step-by-step recurrences, the changes between the
x and (x-1) bases by binomial columns and alternating sums, the compound
Poisson atoms of a lambda rule and the general exponential law by the
alternating centered series cut for K columns, the general exponential
law by pointwise summation of its centered series, the
exponential companion of the product over composed maps, and the
derivatives at 1 of composed maps of any family by truncated
Taylor-series composition, with the limits of their sums; and, as a view
only, a family sampler's cells laid out as a dense matrix.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from nearcrit import engine, pgf
from nearcrit.errors import NumericError, ScenarioValidationError, SeriesDivergenceError
from nearcrit.families import cascade_fault, hurwitz_zeta
from nearcrit.limits import IntensityMeasure
from nearcrit.linfrac import chain_product, lf_alpha_beta, lf_deriv_at_1


def lf_compose(outer, inner) -> tuple[float, float]:
    """(alpha, beta) of outer(inner(.)) for LF parameter pairs, via
    chain-rule derivatives at 1."""
    d1o, d2o = lf_deriv_at_1(outer, 1), lf_deriv_at_1(outer, 2)
    d1i, d2i = lf_deriv_at_1(inner, 1), lf_deriv_at_1(inner, 2)
    return lf_alpha_beta(d1o * d1i, d2o * d1i**2 + d1o * d2i)


def lf_pmf_coeffs(par, k_trunc: int) -> np.ndarray:
    """p_0 = 1 - alpha/(1-beta), p_k = alpha beta^(k-1) for k >= 1, from
    par = (alpha, beta)."""
    alpha, beta = par
    out = np.zeros(k_trunc)
    out[0] = 1.0 - alpha / (1.0 - beta)
    if k_trunc > 1:
        out[1:] = alpha * beta ** np.arange(k_trunc - 1)
    return out


def tail_bound(rule, j: int) -> float:
    """sum_{n > j} of a summable ``PowerSum`` plus the error bound of
    ``hurwitz_zeta``."""
    if not rule.summable():
        raise ScenarioValidationError("tail bound needs all exponents > 1")
    return sum(t.coef * sum(hurwitz_zeta(t.power, j + 1 + t.shift))
               for t in rule.terms)


def centered_value(c, x: float) -> float:
    """The series sum_l c[l] (x-1)^l at ``x``: Horner in the shifted variable
    x - 1."""
    return float(np.polyval(np.asarray(c)[::-1], x - 1.0))


def sample_dense(fam, n: int, h: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """out[s, t]: how many of the h[s] trajectories in state s draw t in
    generation ``n``, children in total or immigrants: the family's
    ``_draw`` over the occupied states, as ``engine._histograms`` makes it.
    """
    states = np.flatnonzero(h)
    par = fam._sample_params(np.array([n]))[0]
    if fam.role == "offspring":
        row, value, cnt = fam._draw(par, h[states], states, rng)
        row = states[row]
    else:
        value, cnt = fam._draw(par, h[states], rng)
        row = states[:, None]
    row, value, cnt = np.broadcast_arrays(row, value, cnt)
    live = cnt > 0
    out = np.zeros((h.shape[0], int(value[live].max(initial=0)) + 1), dtype=np.int64)
    np.add.at(out, (row[live], value[live]), cnt[live])
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


# error of product_law_bruteforce at tol 1e-9 on the thm6_example1 copies
# with n0 = 1 and nu <= 1 (tests/test_product_law.py): there its
# extrapolants stop moving by 1e-10 at H <= 2^10, and they agree with the
# library at tol 1e-12 to 5e-12
BRUTEFORCE_ERROR = 1e-10


def product_law_bruteforce(spec, x: float, tol: float,
                           horizon_cap: int = 1 << 20) -> float:
    """Product law g(x) by explicit summation of its log factors.

    H_j(y) = exp(-m_{j,1} psi(y)) with psi(y) = 1 - y for Poisson
    immigration, and 1 - m_{j,1} psi(y) with psi(y) = (1 - B(y)) / B'(1)
    for a mixture toward a base law B; each log factor is formed from
    m_{j,1} psi, never from a rounded H_j near 1. rho_[j,inf] comes from a
    prefix to D = max(2^20, 2 horizon_cap) plus the midpoint-rule integral
    of the rest of -log(1 - d) = d + d^2/2 + ...

    With v = 1 - x, log g_0 takes every factor j <= D at the second-order
    start 1 - rho_[j,inf] v / (1 + C_j v), C_j = nu (1 - rho_[j,inf]) / 2,
    which is exact for affine maps (nu = 0), and those beyond D at first
    order, -psi(x) sum_{j>D} m_{j,1}. log g_H takes the factors j <= H over
    maps composed from that start at H instead. Linear-fractional maps
    beyond H compose to rho_[H,inf] v / (1 + C v), C = sum_{l>H} a_l
    rho_[l,inf] with a_l = G_l''(1) / (2 rho_l) = nu (1 - rho_l) / (2 rho_l),
    and (1 - rho_l) rho_[l,inf] telescopes to C_H; so the start is off by
    order sum_{l>H} (1 - rho_l)^2, of order H^(1 - 2 gamma), and quadratic
    maps add terms of that order. The Richardson extrapolant
    E_H = log g_2H + (log g_2H - log g_H) r / (1 - r), r = 2^(1 - 2 gamma),
    cancels it. (The first-order start 1 - rho_[H,inf] v is off by
    nu Lambda_H v^2 / 2 only while Lambda_H is small; at gamma = 1.1875
    Lambda_H is still 2 at H = 2^18, and an extrapolant built on it missed
    log g(0) by 4e-6.) H doubles from 64 until E moves by less than tol/10,
    and NumericError is raised past ``horizon_cap``. Float compositions
    have their own rounding: over 2^20 linear-fractional maps they differ
    from long-double ones by up to 7e-12 in Gbar, which the extrapolant at
    most triples, so tests state the oracle's error beside their tolerance.
    """
    if x == 1.0:
        return 1.0
    imm, rule, v = spec.immigration, spec.offspring.rho_rule, 1.0 - x
    depth = max(1 << 20, 2 * horizon_cap)
    delta = spec.offspring.one_minus_rho(np.arange(2, depth + 1))
    prefix = np.concatenate([[0.0], np.cumsum(np.log1p(-delta))])
    q, g = depth + 0.5 + rule.n0, rule.gamma
    rest = rule.c * q ** (1 - g) / (g - 1) + rule.c**2 * q ** (1 - 2 * g) / (4 * g - 2)
    log_rho = prefix[-1] - rest - prefix  # log_rho[j-1] = log rho_[j,inf]
    m = imm.m1.at(np.arange(1, depth + 1))
    if imm.kind == "poisson":
        psi, log_h = (lambda y: 1.0 - y), (lambda p, mj: -mj * p)
    else:
        base = imm.base_law.coeffs[::-1]
        psi = lambda y: (1.0 - np.polyval(base, y)) / imm.base_mean  # noqa: E731
        log_h = lambda p, mj: np.log1p(-mj * p)  # noqa: E731
    rho = np.exp(log_rho)
    y = rho * v / (1.0 + spec.offspring.nu / 2 * (1.0 - rho) * v)
    # a factor at or below 0 gives nan or -inf here, and then g = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        first = log_h(psi(1.0 - y), m)
    log_g0 = float(np.sum(first)) - tail_bound(imm.m1, depth) * psi(x)

    def log_g(h):
        gbar = engine.composed_eval_all(spec, h, 1.0 - y[h - 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            return log_g0 + float(np.sum(log_h(psi(gbar[1:]), m[:h]) - first[:h]))

    if spec.offspring.nu == 0:
        return math.exp(log_g0) if log_g0 > -math.inf else 0.0
    r = 2.0 ** (1.0 - 2 * g)
    h, lo, hi = 128, log_g(64), log_g(128)
    est = math.nan
    while hi > -math.inf:
        prev, est = est, hi + (hi - lo) * r / (1.0 - r)
        if abs(est - prev) < tol / 10:
            return math.exp(est)
        h *= 2
        if h > horizon_cap:
            raise NumericError(f"composition horizon beyond {horizon_cap}")
        lo, hi = hi, log_g(h)
    return 0.0


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


def cp_pgf(measure: IntensityMeasure, x: float) -> float:
    """exp{sum_j mu{j} (x^j - 1)}, the PGF at x of the compound Poisson law
    of ``measure``, from its atoms."""
    powers = x ** np.arange(1, measure.atoms.shape[0] + 1)
    return math.exp(float(np.sum(measure.atoms * (powers - 1.0))))


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


def cp_intensity_series(rule: Callable[[int], float], tol: float,
                        j_max: int = 64) -> IntensityMeasure:
    """Atoms mu{j} = (1/j!) sum_{i>=0} (-1)^i lambda_{j+i}/i!, j <= ``j_max``,
    from a rule l -> lambda_l, by the alternating centered series.

    As in :func:`limits.cp_intensity_finite` they are the x-basis
    coefficients of sum_l lambda_l (x-1)^l / l!: the centered series is cut
    for the ``j_max`` + 1 columns 0..j_max by :func:`_centered_cut`, which
    also ends it at the first lambda_l = 0, and one :func:`pgf.taylor_shift`
    by -1 gives every atom. No cut within ``_CUT_TERMS`` terms, or a term that
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
    rule, as :func:`limits.cp_intensity_finite` does. No cut within
    ``_CUT_TERMS`` terms, or a kept term that overflows, raises
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


def composed_deriv_profile(spec, n: int, k_max: int) -> np.ndarray:
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
