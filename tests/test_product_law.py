"""The product law of the fast-convergence regime: closed forms at tight
tolerances, the Euler-Maclaurin tails it rests on, and a differential
check against explicit summation of its log factors."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.special import zeta

from conftest import make_spec
from nearcrit import engine, limits
from nearcrit.errors import NumericError, UnsupportedFamilyError
from nearcrit.families import (
    BASE_LAWS,
    FAMILIES,
    CustomOffspring,
    PoissonImmigration,
    PowerSum,
    PowerTerm,
    RhoRule,
    ScenarioSpec,
    hurwitz_zeta,
)
from nearcrit.scenarios import load_fixture
from oracles import BRUTEFORCE_ERROR, product_law_bruteforce, tail_bound

CLOSED_FORM_XS = (0.0, 0.25, 0.5, 0.9, 1.0 - 1e-9)


def test_example1_closed_form_at_tol_1e_12():
    spec = load_fixture("thm6_example1").spec
    got = limits.product_law_eval(spec, CLOSED_FORM_XS, tol=1e-12)
    for x, g in zip(CLOSED_FORM_XS, got):
        assert g == pytest.approx(limits.inverse_square_product_pgf(x), abs=1e-12)
    # the declared rate 2 at n = 1 makes the first factor exactly 0 at x = 0
    assert got[0] == 0.0


def test_example2_closed_form_and_mean_at_tol_1e_12():
    spec = load_fixture("thm6_example2").spec
    got = limits.product_law_eval(spec, CLOSED_FORM_XS, tol=1e-12)
    for x, g in zip(CLOSED_FORM_XS, got):
        assert g == pytest.approx(math.exp(math.pi**2 / 6.0 * (x - 1.0)), abs=1e-12)
    mean = limits.product_law_mean(spec, tol=1e-12)
    assert mean == pytest.approx(math.pi**2 / 6.0, abs=1e-12)


def test_grid_call_matches_scalar_calls_bit_for_bit():
    for name in ("thm6_example1", "thm6_example2"):
        spec = load_fixture(name).spec
        xs = np.linspace(0.0, 1.0, 11)
        grid = limits.product_law_eval(spec, xs)
        assert isinstance(grid, np.ndarray) and grid.shape == xs.shape
        for x, g in zip(xs, grid):
            one = limits.product_law_eval(spec, float(x))
            assert isinstance(one, float)
            assert one == g


def test_mean_serves_every_offspring_kind():
    # chain rule: the mean is sum_j m_{j,1} rho_[j,inf] whatever G_n is
    kw = dict(gamma=2.0, n0=1.0, m1="1*n^-2", lam=1.0, divergent=False)
    bern = limits.product_law_mean(make_spec(**kw), tol=1e-10)
    for kind in ("quadratic", "linear_fractional"):
        mean = limits.product_law_mean(make_spec(kind, nu=0.5, **kw), tol=1e-10)
        assert mean == pytest.approx(bern, abs=1e-10)


def test_product_law_needs_a_rho_rule():
    spec = ScenarioSpec(
        offspring=CustomOffspring(table=lambda n: np.array([0.1, 0.9])),
        immigration=PoissonImmigration(m1=PowerSum.parse("1*n^-2")),
        lam=0.0, nu=0.0, divergent=False,
    )
    with pytest.raises(UnsupportedFamilyError):
        limits.product_law_eval(spec, 0.5)


def _example1_copy(kind, nu):
    """thm6_example1 with n0 = 1 (rho_1 > 0, which linear-fractional maps
    need) and offspring.nu = limits.nu = ``nu``."""
    base = load_fixture("thm6_example1").spec
    off = FAMILIES["offspring"][kind](rho_rule=RhoRule(1.0, 2.0, 1.0), nu=nu)
    return dataclasses.replace(base, offspring=off, nu=nu)


@pytest.mark.parametrize("kind", ["quadratic", "linear_fractional"])
@pytest.mark.parametrize("nu", [0.1, 1.0])
def test_copies_of_example1_answer_at_tol_1e_7_and_1e_12(kind, nu):
    # these needed a composition horizon beyond 2^20 at both tolerances; the
    # declared immigration rate 2 at n = 1 makes the first factor negative
    # below x = 0.25, for Bernoulli offspring too
    spec = _example1_copy(kind, nu)
    xs = (0.5, 0.9)
    want = [product_law_bruteforce(spec, x, 1e-9) for x in xs]
    for tol in (1e-7, 1e-12):
        got = limits.product_law_eval(spec, xs, tol)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=tol + BRUTEFORCE_ERROR)


@pytest.mark.parametrize("kind", ["quadratic", "linear_fractional"])
@pytest.mark.parametrize("nu", [0.1, 1.0, 2.0])
def test_tail_bracket_holds_the_maps_composed_from_a_deeper_one(kind, nu):
    # Gbar_{N+1,8N} applied to either end of the bracket at 8N lands inside
    # the bracket at N, and on linear-fractional maps the closed-form head
    # is the composition from the midpoint at N
    spec = _example1_copy(kind, nu)
    off, v, n = spec.offspring, 1.0, 64

    def ends(j):
        lam = off.rho_rule.log_tail(j)
        mid, half = limits._c_bracket(off, j, lam)
        return [1.0 - math.exp(-lam) * v / (1.0 + c * v)
                for c in (mid - half, mid + half)]

    lo, hi = ends(n)
    deep = [engine.composed_eval_all(spec, 8 * n, x)[n] for x in ends(8 * n)]
    assert lo <= deep[0] <= deep[1] <= hi
    assert deep[1] - deep[0] < (hi - lo) / 100
    if kind == "linear_fractional":
        terms = limits._product_terms(spec, 1e-4)
        head = terms[3]
        lam = off.rho_rule.log_tail(head)
        mid = limits._c_bracket(off, head, lam)[0]
        composed = engine.composed_eval_all(
            spec, head, 1.0 - math.exp(-lam) * v / (1.0 + mid * v))[1:]
        got = limits._head_maps(spec, terms, np.exp(terms[0][:head]), 1e-4)(v)
        assert np.max(np.abs(got - composed)) <= 1e-13


@pytest.mark.parametrize("kind", ["quadratic", "linear_fractional"])
def test_fast_immigration_rule_takes_the_tail_past_the_head(kind):
    # with m1 = n^-6 the r tail stops the head at 64, but the C bracket
    # needs N = 2048 at tol 1e-9
    spec = make_spec(kind, c=1.0, gamma=2.0, n0=1.0, nu=1.0, m1="1*n^-6",
                     lam=1.0, divergent=False)
    assert limits._product_terms(spec, 1e-9)[3] == 64
    got = limits.product_law_eval(spec, 0.0, 1e-9)
    want = product_law_bruteforce(spec, 0.0, 1e-10)
    assert got == pytest.approx(want, abs=1e-9 + BRUTEFORCE_ERROR)


def test_tail_starts_where_the_quadratic_window_is_open(monkeypatch):
    # rho_n = 1 - 0.9 (201/(n + 200))^2 with nu = 2: the head stops at 128,
    # but the window of _quadratic_g2 opens only at n = 131, so the maps are
    # composed over 256 generations, not 128
    spec = make_spec("quadratic", c=0.9 * 201**2, gamma=2.0, n0=200.0, nu=2.0,
                     m1="0.01*n^-3", lam=1.0, divergent=False)
    assert limits._product_terms(spec, 1e-3)[3] == 128
    assert spec.offspring.start_offset() == 131
    lengths, real = [], engine.composed_eval_all
    monkeypatch.setattr(engine, "composed_eval_all",
                        lambda s, n, x: lengths.append(n) or real(s, n, x))
    got = limits.product_law_eval(spec, 0.0, 1e-3)
    monkeypatch.undo()
    assert lengths == [256]
    want = product_law_bruteforce(spec, 0.0, 1e-9)
    assert got == pytest.approx(want, abs=1e-3 + BRUTEFORCE_ERROR)


@pytest.mark.parametrize("tol", [0.1, 1e-3])
def test_product_law_never_exceeds_one(tol):
    # the brackets' midpoints put g(0) at 1.0104 (tol 0.1) and 1.0000367
    # (tol 1e-3) on this rule; the true value is 0.9999907 and no PGF value
    # exceeds 1
    spec = make_spec("quadratic", c=0.9 * 201**2, gamma=2.0, n0=200.0, nu=2.0,
                     imm_kind="poisson", m1="0.001*n^-1.5", lam=1.0, divergent=False)
    got = limits.product_law_eval(spec, 0.0, tol)
    want = product_law_bruteforce(spec, 0.0, 1e-9)
    assert got <= 1.0
    assert got == pytest.approx(want, abs=tol + BRUTEFORCE_ERROR)


@pytest.mark.parametrize("s", [1.01, 1.5, 2.0, 3.0, 7.5, 40.0])
@pytest.mark.parametrize("q", [0.5, 1.0, 16.0, 17.0, 1000.5, 1e6])
def test_hurwitz_zeta_against_scipy(s, q):
    value, bound = hurwitz_zeta(s, q)
    want = zeta(s, q)
    assert abs(value - want) <= bound + 8 * np.finfo(float).eps * want
    if q >= 16.0 and s <= 3.0:
        assert bound <= 1e-9 * want


def test_hurwitz_zeta_log_scale_avoids_overflow():
    # c^k alone overflows for c = 1e7, k = 60; the scaled sum does not
    value, bound = hurwitz_zeta(60 * 2.0, 5000.0, 60 * math.log(1e7))
    direct = np.sum((1e7 / (5000.0 + np.arange(20_000.0)) ** 2) ** 60)
    assert value == pytest.approx(direct, rel=1e-12)
    assert bound <= 1e-12 * value


@pytest.mark.parametrize("j", [64, 100, 4096])
def test_power_sum_tail_against_scipy(j):
    rule = PowerSum.parse("0.5*(n+2.5)^-1.5 + 2*n^-2 + 0.25*(n+1)^-3")
    want = sum(t.coef * zeta(t.power, j + 1 + t.shift) for t in rule.terms)
    assert want <= tail_bound(rule, j) <= want * (1.0 + 1e-13)


@pytest.mark.parametrize("c,gamma,n0", [(1.0, 2.0, 0.0), (0.5, 1.2, 3.0),
                                        (60.0, 3.0, 5.0), (1.0, 1.01, 0.0)])
def test_rho_log_tail_against_direct_sum(c, gamma, n0):
    rule = RhoRule(c=c, gamma=gamma, n0=n0)
    j = 64
    while float(rule.one_minus_rho(j + 1)) > 0.5:
        j *= 2
    # the direct sum up to L plus the leading tail terms of -log(1 - d)
    top = 1 << 22
    ls = np.arange(j + 1, top + 1, dtype=float)
    head = float(np.sum(-np.log1p(-rule.one_minus_rho(ls))))
    rest = c * zeta(gamma, top + 1 + n0) + c**2 * zeta(2 * gamma, top + 1 + n0) / 2
    assert rule.log_tail(j) == pytest.approx(head + rest, rel=1e-12, abs=1e-15)


@st.composite
def product_specs(draw):
    """Admissible product-regime scenarios with m_{1,1} <= 1."""
    n0 = draw(st.floats(0.0, 4.0))
    gamma = draw(st.floats(1.05, 3.0))
    c = draw(st.floats(0.05, 0.95)) * (1.0 + n0) ** gamma  # rho_1 > 0
    kind = draw(st.sampled_from(["bernoulli", "quadratic", "linear_fractional"]))
    nu = 0.0 if kind == "bernoulli" else draw(st.floats(0.0, 2.0))
    terms = draw(st.lists(
        st.tuples(st.floats(0.05, 0.5), st.floats(0.0, 3.0), st.floats(1.05, 3.0)),
        min_size=1, max_size=2))
    m1 = PowerSum(tuple(PowerTerm(a, s, p) for a, s, p in terms))
    imm_kind = draw(st.sampled_from(["bernoulli", "poisson", "custom"]))
    base = {}
    if imm_kind == "custom":
        name = draw(st.sampled_from(["log_two", "delta2"]))
        base = {"base": tuple(BASE_LAWS[name](64))}
    return ScenarioSpec(
        offspring=FAMILIES["offspring"][kind](rho_rule=RhoRule(c, gamma, n0), nu=nu),
        immigration=FAMILIES["immigration"][imm_kind](m1=m1, **base),
        lam=0.0, nu=nu, divergent=False,
    )


def _custom_immigration_spec(base: str) -> ScenarioSpec:
    """thm6_example1's offspring under a custom immigration mixture, so
    that every run reaches ``CustomImmigration._chi``."""
    return ScenarioSpec(
        offspring=FAMILIES["offspring"]["bernoulli"](rho_rule=RhoRule(1.0, 2.0, 0.0)),
        immigration=FAMILIES["immigration"]["custom"](
            m1=PowerSum.parse("0.5*n^-2 + 0.5*n^-3"), base=tuple(BASE_LAWS[base](64))),
        lam=0.0, nu=0.0, divergent=False,
    )


def _quadratic_bernoulli_spec(c, gamma, n0, nu, m1) -> ScenarioSpec:
    """Quadratic offspring under Bernoulli immigration, as ``product_specs``
    draws them; the examples below once failed against the first-order
    oracle."""
    return ScenarioSpec(
        offspring=FAMILIES["offspring"]["quadratic"](rho_rule=RhoRule(c, gamma, n0), nu=nu),
        immigration=FAMILIES["immigration"]["bernoulli"](m1=PowerSum.parse(m1)),
        lam=0.0, nu=nu, divergent=False,
    )


@given(spec=product_specs(), x=st.floats(0.0, 1.0))
@example(spec=_custom_immigration_spec("delta2"), x=0.0)
@example(spec=_custom_immigration_spec("delta2"), x=0.5)
@example(spec=_custom_immigration_spec("log_two"), x=0.0)
@example(spec=_custom_immigration_spec("log_two"), x=0.5)
@example(spec=_quadratic_bernoulli_spec(1.0571981966165698, 1.109375, 2.0, 0.5,
                                       "0.5*n^-2 + 0.5*n^-2"), x=0.75)
@example(spec=_quadratic_bernoulli_spec(0.5193170509806894, 1.0546875, 1.0, 1.0,
                                       "0.5*n^-2"), x=0.0)
@settings(max_examples=40, deadline=None)
def test_product_law_matches_explicit_summation(spec, x):
    tol = 1e-6
    try:
        limits._product_terms(spec, tol)
    except NumericError:
        # no head under PRODUCT_CAP meets tol: refused, not guessed
        # (test_rule_out_of_reach_still_names_the_head_cap)
        reject()
    # the composed maps beyond the head have no cap of their own
    got = limits.product_law_eval(spec, x, tol)
    # the explicit sum, with its own tolerance, which also covers the
    # factors beyond 2^20 that it takes at first order
    tol_o = max(tol, 1.1 * (1.0 - x) * tail_bound(spec.immigration.m1, 1 << 20))
    try:
        want = product_law_bruteforce(spec, x, tol_o, horizon_cap=1 << 18)
    except NumericError:
        reject()
    assert abs(got - want) <= tol + tol_o


def test_mean_head_length_falls_to_the_cube_root_rate():
    # the second-order M-tail bracket has half-width of order J^-3 here; the
    # first-order one, of order J^-2, needed J = 8192 and 2^21
    spec = load_fixture("thm6_example1").spec
    assert len(limits._product_terms(spec, 1e-7)[1]) <= 512
    assert len(limits._product_terms(spec, 1e-12)[1]) <= 1 << 15
    mean = limits.product_law_mean(spec, tol=1e-12)
    assert mean == pytest.approx(math.pi**2 / 6.0, abs=1e-12)


def test_slow_immigration_rule_answers_at_tol_1e_10():
    # m1 = 0.5 n^-1.5 needed a head beyond PRODUCT_CAP at tol 1e-10 under the
    # first-order M-tail bracket, which gave 0.6206931223454861 at tol 1e-8
    base = load_fixture("thm6_example1").spec
    imm = dataclasses.replace(base.immigration, m1=PowerSum.parse("0.5*n^-1.5"))
    spec = dataclasses.replace(base, immigration=imm)
    got = limits.product_law_eval(spec, 0.5, tol=1e-10)
    assert got == pytest.approx(0.6206931223454861, abs=1e-8 + 1e-10)


def test_rule_out_of_reach_still_names_the_head_cap():
    spec = make_spec(gamma=1.05, n0=1.0, m1="1*n^-1.05", lam=1.0, divergent=False)
    with pytest.raises(NumericError, match=f"head beyond {limits.PRODUCT_CAP}"):
        limits.product_law_mean(spec, tol=1e-10)


BRACKET_TOP = 1 << 22


@st.composite
def mean_tail_rules(draw):
    """(rho rule, m1) with gamma and the m1 powers in [1.3, 3] and m1 shifts drawn
    apart from the rho shift 1 + n0."""
    n0 = draw(st.floats(0.0, 4.0))
    gamma = draw(st.floats(1.3, 3.0))
    c = draw(st.floats(0.05, 0.95)) * (1.0 + n0) ** gamma
    terms = draw(st.lists(
        st.tuples(st.floats(0.05, 0.5), st.floats(0.0, 3.0), st.floats(1.3, 3.0)),
        min_size=1, max_size=2))
    m1 = PowerSum(tuple(PowerTerm(a, s, p) for a, s, p in terms))
    return RhoRule(c, gamma, n0), m1


def _mean_tails(rule, m1, js) -> list[float]:
    """Midpoints of sum_{l>j} m_{l,1} rho_[l,inf], summed explicitly up to
    TOP; only floats leave, so no failing example holds the arrays."""
    # Lambda_l = -log rho_[l,inf] for l = TOP..65, summed down from TOP
    ls = np.arange(BRACKET_TOP, 64, -1, dtype=float)
    neg_log_rho = -np.log1p(-rule.one_minus_rho(ls))
    lam = np.cumsum(neg_log_rho) - neg_log_rho + rule.log_tail(BRACKET_TOP)
    terms = m1.at(ls) * np.exp(-lam)
    return [float(np.sum(terms[: BRACKET_TOP - j])) for j in js]


@given(rules=mean_tail_rules())
@settings(max_examples=20, deadline=None)
def test_mean_tail_bracket_holds_against_explicit_sum(rules):
    rule, m1 = rules
    js = (64, 256, 1024)
    # beyond TOP the tail lies in [e^-Lambda_TOP, 1] sum_{l>TOP} m_{l,1}
    s_top, lam_top = tail_bound(m1, BRACKET_TOP), rule.log_tail(BRACKET_TOP)
    rest_mid = s_top * (1.0 + math.exp(-lam_top)) / 2
    rest_half = -s_top * math.expm1(-lam_top) / 2
    for j, head in zip(js, _mean_tails(rule, m1, js)):
        want = head + rest_mid
        lam = rule.log_tail(j)
        mid, half, s = limits._m_bracket(rule, m1, j, lam)
        assert abs(want - mid) <= half + rest_half + 1e-14 * want
        # never wider than the first-order bracket [e^-Lambda_j, 1] S
        assert half <= -s * math.expm1(-lam) / 2 + 1e-12 * s
