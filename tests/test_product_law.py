"""The product law of the fast-convergence regime: closed forms at tight
tolerances, the Euler-Maclaurin tails it rests on, and a differential
check against explicit summation of its log factors."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.special import zeta

from conftest import make_spec
from nearcrit import limits
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
from oracles import product_law_bruteforce

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


def test_unreachable_tolerance_names_the_cap():
    # the composition start moves log g by nu Lambda_N / 2 ~ 1/(2 N): no
    # horizon up to HORIZON_CAP reaches 1e-12
    spec = make_spec("quadratic", gamma=2.0, n0=1.0, nu=1.0, m1="1*n^-2",
                     lam=1.0, divergent=False)
    with pytest.raises(NumericError, match=f"beyond {limits.HORIZON_CAP}"):
        limits.product_law_eval(spec, 0.5, tol=1e-12)


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
    assert want <= rule.tail_bound(j) <= want * (1.0 + 1e-13)


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
    nu = 0.0 if kind == "bernoulli" else draw(st.floats(0.0, 0.05))
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


@given(spec=product_specs(), x=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_product_law_matches_explicit_summation(spec, x):
    tol = 1e-6
    try:
        got = limits.product_law_eval(spec, x, tol)
    except NumericError as exc:
        # no head or horizon under the caps meets tol: refused, not guessed
        assert "beyond" in str(exc)
        reject()
    # the explicit sum stops at 2^20 terms (2^14 where it composes maps one
    # generation at a time), with its own tolerance
    depth = 1 << 20 if spec.offspring.kind == "bernoulli" else 1 << 14
    tol_o = max(tol, 1.1 * (1.0 - x) * spec.immigration.m1.tail_bound(depth))
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
    s_top, lam_top = m1.tail_bound(BRACKET_TOP), rule.log_tail(BRACKET_TOP)
    rest_mid = s_top * (1.0 + math.exp(-lam_top)) / 2
    rest_half = -s_top * math.expm1(-lam_top) / 2
    for j, head in zip(js, _mean_tails(rule, m1, js)):
        want = head + rest_mid
        lam = rule.log_tail(j)
        mid, half, s = limits._m_bracket(rule, m1, j, lam)
        assert abs(want - mid) <= half + rest_half + 1e-14 * want
        # never wider than the first-order bracket [e^-Lambda_j, 1] S
        assert half <= -s * math.expm1(-lam) / 2 + 1e-12 * s
