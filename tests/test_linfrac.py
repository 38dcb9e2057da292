import dataclasses
import math

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_spec
from nearcrit.scenarios import load_fixture
from nearcrit import engine, linfrac, pgf
from nearcrit.errors import UnsupportedFamilyError
from nearcrit.families import FAMILIES, log_two_base
from nearcrit.linfrac import lf_alpha_beta, lf_deriv_at_1, lf_value
from oracles import (
    accompanying_eval,
    composed_deriv_profile,
    deriv_sum_limit,
    faa_f2_coefficient,
    faa_weight,
    lf_compose,
)


def test_inversion_identity_map():
    par = lf_alpha_beta(1.0, 0.0)
    assert par == (1.0, 0.0)
    for x in (0.0, 0.3, 1.0):
        assert lf_value(par, x) == pytest.approx(x, abs=1e-15)


def test_inversion_known_pair():
    alpha, beta = lf_alpha_beta(0.9, 0.2)
    assert alpha == pytest.approx(0.729, abs=1e-15)
    assert beta == pytest.approx(0.1, abs=1e-15)


def test_inversion_roundtrip():
    start = (0.5, 0.25)
    alpha, beta = lf_alpha_beta(lf_deriv_at_1(start, 1), lf_deriv_at_1(start, 2))
    assert alpha == pytest.approx(0.5, abs=1e-12)
    assert beta == pytest.approx(0.25, abs=1e-12)


def test_inversion_rejects_bad_first_derivative():
    with pytest.raises(ValueError):
        lf_alpha_beta(0.0, 0.1)


def test_compose_with_identity():
    f = (0.729, 0.1)
    alpha, beta = lf_compose((1.0, 0.0), f)
    assert alpha == pytest.approx(f[0], abs=1e-14)
    assert beta == pytest.approx(f[1], abs=1e-14)


def test_compose_bernoullis_multiply():
    alpha, beta = lf_compose((0.7, 0.0), (0.5, 0.0))
    assert alpha == pytest.approx(0.35, abs=1e-14)
    assert beta == pytest.approx(0.0, abs=1e-14)


def test_compose_matches_nested_evaluation():
    f = (0.729, 0.1)
    out = lf_compose(f, f)
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert lf_value(out, x) == pytest.approx(lf_value(f, lf_value(f, x)), abs=1e-12)


admissible = st.tuples(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=0.9),
).filter(lambda ab: ab[0] + ab[1] <= 1.0)


@given(admissible, admissible)
@settings(max_examples=100, deadline=None)
def test_composition_closure_property(outer, inner):
    out = lf_compose(outer, inner)
    for x in np.linspace(0.0, 1.0, 33):
        assert lf_value(out, float(x)) == pytest.approx(
            lf_value(outer, lf_value(inner, float(x))), abs=1e-12
        )


def test_composed_map_at_the_diagonal_is_identity():
    spec = make_spec("linear_fractional", nu=1.0)
    alpha, beta = linfrac.interval_params(spec, [7])
    assert (alpha[7], beta[7]) == (1.0, 0.0)


def test_composed_map_bernoulli_collapses_to_chain_product():
    spec = make_spec("bernoulli")
    alpha, beta = linfrac.interval_params(spec, [9])
    assert beta[2] == pytest.approx(0.0, abs=1e-15)
    assert alpha[2] == pytest.approx(linfrac.chain_product(spec, 2, 9), abs=1e-12)


def test_composed_map_matches_compose_fold():
    spec = make_spec("linear_fractional", nu=1.0)
    j, n = 3, 6
    folded = (1.0, 0.0)  # identity map
    for l in range(n, j, -1):
        folded = lf_compose(tuple(map(float, spec.offspring.params(l))), folded)
    alpha, beta = linfrac.interval_params(spec, [n])
    assert alpha[j] == pytest.approx(folded[0], abs=1e-12)
    assert beta[j] == pytest.approx(folded[1], abs=1e-12)


def test_composed_map_rejects_other_families():
    spec = make_spec("quadratic", nu=1.0)
    with pytest.raises(UnsupportedFamilyError):
        linfrac.interval_params(spec, [4])


def test_generation_pgf_first_step_is_immigration():
    spec = make_spec(m1="0.5", lam=0.5)
    for x in (0.0, 0.4, 1.0):
        assert linfrac.generation_pgf(spec, 1, x) == pytest.approx(
            1.0 + 0.5 * (x - 1.0), abs=1e-14
        )


@pytest.mark.parametrize("kind", ["poisson", "custom"])
def test_generation_pgf_takes_every_immigration_kind(kind):
    # H_j(Gbar) is exact for every kind: the product form agrees with
    # coefficient propagation within the truncated mass
    spec = load_fixture("lf_crosscheck").spec
    base = {"base": tuple(log_two_base(64))} if kind == "custom" else {}
    imm = FAMILIES["immigration"][kind](m1=spec.immigration.m1, **base)
    spec = dataclasses.replace(spec, immigration=imm)
    law = engine.propagate(spec, 50, 400).pmf
    for x in np.linspace(0.0, 1.0, 11):
        got = linfrac.generation_pgf(spec, 50, float(x))
        assert abs(got - pgf.evaluate(law, float(x))) <= law.deficiency + 1e-12


def test_generation_pgf_normalized_at_one():
    spec = make_spec("linear_fractional", nu=1.0)
    for n in (1, 10, 40):
        assert linfrac.generation_pgf(spec, n, 1.0) == pytest.approx(1.0, abs=1e-13)


def test_accompanying_single_factor():
    spec = make_spec(m1="0.5", lam=0.5)
    assert accompanying_eval(spec, 1, 0.0) == pytest.approx(
        math.exp(-0.5), abs=1e-14
    )
    assert accompanying_eval(spec, 1, 1.0) == 1.0


def test_generation_pgf_warns_when_rates_are_clamped():
    # thm6_example1 declares m_1 = 2; the finite-n routes clamp it to 1
    from nearcrit import pgf

    spec = load_fixture("thm6_example1").spec
    with pytest.warns(UserWarning, match="clamped"):
        val = linfrac.generation_pgf(spec, 5, 0.0)
    with pytest.warns(UserWarning, match="clamped"):
        state = engine.propagate(spec, 5, 64)
    assert val == pytest.approx(pgf.evaluate(state.pmf, 0.0), abs=1e-14)


def test_accompanying_gap_below_bound():
    from nearcrit.diagnostics import accompanying_gap_bound

    spec = make_spec("linear_fractional", nu=1.0)
    for n in (5, 25):
        for x in (0.0, 0.5, 0.9):
            gap = abs(
                linfrac.generation_pgf(spec, n, x)
                - accompanying_eval(spec, n, x)
            )
            assert gap <= accompanying_gap_bound(spec, n, x) + 1e-12


def test_faa_weight_midpoint_halved():
    assert faa_weight(4, 1) == 4.0
    assert faa_weight(4, 2) == 3.0  # C(4,2)/2
    assert faa_weight(3, 1) == 3.0


def test_f2_coefficient_low_orders():
    g = [2.0, 3.0, 5.0]  # g', g'', g'''
    assert faa_f2_coefficient(g, 2) == pytest.approx(4.0)  # (g')^2
    assert faa_f2_coefficient(g, 3) == pytest.approx(3 * 2.0 * 3.0)


def test_f2_coefficient_order_four():
    assert faa_f2_coefficient([1.0, 2.0, 3.0], 4) == pytest.approx(24.0)


def test_f2_coefficient_needs_enough_derivatives():
    with pytest.raises(ValueError):
        faa_f2_coefficient([1.0], 3)


def test_f2_coefficient_against_symbolic_differentiation():
    # exp(s*g(x)): the s^2 coefficient of e^{-sg} d^k/dx^k e^{sg} is the
    # f''(g) coefficient in d^k f(g).
    x, s = sympy.symbols("x s")
    rng = np.random.default_rng(7)
    for _ in range(3):
        a, b, c = (sympy.Rational(int(v), 8) for v in rng.integers(1, 9, 3))
        g = a * x + b * x**2 + c * x**3
        for k in range(2, 7):
            derivs = [float(sympy.diff(g, x, i).subs(x, 1)) for i in range(1, k)]
            expr = sympy.exp(s * g)
            poly = sympy.expand(sympy.diff(expr, x, k) / sympy.exp(s * g))
            coeff = float(poly.coeff(s, 2).subs(x, 1))
            assert faa_f2_coefficient(derivs, k) == pytest.approx(coeff, abs=1e-9)


def test_weight_identity_from_the_recursion():
    # (k+1)!/2^k = (1/k) sum_i a_{k+1,i} (i!/2^(i-1)) ((k+1-i)!/2^(k-i))
    for k in range(2, 13):
        total = 0.0
        for i in range(1, (k + 1) // 2 + 1):
            total += (
                faa_weight(k + 1, i)
                * math.factorial(i)
                / 2.0 ** (i - 1)
                * math.factorial(k + 1 - i)
                / 2.0 ** (k - i)
            )
        assert total / k == pytest.approx(
            math.factorial(k + 1) / 2.0**k, rel=1e-12
        )


def test_composed_deriv_order_one_is_chain_product():
    spec = make_spec("linear_fractional", nu=1.0, horizon=1000)
    n = 1000
    logs = np.log(
        [spec.offspring.rho_rule.rho(l) for l in range(2, n + 1)]
    ).sum()
    want = float(spec.offspring.rho_rule.rho(1)) * math.exp(logs)
    assert linfrac.chain_product(spec, 0, n) == pytest.approx(want, rel=1e-12)
    assert linfrac.chain_product(spec, n, n) == 1.0
    prof = composed_deriv_profile(spec, n, 1)
    assert prof[0, 0] == pytest.approx(want, rel=1e-12)
    assert prof[n, 0] == 1.0


def test_composed_deriv_bernoulli_higher_orders_vanish():
    spec = make_spec("bernoulli")
    prof = composed_deriv_profile(spec, 12, 4)
    for k in (2, 3, 4):
        assert prof[2, k - 1] == 0.0


def test_composed_deriv_quadratic_two_step_hand_sum():
    spec = make_spec("quadratic", nu=1.0)
    j, n = 4, 6
    rho = [float(spec.offspring.rho_rule.rho(l)) for l in range(0, n + 1)]
    g2 = [spec.offspring.deriv_at_1(l, 2) for l in range(0, n + 1)]
    # sum_i G_i''(1) rho_[j,i-1] rho_[i,n]^2 over i = j+1..n
    want = g2[5] * 1.0 * (rho[6]) ** 2 + g2[6] * rho[5] * 1.0
    got = composed_deriv_profile(spec, n, 2)[j, 1]
    assert got == pytest.approx(want, rel=1e-12)


def test_composed_deriv_matches_lf_closed_form():
    spec = make_spec("linear_fractional", nu=1.0)
    j, n = 2, 20
    alpha, beta = linfrac.interval_params(spec, [n])
    prof = composed_deriv_profile(spec, n, 4)
    for k in (1, 2, 3, 4):
        assert prof[j, k - 1] == pytest.approx(
            lf_deriv_at_1((alpha[j], beta[j]), k), rel=1e-10)


def test_deriv_profile_agrees_with_pointwise():
    spec = make_spec("quadratic", nu=1.0)
    prof = composed_deriv_profile(spec, 30, 3)
    for j in (0, 10, 29, 30):
        assert prof[j, 0] == pytest.approx(
            linfrac.chain_product(spec, j, 30), rel=1e-12, abs=1e-300
        )
        for k in (2, 3):
            assert prof[j, k - 1] == pytest.approx(
                composed_deriv_profile(spec, 30, k)[j, k - 1],
                rel=1e-12, abs=1e-300,
            )


def _taylor_at_1(poly, k_max):
    """Exact derivatives poly^(i)(1), i = 0..k_max."""
    vals = []
    for _ in range(k_max + 1):
        vals.append(poly.eval(1))
        poly = poly.diff()
    return vals


def _symbolic_profile(spec, n, k_max):
    """Gbar_{j+1,n}^(k)(1) by exact differentiation of the explicit composition.

    Each G_l is written out from its closed-form parameters with exact
    rationals and composed from l = n down to 1 into one quotient of sympy
    polynomials num/den (den stays 1 for Bernoulli and quadratic rules).
    The derivatives of the quotient at 1 follow from num = Gbar * den by
    the Leibniz rule.
    """
    x = sympy.symbols("x")
    out = np.empty((n + 1, k_max))
    num, den = sympy.Poly(x, x), sympy.Poly(1, x)
    for j in range(n, -1, -1):
        if j < n:
            par = [sympy.Rational(float(v)) for v in spec.offspring.params(j + 1)]
            if spec.offspring.kind == "linear_fractional":
                # 1 - a/(1-b) + a g/(1 - b g) with g = num/den
                a, b = par
                num, den = (1 - a / (1 - b)) * (den - b * num) + a * num, den - b * num
            else:
                num = sympy.Poly(list(reversed(par)), x).compose(num)
        nd, dd = _taylor_at_1(num, k_max), _taylor_at_1(den, k_max)
        g = [nd[0] / dd[0]]
        for k in range(1, k_max + 1):
            rest = sum(math.comb(k, i) * g[i] * dd[k - i] for i in range(k))
            g.append((nd[k] - rest) / dd[0])
            out[j, k - 1] = float(g[k])
    return out


@given(
    kind=st.sampled_from(["bernoulli", "quadratic", "linear_fractional"]),
    c=st.floats(min_value=0.05, max_value=1.0),
    gamma=st.floats(min_value=0.3, max_value=2.0),
    n0=st.floats(min_value=0.0, max_value=4.0),
    nu=st.floats(min_value=0.1, max_value=4.0),
    n=st.integers(min_value=1, max_value=6),
    k_max=st.integers(min_value=1, max_value=5),
)
# quadratic with G_1 window-clamped: rho_1 = 1/2, so G_1''(1) = rho_1 < 3 (1 - rho_1)
@example(kind="quadratic", c=1.0, gamma=1.0, n0=1.0, nu=3.0, n=4, k_max=5)
@settings(max_examples=100, deadline=None)
def test_deriv_profile_matches_symbolic_composition(kind, c, gamma, n0, nu, n, k_max):
    # keep rho_1 >= 0.1: the rule must be valid, and LF needs G_1'(1) > 0
    c = min(c, 0.9 * (1.0 + n0) ** gamma)
    spec = make_spec(kind, c=c, gamma=gamma, n0=n0,
                     nu=0.0 if kind == "bernoulli" else nu)
    got = composed_deriv_profile(spec, n, k_max)
    want = _symbolic_profile(spec, n, k_max)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)


def test_composed_params_partial_fraction_form():
    # independent closed sum: with T = sum_i G_i''(1) rho_[i,n] / (2 rho_i),
    # the composed parameters collapse to alpha = rho_[j,n]/(1+T)^2 and
    # beta = T/(1+T)
    spec = make_spec("linear_fractional", nu=1.0)
    n = 40
    alpha, beta = linfrac.interval_params(spec, [n])
    s = linfrac.chain_logs(spec, n)
    for j in (1, 5, 20, 39):
        big_t = sum(
            spec.offspring.deriv_at_1(i, 2)
            * math.exp(s[n] - s[i])
            / (2.0 * float(spec.offspring.rho_rule.rho(i)))
            for i in range(j + 1, n + 1)
        )
        rho_jn = math.exp(s[n] - s[j])
        assert alpha[j] == pytest.approx(rho_jn / (1.0 + big_t) ** 2, rel=1e-12)
        assert beta[j] == pytest.approx(big_t / (1.0 + big_t), rel=1e-12, abs=1e-15)


def test_composed_deriv_asymptotic_shape():
    # Gbar^(k)(1) ~ (k!/2^(k-1)) nu^(k-1) rho_[j,n] (1 - rho_[j,n])^(k-1)
    # deep into a long quadratic chain
    spec = load_fixture("thm5_nb").spec
    n = 2000
    prof = composed_deriv_profile(spec, n, 3)
    for j in (100, 500, 1000):
        rho_jn = linfrac.chain_product(spec, j, n)
        for k in (2, 3):
            asym = (
                math.factorial(k)
                / 2.0 ** (k - 1)
                * rho_jn
                * (1.0 - rho_jn) ** (k - 1)
            )
            assert prof[j, k - 1] == pytest.approx(asym, rel=0.01)


def test_deriv_sum_limit_values():
    assert deriv_sum_limit(2.0, 1.0, 1) == 2.0
    assert deriv_sum_limit(1.0, 1.0, 2) == pytest.approx(0.5)
    assert deriv_sum_limit(1.0, 1.0, 3) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        deriv_sum_limit(1.0, 0.0, 2)
