import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import make_spec
from nearcrit import diagnostics, engine, families, pgf, scenarios
from nearcrit.errors import (NotADistributionError, NumericError,
                             ScenarioValidationError, WrongRegimeError)
from nearcrit.families import (
    FAMILIES,
    RATE_RULES,
    BernoulliImmigration,
    BernoulliOffspring,
    CustomImmigration,
    CustomOffspring,
    LinearFractionalOffspring,
    NegativeBinomialLimit,
    OutsideScope,
    PoissonImmigration,
    PoissonLimit,
    PowerSum,
    ProductLimit,
    QuadraticOffspring,
    RhoRule,
    ScenarioSpec,
    classify,
    condition_ratios,
    log_two_base,
)
from nearcrit.linfrac import lf_deriv_at_1
from oracles import lf_pmf_coeffs, sample_dense, tail_bound


def test_power_sum_parse_and_eval():
    rule = PowerSum.parse("2*(n+1)^-1")
    assert rule.at(1) == pytest.approx(1.0)
    assert rule.at(3) == pytest.approx(0.5)
    two_terms = PowerSum.parse("1*n^-2 + 1*n^-3")
    assert two_terms.at(2) == pytest.approx(0.25 + 0.125)


def test_power_sum_str_roundtrip():
    for text in ("2*(n+1)^-1", "1*n^-2 + 1*n^-3", "0.5", "2e+3*n^-2",
                 "1e+20*(n+1)^-2"):
        rule = PowerSum.parse(text)
        again = PowerSum.parse(str(rule))
        assert again == rule


def test_power_sum_rejects_growth_and_junk():
    with pytest.raises(ScenarioValidationError):
        PowerSum.parse("n^2")
    with pytest.raises(ScenarioValidationError):
        PowerSum.parse("frog")


@pytest.mark.parametrize("text, message", [
    ("-1*n^-2", "cannot parse rule term '-1*n^-2'"),  # _NUM has no sign
    ("2*n^-1 + -1", "cannot parse rule term ' -1'"),
    ("", "cannot parse rule term ''"),
    ("(n+1^-2", "unbalanced parentheses"),
])
def test_power_sum_rejects_signs_blanks_and_open_groups(text, message):
    with pytest.raises(ScenarioValidationError) as info:
        PowerSum.parse(text)
    assert message in str(info.value)


def test_power_sum_tail_bound_dominates():
    rule = PowerSum.parse("1*n^-2 + 1*n^-3")
    tail = sum(float(rule.at(n)) for n in range(101, 100000))
    assert tail <= tail_bound(rule, 100)
    assert tail_bound(rule, 100) <= tail * 1.05


def test_rho_rule_guards():
    with pytest.raises(ScenarioValidationError):
        RhoRule(c=2.0, gamma=1.0, n0=0.0)  # rho_1 < 0
    with pytest.raises(ScenarioValidationError):
        RhoRule(c=1.0, gamma=0.0)
    assert RhoRule(c=1.0, gamma=1.0, n0=1.0).divergent_sum()
    assert not RhoRule(c=1.0, gamma=2.0).divergent_sum()


def test_bernoulli_pgf_value():
    # rho_1 = 0.9 via c=0.1: G(0) = 1 - rho = 0.1
    fam = BernoulliOffspring(
        rho_rule=RhoRule(c=0.1, gamma=1.0, n0=0.0)
    )
    assert fam.pgf_at(1, 0.0) == pytest.approx(0.1, abs=1e-15)
    assert fam.pgf_at(1, 0.5) == pytest.approx(0.55, abs=1e-15)


def test_quadratic_construction_and_value():
    # rho = 0.9, nu = 1: p2 = 0.05, p1 = 0.8, p0 = 0.15; G(0.5) = 0.5625
    fam = QuadraticOffspring(
        rho_rule=RhoRule(c=1.0, gamma=1.0, n0=9.0), nu=1.0
    )
    assert np.allclose(np.array(fam.params(1)), [0.15, 0.8, 0.05], atol=1e-15)
    assert fam.pgf_at(1, 0.5) == pytest.approx(0.5625, abs=1e-15)


def test_linear_fractional_normalization_and_derivs():
    fam = LinearFractionalOffspring(
        rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0), nu=1.0
    )
    for n in (1, 5, 40):
        rho = float(fam.rho_rule.rho(n))
        assert fam.pgf_at(n, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert fam.deriv_at_1(n, 1) == pytest.approx(rho, abs=1e-12)
        assert fam.deriv_at_1(n, 2) == pytest.approx(1.0 - rho, abs=1e-12)


def test_lf_curvature_from_unrounded_one_minus_rho():
    # 1 - rho_n = 1e-10 here: curvature built from the rounded 1.0 - rho_n
    # carries a relative error near eps / 1e-10
    fam = LinearFractionalOffspring(
        rho_rule=RhoRule(c=1.0, gamma=2.0), nu=1.0
    )
    n = 100_000
    want = fam.nu * float(fam.one_minus_rho(n))
    assert fam.deriv_at_1(n, 2) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_lf_second_derivative_is_the_rule_value():
    # G_n''(1) = nu (1 - rho_n) bit for bit, the value the closed form,
    # the diagnostics and the product law read; the parameters give it
    # back only to rounding. Higher orders come from the parameters.
    fam = make_spec("linear_fractional", nu=1.3).offspring
    ns = np.arange(1, 2001)
    assert fam.deriv_at_1(ns, 2).tobytes() == (fam.nu * fam.one_minus_rho(ns)).tobytes()
    assert fam.deriv_at_1(ns, 3).tobytes() == lf_deriv_at_1(fam.params(ns), 3).tobytes()


def test_lf_known_parameter_pair():
    # d1 = 0.9, d2 = 0.2 inverts to alpha = 0.729, beta = 0.1, whose
    # derivatives at 1 are 0.9 and 0.2 again.
    fam = LinearFractionalOffspring(
        rho_rule=RhoRule(c=1.0, gamma=1.0, n0=9.0), nu=2.0
    )
    par = tuple(map(float, fam.params(1)))  # rho_1 = 0.9, G'' = 2*(1-0.9) = 0.2
    assert par[0] == pytest.approx(0.729, abs=1e-15)
    assert par[1] == pytest.approx(0.1, abs=1e-15)
    assert lf_deriv_at_1(par, 1) == pytest.approx(0.9, abs=1e-12)
    assert lf_deriv_at_1(par, 2) == pytest.approx(0.2, abs=1e-12)


def test_lf_pmf_is_geometric():
    fam = LinearFractionalOffspring(
        rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0), nu=1.0
    )
    alpha, beta = map(float, fam.params(3))
    p = fam.pmf(3, 30)
    ks = np.arange(1, 30)
    assert np.max(
        np.abs(p.coeffs[1:] - alpha * beta ** (ks - 1))
    ) <= 1e-12
    assert p.coeffs[0] == pytest.approx(1.0 - alpha / (1.0 - beta), abs=1e-12)


def test_quadratic_pmf_reproduces_targets():
    fam = QuadraticOffspring(
        rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0), nu=0.5
    )
    for n in (1, 7, 100):
        p = fam.pmf(n, 3)
        rho = float(fam.rho_rule.rho(n))
        assert pgf.factorial_moment(p, 1) == pytest.approx(rho, abs=1e-12)
        assert pgf.factorial_moment(p, 2) == pytest.approx(
            0.5 * (1.0 - rho), abs=1e-12
        )


def test_quadratic_window_clamps_early_generations():
    fam = QuadraticOffspring(
        rho_rule=RhoRule(c=1.0, gamma=1.0, n0=0.0), nu=2.0
    )
    # rho_1 = 0 forces G_1''(1) = 0; admissibility starts later
    assert fam.deriv_at_1(1, 2) == 0.0
    assert fam.start_offset() > 1
    p = fam.pmf(1, 3)
    assert np.all(p.coeffs >= 0)


def test_quadratic_window_clamped_params_stay_probabilities():
    # a window-clamped generation needs p1 = 0 exactly: a rounded p1 < 0 or
    # p0 + p2 > 1 is not a probability, and the sampler rejects it
    for nu in np.linspace(0.5, 20.0, 40):
        fam = QuadraticOffspring(
            rho_rule=RhoRule(c=1.0, gamma=1.0, n0=0.0), nu=nu
        )
        ns = np.arange(1, 61)
        p0, p1, p2 = fam.params(ns)
        assert np.all(p1 >= 0.0) and np.all(p0 + p2 <= 1.0)
        assert np.all(p1[nu > ns - 1] == 0.0)  # nu > rho_n/(1 - rho_n)
        for n in range(1, int(nu) + 3):
            sample_dense(fam, n, np.array([3, 1, 0, 2]), np.random.default_rng(n))


def test_pgf_normalized_and_mean_matches_across_families():
    fams = [
        BernoulliOffspring(rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0)),
        QuadraticOffspring(
            rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0), nu=0.7
        ),
        LinearFractionalOffspring(
            rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0),
            nu=0.7,
        ),
    ]
    for fam in fams:
        for n in (1, 9, 77):
            assert fam.pgf_at(n, 1.0) == pytest.approx(1.0, abs=1e-14)
            assert fam.deriv_at_1(n, 1) == pytest.approx(
                float(fam.rho_rule.rho(n)), abs=1e-12
            )


def test_custom_table_pgf_at_broadcasts():
    fam = CustomOffspring(
        table=lambda n: np.array([0.5 / n, 1.0 - 0.5 / n])
    )
    ns = np.arange(1, 6)
    xs = np.linspace(0.0, 1.0, 5)
    want = [0.5 / n + (1.0 - 0.5 / n) * x for n, x in zip(ns, xs)]
    assert np.allclose(fam.pgf_at(ns, xs), want, rtol=0.0, atol=1e-15)
    assert np.allclose(fam.pgf_at(ns, 0.5), [fam.pgf_at(int(n), 0.5) for n in ns],
                       rtol=0.0, atol=0.0)
    assert isinstance(fam.pgf_at(3, 0.5), float)


@given(coeffs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       pad=st.integers(0, 3),
       x=st.one_of(st.floats(0.0, 1.0),
                   st.lists(st.floats(0.0, 1.0), min_size=0, max_size=5)))
@settings(max_examples=200, deadline=None)
def test_polynomial_pgf_is_polyval_bit_for_bit(coeffs, pad, x):
    c = np.array(coeffs + [0.0] * pad)
    xs = np.asarray(x) if isinstance(x, list) else x
    got = families._polynomial_pgf(c, xs)
    want = np.polyval(c[::-1], xs)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_custom_params_are_the_padded_table_columns():
    fam = CustomOffspring(table=lambda n: np.array([0.5, 0.5] if n % 2 else [0.25] * 4))
    cols = fam.params(np.array([[1, 2], [3, 4]]))
    assert len(cols) == 4 and all(col.shape == (2, 2) for col in cols)
    assert np.stack(cols, axis=-1).tolist() == [
        [[0.5, 0.5, 0.0, 0.0], [0.25] * 4], [[0.5, 0.5, 0.0, 0.0], [0.25] * 4]]
    assert [col.shape for col in fam.params(3)] == [()] * 2
    empty = fam.params(np.arange(1, 1))
    assert len(empty) == 1 and empty[0].shape == (0,)
    assert fam.pgf_formula(fam.params(2), 0.5) == fam.pgf_at(2, 0.5) == 0.46875


def test_custom_moments_come_from_the_table_columns():
    # rows of widths 2 to 4 whose weights move with n; the array call on
    # the params columns matches one validated Pmf per generation
    def table(n):
        q = 1.0 / (n + 2.0)
        return np.array([[0.5 - q, 0.5 + q], [q, 0.25, 0.75 - q],
                         [0.25, q, 0.25, 0.5 - q]][n % 3])

    fam = CustomOffspring(table=table)
    ns = np.arange(1, 40).reshape(3, 13)
    by_pmf = {k: np.array([pgf.factorial_moment(pgf.Pmf(table(int(n))), k)
                           for n in ns.flat]).reshape(ns.shape) for k in (1, 2, 3)}
    assert np.max(np.abs(fam.mean(ns) - by_pmf[1])) <= 1e-15
    assert np.max(np.abs(fam.one_minus_rho(ns) - (1.0 - by_pmf[1]))) <= 1e-15
    assert np.max(np.abs(fam.deriv_at_1(ns, 2) - by_pmf[2])) <= 1e-15
    for n in (1, 2, 3, 17):
        for s, k in ((1, 1), (2, 2), (3, 3)):
            assert abs(fam.deriv_at_1(n, s) - by_pmf[k].flat[n - 1]) <= 1e-15
        assert isinstance(fam.mean(n), float) and fam.deriv_at_1(n, 4) == 0.0
    assert fam.one_minus_rho(np.arange(1, 1)).shape == (0,)
    bad = CustomOffspring(table=lambda n: np.array([0.7, 0.4]))
    with pytest.raises(NotADistributionError):
        bad.mean(np.arange(1, 4))


def test_lf_pmf_expansion_matches_function_values():
    # dual route: the geometric coefficient formula against direct
    # evaluation of the rational generating function
    fam = LinearFractionalOffspring(
        rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0), nu=1.0
    )
    p = fam.pmf(4, 200)
    for x in (0.0, 0.3, 0.8, 1.0):
        series_val = float(np.polyval(p.coeffs[::-1], x))
        assert series_val == pytest.approx(fam.pgf_at(4, x), abs=1e-12)


def test_immigration_moments_by_kind():
    rule = PowerSum.parse("1*(n+1)^-1")
    bern = BernoulliImmigration(m1=rule)
    assert bern.factorial_moment_at(5, 1) == pytest.approx(1 / 6)
    assert bern.factorial_moment_at(5, 2) == 0.0
    poi = PoissonImmigration(m1=rule)
    assert poi.factorial_moment_at(5, 2) == pytest.approx((1 / 6) ** 2)
    mix = CustomImmigration(
        m1=rule, base=tuple(log_two_base(64)), base_name="log_two"
    )
    # the base has k-th factorial moment (k-1)!, so m_{n,k} = (k-1)!/(n+1)
    assert mix.factorial_moment_at(5, 1) == pytest.approx(1 / 6, abs=1e-12)
    assert mix.factorial_moment_at(5, 3) == pytest.approx(2 / 6, abs=1e-10)


def test_immigration_mixture_pmf_mass():
    rule = PowerSum.parse("1*n^-1")
    mix = CustomImmigration(
        m1=rule, base=tuple(log_two_base(64)), base_name="log_two"
    )
    p = mix.pmf(3, 64)
    assert p.coeffs.sum() + p.deficiency == pytest.approx(1.0, abs=1e-12)
    assert pgf.factorial_moment(p, 1) == pytest.approx(1 / 3, abs=1e-12)


def test_bernoulli_rate_clamps_with_warning():
    imm = BernoulliImmigration(m1=PowerSum.parse("2*n^-1"))
    with pytest.warns(UserWarning):
        assert float(imm.weight(1, "clamped")) == 1.0
    assert float(imm.weight(4, "clamped")) == pytest.approx(0.5)
    assert imm.mean(1) == pytest.approx(2.0)  # declared mean is never clamped


def test_custom_weight_above_one_is_rejected_on_every_finite_route(fixture_specs):
    # w_1 = 3 is no probability: every finite-n route raises the same way
    spec = fixture_specs["thm4_log2"]
    imm = dataclasses.replace(spec.immigration, m1=PowerSum.parse("3*n^-1"))
    spec = dataclasses.replace(spec, immigration=imm)
    for call in (lambda: imm.pgf_values(1, 0.0, "clamped"),
                 lambda: engine.pgf_via_product(spec, 5, 0.0),
                 lambda: engine.propagate(spec, 5, 64),
                 lambda: engine.simulate(spec, 5, 100, 1)):
        with pytest.raises(ScenarioValidationError,
                           match=r"^mixture weight 3 at n=1 is not a probability$"):
            call()
    # the message names the first bad generation, not the array
    with pytest.raises(ScenarioValidationError, match=r"^mixture weight 4 at n=3 "):
        dataclasses.replace(imm, m1=PowerSum.parse("12*n^-1")).pgf_values(
            np.arange(3, 8), np.zeros(5), "clamped")
    # the product law keeps the declared weight: 1 + 3 (B(0) - 1) = 1 - 3 log 2
    assert imm.pgf_values(1, 0.0, "declared") == pytest.approx(
        1.0 - 3.0 * math.log(2.0), abs=1e-15)


@pytest.mark.parametrize("m1", ["1*(n+1)^-1", "0.5*n^-2 + 0.5*n^-3", "1", "0"])
def test_bernoulli_immigration_is_the_mixture_toward_one(m1):
    # weights at most 1: Bernoulli and the custom mixture toward the point
    # mass at 1 agree bit for bit
    bern = BernoulliImmigration(m1=PowerSum.parse(m1))
    mix = CustomImmigration(m1=PowerSum.parse(m1), base=(0.0, 1.0))
    ns, xs = np.arange(1, 41), np.linspace(0.0, 1.0, 40)
    for rates in RATE_RULES:
        assert np.array_equal(bern.pgf_values(ns, xs, rates),
                              mix.pgf_values(ns, xs, rates))
    for n in (1, 2, 7, 200):
        assert np.array_equal(bern.pmf(n, 64).coeffs, mix.pmf(n, 64).coeffs)
        for k in (1, 2, 3):
            assert bern.factorial_moment_at(n, k) == mix.factorial_moment_at(n, k)


def test_classify_poisson_regime():
    spec = make_spec(m1="2*(n+1)^-1", lam=2.0)
    law = classify(spec)
    assert law == PoissonLimit(2.0)


def test_classify_negative_binomial_regime():
    spec = make_spec("quadratic", nu=1.0, m1="1*(n+1)^-1", lam=1.0)
    law = classify(spec)
    assert isinstance(law, NegativeBinomialLimit)
    assert law.r == pytest.approx(2.0)
    assert law.p == pytest.approx(1.0 / 3.0)


def test_classify_lambda_zero_or_a_rounded_nb_target():
    # m1 decays faster than 1 - rho_n: lambda = 0, the point mass at 0 for any nu
    for kind, nu in (("bernoulli", 0.0), ("quadratic", 1.0)):
        assert classify(make_spec(kind, nu=nu, m1="1*(n+1)^-2")) == PoissonLimit(0.0)
    # nu = 1e17 rounds p = nu/(2 + nu) to 1: a numeric failure, not a law
    with pytest.raises(NumericError, match="rounds the negative binomial limit"):
        classify(make_spec("quadratic", nu=1e17))


def test_classify_product_regime():
    spec = make_spec(
        gamma=2.0, n0=0.0, m1="1*n^-2 + 1*n^-3", divergent=False
    )
    assert classify(spec) == ProductLimit()


def test_classify_outside_scope_for_fat_second_moments():
    # nu > 0 with immigration whose m2/(1-rho) does not vanish
    spec = ScenarioSpec(
        offspring=QuadraticOffspring(
            rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0), nu=1.0
        ),
        immigration=CustomImmigration(
            m1=PowerSum.parse("1*(n+1)^-1"),
            base=tuple(log_two_base(64)),
            base_name="log_two",
        ),
        lam=1.0,
        nu=1.0,
        divergent=True,
    )
    law = classify(spec)
    assert law.describe().startswith("OutsideScope")


def _with_poisson_immigration(fixture, *edits):
    text = scenarios.fixture_text(fixture).replace(
        "immigration.family = bernoulli", "immigration.family = poisson")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return scenarios.parse_scenario_text(text).spec


def test_classify_with_poisson_immigration():
    # m_{n,2} = m_{n,1}^2 vanishes against 1 - rho_n iff 2 p1 > gamma
    assert classify(_with_poisson_immigration("thm1_poisson")) == PoissonLimit(2.0)
    slow = _with_poisson_immigration(
        "thm1_poisson", ("2*(n+1)^-1", "2*(n+1)^-0.5"))
    assert isinstance(classify(slow), OutsideScope)
    law = classify(_with_poisson_immigration("thm5_nb"))
    assert isinstance(law, NegativeBinomialLimit)
    assert (law.r, law.p) == (2.0, pytest.approx(1.0 / 3.0))


@pytest.mark.parametrize("nu", [0.0, 1.0])
@pytest.mark.parametrize("imm", [
    PoissonImmigration(m1=PowerSum.parse("1*(n+1)^-1")),
    CustomImmigration(m1=PowerSum.parse("1*(n+1)^-1"), base=(0.0, 0.5, 0.5)),
], ids=["poisson", "custom"])
def test_classify_custom_offspring_names_the_missing_rho_rule(imm, nu):
    # m_{n,2}/(1 - rho_n) -> 0 is decided against a rho rule; a table has none
    spec = ScenarioSpec(offspring=CustomOffspring(table=lambda n: np.array([0.1, 0.9])),
                        immigration=imm, lam=1.0, nu=nu, divergent=True)
    law = classify(spec)
    assert isinstance(law, OutsideScope) and "no rho rule" in law.reason
    with pytest.raises(WrongRegimeError, match="no rho rule"):
        diagnostics.report(spec, [10], 16)
    # Bernoulli immigration has m_{n,2} = 0, but lambda needs the rule too
    bern = dataclasses.replace(spec, immigration=BernoulliImmigration(m1=imm.m1), nu=0.0)
    assert "no rho rule" in classify(bern).reason


def test_declared_moment_ratio_limits(fixture_specs):
    # each equals lambda f_l/(l f_1) of the base law: delta2 has f = (2, 2, 0)
    seq = fixture_specs["thm3_cp_finite"]  # lambda_seq = 2,1,0
    assert seq.constants().ratios == seq.lambda_seq == (2.0, 1.0, 0.0)
    plain = fixture_specs["thm1_poisson"]  # no sequence or rule: (lambda, 0)
    assert plain.constants().ratios == (2.0, 0.0)
    log2 = fixture_specs["thm4_log2"]  # a named base keeps its rule
    assert log2.constants().ratios == log2.lambda_rule == "log_series"
    # a mixture toward x is Bernoulli immigration; lambda = 0 ends at lambda_2
    # and (0, 1/2, 0, 1/2) has f = (2, 3, 3, 0)
    for base, ratios in (((0.0, 1.0), (2.0, 0.0)), ((0.0, 0.5, 0.0, 0.5), (2.0, 1.5, 1.0, 0.0))):
        mix = CustomImmigration(m1=PowerSum.parse("1*n^-1"), base=base)
        assert mix.lambda_ratios(2.0) == pytest.approx(ratios, rel=1e-15)
        assert mix.lambda_ratios(0.0) == (0.0, 0.0)


def test_every_fixture_declares_the_derived_constants(fixture_specs):
    # bit for bit, so the fixtures' outputs do not depend on the declared lines
    for name, spec in fixture_specs.items():
        const = spec.constants()
        assert spec.divergent is const.divergent, name
        pairs = ((spec.lam, const.lam), (spec.nu, const.nu),
                 (spec.lambda_seq, const.ratios), (spec.lambda_rule, const.ratios))
        # the product regime fixes no constant beyond the divergence
        assert (const.lam is None) is (not const.divergent), name
        assert all(None in (d, r) or d == r for d, r in pairs), name


def test_classify_ignores_horizon():
    a = make_spec(m1="2*(n+1)^-1", lam=2.0, horizon=10)
    b = make_spec(m1="2*(n+1)^-1", lam=2.0, horizon=100000)
    assert classify(a) == classify(b)


def test_condition_ratios_exact_first_ratio():
    spec = make_spec(n0=0.0, m1="0.7*n^-1", lam=0.7)
    for n in (1, 10, 1000):
        r = condition_ratios(spec, n)
        assert r.m1_ratio == pytest.approx(0.7, abs=1e-12)
        assert r.m2_ratio == 0.0


def test_condition_ratios_quadratic_curvature():
    spec = make_spec("quadratic", nu=1.0, m1="1*(n+1)^-1", lam=1.0)
    r = condition_ratios(spec, 50)
    assert r.g2_ratio == pytest.approx(1.0, abs=1e-12)


def test_condition_ratios_lf_third_derivative_small():
    spec = make_spec(
        "linear_fractional", n0=0.0, nu=1.0, m1="1*n^-1", lam=1.0
    )
    r = condition_ratios(spec, 100)
    assert 0.0 < r.g3_ratio <= 0.07


def test_condition_ratios_partial_sum():
    spec = make_spec(n0=0.0, m1="1*n^-1")
    r = condition_ratios(spec, 4)
    assert r.partial_sum == pytest.approx(1 + 1 / 2 + 1 / 3 + 1 / 4, abs=1e-12)


def test_validate_flags_lambda_mismatch():
    spec = make_spec(m1="2*(n+1)^-1", lam=1.0, horizon=500)  # rule says 2
    with pytest.raises(ScenarioValidationError,
                       match=r"limits.lambda = 1.0 but the rules give 2.0"):
        spec.validate()
    # within 1e-9 relative is the same constant
    assert make_spec(m1="2*(n+1)^-1", lam=2.0 * (1 + 5e-10)).validate() == []


def test_validate_rejects_a_declared_nu_the_rule_does_not_give():
    # quadratic nu = 1: G_n''(1)/(1 - rho_n) -> 1
    for declared in (2.0, 0.0):
        with pytest.raises(ScenarioValidationError,
                           match=rf"limits.nu = {declared!r} but the rules give 1.0"):
            make_spec("quadratic", nu=1.0, decl_nu=declared).validate()
    assert make_spec("quadratic", nu=1.0, decl_nu=1.0).validate() == []


def test_validate_rejects_divergence_contradiction():
    with pytest.raises(ScenarioValidationError):
        make_spec(gamma=2.0, n0=0.0, divergent=True).validate()
    with pytest.raises(ScenarioValidationError):
        make_spec(gamma=1.0, divergent=False).validate()


# ---------------------------------------------------------------------------
# exactness of the samplers: one seeded generation against the exact law

# state histogram: 4 000 trajectories for each starting count; state 0 checks
# the empty trajectory
START = np.zeros(8, dtype=np.int64)
START[[0, 1, 2, 3, 7]] = 4000
# START plus 4 000 trajectories of 40 parents, for a binomial split whose
# most likely value lies well inside the row
WIDE_START = np.zeros(41, dtype=np.int64)
WIDE_START[: START.shape[0]] = START
WIDE_START[40] = 4000
# Pearson p-values below this fail; with the asymptotic chi-square law
# each assertion has a false-alarm probability of about 1e-6
P_FLOOR = 1e-6


def _pearson(obs, probs):
    """Pearson statistic and degrees of freedom of the value counts ``obs``
    against ``probs``.

    Adjacent values are pooled until every cell expects at least 5 draws. A
    draw where the law has no mass gives an infinite statistic.
    """
    top = max(probs.shape[0], obs.shape[0])
    obs = np.pad(obs, (0, top - obs.shape[0]))
    exp = np.zeros(top)
    exp[: probs.shape[0]] = probs * obs.sum()
    if np.any(obs[exp == 0.0] > 0):
        return math.inf, 1
    cells_obs, cells_exp, o, e = [], [], 0, 0.0
    for k in range(top):
        o, e = o + obs[k], e + exp[k]
        if e >= 5.0:
            cells_obs.append(o)
            cells_exp.append(e)
            o, e = 0, 0.0
    cells_obs[-1] += o
    cells_exp[-1] += e
    cells_obs, cells_exp = np.array(cells_obs), np.array(cells_exp)
    return float(np.sum((cells_obs - cells_exp) ** 2 / cells_exp)), len(cells_exp) - 1


def _split_pvalue(out, h, row_law):
    """Chi-square p-value of the split matrix ``out`` of histogram ``h``: row
    s must hold the h[s] trajectories of state s, distributed by
    ``row_law(s)``; the statistics of the occupied rows are pooled."""
    assert out.shape[0] == h.shape[0] and np.all(out >= 0)
    assert np.array_equal(out.sum(axis=1), h)
    stat, dof = 0.0, 0
    for s in np.flatnonzero(h):
        st, d = _pearson(out[s], row_law(int(s)))
        stat, dof = stat + st, dof + d
    if math.isinf(stat):
        return 0.0
    return float(stats.chi2.sf(stat, dof)) if dof else 1.0


def _power_law(unit_law):
    """s -> law of a sum of s independent ``unit_law`` variables."""
    def law(s):
        out = np.array([1.0])
        for _ in range(s):
            out = np.convolve(out, unit_law)
        return out
    return law


def _offspring(kind, c=1.0, gamma=1.0, n0=1.0, nu=0.0):
    return FAMILIES["offspring"][kind](rho_rule=RhoRule(c=c, gamma=gamma, n0=n0),
                                      nu=nu)


OFFSPRING_CASES = {
    # near critical: q = 1/201 of the parents die
    "bernoulli_n200": (_offspring("bernoulli"), 200),
    # rho_1 = 0.2, so the event probability is 0.8 > 1/2
    "bernoulli_early": (_offspring("bernoulli", c=0.8, n0=0.0), 1),
    "quadratic_n200": (_offspring("quadratic", nu=1.0), 200),
    "quadratic_n5": (_offspring("quadratic", nu=1.0), 5),
    # nu = 2 > rho_2/(1 - rho_2) = 1: window-clamped, p1 = 0 and q = 1
    "quadratic_clamped": (_offspring("quadratic", n0=0.0, nu=2.0), 2),
    # p0 = 0.675 > p2 = 0.225 > p1 = 0.1: no child first, then two, then one
    "quadratic_early": (_offspring("quadratic", c=0.45, n0=0.0, nu=1.0), 1),
    # rho_1 = 1/2 and beta = 1/2: many parents with several extra children
    "lf_early": (_offspring("linear_fractional", nu=2.0), 1),
    "lf_n200": (_offspring("linear_fractional", nu=2.0), 200),
    "custom_table": (CustomOffspring(table=lambda n: np.array([0.3, 0.4, 0.3])), 1),
    # q = 0.3 of the parents die: 40 parents lose 12 most likely
    "bernoulli_q03_s40": (_offspring("bernoulli", c=0.3, n0=0.0), 1),
    # the most likely total lies inside every row, away from both ends
    "custom_interior": (CustomOffspring(
        table=lambda n: np.array([0.1, 0.15, 0.45, 0.3])), 1),
    # one nonzero entry, not the last: every parent has exactly two children
    "custom_point": (CustomOffspring(
        table=lambda n: np.array([0.0, 0.0, 1.0, 0.0])), 1),
    # six values, the mode inside and a zero among them: no stage for value 2
    "custom_six": (CustomOffspring(
        table=lambda n: np.array([0.1, 0.2, 0.0, 0.35, 0.25, 0.1])), 1),
}
OFFSPRING_STARTS = {"bernoulli_q03_s40": WIDE_START}


@pytest.mark.parametrize("case", sorted(OFFSPRING_CASES))
def test_offspring_sampler_draws_the_exact_one_step_law(case):
    fam, n = OFFSPRING_CASES[case]
    start = OFFSPRING_STARTS.get(case, START)
    out = sample_dense(fam, n, start.copy(), np.random.default_rng([5, n]))
    law = fam.pmf(n, 200)
    assert law.deficiency < 1e-12
    assert _split_pvalue(out, start, _power_law(law.coeffs)) > P_FLOOR


# 2^62 one-parent trajectories, each childless with a probability near 3e-16
TINY_START = np.array([0, 2**62], dtype=np.int64)


@pytest.mark.parametrize("kind, nu", [("bernoulli", 0.0), ("linear_fractional", 1.0)])
def test_offspring_sampler_draws_childless_parents_at_a_tiny_rate(kind, nu):
    # delta = 1 - rho_1 = 3e-16 is about an ulp of 1. Drawing the likely
    # value first, with probability 1 - delta rounded, draws 26 % too few
    # Bernoulli deaths; forming the LF childless probability as 1 - p from
    # p = alpha/(1 - beta) draws 1.3 % too few childless parents
    fam = _offspring(kind, c=3e-16, n0=0.0, nu=nu)
    delta = float(fam.one_minus_rho(1))
    rho = 1.0 - delta
    # G_1(0) of the LF law with mean rho and G''(1) = nu delta; delta at nu = 0
    expected = 2.0**62 * delta * (2.0 * rho + nu) / (2.0 * rho + nu * delta)
    # 200 draws: the LF bias of 1 - p (26 of 2 075) is then 8 sd of the mean
    counts = [sample_dense(fam, 1, TINY_START.copy(), np.random.default_rng(seed))[1, 0]
              for seed in range(200)]
    # each count is Binomial(2^62, p) with variance expected (1 - p)
    assert abs(np.mean(counts) - expected) <= 5.0 * math.sqrt(expected / 200)


def test_custom_offspring_draws_a_rare_value_at_a_tiny_rate():
    # the first stage splits the twos, 3e-16 of the parents, from the ones:
    # drawing the ones at 1 - 3e-16 rounded would draw the twos at another rate
    fam = CustomOffspring(table=lambda n: np.array([0.0, 1.0 - 3e-16, 3e-16]))
    p2 = float(families._sampling_probs(fam.table(1))[2])
    expected = 2.0**62 * p2
    counts = [sample_dense(fam, 1, TINY_START.copy(), np.random.default_rng(seed))[1, 2]
              for seed in range(200)]
    assert abs(np.mean(counts) - expected) <= 5.0 * math.sqrt(expected / 200)


def test_quadratic_clamped_generation_has_no_single_children():
    fam, n = OFFSPRING_CASES["quadratic_clamped"]
    p0, p1, p2 = fam.params(n)
    assert p1 == 0.0 and p0 + p2 == 1.0
    out = sample_dense(fam, n, START.copy(), np.random.default_rng(3))
    assert np.array_equal(out.sum(axis=1), START)
    assert not np.any(out[:, 1::2])


def test_bernoulli_offspring_all_die_when_rho_is_zero(fixture_specs):
    fam = fixture_specs["thm4_log2"].offspring
    assert float(fam.rho_rule.rho(1)) == 0.0
    out = sample_dense(fam, 1, START.copy(), np.random.default_rng(1))
    assert out.shape == (START.shape[0], 1) and np.array_equal(out[:, 0], START)


@pytest.mark.parametrize("c, n0, n", [(1.0, 1.0, 200), (0.8, 0.0, 1), (1.0, 0.0, 1),
                                       (1.0, 1.0, 3)])
def test_bernoulli_offspring_samples_as_the_nu_zero_quadratic(c, n0, n):
    bern = _offspring("bernoulli", c=c, n0=n0)
    quad = _offspring("quadratic", c=c, n0=n0, nu=0.0)
    for seed in range(3):
        assert np.array_equal(sample_dense(bern, n, START.copy(), np.random.default_rng(seed)),
                              sample_dense(quad, n, START.copy(), np.random.default_rng(seed)))


@pytest.mark.parametrize("kind, nu", [("bernoulli", 0.0), ("quadratic", 1.0)])
def test_offspring_sampler_when_one_minus_rho_underflows(kind, nu):
    # 11^-400 underflows to 0: every parent has exactly one child, and the
    # twos stage (probability p2/(p0 + p2)) must not divide 0 by 0
    fam = _offspring(kind, gamma=400.0, nu=nu)
    assert float(fam.one_minus_rho(10)) == 0.0
    out = sample_dense(fam, 10, START.copy(), np.random.default_rng(4))
    assert np.array_equal(np.diagonal(out), START[: out.shape[1]])
    assert out.sum() == START.sum()


@given(c=st.floats(min_value=0.05, max_value=1.0),
       gamma=st.floats(min_value=0.5, max_value=2.0),
       n0=st.floats(min_value=0.0, max_value=4.0),
       nu=st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=100, deadline=None)
def test_start_offset_is_the_first_generation_outside_the_clamp(c, gamma, n0, nu):
    # the validate note and params share one window test
    fam = _offspring("quadratic", c=c, gamma=gamma, n0=n0, nu=nu)
    start = fam.start_offset()
    for n in range(1, start + 20):
        clamped = fam.deriv_at_1(n, 2) < nu * fam.one_minus_rho(n)
        assert clamped == (n < start)


def test_start_offset_beyond_the_float_range_is_a_numeric_error():
    # nu (1 - rho_n) > rho_n still at n = 2^1023: 1 - rho_n = n^-0.01 > 8e-4
    fam = _offspring("quadratic", c=1.0, gamma=0.01, n0=0.0, nu=1e6)
    with pytest.raises(NumericError, match="beyond n = 2\\^1023"):
        fam.start_offset()


@pytest.mark.parametrize("case", sorted(OFFSPRING_CASES))
def test_offspring_sampler_on_empty_population(case):
    fam, n = OFFSPRING_CASES[case]
    # 50 trajectories without parents have no children
    out = sample_dense(fam, n, np.array([50]), np.random.default_rng(1))
    assert np.array_equal(out, [[50]])
    # no trajectories at all: every row is empty
    out = sample_dense(fam, n, np.zeros(4, dtype=np.int64), np.random.default_rng(1))
    assert out.shape == (4, 1) and not np.any(out)


def _immigration(kind, m1, base=None):
    if base is None:
        return FAMILIES["immigration"][kind](m1=PowerSum.parse(m1))
    return FAMILIES["immigration"][kind](m1=PowerSum.parse(m1), base=tuple(base))


IMMIGRATION_CASES = {
    "bernoulli": (_immigration("bernoulli", "1*(n+1)^-1"), 3),
    "bernoulli_n200": (_immigration("bernoulli", "1*(n+1)^-1"), 200),
    "poisson": (_immigration("poisson", "2*(n+1)^-1"), 3),
    "poisson_n200": (_immigration("poisson", "2*(n+1)^-1"), 200),
    # mean 5: the conditional binomials run well past the mode
    "poisson_heavy": (_immigration("poisson", "5"), 1),
    "custom_delta2": (_immigration("custom", "2*(n+1)^-1", [0.0, 0.0, 1.0]), 3),
    "custom_log_two": (_immigration("custom", "1*n^-1", log_two_base(64)), 2),
    # the base law's most likely value is inside its support
    "custom_interior": (_immigration("custom", "1*(n+1)^-1", [0.1, 0.3, 0.4, 0.2]), 1),
    # one nonzero entry, not the last: every mixed arrival brings one immigrant
    "custom_point": (_immigration("custom", "1*(n+1)^-1", [0.0, 1.0, 0.0, 0.0]), 1),
}


@pytest.mark.parametrize("case", sorted(IMMIGRATION_CASES))
def test_immigration_sampler_draws_the_exact_law(case):
    imm, n = IMMIGRATION_CASES[case]
    out = sample_dense(imm, n, START.copy(), np.random.default_rng([7, n]))
    law = imm.pmf(n, 64)
    assert law.deficiency < 1e-12
    assert _split_pvalue(out, START, lambda s: law.coeffs) > P_FLOOR


@pytest.mark.parametrize("kind", ["bernoulli", "poisson", "custom"])
def test_immigration_sampler_with_zero_rate(kind):
    imm = _immigration(kind, "0", [0.0, 0.0, 1.0] if kind == "custom" else None)
    out = sample_dense(imm, 4, START.copy(), np.random.default_rng(2))
    assert np.array_equal(out[:, 0], START) and not np.any(out[:, 1:])


def test_mixture_weight_above_one_is_rejected_by_sampler_and_pmf():
    imm = _immigration("custom", "5*(n+1)^-1", [0.0, 0.0, 1.0])
    for call in (lambda: imm.pmf(1, 8),
                 lambda: sample_dense(imm, 1, np.array([10]), np.random.default_rng(0))):
        with pytest.raises(ScenarioValidationError, match="mixture weight 1.25"):
            call()


@pytest.mark.parametrize("lam", [0.0, 1e-9, 0.3, 2.0, 40.0])
def test_poisson_hazard_matches_the_exact_tail(lam):
    for k in range(0, 60):
        sf = stats.poisson.sf(k - 1, lam)
        if sf < 1e-250:
            break
        want = stats.poisson.pmf(k, lam) / sf
        assert families._poisson_hazard(lam, k) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.01, 0.5, 0.9])
def test_nb_hazard_matches_the_exact_tail(beta):
    ms = np.arange(0, 9)
    for y in range(0, 40):
        got = families._nb_hazard(ms, beta, y)
        assert got[0] == 1.0  # no producers, no extra children
        sf = stats.nbinom.sf(y - 1, ms[1:], 1.0 - beta)
        ok = sf > 1e-250
        want = stats.nbinom.pmf(y, ms[1:][ok], 1.0 - beta) / sf[ok]
        assert np.allclose(got[1:][ok], want, rtol=1e-10, atol=0.0)


def test_binomial_cells_handles_large_states():
    # a state of 1100 parents: relative binomial weights reach
    # C(1100, 550) ~ 1e329, beyond the float range, and stay finite through
    # the log scaling
    h = np.zeros(1101, dtype=np.int64)
    h[[3, 1100]] = [7, 4000]
    rng = np.random.default_rng(4)
    fam = _offspring("bernoulli", c=0.5, n0=0.0)  # q = 1/2 at n = 1
    out = sample_dense(fam, 1, h, rng)
    assert np.array_equal(out.sum(axis=1), h)
    assert _split_pvalue(out, h, lambda s: stats.binom.pmf(np.arange(s + 1), s, 0.5)
                         ) > P_FLOOR


# one family of each kind, for the table tests
_TABLE_OFFSPRING = {
    "bernoulli": BernoulliOffspring(rho_rule=RhoRule(c=1.0, gamma=0.7, n0=1.0)),
    "quadratic": QuadraticOffspring(rho_rule=RhoRule(c=1.0, gamma=0.7, n0=0.0), nu=3.0),
    "linear_fractional": LinearFractionalOffspring(
        rho_rule=RhoRule(c=1.0, gamma=0.7, n0=1.0), nu=1.3),
    # the width of the law changes with n: rows are zero-padded
    "custom": CustomOffspring(
        table=lambda n: np.array([0.3, 0.5, 0.2] if n % 3 else [0.4, 0.6])),
}
_TABLE_IMMIGRATION = {
    "bernoulli": BernoulliImmigration(m1=PowerSum.parse("2*n^-0.8")),
    "poisson": PoissonImmigration(m1=PowerSum.parse("3*(n+1)^-0.8")),
    "custom": CustomImmigration(m1=PowerSum.parse("1*(n+1)^-0.8"),
                                base=tuple(log_two_base(48)), base_name="log_two"),
}
_TABLE_NS = np.concatenate([np.arange(1, 40), [511, 512, 513, 1024, 5000]])


@pytest.mark.parametrize("k_trunc", [1, 2, 3, 20, 64])
@pytest.mark.parametrize("side, kind", [("offspring", k) for k in _TABLE_OFFSPRING]
                         + [("immigration", k) for k in _TABLE_IMMIGRATION])
def test_table_rows_are_the_scalar_pmfs(side, kind, k_trunc):
    fam = (_TABLE_OFFSPRING if side == "offspring" else _TABLE_IMMIGRATION)[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # early Bernoulli rates are clamped
        table = fam.pmf(_TABLE_NS, k_trunc)
        laws = [fam.pmf(int(n), k_trunc) for n in _TABLE_NS]
    assert type(table) is np.ndarray and table.shape[0] == _TABLE_NS.shape[0]
    for row, law in zip(table, laws):
        assert isinstance(law, pgf.Pmf)
        width = law.coeffs.shape[0]
        assert np.array_equal(row[:width], law.coeffs)
        assert not row[width:].any()


def test_lf_rows_match_the_geometric_oracle():
    fam = _TABLE_OFFSPRING["linear_fractional"]
    table = fam.pmf(_TABLE_NS, 64)
    alpha, beta = fam.params(_TABLE_NS)
    for row, a, b, n in zip(table, alpha, beta, _TABLE_NS):
        # the same (alpha, beta) give the same coefficients
        assert np.array_equal(row, lf_pmf_coeffs((a, b), 64))
        # the scalar parameter rule differs from the array rule by an ulp in
        # (alpha, beta), which p_k = alpha beta^(k-1) scales by at most k
        want = lf_pmf_coeffs(tuple(map(float, fam.params(int(n)))), 64)
        assert np.all(np.abs(row - want) <= 64 * 4 * np.finfo(float).eps * want)


# a row no law may hold, each against a valid row for the other generations
_BAD_ROWS = {
    "negative_beyond_clamp": [0.5, -1e-9, 0.5],
    "mass_above_slack": [0.7, 0.4, 0.0],
    "nan": [0.5, math.nan, 0.25],
}


@pytest.mark.parametrize("bad", _BAD_ROWS)
def test_bad_custom_row_is_rejected_by_the_table_as_by_pmf(bad):
    row = np.array(_BAD_ROWS[bad])
    fam = CustomOffspring(
        table=lambda n: row if n == 3 else np.array([0.2, 0.5, 0.3]))
    with pytest.raises(NotADistributionError) as by_pmf:
        pgf.Pmf(row)
    with pytest.raises(NotADistributionError) as by_table:
        fam.pmf(np.arange(1, 6), 8)
    assert type(by_table.value) is type(by_pmf.value)
    with pytest.raises(NotADistributionError):
        fam.pmf(3, 8)
    assert isinstance(fam.pmf(np.arange(4, 9), 8), np.ndarray)


def test_a_table_warns_when_any_generation_is_clamped():
    imm = _TABLE_IMMIGRATION["bernoulli"]  # w_n = 2 n^-0.8 exceeds 1 up to n = 2
    with pytest.warns(UserWarning, match="clamped"):
        table = imm.pmf(np.array([7, 50, 2]), 4)
    assert table[2].tolist() == [0.0, 1.0]  # the base law is the point mass at 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        imm.pmf(np.arange(3, 600), 4)


_RULE, _M1 = RhoRule(c=1.0, gamma=1.0, n0=1.0), PowerSum.parse("1*(n+1)^-1")
_TABLE = {"table": lambda n: np.array([0.5, 0.5])}
_BASE = {"base": (0.0, 1.0)}
_BASES = {"offspring": families.OffspringFamily,
          "immigration": families.ImmigrationFamily}

# (class, fields): each kind given a field its formulas never read
_UNREAD_FIELDS = {
    "custom_nu": (CustomOffspring, {**_TABLE, "nu": 3.0}),
    "custom_rho_rule": (CustomOffspring, {**_TABLE, "rho_rule": _RULE}),
    "bernoulli_table": (BernoulliOffspring, {"rho_rule": _RULE, **_TABLE}),
    "quadratic_table": (QuadraticOffspring, {"rho_rule": _RULE, **_TABLE}),
    "lf_table": (LinearFractionalOffspring, {"rho_rule": _RULE, **_TABLE}),
    "poisson_base": (PoissonImmigration, {"m1": _M1, **_BASE}),
    "poisson_base_name": (PoissonImmigration, {"m1": _M1, "base_name": "log_two"}),
    "bernoulli_base": (BernoulliImmigration, {"m1": _M1, **_BASE}),
    "bernoulli_base_name": (BernoulliImmigration,
                            {"m1": _M1, "base_name": "log_two"}),
}


@pytest.mark.parametrize("case", _UNREAD_FIELDS)
def test_a_kind_takes_no_field_it_does_not_read(case):
    cls, fields = _UNREAD_FIELDS[case]
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(**fields)
    with pytest.raises(TypeError, match="unexpected keyword"):
        _BASES[cls.role](kind=cls.kind, **fields)


def test_bernoulli_offspring_takes_only_nu_zero():
    assert BernoulliOffspring(rho_rule=_RULE, nu=0.0) == BernoulliOffspring(_RULE)
    with pytest.raises(ScenarioValidationError, match="forces nu = 0"):
        BernoulliOffspring(rho_rule=_RULE, nu=3.0)


def test_a_base_named_with_kind_builds_that_kinds_class():
    for role, base in _BASES.items():
        for name, cls in FAMILIES[role].items():
            assert cls.kind == name and issubclass(cls, base)
    assert (families.OffspringFamily(kind="bernoulli", rho_rule=_RULE)
            == BernoulliOffspring(rho_rule=_RULE))
    assert (families.ImmigrationFamily(kind="poisson", m1=_M1)
            == PoissonImmigration(m1=_M1))
    with pytest.raises(ScenarioValidationError, match="unknown offspring family 'foo'"):
        families.OffspringFamily(kind="foo", rho_rule=_RULE)
