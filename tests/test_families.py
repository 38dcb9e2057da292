import numpy as np
import pytest

from conftest import make_spec
from nearcrit import pgf
from nearcrit.errors import ScenarioValidationError
from nearcrit.families import (
    ImmigrationFamily,
    NegativeBinomialLimit,
    OffspringFamily,
    PoissonLimit,
    PowerSum,
    ProductLimit,
    RhoRule,
    ScenarioSpec,
    classify,
    condition_ratios,
    log_two_base,
)


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


def test_power_sum_tail_bound_dominates():
    rule = PowerSum.parse("1*n^-2 + 1*n^-3")
    tail = sum(float(rule.at(n)) for n in range(101, 100000))
    assert tail <= rule.tail_bound(100)
    assert rule.tail_bound(100) <= tail * 1.05


def test_rho_rule_guards():
    with pytest.raises(ScenarioValidationError):
        RhoRule(c=2.0, gamma=1.0, n0=0.0)  # rho_1 < 0
    with pytest.raises(ScenarioValidationError):
        RhoRule(c=1.0, gamma=0.0)
    assert RhoRule(c=1.0, gamma=1.0, n0=1.0).divergent_sum()
    assert not RhoRule(c=1.0, gamma=2.0).divergent_sum()


def test_bernoulli_pgf_value():
    # rho_1 = 0.9 via c=0.1: G(0) = 1 - rho = 0.1
    fam = OffspringFamily(
        kind="bernoulli", rho_rule=RhoRule(c=0.1, gamma=1.0, n0=0.0)
    )
    assert fam.pgf_at(1, 0.0) == pytest.approx(0.1, abs=1e-15)
    assert fam.pgf_at(1, 0.5) == pytest.approx(0.55, abs=1e-15)


def test_quadratic_construction_and_value():
    # rho = 0.9, nu = 1: p2 = 0.05, p1 = 0.8, p0 = 0.15; G(0.5) = 0.5625
    fam = OffspringFamily(
        kind="quadratic", rho_rule=RhoRule(c=1.0, gamma=1.0, n0=9.0), nu=1.0
    )
    assert np.allclose(fam.quadratic_coeffs(1), [0.15, 0.8, 0.05], atol=1e-15)
    assert fam.pgf_at(1, 0.5) == pytest.approx(0.5625, abs=1e-15)


def test_linear_fractional_normalization_and_derivs():
    fam = OffspringFamily(
        kind="linear_fractional", rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0), nu=1.0
    )
    for n in (1, 5, 40):
        rho = float(fam.rho_rule.rho(n))
        assert fam.pgf_at(n, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert fam.deriv_at_1(n, 1) == pytest.approx(rho, abs=1e-12)
        assert fam.deriv_at_1(n, 2) == pytest.approx(1.0 - rho, abs=1e-12)


def test_lf_known_parameter_pair():
    # d1 = 0.9, d2 = 0.2 inverts to alpha = 0.729, beta = 0.1, whose
    # derivatives at 1 are 0.9 and 0.2 again.
    fam = OffspringFamily(
        kind="linear_fractional", rho_rule=RhoRule(c=1.0, gamma=1.0, n0=9.0), nu=2.0
    )
    par = fam.lf_params(1)  # rho_1 = 0.9, G'' = 2*(1-0.9) = 0.2
    assert par.alpha == pytest.approx(0.729, abs=1e-15)
    assert par.beta == pytest.approx(0.1, abs=1e-15)
    assert par.deriv_at_1(1) == pytest.approx(0.9, abs=1e-12)
    assert par.deriv_at_1(2) == pytest.approx(0.2, abs=1e-12)


def test_lf_pmf_is_geometric():
    fam = OffspringFamily(
        kind="linear_fractional", rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0), nu=1.0
    )
    par = fam.lf_params(3)
    p = fam.pmf(3, 30)
    ks = np.arange(1, 30)
    assert np.max(
        np.abs(p.coeffs[1:] - par.alpha * par.beta ** (ks - 1))
    ) <= 1e-12
    assert p.coeffs[0] == pytest.approx(1.0 - par.alpha / (1.0 - par.beta), abs=1e-12)


def test_quadratic_pmf_reproduces_targets():
    fam = OffspringFamily(
        kind="quadratic", rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0), nu=0.5
    )
    for n in (1, 7, 100):
        p = fam.pmf(n, 3)
        rho = float(fam.rho_rule.rho(n))
        assert pgf.factorial_moment(p, 1) == pytest.approx(rho, abs=1e-12)
        assert pgf.factorial_moment(p, 2) == pytest.approx(
            0.5 * (1.0 - rho), abs=1e-12
        )


def test_quadratic_window_clamps_early_generations():
    fam = OffspringFamily(
        kind="quadratic", rho_rule=RhoRule(c=1.0, gamma=1.0, n0=0.0), nu=2.0
    )
    # rho_1 = 0 forces nu_eff(1) = 0; admissibility starts later
    assert float(fam.nu_eff(1)) == 0.0
    assert fam.start_offset() > 1
    p = fam.pmf(1, 3)
    assert np.all(p.coeffs >= 0)


def test_pgf_normalized_and_mean_matches_across_families():
    fams = [
        OffspringFamily(kind="bernoulli", rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0)),
        OffspringFamily(
            kind="quadratic", rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0), nu=0.7
        ),
        OffspringFamily(
            kind="linear_fractional",
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
    fam = OffspringFamily(
        kind="custom", table=lambda n: np.array([0.5 / n, 1.0 - 0.5 / n])
    )
    ns = np.arange(1, 6)
    xs = np.linspace(0.0, 1.0, 5)
    want = [0.5 / n + (1.0 - 0.5 / n) * x for n, x in zip(ns, xs)]
    assert np.allclose(fam.pgf_at(ns, xs), want, rtol=0.0, atol=1e-15)
    assert np.allclose(fam.pgf_at(ns, 0.5), [fam.pgf_at(int(n), 0.5) for n in ns],
                       rtol=0.0, atol=0.0)
    assert isinstance(fam.pgf_at(3, 0.5), float)


def test_lf_pmf_expansion_matches_function_values():
    # dual route: the geometric coefficient formula against direct
    # evaluation of the rational generating function
    fam = OffspringFamily(
        kind="linear_fractional", rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0), nu=1.0
    )
    p = fam.pmf(4, 200)
    for x in (0.0, 0.3, 0.8, 1.0):
        series_val = float(np.polyval(p.coeffs[::-1], x))
        assert series_val == pytest.approx(fam.pgf_at(4, x), abs=1e-12)


def test_immigration_moments_by_kind():
    rule = PowerSum.parse("1*(n+1)^-1")
    bern = ImmigrationFamily(kind="bernoulli", m1=rule)
    assert bern.factorial_moment_at(5, 1) == pytest.approx(1 / 6)
    assert bern.factorial_moment_at(5, 2) == 0.0
    poi = ImmigrationFamily(kind="poisson", m1=rule)
    assert poi.factorial_moment_at(5, 2) == pytest.approx((1 / 6) ** 2)
    mix = ImmigrationFamily(
        kind="custom", m1=rule, base=tuple(log_two_base(64)), base_name="log_two"
    )
    # the base has k-th factorial moment (k-1)!, so m_{n,k} = (k-1)!/(n+1)
    assert mix.factorial_moment_at(5, 1) == pytest.approx(1 / 6, abs=1e-12)
    assert mix.factorial_moment_at(5, 3) == pytest.approx(2 / 6, abs=1e-10)


def test_immigration_mixture_pmf_mass():
    rule = PowerSum.parse("1*n^-1")
    mix = ImmigrationFamily(
        kind="custom", m1=rule, base=tuple(log_two_base(64)), base_name="log_two"
    )
    p = mix.pmf(3, 64)
    assert p.coeffs.sum() + p.deficiency == pytest.approx(1.0, abs=1e-12)
    assert pgf.factorial_moment(p, 1) == pytest.approx(1 / 3, abs=1e-12)


def test_bernoulli_rate_clamps_with_warning():
    imm = ImmigrationFamily(kind="bernoulli", m1=PowerSum.parse("2*n^-1"))
    with pytest.warns(UserWarning):
        assert imm.bernoulli_rate(1) == 1.0
    assert imm.bernoulli_rate(4) == pytest.approx(0.5)
    assert imm.mean(1) == pytest.approx(2.0)  # declared mean is never clamped


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


def test_classify_product_regime():
    spec = make_spec(
        gamma=2.0, n0=0.0, m1="1*n^-2 + 1*n^-3", divergent=False
    )
    assert classify(spec) == ProductLimit()


def test_classify_outside_scope_for_fat_second_moments():
    # nu > 0 with immigration whose m2/(1-rho) does not vanish
    spec = ScenarioSpec(
        offspring=OffspringFamily(
            kind="quadratic", rho_rule=RhoRule(c=1.0, gamma=1.0, n0=1.0), nu=1.0
        ),
        immigration=ImmigrationFamily(
            kind="custom",
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
    notes = spec.validate()
    assert any("lambda" in note for note in notes)


def test_validate_rejects_divergence_contradiction():
    with pytest.raises(ScenarioValidationError):
        make_spec(gamma=2.0, n0=0.0, divergent=True).validate()
    with pytest.raises(ScenarioValidationError):
        make_spec(gamma=1.0, divergent=False).validate()
