import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from conftest import make_spec
from nearcrit import engine, limits, pgf
from nearcrit.diagnostics import report, tv_distance
from nearcrit.errors import (
    NotADistributionError,
    SeriesDivergenceError,
    WrongRegimeError,
)
from nearcrit.families import (
    GeneralExpLimit,
    NegativeBinomialLimit,
    PowerSum,
    ProductLimit,
    classify,
)
from nearcrit.linfrac import chain_product
from nearcrit.scenarios import fixture_text, load_fixture, parse_scenario_text
from oracles import general_limit_pgf


def test_poisson_pmf_degenerate_and_values():
    assert limits.poisson_pmf(0.0, 4).coeffs[0] == 1.0
    p = limits.poisson_pmf(1.0, 30)
    assert p.coeffs[0] == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert np.max(np.abs(p.coeffs - stats.poisson.pmf(np.arange(30), 1.0))) < 1e-13


def test_poisson_pmf_mean():
    p = limits.poisson_pmf(2.0, 80)
    assert pgf.factorial_moment(p, 1) == pytest.approx(2.0, abs=1e-12)


def test_nb_params_formula_and_guards():
    par = NegativeBinomialLimit.from_limits(1.0, 1.0)
    assert (par.r, par.p) == (2.0, pytest.approx(1.0 / 3.0))
    with pytest.raises(ValueError):
        NegativeBinomialLimit.from_limits(1.0, 0.0)
    with pytest.raises(ValueError):
        NegativeBinomialLimit.from_limits(0.0, 1.0)


def test_nb_params_is_the_classified_negative_binomial_law():
    spec = load_fixture("thm5_nb").spec
    law = classify(spec)
    const = spec.constants()
    par = NegativeBinomialLimit.from_limits(const.lam, const.nu)
    assert isinstance(par, NegativeBinomialLimit)
    assert (par.r, par.p) == (law.r, law.p)


def test_nb_pmf_guards_its_parameters():
    for r, p in ((0.0, 0.5), (-1.0, 0.5), (2.0, 0.0), (2.0, 1.0)):
        with pytest.raises(ValueError, match=r"need r > 0 and p in \(0, 1\)"):
            limits.nb_pmf(r, p, 8)


def test_nb_pmf_against_scipy():
    p = limits.nb_pmf(2.0, 1.0 / 3.0, 60)
    want = stats.nbinom.pmf(np.arange(60), 2.0, 2.0 / 3.0)
    assert np.max(np.abs(p.coeffs - want)) < 1e-14
    assert p.coeffs[0] == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_nb_pmf_mean_matches_poisson_regime_mean():
    for lam, nu in ((1.0, 1.0), (2.5, 0.4)):
        par = NegativeBinomialLimit.from_limits(lam, nu)
        p = limits.nb_pmf(par.r, par.p, 400)
        assert pgf.factorial_moment(p, 1) == pytest.approx(lam, abs=1e-10)


def test_nb_to_poisson_continuity():
    par = NegativeBinomialLimit.from_limits(1.0, 1e-6)
    nb = limits.nb_pmf(par.r, par.p, 80)
    poi = limits.poisson_pmf(1.0, 80)
    assert tv_distance(nb, poi) <= 1e-5


def test_cp_intensity_finite_worked_example():
    lambdas = load_fixture("thm3_cp_finite").spec.lambda_seq
    assert lambdas == (2.0, 1.0, 0.0)
    assert limits.cp_intensity_finite(lambdas).atoms.tolist() == [1.0, 0.5]


def test_cp_intensity_finite_poisson_consistency():
    measure = limits.cp_intensity_finite((1.5, 0.0, 0.0))
    assert measure.atoms[0] == pytest.approx(1.5, abs=1e-15)
    assert measure.atoms[1] == 0.0
    short = limits.cp_intensity_finite((1.5, 0.0))
    assert short.atoms[0] == pytest.approx(1.5, abs=1e-15)


def test_cp_intensity_finite_guards():
    with pytest.raises(ValueError):
        limits.cp_intensity_finite((2.0, 1.0))  # last entry nonzero
    with pytest.raises(ValueError):
        limits.cp_intensity_finite((2.0, 0.0, 1.0, 0.0))  # cascade violated
    with pytest.raises(NotADistributionError):
        limits.cp_intensity_finite((1.0, 2.0, 0.0))  # negative atom


def test_cp_intensity_series_single_atom():
    measure = limits.cp_intensity_series(
        lambda l: 1.7 if l == 1 else 0.0, tol=1e-12, j_max=4
    )
    assert measure.atoms[0] == pytest.approx(1.7, abs=1e-14)
    assert np.all(measure.atoms[1:] == 0.0)


def test_cp_intensity_series_geometric_closed_form():
    c = 0.6
    measure = limits.cp_intensity_series(lambda l: c**l, tol=1e-13, j_max=12)
    jj = np.arange(1, 13)
    want = c**jj * math.exp(-c) / np.vectorize(math.factorial)(jj)
    assert np.max(np.abs(measure.atoms - want)) < 1e-12


def test_cp_intensity_series_on_a_finite_sequence():
    # lambda = (2, 1, 0), zero beyond: the atoms of the finite form
    lam = (2.0, 1.0, 0.0)
    measure = limits.cp_intensity_series(
        lambda l: lam[l - 1] if l <= len(lam) else 0.0, tol=1e-12, j_max=8
    )
    assert list(measure.atoms[:2]) == list(limits.cp_intensity_finite(lam).atoms)
    assert list(measure.atoms[:2]) == [1.0, 0.5]
    assert np.all(measure.atoms[2:] == 0.0)


def test_cp_intensity_series_applies_the_cascade_rule_at_a_zero():
    # lambda_2 = 0 followed by lambda_3 = 1/3 > 0: the finite form rejects
    # the sequence, and the series form must not cut it silently at l = 2
    rule = lambda l: 0.0 if l == 2 else 1.0 / l  # noqa: E731
    with pytest.raises(ValueError, match="lambda_3 > 0 after lambda_2 = 0"):
        limits.cp_intensity_finite([1.0, 0.0, 1.0 / 3.0, 0.0])
    with pytest.raises(ValueError, match="lambda_3 > 0 after lambda_2 = 0"):
        limits.cp_intensity_series(rule, tol=1e-10, j_max=4)
    with pytest.raises(ValueError, match="lambda_3 > 0 after lambda_2 = 0"):
        limits.general_limit_pmf(lambda l: rule(l) / math.factorial(l), 8)


@pytest.mark.parametrize("r", [0.375, 0.4, 0.45])
def test_cp_intensity_series_cut_before_the_terms_leave_the_float_range(r):
    # lambda_l = l! r^l, so c_l = r^l and mu{j} = r^j/(1 + r)^(j+1). The cut
    # near l = 100 checks the terms after it up to the first that cannot be
    # a float: l! past l = 170 (r = 0.375), lambda_l itself past l = 206
    # (r = 0.4). At r = 0.45 the cut needs terms past l = 170, where c_l is
    # a float though l! is not
    measure = limits.cp_intensity_series(
        lambda l: math.exp(l * math.log(r) + math.lgamma(l + 1)), tol=1e-10)
    j = np.arange(1, 65)
    assert np.max(np.abs(measure.atoms - r**j / (1 + r) ** (j + 1))) <= 1e-10


def test_cp_intensity_series_divergence_signal():
    with pytest.raises(SeriesDivergenceError):
        limits.cp_intensity_series(
            lambda l: math.factorial(l - 1) / l, tol=1e-8, j_max=4
        )


def test_log_series_intensity_values():
    # mu{j}, the last atom of the measure cut at j
    vals = [float(limits.log_series_measure(j).atoms[-1]) for j in range(1, 65)]
    assert vals[0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert vals[1] == pytest.approx((math.log(2.0) - 0.5) / 2.0, abs=1e-15)
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_log_series_atoms_match_exact_tail_sums():
    # mu{j} = (1/j) sum_{k>=j} 1/(k 2^k); the rational sum over k < j + 150
    # leaves out less than 2^-149 of the tail
    measure = limits.log_series_measure(64)
    for j in range(1, 65):
        exact = sum(Fraction(1, k * 2**k) for k in range(j, j + 150)) / j
        for got in (measure.atoms[j - 1], limits.log_series_measure(j).atoms[-1]):
            assert abs(Fraction(got) - exact) <= Fraction(1, 10**15) * exact


def test_log_series_paths_agree_on_grid():
    # compound Poisson atoms versus direct centered-series evaluation
    measure = limits.log_series_measure(64)
    # lambda_l / l! of the fixture's log-series rule, lambda_l = (l - 1)!/l
    assert load_fixture("thm4_log2").spec.lambda_rule == "log_series"
    for x in np.arange(0.0, 1.0, 0.1):
        a = measure.pgf_at(float(x))
        b = general_limit_pgf(lambda l: 1.0 / l**2, float(x), tol=1e-10)
        assert a == pytest.approx(b, abs=1e-8)


def test_log_series_limit_scales_with_lambda():
    # m1 = 0.5/n against 1 - rho_n = 1/n: lambda = 0.5, so lambda_l =
    # 0.5 (l - 1)!/l and every atom is half the lambda = 1 atom
    spec = parse_scenario_text(fixture_text("thm4_log2").replace(
        "1*n^-1", "0.5*n^-1").replace("limits.lambda = 1", "limits.lambda = 0.5")).spec
    law = classify(spec)
    assert law == GeneralExpLimit("log_series", 0.5)
    atoms = limits.limit_atoms(law)
    assert np.array_equal(atoms.atoms, 0.5 * limits.log_series_measure().atoms)
    assert abs(atoms.pgf_at(0.0) - 0.6628321) <= 1e-6  # exp(-pi^2/24)
    assert limits.limit_moments(law, spec) == (0.5, 0.5)
    tv = [row.tv for row in report(spec, [100, 1000], 128).rows]
    assert tv[1] < 1e-4 and 5 * tv[1] <= tv[0]


def test_cp_consistency_for_convergent_series():
    # exp{sum mu_j (x^j - 1)} == exp{sum lambda_l (x-1)^l / l!} when the
    # intensity series converges (geometric lambda)
    c = 0.6
    measure = limits.cp_intensity_series(lambda l: c**l, tol=1e-13, j_max=40)

    def c_rule(l):
        return c**l / math.factorial(l)

    for x in np.arange(0.0, 1.01, 0.25):
        assert measure.pgf_at(float(x)) == pytest.approx(
            general_limit_pgf(c_rule, float(x), tol=1e-12), abs=1e-8
        )


def test_general_limit_pmf_poisson_special_case():
    out = limits.general_limit_pmf(
        lambda l: 1.3 if l == 1 else 0.0, 40, tol=1e-12
    )
    assert tv_distance(out, limits.poisson_pmf(1.3, 40)) < 1e-12


def test_general_limit_pmf_matches_nb():
    for lam, nu in ((1.0, 1.0), (2.0, 0.5)):
        par = NegativeBinomialLimit.from_limits(lam, nu)

        def c_rule(l, lam=lam, nu=nu):
            return lam * (nu / 2.0) ** (l - 1) / l

        got = limits.general_limit_pmf(c_rule, 200, tol=1e-10)
        want = limits.nb_pmf(par.r, par.p, 200)
        assert tv_distance(got, want) <= 1e-9
        if nu == 1.0:
            # 541 centered terms: the basis change, not the cut of
            # the series at tol, sets each coefficient's relative error
            big = want.coeffs > 1e-12
            rel = np.abs(got.coeffs[big] - want.coeffs[big]) / want.coeffs[big]
            assert rel.max() <= 1e-6


def test_general_limit_pmf_value_at_zero_for_divergent_cp():
    got = limits.general_limit_pmf(lambda l: 1.0 / l**2, 1, tol=1e-4)
    assert got.coeffs[0] == pytest.approx(math.exp(-math.pi**2 / 12.0), abs=1e-5)


def test_general_limit_pmf_signals_non_truncatable():
    with pytest.raises(SeriesDivergenceError):
        limits.general_limit_pmf(lambda l: 1.0 / l**2, 8, tol=1e-6)


def test_general_limit_pmf_does_not_end_at_one_small_term():
    # lambda_l = 1/l except lambda_3 = 1e-30: c_3 moves no column, but c_4
    # moves one by 0.0625; a cut at l = 3 gave 0.4724, 0.2362, 0.1771
    def c_rule(l):
        return (1e-30 if l == 3 else 1.0 / l) / math.factorial(l)

    got = limits.general_limit_pmf(c_rule, 8)
    full = [0.0] + [c_rule(l) for l in range(1, 61)]
    want = pgf.exp_series(pgf.taylor_shift(full, -1.0, 8), 8)
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-10
    assert got.coeffs[:3] == pytest.approx([0.4766, 0.2218, 0.1940], abs=1e-4)


def test_cp_pmf_composes_with_poisson():
    measure = limits.cp_intensity_finite((1.5, 0.0))
    out = limits.cp_pmf(measure, 40)
    assert tv_distance(out, limits.poisson_pmf(1.5, 40)) < 1e-12


def test_product_law_requires_convergent_regime():
    spec = make_spec(m1="2*(n+1)^-1", lam=2.0)  # divergent
    with pytest.raises(WrongRegimeError):
        limits.product_law_eval(spec, 0.5)


@pytest.mark.parametrize("m1", ["1*n^-0.5", "1*n^-1"])
def test_product_law_requires_summable_immigration_means(m1):
    # thm6_example1's offspring: sum(1 - rho_n) < inf, but sum m_{n,1} = inf;
    # n^-0.5 gave a negative mean and n^-1 a ZeroDivisionError before the check
    base = load_fixture("thm6_example1").spec
    spec = dataclasses.replace(
        base, immigration=dataclasses.replace(base.immigration, m1=PowerSum.parse(m1)))
    with pytest.raises(WrongRegimeError, match="summable immigration means"):
        limits.product_law_eval(spec, 0.5, 1e-6)
    with pytest.raises(WrongRegimeError, match="summable immigration means"):
        limits.product_law_mean(spec)
    with pytest.raises(WrongRegimeError, match="summable immigration means"):
        limits.limit_moments(ProductLimit(), spec)


def test_product_law_at_one():
    spec = load_fixture("thm6_example1").spec
    assert limits.product_law_eval(spec, 1.0) == 1.0


def test_product_law_example1_closed_form():
    spec = load_fixture("thm6_example1").spec
    for x in (0.0, 0.25, 0.5, 0.75, 0.95):
        got = limits.product_law_eval(spec, x, tol=1e-7)
        want = limits.inverse_square_product_pgf(x)
        assert got == pytest.approx(want, abs=1e-6)


def test_product_law_example2_poisson_mean():
    spec = load_fixture("thm6_example2").spec
    mean = limits.product_law_mean(spec, tol=1e-7)
    assert mean == pytest.approx(math.pi**2 / 6.0, abs=1e-6)


def test_product_law_generic_path_matches_affine_fast_path():
    # quadratic offspring in the convergent regime exercises the horizon-
    # doubling route; with nu tiny it must approach the Bernoulli value.
    # The generic route stops growing its composition horizon within tol,
    # so keep the tolerance modest.
    spec_q = make_spec(
        "quadratic", gamma=2.0, n0=1.0, nu=1e-9, m1="1*n^-2", lam=1.0,
        divergent=False,
    )
    spec_b = make_spec(
        gamma=2.0, n0=1.0, m1="1*n^-2", lam=1.0, divergent=False
    )
    for x in (0.2, 0.6):
        a = limits.product_law_eval(spec_q, x, tol=1e-4)
        b = limits.product_law_eval(spec_b, x, tol=1e-4)
        assert a == pytest.approx(b, abs=1e-3)


def test_composed_eval_monotone_in_horizon():
    # Gbar_{j+1,N}(x) is nondecreasing in N (the product-law existence fact)
    spec = make_spec(
        "quadratic", gamma=2.0, n0=1.0, nu=0.5, m1="1*n^-2", lam=1.0,
        divergent=False,
    )
    x = 0.3
    prev = engine.composed_eval_all(spec, 20, x)[:11]
    for horizon in (40, 80, 160):
        cur = engine.composed_eval_all(spec, horizon, x)[:11]
        assert all(c >= p - 1e-15 for c, p in zip(cur, prev))
        prev = cur


def test_inverse_square_product_closed_form_values():
    assert limits.inverse_square_product_pgf(1.0) == 1.0
    assert limits.inverse_square_product_pgf(0.0) == pytest.approx(0.0, abs=1e-15)
    assert limits.inverse_square_product_pgf(0.75) == pytest.approx(
        2.0 / math.pi, abs=1e-14
    )


def test_example1_chain_product_closed_form():
    spec = load_fixture("thm6_example1").spec
    for n in (2, 10, 100, 1000):
        assert chain_product(spec, 1, n) == pytest.approx(
            (n + 1) / (2.0 * n), rel=1e-12
        )
