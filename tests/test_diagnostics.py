import json
import math
import warnings
from dataclasses import asdict, astuple

import numpy as np
import pytest
from scipy import stats

from conftest import constant_spec, make_spec
from nearcrit import engine, limits, pgf, scenarios
from nearcrit.diagnostics import (
    _chord_slopes,
    accompanying_gap_bound,
    report,
    riemann_gap,
    toeplitz_weights,
    tv_distance,
)
from nearcrit.errors import WrongRegimeError
from nearcrit.families import (
    CompoundPoissonLimit,
    CustomImmigration,
    QuadraticOffspring,
    RhoRule,
    condition_ratios,
)
from nearcrit.linfrac import chain_logs, chain_product
from nearcrit.scenarios import load_fixture
from oracles import accompanying_eval, vartheta


def bern(p):
    return pgf.Pmf(np.array([1.0 - p, p]))


def test_tv_zero_on_equal_inputs():
    p = bern(0.3)
    assert tv_distance(p, p) == 0.0


def test_tv_two_point_vs_point_mass():
    assert tv_distance(bern(0.5), pgf.Pmf.delta(0)) == pytest.approx(0.5)


def test_tv_poisson_pair_frozen_oracle():
    # direct summation over k < 60 with scipy pmfs gives 0.0367296...
    a = limits.poisson_pmf(1.0, 60)
    b = limits.poisson_pmf(1.1, 60)
    got = tv_distance(a, b)
    k = np.arange(60)
    pa = stats.poisson.pmf(k, 1.0)
    pb = stats.poisson.pmf(k, 1.1)
    oracle = 0.5 * (np.abs(pa - pb).sum() + abs(pa.sum() - pb.sum()))
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(0.03672960657, abs=1e-9)


def test_tv_handles_unequal_lengths_and_deficiency():
    a = pgf.Pmf(np.array([0.5, 0.25]))  # deficiency 0.25
    b = pgf.Pmf(np.array([0.5, 0.25, 0.25]))
    assert tv_distance(a, b) == pytest.approx(0.25)


def test_tv_metric_properties():
    rng = np.random.default_rng(0)
    for _ in range(25):
        raw = rng.random((3, 5))
        ps = [pgf.Pmf(row / row.sum()) for row in raw]
        a, b, c = ps
        assert tv_distance(a, b) == pytest.approx(tv_distance(b, a), abs=1e-15)
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


def test_toeplitz_constant_rho_geometric():
    rho = 0.8
    spec = constant_spec(rho, 0.1)
    for n in (1, 4, 9):
        rho_sum, _ = toeplitz_weights(spec, n)
        assert rho_sum == pytest.approx(1.0 - rho**n, abs=1e-14)


def test_toeplitz_hand_example():
    # rho_j = 1 - 1/(j+1): at n = 3 the product is 1/4, the sum 3/4
    spec = make_spec()
    rho_sum, theta_sum = toeplitz_weights(spec, 3)
    assert rho_sum == pytest.approx(0.75, abs=1e-14)
    assert theta_sum == pytest.approx(0.75, abs=1e-14)  # Bernoulli: equal


def test_toeplitz_exposes_convergent_regime():
    # rho_j = 1 - 1/(j+1)^2: the weight sum stalls at 1 - prod rho = 1/2
    spec = make_spec(gamma=2.0, n0=1.0, m1="1*n^-2", divergent=False)
    rho_sum, _ = toeplitz_weights(spec, 2000)
    assert rho_sum == pytest.approx(0.5, abs=1e-3)


def test_toeplitz_telescoping_identity_on_fixtures():
    for name in ("thm1_poisson", "thm5_nb", "thm4_log2", "thm6_example1"):
        spec = load_fixture(name).spec
        for n in (1, 7, 50):
            rho_sum, _ = toeplitz_weights(spec, n)
            rho1 = float(spec.offspring.mean(1))
            want = 1.0 - rho1 * chain_product(spec, 1, n)
            assert rho_sum == pytest.approx(want, abs=1e-14)


def test_vartheta_bernoulli_equals_rho():
    spec = make_spec()
    for j, n in ((1, 5), (3, 9)):
        assert vartheta(spec, j, n) == pytest.approx(
            float(spec.offspring.rho_rule.rho(j)), abs=1e-14
        )


def test_vartheta_quadratic_chord_value():
    # G with rho = 0.9, nu = 1 evaluated at 1 - 0.5: (1 - 0.5625)/0.5
    fam = QuadraticOffspring(
        rho_rule=RhoRule(c=1.0, gamma=1.0, n0=9.0), nu=1.0
    )
    chord = (1.0 - fam.pgf_at(1, 0.5)) / 0.5
    assert chord == pytest.approx(0.875, abs=1e-15)


def test_vartheta_bounded_by_rho_and_curvature():
    rng = np.random.default_rng(1)
    spec = make_spec("quadratic", nu=0.8, m1="1*(n+1)^-1")
    n = 40
    for j in rng.integers(1, n + 1, size=12):
        j = int(j)
        theta = vartheta(spec, j, n)
        rho_j = float(spec.offspring.rho_rule.rho(j))
        assert 0.0 < theta <= rho_j + 1e-15
        slack = chain_product(spec, j, n) * spec.offspring.deriv_at_1(j, 2)
        assert rho_j - theta <= slack + 1e-12


def test_vartheta_sum_below_rho_sum():
    spec = make_spec("quadratic", nu=0.8, m1="1*(n+1)^-1")
    rho_sum, theta_sum = toeplitz_weights(spec, 60)
    assert theta_sum <= rho_sum + 1e-14


def test_vartheta_all_matches_scalar_chord_slopes(fixture_specs):
    for name in ("thm1_poisson", "thm5_nb", "lf_crosscheck"):
        spec = fixture_specs[name]
        n = 150
        s = chain_logs(spec, n)
        got = _chord_slopes(spec, np.exp(s[n] - s[1:]))
        want = np.array([vartheta(spec, j, n) for j in range(1, n + 1)])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_toeplitz_sums_read_an_underflowed_chain_product():
    # sum_l log rho_l ~ -n^0.7 / 0.7 passes -745 near n = 7500, so
    # rho_[j,n] underflows to 0 for small j; the Toeplitz sums do not
    # raise: the second reads the IEEE quotient
    spec = make_spec(gamma=0.3, n0=0.0)
    rho_sum, theta_sum = toeplitz_weights(spec, 10_000)
    assert math.isfinite(rho_sum)
    assert math.isnan(theta_sum)


def test_accompanying_gap_bound_edges():
    spec = make_spec(m1="0.5", lam=0.5)
    assert accompanying_gap_bound(spec, 5, 1.0) == 0.0
    assert accompanying_gap_bound(spec, 1, 0.25) == pytest.approx(
        0.25 * 0.75**2, abs=1e-15
    )


def test_accompanying_gap_bound_dominates_measured_gap():
    from nearcrit import engine

    spec = load_fixture("thm1_poisson").spec
    n, x = 500, 0.0
    gap = abs(
        engine.pgf_via_product(spec, n, x) - accompanying_eval(spec, n, x)
    )
    assert gap <= accompanying_gap_bound(spec, n, x)


def test_riemann_sum_estimate():
    spec = make_spec(m1="1*(n+1)^-1")
    for k in range(1, 7):
        gap, allowance = riemann_gap(spec, 5, 400, k)
        assert abs(gap) <= allowance


def test_report_poisson_regime_decreases():
    spec = load_fixture("thm1_poisson").spec
    rep = report(spec, [100, 300, 1000], 64)
    tvs = [row.tv for row in rep.rows]
    assert tvs[0] + 1e-3 > tvs[1] > tvs[2] - 1e-3
    assert tvs[2] < tvs[0]
    assert rep.law.startswith("Poisson")


def test_report_nb_mean_gap_shrinks():
    spec = load_fixture("thm5_nb").spec
    rep = report(spec, [100, 1000], 64)
    assert rep.rows[1].mean_gap < rep.rows[0].mean_gap
    assert rep.rows[1].mean_gap < 5e-3


def test_report_csv_schema():
    spec = load_fixture("thm1_poisson").spec
    rep = report(spec, [10, 20], 32)
    text = rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "n,tv,mean_gap,m2_gap,bound,toeplitz"
    assert len(lines) == 3
    assert text.endswith("\n")


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_report_json_mirrors_fields(fixture_specs):
    # one report per regime, and the steep rule's ratios, which divide by
    # an underflowed 1 - rho_n. JSON (RFC 8259) has no NaN or Infinity, so
    # a value that is not finite is null: pgf_gap in the PMF regimes,
    # m2_gap in the product regime. A custom table has no rho rule, so no
    # limit constants and no report
    specs = _grid_specs(fixture_specs)
    with pytest.raises(WrongRegimeError, match="no rho rule"):
        report(specs.pop("custom_three_term"), [1, 10], 32)
    for name, spec in specs.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # clamped immigration
            rep = report(spec, [1, 10], 32, x_grid=(0.5,))
        payload = json.loads(rep.to_json(), parse_constant=_no_constant)
        for row, got in zip(rep.rows, payload["rows"]):
            got.update(ratios := got.pop("condition_ratios"))
            assert set(ratios) == set(asdict(row.ratios)), name
            want = {**asdict(row), **asdict(row.ratios)}
            assert set(got) == set(want) - {"ratios"} and None in got.values(), name
            for key, value in got.items():
                assert value == want[key] or (
                    value is None and not math.isfinite(want[key])), (name, key)


def test_report_product_regime_uses_pgf_gap():
    spec = load_fixture("thm6_example2").spec
    rep = report(spec, [50], 64, x_grid=(0.0, 0.5, 0.9))
    row = rep.rows[0]
    assert math.isfinite(row.pgf_gap)
    assert row.tv == row.pgf_gap
    assert row.tv < 0.05


def test_report_includes_mc_column_on_request():
    spec = load_fixture("thm1_poisson").spec
    rep = report(spec, [30], 64, reps=20_000, seed=7)
    assert rep.rows[0].mc_tv is not None
    assert rep.rows[0].mc_tv < 0.05
    text = rep.to_csv(include_mc=True)
    assert text.splitlines()[0].endswith(",mc_tv")


def test_report_mc_rows_are_their_own_simulate_runs():
    # one run to the largest n serves every row, drawn as the per-row runs
    spec = load_fixture("thm1_poisson").spec
    rep = report(spec, [40, 10, 25], 64, reps=20_000, seed=7)
    states = engine.propagate_sequence(spec, [40, 10, 25], 64)
    assert [row.n for row in rep.rows] == [state.n for state in states] == [10, 25, 40]
    for row, state in zip(rep.rows, states):
        own = engine.simulate(spec, row.n, 20_000, 7)
        assert row.mc_tv == tv_distance(own, state.pmf)


def test_report_compound_poisson_regime():
    spec = load_fixture("thm3_cp_finite").spec
    rep = report(spec, [100, 1000], 64)
    assert rep.law.startswith("CompoundPoisson")
    assert rep.rows[1].tv < rep.rows[0].tv
    assert rep.rows[1].tv < 0.01


@pytest.mark.parametrize("lambdas", [(2.0, 1.0, 0.0), (1.5, 0.0, 0.0),
                                     (3.0, 2.0, 1.0, 0.0), (0.5, 0.25, 0.1, 0.0, 0.0)])
def test_compound_poisson_limit_moments_are_those_of_its_atoms(lambdas):
    spec = make_spec(lam=lambdas[0], lambda_seq=lambdas)
    atoms = limits.cp_intensity_finite(lambdas).atoms
    jj = np.arange(1, atoms.shape[0] + 1)
    mean = float(np.sum(jj * atoms))
    m2 = mean**2 + float(np.sum(jj * (jj - 1) * atoms))
    got = limits.limit_moments(CompoundPoissonLimit(lambdas), spec)
    assert got == pytest.approx((mean, m2), rel=1e-14)


def test_report_log2_regime_uses_intensity_atoms():
    spec = load_fixture("thm4_log2").spec
    rep = report(spec, [200], 128)
    row = rep.rows[0]
    assert math.isnan(row.pgf_gap)  # PMF route available via the atoms
    assert row.tv < 0.05
    assert rep.law.startswith("GeneralExp")


def test_report_product_regime_with_clamped_immigration():
    spec = load_fixture("thm6_example1").spec
    with pytest.warns(UserWarning, match="clamped"):
        rep = report(spec, [50], 64, x_grid=(0.5, 0.9))
    # the clamp at n=1 keeps the finite-n law away from the declared
    # product; the gap column reflects that honestly
    assert math.isfinite(rep.rows[0].pgf_gap)


def test_report_outside_scope_raises_wrong_regime():
    from nearcrit.families import ImmigrationFamily, PowerSum, log_two_base

    base_spec = make_spec("quadratic", nu=1.0, m1="1*(n+1)^-1", lam=1.0)
    spec = type(base_spec)(
        offspring=base_spec.offspring,
        immigration=CustomImmigration(
            m1=PowerSum.parse("1*(n+1)^-1"),
            base=tuple(log_two_base(16)),
            base_name="log_two",
        ),
        lam=1.0,
        nu=1.0,
        divergent=True,
    )
    with pytest.raises(WrongRegimeError):
        report(spec, [10], 32)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_report_rows_equal_the_scalar_helpers(fixture_specs):
    # the report reads every row from one pass to the largest n; each row
    # must still be, bit for bit, what the one-generation calls give
    grid = [40, 0, 7, 3, 7, 1]
    for name, spec in fixture_specs.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # clamped immigration
            rep = report(spec, grid, 32, x_grid=(0.5,))
        assert [row.n for row in rep.rows] == sorted(set(grid)), name
        for row in rep.rows:
            n = row.n
            assert _bits(row.toeplitz) == _bits(toeplitz_weights(spec, n)[0]), (name, n)
            assert _bits(row.bound) == _bits(accompanying_gap_bound(spec, n, 0.0)), (name, n)
            want = astuple(condition_ratios(spec, max(n, 1)))
            assert _bits(astuple(row.ratios)) == _bits(want), (name, n)


def _grid_specs(fixture_specs):
    # 1 - rho_n = n^-400 underflows to 0 from n = 7 on: inf and nan ratios
    steep = scenarios.fixture_text("thm6_example2").replace(
        "offspring.rho.gamma = 2\noffspring.rho.n0 = 0", "offspring.rho.gamma = 400")
    return {**fixture_specs,
            "custom_three_term": constant_spec(0.6, 0.3, offspring_coeffs=[0.3, 0.4, 0.3]),
            "quadratic": make_spec("quadratic", nu=0.8, m1="1*(n+1)^-1"),
            "steep": scenarios.parse_scenario_text(steep).spec}


def test_grid_helpers_equal_their_scalar_form(fixture_specs):
    ns = np.array([60, 0, 1, 2, 17, 17, 5, 33])
    for name, spec in _grid_specs(fixture_specs).items():
        rho_sums, theta_sums = toeplitz_weights(spec, ns)
        for x in (0.0, 0.3):
            bounds = accompanying_gap_bound(spec, ns, x)
            assert _bits(bounds) == _bits(
                [accompanying_gap_bound(spec, int(n), x) for n in ns]), (name, x)
        assert _bits(rho_sums) == _bits([toeplitz_weights(spec, int(n))[0] for n in ns]), name
        assert _bits(theta_sums) == _bits([toeplitz_weights(spec, int(n))[1] for n in ns]), name
        pos = ns[ns >= 1]
        grid = condition_ratios(spec, pos)
        assert len(grid) == len(pos)
        for n, row in zip(pos, grid):
            assert _bits(astuple(row)) == _bits(astuple(condition_ratios(spec, int(n)))), (name, n)


def test_grid_ratios_keep_the_ieee_quotients_of_an_underflowed_rate(fixture_specs):
    spec = _grid_specs(fixture_specs)["steep"]
    ratios = condition_ratios(spec, np.array([10, 1, 3, 40]))
    assert ratios[0].m1_ratio == ratios[3].m1_ratio == math.inf
    assert math.isfinite(ratios[1].m1_ratio) and math.isfinite(ratios[2].m1_ratio)
    assert math.isnan(ratios[0].g2_ratio) and math.isnan(ratios[3].g2_ratio)  # 0/0
    assert ratios[0].partial_sum == ratios[3].partial_sum


def test_grid_helpers_take_empty_grids_and_reject_negative_generations():
    spec = make_spec()
    assert toeplitz_weights(spec, np.array([], dtype=int))[0].shape == (0,)
    assert accompanying_gap_bound(spec, [], 0.0).shape == (0,)
    assert condition_ratios(spec, []) == ()
    with pytest.raises(ValueError):
        toeplitz_weights(spec, [3, -1])
    with pytest.raises(ValueError):
        accompanying_gap_bound(spec, -1, 0.0)
    with pytest.raises(ValueError):
        condition_ratios(spec, [2, 0])
