import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import constant_spec, make_spec
from nearcrit import diagnostics, engine, linfrac, pgf, scenarios
from nearcrit.diagnostics import accompanying_gap_bound
from nearcrit.errors import NumericError
from nearcrit.families import (
    ImmigrationFamily,
    OffspringFamily,
    PowerSum,
    RhoRule,
    ScenarioSpec,
    log_two_base,
)
from oracles import accompanying_eval, vartheta

CLOSED_FORMS = ("bernoulli", "quadratic", "linear_fractional")


def bern(p):
    return pgf.Pmf(np.array([1.0 - p, p]))


def test_step_from_empty_population_is_pure_immigration():
    imm = pgf.Pmf(np.array([0.3, 0.2, 0.5]))
    out = engine.step(pgf.Pmf.delta(0), bern(0.5), imm, 3)
    assert np.allclose(out.coeffs, imm.coeffs, atol=1e-15)


def test_step_identity_offspring_no_immigration():
    prev = pgf.Pmf(np.array([0.25, 0.5, 0.25]))
    out = engine.step(prev, pgf.Pmf.delta(1), pgf.Pmf.delta(0), 3)
    assert np.allclose(out.coeffs, prev.coeffs, atol=1e-15)


def test_step_hand_convolution():
    out = engine.step(bern(0.4), bern(0.5), bern(0.1), 3)
    assert np.allclose(out.coeffs, [0.72, 0.26, 0.02], atol=1e-15)


def test_propagate_zero_generations():
    spec = make_spec()
    state = engine.propagate(spec, 0, 8)
    assert state.pmf.coeffs[0] == 1.0
    assert state.cumulative_deficiency == 0.0


def test_propagate_one_generation_is_immigration():
    spec = make_spec(m1="0.5", lam=0.5)
    state = engine.propagate(spec, 1, 8)
    assert np.allclose(state.pmf.coeffs[:2], [0.5, 0.5], atol=1e-15)


def test_propagate_two_steps_constant_rates():
    # constant rho, m: P(X_2 = 0) = (1-m)(1-m rho)
    rho, m = 0.6, 0.3
    spec = constant_spec(rho, m)
    state = engine.propagate(spec, 2, 8)
    assert state.pmf.coeffs[0] == pytest.approx(
        (1.0 - m) * (1.0 - m * rho), abs=1e-14
    )


def test_propagate_accepts_initial_law():
    # the recursion starts from a point mass at zero by default, but an
    # explicit starting law is accepted for experimentation
    spec = constant_spec(0.5, 0.0)
    start = pgf.Pmf(np.array([0.0, 1.0]))  # one ancestor
    state = engine.propagate(spec, 1, 8, initial=start)
    assert np.allclose(state.pmf.coeffs[:2], [0.5, 0.5], atol=1e-15)


def test_cumulative_deficiency_is_nondecreasing():
    spec = make_spec(m1="2*(n+1)^-1", lam=2.0)
    states = engine.propagate_sequence(spec, [5, 20, 80, 200], 16)
    defs = [s.cumulative_deficiency for s in states]
    assert all(b >= a for a, b in zip(defs, defs[1:]))


def test_propagate_sequence_shares_the_sweep():
    spec = make_spec(m1="2*(n+1)^-1", lam=2.0)
    states = engine.propagate_sequence(spec, [5, 10], 32)
    lone = engine.propagate(spec, 10, 32)
    assert np.allclose(states[1].pmf.coeffs, lone.pmf.coeffs, atol=1e-15)
    assert states[0].n == 5


def test_propagate_flags_small_truncation():
    spec = make_spec(m1="2*(n+1)^-1", lam=2.0)
    with pytest.warns(UserWarning, match="truncation"):
        state = engine.propagate(spec, 200, 3)
    assert state.truncated
    assert state.cumulative_deficiency > 1e-6


def test_composed_eval_diagonal_and_bernoulli_affine():
    spec = make_spec()
    assert engine.composed_eval_all(spec, 9, 0.37)[9] == 0.37
    j, n, x = 2, 17, 0.3
    want = 1.0 + linfrac.chain_product(spec, j, n) * (x - 1.0)
    assert engine.composed_eval_all(spec, n, x)[j] == pytest.approx(want, abs=1e-14)


def test_composed_eval_matches_lf_closed_form():
    spec = make_spec("linear_fractional", nu=1.0)
    alpha, beta = linfrac.composed_params_all(spec, 12)
    for j, x in ((0, 0.0), (3, 0.5), (11, 0.9)):
        assert engine.composed_eval_all(spec, 12, x)[j] == pytest.approx(
            linfrac.lf_value((alpha[j], beta[j]), x), abs=1e-12
        )


def _per_step_composed(fam, n, x):
    """The backward pass one scalar pgf_at call at a time (the oracle)."""
    y, vals = x, [x]
    for l in range(n, 0, -1):
        y = fam.pgf_at(l, y)
        vals.append(y)
    return np.array(vals[::-1])


@given(
    kind=st.sampled_from(CLOSED_FORMS),
    gamma=st.floats(0.3, 2.5),
    n0=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    rho1=st.floats(0.01, 0.99),
    nu=st.floats(0.01, 100.0),
    n=st.integers(0, 300),
    x=st.floats(0.0, 1.0),
)
# rho_1 = 0.05 puts the early quadratic generations outside the nu window
@example(kind="quadratic", gamma=0.5, n0=0.0, rho1=0.05, nu=40.0, n=200, x=0.3)
@example(kind="linear_fractional", gamma=1.5, n0=2.0, rho1=0.2, nu=3.0, n=300, x=0.0)
# p0 + (p1 + p2 x) x rounds to 1 + eps at x = 1 for this rule
@example(kind="quadratic", gamma=0.6506331121686338, n0=0.0, rho1=0.46875, nu=5.0,
         n=5, x=1.0)
@settings(max_examples=150, deadline=None)
def test_array_evaluation_matches_per_generation_route(kind, gamma, n0, rho1,
                                                       nu, n, x):
    spec = make_spec(kind, c=(1.0 - rho1) * (1.0 + n0) ** gamma, gamma=gamma,
                     n0=n0, nu=0.0 if kind == "bernoulli" else nu)
    fam = spec.offspring
    ns = np.arange(1, n + 1)
    xs = (x + 0.6180339887498949 * ns) % 1.0
    xs[::7] = 1.0
    arr = fam.pgf_at(ns, xs)
    per_n = np.array([fam.pgf_at(int(l), float(y)) for l, y in zip(ns, xs)])
    # Array and scalar rules differ by an ulp in rho_n (numpy's vectorized
    # pow); the tolerance is 4 ulp of 1 times how far that moves G_n(x):
    # by nu through the curvature term, and by 1/(1 - beta) through the
    # LF formula's division.
    scale = 1.0 + fam.nu
    if kind == "linear_fractional":
        scale = scale / (1.0 - fam.params(ns)[1])
    assert np.all(np.abs(arr - per_n) <= 4 * np.finfo(float).eps * scale)
    got = engine.composed_eval_all(spec, n, x)
    assert np.max(np.abs(got - _per_step_composed(fam, n, x))) <= 1e-14


def test_composed_eval_all_custom_table_goes_step_by_step():
    # rows of two widths: the zero padding of the narrow ones moves no bit
    table = {n: [0.3, 0.4, 0.3] if n % 2 else [0.45, 0.55] for n in range(1, 6)}
    spec = dataclasses.replace(constant_spec(0.6, 0.3), offspring=OffspringFamily(
        kind="custom", table=lambda n: np.array(table[n])))
    want = _per_step_composed(spec.offspring, 5, 0.4)
    got = engine.composed_eval_all(spec, 5, 0.4)
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("kind", CLOSED_FORMS + ("custom",))
def test_closed_forms_make_no_scalar_pgf_calls(monkeypatch, kind):
    spec = (constant_spec(0.6, 0.3, offspring_coeffs=[0.3, 0.4, 0.3])
            if kind == "custom" else
            make_spec(kind, nu=0.0 if kind == "bernoulli" else 0.7))
    calls = []
    real = OffspringFamily.pgf_at

    def counting(self, n, x):
        calls.append(n)
        return real(self, n, x)

    monkeypatch.setattr(OffspringFamily, "pgf_at", counting)
    engine.composed_eval_all(spec, 300, 0.4)
    assert calls == []
    diagnostics._vartheta_all(spec, 300)
    assert len(calls) == 1


def test_composed_value_outside_unit_interval_is_numeric_error(monkeypatch):
    spec = make_spec("quadratic", nu=0.5)
    real = OffspringFamily.params

    def leaky(self, ns):
        p0, p1, p2 = real(self, ns)
        return p0, p1 + 0.25, p2  # coefficients sum to 1.25, G_n(0) < 0

    monkeypatch.setattr(OffspringFamily, "params", leaky)
    with pytest.raises(NumericError, match="generation 40"):
        engine.composed_eval_all(spec, 40, 0.0)
    with pytest.raises(ValueError):
        engine.composed_eval_all(spec, 40, 1.5)


def test_accompanying_eval_poisson_first_step():
    spec = make_spec(imm_kind="poisson", m1="0.8", lam=0.8)
    for x in (0.0, 0.5, 1.0):
        h1 = math.exp(0.8 * (x - 1.0))
        # F_1 is the Poisson factor itself; the companion exponentiates H-1
        assert engine.pgf_via_product(spec, 1, x) == pytest.approx(h1, abs=1e-14)
        assert accompanying_eval(spec, 1, x) == pytest.approx(
            math.exp(h1 - 1.0), abs=1e-14
        )


def test_accompanying_eval_at_one():
    spec = make_spec(m1="2*(n+1)^-1", lam=2.0)
    assert accompanying_eval(spec, 25, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_accompanying_gap_within_bound():
    spec = make_spec(m1="2*(n+1)^-1", lam=2.0)
    for n in (10, 60):
        for x in (0.0, 0.4, 0.8):
            gap = abs(
                engine.pgf_via_product(spec, n, x)
                - accompanying_eval(spec, n, x)
            )
            assert gap <= accompanying_gap_bound(spec, n, x) + 1e-12


def test_coefficient_route_matches_product_route(fixture_specs):
    for name in ("thm1_poisson", "thm5_nb", "lf_crosscheck", "thm3_cp_finite"):
        spec = fixture_specs[name]
        state = engine.propagate(spec, 40, 128)
        for x in (0.0, 0.3, 0.7, 1.0):
            a = pgf.evaluate(state.pmf, x)
            b = engine.pgf_via_product(spec, 40, x)
            assert a == pytest.approx(b, abs=state.cumulative_deficiency + 1e-9)


def test_mean_identity(fixture_specs):
    for name in ("thm1_poisson", "thm5_nb", "thm4_log2"):
        spec = fixture_specs[name]
        n = 60
        state = engine.propagate(spec, n, 256)
        want = sum(
            float(spec.immigration.mean(j)) * linfrac.chain_product(spec, j, n)
            for j in range(1, n + 1)
        )
        assert pgf.factorial_moment(state.pmf, 1) == pytest.approx(want, abs=1e-8)


def test_sandwich_bounds_on_fixtures(fixture_specs):
    for name in ("thm1_poisson", "thm5_nb", "lf_crosscheck"):
        spec = fixture_specs[name]
        n = 30
        for j in (1, 10, 25):
            rho_jn = linfrac.chain_product(spec, j, n)
            theta_jn = math.prod(vartheta(spec, l, n) for l in range(j + 1, n + 1))
            for x in np.linspace(0.0, 1.0, 9):
                val = engine.composed_eval_all(spec, n, float(x))[j]
                lo = 1.0 + rho_jn * (x - 1.0)
                hi = 1.0 + theta_jn * (x - 1.0)
                assert lo - 1e-12 <= val <= hi + 1e-12


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_product_difference_inequality(zs, data):
    ws = data.draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0),
            min_size=len(zs),
            max_size=len(zs),
        )
    )
    lhs = abs(math.prod(zs) - math.prod(ws))
    rhs = sum(abs(z - w) for z, w in zip(zs, ws))
    assert lhs <= rhs + 1e-12


def test_simulate_degenerate_scenario_is_point_mass():
    spec = constant_spec(0.0, 0.0, offspring_coeffs=[1.0])
    out = engine.simulate(spec, 10, 500, seed=3)
    assert out.coeffs[0] == 1.0


def test_simulate_seed_determinism():
    spec = make_spec(m1="2*(n+1)^-1", lam=2.0)
    a = engine.simulate(spec, 30, 4000, seed=11)
    b = engine.simulate(spec, 30, 4000, seed=11)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = engine.simulate(spec, 30, 4000, seed=12)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_simulate_matches_propagation_loosely():
    spec = make_spec(m1="2*(n+1)^-1", lam=2.0)
    from nearcrit.diagnostics import tv_distance

    emp = engine.simulate(spec, 50, 100_000, seed=5)
    state = engine.propagate(spec, 50, 64)
    assert tv_distance(emp, state.pmf) <= 0.02


def test_simulate_quadratic_and_lf_offspring():
    from nearcrit.diagnostics import tv_distance

    for kind in ("quadratic", "linear_fractional"):
        spec = make_spec(kind, nu=1.0, m1="1*(n+1)^-1", lam=1.0)
        emp = engine.simulate(spec, 40, 100_000, seed=9)
        state = engine.propagate(spec, 40, 64)
        assert tv_distance(emp, state.pmf) <= 0.02


def test_simulate_custom_families():
    from nearcrit.diagnostics import tv_distance
    from nearcrit.families import ImmigrationFamily, PowerSum, log_two_base

    spec = make_spec(n0=0.0, m1="1*n^-1", lam=1.0)
    mix = ImmigrationFamily(
        kind="custom",
        m1=PowerSum.parse("1*n^-1"),
        base=tuple(log_two_base(64)),
        base_name="log_two",
    )
    spec = type(spec)(
        offspring=spec.offspring,
        immigration=mix,
        lam=1.0,
        nu=0.0,
        divergent=True,
        horizon=spec.horizon,
        k_trunc=128,
        lambda_rule="log_series",
    )
    emp = engine.simulate(spec, 30, 60_000, seed=21)
    state = engine.propagate(spec, 30, 128)
    assert tv_distance(emp, state.pmf) <= 0.03


def _billion_spec(offspring, immigration):
    from nearcrit.families import ImmigrationFamily, PowerSum, log_two_base

    kind = "bernoulli" if immigration == "custom" else immigration
    spec = make_spec(offspring, nu=0.0 if offspring == "bernoulli" else 1.0,
                     imm_kind=kind, k_trunc=128)
    if immigration != "custom":
        return spec
    mix = ImmigrationFamily(kind="custom", m1=PowerSum.parse("1*(n+1)^-1"),
                            base=tuple(log_two_base(64)), base_name="log_two")
    return dataclasses.replace(spec, immigration=mix)


@pytest.mark.parametrize("offspring, immigration", [
    ("bernoulli", "poisson"), ("quadratic", "bernoulli"),
    ("linear_fractional", "custom"),
])
def test_simulate_at_a_billion_reps(offspring, immigration):
    # the population is a histogram of trajectory states, so neither time
    # nor memory grows with reps: 10^9 trajectories need a few MB
    import tracemalloc

    spec = _billion_spec(offspring, immigration)
    reps = 10**9
    tracemalloc.start()
    try:
        emp = engine.simulate(spec, 40, reps, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    counts = emp.coeffs * reps
    whole = np.round(counts)
    assert np.all(np.abs(counts - whole) <= 1e-6) and whole.sum() == reps
    exact = engine.propagate(spec, 40, 128).pmf
    assert diagnostics.tv_distance(emp, exact) <= 1e-3


def test_simulate_rejects_reps_beyond_int64():
    spec = make_spec()
    with pytest.raises(ValueError, match="64-bit"):
        engine.simulate(spec, 3, 2**63, seed=1)
    emp = engine.simulate(spec, 3, 2**63 - 1, seed=1)
    assert emp.coeffs.sum() == pytest.approx(1.0, abs=1e-12)


def test_simulate_rejects_a_negative_generation_as_propagate_does():
    spec = make_spec()
    for route in (lambda: engine.propagate(spec, -5, 8),
                  lambda: engine.simulate(spec, -5, 100, seed=1)):
        with pytest.raises(ValueError, match="generation index must be >= 0"):
            route()


def test_default_truncation_poisson_target():
    spec = make_spec(m1="2*(n+1)^-1", lam=2.0)
    k = engine.default_truncation(spec)
    tail = 1.0 - pgf.poisson_coeffs(2.0, k // 2).sum()
    assert tail < 1e-10
    assert k % 2 == 0


def test_default_truncation_nb_target():
    from nearcrit import limits

    spec = make_spec("quadratic", nu=1.0, m1="1*(n+1)^-1", lam=1.0)
    k = engine.default_truncation(spec)
    assert limits.nb_pmf(2.0, 1.0 / 3.0, k // 2).deficiency < 1e-10


def _step_loop(spec, targets, k, initial=None):
    """The forward recursion one Pmf-typed step at a time, over the scalar
    pmf(n, K) of each generation (the oracle of propagate_sequence)."""
    law, out = pgf.Pmf.delta(0) if initial is None else initial, {}
    for n in range(1, max(targets) + 1):
        law = engine.step(law, spec.offspring.pmf(n, k), spec.immigration.pmf(n, k), k)
        if n in targets:
            out[n] = law
    return out


def _long_double_sweep(spec, n, k):
    """First k coefficients of the forward recursion run in np.longdouble
    at 2k, every count term kept: Horner in the offspring law, then the
    immigration convolution."""
    wide = 2 * k
    law = np.ones(1, dtype=np.longdouble)
    for m in range(1, n + 1):
        g = spec.offspring.pmf(m, wide).coeffs.astype(np.longdouble)
        h = spec.immigration.pmf(m, wide).coeffs.astype(np.longdouble)
        top = np.flatnonzero(law)[-1]
        acc = law[top : top + 1].copy()
        for c in law[:top][::-1]:
            acc = np.convolve(acc, g)[:wide]
            acc[0] += c
        law = np.convolve(acc, h)[:wide]
    return law[:k]


@pytest.mark.parametrize("name", scenarios.FIXTURE_NAMES)
def test_propagation_is_exact_to_rounding_below_k(fixture_specs, name):
    # every coefficient of 1e-12 or more agrees with an extended-precision
    # sweep to 1e-11 relative; a forward sweep that dropped count terms
    # below 1e-15 of suffix mass was off by up to 5e-3 here
    spec = fixture_specs[name]
    n, k = (200, 32) if spec.offspring.kind == "linear_fractional" else (250, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped rates of thm6_example1
        got = engine.propagate(spec, n, k).pmf.coeffs
        ref = _long_double_sweep(spec, n, k)
    big = ref >= 1e-12
    assert big.sum() >= 10
    rel = np.abs(got[big] - ref[big]) / ref[big]
    assert float(rel.max()) <= 1e-11


def test_bernoulli_law_is_poisson_binomial_to_its_last_coefficient(fixture_specs):
    # Bernoulli offspring and immigration: X_n counts independent cohorts,
    # immigrant j surviving with probability w_j rho_[j,n]; all 64
    # coefficients, down to 1.9e-70, match that law in long double
    spec = fixture_specs["thm1_poisson"]
    n, k = 1600, 64
    got = engine.propagate(spec, n, k).pmf.coeffs
    s = linfrac.chain_logs(spec, n)
    q = spec.immigration.weight(np.arange(1, n + 1), "clamped") * np.exp(s[n] - s[1:])
    law = np.zeros(k, dtype=np.longdouble)
    law[0] = 1.0
    for qj in q.astype(np.longdouble):
        law[1:] = law[1:] * (1 - qj) + law[:-1] * qj
        law[0] *= 1 - qj
    assert float(law[-1]) < 1e-60
    assert float(np.max(np.abs(got - law) / law)) <= 1e-12


@pytest.mark.parametrize("name", scenarios.FIXTURE_NAMES)
def test_propagation_agrees_with_the_product_route(fixture_specs, name):
    spec = fixture_specs[name]
    n = 280
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = engine.propagate(spec, n, 64)
        for x in (0.0, 0.45, 0.9):
            gap = engine.pgf_via_product(spec, n, x) - pgf.evaluate(state.pmf, x)
            assert -1e-13 <= gap <= state.cumulative_deficiency + 1e-13, x


# generations on both sides of the first and second block
_EDGES = (engine.BLOCK - 1, engine.BLOCK, engine.BLOCK + 1, 2 * engine.BLOCK)


def _assert_within_the_step_loop_deficiency(spec, targets, k, initial=None):
    """propagate_sequence loses no more mass than the step loop, and differs
    from it by no more than that loss: both sit below the exact law, and the
    step loop truncates every generation where propagation truncates only
    at the targets."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped rates, small-K truncation
        states = engine.propagate_sequence(spec, targets, k, initial)
        want = _step_loop(spec, set(targets), k, initial)
    assert [s.n for s in states] == sorted(set(targets))
    for state in states:
        ref = want[state.n]
        gap = float(np.sum(np.abs(state.pmf.coeffs - ref.coeffs)))
        assert gap <= ref.deficiency + 1e-14, state.n
        assert state.cumulative_deficiency <= ref.deficiency + 1e-15, state.n


def _sweep_spec(offspring, immigration, rho1, gamma, nu, coef):
    if offspring == "custom":
        # a law of fixed width whose weights move with n
        def table(n):
            p0, p2 = rho1 / (n + 1.0), nu / (n + 2.0)
            return np.array([p0, 1.0 - p0 - p2, p2])

        off = OffspringFamily(kind="custom", table=table)
    else:
        off = OffspringFamily(kind=offspring,
                              nu=0.0 if offspring == "bernoulli" else nu,
                              rho_rule=RhoRule(c=1.0 - rho1, gamma=gamma))
    rule = PowerSum.parse(f"{coef}*(n+1)^-{gamma}")
    if immigration == "custom":
        imm = ImmigrationFamily(kind="custom", m1=rule, base=tuple(log_two_base(6)),
                                base_name="log_two")
    else:
        imm = ImmigrationFamily(kind=immigration, m1=rule)
    return ScenarioSpec(offspring=off, immigration=imm, lam=coef, nu=0.0,
                        divergent=gamma <= 1.0)


@given(
    offspring=st.sampled_from(("bernoulli", "quadratic", "linear_fractional",
                               "custom")),
    immigration=st.sampled_from(("bernoulli", "poisson", "custom")),
    rho1=st.floats(0.05, 0.95),
    gamma=st.floats(0.3, 1.5),
    nu=st.floats(0.01, 0.4),
    coef=st.floats(0.0, 1.0),
    k=st.integers(1, 8),
    extra=st.lists(st.integers(1, 2 * engine.BLOCK), max_size=3),
    start=st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)),
)
@settings(max_examples=30, deadline=None)
def test_sweep_matches_the_step_loop_for_every_kind(offspring, immigration, rho1,
                                                     gamma, nu, coef, k, extra,
                                                     start):
    spec = _sweep_spec(offspring, immigration, rho1, gamma, nu, coef)
    initial = None
    if start is not None and sum(start) > 0:
        initial = pgf.Pmf(np.array(start) / sum(start))
    _assert_within_the_step_loop_deficiency(spec, [*_EDGES, *extra], k, initial)


@pytest.mark.parametrize("immigration", ["bernoulli", "poisson"])
def test_sweep_pads_a_custom_law_of_changing_width(immigration):
    # rows of width 2 and 3 share a table, zero-padded to the wider one
    off = OffspringFamily(kind="custom", table=lambda n: np.array(
        [0.3, 0.5, 0.2] if n % 3 else [0.4, 0.6]))
    imm = ImmigrationFamily(kind=immigration, m1=PowerSum.parse("0.9*(n+1)^-0.8"))
    spec = ScenarioSpec(offspring=off, immigration=imm, lam=1.0, nu=0.0,
                        divergent=True)
    _assert_within_the_step_loop_deficiency(spec, [engine.BLOCK, engine.BLOCK + 1], 48)


def test_a_base_law_too_wide_for_float_binomials_is_applied_row_by_row():
    # C(1099, 549) overflows a float, so the block's Vandermonde product is
    # unavailable and each cohort applies its pmf row instead
    from nearcrit import families

    base = np.full(1100, 1.0 / 1100)
    assert families._affine_compose(base, np.array([[0.5, 0.5]])) is None
    spec = dataclasses.replace(make_spec(), immigration=ImmigrationFamily(
        kind="custom", m1=PowerSum.parse("0.5*(n+1)^-1"), base=tuple(base)))
    _assert_within_the_step_loop_deficiency(spec, [1, 3], 1100)


@pytest.mark.parametrize("immigration", ["bernoulli", "poisson"])
def test_deep_propagation_holds_one_block_of_tables(fixture_specs, immigration):
    # a table for all 20000 generations at K = 128 would take 20 MB; with
    # Poisson immigration every row of the table is K wide
    import tracemalloc

    spec = fixture_specs["thm1_poisson"]
    imm = ImmigrationFamily(kind=immigration, m1=spec.immigration.m1)
    spec = dataclasses.replace(spec, immigration=imm)
    tracemalloc.start()
    try:
        state = engine.propagate(spec, 20000, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20000 * 128 * 8
    assert state.n == 20000 and not state.truncated


def test_quadratic_offspring_without_curvature_propagates_as_bernoulli():
    # nu = 0 leaves the quadratic rows an all-zero third column, which
    # compose_back drops, so both kinds take the affine route
    quad_spec = make_spec("quadratic", nu=0.0)
    maps, _ = quad_spec.offspring.compose_back(np.arange(1, 257), np.array([0.0, 1.0]), 64)
    assert maps.shape == (256, 2)
    for n, k in [(1400, 64), (300, 32), (1000, 128)]:
        quad = engine.propagate(quad_spec, n, k).pmf.coeffs
        bern = engine.propagate(make_spec("bernoulli"), n, k).pmf.coeffs
        big = bern >= 1e-300
        assert big.sum() == k
        assert float(np.max(np.abs(quad[big] - bern[big]) / bern[big])) <= 1e-13


def test_affine_chain_matches_long_double_at_n_10000(fixture_specs):
    # the same pmf rows composed and multiplied out one cohort at a time in
    # np.longdouble; the chain of products rho_j ... rho_n is shared by every
    # later cohort, so its rounding must not grow with the chain's length
    spec = fixture_specs["thm1_poisson"]
    n, k = 10_000, 64
    got = engine.propagate(spec, n, k).pmf.coeffs
    ns = np.arange(1, n + 1)
    p0, p1 = spec.offspring.pmf(ns, k).astype(np.longdouble).T
    i0, i1 = spec.immigration.pmf(ns, k).astype(np.longdouble).T
    law = np.zeros(k, dtype=np.longdouble)
    law[0] = 1.0
    g0, g1 = np.longdouble(0.0), np.longdouble(1.0)  # Gbar_{j+1,n}
    for j in range(n - 1, -1, -1):
        c0, c1 = i0[j] + i1[j] * g0, i1[j] * g1
        law[1:] = law[1:] * c0 + law[:-1] * c1
        law[0] *= c0
        g0, g1 = p0[j] + p1[j] * g0, p1[j] * g1
    big = law >= 1e-300
    assert big.sum() == k
    assert float(np.max(np.abs(got[big] - law[big]) / law[big])) <= 1e-13


@pytest.mark.parametrize("table", [
    lambda n: np.array([0.3, 0.5]),                                   # deficient
    lambda n: np.array([1.0, 0.0]) if n == 300 else np.array([0.2, 0.8]),  # rho = 0
    lambda n: np.array([0.25 / n, 1.0 - 0.5 / n]),
])
def test_affine_maps_match_the_sequential_recurrence(table):
    off = OffspringFamily(kind="custom", table=table)
    ns = np.arange(200, 456)
    g = np.array([0.1, 0.7])
    maps, out = off.compose_back(ns, g, 16)
    rows = off.pmf(ns, 16).astype(np.longdouble)
    want = np.zeros((ns.shape[0] + 1, 2), dtype=np.longdouble)
    want[-1] = g
    for i in range(ns.shape[0] - 1, -1, -1):
        want[i] = rows[i, 0] + rows[i, 1] * want[i + 1, 0], rows[i, 1] * want[i + 1, 1]
    assert maps.shape == (ns.shape[0], 2)
    np.testing.assert_allclose(maps, want[1:].astype(float), rtol=4e-16, atol=0)
    np.testing.assert_allclose(out, want[0].astype(float), rtol=4e-16, atol=0)


@pytest.mark.parametrize("width", [1, 2])
def test_poisson_cohorts_over_affine_maps_match_exp_series(width):
    # the exponent sum_j m_j (g_j - 1) = A + lam x gives e^(A + lam) times
    # the Poisson(lam) law
    imm = ImmigrationFamily(kind="poisson", m1=PowerSum.parse("3*(n+1)^-0.7"))
    ns = np.arange(1, 257)
    rng = np.random.default_rng(1)
    maps = rng.uniform(0.0, 0.5, (ns.shape[0], 2))[:, :width]
    k = 48
    got = imm.cohort_product(ns, maps, k)
    m = imm.m1.at(ns)
    expo = np.zeros(k)
    expo[:width] = m @ maps
    expo[0] = m @ (maps[:, 0] - 1.0)
    want = pgf.exp_series(expo, k).coeffs
    big = want >= 1e-300
    assert float(np.max(np.abs(got[big] - want[big]) / want[big])) <= 1e-13
    assert np.all(got[~big] < 1e-300)
