import contextlib
import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import constant_spec, make_spec
from nearcrit import diagnostics, engine, families, linfrac, pgf, scenarios
from nearcrit.diagnostics import accompanying_gap_bound
from nearcrit.errors import NumericError
from nearcrit.families import (
    FAMILIES,
    BernoulliImmigration,
    CustomImmigration,
    CustomOffspring,
    OffspringFamily,
    PoissonImmigration,
    PowerSum,
    RhoRule,
    ScenarioSpec,
    log_two_base,
)
from oracles import accompanying_eval, sample_dense, vartheta

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
    assert state.pmf.deficiency == 0.0


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
    defs = [s.pmf.deficiency for s in states]
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
    assert state.pmf.deficiency > 1e-6


def test_composed_eval_diagonal_and_bernoulli_affine():
    spec = make_spec()
    assert engine.composed_eval_all(spec, 9, 0.37)[9] == 0.37
    j, n, x = 2, 17, 0.3
    want = 1.0 + linfrac.chain_product(spec, j, n) * (x - 1.0)
    assert engine.composed_eval_all(spec, n, x)[j] == pytest.approx(want, abs=1e-14)


def test_composed_eval_matches_lf_closed_form():
    spec = make_spec("linear_fractional", nu=1.0)
    alpha, beta = linfrac.interval_params(spec, [12])
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
    spec = dataclasses.replace(constant_spec(0.6, 0.3), offspring=CustomOffspring(
        table=lambda n: np.array(table[n])))
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
    s = linfrac.chain_logs(spec, 300)
    diagnostics._chord_slopes(spec, np.exp(s[300] - s[1:]))
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
            assert a == pytest.approx(b, abs=state.pmf.deficiency + 1e-9)


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
    mix = CustomImmigration(
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


def _mc_tv_bound(exact: pgf.Pmf, reps: int) -> float:
    """High-probability bound on the TV of a ``reps``-sample empirical law
    to the exact law ``exact``.

    E[TV] <= (1/2) sum_k sqrt(p_k (1 - p_k) / reps); one trajectory moves the
    TV by at most 1/reps, so McDiarmid adds sqrt(log(1e9) / (2 reps)) for a
    1e-9 false-alarm rate. Mass beyond the truncation counts twice.
    """
    p = np.clip(exact.coeffs, 0.0, 1.0)
    mean_bound = 0.5 * float(np.sum(np.sqrt(p * (1.0 - p) / reps)))
    return mean_bound + math.sqrt(math.log(1e9) / (2.0 * reps)) + 2.0 * exact.deficiency


@pytest.mark.parametrize("name", scenarios.FIXTURE_NAMES)
def test_simulate_draws_the_propagated_law_on_every_fixture(name, fixture_specs):
    # every sampler stage of the bundled scenarios, at the benchmark's sizes
    spec, reps = fixture_specs[name], 100_000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # early Bernoulli rates are clamped
        emp = engine.simulate(spec, 50, reps, seed=19)
        exact = engine.propagate(spec, 50, 128).pmf
    assert diagnostics.tv_distance(emp, exact) <= _mc_tv_bound(exact, reps)


def _billion_spec(offspring, immigration):
    from nearcrit.families import ImmigrationFamily, PowerSum, log_two_base

    kind = "bernoulli" if immigration == "custom" else immigration
    spec = make_spec(offspring, nu=0.0 if offspring == "bernoulli" else 1.0,
                     imm_kind=kind, k_trunc=128)
    if immigration != "custom":
        return spec
    mix = CustomImmigration(m1=PowerSum.parse("1*(n+1)^-1"),
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


def test_simulate_histogram_stays_exact_beyond_2_53():
    # float64 counts (np.bincount's weights) round above 2^53: 2^62 + 1
    # would sum to 2^62, and 2^63 - 1 would wrap to a negative count
    reps = 2**62 + 1
    spec = make_spec(m1="2*(n+1)^-1", lam=2.0)
    for n, states, counts in engine._histograms(spec, 4, reps, seed=3):
        assert counts.dtype == np.int64 and np.all(counts > 0)
        assert int(counts.sum()) == reps
        assert np.all(np.diff(states) > 0)
    assert n == 4 and states.shape[0] > 1


@pytest.mark.parametrize("offspring, immigration", [
    ("bernoulli", "poisson"), ("quadratic", "bernoulli"),
    ("linear_fractional", "custom"),
])
def test_simulate_sequence_equals_one_run_per_target(offspring, immigration):
    # the stream draws generations 1, 2, ... alike whatever the target
    spec = _billion_spec(offspring, immigration)
    targets = [7, 0, 25, 7, 12]
    laws = engine.simulate_sequence(spec, targets, 20_000, seed=5)
    assert len(laws) == 4
    for n, law in zip(sorted(set(targets)), laws):
        assert np.array_equal(law.coeffs, engine.simulate(spec, n, 20_000, seed=5).coeffs)


@pytest.mark.parametrize("name", ["thm5_nb", "lf_crosscheck", "thm3_cp_finite"])
def test_histograms_are_the_dense_sampler_draws(fixture_specs, name):
    # every generation of the run is oracles.sample_dense's offspring draw
    # and then its immigration draw on the same stream, so the sampler
    # tests that run on that helper test this path
    spec = fixture_specs[name]
    rng = np.random.default_rng(11)
    h = np.array([5000], dtype=np.int64)
    for n, states, counts in engine._histograms(spec, 40, 5000, 11):
        if n:
            kids = sample_dense(spec.offspring, n, h, rng).sum(axis=0)
            arrivals = sample_dense(spec.immigration, n, kids, rng)
            old, new = arrivals.nonzero()  # state old + new, the counts exact in float
            h = np.bincount(old + new, arrivals[old, new]).astype(np.int64)
        assert np.array_equal(h.nonzero()[0], states) and np.array_equal(h[states], counts)
    assert states.shape[0] > 5


def _simulate_under_address_limit(offspring: str):
    """(width, total) of ``simulate`` at n = 6 with 200 reps, run in a child
    process under 1.5 GiB of address space, for the offspring family built
    by the expression ``offspring`` and one immigrant cohort of 5000 a
    generation."""
    code = f"""
import resource, sys
limit = 3 * 2**29  # 1.5 GiB of address space
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import numpy as np
from nearcrit import engine
from nearcrit.families import (BernoulliOffspring, CustomImmigration, CustomOffspring,
                               PowerSum, RhoRule, ScenarioSpec)
spec = ScenarioSpec(
    offspring={offspring},
    immigration=CustomImmigration(m1=PowerSum.parse("5000*n^-0.5"),
                                  base=(0.0,) * 5000 + (1.0,)),
    lam=0.0, nu=0.0, divergent=True, horizon=6, k_trunc=64)
law = engine.simulate(spec, 6, 200, seed=1)
print(law.coeffs.shape[0], repr(float(law.coeffs.sum())))
"""
    src = str(Path(engine.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert run.returncode == 0, run.stderr
    width, total = run.stdout.split()
    return int(width), float(total)


def test_simulate_memory_grows_with_the_states_not_their_square():
    # states reach about 22 600, and a dense states x totals matrix needs
    # 1.7 GiB (15892 x 14345) before n = 6; the histogram of cells needs
    # about 0.2 GB
    width, total = _simulate_under_address_limit(
        "BernoulliOffspring(rho_rule=RhoRule(c=0.5, gamma=1.0))")
    assert width > 15_000 and total == pytest.approx(1.0, abs=1e-12)


def test_simulate_memory_of_a_custom_offspring_table():
    # states reach about 30 000: the table's s-fold convolutions up to the
    # largest state s, about s^2 coefficients, need several GiB; a binomial
    # stage over the 190 occupied states needs about 0.2 GB
    width, total = _simulate_under_address_limit(
        "CustomOffspring(table=lambda n: np.array([0.25, 0.5, 0.25]))")
    assert width > 15_000 and total == pytest.approx(1.0, abs=1e-12)


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
    """The forward recursion one step per generation (the oracle of
    propagate_sequence), over the pmf(n, K) rows of each generation, with a
    validated Pmf at each target. The rows come from one table per 1024
    generations, and the steps run on coefficient vectors: about 30 us per
    generation, where a Pmf-typed step over scalar pmf calls took 200 us,
    too slow for targets that straddle blocks of 8192 generations."""
    law = pgf.Pmf.delta(0) if initial is None else initial
    out = {0: law} if 0 in targets else {}
    law, top = law.coeffs, max(targets)
    for lo in range(1, top + 1, 1024):
        ns = np.arange(lo, min(lo + 1024, top + 1))
        for n, g, h in zip(ns.tolist(), spec.offspring.pmf(ns, k),
                           spec.immigration.pmf(ns, k)):
            law = engine.step(law, g, h, k)
            if n in targets:
                out[n] = pgf.Pmf(law)
    return out


def _long_double_sweep(spec, n, k, floor=0.0):
    """First k coefficients of the forward recursion run in np.longdouble
    at 2k, every count term kept: Horner in the offspring law, then the
    immigration convolution.

    A positive ``floor`` drops the coefficients below it beyond the last
    one at or above it, from the law and from both family laws. The other
    factors are probabilities, and each term of a law of at most 2k terms
    meets each offspring coefficient in at most 2k products, so each
    generation moves the result by at most about (2k)^2 floor absolute.
    """
    wide = 2 * k
    law = np.ones(1, dtype=np.longdouble)

    def kept(c):
        return c[: np.flatnonzero(c >= floor)[-1] + 1]

    for m in range(1, n + 1):
        g = kept(spec.offspring.pmf(m, wide).coeffs.astype(np.longdouble))
        h = kept(spec.immigration.pmf(m, wide).coeffs.astype(np.longdouble))
        top = np.flatnonzero(law >= floor)[-1]
        acc = law[top : top + 1].copy()
        for c in law[:top][::-1]:
            acc = np.convolve(acc, g)[:wide]
            acc[0] += c
        law = np.convolve(acc, h)[:wide]
    out = np.zeros(k, dtype=np.longdouble)
    out[: min(k, law.shape[0])] = law[:k]
    return out


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


def _four_term_spec():
    # a custom offspring table of width 4: two Horner steps per generation
    off = CustomOffspring(table=lambda n: np.array(
        [0.5 / (n + 1), 1.0 - 0.7 / (n + 1), 0.1 / (n + 1), 0.1 / (n + 1)]))
    imm = BernoulliImmigration(m1=PowerSum.parse("1*(n+1)^-1"))
    return ScenarioSpec(offspring=off, immigration=imm, lam=1.0, nu=0.0,
                        divergent=True)


def _short_product_horner(rows, g, k):
    """The series G_n o ... o g for each generation of ``rows``, last first:
    Horner on ``g`` zero-padded to ``k``, with one short product per degree
    above 1."""
    tail, times = pgf._short_products(k)
    want = [np.append(g, np.zeros(k - g.shape[0]))]
    for p in rows[::-1].tolist():
        y = p[-1] * want[-1]
        y[0] += p[-2]
        for c in p[-3::-1]:
            tail[:] = y
            y = times(want[-1][::-1])
            y[0] += c
        want.append(y)
    return want


@pytest.mark.parametrize("name", ["thm5_nb", "four_term_table"])
def test_wide_horner_is_the_short_product_horner_bit_for_bit(fixture_specs, name):
    # compose_back forms p_d g + p_{d-1} in the pad and makes one correlate
    # per lower coefficient: the arithmetic of Horner with one short
    # product per degree above 1
    spec = _four_term_spec() if name == "four_term_table" else fixture_specs[name]
    k, ns = 64, np.arange(300, 340)
    g = spec.offspring.compose_back(np.arange(340, 400), np.array([0.0, 1.0]), k,
                                    [(0, 60)])[1][0]
    assert g.shape == (k,)
    maps, (out,) = spec.offspring.compose_back(ns, g, k, [(0, ns.shape[0])])
    want = _short_product_horner(spec.offspring.pmf(ns, k), g, k)
    assert maps.tobytes() == np.array(want[-2::-1]).tobytes()
    assert out.tobytes() == want[-1].tobytes()


@pytest.mark.parametrize("name", ["thm5_nb", "four_term_table"])
def test_horner_from_x_is_the_short_product_horner_bit_for_bit(fixture_specs, name):
    # a piece that starts at x, while the composed map is narrower than K:
    # x is zero-padded to K, and every generation is the same Horner as on
    # a K-wide map; the lower piece restarts from x
    spec = _four_term_spec() if name == "four_term_table" else fixture_specs[name]
    k, ns = 64, np.arange(300, 310)
    maps, outs = spec.offspring.compose_back(ns, np.array([0.0, 1.0]), k,
                                             [(0, 4), (4, 10)])
    rows, x = spec.offspring.pmf(ns, k), np.array([0.0, 1.0])
    top, low = _short_product_horner(rows[4:], x, k), _short_product_horner(rows[:4], x, k)
    assert np.count_nonzero(top[3]) < k  # still narrower than K there
    assert maps.tobytes() == np.array(low[-2::-1] + top[-2::-1]).tobytes()
    assert [o.tobytes() for o in outs] == [low[-1].tobytes(), top[-1].tobytes()]


@pytest.mark.parametrize("name", ["thm5_nb", "four_term_table", "lf_crosscheck"])
def test_wide_propagation_is_exact_to_rounding_below_k(fixture_specs, name):
    # at K = 256 every product of two K-wide series is a short product: the
    # Horner steps of compose_back (quadratic offspring and the 4-wide
    # table), the running pgf.product of K-wide cohort terms (all three; LF
    # maps are K wide from the start), the product across the two blocks of
    # the interval (4, L + 8], L the block length, and the compound that
    # closes it, with the law at 4 as its count. Terms below 1e-40 of the
    # reference move its result by at most about n (2k)^2 1e-40 = 7e-33,
    # far below the 1e-11 relative asked of coefficients of 1e-12 or more;
    # the floor takes the LF sweep from 16 to 60 s down to 0.4 s.
    spec = _four_term_spec() if name == "four_term_table" else fixture_specs[name]
    k = 256
    n = engine.block_length(spec, k) + 8
    assert n == 264  # K-wide rows: the shortest block
    got = engine.propagate_sequence(spec, [4, n], k)[-1].pmf.coeffs
    ref = _long_double_sweep(spec, n, k, floor=1e-40)
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
            assert -1e-13 <= gap <= state.pmf.deficiency + 1e-13, x


def _edges(spec, k):
    """Generations on both sides of the first and second block of the sweep
    of ``spec`` at truncation ``k``, from the block rule."""
    length = engine.block_length(spec, k)
    return (length - 1, length, length + 1, 2 * length)


# a budget of 2 x 64 cells, at least 16 generations a block: every kind's
# sweep then straddles blocks within a few hundred generations, where the
# real budget runs narrow sweeps in blocks of 8192 and more
_SMALL_BLOCKS = (2 * 64, 16)
_REAL_BLOCKS = (engine.CELLS, engine.MIN_BLOCK)


@contextlib.contextmanager
def _blocks(cells, min_block):
    """engine.CELLS and engine.MIN_BLOCK set to the given budget."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "CELLS", cells)
        patch.setattr(engine, "MIN_BLOCK", min_block)
        yield


def _assert_within_the_step_loop_deficiency(spec, targets, k, initial=None):
    """propagate_sequence loses no more mass than the step loop, and differs
    from it by no more than that loss: both sit below the exact law, and the
    step loop truncates every generation where propagation truncates only
    at the targets.

    Both comparisons allow the rounding of both sides. Each side forms every
    coefficient of generation n from n generations of sums of at most k
    products of nonnegative terms, so to first order each coefficient, and
    the mass they sum to (at most 1), is off by at most n k eps relative;
    the margin is 2 n k eps, one such budget per side. (The constant of a
    Poisson exponent, sum_j m_j (g0_j - 1) with every m_j <= 1 here, adds
    at most about n eps to its log.) A fixed 1e-15 sat below that
    rounding: at n = 512, k = 1 the two deficiencies, about 0.0129,
    differed by 1.1e-15.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped rates, small-K truncation
        states = engine.propagate_sequence(spec, targets, k, initial)
        want = _step_loop(spec, set(targets), k, initial)
    assert [s.n for s in states] == sorted(set(targets))
    for state in states:
        ref = want[state.n]
        margin = 2 * state.n * k * np.finfo(float).eps
        gap = float(np.sum(np.abs(state.pmf.coeffs - ref.coeffs)))
        assert gap <= ref.deficiency + margin, state.n
        assert state.pmf.deficiency <= ref.deficiency + margin, state.n


def _sweep_spec(offspring, immigration, rho1, gamma, nu, coef):
    if offspring == "custom":
        # a law of fixed width whose weights move with n
        def table(n):
            p0, p2 = rho1 / (n + 1.0), nu / (n + 2.0)
            return np.array([p0, 1.0 - p0 - p2, p2])

        off = CustomOffspring(table=table)
    else:
        off = FAMILIES["offspring"][offspring](
            nu=0.0 if offspring == "bernoulli" else nu,
            rho_rule=RhoRule(c=1.0 - rho1, gamma=gamma))
    rule = PowerSum.parse(f"{coef}*(n+1)^-{gamma}")
    if immigration == "custom":
        imm = CustomImmigration(m1=rule, base=tuple(log_two_base(6)),
                                base_name="log_two")
    else:
        imm = FAMILIES["immigration"][immigration](m1=rule)
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
    extra=st.lists(st.floats(0.0, 1.0), max_size=3),
    start=st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)),
    blocks=st.just(_SMALL_BLOCKS),
)
# in blocks of 256 generations the two deficiencies differ by 1.1e-15 at
# n = 512, above a fixed 1e-15
@example(offspring="bernoulli", immigration="custom", rho1=0.5,
         gamma=1.4215323566076148, nu=0.25, coef=0.01, k=1, extra=[], start=None,
         blocks=(256, 256))
# edges of a narrow sweep (8192 generations per block) and a K-wide one (2048)
@example(offspring="bernoulli", immigration="bernoulli", rho1=0.5, gamma=0.8,
         nu=0.1, coef=0.5, k=8, extra=[], start=None, blocks=_REAL_BLOCKS)
@example(offspring="quadratic", immigration="bernoulli", rho1=0.5, gamma=0.8,
         nu=0.1, coef=0.5, k=8, extra=[], start=None, blocks=_REAL_BLOCKS)
# rho_[j,n] falls to 1e-229 by n = 16384: the composed LF parameters, once
# formed as 4 d1^3/(2 d1 + d2)^2, were 0/0 wherever it was below 1e-160
@example(offspring="linear_fractional", immigration="bernoulli", rho1=0.25,
         gamma=0.375, nu=0.25, coef=0.0, k=1, extra=[], start=None,
         blocks=_REAL_BLOCKS)
@settings(max_examples=30, deadline=None)
def test_sweep_matches_the_step_loop_for_every_kind(offspring, immigration, rho1,
                                                     gamma, nu, coef, k, extra,
                                                     start, blocks):
    # the targets straddle the first and second block of this sweep, and
    # the extra ones fall anywhere in those two blocks
    spec = _sweep_spec(offspring, immigration, rho1, gamma, nu, coef)
    initial = None
    if start is not None and sum(start) > 0:
        initial = pgf.Pmf(np.array(start) / sum(start))
    with _blocks(*blocks):
        edges = _edges(spec, k)
        extra = [1 + round(u * (edges[-1] - 1)) for u in extra]
        _assert_within_the_step_loop_deficiency(spec, [*edges, *extra], k, initial)


def _sweep_specs():
    specs = {name: scenarios.load_fixture(name).spec for name in scenarios.FIXTURE_NAMES}
    specs.update({
        "quadratic": make_spec("quadratic", nu=0.8, imm_kind="poisson"),
        "linear_fractional": make_spec("linear_fractional", nu=0.5),
        "custom_affine": constant_spec(0.7, 0.4, imm_kind="poisson"),
        "four_term_table": _four_term_spec(),
    })
    return specs


_SWEEP_SPECS = _sweep_specs()


@given(
    name=st.sampled_from(sorted(_SWEEP_SPECS)),
    k=st.sampled_from([1, 3, 16]),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_every_target_of_a_sweep_is_its_lone_propagation(name, k, data):
    with _blocks(*_SMALL_BLOCKS):
        _check_every_target_alone(_SWEEP_SPECS[name], k, data)


def _check_every_target_alone(spec, k, data):
    edges = _edges(spec, k)
    around = sorted({0, 1, 2, *edges, *(e + 2 for e in edges)})
    targets = data.draw(st.lists(st.one_of(st.sampled_from(around),
                                           st.integers(0, edges[-1] + 4)),
                                 min_size=1, max_size=8), label="targets")
    # duplicates, 0 and generations on block edges; each entry must be what
    # propagate gives for that target alone, up to the rounding of either
    # route (n k eps relative per coefficient, as in the step-loop check)
    # and the mass either truncation drops: cutting at the targets below
    # drops mass beyond K that a lone route keeps, and whose offspring would
    # have reached lower coefficients too. A deficiency read as 1 - sum
    # cannot show a drop below the rounding of that sum, so each dropped
    # mass is taken as the deficiency plus the margin
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped rates, small-K truncation
        states = engine.propagate_sequence(spec, targets, k)
        alone = [engine.propagate(spec, state.n, k) for state in states]
    assert [s.n for s in states] == sorted(set(targets))
    for state, ref in zip(states, alone):
        margin = 2 * max(state.n, 1) * k * np.finfo(float).eps
        lost = max(state.pmf.deficiency, ref.pmf.deficiency) + margin
        gap = np.abs(state.pmf.coeffs - ref.pmf.coeffs)
        assert np.all(gap <= margin * ref.pmf.coeffs + lost), state.n
        assert gap.sum() <= lost, state.n
    _assert_within_the_step_loop_deficiency(spec, targets, k)


def _counting(monkeypatch):
    """Counts of engine.step, compose_back and cohort_product calls, from
    wrappers that ``monkeypatch`` installs."""
    calls = {"step": 0, "compose_back": 0, "cohort_product": 0}

    def counting(owner, name):
        inner = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    counting(engine, "step")
    counting(families.OffspringFamily, "compose_back")
    counting(families.ImmigrationFamily, "cohort_product")
    return calls


def test_a_report_closes_each_row_with_one_step(fixture_specs, monkeypatch):
    # one engine.step per row; the backward sweep itself (compose_back and
    # cohort_product, one call per block) does not grow with the rows: one
    # block of 8192 generations for Bernoulli maps and cohorts (thm1), four
    # of 512 for the K-wide maps of quadratic offspring (thm5) at K = 32
    calls = _counting(monkeypatch)
    for name, blocks in (("thm1_poisson", 1), ("thm5_nb", 4)):
        spec = fixture_specs[name]
        assert -(-1800 // engine.block_length(spec, 32)) == blocks
        seen = {}
        for rows in (1, 4, 30):
            grid = np.linspace(1800 / rows, 1800, rows).round().astype(int)
            for key in calls:
                calls[key] = 0
            rep = diagnostics.report(spec, grid, 32)
            assert len(rep.rows) == rows
            assert calls["step"] == rows
            seen[rows] = (calls["compose_back"], calls["cohort_product"])
        assert set(seen.values()) == {(blocks, blocks)}, name


def test_a_narrow_sweep_runs_in_one_block(fixture_specs, monkeypatch):
    # Bernoulli maps and cohorts are 2 wide, so 1600 generations at K = 64
    # fit one block of 8192, where 256-generation blocks took 7
    calls = _counting(monkeypatch)
    spec = fixture_specs["thm1_poisson"]
    assert engine.block_length(spec, 64) == engine.CELLS // 2
    engine.propagate(spec, 1600, 64)
    assert calls == {"step": 1, "compose_back": 1, "cohort_product": 1}


def test_a_long_piece_with_many_short_ones_stays_within_the_budget(fixture_specs):
    # one block of 8192 generations holds the piece (30, 8000] and 30
    # one-generation pieces below it; the affine scan runs over the rows
    # and g alone, 8001 entries of two long doubles, where a table padded
    # to the longest piece, 7971 x 31 such entries, took 7.9 MB
    import tracemalloc

    spec = fixture_specs["thm1_poisson"]
    grid = [*range(1, 31), 8000]
    assert engine.block_length(spec, 64) >= 8000
    tracemalloc.start()
    try:
        rep = diagnostics.report(spec, grid, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row.n for row in rep.rows] == grid
    assert peak < 2_000_000


@pytest.mark.parametrize("name", sorted(_SWEEP_SPECS))
def test_block_maps_are_no_wider_than_the_block_rule_assumes(name):
    # the width that sizes a block bounds the maps its sweep builds
    spec, k = _SWEEP_SPECS[name], 16
    block = spec.offspring._block_maps(spec, [300], k)
    maps, _ = block(np.arange(1, 301), np.array([0.0, 1.0]), [(0, 100), (100, 300)])
    assert maps.shape[1] <= spec.offspring.map_width(k)


@pytest.mark.parametrize("immigration", ["bernoulli", "poisson"])
def test_sweep_pads_a_custom_law_of_changing_width(immigration):
    # rows of width 2 and 3 share a table, zero-padded to the wider one
    off = CustomOffspring(table=lambda n: np.array(
        [0.3, 0.5, 0.2] if n % 3 else [0.4, 0.6]))
    imm = FAMILIES["immigration"][immigration](m1=PowerSum.parse("0.9*(n+1)^-0.8"))
    spec = ScenarioSpec(offspring=off, immigration=imm, lam=1.0, nu=0.0,
                        divergent=True)
    length = engine.block_length(spec, 48)
    assert length == engine.CELLS // 48  # K-wide maps of a custom table
    _assert_within_the_step_loop_deficiency(spec, [length, length + 1], 48)


def test_a_table_that_narrows_below_a_wider_block_matches_the_step_loop():
    # the table is 3 wide above n = 300 and 2 wide up to it; blocks of 256
    # generations put n <= 88 under the K-wide map of the block above, so
    # compose_back zero-pads those rows to 3 and runs Horner with p2 = 0
    off = CustomOffspring(table=lambda n: np.array(
        [0.5, 0.3, 0.2] if n > 300 else [0.4, 0.6]))
    imm = BernoulliImmigration(m1=PowerSum.parse("1*(n+1)^-1"))
    spec = ScenarioSpec(offspring=off, immigration=imm)
    assert engine.block_length(spec, 64) == 256
    got = engine.propagate(spec, 600, 64).pmf.coeffs
    ref = _step_loop(spec, {600}, 64)[600].coeffs
    big = ref >= 1e-12
    assert big.sum() >= 10
    rel = np.abs(got[big] - ref[big]) / ref[big]
    assert float(rel.max()) <= 1e-11


def test_a_base_law_too_wide_for_float_binomials_is_applied_row_by_row():
    # C(1099, 549) overflows a float, so the block's Vandermonde product is
    # unavailable and each cohort applies its pmf row instead
    base = np.full(1100, 1.0 / 1100)
    assert pgf.affine_compose(base, np.array([[0.5, 0.5]])) is None
    spec = dataclasses.replace(make_spec(), immigration=CustomImmigration(
        m1=PowerSum.parse("0.5*(n+1)^-1"), base=tuple(base)))
    _assert_within_the_step_loop_deficiency(spec, [1, 3], 1100)


@pytest.mark.parametrize("immigration", ["bernoulli", "poisson"])
def test_deep_propagation_holds_one_block_of_tables(fixture_specs, immigration):
    # a table for all 20000 generations at K = 128 would take 20 MB; with
    # Poisson immigration every row of the table is K wide
    import tracemalloc

    spec = fixture_specs["thm1_poisson"]
    imm = FAMILIES["immigration"][immigration](m1=spec.immigration.m1)
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
    maps, _ = quad_spec.offspring.compose_back(np.arange(1, 257), np.array([0.0, 1.0]), 64,
                                               [(0, 256)])
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
    off = CustomOffspring(table=table)
    ns = np.arange(200, 456)
    g = np.array([0.1, 0.7])
    maps, (out,) = off.compose_back(ns, g, 16, [(0, ns.shape[0])])
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
    imm = PoissonImmigration(m1=PowerSum.parse("3*(n+1)^-0.7"))
    ns = np.arange(1, 257)
    rng = np.random.default_rng(1)
    maps = rng.uniform(0.0, 0.5, (ns.shape[0], 2))[:, :width]
    k = 48
    (got,) = imm.cohort_product(ns, maps, k, [(0, ns.shape[0])])
    m = imm.m1.at(ns)
    expo = np.zeros(k)
    expo[:width] = m @ maps
    expo[0] = m @ (maps[:, 0] - 1.0)
    want = pgf.exp_series(expo, k).coeffs
    big = want >= 1e-300
    assert float(np.max(np.abs(got[big] - want[big]) / want[big])) <= 1e-13
    assert np.all(got[~big] < 1e-300)
