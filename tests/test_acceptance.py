"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import time
import warnings

import numpy as np
import sympy

from nearcrit import cli, engine, limits, linfrac, pgf
from nearcrit.diagnostics import accompanying_gap_bound, toeplitz_weights, tv_distance
from nearcrit.families import NegativeBinomialLimit
from nearcrit.linfrac import chain_product
from nearcrit.scenarios import fixture_text, load_fixture
from oracles import (
    accompanying_eval,
    composed_deriv_profile,
    deriv_sum_limit,
    faa_f2_coefficient,
    faa_weight,
    general_limit_pgf,
    general_limit_pmf,
    vartheta,
)

X_GRID_11 = tuple(round(0.1 * i, 1) for i in range(11))


def _criterion(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_oracle_equivalence_two_routes():
    spec = load_fixture("lf_crosscheck").spec
    start = time.monotonic()
    state = engine.propagate(spec, 50, 400)
    worst = max(
        abs(pgf.evaluate(state.pmf, x) - linfrac.generation_pgf(spec, 50, x))
        for x in X_GRID_11
    )
    elapsed = time.monotonic() - start
    _criterion(
        "criterion 1: exact-LF route vs coefficient route at n=50, K=400",
        worst <= 1e-8 and elapsed < 10.0,
        f"sup gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_poisson_convergence():
    spec = load_fixture("thm1_poisson").spec
    start = time.monotonic()
    states = engine.propagate_sequence(spec, [100, 1000, 10000], 64)
    target = limits.poisson_pmf(2.0, 64)
    tvs = [tv_distance(s.pmf, target) for s in states]
    elapsed = time.monotonic() - start
    ok = tvs[0] > tvs[1] > tvs[2] and tvs[2] <= 0.02 and elapsed < 60.0
    _criterion(
        "criterion 2: TV to Poisson(2) decreasing over {1e2,1e3,1e4}",
        ok,
        f"tvs={[f'{v:.2e}' for v in tvs]}, {elapsed:.1f}s",
    )


def test_criterion_3_negative_binomial_convergence():
    spec = load_fixture("thm5_nb").spec
    states = engine.propagate_sequence(spec, [100, 300, 1000], 64)
    target = limits.nb_pmf(2.0, 1.0 / 3.0, 64)
    tvs = [tv_distance(s.pmf, target) for s in states]
    ok_tv = tvs[0] > tvs[1] > tvs[2] and tvs[2] <= 0.05

    n = 2000
    prof = composed_deriv_profile(spec, n, 3)
    m = np.asarray(spec.immigration.mean(np.arange(1, n + 1)), dtype=float)
    rels = []
    for k in (1, 2, 3):
        total = float(np.sum(m * prof[1:, k - 1]))
        target_k = deriv_sum_limit(1.0, 1.0, k)
        rels.append(abs(total - target_k) / target_k)
    ok_sums = all(r <= 0.05 for r in rels)
    _criterion(
        "criterion 3: TV to NB(2,1/3) and derivative sums within 5%",
        ok_tv and ok_sums,
        f"tvs={[f'{v:.2e}' for v in tvs]}, rels={[f'{r:.2%}' for r in rels]}",
    )


def test_criterion_4_product_law_closed_forms():
    spec1 = load_fixture("thm6_example1").spec
    worst = max(
        abs(
            limits.product_law_eval(spec1, x, tol=1e-7)
            - limits.inverse_square_product_pgf(x)
        )
        for x in (0.0, 0.25, 0.5, 0.75, 0.95)
    )
    spec2 = load_fixture("thm6_example2").spec
    mean = limits.product_law_mean(spec2, tol=1e-7)
    mean_gap = abs(mean - math.pi**2 / 6.0)
    _criterion(
        "criterion 4: infinite-product law vs closed forms",
        worst <= 1e-6 and mean_gap <= 1e-6,
        f"sup gap {worst:.2e}, mean gap {mean_gap:.2e}",
    )


def test_criterion_5_limit_constructors_cross_checks():
    measure = limits.cp_intensity_finite((2.0, 1.0, 0.0))
    ok_atoms = np.allclose(measure.atoms, [1.0, 0.5], atol=1e-14)

    ok_nb = True
    for lam, nu in ((1.0, 1.0), (2.0, 0.5)):
        par = NegativeBinomialLimit.from_limits(lam, nu)

        def c_rule(l, lam=lam, nu=nu):
            return lam * (nu / 2.0) ** (l - 1) / l

        tv = tv_distance(
            general_limit_pmf(c_rule, 200, tol=1e-10),
            limits.nb_pmf(par.r, par.p, 200),
        )
        ok_nb = ok_nb and tv <= 1e-9

    # lambda_l / l! of the fixture's log-series rule, lambda_l = (l - 1)!/l
    assert load_fixture("thm4_log2").spec.lambda_rule == "log_series"
    atoms = limits.log_series_measure(64)
    worst = max(
        abs(
            atoms.pgf_at(x)
            - general_limit_pgf(lambda l: 1.0 / l**2, x, tol=1e-10)
        )
        for x in X_GRID_11
    )
    _criterion(
        "criterion 5: CP/NB/log-series constructor cross-checks",
        ok_atoms and ok_nb and worst <= 1e-8,
        f"log-series path gap {worst:.2e}",
    )


def test_criterion_6_invariant_suite():
    failures = []

    # mass conservation through the operation chain
    for name in ("thm1_poisson", "thm5_nb", "thm3_cp_finite", "thm4_log2"):
        spec = load_fixture(name).spec
        state = engine.propagate(spec, 60, 128)
        if abs(state.pmf.coeffs.sum() + state.pmf.deficiency - 1.0) > 1e-12:
            failures.append(f"mass conservation broke on {name}")

    # first-derivative chain identity for chains up to 1e3
    spec = load_fixture("lf_crosscheck").spec
    for j, n in ((0, 1000), (500, 1000), (999, 1000)):
        explicit = math.prod(
            float(spec.offspring.rho_rule.rho(l)) for l in range(j + 1, n + 1)
        )
        got = chain_product(spec, j, n)
        if not math.isclose(got, explicit, rel_tol=1e-12, abs_tol=1e-300):
            failures.append(f"chain-product identity broke at j={j}")

    # sandwich bounds on every fixture
    for name in ("thm1_poisson", "thm3_cp_finite", "thm4_log2", "thm5_nb",
                 "thm6_example1", "thm6_example2", "lf_crosscheck"):
        spec = load_fixture(name).spec
        n = 40
        for j in (1, 10, 39):
            rho_jn = chain_product(spec, j, n)
            theta_jn = math.prod(
                vartheta(spec, l, n) for l in range(j + 1, n + 1)
            )
            for x in X_GRID_11:
                val = engine.composed_eval_all(spec, n, x)[j]
                if not (
                    1.0 + rho_jn * (x - 1.0) - 1e-12
                    <= val
                    <= 1.0 + theta_jn * (x - 1.0) + 1e-12
                ):
                    failures.append(f"sandwich broke on {name} j={j} x={x}")

    # telescoping identity
    for name in ("thm1_poisson", "thm5_nb", "thm6_example1"):
        spec = load_fixture(name).spec
        for n in (3, 17, 101):
            rho_sum, _ = toeplitz_weights(spec, n)
            want = 1.0 - float(spec.offspring.mean(1)) * chain_product(spec, 1, n)
            if abs(rho_sum - want) > 1e-14:
                failures.append(f"telescoping broke on {name} n={n}")

    # pair-weight identity for k = 2..12
    for k in range(2, 13):
        total = sum(
            faa_weight(k + 1, i)
            * math.factorial(i)
            / 2.0 ** (i - 1)
            * math.factorial(k + 1 - i)
            / 2.0 ** (k - i)
            for i in range(1, (k + 1) // 2 + 1)
        )
        if not math.isclose(
            total / k, math.factorial(k + 1) / 2.0**k, rel_tol=1e-12
        ):
            failures.append(f"pair-weight identity broke at k={k}")

    # f''(g) coefficient vs brute-force symbolic differentiation, k <= 6
    x, s = sympy.symbols("x s")
    g = sympy.Rational(1, 2) * x + sympy.Rational(1, 3) * x**2 + \
        sympy.Rational(1, 5) * x**3
    for k in range(2, 7):
        derivs = [float(sympy.diff(g, x, i).subs(x, 1)) for i in range(1, k)]
        poly = sympy.expand(sympy.diff(sympy.exp(s * g), x, k) / sympy.exp(s * g))
        want = float(poly.coeff(s, 2).subs(x, 1))
        if not math.isclose(
            faa_f2_coefficient(derivs, k), want, rel_tol=1e-9, abs_tol=1e-9
        ):
            failures.append(f"f'' coefficient broke at k={k}")

    # accompanying gap below its bound on Bernoulli-immigration fixtures
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ("thm1_poisson", "thm5_nb", "lf_crosscheck",
                     "thm6_example1"):
            spec = load_fixture(name).spec
            for n in (10, 60):
                for xv in (0.0, 0.5, 0.9):
                    gap = abs(
                        engine.pgf_via_product(spec, n, xv)
                        - accompanying_eval(spec, n, xv)
                    )
                    if gap > accompanying_gap_bound(spec, n, xv) + 1e-12:
                        failures.append(
                            f"gap bound broke on {name} n={n} x={xv}"
                        )

    _criterion(
        "criterion 6: invariant suite (zero failures required)",
        not failures,
        "; ".join(failures) if failures else "all invariants held",
    )


def test_criterion_7_monte_carlo_cross_check(tmp_path):
    spec = load_fixture("thm1_poisson").spec
    emp1 = engine.simulate(spec, 200, 1_000_000, seed=2024)
    emp2 = engine.simulate(spec, 200, 1_000_000, seed=2024)
    same = np.array_equal(emp1.coeffs, emp2.coeffs)

    state = engine.propagate(spec, 200, 64)
    tv = tv_distance(emp1, state.pmf)

    # byte-level determinism through the CLI writer
    path = tmp_path / "thm1.scn"
    path.write_text(fixture_text("thm1_poisson"))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}.csv"
        code = cli.main(
            ["--scenario", str(path), "--command", "simulate", "--n", "40",
             "--reps", "50000", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    _criterion(
        "criterion 7: Monte Carlo vs exact propagation and determinism",
        same and tv <= 0.005 and outs[0] == outs[1],
        f"tv {tv:.2e}, identical arrays {same}, identical bytes "
        f"{outs[0] == outs[1]}",
    )


def test_criterion_8_nb_to_poisson_continuity():
    par = NegativeBinomialLimit.from_limits(1.0, 1e-6)
    tv = tv_distance(limits.nb_pmf(par.r, par.p, 80), limits.poisson_pmf(1.0, 80))
    _criterion(
        "criterion 8: NB(2l/v, v/(2+v)) -> Poisson(l) as v -> 0",
        tv <= 1e-5,
        f"tv {tv:.2e}",
    )
