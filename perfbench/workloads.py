"""Seeded workloads: scenario files, decks of CLI calls, and output checkers.

A workload is a *deck*: a fixed list of ``nearcrit`` CLI calls drawn from
the workload seed. The timed phase replays the whole deck until the run
time is used up, so every call runs several times with identical inputs.
Each call has its own scenario file, a seeded perturbation of one of the
bundled fixtures that stays inside the admissible parameter ranges.

Costs are steered by the deck layout, not by the seed: every slot has a
fixed size class (scenario, command, K, roughly n or reps) and the seed only
jitters sizes by a few percent and perturbs values that do not change the
amount of work (rate constants, x points, the Monte Carlo seed).

Checkers run after the timed phase and compare one output text against an
oracle computed by a different route; they raise :class:`CheckFailure`.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("exact_deep", "report_grid", "monte_carlo", "product_limit")


class CheckFailure(Exception):
    """An output disagrees with its oracle."""


@dataclass(frozen=True)
class Call:
    """One ``cli.main`` call; ``label`` also names its scenario file."""

    label: str
    command: str
    flags: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Deck:
    workload: str
    seed: int
    scenarios: dict  # label -> scenario text
    calls: tuple[Call, ...]
    warmups: tuple[Call, ...]  # one tiny call per command the deck uses
    min_passes: int = 2  # every call is seen twice, for the byte check


# ---------------------------------------------------------------------------
# scenario texts


def fixture_table(nearcrit_scenarios, name: str) -> dict:
    """key -> value of a bundled fixture, comments dropped, order kept."""
    table = {}
    for raw in nearcrit_scenarios.fixture_text(name).splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            table[key] = value
    return table


_TERM = re.compile(
    r"(?P<coef>[0-9][0-9.eE]*)\*(?:\(n\+(?P<shift>[0-9.]+)\)|n)\^-(?P<power>[0-9.]+)"
)


def scale_rule(rule: str, factor: float) -> str:
    """Multiply every coefficient of a power-sum rate rule by ``factor``."""
    terms = []
    for m in _TERM.finditer(rule.replace(" ", "")):
        base = f"(n+{m['shift']})" if m["shift"] else "n"
        terms.append(f"{float(m['coef']) * factor!r}*{base}^-{m['power']}")
    if not terms:
        raise ValueError(f"cannot scale rule {rule!r}")
    return " + ".join(terms)


def to_text(table: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in table.items())


def divergent_variant(table: dict, s: float, poisson_immigration=False) -> dict:
    """Scale rho.c and the immigration rule together by ``s`` in [0.8, 1].

    The ratio m_{n,1}/(1 - rho_n) is unchanged, so the declared limit
    constants stay exact; s <= 1 keeps rho_1 >= 0 (thm4 has n0 = 0), keeps
    Bernoulli immigration rates <= 1, and keeps the quadratic window open
    from n = 1.
    """
    out = dict(table)
    out["offspring.rho.c"] = repr(float(out["offspring.rho.c"]) * s)
    out["immigration.m1.rule"] = scale_rule(out["immigration.m1.rule"], s)
    if poisson_immigration:
        out["immigration.family"] = "poisson"
    return out


def product_variant(table: dict, a: float, quadratic=False) -> dict:
    """thm6 scenario with the immigration rule scaled by ``a`` in [0.5, 1]."""
    out = dict(table)
    out["immigration.m1.rule"] = scale_rule(out["immigration.m1.rule"], a)
    if quadratic:
        # inserted right after the family key so the file reads naturally
        rebuilt = {}
        for k, v in out.items():
            rebuilt[k] = "quadratic" if k == "offspring.family" else v
            if k == "offspring.family":
                rebuilt["offspring.nu"] = "1e-9"
        out = rebuilt
    return out


# ---------------------------------------------------------------------------
# decks


def _jitter(rng: random.Random, center: float, rel: float = 0.03) -> int:
    return int(round(center * rng.uniform(1.0 - rel, 1.0 + rel)))


def _fmt_list(values) -> str:
    return ",".join(str(v) if isinstance(v, int) else repr(v) for v in values)


def _x_points(rng: random.Random, count: int) -> list:
    """``count`` stratified points in [0.05, 0.95), rounded to 6 digits."""
    width = 0.90 / count
    return [round(0.05 + width * (i + rng.random()), 6) for i in range(count)]


# Slot sizes are chosen so that all but one slot cost about the same (0.4 to
# 0.6 s on a 2-core x86 virtual machine); the last slot of each deck is the heavy
# one (the last three of product_limit). With equal-cost slots the median
# call time does not jump when the seed reorders slot costs.

# (label, fixture, variant, n, K); variant "pimm" swaps in Poisson immigration
_EXACT_SLOTS = (
    ("thm1_n1600", "thm1_poisson", "", 1600, 64),
    ("thm1_n850", "thm1_poisson", "", 850, 128),
    ("thm1pimm_n750", "thm1_poisson", "pimm", 750, 128),
    ("thm5_n1400", "thm5_nb", "", 1400, 64),
    ("thm5_n800", "thm5_nb", "", 800, 128),
    ("thm3_n1400", "thm3_cp_finite", "", 1400, 64),
    ("thm4_n800", "thm4_log2", "", 800, 128),
    ("lf_n155", "lf_crosscheck", "", 155, 128),
    ("lf_n100", "lf_crosscheck", "", 100, 256),
)

# (label, fixture, variant, top n, targets, K)
_REPORT_SLOTS = (
    ("thm1_top1800", "thm1_poisson", "", 1800, 30, 64),
    ("thm3_top1550", "thm3_cp_finite", "", 1550, 24, 64),
    ("thm4_top1450", "thm4_log2", "", 1450, 30, 64),
    ("thm5_top1300", "thm5_nb", "", 1300, 26, 64),
    ("thm1pimm_top1600", "thm1_poisson", "pimm", 1600, 32, 64),
    ("thm5_top2000", "thm5_nb", "", 2000, 40, 64),
)

# (label, fixture, variant, n, reps); reps above 2^17 = 131072 cross chunks
_MC_SLOTS = (
    ("thm1_n100", "thm1_poisson", "", 100, 95_000),
    ("thm5_n80", "thm5_nb", "", 80, 100_000),
    ("thm3_n100", "thm3_cp_finite", "", 100, 80_000),
    ("thm4_n100", "thm4_log2", "", 100, 90_000),
    ("thm1pimm_n60", "thm1_poisson", "pimm", 60, 140_000),
    ("lf_n50", "lf_crosscheck", "", 50, 135_000),
    ("thm1_n50", "thm1_poisson", "", 50, 200_000),
)

# (label, fixture, immigration kind, command); "generic" is the thm6_example1
# rule under quadratic offspring with nu = 1e-9, which takes the generic
# horizon-doubling path of product_law_eval (see README.md for why it runs
# at tol 1e-4). Three generic slots make the heavy calls fill the
# call_tail_s window, see _PRODUCT_MIN_PASSES.
_PRODUCT_SLOTS = (
    ("ex1_limits", "thm6_example1", "bernoulli", "limits"),
    ("ex2_limits", "thm6_example2", "poisson", "limits"),
    ("ex1_report", "thm6_example1", "bernoulli", "report"),
    ("ex2_report", "thm6_example2", "poisson", "report"),
    ("quad_limits_a", "thm6_example1", "generic", "limits"),
    ("quad_limits_b", "thm6_example1", "generic", "limits"),
    ("quad_limits_c", "thm6_example1", "generic", "limits"),
)
_GENERIC_TOL = 1e-4
# 4 passes x 3 generic slots = 12 generic calls, more than the 10 that
# call_tail_s needs beyond its percentile, so the tail is a generic call
_PRODUCT_MIN_PASSES = 4


def _product_x_points(rng: random.Random, a: float, count: int) -> list:
    """x points with a (1 - x) stratified over [0.20, 0.25].

    ``product_law_eval`` truncates the product at the first power of two
    j_top with a / j_top below tol / (1.1 (1 - x)); at tol 1e-7 this band
    always gives j_top = 2^22, so the cost per point does not depend on the
    seed. Every point lies in [0.5, 0.8] because a >= 0.5.
    """
    width = 0.05 / count
    return [round(1.0 - (0.20 + width * (i + rng.random())) / a, 6)
            for i in range(count)]


# Tiny-call sizes used by the self-test ("small") instead of the full ones.
_SMALL = {"n": 0.05, "reps": 0.05, "top": 0.1, "targets": 0.25}


def _scaled(value: int, key: str, small: bool, floor: int) -> int:
    return max(floor, int(value * _SMALL[key])) if small else value


def build_deck(nearcrit_scenarios, workload: str, seed: int,
               small: bool = False) -> Deck:
    """Deck of ``workload`` for ``seed``; ``small`` shrinks sizes for tests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    fixtures = {}

    def table(name):
        if name not in fixtures:
            fixtures[name] = fixture_table(nearcrit_scenarios, name)
        return fixtures[name]

    scen, calls = {}, []
    if workload == "exact_deep":
        for label, fx, variant, n, k in _EXACT_SLOTS:
            s = rng.uniform(0.8, 1.0)
            scen[label] = to_text(divergent_variant(table(fx), s, variant == "pimm"))
            n = _scaled(_jitter(rng, n), "n", small, 10)
            k = min(k, 64) if small else k
            calls.append(Call(label, "propagate", ("--n", str(n), "--K", str(k)),
                              {"n": n, "K": k, "xs": _x_points(rng, 3)}))
    elif workload == "report_grid":
        for label, fx, variant, top, count, k in _REPORT_SLOTS:
            s = rng.uniform(0.8, 1.0)
            scen[label] = to_text(divergent_variant(table(fx), s, variant == "pimm"))
            top = _scaled(_jitter(rng, top), "top", small, 20)
            count = _scaled(count, "targets", small, 3)
            step = top / count
            grid = sorted({max(1, int(round(step * (i + rng.uniform(0.5, 1.0)))))
                           for i in range(count - 1)} | {top})
            order = list(grid)
            rng.shuffle(order)
            # rows whose tv is checked against engine.propagate itself
            direct = sorted({grid[0], rng.choice(grid[:max(1, len(grid) // 2)])})
            calls.append(Call(label, "report",
                              ("--n-grid", _fmt_list(order), "--K", str(k)),
                              {"grid": grid, "K": k, "direct": direct}))
    elif workload == "monte_carlo":
        for label, fx, variant, n, reps in _MC_SLOTS:
            s = rng.uniform(0.8, 1.0)
            scen[label] = to_text(divergent_variant(table(fx), s, variant == "pimm"))
            n = _scaled(_jitter(rng, n), "n", small, 10)
            reps = _scaled(_jitter(rng, reps), "reps", small, 2000)
            mc_seed = rng.randrange(1, 2**31)
            calls.append(Call(label, "simulate",
                              ("--n", str(n), "--reps", str(reps),
                               "--seed", str(mc_seed)),
                              {"n": n, "reps": reps}))
    else:  # product_limit
        for label, fx, kind, command in _PRODUCT_SLOTS:
            if kind == "generic":
                # a = 1 and x in [0.69, 0.79] keep j_top = 4096 and three
                # composed passes (horizons 8192 to 32768; from x < 0.673 a
                # fourth pass doubles the cost), so this slot's cost does
                # not depend on the seed
                scen[label] = to_text(product_variant(table(fx), 1.0,
                                                      quadratic=True))
                xs = [round(rng.uniform(0.69, 0.79), 6)]
                calls.append(Call(label, command,
                                  ("--x-grid", _fmt_list(xs),
                                   "--tol", repr(_GENERIC_TOL)),
                                  {"a": 1.0, "xs": xs, "imm": kind,
                                   "tol": _GENERIC_TOL}))
                continue
            a = round(rng.uniform(0.5, 1.0), 6)
            scen[label] = to_text(product_variant(table(fx), a))
            xs = _product_x_points(rng, a, 1)
            params = {"a": a, "xs": xs, "imm": kind, "tol": 1e-7}
            flags = ("--x-grid", _fmt_list(xs))
            if command == "report":
                n = _scaled(_jitter(rng, 150, 0.1), "n", small, 10)
                params.update(grid=[n], K=64)
                flags = ("--n-grid", str(n), "--K", "64") + flags
            calls.append(Call(label, command, flags, params))

    # warm-ups run on the unperturbed thm1 fixture at toy sizes
    scen["warmup"] = to_text(table("thm1_poisson"))
    tiny = {
        "propagate": ("--n", "5", "--K", "8"),
        "report": ("--n-grid", "3,5", "--K", "8"),
        "simulate": ("--n", "5", "--reps", "100", "--seed", "1"),
        "limits": ("--K", "8"),
    }
    used = sorted({c.command for c in calls})
    warmups = tuple(Call("warmup", cmd, tiny[cmd]) for cmd in used)
    min_passes = _PRODUCT_MIN_PASSES if workload == "product_limit" else 2
    return Deck(workload, seed, scen, tuple(calls), warmups, min_passes)


# ---------------------------------------------------------------------------
# output parsing


def parse_pmf_csv(text: str) -> np.ndarray:
    lines = text.strip().split("\n")
    if lines[0] != "k,p":
        raise CheckFailure(f"PMF header is {lines[0]!r}")
    out = []
    for expect, line in enumerate(lines[1:]):
        k, p = line.split(",")
        if int(k) != expect:
            raise CheckFailure(f"PMF row {expect} is labelled {k}")
        out.append(float(p))
    return np.array(out)


def parse_table_csv(text: str) -> tuple[list, list]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckFailure(f"row {line!r} does not match header {header}")
        rows.append({h: (float(c) if c else None) for h, c in zip(header, cells)})
    return header, rows


def _polyval(coeffs: np.ndarray, x: float) -> float:
    return float(np.polyval(coeffs[::-1], x))


# ---------------------------------------------------------------------------
# checkers; ``nc`` is the imported ``nearcrit`` package, ``spec`` the parsed
# scenario of the call


def check_exact(nc, call: Call, text: str, spec) -> None:
    """-1e-8 <= F_oracle(x) - F_pmf(x) <= deficiency + 1e-8 at seeded x."""
    p = parse_pmf_csv(text)
    n, k = call.params["n"], call.params["K"]
    if p.shape[0] != k:
        raise CheckFailure(f"{p.shape[0]} coefficients for K={k}")
    if np.any(p < 0.0):
        raise CheckFailure("negative coefficient")
    deficiency = max(0.0, 1.0 - float(p.sum()))
    oracles = [("pgf_via_product", nc.engine.pgf_via_product)]
    if (spec.offspring.kind in ("linear_fractional", "bernoulli")
            and spec.immigration.kind == "bernoulli"):
        oracles.append(("linfrac.generation_pgf", nc.linfrac.generation_pgf))
    for x in call.params["xs"]:
        f_pmf = _polyval(p, x)
        for name, fn in oracles:
            gap = fn(spec, n, x) - f_pmf
            if not -1e-8 <= gap <= deficiency + 1e-8:
                raise CheckFailure(
                    f"{name} - F_pmf = {gap:.3e} at x={x} "
                    f"(deficiency {deficiency:.3e})"
                )


def _limit_pmf(nc, spec, k: int):
    """Limit PMF built straight from the limit-law constructors."""
    fam, lim = nc.families, nc.limits
    law = fam.classify(spec)
    if isinstance(law, fam.PoissonLimit):
        return lim.poisson_pmf(law.lam, k)
    if isinstance(law, fam.NegativeBinomialLimit):
        return lim.nb_pmf(law.r, law.p, k)
    if isinstance(law, fam.CompoundPoissonLimit):
        return lim.cp_pmf(lim.cp_intensity_finite(law.lambdas), k)
    if isinstance(law, fam.GeneralExpLimit) and law.rule == "log_series":
        return lim.cp_pmf(lim.log_series_measure(), k)
    raise CheckFailure(f"no PMF oracle for {law.describe()}")


def _check_grid_rows(nc, call: Call, text: str, spec) -> list:
    header, rows = parse_table_csv(text)
    if header[:6] != ["n", "tv", "mean_gap", "m2_gap", "bound", "toeplitz"]:
        raise CheckFailure(f"report header {header}")
    got = [int(r["n"]) for r in rows]
    if got != call.params["grid"]:
        raise CheckFailure(f"rows {got} != requested grid {call.params['grid']}")
    for r in rows:
        n = int(r["n"])
        expect = 1.0 - nc.linfrac.chain_product(spec, 0, n)
        if abs(r["toeplitz"] - expect) > 1e-10:
            raise CheckFailure(f"toeplitz {r['toeplitz']!r} != {expect!r} at n={n}")
    return rows


def check_report(nc, call: Call, text: str, spec) -> None:
    """tv per row against the law of ``engine.propagate`` at that n.

    ``engine.propagate`` is called at the seeded rows ``direct`` (the
    smallest n and one n in the lower half of the grid); the other rows use
    one forward sweep of ``engine.step``, which must agree with
    ``engine.propagate`` at the direct rows to 1e-12 per coefficient. A
    propagation route that rounds differently from the step loop passes;
    one sweep costs max(n) steps where a propagate per row would cost
    sum(n).
    """
    rows = _check_grid_rows(nc, call, text, spec)
    k = call.params["K"]
    target = _limit_pmf(nc, spec, k)
    grid = call.params["grid"]
    wanted = set(grid)
    direct = set(call.params["direct"])
    law = nc.pgf.Pmf.delta(0)
    tvs = {}
    for m in range(1, grid[-1] + 1):
        law = nc.engine.step(law, spec.offspring.pmf(m, k),
                             spec.immigration.pmf(m, k), k)
        if m in direct:
            ref = nc.engine.propagate(spec, m, k).pmf
            gap = float(np.max(np.abs(ref.coeffs - law.coeffs)))
            if gap > 1e-12:
                raise CheckFailure(f"step sweep differs from engine.propagate "
                                   f"by {gap:.3e} at n={m}")
            tvs[m] = nc.diagnostics.tv_distance(ref, target)
        elif m in wanted:
            tvs[m] = nc.diagnostics.tv_distance(law, target)
    for r in rows:
        n = int(r["n"])
        if abs(r["tv"] - tvs[n]) > 1e-12:
            raise CheckFailure(f"tv {r['tv']!r} != oracle {tvs[n]!r} at n={n}")


def mc_tv_bound(exact: np.ndarray, deficiency: float, reps: int) -> float:
    """High-probability bound on the TV of a ``reps``-sample empirical law.

    E[TV] <= (1/2) sum_k sqrt(p_k (1 - p_k) / reps); TV moves by at most
    1/reps per trajectory, so McDiarmid adds sqrt(log(1e9) / (2 reps)) for a
    1e-9 false-alarm rate. Mass beyond the exact law's truncation is
    counted twice through ``deficiency``.
    """
    p = np.clip(exact, 0.0, 1.0)
    mean_bound = 0.5 * float(np.sum(np.sqrt(p * (1.0 - p) / reps)))
    return mean_bound + math.sqrt(math.log(1e9) / (2.0 * reps)) + 2.0 * deficiency


def check_simulate(nc, call: Call, text: str, spec) -> None:
    """Counts are whole trajectories and the TV to the exact law is small."""
    p = parse_pmf_csv(text)
    reps = call.params["reps"]
    counts = p * reps
    if np.any(np.abs(counts - np.round(counts)) > 1e-6 * max(1.0, reps / 1e4)):
        raise CheckFailure("empirical masses are not multiples of 1/reps")
    if abs(float(np.round(counts).sum()) - reps) > 0.5:
        raise CheckFailure(f"counts sum to {counts.sum():.3f}, not {reps}")
    exact = nc.engine.propagate(spec, call.params["n"], 128).pmf
    empirical = nc.pgf.Pmf(np.round(counts) / reps)
    tv = nc.diagnostics.tv_distance(empirical, exact)
    bound = mc_tv_bound(exact.coeffs, exact.deficiency, reps)
    if tv > bound:
        raise CheckFailure(f"TV {tv:.4g} to the exact law exceeds {bound:.4g}")


def _product_closed_form(nc, kind: str, a: float, x: float) -> float:
    if kind == "poisson":
        return math.exp(a * math.pi**2 / 6.0 * (x - 1.0))
    return nc.limits.inverse_square_product_pgf(1.0 - a * (1.0 - x))


def check_product(nc, call: Call, text: str, spec) -> None:
    """Product-law values against closed forms or the affine fast path."""
    params = call.params
    if call.command == "report":
        rows = _check_grid_rows(nc, call, text, spec)
        for r in rows:
            n = int(r["n"])
            gap = max(
                abs(nc.engine.pgf_via_product(spec, n, x)
                    - _product_closed_form(nc, params["imm"], params["a"], x))
                for x in params["xs"]
            )
            if abs(r["tv"] - gap) > params["tol"] + 1e-6:
                raise CheckFailure(f"PGF gap {r['tv']!r} != oracle {gap!r} at n={n}")
        return
    header, rows = parse_table_csv(text)
    if header != ["x", "g"]:
        raise CheckFailure(f"limits header {header}")
    if [r["x"] for r in rows] != params["xs"]:
        raise CheckFailure("x grid of the output differs from the request")
    for r in rows:
        x, g = r["x"], r["g"]
        if params["imm"] == "generic":
            ref = nc.limits.product_law_eval(_bernoulli_twin(nc, spec), x,
                                             params["tol"])
            allowed = 1e-3
        else:
            ref = _product_closed_form(nc, params["imm"], params["a"], x)
            allowed = params["tol"] + 1e-6
        if abs(g - ref) > allowed:
            raise CheckFailure(f"g({x}) = {g!r}, oracle {ref!r}")


def _bernoulli_twin(nc, spec):
    """Same rho rule and immigration with Bernoulli offspring (fast path)."""
    fam = nc.families
    off = fam.OffspringFamily(kind="bernoulli", rho_rule=spec.offspring.rho_rule)
    return fam.ScenarioSpec(
        offspring=off, immigration=spec.immigration, lam=spec.lam, nu=0.0,
        divergent=spec.divergent, horizon=spec.horizon, k_trunc=spec.k_trunc,
    )


CHECKS = {
    "exact_deep": check_exact,
    "report_grid": check_report,
    "monte_carlo": check_simulate,
    "product_limit": check_product,
}


# ---------------------------------------------------------------------------
# deliberate corruptions, one per workload, for the checker self-test


def _move_mass(text: str, amount: float) -> str:
    p = parse_pmf_csv(text)
    top = int(np.argmax(p))
    if top + 1 >= p.shape[0]:
        raise ValueError("no room to move mass")
    amount = min(amount, float(p[top]))
    p[top] -= amount
    p[top + 1] += amount
    return "k,p\n" + "".join(f"{k},{v:.17g}\n" for k, v in enumerate(p))


def _bump_cell(text: str, column: str, delta: float) -> str:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    col = header.index(column)
    cells = lines[1].split(",")
    cells[col] = f"{float(cells[col]) + delta:.17g}"
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def corrupt(call: Call, text: str) -> str:
    """A wrong output of the same shape that the call's checker must reject."""
    if call.command == "propagate":
        return _move_mass(text, 1e-3)
    if call.command == "simulate":
        # a multiple of 1/reps, so only the TV test can catch it
        return _move_mass(text, round(0.1 * call.params["reps"]) / call.params["reps"])
    if call.command == "report":
        return _bump_cell(text, "tv", 1e-9 if "a" not in call.params else 1e-4)
    if call.params.get("imm") == "generic":
        return _bump_cell(text, "g", 2e-3)
    return _bump_cell(text, "g", 1e-4)
