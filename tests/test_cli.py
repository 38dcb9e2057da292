import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import nearcrit
from nearcrit import cli, diagnostics, engine, limits, scenarios
from nearcrit.errors import ScenarioParseError, ScenarioValidationError
from nearcrit.families import (
    CompoundPoissonLimit,
    GeneralExpLimit,
    NegativeBinomialLimit,
    OffspringFamily,
    PoissonLimit,
    ProductLimit,
    classify,
)
from oracles import BRUTEFORCE_ERROR, product_law_bruteforce

EXPECTED_LAWS = {
    "thm1_poisson": PoissonLimit,
    "thm3_cp_finite": CompoundPoissonLimit,
    "thm4_log2": GeneralExpLimit,
    "thm5_nb": NegativeBinomialLimit,
    "thm6_example1": ProductLimit,
    "thm6_example2": ProductLimit,
    "lf_crosscheck": NegativeBinomialLimit,
}


def fixture_path(name, tmp_path):
    p = tmp_path / f"{name}.scn"
    p.write_text(scenarios.fixture_text(name))
    return str(p)


def test_every_fixture_parses_and_classifies():
    for name, law_type in EXPECTED_LAWS.items():
        sf = scenarios.load_fixture(name)
        assert isinstance(classify(sf.spec), law_type)


def test_fixture_roundtrip_parse_serialize_parse():
    for name in scenarios.FIXTURE_NAMES:
        first = scenarios.load_fixture(name)
        text = scenarios.serialize_scenario(first)
        second = scenarios.parse_scenario_text(text, name=name)
        assert second.spec == first.spec
        assert second.defaults == first.defaults
        assert scenarios.serialize_scenario(second) == text


def test_parse_rejects_unknown_key():
    with pytest.raises(ScenarioParseError, match="unknown key"):
        scenarios.parse_scenario_text("offspring.colour = blue")


def test_parse_rejects_flag_rule_contradiction():
    text = scenarios.fixture_text("thm1_poisson").replace(
        "offspring.rho.gamma = 1", "offspring.rho.gamma = 2"
    )
    with pytest.raises(ScenarioValidationError):
        scenarios.parse_scenario_text(text)


def test_parse_reports_line_numbers():
    with pytest.raises(ScenarioParseError, match=":2:"):
        scenarios.parse_scenario_text("# fine\nnot a kv line\n")


def test_classify_command_prints_nb_parameters(tmp_path, capsys):
    path = fixture_path("thm5_nb", tmp_path)
    code = cli.main(["--scenario", path, "--command", "classify"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "NegativeBinomial r=2 p=0.33333333333333331\n"


def test_propagate_command_csv(tmp_path):
    path = fixture_path("thm1_poisson", tmp_path)
    out = tmp_path / "pmf.csv"
    code = cli.main(
        ["--scenario", path, "--command", "propagate", "--n", "50",
         "--K", "32", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,p"
    assert len(lines) == 33


def test_report_command_schema(tmp_path):
    path = fixture_path("thm1_poisson", tmp_path)
    out = tmp_path / "report.csv"
    code = cli.main(
        ["--scenario", path, "--command", "report",
         "--n-grid", "20,40", "--K", "32", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,tv,mean_gap,m2_gap,bound,toeplitz"
    assert len(lines) == 3


def test_report_json_format(tmp_path):
    path = fixture_path("thm5_nb", tmp_path)
    out = tmp_path / "report.json"
    code = cli.main(
        ["--scenario", path, "--command", "report", "--n-grid", "20",
         "--K", "32", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["law"].startswith("NegativeBinomial")


def test_report_honours_tol_in_product_regime(tmp_path):
    from nearcrit import engine, limits, pgf

    path = fixture_path("thm6_example1", tmp_path)
    out = tmp_path / "report.json"
    spec = scenarios.load_fixture("thm6_example1").spec
    # propagation clamps the declared m_1 = 2 of this fixture
    with pytest.warns(UserWarning, match="clamped"):
        code = cli.main(
            ["--scenario", path, "--command", "report", "--n-grid", "50",
             "--x-grid", "0,0.5", "--tol", "1e-3", "--format", "json",
             "--out", str(out)]
        )
        state = engine.propagate(spec, 50, spec.k_trunc)
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    want = max(
        abs(pgf.evaluate(state.pmf, x) - limits.product_law_eval(spec, x, 1e-3))
        for x in (0.0, 0.5)
    )
    assert row["tv"] == want
    # the default tolerance gives a different product value at x = 0.5
    assert limits.product_law_eval(spec, 0.5, 1e-3) != limits.product_law_eval(
        spec, 0.5
    )


def test_simulate_outputs_are_byte_identical(tmp_path):
    path = fixture_path("thm1_poisson", tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--scenario", path, "--command", "simulate", "--n", "40",
            "--reps", "20000", "--seed", "123"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_limits_command_poisson_pmf_table(tmp_path, capsys):
    path = fixture_path("thm1_poisson", tmp_path)
    code = cli.main(["--scenario", path, "--command", "limits", "--K", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "k,p"


def test_limits_command_product_grid(tmp_path, capsys):
    path = fixture_path("thm6_example2", tmp_path)
    code = cli.main(
        ["--scenario", path, "--command", "limits", "--x-grid", "0.0,0.5,1.0",
         "--tol", "1e-6"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,g"
    assert len(lines) == 4


def test_limits_command_cp_atoms_json(tmp_path, capsys):
    path = fixture_path("thm3_cp_finite", tmp_path)
    code = cli.main(
        ["--scenario", path, "--command", "limits", "--K", "24",
         "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["atoms"] == [1.0, 0.5]
    assert len(payload["pmf"]) == 24


@pytest.mark.parametrize("name", [
    n for n, law in EXPECTED_LAWS.items()
    if law in (PoissonLimit, CompoundPoissonLimit, NegativeBinomialLimit)])
def test_limits_command_prints_the_limits_module_target(tmp_path, capsys, name):
    # a law with a PMF: the command prints limits.limit_pmf and
    # limits.limit_atoms of the classified law, bit for bit
    spec = scenarios.load_fixture(name).spec
    law = classify(spec)
    path = fixture_path(name, tmp_path)
    code = cli.main(["--scenario", path, "--command", "limits", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["pmf"] == limits.limit_pmf(law, spec.k_trunc).coeffs.tolist()
    atoms = limits.limit_atoms(law)
    assert payload.get("atoms") == (None if atoms is None else atoms.atoms.tolist())


def test_limits_command_general_exp_grid(tmp_path, capsys):
    # the grid comes from the law's atoms, so --tol does not reach it
    path = fixture_path("thm4_log2", tmp_path)
    outs = []
    for tol in ([], ["--tol", "1e-7"], ["--tol", "1e-12"]):
        code = cli.main(
            ["--scenario", path, "--command", "limits", "--x-grid", "0.0,0.5", *tol]
        )
        outs.append(capsys.readouterr().out)
        assert code == 0
        assert outs[-1].splitlines()[0] == "x,g"
    assert outs[1] == outs[2]


# exp(Li_2(x - 1)) on the default grid, from mpmath at 40 digits
EXP_DILOG = (0.43934643408123622, 0.47134584361759791, 0.50672765576455590,
             0.54598793402446569, 0.58972015153202424, 0.63864010008827370,
             0.69361891889394199, 0.75572756329678418, 0.82629771734730639,
             0.90700688745552512, 1.0)


def test_limits_general_exp_grid_is_exp_dilog(tmp_path, capsys):
    # thm4_log2: lambda_l = (l-1)!/l, so the law is exp(sum (x-1)^l / l^2)
    path = fixture_path("thm4_log2", tmp_path)
    assert cli.main(["--scenario", path, "--command", "limits"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [float(x) for x, _ in rows] == list(diagnostics.DEFAULT_X_GRID)
    for (_, g), want in zip(rows, EXP_DILOG, strict=True):
        assert float(g) == pytest.approx(want, abs=1e-15)


def test_csv_output_uses_17_digits_and_lf_endings(tmp_path):
    path = fixture_path("thm1_poisson", tmp_path)
    out = tmp_path / "pmf.csv"
    cli.main(
        ["--scenario", path, "--command", "propagate", "--n", "10",
         "--K", "16", "--out", str(out)]
    )
    raw = out.read_bytes()
    assert b"\r" not in raw
    text = raw.decode()
    # a full-precision float appears (17 significant digits)
    assert any(len(v.split(",")[1]) >= 17 for v in text.splitlines()[1:])


def test_classify_and_limits_run_on_every_fixture(tmp_path, capsys):
    for name in scenarios.FIXTURE_NAMES:
        path = fixture_path(name, tmp_path)
        assert cli.main(["--scenario", path, "--command", "classify"]) == 0
        args = ["--scenario", path, "--command", "limits", "--K", "32",
                "--x-grid", "0.5,0.9", "--tol", "1e-4"]
        assert cli.main(args) == 0
        capsys.readouterr()


def test_exit_code_parse_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.scn")
    assert cli.main(["--scenario", missing, "--command", "classify"]) == 2
    bad = tmp_path / "bad.scn"
    bad.write_text("offspring.colour = blue\n")
    assert cli.main(["--scenario", str(bad), "--command", "classify"]) == 2


def test_exit_code_validation_error(tmp_path):
    text = scenarios.fixture_text("thm1_poisson").replace(
        "offspring.rho.gamma = 1", "offspring.rho.gamma = 2"
    )
    p = tmp_path / "contradiction.scn"
    p.write_text(text)
    assert cli.main(["--scenario", str(p), "--command", "classify"]) == 3


def test_simulate_rejects_mixture_weight_above_one(tmp_path, capsys):
    # delta2 has mean 2, so the rule 5/(n+1) asks for weight 1.25 at n = 1
    text = scenarios.fixture_text("thm3_cp_finite").replace(
        "immigration.m1.rule = 2*(n+1)^-1", "immigration.m1.rule = 5*(n+1)^-1"
    ).replace("limits.lambda = 2\nlimits.lambda_seq = 2,1,0",
              "limits.lambda = 5\nlimits.lambda_seq = 5,2.5,0")
    p = tmp_path / "heavy_mixture.scn"
    p.write_text(text)
    for flags in (["--command", "simulate", "--n", "3", "--reps", "100"],
                  ["--command", "propagate", "--n", "3"]):
        assert cli.main(["--scenario", str(p), *flags]) == 3
        assert "mixture weight 1.25 at n=1" in capsys.readouterr().err


def test_simulate_reps_beyond_int64_is_a_validation_error(tmp_path, capsys):
    path = fixture_path("thm1_poisson", tmp_path)
    args = ["--scenario", path, "--command", "simulate", "--n", "3", "--reps"]
    assert cli.main(args + [str(2**63)]) == 3
    assert "does not fit in a 64-bit count" in capsys.readouterr().err


@pytest.mark.parametrize("rule", [
    "offspring.rho.gamma = 400",
    "offspring.rho.gamma = 60\noffspring.rho.n0 = 1000000",
])
def test_product_limit_with_rates_below_the_float_range(tmp_path, capsys, rule):
    # 1 - rho_n underflows to 0 from n = 2 on, so every rho_[j,inf] is 1
    # and g(x) = exp(-(1-x) sum_j m_{j,1}) with m_{j,1} = j^-2 + j^-3
    text = scenarios.fixture_text("thm6_example2").replace(
        "offspring.rho.gamma = 2\noffspring.rho.n0 = 0", rule)
    p = tmp_path / "steep.scn"
    p.write_text(text)
    args = ["--scenario", str(p), "--command", "limits", "--x-grid", "0.9"]
    assert cli.main(args) == 0
    x, g = capsys.readouterr().out.splitlines()[1].split(",")
    want = math.exp(-0.1 * (math.pi**2 / 6 + 1.2020569031595942))
    assert float(x) == 0.9 and float(g) == pytest.approx(want, abs=1e-7)
    args = ["--scenario", str(p), "--command", "report", "--n-grid", "3,10",
            "--format", "json"]
    assert cli.main(args) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[1]["n"] == 10
    # m_{n,1}/(1 - rho_n) is inf, which JSON writes as null
    assert rows[1]["condition_ratios"]["m1_ratio"] is None


def test_report_where_a_chain_product_underflows(tmp_path, capsys):
    # rho_[1,n] underflows near n = 7500; only the discarded second Toeplitz
    # sum needs it, so the report answers
    text = scenarios.fixture_text("thm1_poisson")
    for old, new in (("rho.gamma = 1", "rho.gamma = 0.3"), ("rho.n0 = 1", "rho.n0 = 0"),
                     ("2*(n+1)^-1", "1*(n+1)^-0.3"), ("lambda = 2", "lambda = 1")):
        text = text.replace(old, new)
    p = tmp_path / "underflow.scn"
    p.write_text(text)
    code = cli.main(["--scenario", str(p), "--command", "report", "--n-grid", "10000"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "n,tv,mean_gap,m2_gap,bound,toeplitz"
    assert out.splitlines()[1].startswith("10000,")


def test_exit_code_numeric_error(tmp_path, capsys):
    # a lambda sequence with a negative intensity atom is not the one the
    # rules give, which is checked when the file is read
    text = scenarios.fixture_text("thm3_cp_finite").replace(
        "limits.lambda_seq = 2,1,0", "limits.lambda_seq = 1,2,0"
    )
    p = tmp_path / "negatom.scn"
    p.write_text(text)
    assert cli.main(["--scenario", str(p), "--command", "limits"]) == 3
    assert ("limits.lambda_seq = [1.0, 2.0, 0.0] but the rules give [2.0, 1.0, 0.0]"
            in capsys.readouterr().err)


def test_exit_code_numeric_error_from_composed_maps(tmp_path, monkeypatch):
    # offspring coefficients summing above 1 push a composed value below 0
    # on the generic product-law path: a numeric failure, not bad input
    real = OffspringFamily.params

    def leaky(self, ns):
        p0, p1, p2 = real(self, ns)
        return p0, p1 + 0.25, p2

    monkeypatch.setattr(OffspringFamily, "params", leaky)
    text = scenarios.fixture_text("thm6_example1").replace(
        "offspring.family = bernoulli", "offspring.family = quadratic"
    ) + "offspring.nu = 1e-9\n"
    p = tmp_path / "leaky.scn"
    p.write_text(text)
    args = ["--scenario", str(p), "--command", "limits", "--x-grid", "0.5"]
    assert cli.main(args) == 4


def test_exit_code_wrong_regime(tmp_path):
    # report on a scenario outside every covered regime: nu > 0, fat moments
    text = scenarios.fixture_text("thm4_log2").replace(
        "offspring.family = bernoulli", "offspring.family = quadratic"
    ).replace("limits.nu = 0", "limits.nu = 1").replace(
        "limits.lambda_rule = log_series\n", ""
    )
    text += "offspring.nu = 1\n"
    p = tmp_path / "outside.scn"
    p.write_text(text)
    assert cli.main(["--scenario", str(p), "--command", "report"]) == 5


@pytest.mark.parametrize("fixture,old,new,reason", [
    # convergent offspring, immigration means not summable
    ("thm6_example1", "immigration.m1.rule = 1*n^-2 + 1*n^-3",
     "immigration.m1.rule = 1*n^-1", "needs summable immigration means"),
    # nu > 0 with delta2 immigration: second moments of the order of 1 - rho
    ("thm5_nb", "immigration.family = bernoulli",
     "immigration.family = custom\nimmigration.base = delta2",
     "requires second immigration moments"),
], ids=["convergent", "divergent"])
def test_limits_outside_every_regime_names_the_reason(tmp_path, capsys, fixture,
                                                       old, new, reason):
    text = scenarios.fixture_text(fixture)
    assert old in text
    p = tmp_path / "outside.scn"
    p.write_text(text.replace(old, new))
    for command in ("limits", "report"):
        assert cli.main(["--scenario", str(p), "--command", command]) == 5
        err = capsys.readouterr().err
        assert reason in err and "error:" in err


def test_simulate_negative_generation_is_a_validation_error(tmp_path, capsys):
    path = fixture_path("thm1_poisson", tmp_path)
    args = ["--scenario", path, "--command", "simulate", "--reps", "10", "--n", "-5"]
    assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "generation index must be >= 0" in captured.err


@pytest.mark.parametrize("flags,message", [
    (["--command", "propagate", "--n", "-1"], "generation index must be >= 0"),
    (["--command", "propagate", "--n", "5", "--K", "0"], "K=0: truncation length"),
    (["--command", "report", "--n-grid", "5,-3"], "generation index must be >= 0"),
    (["--command", "report", "--n-grid", "5", "--K", "-2"], "K=-2: truncation length"),
    (["--command", "report", "--n-grid", "5", "--reps", "0"], "at least one trajectory"),
    (["--command", "report", "--n-grid", "5", "--reps", "10", "--seed", "-1"],
     "seed=-1 must be >= 0"),
    (["--command", "report", "--n-grid", "5", "--x-grid", "0.5,1.5"],
     "PGF argument must lie in [0, 1]"),
    (["--command", "simulate", "--n", "3", "--reps", "0"], "at least one trajectory"),
    (["--command", "limits", "--x-grid", "-0.5"], "PGF argument must lie in [0, 1]"),
    (["--command", "limits", "--tol", "0"], "tol=0.0 must be positive"),
    (["--command", "limits", "--K", "0"], "K=0: truncation length"),
], ids=["n", "K", "n_grid", "report_K", "report_reps", "seed", "x_grid",
        "simulate_reps", "limits_x", "tol", "limits_K"])
def test_out_of_range_run_parameters_are_validation_errors(tmp_path, capsys, flags,
                                                           message):
    path = fixture_path("thm6_example1", tmp_path)
    assert cli.main(["--scenario", path, *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")
    assert message in captured.err


# faults of the file's values that the library would meet only deep inside
# a command: each is read as bad input, for every command
@pytest.mark.parametrize("fixture,old,new,message", [
    ("thm3_cp_finite", "limits.lambda_seq = 2,1,0", "limits.lambda_seq = 2,1",
     "the final lambda must be zero"),
    ("thm3_cp_finite", "limits.lambda_seq = 2,1,0", "limits.lambda_seq = 1,0,2,0",
     "lambda_3 > 0 after lambda_2 = 0"),
    ("thm3_cp_finite", "limits.lambda_seq = 2,1,0", "limits.lambda_seq = -1,0",
     "lambda values must be finite and nonnegative"),
    ("thm1_poisson", "limits.lambda = 2", "limits.lambda = -1", "must be finite and >= 0"),
    ("thm5_nb", "limits.nu = 1", "limits.nu = -1", "must be finite and >= 0"),
    ("thm5_nb", "limits.nu = 1", "limits.nu = 1e300",
     "limits.nu = 1e+300 but the rules give 1.0"),
    ("thm6_example1", "offspring.rho.gamma = 2", "offspring.rho.gamma = nan",
     "rho rule needs finite"),
    ("lf_crosscheck", "offspring.nu = 1", "offspring.nu = 1e300",
     "no linear-fractional law"),
    ("thm4_log2", "immigration.support = 64", "immigration.support = 0",
     "immigration.support = 0 must be >= 1"),
    # declared limit constants that are not the ones the rules give
    ("thm1_poisson", "limits.lambda = 2", "limits.lambda = 2.15",
     "limits.lambda = 2.15 but the rules give 2.0"),
    ("thm3_cp_finite", "limits.lambda_seq = 2,1,0", "limits.lambda_seq = 2,0.5,0",
     "limits.lambda_seq = [2.0, 0.5, 0.0] but the rules give [2.0, 1.0, 0.0]"),
    ("thm5_nb", "limits.lambda = 1", "limits.lambda = 3",
     "limits.lambda = 3.0 but the rules give 1.0"),
], ids=["lambda_seq_tail", "lambda_seq_cascade", "lambda_seq_negative", "lambda",
        "nu", "nu_huge", "rho_nan", "lf_nu_huge", "support", "lambda_mismatch",
        "lambda_seq_mismatch", "nb_lambda_mismatch"])
@pytest.mark.parametrize("command", ["classify", "limits", "report", "propagate",
                                     "simulate"])
def test_bad_limit_constants_and_rules_are_validation_errors(tmp_path, capsys, fixture,
                                                            old, new, message, command):
    text = scenarios.fixture_text(fixture)
    assert old in text
    p = tmp_path / "bad.scn"
    p.write_text(text.replace(old, new))
    argv = ["--scenario", str(p), "--command", command, "--n", "20", "--n-grid", "20",
            "--reps", "10"]
    assert cli.main(argv) == 3
    assert message in capsys.readouterr().err


def test_limits_keys_only_check_what_the_rules_give(tmp_path, capsys):
    # thm1_poisson without its limits.* lines: the rules give every constant,
    # so every output is byte-identical
    text = scenarios.fixture_text("thm1_poisson")
    bare = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("limits."))
    assert bare.count("\n") == text.count("\n") - 3
    outs = {}
    for kind, body in (("declared", text), ("bare", bare)):
        (tmp_path / kind).mkdir()
        p = tmp_path / kind / "thm1_poisson.scn"
        p.write_text(body)
        for command in ("classify", "report", "limits"):
            for fmt in ("csv", "json"):
                assert cli.main(["--scenario", str(p), "--command", command,
                                 "--format", fmt]) == 0
                outs[kind, command, fmt] = capsys.readouterr()
    for (kind, command, fmt), got in outs.items():
        assert got == outs["declared", command, fmt], (command, fmt)


def test_an_internal_value_error_is_not_a_validation_error(tmp_path, monkeypatch):
    # a ValueError raised inside the library is a fault of the program: it
    # surfaces as an exception (a traceback and exit 1 from the shell), not
    # as exit 3 for bad input
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(engine, "propagate", broken)
    path = fixture_path("thm1_poisson", tmp_path)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["--scenario", path, "--command", "propagate", "--n", "3"])


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 8.00 EiB"), "error: Unable to allocate 8.00 EiB"),
    (MemoryError(), "error: MemoryError"),
], ids=["message", "bare"])
def test_memory_error_is_a_numeric_failure_not_a_traceback(tmp_path, capsys,
                                                           monkeypatch, exc, line):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(engine, "simulate", exhausted)
    path = fixture_path("thm1_poisson", tmp_path)
    args = ["--scenario", path, "--command", "simulate", "--reps", "10", "--n", "3"]
    assert cli.main(args) == 4
    assert capsys.readouterr().err.splitlines()[-1] == line


def _quadratic_example1(tmp_path, nu="1e-9"):
    """thm6_example1 with quadratic offspring, nu = 1e-9 unless given."""
    text = scenarios.fixture_text("thm6_example1").replace(
        "offspring.family = bernoulli", "offspring.family = quadratic"
    ) + f"offspring.nu = {nu}\n"
    p = tmp_path / "quadratic_example1.scn"
    p.write_text(text)
    return str(p)


def test_report_in_product_regime_with_quadratic_offspring(tmp_path, capsys):
    # the product-law mean holds for every offspring kind (chain rule)
    args = ["--scenario", _quadratic_example1(tmp_path), "--command", "report",
            "--n-grid", "50", "--tol", "1e-4"]
    with pytest.warns(UserWarning, match="clamped"):
        assert cli.main(args) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("n,tv,") and rows[1].startswith("50,")


def test_generic_product_law_under_a_memory_limit(tmp_path):
    # this case once grew the composition horizon without bound and ran
    # out of memory, and at nu = 1 it then needed a horizon beyond 2^20; it
    # must answer within 1.5 GB of address space and 10 s, within tol of
    # the explicit sum (whose own error is BRUTEFORCE_ERROR)
    src = str(Path(nearcrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    limit = 1_500_000_000

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    for nu in ("1e-9", "1"):
        path = _quadratic_example1(tmp_path, nu)
        run = subprocess.run(
            [sys.executable, "-m", "nearcrit.cli", "--scenario", path,
             "--command", "limits", "--x-grid", "0.5", "--tol", "1e-7"],
            env=env, preexec_fn=cap_memory, capture_output=True, text=True,
            timeout=10,
        )
        assert run.returncode == 0, run.stderr
        got = float(run.stdout.splitlines()[1].split(",")[1])
        spec = scenarios.parse_scenario(path).spec
        want = product_law_bruteforce(spec, 0.5, 1e-9)
        assert got == pytest.approx(want, abs=1e-7 + BRUTEFORCE_ERROR)


def test_lf_rate_rule_with_rho1_zero_is_rejected_by_every_command(tmp_path, capsys):
    # c (1 + n0)^-gamma = 1 means rho_1 = 0, which no LF map has
    text = scenarios.fixture_text("lf_crosscheck").replace(
        "offspring.rho.n0 = 1", "offspring.rho.n0 = 0"
    )
    p = tmp_path / "lf_rho1_zero.scn"
    p.write_text(text)
    errors = set()
    for command in ("classify", "propagate", "simulate", "report", "limits"):
        args = ["--scenario", str(p), "--command", command, "--n", "20",
                "--K", "32", "--reps", "100"]
        assert cli.main(args) == 3
        errors.add(capsys.readouterr().err)
    assert len(errors) == 1
    assert "offspring.rho" in errors.pop()


def test_snapshot_compare_lists_moved_numbers(tmp_path, capsys):
    import cli_snapshot

    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "same.out").write_text("k,p\n0,0.5\n")
    (new / "same.out").write_text("k,p\n0,0.5\n")
    (old / "moved.out").write_text("k,p\n0,0.25\n1,1e-20\n2,3\n")
    (new / "moved.out").write_text("k,p\n0,0.2500000000000001\n1,2e-20\n2,3\n")
    (old / "reworded.err").write_text("error: bad key\n")
    (new / "reworded.err").write_text("error: unknown key\n")
    (old / "gone.rc").write_text("0\n")
    assert cli_snapshot.main(["--compare", str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"gone.rc: only in {old}"
    assert lines[1] == ("moved.out: 2 numbers moved, max abs 1.110e-16, "
                        "max rel 5.000e-01 (1e-20 -> 2e-20)")
    assert lines[2] == "reworded.err: text differs"
    assert len(lines) == 3
    assert cli_snapshot.main(["--compare", str(old), str(old)]) == 0


def test_snapshot_compare_prints_the_tv_of_moved_samples(tmp_path, capsys):
    import cli_snapshot

    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "a.simulate.csv.out").write_text("k,p\n0,0.5\n1,0.5\n")
    (new / "a.simulate.csv.out").write_text("k,p\n0,0.25\n1,0.5\n2,0.25\n")
    (old / "a.simulate.json.out").write_text('{"pmf": [0.5, 0.5], "reps": 4}\n')
    (new / "a.simulate.json.out").write_text('{"pmf": [0.75, 0.25], "reps": 4}\n')
    # an error run prints no law, and other commands get no tv
    (old / "b.simulate.csv.out").write_text("")
    (new / "b.simulate.csv.out").write_text("k,p\n0,1.0\n")
    (old / "a.propagate.csv.out").write_text("k,p\n0,0.5\n")
    (new / "a.propagate.csv.out").write_text("k,p\n0,0.25\n")
    assert cli_snapshot.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.propagate.csv.out: 1 numbers moved, max abs 2.500e-01, max rel 5.000e-01 "
        "(0.5 -> 0.25)",
        "a.simulate.csv.out: text differs, tv 2.500e-01",
        "a.simulate.json.out: 2 numbers moved, max abs 2.500e-01, max rel 5.000e-01 "
        "(0.5 -> 0.25), tv 2.500e-01",
        "b.simulate.csv.out: text differs",
    ]


def test_snapshot_compare_prints_the_values_behind_the_largest_relative_move(
        tmp_path, capsys):
    # a rounding-level gap reads as a large relative move; the printed pair
    # shows it for what it is, beside a larger absolute move elsewhere
    import cli_snapshot

    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "a.report.csv.out").write_text(
        "n,tv,mean_gap\n100,0.25,2.220446049250313e-16\n")
    (new / "a.report.csv.out").write_text(
        "n,tv,mean_gap\n100,0.2500000000000009,4.440892098500626e-16\n")
    # a signed zero moves in text only, and must not divide by zero
    (old / "b.report.csv.out").write_text("n,tv\n100,0.0\n")
    (new / "b.report.csv.out").write_text("n,tv\n100,-0.0\n")
    assert cli_snapshot.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.report.csv.out: 2 numbers moved, max abs 8.882e-16, max rel 5.000e-01 "
        "(2.220446049250313e-16 -> 4.440892098500626e-16)",
        "b.report.csv.out: 1 numbers moved, max abs 0.000e+00, max rel 0.000e+00 "
        "(0.0 -> -0.0)",
    ]
