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
    )
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
    assert rows[1]["condition_ratios"]["m1_ratio"] == math.inf


def test_exit_code_numeric_error(tmp_path, capsys):
    # a lambda sequence with a negative intensity atom trips the numeric path
    text = scenarios.fixture_text("thm3_cp_finite").replace(
        "limits.lambda_seq = 2,1,0", "limits.lambda_seq = 1,2,0"
    )
    p = tmp_path / "negatom.scn"
    p.write_text(text)
    assert cli.main(["--scenario", str(p), "--command", "limits"]) == 4


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


def _quadratic_example1(tmp_path):
    """thm6_example1 with quadratic offspring, nu = 1e-9 (generic product law)."""
    text = scenarios.fixture_text("thm6_example1").replace(
        "offspring.family = bernoulli", "offspring.family = quadratic"
    ) + "offspring.nu = 1e-9\n"
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
    # out of memory; it must now finish within 1.5 GB of address space and
    # 10 s, within 1e-6 of the Bernoulli twin, or refuse with exit 4
    src = str(Path(nearcrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    limit = 1_500_000_000

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    run = subprocess.run(
        [sys.executable, "-m", "nearcrit.cli", "--scenario",
         _quadratic_example1(tmp_path), "--command", "limits", "--x-grid", "0.5",
         "--tol", "1e-7"],
        env=env, preexec_fn=cap_memory, capture_output=True, text=True, timeout=10,
    )
    assert run.returncode in (0, 4), run.stderr
    if run.returncode == 0:
        got = float(run.stdout.splitlines()[1].split(",")[1])
        twin = scenarios.load_fixture("thm6_example1").spec
        assert got == pytest.approx(limits.product_law_eval(twin, 0.5, 1e-7), abs=1e-6)
    else:
        assert "beyond" in run.stderr


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
                               "max rel 5.000e-01")
    assert lines[2] == "reworded.err: text differs"
    assert len(lines) == 3
    assert cli_snapshot.main(["--compare", str(old), str(old)]) == 0
