"""Every error path of the scenario-file format, through the library and the CLI."""

import pytest

from nearcrit import cli, scenarios
from nearcrit.errors import ScenarioParseError, ScenarioValidationError
from nearcrit.families import (
    ImmigrationFamily,
    OffspringFamily,
    PowerSum,
    RhoRule,
    ScenarioSpec,
)


def _edit(fixture, old, new):
    text = scenarios.fixture_text(fixture)
    assert old in text
    return text.replace(old, new)


# (fixture, line, replacement, key the message must name)
PARSE_FAULTS = {
    "duplicate_key": ("thm1_poisson", "run.K = 64", "run.K = 64\nrun.K = 32",
                      "run.K"),
    "empty_value": ("thm1_poisson", "run.K = 64", "run.K =", "run.K"),
    "float_not_a_number": ("thm1_poisson", "offspring.rho.c = 1",
                           "offspring.rho.c = one", "offspring.rho.c"),
    "int_not_an_integer": ("thm1_poisson", "run.K = 64", "run.K = 6.4", "run.K"),
    "bad_divergent": ("thm1_poisson", "limits.divergent = true",
                      "limits.divergent = yes", "limits.divergent"),
    "missing_offspring_family": ("thm1_poisson", "offspring.family = bernoulli\n",
                                 "", "offspring.family"),
    "missing_immigration_family": ("thm1_poisson",
                                   "immigration.family = bernoulli\n", "",
                                   "immigration.family"),
    "missing_m1_rule": ("thm1_poisson", "immigration.m1.rule = 2*(n+1)^-1\n", "",
                        "immigration.m1.rule"),
    "missing_divergent": ("thm1_poisson", "limits.divergent = true\n", "",
                          "limits.divergent"),
    "custom_without_base": ("thm3_cp_finite", "immigration.base = delta2\n", "",
                            "immigration.base"),
    "custom_unknown_base": ("thm3_cp_finite", "immigration.base = delta2",
                            "immigration.base = delta3", "delta3"),
    "base_outside_custom": ("thm1_poisson", "immigration.family = bernoulli",
                            "immigration.family = bernoulli\n"
                            "immigration.base = nosuchlaw", "immigration.base"),
    "support_outside_custom": ("thm6_example2", "immigration.family = poisson",
                               "immigration.family = poisson\n"
                               "immigration.support = 32", "immigration.support"),
    "bad_lambda_seq": ("thm3_cp_finite", "limits.lambda_seq = 2,1,0",
                       "limits.lambda_seq = 2;1;0", "limits.lambda_seq"),
    "bad_n_grid": ("thm1_poisson", "run.n_grid = 100,1000,10000",
                   "run.n_grid = 100,1e3", "run.n_grid"),
    "bad_x_grid": ("thm1_poisson", "run.n_grid = 100,1000,10000",
                   "run.x_grid = 0.5,x", "run.x_grid"),
}


@pytest.mark.parametrize("fault", PARSE_FAULTS)
def test_file_format_fault_is_a_parse_error_naming_the_key(fault, tmp_path, capsys):
    fixture, old, new, key = PARSE_FAULTS[fault]
    text = _edit(fixture, old, new)
    with pytest.raises(ScenarioParseError) as info:
        scenarios.parse_scenario_text(text)
    assert key in str(info.value)
    path = tmp_path / f"{fault}.scn"
    path.write_text(text)
    assert cli.main(["--scenario", str(path), "--command", "classify"]) == 2
    assert key in capsys.readouterr().err


def test_bad_rate_rule_in_a_file_is_a_validation_error(tmp_path, capsys):
    text = _edit("thm1_poisson", "immigration.m1.rule = 2*(n+1)^-1",
                 "immigration.m1.rule = 2*(n+1)^+1")
    with pytest.raises(ScenarioValidationError, match="cannot parse rule term"):
        scenarios.parse_scenario_text(text)
    path = tmp_path / "bad_rule.scn"
    path.write_text(text)
    assert cli.main(["--scenario", str(path), "--command", "classify"]) == 3
    assert "cannot parse rule term" in capsys.readouterr().err


def _file(offspring, immigration):
    spec = ScenarioSpec(offspring=offspring, immigration=immigration, lam=1.0,
                        nu=0.0, divergent=True)
    return scenarios.ScenarioFile(spec=spec, defaults=scenarios.RunDefaults(),
                                  notes=())


def test_serialize_refuses_a_table_backed_offspring_family():
    offspring = OffspringFamily(kind="custom", table=lambda n: [0.5, 0.5])
    immigration = ImmigrationFamily(kind="bernoulli", m1=PowerSum.parse("1*n^-1"))
    with pytest.raises(ScenarioValidationError, match="table-backed"):
        scenarios.serialize_scenario(_file(offspring, immigration))


def test_serialize_refuses_a_custom_base_without_a_name():
    offspring = OffspringFamily(kind="bernoulli", rho_rule=RhoRule(1.0, 1.0, 1.0))
    immigration = ImmigrationFamily(kind="custom", m1=PowerSum.parse("1*n^-1"),
                                    base=(0.0, 0.0, 1.0))
    with pytest.raises(ScenarioValidationError, match="named base"):
        scenarios.serialize_scenario(_file(offspring, immigration))


def test_unknown_fixture_name():
    for load in (scenarios.fixture_text, scenarios.load_fixture):
        with pytest.raises(ScenarioParseError, match="thm2_missing"):
            load("thm2_missing")
