"""Every error path of the scenario-file format, through the library and the CLI."""

import pytest

from nearcrit import cli, scenarios
from nearcrit.errors import ScenarioParseError, ScenarioValidationError
from nearcrit.families import (
    BernoulliImmigration,
    BernoulliOffspring,
    CustomImmigration,
    CustomOffspring,
    OutsideScope,
    PowerSum,
    RhoRule,
    ScenarioSpec,
    classify,
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


def test_quadratic_window_opening_late_is_found_and_noted():
    # 1 - rho_n = n^-1/2 with nu = 2000: the window nu (1 - rho_n) <= rho_n
    # opens near n = 2001^2 = 4004001, four times beyond a linear scan's reach
    # m_{n,1} = 1/(n+1) decays faster than 1 - rho_n, so lambda = 0
    text = _edit("thm5_nb", "offspring.rho.gamma = 1\noffspring.rho.n0 = 1\n"
                 "offspring.nu = 1", "offspring.rho.gamma = 0.5\n"
                 "offspring.rho.n0 = 0\noffspring.nu = 2000").replace(
        "limits.lambda = 1\nlimits.nu = 1", "limits.lambda = 0\nlimits.nu = 2000")
    sf = scenarios.parse_scenario_text(text)
    start = sf.spec.offspring.start_offset()
    assert abs(start - 2001**2) <= 1
    assert f"quadratic window clamps generations below n={start}" in sf.notes
    off = sf.spec.offspring
    g2, delta = (lambda n: off.deriv_at_1(n, 2)), off.one_minus_rho
    assert g2(start) == 2000 * delta(start)
    assert g2(start - 1) < 2000 * delta(start - 1)


def _file(offspring, immigration):
    spec = ScenarioSpec(offspring=offspring, immigration=immigration, lam=1.0,
                        nu=0.0, divergent=True)
    return scenarios.ScenarioFile(spec=spec, defaults=scenarios.RunDefaults(),
                                  notes=())


def test_serialize_refuses_a_table_backed_offspring_family():
    offspring = CustomOffspring(table=lambda n: [0.5, 0.5])
    immigration = BernoulliImmigration(m1=PowerSum.parse("1*n^-1"))
    with pytest.raises(ScenarioValidationError, match="table-backed"):
        scenarios.serialize_scenario(_file(offspring, immigration))


def test_serialize_refuses_a_custom_base_without_a_name():
    offspring = BernoulliOffspring(rho_rule=RhoRule(1.0, 1.0, 1.0))
    immigration = CustomImmigration(m1=PowerSum.parse("1*n^-1"),
                                    base=(0.0, 0.0, 1.0))
    with pytest.raises(ScenarioValidationError, match="named base"):
        scenarios.serialize_scenario(_file(offspring, immigration))


def test_unknown_fixture_name():
    for load in (scenarios.fixture_text, scenarios.load_fixture):
        with pytest.raises(ScenarioParseError, match="thm2_missing"):
            load("thm2_missing")


# (fixture, line, replacement, message): files that parse but name a family
# kind, or a limit constant, that the scenario cannot take
VALIDATION_FAULTS = {
    "unknown_offspring": ("thm1_poisson", "offspring.family = bernoulli",
                          "offspring.family = foo", "unknown offspring family 'foo'"),
    "custom_offspring": ("thm1_poisson", "offspring.family = bernoulli",
                         "offspring.family = custom",
                         "custom offspring needs a PMF table"),
    "unknown_immigration": ("thm1_poisson", "immigration.family = bernoulli",
                            "immigration.family = foo",
                            "unknown immigration family 'foo'"),
    "bernoulli_with_nu": ("thm1_poisson", "limits.nu = 0",
                          "limits.nu = 0\noffspring.nu = 3",
                          "Bernoulli offspring forces nu = 0"),
    "nb_with_lambda_zero": ("thm5_nb", "limits.lambda = 1", "limits.lambda = 0",
                            "limits.lambda"),
}


@pytest.mark.parametrize("fault", VALIDATION_FAULTS)
def test_family_or_limit_fault_is_a_validation_error_naming_it(fault, tmp_path,
                                                                capsys):
    fixture, old, new, message = VALIDATION_FAULTS[fault]
    text = _edit(fixture, old, new)
    with pytest.raises(ScenarioValidationError) as info:
        scenarios.parse_scenario_text(text)
    assert message in str(info.value)
    path = tmp_path / f"{fault}.scn"
    path.write_text(text)
    assert cli.main(["--scenario", str(path), "--command", "classify"]) == 3
    assert message in capsys.readouterr().err


def test_declared_lambda_is_checked_outside_every_regime():
    # nu > 0 with delta2 immigration has no limit law, but its lambda is 1
    text = _edit("thm5_nb", "immigration.family = bernoulli",
                 "immigration.family = custom\nimmigration.base = delta2")
    assert isinstance(classify(scenarios.parse_scenario_text(text).spec), OutsideScope)
    with pytest.raises(ScenarioValidationError,
                       match="limits.lambda = 0.0 but the rules give 1.0"):
        scenarios.parse_scenario_text(text.replace("limits.lambda = 1",
                                                   "limits.lambda = 0"))


@pytest.mark.parametrize("offspring", ["bernoulli", "quadratic", "linear_fractional"])
@pytest.mark.parametrize("immigration", ["bernoulli", "poisson", "custom"])
def test_serialize_round_trips_every_file_form_kind_pair(offspring, immigration):
    nu = "0" if offspring == "bernoulli" else "1"
    text = "\n".join([
        f"offspring.family = {offspring}", "offspring.rho.n0 = 1",
        f"offspring.nu = {nu}", f"immigration.family = {immigration}",
        "immigration.m1.rule = 1*(n+1)^-1", "limits.lambda = 1",
        f"limits.nu = {nu}", "limits.divergent = true",
    ] + (["immigration.base = log_two", "immigration.support = 32"]
         if immigration == "custom" else []))
    sf = scenarios.parse_scenario_text(text)
    assert (sf.spec.offspring.kind, sf.spec.immigration.kind) == (offspring,
                                                                    immigration)
    out = scenarios.serialize_scenario(sf)
    again = scenarios.parse_scenario_text(out)
    assert again.spec == sf.spec
    assert scenarios.serialize_scenario(again) == out
