import numpy as np
import pytest

from nearcrit import scenarios
from nearcrit.families import (
    FAMILIES,
    BernoulliImmigration,
    CustomOffspring,
    PoissonImmigration,
    PowerSum,
    RhoRule,
    ScenarioSpec,
)


@pytest.fixture(scope="session")
def fixture_specs():
    return {
        name: scenarios.load_fixture(name).spec for name in scenarios.FIXTURE_NAMES
    }


def make_spec(offspring_kind="bernoulli", *, c=1.0, gamma=1.0, n0=1.0, nu=0.0,
              imm_kind="bernoulli", m1="1*(n+1)^-1", lam=None, decl_nu=None,
              divergent=None, horizon=100, k_trunc=64, **kwargs) -> ScenarioSpec:
    """Small scenario builder for tests; ``lam``, ``decl_nu`` and ``divergent``
    are the optional declared limit constants."""
    return ScenarioSpec(
        offspring=FAMILIES["offspring"][offspring_kind](
            rho_rule=RhoRule(c=c, gamma=gamma, n0=n0), nu=nu
        ),
        immigration=FAMILIES["immigration"][imm_kind](m1=PowerSum.parse(m1)),
        lam=lam,
        nu=decl_nu,
        divergent=divergent,
        horizon=horizon,
        k_trunc=k_trunc,
        **kwargs,
    )


def constant_spec(rho: float, m: float, *, imm_kind="bernoulli",
                  offspring_coeffs=None, horizon=100, k_trunc=64) -> ScenarioSpec:
    """Constant-parameter process via custom tables (rho rules must decay)."""
    off = (
        np.array([1.0 - rho, rho])
        if offspring_coeffs is None
        else np.asarray(offspring_coeffs, dtype=float)
    )
    if imm_kind == "bernoulli":
        imm = BernoulliImmigration(m1=PowerSum.parse(f"{m}"))
    else:
        imm = PoissonImmigration(m1=PowerSum.parse(f"{m}"))
    return ScenarioSpec(
        offspring=CustomOffspring(table=lambda n: off),
        immigration=imm,
        lam=0.0,
        nu=0.0,
        divergent=True,
        horizon=horizon,
        k_trunc=k_trunc,
    )
