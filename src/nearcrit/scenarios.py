"""Scenario files: flat key-value text mapping one-to-one onto ScenarioSpec.

Format: one ``dotted.key = value`` per line, ``#`` comments and blank
lines allowed. Rate rules are written in the power-sum micro-grammar
(e.g. ``2*(n+1)^-1 + 1*n^-2``) and the rho rule through its three
constants, rho_n = 1 - c (n + n0)^(-gamma).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .errors import ScenarioParseError, ScenarioValidationError
from .families import (
    BASE_LAWS,
    ImmigrationFamily,
    OffspringFamily,
    PowerSum,
    RhoRule,
    ScenarioSpec,
)

_KNOWN_KEYS = {
    "offspring.family",
    "offspring.rho.c",
    "offspring.rho.gamma",
    "offspring.rho.n0",
    "offspring.nu",
    "immigration.family",
    "immigration.base",
    "immigration.support",
    "immigration.m1.rule",
    "limits.lambda",
    "limits.nu",
    "limits.divergent",
    "limits.lambda_seq",
    "limits.lambda_rule",
    "run.n",
    "run.K",
    "run.seed",
    "run.reps",
    "run.tol",
    "run.n_grid",
    "run.x_grid",
}


@dataclass(frozen=True)
class RunDefaults:
    """Per-file defaults for CLI parameters not fixed by the scenario itself."""

    seed: int | None = None
    reps: int | None = None
    tol: float | None = None
    n_grid: tuple[int, ...] | None = None
    x_grid: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ScenarioFile:
    spec: ScenarioSpec
    defaults: RunDefaults
    notes: tuple[str, ...]


def _parse_kv(text: str, origin: str) -> dict[str, str]:
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(
                f"{origin}:{lineno}: expected 'key = value', got {raw!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ScenarioParseError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in table:
            raise ScenarioParseError(f"{origin}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ScenarioParseError(f"{origin}:{lineno}: empty value for {key!r}")
        table[key] = value
    return table


def _get_float(table, key, origin, default=None) -> float | None:
    if key not in table:
        if default is None:
            return None
        return default
    try:
        return float(table[key])
    except ValueError:
        raise ScenarioParseError(
            f"{origin}: value for {key} is not a number: {table[key]!r}"
        ) from None


def _get_int(table, key, origin, default=None) -> int | None:
    if key not in table:
        return default
    try:
        return int(table[key])
    except ValueError:
        raise ScenarioParseError(
            f"{origin}: value for {key} is not an integer: {table[key]!r}"
        ) from None


def _get_bool(table, key, origin) -> bool:
    raw = table.get(key)
    if raw not in ("true", "false"):
        raise ScenarioParseError(f"{origin}: {key} must be 'true' or 'false'")
    return raw == "true"


def parse_scenario_text(text: str, origin: str = "<string>",
                        name: str = "scenario") -> ScenarioFile:
    table = _parse_kv(text, origin)

    def require(key):
        if key not in table:
            raise ScenarioParseError(f"{origin}: missing required key {key!r}")
        return table[key]

    rho = RhoRule(
        c=_get_float(table, "offspring.rho.c", origin, 1.0),
        gamma=_get_float(table, "offspring.rho.gamma", origin, 1.0),
        n0=_get_float(table, "offspring.rho.n0", origin, 0.0),
    )
    offspring = OffspringFamily(
        kind=require("offspring.family"),
        rho_rule=rho,
        nu=_get_float(table, "offspring.nu", origin, 0.0),
    )

    imm_kind = require("immigration.family")
    m1 = PowerSum.parse(require("immigration.m1.rule"))
    base = None
    base_name = table.get("immigration.base")
    if imm_kind == "custom":
        if base_name is None:
            raise ScenarioParseError(
                f"{origin}: custom immigration needs immigration.base"
            )
        if base_name not in BASE_LAWS:
            raise ScenarioParseError(
                f"{origin}: unknown immigration base {base_name!r} "
                f"(known: {sorted(BASE_LAWS)})"
            )
        support = _get_int(table, "immigration.support", origin, 64)
        base = tuple(float(v) for v in BASE_LAWS[base_name](support))
    immigration = ImmigrationFamily(
        kind=imm_kind, m1=m1, base=base, base_name=base_name
    )

    lambda_seq = None
    if "limits.lambda_seq" in table:
        try:
            lambda_seq = tuple(
                float(v) for v in table["limits.lambda_seq"].split(",")
            )
        except ValueError:
            raise ScenarioParseError(
                f"{origin}: limits.lambda_seq must be a comma list of numbers"
            ) from None

    spec = ScenarioSpec(
        offspring=offspring,
        immigration=immigration,
        lam=_get_float(table, "limits.lambda", origin, 0.0),
        nu=_get_float(table, "limits.nu", origin, 0.0),
        divergent=_get_bool(table, "limits.divergent", origin),
        horizon=_get_int(table, "run.n", origin, 1000),
        k_trunc=_get_int(table, "run.K", origin, 64),
        lambda_seq=lambda_seq,
        lambda_rule=table.get("limits.lambda_rule"),
        name=name,
    )
    notes = spec.validate()

    n_grid = x_grid = None
    try:
        if "run.n_grid" in table:
            n_grid = tuple(int(v) for v in table["run.n_grid"].split(","))
        if "run.x_grid" in table:
            x_grid = tuple(float(v) for v in table["run.x_grid"].split(","))
    except ValueError:
        raise ScenarioParseError(
            f"{origin}: run.n_grid/run.x_grid must be comma lists of numbers"
        ) from None
    defaults = RunDefaults(
        seed=_get_int(table, "run.seed", origin),
        reps=_get_int(table, "run.reps", origin),
        tol=_get_float(table, "run.tol", origin),
        n_grid=n_grid,
        x_grid=x_grid,
    )
    return ScenarioFile(spec=spec, defaults=defaults, notes=tuple(notes))


def parse_scenario(path) -> ScenarioFile:
    """Read and validate one scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file {path}: {exc}") from exc
    name = str(path).rsplit("/", 1)[-1].removesuffix(".scn")
    return parse_scenario_text(text, origin=str(path), name=name)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def serialize_scenario(sf: ScenarioFile) -> str:
    """Canonical text for a scenario; parse(serialize(.)) round-trips."""
    spec = sf.spec
    off, imm = spec.offspring, spec.immigration
    if off.table is not None:
        raise ScenarioValidationError("table-backed families have no file form")
    lines = [
        f"offspring.family = {off.kind}",
        f"offspring.rho.c = {_fmt(off.rho_rule.c)}",
        f"offspring.rho.gamma = {_fmt(off.rho_rule.gamma)}",
        f"offspring.rho.n0 = {_fmt(off.rho_rule.n0)}",
        f"offspring.nu = {_fmt(off.nu)}",
        f"immigration.family = {imm.kind}",
    ]
    if imm.base is not None:
        if imm.base_name is None:
            raise ScenarioValidationError(
                "custom immigration without a named base has no file form"
            )
        lines.append(f"immigration.base = {imm.base_name}")
        lines.append(f"immigration.support = {len(imm.base)}")
    lines.append(f"immigration.m1.rule = {imm.m1}")
    lines.append(f"limits.lambda = {_fmt(spec.lam)}")
    lines.append(f"limits.nu = {_fmt(spec.nu)}")
    lines.append(f"limits.divergent = {'true' if spec.divergent else 'false'}")
    if spec.lambda_seq is not None:
        lines.append(
            "limits.lambda_seq = " + ",".join(_fmt(v) for v in spec.lambda_seq)
        )
    if spec.lambda_rule is not None:
        lines.append(f"limits.lambda_rule = {spec.lambda_rule}")
    lines.append(f"run.n = {spec.horizon}")
    lines.append(f"run.K = {spec.k_trunc}")
    d = sf.defaults
    if d.seed is not None:
        lines.append(f"run.seed = {d.seed}")
    if d.reps is not None:
        lines.append(f"run.reps = {d.reps}")
    if d.tol is not None:
        lines.append(f"run.tol = {_fmt(d.tol)}")
    if d.n_grid is not None:
        lines.append("run.n_grid = " + ",".join(str(v) for v in d.n_grid))
    if d.x_grid is not None:
        lines.append("run.x_grid = " + ",".join(_fmt(v) for v in d.x_grid))
    return "\n".join(lines) + "\n"


FIXTURE_NAMES = (
    "thm1_poisson",
    "thm3_cp_finite",
    "thm4_log2",
    "thm5_nb",
    "thm6_example1",
    "thm6_example2",
    "lf_crosscheck",
)


def fixture_text(fixture: str) -> str:
    if fixture not in FIXTURE_NAMES:
        raise ScenarioParseError(
            f"unknown fixture {fixture!r} (known: {FIXTURE_NAMES})"
        )
    return (
        resources.files("nearcrit").joinpath(f"fixtures/{fixture}.scn").read_text()
    )


def load_fixture(fixture: str) -> ScenarioFile:
    """Parse one of the bundled scenario fixtures by name."""
    return parse_scenario_text(
        fixture_text(fixture), origin=f"fixtures/{fixture}.scn", name=fixture
    )
