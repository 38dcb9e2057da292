"""Scenario files: flat key-value text mapping one-to-one onto ScenarioSpec.

Format: one ``dotted.key = value`` per line, ``#`` comments and blank
lines allowed. Rate rules are written in the power-sum micro-grammar
(e.g. ``2*(n+1)^-1 + 1*n^-2``) and the rho rule through its three
constants, rho_n = 1 - c (n + n0)^(-gamma).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from operator import attrgetter
from typing import Any, Callable, NamedTuple

from .errors import ScenarioParseError, ScenarioValidationError
from .families import (
    BASE_LAWS,
    FAMILIES,
    PowerSum,
    RhoRule,
    ScenarioSpec,
    family_class,
)


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


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# a parser's ValueError reads "value for <key> is not <what>"; the rule
# grammar and the family names raise ScenarioValidationError themselves
_WHAT = {float: "a number", int: "an integer", _bool: "'true' or 'false'",
         _ints: "a comma list of integers", _floats: "a comma list of numbers"}


def _show(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, tuple):
        return ",".join(_show(x) for x in v)
    return str(v)


def _support(sf: ScenarioFile) -> int | None:
    base = sf.spec.immigration.base
    return None if base is None else len(base)


class Key(NamedTuple):
    """One scenario-file key: its parser, its default (REQUIRED when the file
    must give it) and its value in a ScenarioFile (None: left out)."""

    parse: Callable[[str], Any]
    default: Any
    get: Callable[[ScenarioFile], Any]


REQUIRED = object()

# every key of the format, in file order
KEYS = {
    "offspring.family": Key(str, REQUIRED, attrgetter("spec.offspring.kind")),
    "offspring.rho.c": Key(float, 1.0, attrgetter("spec.offspring.rho_rule.c")),
    "offspring.rho.gamma": Key(float, 1.0,
                               attrgetter("spec.offspring.rho_rule.gamma")),
    "offspring.rho.n0": Key(float, 0.0, attrgetter("spec.offspring.rho_rule.n0")),
    "offspring.nu": Key(float, 0.0, attrgetter("spec.offspring.nu")),
    "immigration.family": Key(str, REQUIRED, attrgetter("spec.immigration.kind")),
    "immigration.base": Key(str, None, attrgetter("spec.immigration.base_name")),
    "immigration.support": Key(int, 64, _support),
    "immigration.m1.rule": Key(PowerSum.parse, REQUIRED,
                               attrgetter("spec.immigration.m1")),
    "limits.lambda": Key(float, None, attrgetter("spec.lam")),
    "limits.nu": Key(float, None, attrgetter("spec.nu")),
    "limits.divergent": Key(_bool, None, attrgetter("spec.divergent")),
    "limits.lambda_seq": Key(_floats, None, attrgetter("spec.lambda_seq")),
    "limits.lambda_rule": Key(str, None, attrgetter("spec.lambda_rule")),
    "run.n": Key(int, 1000, attrgetter("spec.horizon")),
    "run.K": Key(int, 64, attrgetter("spec.k_trunc")),
    "run.seed": Key(int, None, attrgetter("defaults.seed")),
    "run.reps": Key(int, None, attrgetter("defaults.reps")),
    "run.tol": Key(float, None, attrgetter("defaults.tol")),
    "run.n_grid": Key(_ints, None, attrgetter("defaults.n_grid")),
    "run.x_grid": Key(_floats, None, attrgetter("defaults.x_grid")),
}


# keys that only a family with a base law field (custom immigration) reads
_BASE_KEYS = ("immigration.base", "immigration.support")


def _parse_kv(text: str, origin: str) -> dict[str, Any]:
    """Every key of KEYS, converted from the text or defaulted."""
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
        if key not in KEYS:
            raise ScenarioParseError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in table:
            raise ScenarioParseError(f"{origin}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ScenarioParseError(f"{origin}:{lineno}: empty value for {key!r}")
        table[key] = value
    values = {}
    for key, entry in KEYS.items():
        raw = table.get(key)
        if raw is None and entry.default is REQUIRED:
            raise ScenarioParseError(f"{origin}: missing required key {key!r}")
        try:
            values[key] = entry.default if raw is None else entry.parse(raw)
        except ValueError:
            raise ScenarioParseError(
                f"{origin}: value for {key} is not {_WHAT[entry.parse]}: {raw!r}"
            ) from None
    imm = FAMILIES["immigration"].get(values["immigration.family"])
    if imm is not None and "base" not in imm.__dataclass_fields__:
        for key in _BASE_KEYS:
            if key in table:
                raise ScenarioParseError(
                    f"{origin}: {key} applies only to custom immigration"
                )
    return values


def parse_scenario_text(text: str, origin: str = "<string>",
                        name: str = "scenario") -> ScenarioFile:
    v = _parse_kv(text, origin)
    rho = RhoRule(c=v["offspring.rho.c"], gamma=v["offspring.rho.gamma"],
                  n0=v["offspring.rho.n0"])
    # a custom table takes neither, and rejects the file for its missing table
    off = family_class("offspring", v["offspring.family"])
    offered = {"rho_rule": rho, "nu": v["offspring.nu"]}
    offspring = off(**{k: x for k, x in offered.items() if k in off.__dataclass_fields__})
    imm = family_class("immigration", v["immigration.family"])
    fields = {"m1": v["immigration.m1.rule"]}
    if "base" in imm.__dataclass_fields__:
        base_name = v["immigration.base"]
        if base_name is None:
            raise ScenarioParseError(
                f"{origin}: custom immigration needs immigration.base"
            )
        if base_name not in BASE_LAWS:
            raise ScenarioParseError(
                f"{origin}: unknown immigration base {base_name!r} "
                f"(known: {sorted(BASE_LAWS)})"
            )
        support = v["immigration.support"]
        if support < 1:
            raise ScenarioValidationError(
                f"immigration.support = {support} must be >= 1")
        fields.update(base=tuple(float(x) for x in BASE_LAWS[base_name](support)),
                      base_name=base_name)
    immigration = imm(**fields)
    spec = ScenarioSpec(
        offspring=offspring, immigration=immigration,
        lam=v["limits.lambda"], nu=v["limits.nu"], divergent=v["limits.divergent"],
        lambda_seq=v["limits.lambda_seq"], lambda_rule=v["limits.lambda_rule"],
        horizon=v["run.n"], k_trunc=v["run.K"], name=name,
    )
    notes = spec.validate()
    defaults = RunDefaults(seed=v["run.seed"], reps=v["run.reps"],
                           tol=v["run.tol"], n_grid=v["run.n_grid"],
                           x_grid=v["run.x_grid"])
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


def serialize_scenario(sf: ScenarioFile) -> str:
    """Canonical text for a scenario; parse(serialize(.)) round-trips."""
    imm = sf.spec.immigration
    if sf.spec.offspring.rho_rule is None:
        raise ScenarioValidationError("table-backed families have no file form")
    if imm.base is not None and imm.base_name is None:
        raise ScenarioValidationError(
            "custom immigration without a named base has no file form"
        )
    lines = []
    for key, entry in KEYS.items():
        value = entry.get(sf)
        if value is not None:
            lines.append(f"{key} = {_show(value)}")
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
