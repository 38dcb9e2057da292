"""Generating-function calculus for nearly critical branching processes
with immigration: exact generation-law propagation, closed-form
linear-fractional cross-checks, limit-law constructors and convergence
diagnostics.
"""

from .diagnostics import ConvergenceReport, report, tv_distance
from .engine import GenerationState, propagate, simulate
from .families import (
    ImmigrationFamily,
    OffspringFamily,
    PowerSum,
    RhoRule,
    ScenarioSpec,
    classify,
    condition_ratios,
)
from .limits import (
    IntensityMeasure,
    cp_intensity_finite,
    cp_intensity_series,
    general_limit_pmf,
    nb_pmf,
    poisson_pmf,
    product_law_eval,
)
from .pgf import CenteredSeries, Pmf, compound, convolve, evaluate, factorial_moment
from .scenarios import ScenarioFile, load_fixture, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "CenteredSeries",
    "ConvergenceReport",
    "GenerationState",
    "ImmigrationFamily",
    "IntensityMeasure",
    "OffspringFamily",
    "Pmf",
    "PowerSum",
    "RhoRule",
    "ScenarioFile",
    "ScenarioSpec",
    "classify",
    "compound",
    "condition_ratios",
    "convolve",
    "cp_intensity_finite",
    "cp_intensity_series",
    "evaluate",
    "factorial_moment",
    "general_limit_pmf",
    "load_fixture",
    "nb_pmf",
    "parse_scenario",
    "poisson_pmf",
    "product_law_eval",
    "propagate",
    "report",
    "simulate",
    "tv_distance",
]
