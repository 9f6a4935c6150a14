"""Adaptive-stepsize gradient descent on ravine-shaped landscapes.

Interlaces short constant-stepsize gradient steps with long Polyak steps
to get a locally near-linear rate on objectives with only fourth-order
growth, plus a diagnostic toolkit that numerically verifies the underlying
ravine geometry (quadratic transverse growth, aiming, growth exponents,
Lojasiewicz constants, restricted isometry).
"""

from .errors import (
    ConfigInvalid,
    DegenerateProjection,
    EmptyTrace,
    InsufficientData,
    InsufficientValidSamples,
    MissingFStar,
    NewtonDivergence,
    NonFiniteGradient,
    OriginSingularity,
    RankAmbiguity,
    RavineGDError,
    ShapeMismatch,
    TargetAboveValue,
    UnsupportedCheck,
    ZeroNeuron,
)
from .harness import (
    ExperimentConfig,
    compare_methods,
    diagnose,
    fit_linear_rate,
    run_experiment,
)
from .morse import MorseRavineSolver, morse_ravine_solve
from .objective import Objective
from .opt_core import (
    POLYAK_LONG,
    SHORT_GD,
    RunTrace,
    gd_baseline,
    gdpolyak,
    gdpolyak_lb,
    polyak_baseline,
    polyak_step,
)
from .ravine import (
    DiagnosticsReport,
    RavineDescriptor,
    check_aiming,
    check_gradient_control,
    check_growth_exponent,
    check_lojasiewicz,
    check_ravine_quadratic,
    measure_rip,
)

__version__ = "0.1.0"

__all__ = [
    "Objective", "RunTrace", "SHORT_GD", "POLYAK_LONG",
    "polyak_step", "gdpolyak", "gdpolyak_lb", "gd_baseline",
    "polyak_baseline",
    "RavineDescriptor", "DiagnosticsReport",
    "check_ravine_quadratic", "check_aiming", "check_growth_exponent",
    "check_lojasiewicz", "check_gradient_control", "measure_rip",
    "MorseRavineSolver", "morse_ravine_solve",
    "ExperimentConfig", "run_experiment",
    "compare_methods", "fit_linear_rate", "diagnose",
    "RavineGDError", "NonFiniteGradient", "TargetAboveValue", "MissingFStar",
    "EmptyTrace", "ShapeMismatch", "OriginSingularity", "ZeroNeuron",
    "DegenerateProjection", "NewtonDivergence", "RankAmbiguity",
    "InsufficientValidSamples", "InsufficientData", "ConfigInvalid",
    "UnsupportedCheck",
]
