"""Exception types, and the rules that judge every user-set value.

A rule is a predicate and the phrase it enforces; a broken rule reads
``name: must be <phrase>, got <value>`` in the CLI and the library alike.
"""

import sys

import numpy as np


def is_integer(value) -> bool:
    """An int or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite(value) -> bool:
    return ((is_integer(value) or isinstance(value, (float, np.floating)))
            and abs(value) <= sys.float_info.max)


# Rules for user-set values.  A "real number" is one that float64 holds
# finitely; an int may not be.
POSITIVE = (lambda v: is_integer(v) and v >= 1, "an integer >= 1")
NONNEGATIVE = (lambda v: is_integer(v) and v >= 0, "an integer >= 0")
REAL = (is_finite, "a real number")
NONNEGATIVE_REAL = (lambda v: is_finite(v) and v >= 0, "a real number >= 0")
POSITIVE_REAL = (lambda v: is_finite(v) and v > 0, "a real number > 0")


def vector(dim):
    """The rule of a point of R^dim: ``dim`` finite ints or floats."""
    def holds(value):
        try:
            a = np.asarray(value)
        except ValueError:                      # a ragged sequence
            return False
        return (a.shape == (dim,) and a.dtype.kind in "iuf"
                and bool(np.isfinite(a).all()))
    return (holds, f"a finite real vector of length {dim}")


def optional(rule):
    """``rule`` that also admits None."""
    return (lambda v: v is None or rule[0](v), rule[1])


def rule_errors(values: dict, rules: dict, label: str = "{}:") -> list:
    """One message per value that breaks its rule in ``rules``; ``label``
    formats the value's name."""
    return [f"{label.format(key)} must be {rules[key][1]}, got {value!r}"
            for key, value in values.items() if not rules[key][0](value)]


def check_args(**args):
    """Raise ValueError naming every argument that breaks its rule; each
    keyword maps an argument's name to its ``(value, rule)``."""
    errors = rule_errors({name: value for name, (value, _) in args.items()},
                         {name: rule for name, (_, rule) in args.items()})
    if errors:
        raise ValueError("; ".join(errors))


class RavineGDError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteGradient(RavineGDError):
    """A gradient evaluation produced NaN or Inf entries."""

    def __init__(self, iter_index=None):
        self.iter_index = iter_index
        message = "non-finite gradient"
        if iter_index is not None:
            message += f" at iteration {iter_index}"
        super().__init__(message)


class TargetAboveValue(RavineGDError):
    """The Polyak target exceeds the current function value beyond tolerance."""


class MissingFStar(RavineGDError):
    """The algorithm requires a known minimal value but the objective has none."""


class EmptyTrace(RavineGDError):
    """An argmin was requested over an empty sequence of iterates."""


class ShapeMismatch(RavineGDError):
    """A matrix argument does not match the instance dimensions."""


class OriginSingularity(RavineGDError):
    """The circle objective is undefined near the origin."""


class ZeroNeuron(RavineGDError):
    """A student weight is too small, relative to the teacher, for angles."""


class DegenerateProjection(RavineGDError):
    """The Procrustes-type projection is not unique at this point: a
    polar factor's smallest singular value is below 1e-10, or the factor
    did not converge (a non-finite matrix, or one LAPACK cannot
    decompose: the Grams' eigh at r != 2, the SVD fallback at any r)."""


class NewtonDivergence(RavineGDError):
    """The Morse-ravine solver's chord Newton iteration did not converge
    within max_iter, its damping failed, or its residual was not finite."""


class RankAmbiguity(RavineGDError):
    """The Hessian spectrum has no clear gap around the nullspace cutoff."""


class InsufficientValidSamples(RavineGDError):
    """Too many diagnostic samples were skipped to report a meaningful ratio."""


class InsufficientData(RavineGDError):
    """Not enough usable records to fit a convergence rate."""


class ConfigInvalid(RavineGDError, ValueError):
    """User input failed validation before any work started.

    Carries a list of per-field messages in ``errors``.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config: " + "; ".join(self.errors))


class UnsupportedCheck(ConfigInvalid):
    """The requested diagnostic does not apply to this problem."""
