"""Exception types shared across the package."""


class RavineGDError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteGradient(RavineGDError):
    """A gradient evaluation produced NaN or Inf entries."""

    def __init__(self, iter_index=None, message=None):
        self.iter_index = iter_index
        if message is None:
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
    """The Procrustes-type projection is not unique at this point."""


class NewtonDivergence(RavineGDError):
    """The Morse-ravine Newton solver did not converge within max_iter."""


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
