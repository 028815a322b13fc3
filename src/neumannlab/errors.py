"""Error taxonomy shared by every module.

Validation problems (bad arguments, bad config files) and numerical
problems (accuracy targets missed, brackets that do not bracket) map to
different CLI exit codes, so they need distinct exception families.
"""


class NeumannLabError(Exception):
    """Base class for everything raised on purpose by this package."""


class ValidationError(NeumannLabError):
    """Caller passed something structurally wrong.  CLI exit code 2."""


class DomainError(ValidationError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateInputError(ValidationError):
    """Input collapses the problem (zero field, vanishing critical mass)."""


class ConfigurationError(ValidationError):
    """Malformed run configuration: unknown keys, bad grid sizes, etc."""


class ResolutionError(ValidationError):
    """Requested feature is finer than the grid can represent."""


class NumericalFailure(NeumannLabError):
    """Computation ran but missed its target.  CLI exit code 3."""


class AccuracyError(NumericalFailure):
    """Internal consistency or tolerance check failed."""


class BracketError(NumericalFailure):
    """Root bracket does not straddle the target value."""
