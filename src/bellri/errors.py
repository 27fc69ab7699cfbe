"""Semantic exception hierarchy shared by all bellri modules."""


class BellRIError(Exception):
    """Base class for every error raised by this package."""


class MalformedInputError(BellRIError, ValueError):
    """Input violates a structural contract (non-finite, wrong shape, asymmetric)."""


class DegenerateDataError(BellRIError):
    """Correlation data has undefined Pearson entries (zero variance somewhere)."""


class DegenerateScenarioError(BellRIError):
    """A quantum scenario has an observable with (numerically) zero variance."""


class PreconditionError(BellRIError):
    """A documented precondition of an operation does not hold for the input."""
