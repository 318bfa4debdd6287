"""Exception types shared across the package."""


class CoagulationError(Exception):
    """Base class for all errors raised by ohslab."""


class InvalidInputError(CoagulationError):
    """A precondition on user-supplied data was violated."""


class SupportOutsideDomainError(InvalidInputError):
    """An initial condition places mass outside the truncated domain [0, R]."""


class InsufficientRecordsError(InvalidInputError):
    """A time-series diagnostic needs more records than were provided."""


class NumericalFailureError(CoagulationError):
    """A computation produced non-finite values or exceeded its error budget."""


class EvaluationOverflowError(NumericalFailureError):
    """A kernel evaluation overflowed at extreme particle sizes."""
