"""Exception types shared across the package."""


class CoagulationError(Exception):
    """Base class for all errors raised by ohslab."""


class InvalidInputError(CoagulationError):
    """A precondition on user-supplied data was violated."""


class NumericalFailureError(CoagulationError):
    """A computation produced non-finite values or exceeded its error budget."""


class EvaluationOverflowError(NumericalFailureError):
    """A kernel evaluation overflowed at extreme particle sizes."""
