"""Shared exception types."""


class KnotsigError(Exception):
    """Base class for errors raised by this package."""


class PolyParseError(KnotsigError):
    """Polynomial or matrix text could not be parsed."""


class BudgetExceededError(KnotsigError):
    """An internal iteration budget ran out before the answer was certain."""


# raised nowhere; kept because perfbench/worker.py counts it as a refusal
class CertificationError(KnotsigError):
    """Sign certification did not converge within the precision cap."""
