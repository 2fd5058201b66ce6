"""Exception hierarchy shared by all cotzeta modules."""


class CotZetaError(Exception):
    """Base class for all library errors."""


class DomainError(CotZetaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation was requested exactly at (or too close to) a pole."""


class PrecisionError(CotZetaError, ArithmeticError):
    """The requested accuracy could not be reached within the configured budget."""
