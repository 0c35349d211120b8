"""Exception types shared across the package."""


class GcFlowError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GcFlowError):
    """Operand shapes are incompatible or an index/slice is out of bounds."""


class DomainError(GcFlowError):
    """An input lies outside the mathematical domain of an operation."""


class SingularMatrixError(GcFlowError):
    """A matrix required to be nonsingular is numerically singular."""


class ConfigError(GcFlowError):
    """An invalid configuration value or an empty required index set."""


class FormatError(GcFlowError):
    """An on-disk artifact violates its documented format or invariants."""


class DegenerateComponentError(GcFlowError):
    """A mixture component collapsed beyond what regularization can repair."""


class ScaleError(GcFlowError):
    """A brute-force computation was requested at a size it cannot handle."""


class DivergedError(GcFlowError):
    """Training produced a non-finite loss.

    The ``record`` attribute carries the run state up to the last finite
    epoch so the best checkpoint so far is not lost.
    """

    def __init__(self, message, record):
        super().__init__(message)
        self.record = record
