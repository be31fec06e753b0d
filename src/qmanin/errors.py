"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto exit codes: configuration problems exit 2,
out-of-phase-space inputs exit 3, solver conditioning failures exit 4.
No error maps to exit 1: that is ``qmanin verify``'s own return value when
an acceptance criterion fails.
"""


class QmaninError(Exception):
    """Base class for all library errors."""


class ConfigError(QmaninError):
    """Invalid configuration: bad weights, q = 0, malformed input, ..."""

    exit_code = 2


class WeightHorizonError(ConfigError):
    """A weight was requested beyond the materialized horizon."""


class InputTooLargeError(ConfigError):
    """Monomial exponents or powers of q grew past the supported range."""


class InsufficientQuadratureError(ConfigError):
    """Quadrature order / angular resolution below the polynomial reach."""


class OutsidePhaseSpaceError(QmaninError):
    """A point outside a rule's phase space, |mu| |lambda| >= R^2 with R
    the rule's radius: its series diverges, and the requested lambda is not
    an eigenvalue."""

    exit_code = 3

    def __init__(self, message, series=None):
        super().__init__(message)
        self.series = series


class SolverError(QmaninError):
    """Numerical solver could not certify a result."""

    exit_code = 4


class ToleranceUnreachableError(SolverError):
    """Adaptive truncation hit its term cap before certifying the tail."""


class IndefiniteMomentsError(SolverError):
    """Hankel matrix of the moments is not positive definite: no positive
    measure exists at the requested order."""

    def __init__(self, message, order=None):
        super().__init__(message)
        self.order = order


class OrderTooHighError(SolverError):
    """Moment conditioning collapsed; carries the largest achievable order."""

    def __init__(self, message, achievable=None):
        super().__init__(message)
        self.achievable = achievable


class WindowTooSmallError(ConfigError):
    """Operator truncation window cannot hold the coherent state tail."""
