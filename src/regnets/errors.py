"""Exception types shared across the package."""


class RegnetsError(Exception):
    """Base class for all package errors."""


class InputError(RegnetsError):
    """Input the caller can fix: a value outside its documented range, data
    that break a documented rule, or a scale the grid or box cannot hold.
    The CLI exits 2 on it and 1 on any other RegnetsError."""


class GridError(RegnetsError):
    """Grid mismatch between operands, or grid values a computation cannot use."""


class ResolutionError(InputError):
    """Grid spacing too coarse to resolve the requested scale."""

    def __init__(self, message, required_points=None):
        super().__init__(message)
        self.required_points = required_points


class UnsupportedOrderError(RegnetsError):
    """Derivative / Sobolev order beyond the supported range."""


class PositivityError(RegnetsError):
    """A quantity that must be strictly positive is not."""


class BoxTooSmallError(InputError):
    """Domain box does not contain a required support set."""

    def __init__(self, message, required_half_width=None):
        super().__init__(message)
        self.required_half_width = required_half_width


class SolverError(RegnetsError):
    """Linear solve failed to reach the requested residual."""


class ReferenceError_(RegnetsError):
    """Fine reference solution failed its self-convergence check."""


class ConfigError(InputError):
    """Experiment configuration failed schema validation."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
