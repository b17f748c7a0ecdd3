"""Exception types shared across the package.

A check on the caller's input raises InputError or a subclass (CLI exit 2);
a computation that fails its own check raises any other RegnetsError (exit 1).
"""


class RegnetsError(Exception):
    """Base class for all package errors; raised as such when a computation
    fails a check of its own that no narrower class names."""


class InputError(RegnetsError):
    """Input the caller can fix: a value outside its documented range, data
    that break a documented rule, or a scale the grid or box cannot hold.
    The CLI exits 2 on it and 1 on any other RegnetsError."""


class ResolutionError(InputError):
    """Grid spacing too coarse to resolve the requested scale."""

    def __init__(self, message, required_points=None):
        super().__init__(message)
        self.required_points = required_points


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
