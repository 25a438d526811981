"""Exception hierarchy.

Every error raised on purpose by this package derives from PerpetuaError so
callers can catch the whole family with one clause.  Precondition failures
carry the machine-readable name of the violated requirement.
"""


class PerpetuaError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteParameter(PerpetuaError, ValueError):
    """A triplet or family parameter is out of range or not finite."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(map(_describe, self.issues)))


def _describe(issue) -> str:
    """'CODE: message', and ' (at path)' after it when the issue's field is a nested path."""
    nested = "." in issue.field or "[" in issue.field
    return f"{issue.code}: {issue.message}" + (f" (at {issue.field})" if nested else "")


class PreconditionViolation(PerpetuaError):
    """An operation was called on inputs that fail its stated preconditions."""

    def __init__(self, reason, message=""):
        self.reason = reason
        super().__init__(f"{reason}: {message}" if message else reason)


class QuadratureFailure(PerpetuaError):
    """Numerical integration produced non-finite values."""


class InversionUnstable(PerpetuaError):
    """Fourier inversion error estimate exceeded the allowed fraction of the value."""


class NotReachedError(PerpetuaError):
    """A simulated path did not reach its target: an invariance path that never escapes its levels."""


class ConfigError(PerpetuaError):
    """Experiment configuration is malformed; carries field diagnostics."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
