"""Exception hierarchy shared by all solvers."""


class TranslabError(Exception):
    """Base class for all package errors."""


class ParameterError(TranslabError):
    """Invalid construction parameters or configuration (CLI exit 2)."""


class DomainError(TranslabError):
    """A point lies outside the admissible domain of an operation."""

    def __init__(self, message, violated=None):
        super().__init__(message)
        self.violated = violated


class ConvergenceError(TranslabError):
    """A root solve or integration failed to converge."""


class UnsupportedError(TranslabError):
    """Operation not available for this curvature function."""


class StructureError(TranslabError):
    """A computed object violates a structural property it should satisfy."""


class ClassificationError(TranslabError):
    """Tail/classification fit failed its quality threshold."""


class FitError(TranslabError):
    """Requested fit window is unusable."""
