"""Exception hierarchy shared across the package."""


class KoszulLiftError(Exception):
    """Base class for all package errors."""


class ParseError(KoszulLiftError):
    """Malformed polynomial text or JSON input."""


class InvalidInputError(KoszulLiftError):
    """Input violates a documented precondition (e.g. the homotopy system
    is inconsistent because the given complex is not a valid reduction)."""


class LevelTooLowError(KoszulLiftError):
    """A homotopy family of insufficient level was passed to assembly."""


class DegreeBoundTooLowError(KoszulLiftError):
    """Syzygy search hit the internal degree bound while new generators
    were still appearing; raise the bound and retry."""
