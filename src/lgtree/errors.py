"""Exception taxonomy shared across the library.

Validation errors (bad inputs, malformed trees, out-of-range parameters)
derive from :class:`ValidationError` so the CLI can map them to exit code 1;
everything else is treated as a runtime failure (exit code 2).
"""

from __future__ import annotations


class LgtreeError(Exception):
    """Base class for all library errors."""

    module = "lgtree"


class ValidationError(LgtreeError):
    """Input failed a documented precondition."""


# -- tree construction ------------------------------------------------------

class NotATree(ValidationError):
    module = "trees"


class NonMinimal(ValidationError):
    module = "trees"


class BadCorrelation(ValidationError):
    module = "trees"


class DanglingEdge(ValidationError):
    module = "trees"


class UnknownNode(ValidationError):
    module = "trees"


class InconsistentCovariance(ValidationError):
    """Observed covariance is not representable by the given tree shape."""

    module = "trees"


class RatioOutOfRange(InconsistentCovariance):
    """A recovered squared correlation fell outside (0, 1)."""

    module = "trees"


class ParseError(ValidationError):
    module = "cli"


# -- sign enumeration -------------------------------------------------------

class MissingAssignment(ValidationError):
    module = "signs"


class TooManyHidden(ValidationError):
    module = "signs"


class MismatchedNodeSets(ValidationError):
    module = "signs"


# -- information measures ---------------------------------------------------

class IllConditioned(ValidationError):
    module = "info"


class NotLeafOnly(ValidationError):
    module = "info"


class WrongShape(ValidationError):
    module = "info"


# -- synthesis --------------------------------------------------------------

class CapExceeded(ValidationError):
    module = "synthesis"
