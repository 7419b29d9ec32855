"""Exception hierarchy for the ``repro`` library.

All errors raised by the library derive from :class:`ReproError`, so a
caller can catch every library-specific failure with one ``except`` clause
while still letting programming errors (``TypeError`` and friends)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the library."""


class ParseError(ReproError):
    """Raised when a Boolean formula or constraint text cannot be parsed.

    Attributes
    ----------
    text:
        The full input text.
    position:
        Zero-based character offset at which parsing failed.
    """

    def __init__(self, message: str, text: str = "", position: int = 0):
        super().__init__(message)
        self.text = text
        self.position = position


class DimensionMismatchError(ReproError):
    """Raised when boxes or regions of different dimensions are combined."""


class AnchorError(ReproError, ValueError):
    """Raised when a nearest-neighbor anchor is not a point or box the
    distance metric is defined on: a coordinate that is not a number,
    or is NaN or (in a point) infinite."""


class DuplicateOidError(ReproError, ValueError):
    """Raised when a row is inserted under an oid that a live row of the
    table, or an earlier row of the same batch, already has."""


class UniverseMismatchError(ReproError):
    """Raised when algebra elements from different universes are combined."""


class UnsatisfiableError(ReproError):
    """Raised when a query's ground (constant-only) residue is violated.

    Algorithm 1 leaves constraints that mention only bound constants in the
    residual system ``S_0``; the compiler checks them once against the bound
    regions and raises this error when the query can have no answers.
    """


class CompilationError(ReproError):
    """Raised when a constraint system cannot be compiled into a plan."""


class UnknownModeError(ReproError, ValueError):
    """Raised when an executor is asked for an execution mode it does not
    know.

    Carries the requested mode and the tuple of valid modes; the message
    names every valid mode so the caller can correct the call site.
    """

    def __init__(self, mode: object, valid: tuple):
        super().__init__(
            f"unknown execution mode {mode!r}; expected one of "
            + ", ".join(repr(m) for m in valid)
        )
        self.mode = mode
        self.valid = tuple(valid)


class OptionError(ReproError, ValueError):
    """Raised when an execution option — ``mode`` or ``limit``, a kNN
    lookup's ``k`` (or a ``/nearest`` ``access`` other than ``"auto"``),
    or the join a plan is forced to run —
    has the wrong type or value (a bulk join needs a box mode).  The
    message names what was expected."""


class UnboundVariableError(CompilationError):
    """Raised when a query references a variable with no table or binding."""


class SnapshotError(ReproError):
    """Raised when a database snapshot cannot be read or written.

    Covers missing files, malformed JSON, and format-version mismatches;
    the message names the offending path and what was expected.
    """


class ServiceError(ReproError):
    """Raised by the query service for malformed or unserviceable requests.

    Carries an HTTP-ish ``status`` so the server maps it onto a response
    code; clients raise it when the server reports an error payload.
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status
