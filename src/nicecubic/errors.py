"""Exception types shared across the package."""


class GraphParseError(ValueError):
    """Malformed graph6 input. Carries the byte offset of the offending character."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class FormatUnsupportedError(ValueError):
    """Input cannot be represented in the requested serialization format."""


class DomainError(ValueError):
    """A precondition on the mathematical domain of an operation is violated."""


class SpliceError(ValueError):
    """Invalid splicing request (degree mismatch, bad bijection, missing edge)."""


class InvalidFamilySpecError(ValueError):
    """A family construction spec names parameters outside the family's definition."""


class NotTightCutError(ValueError):
    """A contraction was requested across a cut that is not tight."""


class InternalCheckError(RuntimeError):
    """A family recognizer's witness does not rebuild its input.

    Raised by ``recognize_family`` when ``verify_membership``, replaying a
    peeled decomposition through the constructors, does not rebuild the
    graph it was peeled from. Indicates a bug in this package, never a
    property of the input graph.
    """


class UnknownSuiteError(ValueError):
    """Requested verification suite is not registered."""
