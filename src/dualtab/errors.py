"""Exception types shared across the package."""


class DualTabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DualTabError):
    """Malformed input text.

    Carries the message without its position, the byte offset of the
    failure (None for input given as terms) and the set of token kinds that
    would have been accepted there.
    """

    def __init__(self, message, offset=None, expected=()):
        super().__init__(message if offset is None else f"{message} at offset {offset}")
        self.message = message
        self.offset = offset
        self.expected = frozenset(expected)


class NotBoolean(DualTabError):
    """Operation requires a Boolean term (no composition, no converse)."""


class FragmentViolation(DualTabError):
    """Term lies outside the decidable fragment accepted by the prover."""

    def __init__(self, message, offender=None):
        super().__init__(message)
        self.offender = offender


class EmptyPremises(DualTabError):
    """Entailment encoding needs at least one premise."""


class ResourceExhausted(DualTabError):
    """A step or variable cap was hit.

    The procedure provably terminates, so hitting a cap signals an
    implementation bug rather than a hard input.
    """


class BranchNotSaturated(DualTabError):
    """Model extraction requires a non-axiomatic, not further expandable branch."""


class UnboundVariable(DualTabError):
    """Valuation does not cover an object variable of the queried formula."""


class BudgetExceeded(DualTabError):
    """A brute-force oracle refused an enumeration space beyond its budget."""


class EngineInvariantError(DualTabError):
    """A runtime diagnostic derived from the termination argument fired.

    Any occurrence is a bug in the engine, never a property of the input.
    """


class UnknownVariableWarning(UserWarning):
    """A term mentions a relational variable the model does not interpret."""
