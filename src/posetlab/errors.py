"""Exception hierarchy.

Two branches: ``UsageError`` for malformed input (bad encodings, bad
documents, oversized bounds) and ``DomainError`` for mathematically
well-formed requests that the algebra rejects (incomparable elements,
non-invertible functions, mismatched posets). The CLI maps them to exit
codes 1 and 2 respectively.
"""


class PosetLabError(Exception):
    """Base class for all library errors."""


class UsageError(PosetLabError):
    """Invalid input: encodings, documents, bounds."""


class DomainError(PosetLabError):
    """Valid input that violates a mathematical precondition."""


class InvalidElement(UsageError):
    """Encoding does not belong to the poset's family."""


class InvalidInput(UsageError):
    """Malformed scalar, document, or out-of-range argument."""


class BoundTooLarge(UsageError):
    """Work past ``posets.DEFAULT_ELEMENT_CAP`` or the factorisation
    step budget."""


class CyclicCovers(UsageError):
    """Cover relation of an explicit poset contains a cycle."""


class NoUniqueBottom(UsageError):
    """Explicit poset has zero or several minimal elements."""


class DuplicateElement(UsageError):
    """Explicit poset declares an identifier twice."""


class UnknownElementInCover(UsageError):
    """Cover pair mentions an undeclared identifier."""


class NotComparable(DomainError):
    """Requested interval [x, y] with x <= y failing."""


class NotStrictlyAbove(DomainError):
    """Witness candidate z does not satisfy z > y."""


class PosetMismatch(DomainError):
    """Operands live on different posets."""


class NotInvertible(DomainError):
    """Interval function has a zero diagonal entry."""

    def __init__(self, element, message=None):
        self.element = element
        super().__init__(message or f"zero diagonal entry at {element!r}")


class NoClosedForm(DomainError):
    """No closed-form Mobius formula for this poset family."""


class ZeroFunction(DomainError):
    """Operation requires a function that is not identically zero."""


class InsufficientWitnesses(DomainError):
    """Witness stream exhausted its budget before reaching the requested
    count. Carries the certificates found so far."""

    def __init__(self, certificates, requested, message=None):
        self.certificates = list(certificates)
        self.requested = requested
        super().__init__(
            message
            or f"budget exhausted after {len(self.certificates)} of "
            f"{requested} witnesses"
        )


class WitnessConclusionViolated(DomainError):
    """Witness verification found the inversion of g disagreeing with
    the value mu(y,z) f(y) that the witness conditions predict, or
    vanishing wherever it must not; the exact arithmetic contradicts
    the theory it certifies."""


class NotInverses(DomainError):
    """Supplied pair of interval functions does not convolve to delta."""


class ElementOutsideWindow(DomainError):
    """Census base point is not an element of the window."""


class WindowNotNested(DomainError):
    """Shell is not a strict superset of the window."""
