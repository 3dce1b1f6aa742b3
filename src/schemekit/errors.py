"""Exception hierarchy.

MathError subclasses signal a mathematical failure (the CLI exits 1);
everything else under SchemeKitError is a usage/format problem (exit 2).
"""


class SchemeKitError(Exception):
    pass


class FormatError(SchemeKitError):
    """Bad input file, JSON document, or argument format."""


class DuplicateWords(FormatError):
    """A code file or word list contains a repeated word."""


# the size cap of every construction and of the CLI's --cap
DEFAULT_CAP = 4096


class SizeCapExceeded(SchemeKitError):
    """A construction would exceed a size cap (vertices or classes)."""


class DimensionMismatch(SchemeKitError, ValueError):
    """Operands have incompatible shapes or variable counts."""


class MathError(SchemeKitError):
    """A verified mathematical property failed to hold."""


class AxiomViolation(MathError):
    def __init__(self, report):
        self.report = report
        super().__init__(str(report.first_failure()))


class ClosureFailure(MathError):
    """A merged relation table is not an association scheme."""

    def __init__(self, report):
        self.report = report
        super().__init__("fusion is not a scheme: %s" % report.first_failure())


class SingularMatrix(MathError):
    pass


class SnapFailure(MathError):
    """Eigenvalues could not be certified as Gaussian rationals."""


class CertificationFailure(MathError):
    """A given eigenmatrix failed its exact certificate."""


class NotAdditive(MathError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__("code is not closed under addition: %r + %r" % witness)


class NotScalar(MathError):
    """(PT)^3 is not a nonzero scalar matrix."""

    def __init__(self, message, entry=None):
        self.entry = entry
        super().__init__(message)


class NegativeKrein(MathError):
    def __init__(self, indices, value):
        self.indices = indices
        self.value = value
        super().__init__(
            "Krein parameter q%r = %s is not a non-negative real" % (indices, value)
        )
