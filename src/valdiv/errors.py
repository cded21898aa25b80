"""Exception types shared across the package."""


class ValdivError(Exception):
    """Base class for all library errors."""


class RankMismatchError(ValdivError):
    """Vectors or lattices with different ambient ranks were combined."""


class NotASubgroupError(ValdivError):
    """A claimed sublattice has a generator outside the bigger lattice."""


class InfiniteIndexError(ValdivError):
    """Quotient of lattices is not finite (rational rank drops)."""


class DescriptorMismatchError(ValdivError):
    """Elements of different fields/rings/algebras were combined."""


class FieldConstructionError(ValdivError):
    """Invalid field descriptor (non-prime modulus, bad extension, ...)."""


class NotInvertibleError(ValdivError):
    """Division by zero or by a non-unit."""


class UnsupportedFieldError(ValdivError):
    """Operation is outside the supported field regimes."""


class PrecisionExhaustedError(ValdivError):
    """Truncated arithmetic cannot certify the requested answer."""


class NotAUnitError(ValdivError):
    """A unit (valuation zero) was required."""


class InvariantBreachError(ValdivError):
    """An internal consistency check failed; indicates a construction bug."""


class NoRepresentativeError(ValdivError):
    """No monomial representative exists at the requested value."""


class UndecidedComparisonError(ValdivError):
    """A comparison of truncated data has no certified answer."""


class NormCertificateError(ValdivError):
    """Reduced norm is certified different from 1."""


class DegenerateDecompositionError(ValdivError):
    """Commutator decomposition is outside the supported regimes."""


class ConjugatorSearchError(ValdivError):
    """No invertible conjugator found within the retry budget."""


class CharPolyMismatchError(ValdivError):
    """Conjugation target has a different reduced characteristic polynomial."""


class UndefinedValueError(ValdivError):
    """A quantity is undefined under the stated hypotheses."""


class UsageError(ValdivError):
    """A command-line argument is missing, malformed or out of range."""


class ParseError(ValdivError):
    """Positioned syntax error in a description string."""

    def __init__(self, message: str, line: int = 1, col: int = 0):
        super().__init__(f"{message} (line {line}, col {col})")
        self.message = message
        self.line = line
        self.col = col
