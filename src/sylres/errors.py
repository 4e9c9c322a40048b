"""Exception hierarchy shared by all sylres modules."""


class SylresError(Exception):
    """Base class for all library errors."""


# -- polynomials -------------------------------------------------------------

class NotDivisible(SylresError):
    """Exact polynomial division left a nonzero remainder."""


class DivisionByZeroPoly(SylresError):
    """Division by the zero polynomial."""


# -- matrices ----------------------------------------------------------------

class NotSquare(SylresError):
    pass


class MultiplePolyColumns(SylresError):
    """More than one matrix column holds nonconstant polynomial entries."""


class TooManyColumns(SylresError):
    """Vandermonde builder asked for fewer rows than columns."""


class IndexOutOfRange(SylresError):
    pass


class NotSquareAfterRemoval(SylresError):
    pass


# -- Schur -------------------------------------------------------------------

class InconsistentRemovalCount(SylresError):
    """|removed| does not match k minus the number of matrix columns."""


class EmptyPoints(SylresError):
    """Schur ratio with no points and k > 0: denominator undefined."""


# -- combinatorics -----------------------------------------------------------

class ShiftOutOfRange(SylresError):
    """Shifted first block leaves {1,..,r-s}."""


# -- Sylvester sums ----------------------------------------------------------

class DegreeWindow(SylresError):
    """d outside 0..min(m,n) (strict at m = n), or degenerate degrees."""


class MultiplicityNotOne(SylresError):
    """A multiset argument must be a plain set here."""


class TooFewElements(SylresError):
    pass


class CardinalityTooSmall(SylresError):
    """Auxiliary set E smaller than max(|X|+d, m+n-d, m)."""


class ArityMismatch(SylresError):
    pass


# -- CLI / parsing -----------------------------------------------------------

class ParseError(SylresError):
    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class ValidationError(SylresError):
    pass


class UnknownSuite(SylresError):
    pass
