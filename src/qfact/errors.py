"""Exception hierarchy shared by all qfact modules."""


class QfactError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateHull(QfactError):
    """The convex hull of the given points is not 3-dimensional."""


class EmptyPolynomial(QfactError):
    """An operation that needs a nonzero polynomial received zero."""


class ParseError(QfactError):
    """Laurent polynomial text did not conform to the input grammar."""

    def __init__(self, position: int, message: str):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position
        self.message = message


class DimensionMismatch(QfactError):
    """Matrix/vector dimensions are inconsistent."""


class NotSimplicial(QfactError):
    """A maximal cone of the fan is not spanned by 3 independent rays."""


class FanMismatch(QfactError):
    """A polytope's facet normals do not match the toric data's rays."""


class SupportOutsidePolytope(QfactError):
    """A Laurent polynomial has support outside the prescribed polytope."""

