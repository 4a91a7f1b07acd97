"""Exceptions shared across the package.

Mathematically meaningful refusals (Unreachable, InfiniteCrossers,
NotLocallyFinite) are distinct from plain usage errors; the CLI maps the
former to exit code 2.
"""


class InfccError(Exception):
    """Base class for all package errors."""


class UnknownFamily(InfccError, ValueError):
    """Triangulation spec names a base family that does not exist."""


class InvalidSpec(InfccError, ValueError):
    """A triangulation spec, an argument of a base family or session
    constructor, a window or bounding box, or the JSON form of a Laurent
    polynomial, is not of the documented shape."""


class InvalidArc(InfccError, ValueError):
    """A pair (m, n) is not an arc of the model: m > n - 2, or an end lies
    off a polygon's frame."""


class WrongFamily(InfccError, ValueError):
    """Operation defined on another base family than the triangulation's."""


class NotAPolygon(WrongFamily):
    """Operation defined on finite polygon models only."""


class FlipTargetNotMember(InfccError, ValueError):
    """A flip in a build spec targets an arc that is not a member."""


class NotAMember(InfccError, ValueError):
    """Operation requires a member arc of the triangulation."""


class InvalidModule(InfccError, ValueError):
    """A string module's walk and structure directions do not fit together,
    or do not match the triangulation the module is read over."""


class TooLarge(InfccError):
    """A computation would exceed a documented size limit."""


class NotMaximal(InfccError):
    """The arcs are not a triangulation: a hole shows where a non-member
    crosses no member, where consecutive crossers of an arc share no end,
    or where a triangle an arc crosses lacks a side."""


class InfiniteCrossers(InfccError):
    """The queried arc crosses infinitely many members.

    Happens exactly when a triangulation with a fountain at n is queried
    with an arc (p, q) straddling it, p < n < q.
    """

    def __init__(self, fountain: int):
        super().__init__(f"infinitely many members crossed (fountain at {fountain})")
        self.fountain = fountain


class Unreachable(InfccError):
    """The arc cannot be reached from the triangulation by finitely many flips."""

    def __init__(self, arc, fountain: int):
        super().__init__(f"arc {tuple(arc)} is unreachable (fountain at {fountain})")
        self.arc = arc
        self.fountain = fountain


class NotLocallyFinite(InfccError):
    """Tiling generation requires a locally finite triangulation."""


class NonAdmissibleFrontier(InfccError, ValueError):
    """Frontier word is malformed or misses the half plane on its window."""


class ExactnessFailure(InfccError):
    """A determinant recurrence produced a non-integer or non-positive value."""


class SupportMeetsU(InfccError, ValueError):
    """A class fails to avoid the subcategory it must be disjoint from."""


class ExponentOverflow(InfccError, OverflowError):
    """A Laurent exponent would leave the range of a packed exponent field."""
