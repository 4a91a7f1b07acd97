"""Arc coordinates on the line model.

An arc is a pair of integers (m, n) with m <= n - 2, drawn as a curve over
the integer line connecting the non-neighbouring points m and n.  Boundary
segments (i, i+1) are a separate type, Edge; they stand for the zero object
and evaluate to 1 in all Ptolemy-style products.

Crossing arcs are exactly the pairs with a one-dimensional extension space
between the corresponding indecomposable objects, so 0/1 crossing tests
carry all the Hom/Ext information this package needs.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .errors import InvalidArc


class Arc(NamedTuple):
    m: int
    n: int


class Edge(NamedTuple):
    """The boundary segment (i, i+1)."""

    i: int


Seg = Union[Arc, Edge]


class Frozen:
    """Mixin of the package's immutable value classes.

    Attribute assignment and deletion raise AttributeError, so a value
    never changes once built; `__init__` sets the slots through
    object.__setattr__.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


def arc(m: int, n: int) -> Arc:
    """Validated arc constructor; raises InvalidArc unless m <= n - 2."""
    if m > n - 2:
        raise InvalidArc(f"({m},{n}) is not an arc: need m <= n-2")
    return Arc(m, n)


def seg(a: int, b: int) -> Seg:
    """Arc or Edge on the ordered pair a < b; raises InvalidArc unless a < b."""
    if b <= a:
        raise InvalidArc(f"segment endpoints must be increasing, got ({a},{b})")
    if b == a + 1:
        return Edge(a)
    return Arc(a, b)


def crosses(a: Arc, b: Arc) -> bool:
    """True iff the arcs' endpoints strictly interleave.

    Shared endpoints never count as crossing.  dim Ext^1 between the two
    objects is 1 if this returns True and 0 otherwise.
    """
    p, q = a
    r, s = b
    return (p < r < q < s) or (r < p < s < q)


def spans(outer: Arc, inner: Arc) -> bool:
    """True iff `outer` = (s,t) spans `inner` = (u,v).

    The condition is s <= u < v < t or s < u < v <= t; an arc never spans
    itself.
    """
    s, t = outer
    u, v = inner
    return (s <= u and v < t) or (s < u and v <= t)


def shift(x: Seg, k: int) -> Seg:
    """Apply the k-th power of the suspension: (m, n) -> (m - k, n - k)."""
    if isinstance(x, Edge):
        return Edge(x.i - k)
    return Arc(x.m - k, x.n - k)


def hom_nonzero(a: Arc, b: Arc) -> bool:
    """Nonvanishing of maps a -> b in the line model.

    Chosen so that Hom(a, shift(b, 1)) != 0 iff crosses(a, b), matching the
    crossing/extension dictionary.
    """
    return crosses(a, shift(b, -1))
