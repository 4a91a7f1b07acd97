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

from operator import attrgetter
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

    A subclass names its defining fields once, in `_fields`, each of them
    a slot; one `operator.attrgetter` per class reads them.  Equality,
    hashing and repr are derived from those fields alone: a value equals
    only a value of its own class with equal fields (never a tuple), hashes
    as the tuple of its fields and prints as ``Name(field=value, ...)``.
    Slots left out of `_fields` hold derived data or memos and take no part
    in any of them.

    Attribute assignment and deletion raise AttributeError, so a value
    never changes once built; `__init__` validates and then sets the slots
    through `_set`, which is object.__setattr__.
    """

    __slots__ = ()
    _fields = ()  # each value class names its own
    _set = object.__setattr__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields")
        if fields:  # `_key(value)` is the tuple of the field values
            get = attrgetter(*fields)
            cls._key = get if len(fields) > 1 else staticmethod(lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__name__}({args})"

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
    """Apply the k-th power of the suspension: (m, n) -> (m - k, n - k).
    Raises InvalidArc unless x is an Arc or an Edge."""
    if isinstance(x, Edge):
        return Edge(x.i - k)
    if not isinstance(x, Arc):
        raise InvalidArc(f"{x!r} is not an Arc or an Edge")
    return Arc(x.m - k, x.n - k)
