"""String modules supported on the members crossing an arc.

The module attached to an arc c is one-dimensional exactly at the members
crossing c, with nonzero structure maps between crossing-consecutive
members (they always share a triangle).  We record the module as its walk
and the direction of each structure map:

    dirs[i] = +1  means the map sends the value at walk[i] into walk[i+1]
    dirs[i] = -1  means the map sends the value at walk[i+1] into walk[i]

A quiver arrow a -> b acts contravariantly, i.e. it induces a structure map
from the value at b into the value at a.

Submodules are subsets of walk vertices closed under the structure maps.
Every sum over them is one two-state transfer along the walk,
`submodule_sum` (the 2x2 matrix product of Musiker-Williams, "Matrix
formulae and skein relations for cluster algebras from surfaces", IMRN
2013): unit weights count the submodules, a formal variable per vertex
lists their classes, and y_v = x^theta(S_v) gives the Caldero-Chapoton
sum.  These strings are multiplicity-free, so each class of submodules is
a single point and every Euler characteristic equals 1.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .arcs import Arc, Frozen, Seg
from .errors import InvalidModule, NotMaximal
from .triangulation import Triangulation, arrow_between


class StringModule(Frozen):
    """A walk of members and the direction of each structure map along it."""

    __slots__ = _fields = ("walk", "dirs")

    def __init__(self, walk: Tuple[Arc, ...], dirs: Tuple[int, ...]):
        if len(dirs) != max(len(walk) - 1, 0):
            raise InvalidModule(f"a walk of {len(walk)} vertices needs "
                                f"{max(len(walk) - 1, 0)} directions, got {len(dirs)}")
        if len(set(walk)) != len(walk):
            raise InvalidModule("walks are multiplicity-free")
        self._set("walk", walk)
        self._set("dirs", dirs)

    @property
    def is_zero(self) -> bool:
        return not self.walk

    def __len__(self) -> int:
        return len(self.walk)

    def _turns(self, sign: int) -> List[Arc]:
        """Walk vertices, in walk order, whose step before has direction -sign and
        step after has sign: the peaks for sign +1, the valleys for -1."""
        k, dirs = len(self.walk), self.dirs
        return [
            v for i, v in enumerate(self.walk)
            if (i == 0 or dirs[i - 1] == -sign) and (i == k - 1 or dirs[i] == sign)
        ]

    def peaks(self) -> List[Arc]:
        """Vertices with no structure map into them (the top of the module)."""
        return self._turns(+1)

    def valleys(self) -> List[Arc]:
        """Vertices with no structure map out of them (the socle)."""
        return self._turns(-1)

    def total_class(self) -> dict:
        return {v: 1 for v in self.walk}


def walk_dirs(T: Triangulation, walk: Sequence[Arc]) -> Tuple[int, ...]:
    """Structure directions of a walk of members; NotMaximal unless each step shares a triangle."""
    dirs = []
    for a, b in zip(walk, walk[1:]):
        arrow = arrow_between(T, a, b)
        if arrow is None:
            raise NotMaximal(f"consecutive walk vertices {tuple(a)}, {tuple(b)} share no triangle")
        dirs.append(-arrow)  # arrow a -> b maps the value at b into the value at a
    return tuple(dirs)


def g_module(T: Triangulation, c: Seg) -> StringModule:
    """The string module of c: supported on the members crossing c.

    Zero (empty walk) exactly when c is a member or boundary.  Propagates
    InfiniteCrossers when c straddles a fountain.
    """
    if T.is_boundary(c) or T.is_member(c):
        return StringModule((), ())
    walk = tuple(T.crossers(c))
    return StringModule(walk, walk_dirs(T, walk))


def submodule_sum(M: StringModule, ys: Iterable, one):
    """Sum over the submodules N of M of the product of y_v over v in N.

    `ys` yields one weight per walk vertex, in walk order, from any
    commutative ring whose unit is `one`; the zero module sums to `one`.
    """
    if M.is_zero:
        return one
    ys = iter(ys)
    out_, in_ = one, next(ys)  # the subsets of walk[0..i] with walk[i] out / in
    for d, y in zip(M.dirs, ys):
        if d == +1:
            # choosing i forces i+1, so "i+1 out" admits only "i out" prefixes
            out_, in_ = out_, (out_ + in_) * y
        else:
            # choosing i+1 forces i
            out_, in_ = out_ + in_, in_ * y
    return out_ + in_


def count_submodules(M: StringModule) -> int:
    """Number of submodules: the transfer with unit weights."""
    return submodule_sum(M, repeat(1), 1)


class SubmoduleClassTable(NamedTuple):
    entries: Tuple[Tuple[dict, int], ...]  # (class vector, point count)

    @property
    def size(self) -> int:
        return len(self.entries)

    def class_multiset(self):
        return sorted(tuple(sorted(e.items())) for e, _ in self.entries)


def submodule_classes(M: StringModule) -> SubmoduleClassTable:
    """All submodule classes of a string module, smallest first.

    The transfer with a formal variable x_v per walk vertex: each term of
    the sum is one class, and its coefficient is the Euler characteristic.
    """
    from .laurent import ONE, LaurentPoly, VarIndex

    index = VarIndex()
    total = submodule_sum(M, (LaurentPoly.variable(v, index) for v in M.walk), ONE)
    entries = sorted(((dict(e), chi) for e, chi in total.sorted_terms()),
                     key=lambda ec: (len(ec[0]), sorted(ec[0])))
    return SubmoduleClassTable(tuple(entries))
