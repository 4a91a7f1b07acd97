"""String modules supported on the members crossing an arc.

The module attached to an arc c is one-dimensional exactly at the members
crossing c, with nonzero structure maps between crossing-consecutive
members (they always share a triangle).  We record the module as its walk
and the direction of each structure map:

    dirs[i] = +1  means the map sends the value at walk[i] into walk[i+1]
    dirs[i] = -1  means the map sends the value at walk[i+1] into walk[i]

A quiver arrow a -> b acts contravariantly, i.e. it induces a structure map
from the value at b into the value at a.

Submodules are subsets of walk vertices closed under the structure maps;
for these multiplicity-free strings each nonempty class of submodules is a
single point, so every Euler characteristic below equals 1 and counting
points is counting submodules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .arcs import Arc, Edge, Seg
from .errors import InvalidModule, NotMaximal, TooLarge
from .triangulation import Triangulation, arrow_between


@dataclass(frozen=True)
class StringModule:
    walk: Tuple[Arc, ...]
    dirs: Tuple[int, ...]

    def __post_init__(self):
        if len(self.dirs) != max(len(self.walk) - 1, 0):
            raise InvalidModule(f"a walk of {len(self.walk)} vertices needs "
                                f"{max(len(self.walk) - 1, 0)} directions, got {len(self.dirs)}")
        if len(set(self.walk)) != len(self.walk):
            raise InvalidModule("walks are multiplicity-free")

    @property
    def is_zero(self) -> bool:
        return not self.walk

    def __len__(self) -> int:
        return len(self.walk)

    def peaks(self) -> List[Arc]:
        """Vertices with no structure map into them (the top of the module)."""
        k = len(self.walk)
        return [
            v for i, v in enumerate(self.walk)
            if (i == 0 or self.dirs[i - 1] == -1) and (i == k - 1 or self.dirs[i] == +1)
        ]

    def valleys(self) -> List[Arc]:
        """Vertices with no structure map out of them (the socle)."""
        k = len(self.walk)
        return [
            v for i, v in enumerate(self.walk)
            if (i == 0 or self.dirs[i - 1] == +1) and (i == k - 1 or self.dirs[i] == -1)
        ]

    def total_class(self) -> dict:
        return {v: 1 for v in self.walk}


def g_module(T: Triangulation, c: Seg) -> StringModule:
    """The string module of c: supported on the members crossing c.

    Zero (empty walk) exactly when c is a member or boundary.  Propagates
    InfiniteCrossers when c straddles a fountain.
    """
    if isinstance(c, Edge) or T.is_boundary(c) or T.is_member(c):
        return StringModule((), ())
    walk = tuple(T.crossers(c))
    dirs = []
    for a, b in zip(walk, walk[1:]):
        arrow = arrow_between(T, a, b)
        if arrow is None:
            raise NotMaximal(f"consecutive crossers {tuple(a)}, {tuple(b)} share no triangle")
        # arrow a -> b acts as a map from the value at b into the value at a
        dirs.append(-arrow)
    return StringModule(walk, tuple(dirs))


# submodule_classes enumerates 2^k subsets of a walk of k vertices
MAX_SUBMODULE_WALK = 24


@dataclass(frozen=True)
class SubmoduleClassTable:
    entries: Tuple[Tuple[dict, int], ...]  # (class vector, point count)

    @property
    def size(self) -> int:
        return len(self.entries)

    def class_multiset(self):
        return sorted(tuple(sorted(e.items())) for e, _ in self.entries)


def submodule_classes(M: StringModule) -> SubmoduleClassTable:
    """All submodule classes of a string module, each a single point.

    A subset of walk vertices is a submodule iff it is closed under the
    structure maps: whenever a map sends vertex x into vertex y and x is
    chosen, y must be chosen too.
    """
    k = len(M.walk)
    if k > MAX_SUBMODULE_WALK:
        raise TooLarge(f"submodule enumeration is exponential: a walk of {k} vertices is "
                       f"longer than {MAX_SUBMODULE_WALK}")
    entries = []
    for mask in range(1 << k):
        ok = True
        for i, d in enumerate(M.dirs):
            src, dst = (i, i + 1) if d == +1 else (i + 1, i)
            if mask >> src & 1 and not mask >> dst & 1:
                ok = False
                break
        if ok:
            e = {M.walk[i]: 1 for i in range(k) if mask >> i & 1}
            entries.append((e, 1))
    entries.sort(key=lambda ec: (len(ec[0]), sorted(ec[0])))
    return SubmoduleClassTable(tuple(entries))


def count_submodules(M: StringModule) -> int:
    """Number of submodules, by a linear scan (no enumeration)."""
    if M.is_zero:
        return 1
    # state: number of closed subsets of the prefix with walk[i] out / in
    out_, in_ = 1, 1
    for d in M.dirs:
        if d == +1:
            # choosing i forces i+1, so "i+1 out" admits only "i out" prefixes
            out_, in_ = out_, out_ + in_
        else:
            # choosing i+1 forces i
            out_, in_ = out_ + in_, in_
    return out_ + in_
