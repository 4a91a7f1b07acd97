"""Triangulations of the line model and of finite polygons.

A triangulation is a maximal collection of pairwise non-crossing arcs that
is either locally finite or has a fountain (a vertex carrying infinitely
many arcs on both sides).  Infinite collections are represented
intensionally: a built-in base family plus a finite patch of flips
(`added`/`removed` sets), so membership and crossing queries are answered by
closed-form rules on the base corrected by the patch.

Base families
-------------
* ``FountainBase(n)`` -- all arcs (m, n) and (n, p): two infinite fans at n.
* ``StaircaseBase(entry, word)`` -- one arc of every width, nested: `entry`
  on the bottom row, then the steps of a staircase word, then strictly
  alternating steps.  The nested zigzag (a, a+2), (a-1, a+2), (a-1, a+3),
  (a-2, a+3), ... is the empty-word staircase at (a, a+2); ``zigzag:a`` and
  ``nested_zigzag(a)`` are shorthands for it.
* ``PolygonBase(lo, hi, diagonals)`` -- diagonals of the finite polygon with
  vertices {lo..hi}; the boundary consists of the segments (i, i+1) plus the
  long side (lo, hi).

Every base answers the same queries, on arcs (m, n) with n - m >= 2:
``member(x)``, ``partners(v)`` (co-endpoints of the base arcs at v and
whether that list is complete), ``members_in_window(lo, hi)``,
``spanning_candidates(d)`` (base arcs spanning d, innermost first) and
``kind``.  `Triangulation` applies the flip patch on top of them.

Fans
----
``Triangulation.fan(v)`` is the ascending tuple of member co-endpoints at
the vertex v, with a flag that is False only at a fountain vertex (whose
base fans are infinite, so only the added members are listed).  It is
read once per vertex from ``base.partners(v)`` and a vertex -> `added`
index, and kept in a memo that takes no part in equality or hashing.  The
crossing and triangle queries read fans instead of testing candidate arcs:

* ``crossers(d)`` is empty for a member; otherwise every crossing member
  has exactly one endpoint v strictly inside d, so it is read off the fans
  of d's inner vertices as the co-endpoints outside [d.m, d.n];
* ``inner_vertex(t)`` is the largest fan neighbour of t.m below t.n (or
  t.m + 1), which must be the smallest fan neighbour of t.n above t.m (or
  t.n - 1), so a flip costs a few fan lookups whatever the width of t.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .arcs import Arc, Edge, Seg, arc, crosses, seg, spans
from .errors import (
    FlipTargetNotMember,
    InfiniteCrossers,
    InvalidSpec,
    NotAMember,
    NotAPolygon,
    NotMaximal,
    UnknownFamily,
)

# ---------------------------------------------------------------------------
# base families


@dataclass(frozen=True)
class FountainBase:
    n: int

    kind: ClassVar[str] = "fountain"

    def member(self, x: Arc) -> bool:
        return x.n == self.n or x.m == self.n

    def partners(self, v: int) -> Tuple[Sequence[int], bool]:
        if v == self.n:
            return (), False  # the fans at the fountain are infinite
        return ((self.n,) if abs(v - self.n) >= 2 else ()), True

    def members_in_window(self, lo: int, hi: int) -> List[Arc]:
        if not lo <= self.n <= hi:
            return []
        return ([Arc(m, self.n) for m in range(lo, self.n - 1)]
                + [Arc(self.n, p) for p in range(self.n + 2, hi + 1)])

    def spanning_candidates(self, d: Arc) -> Iterable[Arc]:
        n0 = self.n
        if d.n <= n0:
            start = d.m - 1 if d.n == n0 else d.m
            return (Arc(m, n0) for m in itertools.count(start, -1))
        if d.m >= n0:
            start = d.n + 1 if d.m == n0 else d.n
            return (Arc(n0, p) for p in itertools.count(start))
        return ()  # d straddles the fountain: no fan arc spans it


@dataclass(frozen=True)
class StaircaseBase:
    """Staircase family: one nested arc of every width, along a path.

    `entry` lies on the bottom row and the arc of width k + 2 is point k of
    the staircase path through `entry` and `word` (`path_point`), so the
    family is locally finite.  Trailing letters that the alternating tail
    would produce anyway are stripped, so equal families compare and hash
    equal.  Membership is closed form: a prefix count of U's for widths
    below len(word) + 2, and beyond m + n takes one of the two values in
    `_tail_sums`.
    """

    entry: Arc
    word: str
    _ups: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _rights: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _tail_sums: Tuple[int, int] = field(init=False, repr=False, compare=False)

    kind: ClassVar[str] = "locally_finite"

    def __post_init__(self):
        if self.entry.n - self.entry.m != 2:
            raise ValueError("staircase entry must lie on the bottom row")
        if any(ch not in "UR" for ch in self.word):
            raise ValueError(f"staircase word must use letters U/R, got {self.word!r}")
        word = self.word
        while word and word[-1] == path_letter(word[:-1], len(word) - 1):
            word = word[:-1]
        ups = tuple(itertools.accumulate((ch == "U" for ch in word), initial=0))[:-1]
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "_ups", ups)
        object.__setattr__(self, "_rights", tuple(k - u for k, u in enumerate(ups)))
        # beyond the word each step moves m + n by one, back and forth
        w = len(word)
        object.__setattr__(self, "_tail_sums", (sum(self.arc_at(w)), sum(self.arc_at(w + 1))))

    def arc_at(self, k: int) -> Arc:
        """The family arc of width k + 2: point k of the staircase path."""
        return Arc(*path_point(self.entry, self.word, k))

    def member(self, x: Arc) -> bool:
        k = x.n - x.m - 2
        if k < len(self._ups):
            return self._ups[k] == self.entry.m - x.m
        return x.m + x.n in self._tail_sums

    def partners(self, v: int) -> Tuple[Sequence[int], bool]:
        w = len(self._ups)
        out = []
        for s in self._tail_sums:  # tail arcs: width >= w + 2, m + n a tail sum
            if abs(s - 2 * v) >= w + 2:
                out.append(s - v)
        if w:
            m0, n0 = self.entry
            ups, rights = self._ups, self._rights
            # word arcs (v, n): the steps k < w with u(k) == m0 - v
            c = m0 - v
            out += [n0 + k - c for k in range(bisect_left(ups, c), bisect_left(ups, c + 1))]
            # word arcs (m, v): the steps k < w with k - u(k) == v - n0
            c = v - n0
            out += [m0 - k + c for k in range(bisect_left(rights, c), bisect_left(rights, c + 1))]
        return out, True

    def members_in_window(self, lo: int, hi: int) -> List[Arc]:
        out = []
        for k in range(hi - lo - 1):
            a = self.arc_at(k)
            if a.m < lo or a.n > hi:
                break  # the arcs are nested, so every later one is outside too
            out.append(a)
        return out

    def spanning_candidates(self, d: Arc) -> Iterator[Arc]:
        return (a for a in map(self.arc_at, itertools.count()) if spans(a, d))


# ---------------------------------------------------------------------------
# the staircase path: a U/R word extends to a bi-infinite path whose steps
# 0 .. len(word) - 1 read the word and alternate strictly on both sides.
# Step k leads from point k to point k + 1: 'U' lowers the first coordinate,
# 'R' raises the second, so the width (second minus first) of point k is
# width(origin) + k.  Staircase families and frontiers are both this path.


def path_letter(word: str, k: int) -> str:
    """Step k.  The tail starts opposite to the last letter ('U' after the
    empty word) and step -1 is opposite to step 0."""
    if 0 <= k < len(word):
        return word[k]
    if k >= 0:
        first, n = ("R" if word.endswith("U") else "U"), k - len(word)
    else:
        first, n = word[:1] or "U", k
    return first if n % 2 == 0 else ("R" if first == "U" else "U")


def path_steps(word: str, lo: int, hi: int) -> str:
    """Steps lo .. hi - 1 of the path through `word`, as one string."""

    def periodic(a: int, b: int) -> str:  # outside the word: period two
        return ((path_letter(word, a) + path_letter(word, a + 1)) * (b - a))[:b - a]

    return periodic(lo, min(hi, 0)) + word[max(lo, 0):max(hi, 0)] + periodic(max(lo, len(word)), hi)


def path_point(origin: Tuple[int, int], word: str, k: int) -> Tuple[int, int]:
    """Point k of the path through `origin` (point 0) and `word`; outside
    the word n steps starting with `first` hold (n + (first == "U")) // 2 U's."""
    w = len(word)
    if k < 0:  # steps k .. -1, counted back from step -1
        u = -((-k + (path_letter(word, -1) == "U")) // 2)
    elif k <= w:
        u = word.count("U", 0, k)
    else:
        u = word.count("U") + (k - w + (path_letter(word, w) == "U")) // 2
    return (origin[0] - u, origin[1] + k - u)


def path_reach(word: str, c: str, a: int) -> int:
    """Fewest steps from point 0 on that hold `a` steps `c`; after the word
    every second step is a `c`.  The steps back from point 0 are the steps
    forward of the one-letter word path_letter(word, -1)."""
    have = word.count(c)
    if a > have:
        return len(word) + 2 * (a - have) - (path_letter(word, len(word)) == c)
    n = 0
    for _ in range(a):
        n = word.index(c, n) + 1
    return n


@dataclass(frozen=True)
class PolygonBase:
    lo: int
    hi: int
    diagonals: frozenset

    kind: ClassVar[str] = "finite_polygon"

    def __post_init__(self):
        if self.hi - self.lo < 2:
            raise ValueError("polygon needs at least 3 vertices")
        for d in self.diagonals:
            if not (self.lo <= d.m and d.n <= self.hi and d.n - d.m >= 2):
                raise ValueError(f"{tuple(d)} is not inside the polygon")
            if (d.m, d.n) == (self.lo, self.hi):
                raise ValueError("the long side (lo, hi) is boundary, not a diagonal")
        for a, b in itertools.combinations(sorted(self.diagonals), 2):
            if crosses(a, b):
                raise ValueError(f"diagonals {tuple(a)} and {tuple(b)} cross")
        if len(self.diagonals) != self.hi - self.lo - 2:
            raise ValueError(f"a triangulation needs {self.hi - self.lo - 2} diagonals, "
                             f"got {len(self.diagonals)}")

    def member(self, x: Arc) -> bool:
        return x in self.diagonals

    def partners(self, v: int) -> Tuple[Sequence[int], bool]:
        return tuple(d.n if d.m == v else d.m for d in self.diagonals if v in d), True

    def members_in_window(self, lo: int, hi: int) -> List[Arc]:
        return [d for d in self.diagonals if lo <= d.m and d.n <= hi]

    def spanning_candidates(self, d: Arc) -> List[Arc]:
        return sorted(t for t in self.diagonals if spans(t, d))


@dataclass(frozen=True)
class Classification:
    kind: str  # 'locally_finite' | 'fountain' | 'finite_polygon'
    fountain: Optional[int] = None


@dataclass(frozen=True)
class Quiver:
    vertices: Tuple[Arc, ...]
    arrows: Tuple[Tuple[Arc, Arc], ...]


@dataclass(frozen=True)
class Diagnosis:
    crossing_pairs: Tuple[Tuple[Arc, Optional[Arc]], ...]
    missing: Tuple[Arc, ...]

    @property
    def ok(self) -> bool:
        return not self.crossing_pairs and not self.missing


@dataclass(frozen=True)
class FlipResult:
    new_triangulation: "Triangulation"
    replaced: Arc
    replacement: Arc
    quad: Tuple[int, int, int, int]
    middle_c: Tuple[Seg, Seg]
    middle_c_prime: Tuple[Seg, Seg]


# ---------------------------------------------------------------------------


Fan = Tuple[Tuple[int, ...], bool]


@dataclass(frozen=True)
class Triangulation:
    """Immutable triangulation value: base family plus a finite flip patch.

    Equality and hashing read `base`, `added` and `removed` only, so flips
    that undo each other give back an equal value.  The fan memo is derived
    data and takes no part in either.
    """

    base: object
    added: frozenset = frozenset()
    removed: frozenset = frozenset()
    _fans: Dict[int, Fan] = field(default_factory=dict, init=False, repr=False, compare=False)
    _added_at: Optional[Dict[int, List[int]]] = field(default=None, init=False, repr=False, compare=False)

    # -- membership --------------------------------------------------------

    def is_member(self, x: Seg) -> bool:
        if not isinstance(x, Arc) or x.n - x.m < 2 or x in self.removed:
            return False
        return x in self.added or self.base.member(x)

    def side_exists(self, a: int, b: int) -> bool:
        """True when (a, b) is a member arc or a boundary segment."""
        if b == a + 1:
            return True
        if self.is_polygon and (a, b) == (self.base.lo, self.base.hi):
            return True
        return self.is_member(Arc(a, b))

    @property
    def is_polygon(self) -> bool:
        return self.base.kind == "finite_polygon"

    def is_boundary(self, x: Seg) -> bool:
        if isinstance(x, Edge):
            return True
        return self.is_polygon and (x.m, x.n) == (self.base.lo, self.base.hi)

    # -- enumeration -------------------------------------------------------

    def fan(self, v: int) -> Fan:
        """Co-endpoints of the members at vertex v, ascending, and a complete flag.

        The flag is False only at a fountain vertex, where the base fans are
        infinite and only the added members are listed.  Computed once per
        vertex.
        """
        f = self._fans.get(v)
        if f is None:
            base, complete = self.base.partners(v)
            ends = set(base)
            if self.added:
                ends.update(self._added_index().get(v, ()))
            if self.removed:
                ends = {w for w in ends if Arc(min(v, w), max(v, w)) not in self.removed}
            f = self._fans[v] = (tuple(sorted(ends)), complete)
        return f

    def _added_index(self) -> Dict[int, List[int]]:
        """Vertex -> co-endpoints of the added members there, built on first use."""
        at = self._added_at
        if at is None:
            at = {}
            for a in self.added:
                at.setdefault(a.m, []).append(a.n)
                at.setdefault(a.n, []).append(a.m)
            object.__setattr__(self, "_added_at", at)
        return at

    def members_in_window(self, lo: int, hi: int) -> List[Arc]:
        """Members with both endpoints inside [lo, hi]."""
        out = set(self.base.members_in_window(lo, hi)) - self.removed
        out.update(a for a in self.added if lo <= a.m and a.n <= hi)
        return sorted(out)

    def polygon_members(self) -> List[Arc]:
        self._require_polygon("polygon_members")
        return self.members_in_window(self.base.lo, self.base.hi)

    # -- crossing queries ----------------------------------------------------

    def crossers(self, d: Arc) -> List[Arc]:
        """Members crossing d, in crossing order along d; none for a member.

        Raises InfiniteCrossers when d straddles a fountain vertex; a finite
        flip patch cannot make that set finite.
        """
        if self.is_member(d):
            return []
        return self._crossing_members(d)

    def _crossing_members(self, d: Arc) -> List[Arc]:
        """Members crossing d, read off the fans of d's inner vertices.

        A crossing member has one endpoint v strictly inside d and the other
        outside [d.m, d.n].  Crossing order is v ascending; at one v, the
        members reaching left come first, nearest end first, then those
        reaching right, farthest end first.
        """
        p, q = d
        fans = self._fans
        out: List[Arc] = []
        for v in range(p + 1, q):
            ends, complete = fans.get(v) or self.fan(v)
            if not complete:
                raise InfiniteCrossers(v)
            i = bisect_left(ends, p)
            if i:
                out += [Arc(w, v) for w in reversed(ends[:i])]
            j = bisect_right(ends, q)
            if j < len(ends):
                out += [Arc(v, w) for w in reversed(ends[j:])]
        return out

    def spanning_arc(self, d: Arc) -> Optional[Arc]:
        """Some member spanning d, or None when no member does.

        An infinite base offers infinitely many spanning arcs, and only
        finitely many of them can be removed, so the scan ends.
        """
        for t in sorted(self.added):
            if spans(t, d):
                return t
        return next((t for t in self.base.spanning_candidates(d) if t not in self.removed), None)

    def classify(self) -> Classification:
        b = self.base
        return Classification(b.kind, b.n if b.kind == "fountain" else None)

    # -- triangles and flips -------------------------------------------------

    def inner_vertex(self, t: Arc) -> int:
        """Third vertex of the triangle under member t.

        Seen from t.m it is the largest fan neighbour below t.n (t.m + 1
        when there is none), seen from t.n the smallest fan neighbour above
        t.m (t.n - 1); the two must agree.  A fountain vertex's fan is not
        complete, so there only the other end is read, and both sides are
        checked.
        """
        m, n = t
        ends_m, complete_m = self.fan(m)
        ends_n, complete_n = self.fan(n)
        seen = set()
        if complete_m:
            i = bisect_left(ends_m, n)
            seen.add(ends_m[i - 1] if i and ends_m[i - 1] > m else m + 1)
        if complete_n:
            j = bisect_right(ends_n, m)
            seen.add(ends_n[j] if j < len(ends_n) and ends_n[j] < n else n - 1)
        if len(seen) != 1:
            raise NotMaximal(f"expected one inner triangle at {tuple(t)}, found {sorted(seen)}")
        v = seen.pop()
        if not (complete_m and complete_n) and not (self.side_exists(m, v) and self.side_exists(v, n)):
            raise NotMaximal(f"no inner triangle at {tuple(t)}")
        return v

    def outer_vertex(self, t: Arc) -> int:
        """Third vertex of the triangle on the far side of member t.

        Over t it is t.m's first fan neighbour past t.n, which must be t.n's
        last fan neighbour past t.n (t.n + 1 when there is none); under t
        it is t.n's last fan neighbour before t.m, which must be t.m's first
        (t.m - 1).  Exactly one of the two triangles exists.  A polygon's
        long side counts as a side at its ends.  At a fountain vertex only
        the other end is read, and both sides are checked.
        """
        a, b = t
        ends_a, complete_a = self.fan(a)
        ends_b, complete_b = self.fan(b)
        if self.is_polygon:
            lo, hi = self.base.lo, self.base.hi
            if a == lo:
                ends_a += (hi,)
            if b == hi:
                ends_b = (lo,) + ends_b
        i, j = bisect_right(ends_a, b), bisect_left(ends_b, a)
        over = (ends_a[i] if i < len(ends_a) else None,
                ends_b[-1] if ends_b and ends_b[-1] > b else b + 1)
        under = (ends_a[0] if ends_a and ends_a[0] < a else a - 1,
                 ends_b[j - 1] if j else None)
        hits = set()
        for from_a, from_b in (over, under):
            if complete_a and complete_b:
                if from_a == from_b:
                    hits.add(from_a)
                continue
            x = from_a if complete_a else from_b
            if x is not None and self.side_exists(min(a, x), max(a, x)) \
                    and self.side_exists(min(b, x), max(b, x)):
                hits.add(x)
        if len(hits) != 1:
            raise NotMaximal(f"expected one outer triangle at {tuple(t)}, found {sorted(hits)}")
        return hits.pop()

    def flip(self, t: Arc) -> FlipResult:
        """Replace member t by the other diagonal of its quadrilateral.

        The middle terms are the two opposite-side pairs of the quad; the
        `middle_c` pair is the one whose sides end at t's endpoints when the
        quad is oriented by increasing vertices.
        """
        if not self.is_member(t):
            raise NotAMember(f"{tuple(t)} is not a member")
        v = self.inner_vertex(t)
        x = self.outer_vertex(t)
        q0, q1, q2, q3 = sorted((t.m, t.n, v, x))
        if (t.m, t.n) == (q0, q2):
            replacement = Arc(q1, q3)
            middle_c = (seg(q1, q2), seg(q0, q3))
            middle_cp = (seg(q0, q1), seg(q2, q3))
        else:  # the outer vertex lies below t.m: t is (q1, q3)
            replacement = Arc(q0, q2)
            middle_c = (seg(q0, q1), seg(q2, q3))
            middle_cp = (seg(q1, q2), seg(q0, q3))
        added = set(self.added)
        removed = set(self.removed)
        if t in added:
            added.remove(t)
        else:
            removed.add(t)
        if replacement in removed:
            removed.remove(replacement)
        else:
            added.add(replacement)
        new = replace(self, added=frozenset(added), removed=frozenset(removed))
        return FlipResult(new, t, replacement, (q0, q1, q2, q3), middle_c, middle_cp)

    # -- validation and quiver ------------------------------------------------

    def validate_window(self, lo: int, hi: int) -> Diagnosis:
        """Report crossing pairs and maximality gaps visible inside [lo, hi].

        Raises ValueError on a window that holds no arc, hi - lo < 2.
        """
        check_window(lo, hi)
        crossing = set()
        for x in self.members_in_window(lo, hi):
            try:
                for y in self._crossing_members(x):
                    crossing.add((min(x, y), max(x, y)))
            except InfiniteCrossers:
                crossing.add((x, None))
        missing = []
        for u in range(lo, hi - 1):
            for v in range(u + 2, hi + 1):
                d = Arc(u, v)
                if self.is_polygon:
                    b = self.base
                    if not (b.lo <= u and v <= b.hi) or (u, v) == (b.lo, b.hi):
                        continue
                if self.is_member(d):
                    continue
                try:
                    if not self.crossers(d):
                        missing.append(d)
                except InfiniteCrossers:
                    pass
        return Diagnosis(tuple(sorted(crossing)), tuple(missing))

    def quiver(self, lo: Optional[int] = None, hi: Optional[int] = None,
               vertices: Optional[Iterable[Arc]] = None) -> Quiver:
        """Quiver on the members of a finite region: arrows from shared triangles.

        Raises ValueError on a window that holds no arc, hi - lo < 2.
        """
        if vertices is None:
            if lo is None or hi is None:
                if not self.is_polygon:
                    raise ValueError("a window is required for infinite triangulations")
                lo, hi = self.base.lo, self.base.hi
            check_window(lo, hi)
            vertices = self.members_in_window(lo, hi)
        vs = sorted(set(vertices))
        # an arrow joins two arcs with exactly one common endpoint, so only
        # the pairs at each endpoint are tried
        at: Dict[int, List[Arc]] = {}
        for a in vs:
            at.setdefault(a.m, []).append(a)
            at.setdefault(a.n, []).append(a)
        arrows = []
        for group in at.values():
            for a, b in itertools.combinations(group, 2):
                direction = arrow_between(self, a, b)
                if direction == 1:
                    arrows.append((a, b))
                elif direction == -1:
                    arrows.append((b, a))
        return Quiver(tuple(vs), tuple(sorted(arrows)))

    # -- polygon geometry ------------------------------------------------------

    def rotate(self, x: Seg, k: int) -> Seg:
        """Cyclic vertex rotation v -> v + k of the polygon model.

        Arcs map to arcs and boundary to boundary; the long side is
        represented as Edge(hi).
        """
        self._require_polygon("rotate")
        lo, hi = self.base.lo, self.base.hi
        n_vertices = hi - lo + 1
        if isinstance(x, Edge):
            ends = (x.i, x.i + 1 if x.i < hi else lo)
        else:
            ends = (x.m, x.n)
        a, b = sorted(lo + (v - lo + k) % n_vertices for v in ends)
        if b - a == 1:
            return Edge(a)
        if (a, b) == (lo, hi):
            return Edge(hi)
        return Arc(a, b)

    def _require_polygon(self, what: str) -> None:
        if not self.is_polygon:
            raise NotAPolygon(f"{what} needs a finite polygon model, not a {self.base.kind} triangulation")


def check_window(lo: int, hi: int) -> None:
    """Raise ValueError unless the window [lo, hi] holds an arc."""
    if hi - lo < 2:
        raise ValueError(f"window [{lo},{hi}] holds no arc: need lo <= hi - 2")


def crossing_order(d: Arc, arcs: Iterable[Arc]) -> List[Arc]:
    """Arcs that all cross d, sorted in the order they cross d from d.m."""
    p = d.m
    return sorted(arcs, key=lambda x: (x.n, 0, -x.m) if x.m < p else (x.m, 1, -x.n))


def arrow_between(T: Triangulation, a: Arc, b: Arc) -> Optional[int]:
    """Quiver arrow between members sharing a triangle of T.

    Returns +1 for a -> b, -1 for b -> a, None when they share no triangle.
    Within a triangle on vertices A < B < C the arrows run
    (A,B) -> (B,C) -> (A,C) -> (A,B) over the sides that are members.
    """
    if a.n == b.m:  # a = (A,B), b = (B,C)
        third, direction = (a.m, b.n), 1
    elif b.n == a.m:  # b = (A,B), a = (B,C)
        third, direction = (b.m, a.n), -1
    elif a.m == b.m and a.n != b.n:  # (A,B) and (A,C): (A,C) -> (A,B)
        third, direction = (min(a.n, b.n), max(a.n, b.n)), (1 if a.n > b.n else -1)
    elif a.n == b.n and a.m != b.m:  # (A,C) and (B,C): (B,C) -> (A,C)
        third, direction = (min(a.m, b.m), max(a.m, b.m)), (1 if a.m > b.m else -1)
    else:
        return None  # no common endpoint, or the same arc
    return direction if T.side_exists(*third) else None


# ---------------------------------------------------------------------------
# constructors


def fountain(n: int, flips: Sequence[Tuple[int, int]] = ()) -> Triangulation:
    return _apply_flips(Triangulation(FountainBase(n)), flips)

def nested_zigzag(anchor: int, flips: Sequence[Tuple[int, int]] = ()) -> Triangulation:
    """The nested zigzag at `anchor`: the empty-word staircase at (a, a+2)."""
    return staircase((anchor, anchor + 2), "", flips)

def staircase(entry: Tuple[int, int], word: str, flips: Sequence[Tuple[int, int]] = ()) -> Triangulation:
    return _apply_flips(Triangulation(StaircaseBase(Arc(*entry), word)), flips)

def polygon(lo: int, hi: int, diagonals: Iterable[Tuple[int, int]],
            flips: Sequence[Tuple[int, int]] = ()) -> Triangulation:
    diag = frozenset(arc(m, n) for m, n in diagonals)
    return _apply_flips(Triangulation(PolygonBase(lo, hi, diag)), flips)


def _apply_flips(T: Triangulation, flips: Sequence[Tuple[int, int]]) -> Triangulation:
    for i, (m, n) in enumerate(flips):
        t = Arc(m, n)
        if not T.is_member(t):
            raise FlipTargetNotMember(f"flip #{i}: {tuple(t)} is not a member")
        T = T.flip(t).new_triangulation
    return T


def build(spec: dict) -> Triangulation:
    """Build a triangulation from its JSON spec.

    ``{"base": {"kind": "fountain", "n": 0}, "flips": [[m, n], ...]}`` with
    kinds fountain / zigzag / polygon / staircase; zigzag is the empty-word
    staircase.  Raises InvalidSpec when the spec or its base is not an
    object, or a field is missing or not an integer (pair).
    """
    if not isinstance(spec, dict) or not isinstance(spec.get("base"), dict):
        raise InvalidSpec('a triangulation spec is an object {"base": {"kind": ...}, "flips": [...]}')
    base = spec["base"]
    kind = base.get("kind")
    flips = _int_pairs(spec.get("flips", []), "flips")
    if kind == "fountain":
        return fountain(_int_field(base, "n"), flips)
    if kind == "zigzag":
        return nested_zigzag(_int_field(base, "anchor"), flips)
    if kind == "polygon":
        return polygon(_int_field(base, "lo"), _int_field(base, "hi"),
                       _int_pairs(base.get("diagonals"), "diagonals"), flips)
    if kind == "staircase":
        a = _int_field(base, "anchor")
        word = base.get("word", "")
        if not isinstance(word, str):
            raise InvalidSpec(f'"word" must be a string, got {word!r}')
        return staircase((a, a + 2), word, flips)
    raise UnknownFamily(f"unknown base kind {kind!r}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_field(base: dict, name: str) -> int:
    x = base.get(name)
    if not _is_int(x):
        raise InvalidSpec(f"base field {name!r} must be an integer, got {x!r}")
    return x


def _int_pairs(items, name: str) -> List[Tuple[int, int]]:
    if not isinstance(items, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in items):
        raise InvalidSpec(f"{name!r} must be a list of integer pairs [m, n], got {items!r}")
    return [tuple(p) for p in items]


# ---------------------------------------------------------------------------
# polygon triangulation enumeration (used by the verification suites)


def polygon_diagonals(lo: int, hi: int) -> List[Arc]:
    """All diagonals of the polygon on {lo..hi} (the long side excluded)."""
    out = [Arc(m, n) for m in range(lo, hi - 1) for n in range(m + 2, hi + 1)]
    out.remove(Arc(lo, hi))
    return out


def all_polygon_triangulations(lo: int, hi: int) -> List[frozenset]:
    """Every triangulation of the polygon on {lo..hi}, as diagonal sets."""

    def rec(vs: Tuple[int, ...]) -> List[frozenset]:
        if len(vs) < 4:
            return [frozenset()]
        first, last = vs[0], vs[-1]
        out = []
        for i in range(1, len(vs) - 1):
            mid = vs[i]
            extra = set()
            if i > 1:
                extra.add(Arc(first, mid))
            if i < len(vs) - 2:
                extra.add(Arc(mid, last))
            for left in rec(vs[: i + 1]):
                for right in rec(vs[i:]):
                    out.append(frozenset(extra) | left | right)
        return out

    return rec(tuple(range(lo, hi + 1)))


def random_polygon_triangulation(lo: int, hi: int, rng) -> frozenset:
    def rec(vs: Tuple[int, ...]) -> set:
        if len(vs) < 4:
            return set()
        first, last = vs[0], vs[-1]
        i = rng.randrange(1, len(vs) - 1)
        mid = vs[i]
        out = set()
        if i > 1:
            out.add(Arc(first, mid))
        if i < len(vs) - 2:
            out.add(Arc(mid, last))
        return out | rec(vs[: i + 1]) | rec(vs[i:])

    return frozenset(rec(tuple(range(lo, hi + 1))))
