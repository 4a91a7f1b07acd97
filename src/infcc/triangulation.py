"""Triangulations of the line model and of finite polygons.

A triangulation is a maximal collection of pairwise non-crossing arcs that
is either locally finite or has a fountain (a vertex carrying infinitely
many arcs on both sides).  Infinite collections are represented
intensionally: a built-in base family plus a finite patch of flips
(`added`/`removed` sets), so membership and crossing queries are answered by
closed-form rules on the base corrected by the patch.

Base families
-------------
* ``FountainBase(fountain)`` -- all arcs (m, f) and (f, p): two infinite
  fans at the fountain vertex f.  No frame.
* ``StaircaseBase(entry, word)`` -- one arc of every width, nested: `entry`
  on the bottom row, then the steps of a staircase word, then strictly
  alternating steps.  The nested zigzag (a, a+2), (a-1, a+2), (a-1, a+3),
  (a-2, a+3), ... is the empty-word staircase at (a, a+2); ``zigzag:a`` and
  ``nested_zigzag(a)`` are shorthands for it.  No frame, no fountain.
* ``PolygonBase(lo, hi, diagonals)`` -- diagonals of the finite polygon with
  vertices {lo..hi}; the boundary consists of the segments (i, i+1) plus the
  long side, its frame (lo, hi).  No fountain.

Every base answers the same queries, on arcs (m, n) with n - m >= 2:
``member(x)``, ``partners(v)`` (co-endpoints of the base arcs at v; the
fountain's raises NotLocallyFinite), ``members_in_window(lo, hi)``,
``spanning_candidates(d)`` (base arcs spanning d, innermost first), and
states its family: ``kind``, ``frame`` (the polygon's long side Arc(lo, hi),
or None) and ``fountain`` (the fountain vertex, or None).  `Triangulation`
applies the flip patch on top of them; its guards ``check_arc``,
``check_seg``, ``require_polygon`` and ``require_locally_finite`` read the
family facts.  The bases and `Triangulation` are immutable slotted values
whose equality, hashing and repr `arcs.Frozen` derives from the fields each
names in `_fields`; the returned records are NamedTuples.

Fans
----
``Triangulation.fan(v)`` is the ascending tuple of member co-endpoints at
the vertex v.  It is read once per vertex from ``base.partners(v)`` and a
vertex -> `added` index, and kept in a memo that takes no part in equality
or hashing.  At a fountain vertex the fan is cofinite, so ``fan`` raises
NotLocallyFinite there.  The crossing and triangle queries read fans
instead of testing candidate arcs:

* ``crossers(d)`` is empty for a member; otherwise every crossing member
  has exactly one endpoint v strictly inside d, so it is read off the fans
  of d's inner vertices as the co-endpoints outside [d.m, d.n].  An arc
  straddling the fountain raises InfiniteCrossers;
* counter-clockwise at v the sides run v + 1, the co-endpoints above v
  ascending, those below v ascending, then v - 1 (on a polygon the long
  side closes the order: hi at lo, lo at hi).  The inner triangle of a
  member t = (m, n) lies just clockwise of t at m and the outer triangle
  just counter-clockwise; read at n the two swap, and the two readings
  must agree.  So a flip costs two fan lookups whatever the width of t;
  at the fountain vertex the neighbours are found by stepping past the
  finitely many removed members.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .arcs import Arc, Edge, Frozen, Seg, arc, crosses, seg, spans
from .errors import (FlipTargetNotMember, InfiniteCrossers, InvalidArc, InvalidSpec, NotAMember,
                     NotAPolygon, NotLocallyFinite, NotMaximal, UnknownFamily, WrongFamily)

# ---------------------------------------------------------------------------
# base families


class FountainBase(Frozen):
    __slots__ = _fields = ("fountain",)

    kind = "fountain"
    frame: Optional[Arc] = None

    def __init__(self, fountain: int):
        self._set("fountain", fountain)

    def member(self, x: Arc) -> bool:
        return x.n == self.fountain or x.m == self.fountain

    def partners(self, v: int) -> Sequence[int]:
        f = self.fountain
        if v == f:
            raise NotLocallyFinite(f"the fan at the fountain {f} is infinite")
        return (f,) if abs(v - f) >= 2 else ()

    def members_in_window(self, lo: int, hi: int) -> List[Arc]:
        f = self.fountain
        if not lo <= f <= hi:
            return []
        return [Arc(m, f) for m in range(lo, f - 1)] + [Arc(f, p) for p in range(f + 2, hi + 1)]

    def spanning_candidates(self, d: Arc) -> Iterable[Arc]:
        n0 = self.fountain
        if d.n <= n0:
            start = d.m - 1 if d.n == n0 else d.m
            return (Arc(m, n0) for m in itertools.count(start, -1))
        if d.m >= n0:
            start = d.n + 1 if d.m == n0 else d.n
            return (Arc(n0, p) for p in itertools.count(start))
        return ()  # d straddles the fountain: no fan arc spans it


class StaircaseBase(Frozen):
    """Staircase family: one nested arc of every width, along a path.

    `entry` lies on the bottom row and the arc of width k + 2 is point k of
    the staircase path through `entry` and `word` (`path_point`), so the
    family is locally finite.  Trailing letters that the alternating tail
    would produce anyway are stripped, so equal families compare and hash
    equal.  Membership is closed form: a prefix count of U's for widths
    below len(word) + 2, and beyond m + n takes one of the two values in
    `_tail_sums`.  Its fields are `entry` and `word`.
    """

    __slots__ = ("entry", "word", "_ups", "_rights", "_tail_sums")
    _fields = ("entry", "word")

    kind = "locally_finite"
    frame: Optional[Arc] = None
    fountain: Optional[int] = None

    def __init__(self, entry: Arc, word: str):
        if entry.n - entry.m != 2:
            raise InvalidSpec("staircase entry must lie on the bottom row")
        if any(ch not in "UR" for ch in word):
            raise InvalidSpec(f"staircase word must use letters U/R, got {word!r}")
        while word and word[-1] == path_letter(word[:-1], len(word) - 1):
            word = word[:-1]
        ups = tuple(itertools.accumulate((ch == "U" for ch in word), initial=0))[:-1]
        self._set("entry", entry)
        self._set("word", word)
        self._set("_ups", ups)
        self._set("_rights", tuple(k - u for k, u in enumerate(ups)))
        # beyond the word each step moves m + n by one, back and forth
        w = len(word)
        self._set("_tail_sums", (sum(self.arc_at(w)), sum(self.arc_at(w + 1))))

    def arc_at(self, k: int) -> Arc:
        """The family arc of width k + 2: point k of the staircase path."""
        return Arc(*path_point(self.entry, self.word, k))

    def member(self, x: Arc) -> bool:
        k = x.n - x.m - 2
        if k < len(self._ups):
            return self._ups[k] == self.entry.m - x.m
        return x.m + x.n in self._tail_sums

    def partners(self, v: int) -> Sequence[int]:
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
        return out

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


class PolygonBase(Frozen):
    """Diagonals of the polygon on {lo..hi}; `frame` is its long side,
    derived from the fields `lo`, `hi` and `diagonals`."""

    __slots__ = ("lo", "hi", "diagonals", "frame")
    _fields = ("lo", "hi", "diagonals")

    kind = "finite_polygon"
    fountain: Optional[int] = None

    def __init__(self, lo: int, hi: int, diagonals: frozenset):
        if hi - lo < 2:
            raise InvalidSpec("polygon needs at least 3 vertices")
        for d in diagonals:
            if not (lo <= d.m and d.n <= hi and d.n - d.m >= 2):
                raise InvalidSpec(f"{tuple(d)} is not inside the polygon")
            if (d.m, d.n) == (lo, hi):
                raise InvalidSpec("the long side (lo, hi) is boundary, not a diagonal")
        for a, b in itertools.combinations(sorted(diagonals), 2):
            if crosses(a, b):
                raise InvalidSpec(f"diagonals {tuple(a)} and {tuple(b)} cross")
        if len(diagonals) != hi - lo - 2:
            raise InvalidSpec(f"a triangulation needs {hi - lo - 2} diagonals, got {len(diagonals)}")
        self._set("lo", lo)
        self._set("hi", hi)
        self._set("diagonals", diagonals)
        self._set("frame", Arc(lo, hi))

    def member(self, x: Arc) -> bool:
        return x in self.diagonals

    def partners(self, v: int) -> Sequence[int]:
        return tuple(d.n if d.m == v else d.m for d in self.diagonals if v in d)

    def members_in_window(self, lo: int, hi: int) -> List[Arc]:
        return [d for d in self.diagonals if lo <= d.m and d.n <= hi]

    def spanning_candidates(self, d: Arc) -> List[Arc]:
        return sorted(t for t in self.diagonals if spans(t, d))


class Quiver(NamedTuple):
    vertices: Tuple[Arc, ...]
    arrows: Tuple[Tuple[Arc, Arc], ...]


class Diagnosis(NamedTuple):
    crossing_pairs: Tuple[Tuple[Arc, Optional[Arc]], ...]
    missing: Tuple[Arc, ...]

    @property
    def ok(self) -> bool:
        return not self.crossing_pairs and not self.missing


class FlipResult(NamedTuple):
    new_triangulation: "Triangulation"
    replaced: Arc
    replacement: Arc
    quad: Tuple[int, int, int, int]
    middle_c: Tuple[Seg, Seg]
    middle_c_prime: Tuple[Seg, Seg]


# ---------------------------------------------------------------------------


class Triangulation(Frozen):
    """Immutable triangulation value: base family plus a finite flip patch.

    Its fields are `base`, `added` and `removed`, so flips that undo each
    other give back an equal value.  The fan memo and the added-member
    index are derived data.
    """

    __slots__ = ("base", "added", "removed", "_fans", "_added_at")
    _fields = ("base", "added", "removed")

    def __init__(self, base, added: frozenset = frozenset(), removed: frozenset = frozenset()):
        self._set("base", base)
        self._set("added", added)
        self._set("removed", removed)
        self._set("_fans", {})  # vertex -> fan
        self._set("_added_at", None)  # vertex -> co-endpoints of added members, on first use

    # -- membership --------------------------------------------------------

    def is_member(self, x: Seg) -> bool:
        if not isinstance(x, Arc) or x.n - x.m < 2 or x in self.removed:
            return False
        return x in self.added or self.base.member(x)

    def side_exists(self, a: int, b: int) -> bool:
        """True when (a, b) is a member arc or a boundary segment."""
        return b == a + 1 or (a, b) == self.base.frame or self.is_member(Arc(a, b))

    @property
    def is_polygon(self) -> bool:
        return self.base.frame is not None

    def is_boundary(self, x: Seg) -> bool:
        return isinstance(x, Edge) or x == self.base.frame

    # -- family guards -------------------------------------------------------

    def check_arc(self, d: Arc) -> None:
        """Raise InvalidArc unless d is an arc of this model: m <= n - 2,
        and on a polygon both ends on the frame."""
        m, n = d
        if m > n - 2:
            arc(m, n)  # raises InvalidArc; building an Arc costs more than the test
        frame = self.base.frame
        if frame is not None and not (frame.m <= m and n <= frame.n):
            raise InvalidArc(f"{tuple(d)} lies outside the polygon {{{frame.m}..{frame.n}}}")

    def check_seg(self, x: Seg) -> None:
        """Raise InvalidArc unless x is a segment of this model: an arc as in
        `check_arc`; on a polygon an Edge(i) needs lo <= i <= hi, Edge(hi)
        being the long side.  Every Edge is boundary of an infinite model."""
        if not isinstance(x, Edge):
            self.check_arc(x)
            return
        frame = self.base.frame
        if frame is not None and not frame.m <= x.i <= frame.n:
            raise InvalidArc(f"boundary segment Edge({x.i}) lies outside the polygon "
                             f"{{{frame.m}..{frame.n}}}")

    def require_polygon(self, what: str) -> None:
        """Raise NotAPolygon unless the model is a finite polygon."""
        if self.base.frame is None:
            raise NotAPolygon(f"{what} needs a finite polygon model, not a {self.base.kind} triangulation")

    def require_locally_finite(self, what: str) -> None:
        """Raise unless the model is an infinite locally finite one:
        NotLocallyFinite on a fountain, WrongFamily on a polygon."""
        if self.base.fountain is not None:
            raise NotLocallyFinite(f"fountain at {self.base.fountain}: "
                                   "straddling cells cross infinitely many members")
        if self.base.frame is not None:
            raise WrongFamily(f"{what} needs an infinite locally finite triangulation")

    # -- enumeration -------------------------------------------------------

    def fan(self, v: int) -> Tuple[int, ...]:
        """Co-endpoints of the members at vertex v, ascending; computed once
        per vertex.  Raises NotLocallyFinite at a fountain vertex, whose fan
        is infinite."""
        f = self._fans.get(v)
        if f is None:
            ends = set(self.base.partners(v))
            if self.added:
                ends.update(self._added_index().get(v, ()))
            if self.removed:
                ends = {w for w in ends if Arc(min(v, w), max(v, w)) not in self.removed}
            f = self._fans[v] = tuple(sorted(ends))
        return f

    def _added_index(self) -> Dict[int, List[int]]:
        """Vertex -> co-endpoints of the added members there, built on first use."""
        at = self._added_at
        if at is None:
            at = {}
            for a in self.added:
                at.setdefault(a.m, []).append(a.n)
                at.setdefault(a.n, []).append(a.m)
            self._set("_added_at", at)
        return at

    def members_in_window(self, lo: int, hi: int) -> List[Arc]:
        """Members with both endpoints inside [lo, hi]."""
        out = set(self.base.members_in_window(lo, hi)) - self.removed
        out.update(a for a in self.added if lo <= a.m and a.n <= hi)
        return sorted(out)

    def polygon_members(self) -> List[Arc]:
        self.require_polygon("polygon_members")
        return self.members_in_window(*self.base.frame)

    # -- crossing queries ----------------------------------------------------

    def crossers(self, d: Arc) -> List[Arc]:
        """Members crossing d, in crossing order along d; none for a member.

        Raises InvalidArc unless d is an arc of the model (`check_arc`), and
        InfiniteCrossers when d straddles a fountain vertex; a finite flip
        patch cannot make that set finite.
        """
        self.check_arc(d)
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
        f = self.base.fountain
        if f is not None and p < f < q:
            raise InfiniteCrossers(f)
        fans = self._fans
        out: List[Arc] = []
        for v in range(p + 1, q):
            ends = fans.get(v) or self.fan(v)
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

    def classify(self):
        """The base family, `self.base`; new code reads `base`.  Kept while
        the benchmark workloads (`perfbench/workloads.py`) still call it."""
        return self.base

    # -- triangles and flips -------------------------------------------------

    def _around(self, v: int, w: int) -> Tuple[int, int]:
        """Far ends of the sides just clockwise and just counter-clockwise
        of the member (v, w) at v.

        Counter-clockwise at v the sides run v + 1, the co-endpoints above
        v ascending, those below v ascending, v - 1; on a polygon the long
        side closes the order (hi at lo, lo at hi).  The fan at a fountain
        vertex is cofinite, so there the sides are found by stepping from w
        past the removed members.  Raises NotAMember unless (v, w) is a member.
        """
        if v == self.base.fountain:
            removed = self.removed
            gone = lambda c: abs(c - v) >= 2 and Arc(min(v, c), max(v, c)) in removed  # noqa: E731
            if abs(w - v) < 2 or gone(w):
                raise NotAMember(f"{(min(v, w), max(v, w))} is not a member")
            cw, ccw = w - 1, w + 1
            while gone(cw):
                cw -= 1
            while gone(ccw):
                ccw += 1
            return cw, ccw
        ends = self._fans.get(v) or self.fan(v)
        i = bisect_left(ends, w)
        if i == len(ends) or ends[i] != w:
            raise NotAMember(f"{(min(v, w), max(v, w))} is not a member")
        s = bisect_left(ends, v)  # ends[:s] lie below v, ends[s:] above
        frame = self.base.frame
        first = frame.m if frame is not None and v == frame.n else v + 1
        last = frame.n if frame is not None and v == frame.m else v - 1
        if w > v:
            return (ends[i - 1] if i > s else first,
                    ends[i + 1] if i + 1 < len(ends) else ends[0] if s else last)
        return (ends[i - 1] if i else ends[-1] if s < len(ends) else first,
                ends[i + 1] if i + 1 < s else last)

    def _triangles(self, t: Arc) -> Tuple[int, int]:
        """Third vertices (inner, outer) of the two triangles on member t.

        At t.m the inner triangle lies just clockwise of t and the outer one
        just counter-clockwise (`_around`); at t.n the two are swapped, and
        the two readings must agree.  Raises NotAMember unless t is a member
        and NotMaximal when the readings differ.
        """
        if not isinstance(t, Arc) or t.n - t.m < 2:
            raise NotAMember(f"{tuple(t)} is not a member")
        m, n = t
        inner, outer = self._around(m, n)
        if self._around(n, m) != (outer, inner):
            raise NotMaximal(f"the triangles on {tuple(t)} differ as read from {m} and from {n}")
        return inner, outer

    def inner_vertex(self, t: Arc) -> int:
        """Third vertex of the triangle under member t."""
        return self._triangles(t)[0]

    def outer_vertex(self, t: Arc) -> int:
        """Third vertex of the triangle on the far side of member t."""
        return self._triangles(t)[1]

    def _exchange(self, t: Arc) -> Tuple[Tuple[int, int, int, int], Arc, Tuple[Seg, Seg], Tuple[Seg, Seg]]:
        """(quad, replacement, middle_c, middle_c_prime) of the flip at
        member t (see `flip`), without building the flipped triangulation."""
        v, x = self._triangles(t)
        q0, q1, q2, q3 = quad = tuple(sorted((t.m, t.n, v, x)))
        if (t.m, t.n) == (q0, q2):
            return quad, Arc(q1, q3), (seg(q1, q2), seg(q0, q3)), (seg(q0, q1), seg(q2, q3))
        # the outer vertex lies below t.m: t is (q1, q3)
        return quad, Arc(q0, q2), (seg(q0, q1), seg(q2, q3)), (seg(q1, q2), seg(q0, q3))

    def flip(self, t: Arc) -> FlipResult:
        """Replace member t by the other diagonal of its quadrilateral.

        The middle terms are the two opposite-side pairs of the quad; the
        `middle_c` pair is the one whose sides end at t's endpoints when the
        quad is oriented by increasing vertices.
        """
        quad, replacement, middle_c, middle_cp = self._exchange(t)
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
        new = Triangulation(self.base, frozenset(added), frozenset(removed))
        return FlipResult(new, t, replacement, quad, middle_c, middle_cp)

    # -- validation and quiver ------------------------------------------------

    def validate_window(self, lo: int, hi: int) -> Diagnosis:
        """Report crossing pairs and maximality gaps visible inside [lo, hi].

        Raises InvalidSpec on a window that holds no arc, hi - lo < 2.
        """
        check_window(lo, hi)
        frame = self.base.frame
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
                if frame is not None and not spans(frame, d):
                    continue  # off the polygon, or its long side
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

        Raises InvalidSpec on a window that holds no arc, hi - lo < 2, and
        when an infinite model is given no window.
        """
        if vertices is None:
            if lo is None or hi is None:
                if self.base.frame is None:
                    raise InvalidSpec("a window is required for infinite triangulations")
                lo, hi = self.base.frame
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
        represented as Edge(hi).  Raises InvalidArc on an arc or an Edge
        off the polygon (`check_seg`).
        """
        self.require_polygon("rotate")
        self.check_seg(x)
        lo, hi = self.base.frame
        n_vertices = hi - lo + 1
        ends = (x.i, x.i + 1 if x.i < hi else lo) if isinstance(x, Edge) else (x.m, x.n)
        a, b = sorted(lo + (v - lo + k) % n_vertices for v in ends)
        if b - a == 1:
            return Edge(a)
        if (a, b) == (lo, hi):
            return Edge(hi)
        return Arc(a, b)


def check_window(lo: int, hi: int) -> None:
    """Raise InvalidSpec unless the window [lo, hi] holds an arc."""
    if hi - lo < 2:
        raise InvalidSpec(f"window [{lo},{hi}] holds no arc: need lo <= hi - 2")


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
