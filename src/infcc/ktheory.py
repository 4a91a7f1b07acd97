"""Split Grothendieck classes, the exchange-middle-term map, and indices.

Two kinds of integer vectors indexed by arcs:

* SplitK0Class -- formal sums of member arcs (classes in the split
  Grothendieck group of the triangulation);
* ModClass -- formal sums of the simple modules attached to member arcs.

theta sends a simple class to [c] - [c'] where c, c' are the two exchange
middle terms of the corresponding flip; the sign convention is pinned by
the pentagon value theta([S_{(0,2)}]) = +[(0,3)] for the triangulation
{(0,2), (0,3)} and matches the quiver arrow orientation.  `theta_simple`
reads the two triangles on a member off its fans; `theta_walk` reads them
off the walk of a string module, and both hand the quad to the one flip
rule, `triangulation.exchange_rule`.

Index and coindex are computed on finite polygon models through the module
category: the index of c reads the top of the module of maps into c and the
socle of the module of c itself,

    index(c)   = sum of peaks(module(rotate(c, -1))) - sum of valleys(module(c))
    coindex(c) = sum of valleys(module(rotate(c, -1))) - sum of peaks(module(rotate(c, -2)))

where rotate is the cyclic polygon shift.  Both reduce to minimal
approximations: peaks give projective covers, valleys injective envelopes.
Substituting rotate(c, 1) gives coindex(rotate(c, 1)) = -index(c) on every
segment c, and a caller that holds module(c) builds only the module of
rotate(c, -1) for the index (`_index_of`).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, Tuple, Union

from .arcs import Arc, Seg
from .errors import NotAMember
from .modules import StringModule, g_module
from .triangulation import Triangulation, exchange_rule


class _ArcVector:
    """Finitely supported integer vector keyed by arcs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Union[Mapping[Arc, int], Iterable[Tuple[Arc, int]], None] = None):
        items = coeffs.items() if isinstance(coeffs, Mapping) else (coeffs or ())
        acc: Dict[Arc, int] = {}
        for a, c in items:
            if c:
                acc[a] = acc.get(a, 0) + c
                if not acc[a]:
                    del acc[a]
        self.coeffs = acc

    def __add__(self, other):
        acc = dict(self.coeffs)
        for a, c in other.coeffs.items():
            v = acc.get(a, 0) + c
            if v:
                acc[a] = v
            else:
                del acc[a]
        return type(self)(acc)

    def __neg__(self):
        return type(self)({a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k: int):
        return type(self)({a: k * c for a, c in self.coeffs.items()})

    def __eq__(self, other):
        return type(self) is type(other) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def items(self):
        return sorted(self.coeffs.items())

    def support(self):
        return set(self.coeffs)

    def __repr__(self):
        body = " + ".join(f"{c}[{a.m},{a.n}]" for a, c in self.items()) or "0"
        return f"{type(self).__name__}({body})"


class SplitK0Class(_ArcVector):
    pass


class ModClass(_ArcVector):
    pass


def _middle_difference(T: Triangulation, middle_c, middle_cp) -> Dict[Arc, int]:
    """[c] - [c'] as coefficients, from the sides of the two middle terms as
    vertex pairs (`exchange_rule`); boundary sides are dropped."""
    frame = T.base.frame
    out = {}
    for sign, sides in ((1, middle_c), (-1, middle_cp)):
        for a, b in sides:
            if b - a > 1 and (a, b) != frame:
                out[Arc(a, b)] = sign
    return out


def theta_simple(T: Triangulation, t: Arc) -> SplitK0Class:
    """theta of the simple class at member t: [c] - [c'] from its exchange."""
    _, _, middle_c, middle_cp = exchange_rule(t, *T._triangles(t))
    return SplitK0Class(_middle_difference(T, middle_c, middle_cp))


def theta_walk(P: Triangulation, c: Seg, M: StringModule) -> Iterator[Dict[Arc, int]]:
    """theta of the simple at each vertex of M = g_module(P, c), in walk order.

    The triangles on walk vertex t are the one it shares with the vertex
    before and the one it shares with the vertex after; each third vertex is
    the end of that neighbour not on t, and c.m and c.n at the two ends of
    the walk.  So the quad of t's flip needs no fan lookup (`exchange_rule`).
    g_module checked the triangles between walk neighbours.  At an end of
    the walk whose triangle lacks a side, theta_simple reads t's triangles
    itself, so NotMaximal carries theta_simple's message.
    """
    walk = M.walk
    last = len(walk) - 1
    for i, t in enumerate(walk):
        # a neighbour u shares one end with t; the other end of u is a third vertex
        if i:
            u = walk[i - 1]
            before = u.n if u.m in t else u.m
        else:
            before = c.m
        if i < last:
            u = walk[i + 1]
            after = u.n if u.m in t else u.m
        else:
            after = c.n
        if ((i == 0 and not _closes_triangle(P, t, before))
                or (i == last and not _closes_triangle(P, t, after))):
            yield theta_simple(P, t).coeffs
            continue
        _, _, middle_c, middle_cp = exchange_rule(t, before, after)
        yield _middle_difference(P, middle_c, middle_cp)


def _closes_triangle(T: Triangulation, t: Arc, x: int) -> bool:
    """True when the sides from x to both ends of t are present."""
    m, n = t
    return T.side_exists(min(x, m), max(x, m)) and T.side_exists(min(x, n), max(x, n))


def theta(T: Triangulation, e: Union[ModClass, Mapping[Arc, int]]) -> SplitK0Class:
    """Linear extension of theta_simple to arbitrary module classes."""
    coeffs = e.coeffs if isinstance(e, _ArcVector) else dict(e)
    out = SplitK0Class()
    for t, c in coeffs.items():
        if not T.is_member(t):
            raise NotAMember(f"{tuple(t)} is not a member")
        out = out + theta_simple(T, t).scale(c)
    return out


def _class_of(arcs: Iterable[Arc]) -> SplitK0Class:
    return SplitK0Class({a: 1 for a in arcs})


def index(P: Triangulation, c: Seg) -> SplitK0Class:
    """Index of c relative to the polygon triangulation P.  Raises
    InvalidArc unless c is a segment of P (`check_seg`)."""
    P.require_polygon("index")
    P.check_seg(c)
    return _index_of(P, c, g_module(P, c))


def _index_of(P: Triangulation, c: Seg, M: StringModule) -> SplitK0Class:
    """Index of c given its module M = g_module(P, c), which is zero exactly
    when c is boundary or a member."""
    if M.is_zero:
        return SplitK0Class() if P.is_boundary(c) else SplitK0Class({c: 1})
    tops = g_module(P, P.rotate(c, -1)).peaks()
    return _class_of(tops) - _class_of(M.valleys())


def coindex(P: Triangulation, c: Seg) -> SplitK0Class:
    """Coindex of c relative to P; dual to index through the mirror model.
    Raises InvalidArc unless c is a segment of P (`check_seg`)."""
    P.require_polygon("coindex")
    P.check_seg(c)
    if P.is_boundary(c):
        return SplitK0Class()
    socle = g_module(P, P.rotate(c, -1)).valleys()
    tops = g_module(P, P.rotate(c, -2)).peaks()
    return _class_of(socle) - _class_of(tops)

