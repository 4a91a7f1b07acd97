"""Split Grothendieck classes, the exchange-middle-term map, and indices.

Two kinds of integer vectors indexed by arcs:

* SplitK0Class -- formal sums of member arcs (classes in the split
  Grothendieck group of the triangulation);
* ModClass -- formal sums of the simple modules attached to member arcs.

theta sends a simple class to [c] - [c'] where c, c' are the two exchange
middle terms of the corresponding flip; the sign convention is pinned by
the pentagon value theta([S_{(0,2)}]) = +[(0,3)] for the triangulation
{(0,2), (0,3)} and matches the quiver arrow orientation.

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
from typing import Dict, Iterable, Tuple, Union

from .arcs import Arc, Seg, crosses
from .errors import NotAMember, SupportMeetsU
from .modules import StringModule, g_module
from .triangulation import Triangulation


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


def theta_simple(T: Triangulation, t: Arc) -> SplitK0Class:
    """theta of the simple class at member t: [c] - [c'] from its exchange."""
    _, _, middle_c, middle_cp = T._exchange(t)
    return SplitK0Class([(s, 1) for s in middle_c if not T.is_boundary(s)]
                        + [(s, -1) for s in middle_cp if not T.is_boundary(s)])


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
    """Index of c relative to the polygon triangulation P."""
    P.require_polygon("index")
    return _index_of(P, c, g_module(P, c))


def _index_of(P: Triangulation, c: Seg, M: StringModule) -> SplitK0Class:
    """Index of c given its module M = g_module(P, c), which is zero exactly
    when c is boundary or a member."""
    if M.is_zero:
        return SplitK0Class() if P.is_boundary(c) else SplitK0Class({c: 1})
    tops = g_module(P, P.rotate(c, -1)).peaks()
    return _class_of(tops) - _class_of(M.valleys())


def coindex(P: Triangulation, c: Seg) -> SplitK0Class:
    """Coindex of c relative to P; dual to index through the mirror model."""
    P.require_polygon("coindex")
    if P.is_boundary(c):
        return SplitK0Class()
    socle = g_module(P, P.rotate(c, -1)).valleys()
    tops = g_module(P, P.rotate(c, -2)).peaks()
    return _class_of(socle) - _class_of(tops)


def kappa_embed(e: SplitK0Class, u_contains) -> SplitK0Class:
    """Include a class of the reduced model into the ambient split group.

    `u_contains` is a predicate (or USpec) naming the removed subcategory;
    the class must avoid it.
    """
    test = u_contains.contains if hasattr(u_contains, "contains") else u_contains
    for a in e.support():
        if test(a):
            raise SupportMeetsU(f"class touches the reduced-away member {tuple(a)}")
    return SplitK0Class(dict(e.coeffs))


def hom_vanishes_polygon(P: Triangulation, d: Arc, targets: Iterable[Arc], k: int) -> bool:
    """No maps from d into the k-th rotational shift of any target arc.

    Polygon counterpart of the perpendicularity test: maps d -> rotate(u, k)
    exist exactly when d crosses rotate(u, k - 1).
    """
    P.require_polygon("hom_vanishes_polygon")
    for u in targets:
        w = P.rotate(u, k - 1)
        if isinstance(w, Arc) and crosses(d, w):
            return False
    return True
