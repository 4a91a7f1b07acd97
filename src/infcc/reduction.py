"""Reduction of a triangulation to the finite polygon under one member.

A member t = (s, e) splits the triangulation into the finitely many members
it spans and the cofinite rest U(t).  The spanned members triangulate the
polygon on vertices {s..e}; inside that reduced model the long side (s, e)
is boundary and evaluates to 1, while in the ambient computation the same
segment is the member t and carries its variable.  Setting x_u = 1 for all
u in U(t) is exactly what bridges the two, and the specialised ambient
values coincide with the reduced polygon's own values on everything the
polygon sees.

`perp` tests Hom-vanishing into shifted copies of the removed subcategory:
maps d -> shift(u, k) exist exactly when d crosses shift(u, k - 1), so each
test is a finite crossing scan.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Tuple

from .arcs import Arc, Seg, shift
from .errors import InfiniteCrossers, InvalidModule, NotAMember, SupportMeetsU
from .exchange import CCSession, cc
from .laurent import LaurentPoly
from .modules import StringModule, walk_dirs
from .triangulation import Triangulation, polygon


class USpec(NamedTuple):
    """Cofinite subcategory of members, described by its finite complement."""

    ambient: Triangulation
    removed: frozenset  # the members NOT in U
    t: Optional[Arc] = None  # the defining spanning member, when there is one

    def contains(self, u: Arc) -> bool:
        return self.ambient.is_member(u) and u not in self.removed


class ReducedModel(NamedTuple):
    model: Triangulation  # polygon triangulation on the spanned vertices
    t: Arc
    rank: int

    @property
    def vertices(self) -> Tuple[int, int]:
        return (self.t.m, self.t.n)


def u_of(T: Triangulation, t: Arc) -> USpec:
    """U(t): all members except the finitely many spanned by t."""
    if not T.is_member(t):
        raise NotAMember(f"{tuple(t)} is not a member")
    return USpec(T, frozenset(T.members_in_window(t.m, t.n)) - {t}, t)


def reduce(T: Triangulation, t: Arc) -> ReducedModel:
    """The polygon model on {t.m .. t.n} triangulated by the spanned members."""
    U = u_of(T, t)
    model = polygon(t.m, t.n, sorted(U.removed))
    return ReducedModel(model, t, len(U.removed))


def perp(d: Arc, U: USpec, k: int) -> bool:
    """True iff no maps d -> shift(u, k) for any u in U.  Raises InvalidArc
    unless d is an arc of the model (`check_arc`)."""
    U.ambient.check_arc(d)
    try:
        crossed = U.ambient.crossers(shift(d, 1 - k))
    except InfiniteCrossers:
        return False  # cofinitely many members cross, so some lie in U
    return not any(U.contains(u) for u in crossed)


def pi_star(M: StringModule, U: USpec) -> StringModule:
    """Re-read a reduced-model string over the ambient triangulation.

    The walk and the structure directions are literally unchanged; we
    recompute the directions from the ambient triangles and check they
    agree, which is the module-theoretic content of the embedding.
    """
    if M.is_zero:
        return M
    for v in M.walk:
        if not U.ambient.is_member(v):
            raise NotAMember(f"walk vertex {tuple(v)} is not an ambient member")
        if U.contains(v):
            raise SupportMeetsU(f"walk vertex {tuple(v)} lies in U")
    if walk_dirs(U.ambient, M.walk) != M.dirs:
        raise InvalidModule("ambient structure maps must match the reduced ones")
    return M


def cc_bar(T: Triangulation, U: USpec, d: Seg,
           session: Optional[CCSession] = None) -> LaurentPoly:
    """Ambient value of d with every variable from U set to 1."""
    return cc(T, d, session).substitute_unit(U.contains)


def cofinite_uspec_for(T: Triangulation, c: Arc, simples_of: Iterable[Arc] = ()) -> USpec:
    """The largest cofinite U with c in perp(shift U) and perp(shift^2 U),
    and each given representative s in perp(U), perp(shift U) and
    perp(shift^2 U).

    `perp(d, U, k)` holds exactly when no member of U crosses
    shift(d, 1 - k), so U is every member except the crossers of c,
    shift(c, -1), shift(s, 1), s and shift(s, -1): each condition holds by
    construction, and a smaller removed set breaks one.  Infinite locally
    finite triangulations only (`require_locally_finite`), where every arc
    has finitely many crossers.  Raises InvalidArc unless c and each
    representative are arcs of the model (`check_arc`).
    """
    T.require_locally_finite("cofinite_uspec_for")
    T.check_arc(c)
    arcs = [c, shift(c, -1)]
    for s in simples_of:
        T.check_arc(s)
        arcs += [shift(s, 1), s, shift(s, -1)]
    return USpec(T, frozenset(u for d in arcs for u in T.crossers(d)))
