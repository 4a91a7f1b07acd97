"""Cluster variables by the Ptolemy exchange recursion.

`cc` assigns a Laurent polynomial to every reachable arc: members get their
own variable, boundary segments get 1, and any other arc d is resolved
against a member u crossing it.  The four endpoints of d and u form a
quadrilateral whose two opposite-side pairs give the exchange relation

    cc(d) * x_u = cc(s1) * cc(s2) + cc(s3) * cc(s4),

a division by a single variable, so everything stays inside the Laurent
ring and the result is subtraction-free (hence has positive coefficients).
No member crosses u, so the members crossing a sub-segment are among those
crossing d, u excluded: the crossers are computed once per `cc` call and
the list shrinks at every level, which bounds the recursion.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional

from .arcs import Arc, Frozen, Seg, crosses, seg
from .errors import NotMaximal, Unreachable
from .laurent import ONE, LaurentPoly, VarIndex
from .triangulation import Triangulation, crossing_order


class ReachabilityVerdict(NamedTuple):
    reachable: bool
    region: str  # 'all' | 'e_minus' | 'e_plus' | 'above'
    fountain: Optional[int] = None


def is_reachable(T: Triangulation, d: Arc) -> ReachabilityVerdict:
    """Whether d can be reached from T by finitely many flips.

    Locally finite and polygon models reach everything.  A fountain at n
    reaches exactly the arcs on one side of n: q <= n (e_minus) or p >= n
    (e_plus); arcs straddling n cross infinitely many members and are out.
    Raises InvalidArc unless d is an arc of T's model (`check_arc`).
    """
    T.check_arc(d)
    n = T.base.fountain
    if n is None:
        return ReachabilityVerdict(True, "all")
    if d.n <= n:
        return ReachabilityVerdict(True, "e_minus", n)
    if d.m >= n:
        return ReachabilityVerdict(True, "e_plus", n)
    return ReachabilityVerdict(False, "above", n)


class CCSession(Frozen):
    """Memo table keyed by (triangulation, arc), and the variable index.

    Every polynomial of the session is built on `index`, so the exchange
    products never repack exponent keys.  The fields cannot be reassigned;
    the memo fills in place.  Not thread-safe; use one session per thread
    (computations on separate sessions are independent and embarrassingly
    parallel).  The repr shows `memo`; a session equals only itself and is
    unhashable.
    """

    __slots__ = ("memo", "index")
    _fields = ("memo",)
    __eq__ = object.__eq__  # identity: each session owns its memo and index
    __hash__ = None  # the memo fills in place

    def __init__(self):
        self._set("memo", {})
        self._set("index", VarIndex())


def cc(T: Triangulation, d: Seg, session: Optional[CCSession] = None) -> LaurentPoly:
    """Laurent polynomial of the object d over the triangulation T.

    Members map to their variable, boundary to 1.  Raises Unreachable for
    arcs a fountain triangulation cannot reach; that refusal is a correct
    answer, not a failure.  Raises InvalidArc (`check_seg`) unless d is an
    arc or boundary segment of T's model, and NotMaximal when T leaves an
    arc that crosses no member.
    """
    if session is None:
        session = CCSession()
    T.check_seg(d)
    if T.is_boundary(d):
        return ONE
    verdict = is_reachable(T, d)
    if not verdict.reachable:
        raise Unreachable(d, verdict.fountain)
    return _rec(T, d, session)


def _rec(T: Triangulation, x: Seg, session: CCSession,
         cands: Optional[List[Arc]] = None) -> LaurentPoly:
    """cc of x; `cands`, when given, holds every member that crosses x."""
    if T.is_boundary(x):
        return ONE
    if T.is_member(x):
        return LaurentPoly.variable(x, session.index)
    hit = session.memo.get((T, x))
    if hit is not None:
        return hit
    crossers = T.crossers(x) if cands is None else crossing_order(x, [c for c in cands if crosses(c, x)])
    if not crossers:
        raise NotMaximal(f"non-member {tuple(x)} crosses no member: not a triangulation")
    u = crossers[0]
    rest = crossers[1:]
    q0, q1, q2, q3 = sorted((x.m, x.n, u.m, u.n))
    parts = [_rec(T, seg(a, b), session, rest)
             for a, b in ((q0, q1), (q2, q3), (q1, q2), (q0, q3))]
    session.index.slot(u)  # so that the quotient stays on the session's index
    value = (parts[0] * parts[1] + parts[2] * parts[3]).div_exact_variable(u)
    session.memo[(T, x)] = value
    return value


def cc_multiset(T: Triangulation, objects: Iterable[Seg],
                session: Optional[CCSession] = None) -> LaurentPoly:
    """Product of cc over a multiset of objects; the empty multiset gives 1."""
    if session is None:
        session = CCSession()
    out = ONE
    for d in objects:
        out = out * cc(T, d, session)
    return out
