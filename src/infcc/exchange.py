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

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .arcs import Arc, Edge, Seg, crosses, seg
from .errors import NotMaximal, Unreachable
from .laurent import ONE, LaurentPoly, VarIndex
from .triangulation import Triangulation, crossing_order


@dataclass(frozen=True)
class ReachabilityVerdict:
    reachable: bool
    region: str  # 'all' | 'e_minus' | 'e_plus' | 'above'
    fountain: Optional[int] = None


def is_reachable(T: Triangulation, d: Arc) -> ReachabilityVerdict:
    """Whether d can be reached from T by finitely many flips.

    Locally finite and polygon models reach everything.  A fountain at n
    reaches exactly the arcs on one side of n: q <= n (e_minus) or p >= n
    (e_plus); arcs straddling n cross infinitely many members and are out.
    """
    cls = T.classify()
    if cls.kind != "fountain":
        return ReachabilityVerdict(True, "all")
    n = cls.fountain
    if d.n <= n:
        return ReachabilityVerdict(True, "e_minus", n)
    if d.m >= n:
        return ReachabilityVerdict(True, "e_plus", n)
    return ReachabilityVerdict(False, "above", n)


@dataclass
class CCSession:
    """Memo table keyed by (triangulation, arc), and the variable index.

    Every polynomial of the session is built on `index`, so the exchange
    products never repack exponent keys.  Not thread-safe; use one session
    per thread (computations on separate sessions are independent and
    embarrassingly parallel).
    """

    pivot: str = "first"  # 'first' | 'last', recursion choice hook for tests
    memo: Dict[tuple, LaurentPoly] = field(default_factory=dict)
    index: VarIndex = field(default_factory=VarIndex, init=False, repr=False)


def cc(T: Triangulation, d: Seg, session: Optional[CCSession] = None) -> LaurentPoly:
    """Laurent polynomial of the object d over the triangulation T.

    Members map to their variable, boundary to 1.  Raises Unreachable for
    arcs a fountain triangulation cannot reach; that refusal is a correct
    answer, not a failure.  Raises ValueError on an Arc (m, n) with
    n - m < 2, and NotMaximal when T leaves an arc that crosses no member.
    """
    if session is None:
        session = CCSession()
    if isinstance(d, Arc) and d.n - d.m < 2:
        raise ValueError(f"({d.m},{d.n}) is not an arc: need m <= n-2")
    if isinstance(d, Edge) or T.is_boundary(d):
        return ONE
    if T.is_polygon:
        lo, hi = T.base.lo, T.base.hi
        if not (lo <= d.m and d.n <= hi):
            raise ValueError(f"{tuple(d)} lies outside the polygon {{{lo}..{hi}}}")
    verdict = is_reachable(T, d)
    if not verdict.reachable:
        raise Unreachable(d, verdict.fountain)
    return _rec(T, d, session)


def _rec(T: Triangulation, x: Seg, session: CCSession,
         cands: Optional[List[Arc]] = None) -> LaurentPoly:
    """cc of x; `cands`, when given, holds every member that crosses x."""
    if isinstance(x, Edge) or T.is_boundary(x):
        return ONE
    if T.is_member(x):
        return LaurentPoly.variable(x, session.index)
    hit = session.memo.get((T, x))
    if hit is not None:
        return hit
    crossers = T.crossers(x) if cands is None else crossing_order(x, [c for c in cands if crosses(c, x)])
    if not crossers:
        raise NotMaximal(f"non-member {tuple(x)} crosses no member: not a triangulation")
    u = crossers[0] if session.pivot == "first" else crossers[-1]
    rest = [c for c in crossers if c != u]
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
