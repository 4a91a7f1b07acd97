"""Cluster variables by the Ptolemy exchange relations along an arc.

`cc` assigns a Laurent polynomial to every reachable arc: members get their
own variable, boundary segments get 1, and any other arc d = (p, q) is
resolved along its crossers c_1, ..., c_k, the members crossing d in the
order d meets them from p.  Consecutive crossers c_i, c_(i+1) share one
end s and bound the triangle (s, o, w) that d passes through, o the other
end of c_i and w that of c_(i+1); both ends of c_k joined to q are sides
of the last triangle, so each is a member or boundary.  Walking back from
c_k, the exchange relation of (o, q) at c_(i+1),

    cc(o, q) * x_(c_(i+1)) = x_(c_i) * cc(w, q) + x_(o, w) * cc(s, q),

gives the value at both ends of c_i joined to q, and at c_1 = (a, b) the
first triangle's sides (p, a) and (p, b) close the pass:

    cc(d) * x_(c_1) = x_(p, a) * cc(b, q) + x_(p, b) * cc(a, q).

Each step is two products by a monomial, one sum and a division by a
single variable, so everything stays inside the Laurent ring and the
result is subtraction-free (hence has positive coefficients).  The
crossers are computed once per `cc` call; a collection with a hole (a
non-member crossing no member, consecutive crossers sharing no end, a
crossed triangle lacking a side) raises NotMaximal.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .arcs import Arc, Frozen, Seg
from .errors import NotMaximal, Unreachable
from .laurent import ONE, LaurentPoly, VarIndex
from .triangulation import Triangulation


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
    arc or boundary segment of T's model, and NotMaximal when T has a hole
    where d passes (a non-member crossing no member, consecutive crossers
    sharing no end, a crossed triangle lacking a side).
    """
    if session is None:
        session = CCSession()
    T.check_seg(d)
    if T.is_boundary(d):
        return ONE
    verdict = is_reachable(T, d)
    if not verdict.reachable:
        raise Unreachable(d, verdict.fountain)
    return _pass(T, d, session)


def _pass(T: Triangulation, d: Arc, session: CCSession) -> LaurentPoly:
    """cc of a reachable arc d, walking back along its crossers (see the
    module docstring).  Each cc(o, q) on the way is read from the memo when
    there, and stored when computed."""
    index = session.index
    if T.is_member(d):
        return LaurentPoly.variable(d, index)
    memo = session.memo
    hit = memo.get((T, d))
    if hit is not None:
        return hit
    crossers = T.crossers(d)
    if not crossers:
        raise NotMaximal(f"non-member {tuple(d)} crosses no member: not a triangulation")
    p, q = d
    after = crossers[-1]
    ends = {u: _side(T, index, u, q) for u in after}  # cc(u, q) for the ends u of `after`
    for c in reversed(crossers[:-1]):
        a, b = c
        if a in ends:
            s, o = a, b
        elif b in ends:
            s, o = b, a
        else:
            raise NotMaximal(f"consecutive crossers {tuple(c)} and {tuple(after)} of {tuple(d)} "
                             "share no end: not a triangulation")
        key = (T, Arc(o, q) if o < q else Arc(q, o))
        value = memo.get(key)
        if value is None:
            w = after.m + after.n - s
            index.slot(after)  # so that the quotient stays on the session's index
            value = (LaurentPoly.variable(c, index) * ends[w]
                     + _side(T, index, o, w) * ends[s]).div_exact_variable(after)
            memo[key] = value
        ends = {s: ends[s], o: value}
        after = c
    a, b = after
    index.slot(after)
    value = (_side(T, index, p, a) * ends[b] + _side(T, index, p, b) * ends[a]).div_exact_variable(after)
    memo[(T, d)] = value
    return value


def _side(T: Triangulation, index: VarIndex, a: int, b: int) -> LaurentPoly:
    """x of the side {a, b} of a triangle that an arc crosses: the member's
    variable, or 1 for a boundary segment; NotMaximal when it is neither."""
    if a > b:
        a, b = b, a
    if b == a + 1:
        return ONE
    x = Arc(a, b)
    if T.is_member(x):
        return LaurentPoly.variable(x, index)
    if x == T.base.frame:
        return ONE
    raise NotMaximal(f"the side {(a, b)} of a crossed triangle is not a member: not a triangulation")


def cc_multiset(T: Triangulation, objects: Iterable[Seg],
                session: Optional[CCSession] = None) -> LaurentPoly:
    """Product of cc over a multiset of objects; the empty multiset gives 1."""
    if session is None:
        session = CCSession()
    out = ONE
    for d in objects:
        out = out * cc(T, d, session)
    return out
