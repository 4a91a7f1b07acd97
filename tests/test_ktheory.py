import pytest

from infcc.arcs import Arc, Edge
from infcc.errors import NotAMember, SupportMeetsU
from infcc.ktheory import (
    ModClass,
    SplitK0Class,
    coindex,
    hom_vanishes_polygon,
    index,
    kappa_embed,
    theta,
    theta_simple,
)
from infcc.modules import g_module, submodule_classes
from infcc.reduction import reduce, u_of
from infcc.triangulation import (
    Triangulation,
    all_polygon_triangulations,
    fountain,
    polygon,
    polygon_diagonals,
)

PENT = polygon(0, 4, [(0, 2), (0, 3)])


def k(*items):
    return SplitK0Class({Arc(m, n): c for (m, n), c in items})


def test_theta_simple_pentagon():
    assert theta_simple(PENT, Arc(0, 2)) == k(((0, 3), 1))
    assert theta_simple(PENT, Arc(0, 3)) == k(((0, 2), -1))


def test_theta_simple_fountain():
    # quad (-3,-2,-1,0): both middle terms on the c-side are boundary
    assert theta_simple(fountain(0), Arc(-2, 0)) == k(((-3, 0), -1))


def test_theta_simple_reads_the_middle_terms_without_flipping(monkeypatch):
    """theta_simple agrees with the middle terms of `flip` and builds no flipped triangulation."""
    P = polygon(0, 7, [(0, 2), (0, 4), (2, 4), (4, 7), (4, 6)])
    expected = {}
    for t in sorted(P.members_in_window(0, 7)):
        res = P.flip(t)
        expected[t] = (SplitK0Class([(s, 1) for s in res.middle_c if not P.is_boundary(s)])
                       - SplitK0Class([(s, 1) for s in res.middle_c_prime if not P.is_boundary(s)]))
    monkeypatch.setattr(Triangulation, "flip", lambda self, t: pytest.fail("theta_simple flipped"))
    assert {t: theta_simple(P, t) for t in expected} == expected
    with pytest.raises(NotAMember):
        theta_simple(P, Arc(1, 3))


def test_theta_linearity():
    assert theta(PENT, ModClass()) == SplitK0Class()
    e = ModClass({Arc(0, 2): 1, Arc(0, 3): 1})
    assert theta(PENT, e) == k(((0, 3), 1), ((0, 2), -1))
    assert theta(PENT, ModClass({Arc(0, 2): 2})) == k(((0, 3), 2))


def test_index_examples():
    for t in (Arc(0, 2), Arc(0, 3)):
        assert index(PENT, t) == SplitK0Class({t: 1})
        # the index of the shift of a member is minus its class
        assert index(PENT, PENT.rotate(t, 1)) == SplitK0Class({t: -1})
    # (1,3) is the shifted copy of (0,2) in this pentagon
    assert index(PENT, Arc(1, 3)) == k(((0, 2), -1))
    assert index(PENT, Arc(2, 4)) == k(((0, 2), 1), ((0, 3), -1))
    assert index(PENT, Edge(1)) == SplitK0Class()


def test_coindex_examples():
    assert coindex(PENT, Edge(2)) == SplitK0Class()
    for t in (Arc(0, 2), Arc(0, 3)):
        assert coindex(PENT, PENT.rotate(t, 2)) == SplitK0Class({t: 1})
    # read off from the constant submodule term of the (1,4) value
    assert coindex(PENT, PENT.rotate(Arc(1, 4), 1)) == k(((0, 3), 1))


def test_coindex_of_the_rotation_is_minus_the_index():
    """coindex(rotate(c, 1)) = -index(c) on every arc and Edge of every
    triangulation of the 5- to 9-gon: the identity that lets cc_direct
    read its monomial off the module of c."""
    checked = 0
    for hi in range(4, 9):
        segments = polygon_diagonals(0, hi) + [Edge(i) for i in range(hi + 1)]
        for diag in all_polygon_triangulations(0, hi):
            P = polygon(0, hi, sorted(diag))
            for c in segments:
                assert coindex(P, P.rotate(c, 1)) == -index(P, c), (hi, sorted(diag), c)
                checked += 1
    assert checked == 20282


def test_theta_identity_exhaustive():
    for hi in (4, 5):
        for diag in all_polygon_triangulations(0, hi):
            P = polygon(0, hi, sorted(diag))
            for d in polygon_diagonals(0, hi):
                e = ModClass(g_module(P, d).total_class())
                sd = P.rotate(d, 1)
                assert theta(P, e) == coindex(P, sd) - index(P, sd), (sorted(diag), d)


def test_kappa_embed():
    T = polygon(0, 6, [(0, 2), (2, 4), (0, 4), (4, 6)])
    U = u_of(T, Arc(0, 4))
    e = k(((0, 2), 1), ((2, 4), -1))
    assert kappa_embed(e, U) == e
    assert kappa_embed(SplitK0Class(), U) == SplitK0Class()
    with pytest.raises(SupportMeetsU):
        kappa_embed(k(((4, 6), 1)), U)


def _reduction_instances():
    for hi in (5, 6, 7):
        for diag in all_polygon_triangulations(0, hi):
            T = polygon(0, hi, sorted(diag))
            for t in sorted(diag):
                U = u_of(T, t)
                if U.removed:
                    yield T, t, U


def test_index_coindex_respect_reduction():
    checked = 0
    for T, t, U in _reduction_instances():
        red = reduce(T, t)
        members_u = sorted(a for a in T.polygon_members() if U.contains(a))
        for c in polygon_diagonals(t.m, t.n):
            if not hom_vanishes_polygon(T, c, members_u, 1):
                continue
            sc, sc_red = T.rotate(c, 1), red.model.rotate(c, 1)
            if hom_vanishes_polygon(T, c, members_u, 0):
                assert index(T, sc) == kappa_embed(index(red.model, sc_red), U)
                checked += 1
            if hom_vanishes_polygon(T, c, members_u, 2):
                assert coindex(T, sc) == kappa_embed(coindex(red.model, sc_red), U)
                checked += 1
    assert checked > 500


def test_theta_respects_reduction():
    checked = 0
    for T, t, U in _reduction_instances():
        red = reduce(T, t)
        members_u = sorted(a for a in T.polygon_members() if U.contains(a))
        for c in polygon_diagonals(t.m, t.n):
            if red.model.is_member(c) or not hom_vanishes_polygon(T, c, members_u, 1):
                continue
            reps = [red.model.flip(u).replacement for u in red.model.crossers(c)]
            if not all(hom_vanishes_polygon(T, s, members_u, kk)
                       for s in reps for kk in (0, 1, 2)):
                continue
            for e, _ in submodule_classes(g_module(red.model, c)).entries:
                assert theta(T, ModClass(e)) == kappa_embed(theta(red.model, ModClass(e)), U)
                checked += 1
    assert checked > 200
