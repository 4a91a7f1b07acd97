import itertools
import random

import pytest


from infcc.arcs import Arc, Edge, crosses, seg
from infcc.errors import NotMaximal, Unreachable
from infcc.exchange import CCSession, cc, cc_multiset, is_reachable
from infcc.laurent import ONE, LaurentPoly
from infcc.triangulation import (
    Triangulation,
    crossing_order,
    fountain,
    nested_zigzag,
    polygon,
    random_polygon_triangulation,
    staircase,
)

x = LaurentPoly.variable


def test_reachability_examples():
    F = fountain(0)
    v = is_reachable(F, Arc(-3, -1))
    assert v.reachable and v.region == "e_minus"
    v = is_reachable(F, Arc(-1, 1))
    assert not v.reachable and v.region == "above" and v.fountain == 0
    assert is_reachable(nested_zigzag(0), Arc(-7, 9)).region == "all"
    # arcs ending at the fountain vertex belong to a reachable side
    assert is_reachable(F, Arc(-4, 0)).reachable
    assert is_reachable(F, Arc(0, 4)).reachable


def test_cc_fountain_example():
    p = cc(fountain(0), Arc(-3, -1))
    assert p == (x(Arc(-3, 0)) + ONE).div_exact_variable(Arc(-2, 0))


def test_cc_pentagon_examples():
    P = polygon(0, 4, [(0, 2), (0, 3)])
    assert cc(P, Arc(1, 3)) == (ONE + x(Arc(0, 3))).div_exact_variable(Arc(0, 2))
    expected = (ONE + x(Arc(0, 2)) + x(Arc(0, 3))).div_exact_variable(Arc(0, 2)).div_exact_variable(Arc(0, 3))
    assert cc(P, Arc(1, 4)) == expected


def test_cc_initial_condition():
    for T in (fountain(0), nested_zigzag(0), polygon(0, 5, [(0, 2), (2, 4), (0, 4)])):
        for t in T.members_in_window(-5, 6):
            assert cc(T, t) == x(t)


def test_cc_edges_are_units():
    assert cc(fountain(0), Edge(3)) == ONE
    P = polygon(0, 4, [(0, 2), (0, 3)])
    assert cc(P, Edge(0)) == ONE
    assert cc(P, Arc(0, 4)) == ONE  # the long side is boundary


def test_cc_unreachable():
    with pytest.raises(Unreachable) as e:
        cc(fountain(0), Arc(-2, 3))
    assert e.value.fountain == 0


def test_exchange_relation_at_the_last_crosser():
    # the recursion resolves d at its first crosser; the relation holds at
    # the last one too
    for T in (nested_zigzag(0), fountain(0), staircase((0, 2), "RRUUR", [(0, 3)])):
        session = CCSession()
        for d in [Arc(m, n) for m in range(-4, 3) for n in range(m + 2, 5)]:
            if T.is_member(d) or not is_reachable(T, d).reachable:
                continue
            u = T.crossers(d)[-1]
            q0, q1, q2, q3 = sorted((d.m, d.n, u.m, u.n))
            rhs = cc_multiset(T, [seg(q0, q1), seg(q2, q3)], session) \
                + cc_multiset(T, [seg(q1, q2), seg(q0, q3)], session)
            assert cc(T, d, session) * x(u) == rhs, (T, d)


def test_cc_multiset_examples():
    F = fountain(0)
    assert cc_multiset(F, []) == ONE
    d = Arc(-3, -1)
    assert cc_multiset(F, [d, d]) == cc(F, d) * cc(F, d)
    t = Arc(-2, 0)
    assert cc_multiset(F, [t, d]) == x(t) * cc(F, d)


def test_exchange_identity_random_pairs():
    rng = random.Random(9)
    Z = nested_zigzag(0)
    pool = [Arc(m, n) for m in range(-5, 4) for n in range(m + 2, 6)]
    pairs = [(a, b) for a, b in itertools.combinations(pool, 2) if crosses(a, b)]
    rng.shuffle(pairs)
    ses = CCSession()
    for a, b in pairs[:50]:
        q0, q1, q2, q3 = sorted((a.m, a.n, b.m, b.n))
        lhs = cc(Z, a, ses) * cc(Z, b, ses)
        rhs = cc_multiset(Z, [seg(q0, q1), seg(q2, q3)], ses) \
            + cc_multiset(Z, [seg(q1, q2), seg(q0, q3)], ses)
        assert lhs == rhs, (a, b)


def test_flip_compatibility():
    # the one-step exchange relation after a flip reproduces cc of the
    # replacement arc over the original triangulation
    rng = random.Random(4)
    for T in (fountain(0), nested_zigzag(0)):
        for _ in range(10):
            t = rng.choice(T.members_in_window(-6, 7))
            res = T.flip(t)
            ses = CCSession()
            lhs = x(t) * cc(T, res.replacement, ses)
            rhs = cc_multiset(T, res.middle_c, ses) + cc_multiset(T, res.middle_c_prime, ses)
            assert lhs == rhs, t


def test_decoupling_on_the_fountain():
    F = fountain(0)
    ses = CCSession()
    for d in [Arc(-5, -2), Arc(-6, -1), Arc(-4, 0), Arc(-7, -3)]:
        assert all(a.n <= 0 for a in cc(F, d, ses).variables()), d
    for d in [Arc(2, 5), Arc(1, 6), Arc(0, 4)]:
        assert all(a.m >= 0 for a in cc(F, d, ses).variables()), d


def test_positivity_and_denominators():
    Z = nested_zigzag(0)
    ses = CCSession()
    for d in [Arc(m, n) for m in range(-4, 3) for n in range(m + 2, 5)]:
        p = cc(Z, d, ses)
        assert all(c > 0 for c in p.coefficients())
        assert p.denominator_support() == set(Z.crossers(d))


def test_cc_after_flips():
    # members of a flipped triangulation still get their own variable
    T = nested_zigzag(0)
    res = T.flip(Arc(0, 2))
    T2 = res.new_triangulation
    assert cc(T2, res.replacement) == x(res.replacement)
    # and the old member becomes a genuine Laurent polynomial
    p = cc(T2, Arc(0, 2))
    assert p.denominator_support() == {res.replacement}


def test_crossers_computed_once_per_cc(monkeypatch):
    calls = []
    crossers = Triangulation.crossers

    def counting(self, d):
        calls.append(d)
        return crossers(self, d)

    monkeypatch.setattr(Triangulation, "crossers", counting)
    T = staircase((0, 2), "RRUUR", [(0, 3)])
    session = CCSession()
    for d in [Arc(1, 7), Arc(-3, 4), Arc(2, 6)]:
        calls.clear()
        cc(T, d, session)
        assert calls == [d]
    calls.clear()
    cc(T, Arc(1, 7), session)  # cached: no crossers at all
    assert calls == []


def test_quad_side_crossers_come_from_the_parent():
    # the identity the recursion relies on: a quad side is crossed exactly
    # by the members crossing d, other than the pivot u, that cross the side
    rng = random.Random(3)
    for T in (nested_zigzag(0), fountain(0), staircase((0, 2), "RRUUR"),
              polygon(0, 11, sorted(random_polygon_triangulation(0, 11, rng)))):
        for t in rng.sample(T.members_in_window(-5, 11), 3):
            T = T.flip(t).new_triangulation
        lo, hi = (0, 11) if T.is_polygon else (-5, 10)
        for d in [Arc(m, n) for m in range(lo, hi - 1) for n in range(m + 2, hi + 1)]:
            if T.is_member(d) or T.is_boundary(d) or not is_reachable(T, d).reachable:
                continue
            crossers = T.crossers(d)
            for u in (crossers[0], crossers[-1]):
                q0, q1, q2, q3 = sorted((d.m, d.n, u.m, u.n))
                for a, b in ((q0, q1), (q2, q3), (q1, q2), (q0, q3)):
                    s = seg(a, b)
                    if isinstance(s, Arc) and not T.is_boundary(s):
                        rest = [c for c in crossers if c != u and crosses(c, s)]
                        assert T.crossers(s) == crossing_order(s, rest), (d, u, s)


def test_non_maximal_triangulation_raises_typed_error():
    # (0, 3) removed from the pentagon leaves (0, 3) and (2, 4) crossing nothing
    P = polygon(0, 4, [(0, 2), (0, 3)])
    hole = Triangulation(P.base, frozenset(), frozenset({Arc(0, 3)}))
    with pytest.raises(NotMaximal):
        cc(hole, Arc(0, 3))
    with pytest.raises(NotMaximal):
        cc(hole, Arc(1, 4))


@pytest.mark.parametrize("bad", [Arc(0, 1), Arc(3, 0)])
def test_malformed_arc_raises_value_error(bad):
    with pytest.raises(ValueError):
        cc(nested_zigzag(0), bad)
