"""Behaviour of the infinite families after flip patches.

The base-family closed forms answer membership and crossing queries; these
tests make sure the finite patches correct them everywhere they should.
"""

import random

import pytest

from infcc.arcs import Arc, crosses, seg
from infcc.errors import InfiniteCrossers, Unreachable
from infcc.exchange import CCSession, cc, cc_multiset, is_reachable
from infcc.laurent import LaurentPoly
from infcc.reduction import cc_bar, reduce, u_of
from infcc.triangulation import fountain, nested_zigzag, polygon_diagonals

from tests.oracles import brute_crossers


def _random_flip_walk(T, rng, steps, lo=-7, hi=8):
    for _ in range(steps):
        T = T.flip(rng.choice(T.members_in_window(lo, hi))).new_triangulation
    return T


def test_crossers_on_patched_families():
    rng = random.Random(17)
    for base in (fountain(0), nested_zigzag(0)):
        T = _random_flip_walk(base, rng, 6)
        assert T.validate_window(-8, 9).ok
        for _ in range(30):
            m = rng.randint(-6, 4)
            n = rng.randint(m + 2, 7)
            try:
                got = T.crossers(Arc(m, n))
            except InfiniteCrossers:
                continue
            assert sorted(got) == brute_crossers(T, Arc(m, n), -40, 40)


def test_exchange_identity_on_patched_zigzag():
    rng = random.Random(23)
    T = _random_flip_walk(nested_zigzag(0), rng, 5)
    pool = [Arc(m, n) for m in range(-5, 4) for n in range(m + 2, 6)]
    ses = CCSession()
    checked = 0
    while checked < 30:
        a, b = rng.choice(pool), rng.choice(pool)
        if not crosses(a, b):
            continue
        q0, q1, q2, q3 = sorted((a.m, a.n, b.m, b.n))
        lhs = cc(T, a, ses) * cc(T, b, ses)
        rhs = cc_multiset(T, [seg(q0, q1), seg(q2, q3)], ses) \
            + cc_multiset(T, [seg(q1, q2), seg(q0, q3)], ses)
        assert lhs == rhs, (a, b)
        checked += 1


def test_fountain_fan_flips_both_sides():
    T = fountain(0)
    for t in (Arc(-2, 0), Arc(-5, 0), Arc(0, 2), Arc(0, 5)):
        res = T.flip(t)
        T2 = res.new_triangulation
        assert not T2.is_member(t) and T2.is_member(res.replacement)
        assert T2.validate_window(-8, 8).ok
        assert T2.base.kind == "fountain"
        # reachability is untouched by finitely many flips
        assert not is_reachable(T2, Arc(-1, 1)).reachable
        with pytest.raises(Unreachable):
            cc(T2, Arc(-2, 1))


def test_session_reuse_across_triangulations():
    # the memo is keyed by triangulation, so one session can serve a flip walk
    ses = CCSession()
    T = nested_zigzag(0)
    d = Arc(1, 4)
    before = cc(T, d, ses)
    T2 = T.flip(Arc(0, 2)).new_triangulation
    after = cc(T2, d, ses)
    assert before != after
    assert before == cc(T, d, ses)  # memoised value still correct


def test_reduce_at_flipped_in_member():
    T = fountain(0).flip(Arc(-2, 0)).new_triangulation
    t = Arc(-3, -1)  # the flipped-in arc
    assert T.is_member(t)
    U = u_of(T, t)
    red = reduce(T, t)
    assert red.rank == len(U.removed)
    ses = CCSession()
    for d in polygon_diagonals(t.m, t.n):
        assert cc_bar(T, U, d, ses) == cc(red.model, d), d


def test_tiling_on_patched_zigzag():
    from infcc.tilings import recurrence_window, tiling_window, verify_sl2

    rng = random.Random(31)
    T = _random_flip_walk(nested_zigzag(0), rng, 4, lo=-5, hi=6)
    W = tiling_window(T, -7, 7)
    assert verify_sl2(W) == []
    ones = {p for p, v in W.values.items() if v == 1}
    assert ones == {(a.m, a.n) for a in T.members_in_window(-7, 7)}
    # local propagation may not resolve every cell for patched member
    # layouts, but wherever it does it must agree with the counts
    partial = recurrence_window(T, -7, 7, strict=False)
    assert any(v > 1 for v in partial.values())  # reaches non-member cells
    assert all(W.values[p] == v for p, v in partial.items())


def test_cc_polygon_bounds_guard():
    from infcc.cc_direct import cc_direct
    from infcc.triangulation import polygon

    P = polygon(0, 4, [(0, 2), (0, 3)])
    with pytest.raises(ValueError):
        cc(P, Arc(3, 7))
    with pytest.raises(ValueError):
        cc_direct(P, Arc(-2, 1))
