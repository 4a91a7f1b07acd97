import random

import pytest

from infcc.arcs import Arc, shift
from infcc.errors import InvalidModule, NotAMember, NotLocallyFinite, SupportMeetsU
from infcc.exchange import CCSession, cc
from infcc.laurent import ONE, LaurentPoly
from infcc.modules import StringModule, g_module, submodule_classes
from infcc.reduction import (
    cc_bar,
    cofinite_uspec_for,
    perp,
    pi_star,
    reduce,
    u_of,
)
from infcc.triangulation import fountain, nested_zigzag, polygon, polygon_diagonals, staircase

x = LaurentPoly.variable


def test_u_of_examples():
    T = fountain(0)
    U = u_of(T, Arc(-3, 0))
    assert U.removed == frozenset({Arc(-2, 0)})
    assert U.contains(Arc(-4, 0)) and U.contains(Arc(0, 2)) and U.contains(Arc(-3, 0))
    assert not U.contains(Arc(-2, 0))

    P = polygon(0, 4, [(0, 2), (0, 3)])
    assert u_of(P, Arc(0, 3)).removed == frozenset({Arc(0, 2)})
    # a member spanning nothing reduces to rank zero
    assert u_of(P, Arc(0, 2)).removed == frozenset()
    assert reduce(P, Arc(0, 2)).rank == 0

    with pytest.raises(NotAMember):
        u_of(T, Arc(-1, 1))


def test_reduce_examples():
    T = fountain(0)
    r1 = reduce(T, Arc(-3, 0))
    assert r1.vertices == (-3, 0) and r1.rank == 1
    assert r1.model.polygon_members() == [Arc(-2, 0)]
    r2 = reduce(T, Arc(-4, 0))
    assert r2.rank == 2
    assert r2.model.polygon_members() == [Arc(-3, 0), Arc(-2, 0)]
    P = polygon(0, 4, [(0, 2), (0, 3)])
    r3 = reduce(P, Arc(0, 3))
    assert r3.vertices == (0, 3) and r3.rank == 1
    assert r3.model.polygon_members() == [Arc(0, 2)]


def test_perp_examples():
    T = fountain(0)
    U = u_of(T, Arc(-3, 0))
    # everything spanned by t is perpendicular to the shift of U(t)
    for d in [Arc(-3, -1), Arc(-2, 0)]:
        assert perp(d, U, 1)
    # members of U are perpendicular too (the collection is non-crossing)
    assert perp(Arc(-4, 0), U, 1)
    # an arc straddling the fountain crosses members of U
    assert not perp(Arc(-1, 1), U, 1)


def test_pi_star_examples():
    T = fountain(0)
    U = u_of(T, Arc(-3, 0))
    red = reduce(T, Arc(-3, 0))
    zero = StringModule((), ())
    assert pi_star(zero, U) is zero
    simple = g_module(red.model, Arc(-3, -1))
    assert simple.walk == (Arc(-2, 0),)
    assert pi_star(simple, U).walk == (Arc(-2, 0),)

    U5 = u_of(T, Arc(-5, 0))
    red5 = reduce(T, Arc(-5, 0))
    M = g_module(red5.model, Arc(-5, -2))
    assert len(M.walk) == 2
    assert pi_star(M, U5).dirs == M.dirs

    # typed refusals, also under python -O
    with pytest.raises(NotAMember):
        pi_star(StringModule((Arc(-3, -1),), ()), U)
    with pytest.raises(SupportMeetsU):
        pi_star(StringModule((Arc(-4, 0),), ()), U)
    with pytest.raises(InvalidModule):
        pi_star(StringModule(M.walk, tuple(-d for d in M.dirs)), U5)


def test_submodule_tables_transfer():
    for T, t in [(fountain(0), Arc(-5, 0)), (nested_zigzag(0), Arc(-2, 4))]:
        U = u_of(T, t)
        red = reduce(T, t)
        for d in polygon_diagonals(t.m, t.n):
            M = g_module(red.model, d)
            Ma = pi_star(M, U)
            ta, tb = submodule_classes(M), submodule_classes(Ma)
            assert ta.size == tb.size
            assert ta.class_multiset() == tb.class_multiset()


def test_cc_bar_examples():
    T = fountain(0)
    t = Arc(-3, 0)
    U = u_of(T, t)
    got = cc_bar(T, U, Arc(-3, -1))
    assert got == LaurentPoly.const(2).div_exact_variable(Arc(-2, 0))
    assert cc_bar(T, U, Arc(-2, 0)) == x(Arc(-2, 0))  # kept variable
    assert cc_bar(T, U, t) == ONE  # t itself lies in U(t)


def test_specialisation_matches_reduced_model():
    cases = [(fountain(0), Arc(-4, 0)), (fountain(0), Arc(0, 4)),
             (nested_zigzag(0), Arc(-2, 3)), (nested_zigzag(0), Arc(-3, 4))]
    for T, t in cases:
        U = u_of(T, t)
        red = reduce(T, t)
        ses = CCSession()
        for d in polygon_diagonals(t.m, t.n):
            assert cc_bar(T, U, d, ses) == cc(red.model, d), (t, d)


def test_flip_commutes_with_reduction():
    # flipping a spanned member before or after reducing gives the same model
    for T, t in [(fountain(0), Arc(-5, 0)), (nested_zigzag(0), Arc(-3, 4))]:
        red = reduce(T, t)
        for u in red.model.polygon_members():
            flipped_then_reduced = reduce(T.flip(u).new_triangulation, t)
            reduced_then_flipped = red.model.flip(u).new_triangulation
            assert sorted(flipped_then_reduced.model.polygon_members()) == \
                sorted(reduced_then_flipped.polygon_members())


def _flipped_pool():
    """nested_zigzag(0) and two staircases, each after 0, 2, 4 and 6 random flips."""
    rng = random.Random(27)
    for base in (nested_zigzag(0), staircase((0, 2), "RRU"), staircase((1, 3), "URRUU")):
        for n_flips in (0, 2, 4, 6):
            T = base
            for _ in range(n_flips):
                T = T.flip(rng.choice(T.members_in_window(-4, 5))).new_triangulation
            yield T


def _perp_arcs(c, reps):
    """The arcs whose crossers the conditions on c and reps forbid in U."""
    return [c, shift(c, -1)] + [d for s in reps for d in (shift(s, 1), s, shift(s, -1))]


def test_cofinite_uspec_conditions():
    checked = 0
    for T in _flipped_pool():
        for c in (Arc(m, n) for m in range(-6, 6) for n in range(m + 2, 8)):
            if T.is_member(c):
                continue
            reps = [T.flip(u).replacement for u in T.crossers(c)]
            U = cofinite_uspec_for(T, c, reps)
            assert perp(c, U, 1) and perp(c, U, 2), c
            assert all(perp(s, U, k) for s in reps for k in (0, 1, 2)), c
            p = cc(T, c)
            # with such a U the ambient value never mentions U at all
            assert p.substitute_unit(U.contains) == p, c
            assert all(not U.contains(a) for a in p.variables()), c
            # U is the largest such: it keeps every member no condition forbids
            assert U.removed == {u for d in _perp_arcs(c, reps) for u in T.crossers(d)}, c
            checked += 1
    assert checked > 700
    with pytest.raises(NotLocallyFinite):
        cofinite_uspec_for(fountain(0), Arc(-3, -1))


def test_far_representative_gets_a_valid_u():
    # the removed set is read off the crossers, however far apart c and s lie
    Z, c, s = nested_zigzag(0), Arc(0, 3), Arc(1000, 1003)
    U = cofinite_uspec_for(Z, c, [s])
    assert len(U.removed) == 12
    assert U.removed == {u for d in _perp_arcs(c, [s]) for u in Z.crossers(d)}
    assert perp(c, U, 1) and perp(c, U, 2)
    assert all(perp(s, U, k) for k in (0, 1, 2))
