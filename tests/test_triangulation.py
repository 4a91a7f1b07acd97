import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infcc.arcs import Arc, Edge
from infcc.errors import FlipTargetNotMember, InfiniteCrossers, NotAMember, UnknownFamily
from infcc.exchange import CCSession, cc
from infcc.triangulation import (
    all_polygon_triangulations,
    build,
    fountain,
    nested_zigzag,
    polygon,
    polygon_diagonals,
    staircase,
)

from tests.oracles import brute_crossers, brute_noncrossing_maximal, staircase_walk, window_arcs


def test_build_fountain_members():
    T = fountain(0)
    for a in [Arc(-2, 0), Arc(-3, 0), Arc(0, 2), Arc(0, 3)]:
        assert T.is_member(a)
    assert not T.is_member(Arc(-1, 1))
    assert not T.is_member(Arc(1, 3))


def test_build_zigzag_members():
    T = nested_zigzag(0)
    for a in [Arc(0, 2), Arc(-1, 2), Arc(-1, 3), Arc(-2, 3)]:
        assert T.is_member(a)
    assert not T.is_member(Arc(0, 3))


def test_build_polygon():
    P = polygon(0, 4, [(0, 2), (0, 3)])
    assert sorted(P.polygon_members()) == [Arc(0, 2), Arc(0, 3)]
    assert P.validate_window(0, 4).ok


def test_build_from_json_spec():
    T = build({"base": {"kind": "fountain", "n": 0}, "flips": [[-2, 0]]})
    assert not T.is_member(Arc(-2, 0))
    assert T.is_member(Arc(-3, -1))
    with pytest.raises(UnknownFamily):
        build({"base": {"kind": "pentagram"}})
    with pytest.raises(FlipTargetNotMember):
        build({"base": {"kind": "zigzag", "anchor": 0}, "flips": [[5, 9]]})


def test_validate_window_examples():
    assert fountain(0).validate_window(-5, 5).ok
    # polygon() only builds triangulations, so the defects come from a patch
    P = polygon(0, 4, [(0, 2), (0, 3)])
    d = replace(P, removed=frozenset({Arc(0, 3)})).validate_window(0, 4)
    assert set(d.missing) == {Arc(0, 3), Arc(2, 4)}
    d2 = replace(P, added=frozenset({Arc(1, 3)})).validate_window(0, 4)
    assert (Arc(0, 2), Arc(1, 3)) in d2.crossing_pairs


def test_validate_against_brute_force():
    for diag in all_polygon_triangulations(0, 6):
        P = polygon(0, 6, sorted(diag))
        assert P.validate_window(0, 6).ok == brute_noncrossing_maximal(diag, 0, 6)


def test_classify_examples():
    assert fountain(0).classify().kind == "fountain"
    assert fountain(0).classify().fountain == 0
    assert nested_zigzag(0).classify().kind == "locally_finite"
    flipped = fountain(0).flip(Arc(-2, 0)).new_triangulation
    assert flipped.classify().kind == "fountain"
    assert polygon(0, 4, [(0, 2), (0, 3)]).classify().kind == "finite_polygon"


def test_crossers_examples():
    Z = nested_zigzag(0)
    assert Z.crossers(Arc(0, 3)) == [Arc(-1, 2)]
    assert Z.crossers(Arc(1, 3)) == [Arc(0, 2), Arc(-1, 2)]
    # (1,4) crosses four members, not two: forced by the tiling value r(1,4) = 8
    assert Z.crossers(Arc(1, 4)) == [Arc(0, 2), Arc(-1, 2), Arc(-1, 3), Arc(-2, 3)]
    with pytest.raises(InfiniteCrossers):
        fountain(0).crossers(Arc(-1, 1))


def test_crossers_against_brute_force():
    rng = random.Random(5)
    for T in (nested_zigzag(0), fountain(0), staircase((0, 2), "RRU")):
        for _ in range(40):
            m = rng.randint(-6, 4)
            n = rng.randint(m + 2, 7)
            d = Arc(m, n)
            try:
                got = T.crossers(d)
            except InfiniteCrossers:
                continue
            assert sorted(got) == brute_crossers(T, d, -30, 30), d


def test_crossers_walk_order():
    # order follows the crossing points along the arc
    Z = nested_zigzag(0)
    walk = Z.crossers(Arc(1, 4))
    assert walk == [Arc(0, 2), Arc(-1, 2), Arc(-1, 3), Arc(-2, 3)]


def test_spanning_arc_examples():
    F = fountain(0)
    t = F.spanning_arc(Arc(-3, -1))
    assert t is not None and t.n == 0 and t.m <= -3
    assert F.spanning_arc(Arc(-1, 1)) is None
    Z = nested_zigzag(0)
    s = Z.spanning_arc(Arc(0, 3))
    assert s is not None and Z.is_member(s)
    far = Z.spanning_arc(Arc(40, 44))
    assert far is not None and Z.is_member(far)


def test_flip_fountain_example():
    res = fountain(0).flip(Arc(-2, 0))
    assert res.replacement == Arc(-3, -1)
    assert res.quad == (-3, -2, -1, 0)
    assert set(res.middle_c) == {Edge(-3), Edge(-1)}
    assert set(res.middle_c_prime) == {Edge(-2), Arc(-3, 0)}


def test_flip_pentagon_example():
    P = polygon(0, 4, [(0, 2), (0, 3)])
    res = P.flip(Arc(0, 2))
    assert res.replacement == Arc(1, 3)
    assert res.quad == (0, 1, 2, 3)
    assert res.new_triangulation.validate_window(0, 4).ok


def test_flip_involution():
    for T in (fountain(0), nested_zigzag(0), polygon(0, 5, [(0, 2), (2, 4), (0, 4)])):
        res = T.flip(T.members_in_window(-4, 5)[0])
        back = res.new_triangulation.flip(res.replacement)
        assert back.replacement == res.replaced
        assert back.new_triangulation.added == T.added
        assert back.new_triangulation.removed == T.removed


def test_flip_not_member():
    with pytest.raises(NotAMember):
        fountain(0).flip(Arc(-1, 1))


def test_flipped_triangulation_still_valid():
    rng = random.Random(1)
    T = nested_zigzag(0)
    for _ in range(8):
        T = T.flip(rng.choice(T.members_in_window(-5, 6))).new_triangulation
        assert T.validate_window(-6, 7).ok


def test_quiver_examples():
    P = polygon(0, 4, [(0, 2), (0, 3)])
    q = P.quiver()
    assert q.vertices == (Arc(0, 2), Arc(0, 3))
    assert q.arrows == ((Arc(0, 3), Arc(0, 2)),)

    Z = nested_zigzag(0)
    fence = Z.quiver(vertices=Z.crossers(Arc(0, 4)))
    assert set(fence.arrows) == {(Arc(-1, 3), Arc(-1, 2)), (Arc(-1, 3), Arc(-2, 3))}

    sq = polygon(0, 3, [(0, 2)]).quiver()
    assert sq.vertices == (Arc(0, 2),) and sq.arrows == ()


def test_quiver_no_loops_or_two_cycles():
    for diag in all_polygon_triangulations(0, 7):
        q = polygon(0, 7, sorted(diag)).quiver()
        pairs = set(q.arrows)
        for a, b in pairs:
            assert a != b
            assert (b, a) not in pairs


def test_polygon_rotation():
    P = polygon(0, 4, [(0, 2), (0, 3)])
    assert P.rotate(Arc(1, 4), 1) == Arc(0, 2)
    assert P.rotate(Arc(0, 3), 2) == Arc(0, 2)
    assert P.rotate(Arc(0, 2), -2) == Arc(0, 3)
    # boundary maps to boundary; the long side is Edge(hi)
    assert P.rotate(Edge(0), 1) == Edge(1)
    assert P.rotate(Edge(3), 1) == Edge(4)
    assert P.rotate(Edge(4), 1) == Edge(0)
    # rotation by the polygon size is the identity
    for k in range(-5, 6):
        assert P.rotate(P.rotate(Arc(1, 3), k), -k) == Arc(1, 3)


def test_staircase_family():
    S = staircase((0, 2), "RRU")
    members = S.members_in_window(-3, 6)
    assert Arc(0, 2) in members and Arc(0, 3) in members and Arc(0, 4) in members
    assert S.validate_window(-4, 6).ok


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3), st.text(alphabet="UR", max_size=8))
def test_staircase_closed_form_matches_walk(anchor, word):
    base = staircase((anchor, anchor + 2), word).base
    walk = staircase_walk((anchor, anchor + 2), word, 200)
    members = set(walk)
    for a in window_arcs(-30, 30):
        assert base.member(a) == (a in members), a
    for v in range(-30, 31):
        partners, complete = base.partners(v)
        expected = [a.n if a.m == v else a.m for a in walk if v in a]
        assert complete and sorted(partners) == sorted(expected), v
    assert sorted(base.members_in_window(-10, 10)) == sorted(
        a for a in walk if -10 <= a.m and a.n <= 10)


def test_zigzag_is_the_empty_word_staircase():
    for a in range(-3, 4):
        Z, S = nested_zigzag(a), staircase((a, a + 2), "")
        assert Z == S and hash(Z) == hash(S)
    # the alternating tail after the empty word starts U, R, ...
    S, T = staircase((0, 2), "UR"), staircase((0, 2), "")
    assert S == T and hash(S) == hash(T)
    assert staircase((0, 2), "RRUR") == staircase((0, 2), "RR")
    assert staircase((0, 2), "RRUR") != staircase((0, 2), "R")
    # equal families share CCSession memo entries
    session = CCSession()
    cc(S, Arc(1, 5), session)
    size = len(session.memo)
    assert cc(T, Arc(1, 5), session) == cc(S, Arc(1, 5)) and len(session.memo) == size


def test_member_rejects_boundary_and_reversed_pairs():
    for T in (nested_zigzag(0), fountain(0), staircase((0, 2), "RRU"),
              polygon(0, 4, [(0, 2), (0, 3)])):
        for pair in [(0, 1), (2, 0), (3, 0), (0, 0), (-1, 0)]:
            assert not T.is_member(Arc(*pair)), (T.base, pair)


def test_catalan_counts():
    assert len(all_polygon_triangulations(0, 4)) == 5
    assert len(all_polygon_triangulations(0, 5)) == 14
    assert len(all_polygon_triangulations(0, 6)) == 42
    for diag in all_polygon_triangulations(0, 5):
        assert len(diag) == 3
        assert brute_noncrossing_maximal(diag, 0, 5)


def test_polygon_diagonals_excludes_long_side():
    ds = polygon_diagonals(0, 4)
    assert Arc(0, 4) not in ds
    assert len(ds) == 5 * 2 // 2  # pentagon has 5 diagonals


def test_polygon_accepts_exactly_the_triangulations():
    rng = random.Random(11)
    for hi in (4, 5, 6, 7):
        pool = polygon_diagonals(0, hi)
        for _ in range(150):
            diag = rng.sample(pool, rng.randint(0, min(len(pool), hi)))
            try:
                polygon(0, hi, diag)
                built = True
            except ValueError:
                built = False
            assert built == brute_noncrossing_maximal({Arc(*d) for d in diag}, 0, hi), diag
    with pytest.raises(ValueError, match="cross"):
        polygon(0, 4, [(0, 2), (1, 3)])
    with pytest.raises(ValueError, match="diagonals"):
        polygon(0, 5, [(0, 2)])
