import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infcc.arcs import Arc, Edge
from infcc.cc_direct import cc_direct
from infcc.errors import (
    FlipTargetNotMember,
    InfccError,
    InfiniteCrossers,
    InvalidArc,
    InvalidSpec,
    NotAMember,
    NotAPolygon,
    NotLocallyFinite,
    NotMaximal,
    UnknownFamily,
    WrongFamily,
)
from infcc.exchange import CCSession, cc
from infcc.ktheory import coindex, index
from infcc.laurent import ONE
from infcc.modules import count_submodules, g_module
from infcc.reduction import cofinite_uspec_for
from infcc.tilings import Frontier, extend_frontier, recurrence_window, tiling_window
from infcc.triangulation import (
    StaircaseBase,
    Triangulation,
    all_polygon_triangulations,
    arrow_between,
    build,
    fountain,
    nested_zigzag,
    polygon,
    polygon_diagonals,
    random_polygon_triangulation,
    staircase,
)

from tests.oracles import (
    brute_crossers,
    brute_fan,
    brute_noncrossing_maximal,
    cycle_arrow,
    scan_crossers,
    scan_inner_vertex,
    scan_outer_vertex,
    staircase_walk,
    window_arcs,
)
from tests.subproc import src_env


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
    d = Triangulation(P.base, frozenset(), frozenset({Arc(0, 3)})).validate_window(0, 4)
    assert set(d.missing) == {Arc(0, 3), Arc(2, 4)}
    d2 = Triangulation(P.base, frozenset({Arc(1, 3)})).validate_window(0, 4)
    assert (Arc(0, 2), Arc(1, 3)) in d2.crossing_pairs


def test_validate_against_brute_force():
    for diag in all_polygon_triangulations(0, 6):
        P = polygon(0, 6, sorted(diag))
        assert P.validate_window(0, 6).ok == brute_noncrossing_maximal(diag, 0, 6)


def test_classify_examples():
    assert fountain(0).base.kind == "fountain"
    assert fountain(0).base.fountain == 0
    assert nested_zigzag(0).base.kind == "locally_finite"
    flipped = fountain(0).flip(Arc(-2, 0)).new_triangulation
    assert flipped.base.kind == "fountain"
    assert flipped.classify() is flipped.base
    assert polygon(0, 4, [(0, 2), (0, 3)]).base.kind == "finite_polygon"


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
        expected = [a.n if a.m == v else a.m for a in walk if v in a]
        assert sorted(base.partners(v)) == sorted(expected), v
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


def _broken_pentagon():
    """The pentagon {(0,2), (0,3)} with (0,3) removed: (0,2) has no outer triangle."""
    return Triangulation(polygon(0, 4, [(0, 2), (0, 3)]).base, frozenset(), frozenset({Arc(0, 3)}))


def test_flip_on_non_maximal_raises_not_maximal():
    with pytest.raises(NotMaximal):
        _broken_pentagon().flip(Arc(0, 2))


def test_flip_on_non_maximal_under_python_O():
    # python -O strips asserts: the triangle checks must not be asserts
    code = (
        "from infcc.arcs import Arc\n"
        "from infcc.errors import NotMaximal\n"
        "from infcc.triangulation import Triangulation, polygon\n"
        "T = Triangulation(polygon(0, 4, [(0, 2), (0, 3)]).base, frozenset(), frozenset({Arc(0, 3)}))\n"
        "try:\n"
        "    T.flip(Arc(0, 2))\n"
        "except NotMaximal:\n"
        "    print('NotMaximal')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "NotMaximal\n"


@pytest.mark.parametrize("lo, hi", [(4, -4), (0, 0), (0, 1)])
def test_empty_windows_rejected(lo, hi):
    Z = nested_zigzag(0)
    with pytest.raises(ValueError, match="holds no arc"):
        Z.validate_window(lo, hi)
    with pytest.raises(ValueError, match="holds no arc"):
        Z.quiver(lo, hi)


def test_smallest_window_accepted():
    Z = nested_zigzag(0)
    assert Z.validate_window(0, 2).ok
    assert Z.quiver(0, 2).vertices == (Arc(0, 2),)


# -- fans against the vertex scans ---------------------------------------------------


def _flipped_triangulations(seed):
    """Zigzag, fountain, two staircases and a 14-gon, each after 0-6 random flips."""
    rng = random.Random(seed)
    bases = [nested_zigzag(0), fountain(0), staircase((0, 2), "RRUURRRU"), staircase((1, 3), "UUUR"),
             polygon(-6, 7, sorted(random_polygon_triangulation(-6, 7, rng)))]
    out = []
    for T in bases:
        for _ in range(rng.randint(0, 6)):
            T = T.flip(rng.choice(T.members_in_window(-6, 7))).new_triangulation
        out.append(T)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_fans_match_brute_force(seed):
    for T in _flipped_triangulations(seed):
        for v in range(-10, 11):
            if v == T.base.fountain:  # an infinite fan
                with pytest.raises(NotLocallyFinite):
                    T.fan(v)
                continue
            assert list(T.fan(v)) == brute_fan(T, v, -60, 60), (T, v)


def _assert_queries_match_the_scans(T, lo, hi):
    """crossers, inner_vertex and outer_vertex on every arc of [lo, hi]."""
    frame = T.base.frame
    for d in window_arcs(lo, hi):
        if frame is not None and not (frame.m <= d.m and d.n <= frame.n):
            with pytest.raises(InvalidArc):
                T.crossers(d)
            continue
        try:
            expected = scan_crossers(T, d)
        except InfiniteCrossers:
            with pytest.raises(InfiniteCrossers):
                T.crossers(d)
            continue
        assert T.crossers(d) == expected, (T, d)
        if T.is_member(d):
            assert [T.inner_vertex(d)] == scan_inner_vertex(T, d), (T, d)
            assert [T.outer_vertex(d)] == scan_outer_vertex(T, d, *(frame or (-60, 60))), (T, d)


@pytest.mark.parametrize("seed", range(4))
def test_crossers_and_triangles_match_the_scans(seed):
    for T in _flipped_triangulations(seed):
        _assert_queries_match_the_scans(T, -8, 9)


def test_runs_of_removed_members_at_the_fountain():
    # three removed members on each side of the fountain vertex: the triangle
    # queries there step over runs of them
    flips = [(-2, 0), (-3, 0), (-4, 0), (0, 2), (0, 3), (0, 4)]
    T, replacements = fountain(0), []
    for t in flips:
        res = T.flip(Arc(*t))
        T = res.new_triangulation
        replacements.append(res.replacement)
    assert T == fountain(0, flips) and len(T.removed) == 6
    _assert_queries_match_the_scans(T, -9, 9)
    for r in reversed(replacements):
        T = T.flip(r).new_triangulation
    assert T == fountain(0)


def test_triangle_queries_refuse_non_members():
    with pytest.raises(NotAMember):
        fountain(0).outer_vertex(Arc(-3, -1))
    with pytest.raises(NotAMember):
        polygon(0, 5, [(0, 2), (0, 3), (0, 4)]).inner_vertex(Arc(1, 4))
    for T in _flipped_triangulations(0):
        lo, hi = T.base.frame or (-8, 9)
        for d in window_arcs(lo, hi):
            if not T.is_member(d):
                for query in (T.inner_vertex, T.outer_vertex, T.flip):
                    with pytest.raises(NotAMember):
                        query(d)


@pytest.mark.parametrize("seed", range(2))
def test_arrows_match_the_triangle_cycle(seed):
    for T in _flipped_triangulations(seed):
        arcs = window_arcs(-5, 6)
        for a in arcs:
            for b in arcs:
                assert arrow_between(T, a, b) == cycle_arrow(T, a, b), (T, a, b)


def test_member_queries_do_not_scan_the_width(monkeypatch):
    Z = nested_zigzag(0)
    calls = []
    partners = StaircaseBase.partners

    def counting(self, v):
        calls.append(v)
        return partners(self, v)

    monkeypatch.setattr(StaircaseBase, "partners", counting)
    t = Z.base.arc_at(199_999)  # a member of width 200,001
    assert Z.crossers(t) == [] and calls == []
    res = Z.flip(t)
    assert sorted(set(calls)) == sorted({t.m, t.n})  # the two fans, read once each
    assert res.new_triangulation.is_member(res.replacement)
    small = Z.base.arc_at(1_999)
    assert [Z.inner_vertex(small)] == scan_inner_vertex(Z, small)


def test_fan_memo_is_not_part_of_the_value():
    Z = nested_zigzag(0)
    Z.crossers(Arc(-5, 7))
    fresh = nested_zigzag(0)
    assert Z == fresh and hash(Z) == hash(fresh) and repr(Z) == repr(fresh)


def test_flip_round_trip_gives_an_equal_triangulation():
    Z = nested_zigzag(0)
    res = Z.flip(Arc(0, 2))
    back = res.new_triangulation.flip(res.replacement).new_triangulation
    assert back.added == frozenset() and back.removed == frozenset()
    assert back == Z and hash(back) == hash(Z)
    session = CCSession()
    value = cc(Z, Arc(1, 5), session)
    size = len(session.memo)
    assert cc(back, Arc(1, 5), session) is value  # a memo hit
    assert len(session.memo) == size


# -- typed errors ------------------------------------------------------------------


def test_polygon_operations_refuse_infinite_models():
    Z = nested_zigzag(0)
    with pytest.raises(NotAPolygon):
        Z.rotate(Arc(0, 2), 1)
    with pytest.raises(NotAPolygon):
        Z.polygon_members()


def _off_frame_arcs(P):
    lo, hi = P.base.frame
    return [Arc(lo - 3, lo + 2), Arc(hi - 2, hi + 4), Arc(lo - 1, hi), Arc(lo - 2, hi + 2),
            Arc(hi + 1, hi + 5)]


OFF_FRAME_CALLS = {
    "crossers": lambda P, d: P.crossers(d),
    "g_module": g_module,
    "index": index,
    "coindex": coindex,
    "rotate": lambda P, d: P.rotate(d, 1),
    "cc": cc,
    "cc_direct": cc_direct,
}


@pytest.mark.parametrize("call", sorted(OFF_FRAME_CALLS))
@pytest.mark.parametrize("seed", range(3))
def test_arcs_off_the_frame_raise_invalid_arc(call, seed):
    rng = random.Random(seed)
    hi = rng.randint(4, 9)
    P = polygon(0, hi, sorted(random_polygon_triangulation(0, hi, rng)))
    for d in _off_frame_arcs(P):
        with pytest.raises(InvalidArc):
            OFF_FRAME_CALLS[call](P, d)


def test_polygon_arc_guard_examples():
    P = polygon(0, 5, [(0, 2), (0, 3), (0, 4)])
    with pytest.raises(InvalidArc, match=r"\(-3, 2\) lies outside the polygon \{0..5\}"):
        P.crossers(Arc(-3, 2))
    with pytest.raises(InvalidArc):
        count_submodules(g_module(P, Arc(3, 9)))
    with pytest.raises(InvalidArc):
        index(P, Arc(3, 9))
    for d in (Arc(3, 4), Arc(2, 2)):  # m > n - 2, on every family
        for T in (P, nested_zigzag(0), fountain(0)):
            with pytest.raises(InvalidArc, match="is not an arc"):
                T.crossers(d)


def test_edges_off_the_frame_raise_invalid_arc():
    P = polygon(0, 5, [(0, 2), (0, 3), (0, 4)])
    calls = (lambda e: cc(P, e), lambda e: cc_direct(P, e), lambda e: P.rotate(e, 1))
    for i in (-3, -1, 6, 10):
        for call in calls:
            with pytest.raises(InvalidArc, match=rf"Edge\({i}\) lies outside the polygon \{{0..5\}}"):
                call(Edge(i))
    # on the frame every Edge is boundary, and Edge(5) is the long side
    for i in range(0, 6):
        assert cc(P, Edge(i)) == ONE and cc_direct(P, Edge(i)) == ONE
    assert P.rotate(Edge(5), 1) == Edge(0) and P.rotate(Edge(0), -1) == Edge(5)
    # an infinite model has no frame: every Edge is boundary
    for T in (nested_zigzag(0), fountain(0)):
        assert cc(T, Edge(10)) == ONE and cc(T, Edge(-10)) == ONE


@pytest.mark.parametrize("make, message", [
    (lambda: staircase((0, 2), "UX"), "letters U/R, got 'UX'"),
    (lambda: staircase((0, 3), "U"), "bottom row"),
    (lambda: polygon(0, 4, [(0, 2), (1, 3)]), r"diagonals \(0, 2\) and \(1, 3\) cross"),
    (lambda: polygon(0, 1, []), "at least 3 vertices"),
    (lambda: polygon(0, 5, [(0, 2)]), "needs 3 diagonals, got 1"),
    (lambda: polygon(0, 4, [(0, 2), (2, 6)]), r"\(2, 6\) is not inside the polygon"),
    (lambda: polygon(0, 4, [(0, 2), (0, 4)]), "long side"),
], ids=["word", "entry", "crossing", "size", "count", "outside", "long-side"])
def test_base_constructors_raise_invalid_spec(make, message):
    with pytest.raises(InvalidSpec, match=message):
        make()


def test_window_and_bbox_errors_are_typed():
    Z = nested_zigzag(0)
    calls = (lambda: tiling_window(Z, 5, 5), lambda: Z.validate_window(5, 5), lambda: Z.quiver(5, 5),
             lambda: extend_frontier(Frontier("RU"), (3, 0, 0, 0)), Z.quiver)
    for call in calls:
        with pytest.raises(InfccError) as info:
            call()
        assert isinstance(info.value, InvalidSpec)


def test_line_model_operations_refuse_other_families():
    P = polygon(0, 5, [(0, 2), (0, 3), (0, 4)])
    for call in (lambda T: tiling_window(T, 0, 5), lambda T: recurrence_window(T, 0, 5),
                 lambda T: cofinite_uspec_for(T, Arc(1, 4))):
        with pytest.raises(WrongFamily):
            call(P)
        with pytest.raises(NotLocallyFinite, match="fountain at 0: straddling cells"):
            call(fountain(0))
    assert issubclass(NotAPolygon, WrongFamily)


def test_polygon_operations_refuse_under_python_O():
    # python -O strips asserts: every family guard must raise its typed error
    code = (
        "from infcc.arcs import Arc\n"
        "from infcc.errors import InvalidArc, NotAPolygon, WrongFamily\n"
        "from infcc.reduction import cofinite_uspec_for\n"
        "from infcc.tilings import recurrence_window\n"
        "from infcc.triangulation import nested_zigzag, polygon\n"
        "Z = nested_zigzag(0)\n"
        "P = polygon(0, 5, [(0, 2), (0, 3), (0, 4)])\n"
        "calls = (lambda: Z.rotate(Arc(0, 2), 1), Z.polygon_members,\n"
        "         lambda: P.crossers(Arc(-3, 2)), lambda: P.rotate(Arc(3, 9), 1),\n"
        "         lambda: recurrence_window(P, 0, 5), lambda: cofinite_uspec_for(P, Arc(1, 4)))\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except (InvalidArc, WrongFamily) as e:\n"
        "        print(type(e).__name__)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["NotAPolygon", "NotAPolygon", "InvalidArc", "InvalidArc",
                                   "WrongFamily", "WrongFamily"]


ZIG = {"kind": "zigzag", "anchor": 0}


@pytest.mark.parametrize("spec", [
    3,
    {"base": 3},
    {"base": None},
    {},
    {"base": {"kind": "fountain"}},
    {"base": {"kind": "fountain", "n": "0"}},
    {"base": {"kind": "fountain", "n": 1.5}},
    {"base": {"kind": "fountain", "n": True}},
    {"base": {"kind": "staircase", "word": "RU"}},
    {"base": {"kind": "staircase", "anchor": 0, "word": 5}},
    {"base": {"kind": "polygon", "lo": 0, "hi": 4}},
    {"base": {"kind": "polygon", "lo": 0, "hi": 4, "diagonals": [[0, 2], [0, "3"]]}},
    {"base": ZIG, "flips": 3},
    {"base": ZIG, "flips": [[0]]},
    {"base": ZIG, "flips": [["a", 2]]},
])
def test_build_rejects_malformed_specs(spec):
    with pytest.raises(InvalidSpec):
        build(spec)
