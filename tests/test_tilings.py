import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infcc import tilings
from infcc.arcs import Arc
from infcc.errors import ExactnessFailure, NonAdmissibleFrontier, NotLocallyFinite
from infcc.tilings import (
    Frontier,
    TilingWindow,
    extend_frontier,
    frontier_to_triangulation,
    q_overlap_fill,
    recurrence_window,
    tiling_window,
    verify_sl2,
    _solve_square,
)
from infcc.triangulation import fountain, nested_zigzag, path_letter, path_point, staircase

from tests.oracles import frontier_walk, plane_fill, sweep_propagate, walk_covering


def test_spot_values():
    W = tiling_window(nested_zigzag(0), -8, 8)
    assert W.get(0, 2) == 1
    assert W.get(0, 3) == 2
    assert W.get(1, 3) == 3
    assert W.get(2, 4) == 3
    assert W.get(1, 4) == 8
    assert W.get(0, 4) == 5


def test_window_is_valid_and_positive():
    W = tiling_window(nested_zigzag(0), -8, 8)
    assert verify_sl2(W) == []
    assert min(W.values.values()) >= 1
    Z = nested_zigzag(0)
    ones = {p for p, v in W.values.items() if v == 1}
    members = {(a.m, a.n) for a in Z.members_in_window(-8, 8)}
    assert ones == members


def test_fountain_is_refused():
    with pytest.raises(NotLocallyFinite):
        tiling_window(fountain(0), -4, 4)


@pytest.mark.parametrize("lo, hi", [(4, -4), (0, 1), (3, 3)])
def test_window_without_arcs_is_refused(lo, hi):
    with pytest.raises(ValueError):
        tiling_window(nested_zigzag(0), lo, hi)


def test_two_oracles_agree():
    Z = nested_zigzag(0)
    W = tiling_window(Z, -8, 8)
    assert recurrence_window(Z, -8, 8) == W.values
    S = staircase((0, 2), "RRUUR")
    W2 = tiling_window(S, -6, 9)
    assert recurrence_window(S, -6, 9) == W2.values


def test_verify_detects_perturbation():
    W = tiling_window(nested_zigzag(0), -5, 5)
    broken = dict(W.values)
    broken[(0, 3)] += 1
    assert verify_sl2(TilingWindow("half_plane", broken))


def test_all_ones_fails_edge_relation():
    # 1*1 - 1 = 0, so every edge triple (and every full square) breaks
    cells = {(i, j): 1 for i in range(-3, 2) for j in range(i + 2, 4)}
    bad = verify_sl2(TilingWindow("half_plane", cells))
    assert any(v.kind == "edge" for v in bad)
    # a window holding only the two bottom rows fails the edge relation alone
    rows = {(i, j): 1 for i in range(-3, 2) for j in (i + 2, i + 3) if j <= 4}
    bad2 = verify_sl2(TilingWindow("half_plane", rows))
    assert bad2 and all(v.kind == "edge" for v in bad2)


def test_local_propagation_step():
    vals = {(0, 0): 1, (0, 1): 1, (1, 0): 2}
    assert _solve_square(vals, 0, 0, (1, 1)) == 3


def test_frontier_validation():
    with pytest.raises(NonAdmissibleFrontier):
        Frontier("RXU")
    # a window placed fully below the half plane is rejected
    with pytest.raises(NonAdmissibleFrontier):
        frontier_to_triangulation(Frontier("UR", start=(8, 0)))


def test_alternating_frontier_is_the_zigzag():
    T = frontier_to_triangulation(Frontier("URURUR"))
    assert T == nested_zigzag(0)


def test_run_frontier_gives_a_fan():
    T = frontier_to_triangulation(Frontier("RRRR"))
    for a in [Arc(0, 2), Arc(0, 3), Arc(0, 4), Arc(0, 5), Arc(0, 6)]:
        assert T.is_member(a)
    assert T.validate_window(-4, 8).ok


def test_extension_is_unimodular_and_positive():
    W = extend_frontier(Frontier("RURU"), (-4, -4, 4, 4))
    assert verify_sl2(W) == []
    assert min(W.values.values()) >= 1
    assert len(W.values) == 81


def test_gluing_on_the_overlap():
    rng = random.Random(21)
    for _ in range(4):
        word = "".join(rng.choice("UR") for _ in range(rng.randint(1, 10)))
        F = Frontier(word)
        T = frontier_to_triangulation(F)
        span = len(word) + 4
        W = tiling_window(T, -span - 2, span + 2)
        ext = extend_frontier(F, (-span, -2, 3, span))
        ov = q_overlap_fill(F, -span - 2, span + 2)
        assert ov
        for p, v in ov.items():
            if p in W.values:
                assert W.values[p] == v, (word, p)
            if p in ext.values:
                assert ext.values[p] == v, (word, p)


def test_exactness_guard():
    with pytest.raises(ExactnessFailure):
        # (5*1 - 1) / 3 is not an integer
        _solve_square({(0, 0): 5, (0, 1): 3, (1, 1): 1}, 0, 0, (1, 0))
    with pytest.raises(ExactnessFailure):
        # (1*1 - 1) / 1 = 0 is not positive
        _solve_square({(0, 0): 1, (0, 1): 1, (1, 1): 1}, 0, 0, (1, 0))


# ---------------------------------------------------------------------------
# the frontier path against a letter-by-letter walk

WORDS = st.text(alphabet="UR", max_size=8)
# anchors -3..3, or start cells of width -6..12
ORIGINS = st.one_of(
    st.integers(-3, 3).map(lambda a: {"anchor": a}),
    st.tuples(st.integers(-4, 4), st.integers(-6, 12)).map(lambda t: {"start": (t[0], t[0] + t[1])}),
)


@settings(max_examples=80, deadline=None)
@given(WORDS, ORIGINS)
def test_path_point_and_letter_match_walk(word, spec):
    o = Frontier(word, **spec).origin
    walk = frontier_walk(o, word, -30, 30)
    for k in range(-30, 30):
        p, q = walk[k], walk[k + 1]
        assert path_point(o, word, k) == p, k
        assert path_letter(word, k) == ("U" if q[0] < p[0] else "R"), k
        assert q[1] - q[0] == p[1] - p[0] + 1


@settings(max_examples=80, deadline=None)
@given(WORDS, ORIGINS, st.lists(st.integers(-12, 12), min_size=4, max_size=4))
def test_points_covering_matches_walk(word, spec, corners):
    F = Frontier(word, **spec)
    i_lo, i_hi = sorted(corners[:2])
    j_lo, j_hi = sorted(corners[2:])
    assert list(F.points_covering(i_lo, j_lo, i_hi, j_hi)) == walk_covering(F.origin, word, i_lo, j_lo, i_hi, j_hi)


@settings(max_examples=60, deadline=None)
@given(WORDS, st.integers(-3, 3))
def test_staircase_arc_at_matches_walk(word, anchor):
    base = staircase((anchor, anchor + 2), word).base
    walk = frontier_walk((anchor, anchor + 2), word, 0, 40)
    for k in range(41):
        assert base.arc_at(k) == Arc(*walk[k]), k


@settings(max_examples=60, deadline=None)
@given(WORDS, ORIGINS)
def test_frontier_path_in_q_is_members(word, spec):
    F = Frontier(word, **spec)
    o = F.origin
    if o[1] - o[0] + len(word) < 2:  # the declared window misses Q
        with pytest.raises(NonAdmissibleFrontier):
            frontier_to_triangulation(F)
        return
    T = frontier_to_triangulation(F)
    walk = frontier_walk(o, word, -30, 30)
    in_q = [p for p in walk.values() if p[0] <= p[1] - 2]
    assert in_q and all(T.is_member(Arc(*p)) for p in in_q)
    assert T.validate_window(-20, 20).ok


def test_frontier_deep_inside_q():
    # the origin lies ten steps above the bottom row, so the entry is far
    # before the word; every path cell in Q is still a member
    F = Frontier("RRRR", start=(0, 12))
    T = frontier_to_triangulation(F)
    assert T.base.entry == Arc(5, 7)
    for j in range(12, 17):
        assert T.is_member(Arc(0, j))
    assert T.validate_window(-10, 20).ok


# ---------------------------------------------------------------------------
# the determinant walk against the sweep oracle


@settings(max_examples=80, deadline=None)
@given(WORDS, ORIGINS, st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_walk_matches_plane_oracle(word, spec, offset, size):
    # bboxes on the path and up to 30 rows and columns off it, on both sides
    F = Frontier(word, **spec)
    i, j = F.origin[0] + offset[0], F.origin[1] + offset[1]
    bbox = (i, j, i + size[0], j + size[1])
    assert extend_frontier(F, bbox).values == plane_fill(F.origin, word, bbox)


def test_walk_neither_propagates_nor_divides():
    with mock.patch.object(tilings, "_propagate", side_effect=AssertionError), \
            mock.patch.object(tilings, "_try_cell", side_effect=AssertionError), \
            mock.patch.object(tilings, "_solve_square", side_effect=AssertionError):
        W = extend_frontier(Frontier("RRUURRRUUR"), (-32, -32, 32, 32))
    assert len(W.values) == 65 * 65


# ---------------------------------------------------------------------------
# the worklist propagation against the sweep loop


def _outcome(fn, *args, **kwargs):
    try:
        out = fn(*args, **kwargs)
    except ExactnessFailure:
        return "ExactnessFailure"
    return out.values if isinstance(out, TilingWindow) else out


def _with_sweeps(fn, *args, **kwargs):
    with mock.patch.object(tilings, "_propagate", sweep_propagate):
        return _outcome(fn, *args, **kwargs)


@settings(max_examples=40, deadline=None)
@given(WORDS, ORIGINS, st.integers(3, 9))
def test_worklist_matches_sweeps_on_frontiers(word, spec, span):
    F = Frontier(word, **spec)
    assert _outcome(q_overlap_fill, F, -span, span) == _with_sweeps(q_overlap_fill, F, -span, span)


def test_worklist_matches_sweeps_on_triangulations():
    rng = random.Random(29)
    for T in (nested_zigzag(0), staircase((0, 2), "RRUURRRU"), staircase((1, 3), "UUUR")):
        for _ in range(3):
            T = T.flip(rng.choice(T.members_in_window(-6, 7))).new_triangulation
            for lo, hi in ((-9, 9), (-4, 12)):
                got = _outcome(recurrence_window, T, lo, hi, strict=False)
                assert got == _with_sweeps(recurrence_window, T, lo, hi, strict=False)


def test_worklist_tries_each_cell_at_most_nine_times():
    calls, pending = [], []
    try_cell, propagate = tilings._try_cell, tilings._propagate

    def counting(*args):
        calls.append(1)
        return try_cell(*args)

    def recording(values, targets, **kwargs):
        pending.append(len(set(targets).difference(values)))
        return propagate(values, targets, **kwargs)

    with mock.patch.object(tilings, "_try_cell", counting), \
            mock.patch.object(tilings, "_propagate", recording):
        q_overlap_fill(Frontier("RRUURRRUUR"), -32, 32)
        recurrence_window(nested_zigzag(0), -16, 16)
    # once in the first pass, and once after each of its 8 neighbours is solved
    assert len(pending) == 2
    assert 0 < len(calls) <= 9 * sum(pending)
