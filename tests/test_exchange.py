import itertools
import random
import subprocess
import sys

import pytest

from infcc.arcs import Arc, Edge, crosses, seg
from infcc.cc_direct import cc_direct
from infcc.errors import NotMaximal, Unreachable
from infcc.exchange import CCSession, cc, cc_multiset, is_reachable
from infcc.laurent import ONE, LaurentPoly
from infcc.triangulation import (
    Triangulation,
    build,
    fountain,
    nested_zigzag,
    polygon,
    random_polygon_triangulation,
    staircase,
)
from tests.oracles import flipped_pool, recursive_cc, window_arcs
from tests.subproc import src_env

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
    # the pass resolves d at its first crosser; the relation holds at the
    # last one too
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


def test_cc_equals_the_recursion():
    # every reachable arc of the pool's windows, and cc_direct on its polygons
    count = 0
    for T, (lo, hi) in flipped_pool(11):
        session, oracle = CCSession(), CCSession()
        for d in (d for d in window_arcs(lo, hi) if is_reachable(T, d).reachable):
            value = cc(T, d, session)
            assert value == recursive_cc(T, d, oracle) == cc(T, d), (T, d)
            if T.is_polygon:
                assert value == cc_direct(T, d), (T, d)
            count += 1
        assert session.memo.keys() == oracle.memo.keys(), T
    assert count == 2244


def test_memo_entries_and_warm_repeats(monkeypatch):
    # one entry per non-member end of a crosser joined to q, and d itself
    Z = nested_zigzag(0)
    for n, entries in ((10, 14), (14, 22), (16, 26)):
        session, oracle = CCSession(), CCSession()
        value = cc(Z, Arc(2, n), session)
        assert value == recursive_cc(Z, Arc(2, n), oracle)
        assert len(session.memo) == entries and session.memo.keys() == oracle.memo.keys()
    calls = []
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
    assert cc(Z, Arc(2, 16), session) is value and calls == []
    # a new arc with the same far end computes only the steps not yet memoised
    # (two products each); the others are read from the memo
    session = CCSession()
    cc(Z, Arc(4, 16), session)
    size = len(session.memo)
    calls.clear()
    assert cc(Z, Arc(2, 16), session) == value
    assert len(calls) == 2 * (len(session.memo) - size) < 2 * entries


def test_the_crossing_sequence_walks_through_triangles():
    # the identity the pass relies on: consecutive crossers c_i, c_(i+1)
    # share exactly one end s; the third side (o, w) of their triangle is a
    # member or boundary; c_(i+1) is the first crosser of (o, q); and both
    # ends of the first and of the last crosser join p and q by sides
    rng = random.Random(3)
    for T in (nested_zigzag(0), fountain(0), staircase((0, 2), "RRUUR"),
              polygon(0, 11, sorted(random_polygon_triangulation(0, 11, rng)))):
        for t in rng.sample(T.members_in_window(-5, 11), 3):
            T = T.flip(t).new_triangulation
        lo, hi = (0, 11) if T.is_polygon else (-5, 10)
        for d in window_arcs(lo, hi):
            if T.is_member(d) or T.is_boundary(d) or not is_reachable(T, d).reachable:
                continue
            p, q = d
            crossers = T.crossers(d)
            for c, after in zip(crossers, crossers[1:]):
                shared = set(c) & set(after)
                assert len(shared) == 1, (d, c, after)
                (s,) = shared
                o, w = c.m + c.n - s, after.m + after.n - s
                assert T.side_exists(min(o, w), max(o, w)), (d, c, after)
                # c_(i+1) is the crosser of (o, q) nearest o
                assert T.crossers(Arc(min(o, q), max(o, q)))[0 if o < q else -1] == after, (d, c, after)
            for v in crossers[0]:
                assert T.side_exists(min(p, v), max(p, v)), (d, v)
            for v in crossers[-1]:
                assert T.side_exists(min(v, q), max(v, q)), (d, v)


def _holed(base, removed):
    """The triangulation of the `build` spec {"base": base} with the members
    `removed` taken out."""
    T = build({"base": base})
    return Triangulation(T.base, T.added, T.removed | frozenset(Arc(*a) for a in removed))


FAN = {"kind": "polygon", "lo": 0, "hi": 5, "diagonals": [[0, 2], [0, 3], [0, 4]]}
# (base, members removed, arc, what the pass meets)
HOLES = [
    ({"kind": "polygon", "lo": 0, "hi": 4, "diagonals": [[0, 2], [0, 3]]}, [(0, 3)], (0, 3),
     "crosses no member"),
    ({"kind": "polygon", "lo": 0, "hi": 5, "diagonals": [[1, 5], [1, 4], [2, 4]]}, [(1, 4)], (0, 3),
     "share no end"),
    ({"kind": "zigzag", "anchor": 0}, [(-1, 3)], (1, 4), "share no end"),
    (FAN, [(0, 3)], (1, 5), r"side \(2, 4\)"),  # a middle triangle
    (FAN, [(0, 4)], (1, 4), r"side \(0, 4\)"),  # the last triangle
    (FAN, [(0, 2)], (1, 4), r"side \(1, 3\)"),  # the first triangle
]


@pytest.mark.parametrize("base, removed, d, match", HOLES)
def test_holes_raise_not_maximal(base, removed, d, match):
    T = _holed(base, removed)
    with pytest.raises(NotMaximal, match=match):
        cc(T, Arc(*d))
    with pytest.raises(NotMaximal):
        recursive_cc(T, Arc(*d))  # the recursion refused them too


def test_holes_raise_not_maximal_under_python_O():
    # python -O strips asserts: the hole checks must not be asserts
    code = (
        "from infcc.arcs import Arc\n"
        "from infcc.errors import NotMaximal\n"
        "from infcc.exchange import cc\n"
        "from infcc.triangulation import Triangulation, build\n"
        f"for base, removed, d, _ in {HOLES!r}:\n"
        "    T = build({'base': base})\n"
        "    T = Triangulation(T.base, T.added, T.removed | frozenset(Arc(*a) for a in removed))\n"
        "    try:\n"
        "        cc(T, Arc(*d))\n"
        "    except NotMaximal:\n"
        "        print('NotMaximal')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "NotMaximal\n" * len(HOLES)


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
