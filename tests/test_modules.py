import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infcc.arcs import Arc, Edge
from infcc.cc_direct import cc_direct
from infcc.exchange import cc
from infcc.laurent import ONE, LaurentPoly
from infcc.errors import InvalidModule, NotMaximal
from infcc.ktheory import theta_simple, theta_walk
from infcc.modules import StringModule, count_submodules, g_module, submodule_classes, walk_dirs
from infcc.triangulation import (
    Triangulation,
    all_polygon_triangulations,
    fountain,
    nested_zigzag,
    polygon,
    polygon_diagonals,
    random_polygon_triangulation,
    staircase,
)

from tests.oracles import brute_submodule_classes
from tests.subproc import src_env

PENT = polygon(0, 4, [(0, 2), (0, 3)])
x = LaurentPoly.variable


def test_g_module_examples():
    M = g_module(PENT, Arc(1, 3))
    assert M.walk == (Arc(0, 2),)
    M2 = g_module(PENT, Arc(1, 4))
    assert M2.walk == (Arc(0, 2), Arc(0, 3))
    assert len(M2.dirs) == 1
    assert g_module(PENT, Arc(0, 2)).is_zero  # members give the zero module
    assert g_module(PENT, Edge(2)).is_zero


def test_g_module_on_infinite_families():
    Z = nested_zigzag(0)
    M = g_module(Z, Arc(1, 4))
    assert M.walk == (Arc(0, 2), Arc(-1, 2), Arc(-1, 3), Arc(-2, 3))
    # fence shape: peaks at the outer vertices of the structure maps
    assert count_submodules(M) == 8


def test_submodule_classes_examples():
    zero = submodule_classes(g_module(PENT, Arc(0, 2)))
    assert zero.size == 1 and zero.entries[0] == ({}, 1)

    two = submodule_classes(g_module(PENT, Arc(1, 4)))
    assert two.size == 3
    assert all(chi == 1 for _, chi in two.entries)

    fence = StringModule((Arc(0, 2), Arc(0, 4), Arc(2, 4)), (+1, -1))
    assert submodule_classes(fence).size == 5


def _multiset(classes):
    return sorted(tuple(sorted(e.items())) for e in classes)


def _check_against_enumeration(M):
    brute = brute_submodule_classes(M.walk, M.dirs)
    table = submodule_classes(M)
    assert count_submodules(M) == table.size == len(brute)
    assert table.class_multiset() == _multiset(brute)
    assert all(chi == 1 for _, chi in table.entries)


def test_count_matches_enumeration():
    rng = random.Random(13)
    verts = [Arc(i, i + 2) for i in range(12)]
    for _ in range(60):
        k = rng.randint(0, 9)
        dirs = tuple(rng.choice((1, -1)) for _ in range(max(k - 1, 0)))
        _check_against_enumeration(StringModule(tuple(verts[:k]), dirs))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from((1, -1)), max_size=11), st.booleans())
def test_transfer_matches_enumeration_on_random_strings(dirs, empty):
    walk = () if empty and not dirs else tuple(Arc(0, n) for n in range(2, len(dirs) + 3))
    _check_against_enumeration(StringModule(walk, tuple(dirs) if walk else ()))


def test_cc_direct_examples():
    assert cc_direct(PENT, Arc(0, 2)) == x(Arc(0, 2))
    assert cc_direct(PENT, Arc(0, 3)) == x(Arc(0, 3))
    assert cc_direct(PENT, Arc(1, 3)) == (ONE + x(Arc(0, 3))).div_exact_variable(Arc(0, 2))
    expected = (ONE + x(Arc(0, 2)) + x(Arc(0, 3)))
    expected = expected.div_exact_variable(Arc(0, 2)).div_exact_variable(Arc(0, 3))
    assert cc_direct(PENT, Arc(1, 4)) == expected


def test_cc_direct_builds_the_module_of_c_and_of_its_rotation_only(monkeypatch):
    """The index monomial reuses the module of c: two modules for a
    non-member diagonal, the zero module alone for a member."""
    built = []

    def spy(T, c):
        built.append(c)
        return g_module(T, c)

    for name in ("infcc.modules", "infcc.ktheory", "infcc.cc_direct"):
        monkeypatch.setattr(sys.modules[name], "g_module", spy)
    P = polygon(0, 7, [(0, 2), (0, 4), (2, 4), (4, 7), (4, 6)])
    for c in polygon_diagonals(0, 7):
        built.clear()
        value = cc_direct(P, c)
        assert value == cc(P, c), c
        expected = [c] if P.is_member(c) else [c, P.rotate(c, -1)]
        assert sorted(built) == sorted(expected), c


def test_cc_direct_matches_exchange_exhaustively():
    for hi in (4, 5):
        for diag in all_polygon_triangulations(0, hi):
            P = polygon(0, hi, sorted(diag))
            for c in polygon_diagonals(0, hi):
                assert cc_direct(P, c) == cc(P, c), (sorted(diag), c)


def test_cc_direct_matches_exchange_random_larger():
    rng = random.Random(2)
    for _ in range(8):
        hi = rng.randint(6, 8)
        P = polygon(0, hi, sorted(random_polygon_triangulation(0, hi, rng)))
        for c in polygon_diagonals(0, hi):
            assert cc_direct(P, c) == cc(P, c), c


def test_cc_direct_matches_exchange_on_larger_polygons():
    rng = random.Random(10)
    for hi in (9, 10, 11, 12):
        P = polygon(0, hi, sorted(random_polygon_triangulation(0, hi, rng)))
        for c in polygon_diagonals(0, hi):
            assert cc_direct(P, c) == cc(P, c), (hi, c)


def test_value_at_one_counts_submodules():
    for diag in all_polygon_triangulations(0, 5):
        P = polygon(0, 5, sorted(diag))
        for c in polygon_diagonals(0, 5):
            table = submodule_classes(g_module(P, c))
            assert cc_direct(P, c).eval_all_ones() == table.size


def test_denominator_support_is_crossers():
    for diag in all_polygon_triangulations(0, 5):
        P = polygon(0, 5, sorted(diag))
        for c in polygon_diagonals(0, 5):
            assert cc_direct(P, c).denominator_support() == set(P.crossers(c))


def test_product_identities_as_polynomials():
    # disjoint-union multiplicativity and the quadrilateral resolution,
    # stated purely at the level of the assembled polynomials
    from infcc.arcs import crosses, seg

    P = polygon(0, 6, [(0, 2), (2, 4), (0, 4), (4, 6)])
    pool = polygon_diagonals(0, 6)
    for a in pool:
        for b in pool:
            if not crosses(a, b):
                continue
            q0, q1, q2, q3 = sorted((a.m, a.n, b.m, b.n))
            lhs = cc_direct(P, a) * cc_direct(P, b)
            rhs = ONE
            for s in (seg(q0, q1), seg(q2, q3)):
                rhs = rhs * (cc_direct(P, s) if not P.is_boundary(s) and isinstance(s, Arc) else ONE)
            rhs2 = ONE
            for s in (seg(q1, q2), seg(q0, q3)):
                rhs2 = rhs2 * (cc_direct(P, s) if not P.is_boundary(s) and isinstance(s, Arc) else ONE)
            assert lhs == rhs + rhs2, (a, b)


def test_malformed_string_modules_are_refused():
    with pytest.raises(InvalidModule):
        StringModule((Arc(0, 2),), (1,))
    with pytest.raises(InvalidModule):
        StringModule((Arc(0, 2), Arc(0, 2)), (1,))


def test_long_chain_has_a_class_per_suffix():
    # a 40-vertex chain with every map pointing right: the submodules are
    # its 41 suffixes, far past what a 2^k enumeration can list
    code = """
from infcc.arcs import Arc
from infcc.modules import StringModule, count_submodules, submodule_classes
M = StringModule(tuple(Arc(0, n) for n in range(2, 42)), (1,) * 39)
table = submodule_classes(M)
suffixes = [{v: 1 for v in M.walk[i:]} for i in range(40, -1, -1)]
ok = count_submodules(M) == table.size == 41 and [e for e, _ in table.entries] == suffixes
ok = ok and all(chi == 1 for _, chi in table.entries)
print(ok)
"""
    scope = {}
    exec(code, scope)
    assert scope["ok"]
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "True", proc.stderr


def test_cc_direct_refuses_what_cc_refuses():
    P = polygon(0, 5, [(0, 2), (0, 3), (0, 4)])
    for bad in (Arc(3, 0), Arc(0, 1), Arc(2, 2)):
        message = re.escape(f"({bad.m},{bad.n}) is not an arc: need m <= n-2")
        for route in (cc, cc_direct):
            with pytest.raises(ValueError, match=message):
                route(P, bad)


# -- the end rule of g_module and theta along the walk ----------------------

HOLED_HEXAGONS = [
    # (diagonals, the member removed, the arc): the two crossers of the arc
    ([(0, 2), (0, 3), (0, 4)], (0, 3), (1, 5)),  # share an outer end
    ([(0, 2), (2, 4), (2, 5)], (2, 5), (1, 3)),  # share an inner end
    ([(1, 5), (2, 4), (2, 5)], (2, 5), (0, 3)),  # share no end
]


def _holed(lo, hi, diagonals, gone):
    """The polygon triangulation with the member `gone` removed: not maximal."""
    return Triangulation(polygon(lo, hi, diagonals).base, frozenset(), frozenset({Arc(*gone)}))


@pytest.mark.parametrize("diagonals, gone, c", HOLED_HEXAGONS)
def test_holed_hexagons_raise_not_maximal(diagonals, gone, c):
    T = _holed(0, 5, diagonals, gone)
    for route in (g_module, cc_direct):
        with pytest.raises(NotMaximal, match="share no triangle"):
            route(T, Arc(*c))


def test_cc_direct_refuses_a_walk_end_without_a_triangle():
    # the pentagon {(0,2), (0,3)} without (0,3): (1,3) crosses (0,2) alone,
    # so g_module has no pair to check, but (0,2) has no triangle towards 3
    T = _holed(0, 4, [(0, 2), (0, 3)], (0, 3))
    assert g_module(T, Arc(1, 3)).walk == (Arc(0, 2),)
    with pytest.raises(NotMaximal, match="differ"):
        cc_direct(T, Arc(1, 3))


def test_holed_polygons_raise_not_maximal_under_python_O():
    # python -O strips asserts: the guards of the end rule must not be asserts
    code = (
        "from infcc.arcs import Arc\n"
        "from infcc.cc_direct import cc_direct\n"
        "from infcc.errors import NotMaximal\n"
        "from infcc.modules import g_module\n"
        "from infcc.triangulation import Triangulation, polygon\n"
        f"cases = {[(5, *case) for case in HOLED_HEXAGONS] + [(4, [(0, 2), (0, 3)], (0, 3), (1, 3))]!r}\n"
        "for hi, diagonals, gone, c in cases:\n"
        "    T = Triangulation(polygon(0, hi, diagonals).base, frozenset(), frozenset({Arc(*gone)}))\n"
        "    routes = (cc_direct,) if hi == 4 else (g_module, cc_direct)\n"
        "    for route in routes:\n"
        "        try:\n"
        "            route(T, Arc(*c))\n"
        "        except NotMaximal:\n"
        "            print('NotMaximal')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "NotMaximal\n" * 7


def _same_outcome(route, oracle):
    """route() == oracle(), or both raise NotMaximal with one message."""
    try:
        expected = oracle()
    except NotMaximal as e:
        with pytest.raises(NotMaximal, match=re.escape(str(e))):
            route()
        return False
    assert route() == expected
    return True


def test_end_rule_matches_walk_dirs_on_holed_polygons():
    """Every triangulation of the 6- to 8-gon, each diagonal removed in turn,
    every diagonal: the end rule agrees with arrow_between, guard included;
    where the module is built, theta along its walk agrees with theta_simple."""
    cases = built = 0
    for hi in (5, 6, 7):
        for diag in all_polygon_triangulations(0, hi):
            for gone in sorted(diag):
                T = _holed(0, hi, sorted(diag), gone)
                for d in polygon_diagonals(0, hi):
                    cases += 1
                    walk = () if T.is_member(d) else tuple(T.crossers(d))
                    if _same_outcome(lambda: g_module(T, d), lambda: StringModule(walk, walk_dirs(T, walk))):
                        built += 1
                        M = g_module(T, d)
                        _same_outcome(lambda: list(theta_walk(T, d, M)),
                                      lambda: [theta_simple(T, v).coeffs for v in M.walk])
    assert cases == 15930 and 0 < built < cases


def _randomly_flipped(T, rng, lo, hi):
    for _ in range(rng.randint(0, 8)):
        T = T.flip(rng.choice(T.members_in_window(lo, hi))).new_triangulation
    return T


def test_end_rule_matches_walk_dirs_on_infinite_families():
    rng = random.Random(25)
    checked = 0
    for base in (nested_zigzag(0), staircase((0, 2), "UURRRU"), fountain(0)):
        for _ in range(6):
            T, f = _randomly_flipped(base, rng, -10, 10), base.base.fountain
            for m in range(-10, 9):
                for n in range(m + 2, 11):
                    d = Arc(m, n)
                    if T.is_member(d) or (f is not None and m < f < n):
                        continue  # a member, or an arc straddling the fountain
                    M = g_module(T, d)
                    assert M.walk == tuple(T.crossers(d)), d
                    assert M.dirs == walk_dirs(T, M.walk), (T, d)
                    checked += 1
    assert checked > 2000


def test_end_rule_and_theta_walk_on_every_polygon_triangulation():
    """Every diagonal of every triangulation of the 5- to 9-gon: the end rule
    agrees with arrow_between, and theta along the walk with theta_simple."""
    vertices = 0
    for hi in range(4, 9):
        for diag in all_polygon_triangulations(0, hi):
            P = polygon(0, hi, sorted(diag))
            for d in polygon_diagonals(0, hi):
                M = g_module(P, d)
                assert M.dirs == walk_dirs(P, M.walk), (sorted(diag), d)
                assert list(theta_walk(P, d, M)) == [theta_simple(P, v).coeffs for v in M.walk]
                vertices += len(M)
    assert vertices == 27590
