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
from infcc.errors import InvalidModule
from infcc.modules import StringModule, count_submodules, g_module, submodule_classes
from infcc.triangulation import (
    all_polygon_triangulations,
    nested_zigzag,
    polygon,
    polygon_diagonals,
    random_polygon_triangulation,
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
