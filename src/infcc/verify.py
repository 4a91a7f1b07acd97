"""Acceptance verification suites.

Each criterion function returns (name, passed, detail) and prints nothing;
`run_suite` prints one pass/fail line per criterion.  All checks are exact
integer/polynomial identities: there are no tolerances anywhere.

The same functions back the `infcc verify` CLI verb and the pytest
acceptance module, so both entry points exercise identical code.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from .arcs import Arc, crosses, seg
from .cc_direct import cc_direct
from .exchange import CCSession, cc, cc_multiset, is_reachable
from .ktheory import ModClass, coindex, index, theta
from .laurent import LaurentPoly
from .modules import g_module, submodule_classes
from .reduction import cc_bar, cofinite_uspec_for, perp, pi_star, reduce, u_of
from .tilings import (
    Frontier,
    extend_frontier,
    frontier_to_triangulation,
    q_overlap_fill,
    recurrence_window,
    tiling_window,
    verify_sl2,
)
from .triangulation import (
    Triangulation,
    all_polygon_triangulations,
    fountain,
    nested_zigzag,
    polygon,
    polygon_diagonals,
    random_polygon_triangulation,
)

Result = Tuple[str, bool, str]


def _random_polygons(rng, count: int, n_lo: int = 4, n_hi: int = 9) -> List[Triangulation]:
    out = []
    for _ in range(count):
        hi = rng.randint(n_lo, n_hi)
        out.append(polygon(0, hi, sorted(random_polygon_triangulation(0, hi, rng))))
    return out


def _reachable_window_arcs(T: Triangulation, lo: int, hi: int) -> List[Arc]:
    arcs = [Arc(m, n) for m in range(lo, hi - 1) for n in range(m + 2, hi + 1)]
    return [a for a in arcs if is_reachable(T, a).reachable]


def _quad_sides(a: Arc, b: Arc):
    q0, q1, q2, q3 = sorted((a.m, a.n, b.m, b.n))
    return (seg(q0, q1), seg(q2, q3)), (seg(q1, q2), seg(q0, q3))


def criterion_1_cluster_map(rng, size: str) -> Result:
    """Initial condition, exchange identity, multiplicativity."""
    n_poly = 50 if size == "full" else 12
    n_pairs = 200 if size == "full" else 50
    n_multisets = 100 if size == "full" else 25
    models = _random_polygons(rng, n_poly) + [fountain(0), nested_zigzag(0)]
    pools = []
    checked_members = checked_pairs = checked_multisets = 0
    for T in models:
        if T.is_polygon:
            members = T.polygon_members()
            pool = polygon_diagonals(*T.base.frame)
        else:
            members = T.members_in_window(-8, 8)
            pool = _reachable_window_arcs(T, -8, 8)
        ses = CCSession()
        for t in members:
            if cc(T, t, ses) != LaurentPoly.variable(t):
                return ("cluster-map axioms", False, f"cc(t) != x_t at {tuple(t)}")
            checked_members += 1
        pools.append((T, pool))
    while checked_pairs < n_pairs:
        T, pool = rng.choice(pools)
        a, b = rng.choice(pool), rng.choice(pool)
        if not crosses(a, b):
            continue
        ses = CCSession()
        B, Bp = _quad_sides(a, b)
        lhs = cc(T, a, ses) * cc(T, b, ses)
        rhs = cc_multiset(T, B, ses) + cc_multiset(T, Bp, ses)
        if lhs != rhs:
            return ("cluster-map axioms", False, f"exchange identity fails at {tuple(a)},{tuple(b)}")
        checked_pairs += 1
    for _ in range(n_multisets):
        T, pool = rng.choice(pools)
        ms = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        cut = rng.randint(0, len(ms))
        ses = CCSession()
        whole = cc_multiset(T, ms, ses)
        split = cc_multiset(T, ms[:cut], ses) * cc_multiset(T, ms[cut:], ses)
        if whole != split or cc_multiset(T, [], ses) != LaurentPoly.const(1):
            return ("cluster-map axioms", False, "multiplicativity fails")
        checked_multisets += 1
    detail = (f"{checked_members} members, {checked_pairs} exchange pairs, "
              f"{checked_multisets} multisets")
    return ("cluster-map axioms", True, detail)


def criterion_2_oracle_equivalence(rng, size: str) -> Result:
    """Direct formula equals the exchange recursion on small polygons."""
    cases = 0
    his = (4, 5, 6) if size == "full" else (4, 5)
    for hi in his:
        for diag in all_polygon_triangulations(0, hi):
            P = polygon(0, hi, sorted(diag))
            for c in polygon_diagonals(0, hi):
                if cc_direct(P, c) != cc(P, c):
                    return ("oracle equivalence", False, f"{sorted(diag)} at {tuple(c)}")
                cases += 1
    n_random = 30 if size == "full" else 8
    for _ in range(n_random):
        hi = rng.randint(7, 8)
        P = polygon(0, hi, sorted(random_polygon_triangulation(0, hi, rng)))
        for c in polygon_diagonals(0, hi):
            if cc_direct(P, c) != cc(P, c):
                return ("oracle equivalence", False, f"random {hi + 1}-gon at {tuple(c)}")
            cases += 1
    return ("oracle equivalence", True, f"{cases} diagonals, exhaustive 5-7 gons + {n_random} random")


def criterion_3_theta_identity(rng, size: str) -> Result:
    """theta([module of d]) = coindex(shift d) - index(shift d)."""
    cases = 0
    for hi in (4, 5):
        for diag in all_polygon_triangulations(0, hi):
            P = polygon(0, hi, sorted(diag))
            for d in polygon_diagonals(0, hi):
                e = ModClass(g_module(P, d).total_class())
                sd = P.rotate(d, 1)
                if theta(P, e) != coindex(P, sd) - index(P, sd):
                    return ("theta identity", False, f"{sorted(diag)} at {tuple(d)}")
                cases += 1
    return ("theta identity", True, f"{cases} diagonals over all 5/6-gon triangulations")


def criterion_4_positivity(rng, size: str) -> Result:
    """Positive coefficients; denominators supported exactly on crossers."""
    models = _random_polygons(rng, 20 if size == "full" else 6) + [fountain(0), nested_zigzag(0)]
    cases = 0
    for T in models:
        if T.is_polygon:
            pool = polygon_diagonals(*T.base.frame)
        else:
            pool = _reachable_window_arcs(T, -6, 6)
        ses = CCSession()
        for d in pool:
            p = cc(T, d, ses)
            if any(c <= 0 for c in p.coefficients()):
                return ("positivity", False, f"non-positive coefficient at {tuple(d)}")
            denom = p.denominator_support()
            expected = {u for u in T.crossers(d)}
            if denom != expected:
                return ("positivity", False, f"denominator mismatch at {tuple(d)}")
            cases += 1
    return ("positivity", True, f"{cases} values, coefficients > 0, denominators = crossers")


def criterion_5_reduction(rng, size: str) -> Result:
    """Specialised ambient values match the reduced polygon model."""
    n_t = 20 if size == "full" else 8
    fount = fountain(0)
    zig = nested_zigzag(0)
    ts = []
    for k in range(n_t // 4 + 1):
        ts.append((fount, Arc(-3 - k, 0)))
        ts.append((fount, Arc(0, 3 + k)))
    j = 0
    while len(ts) < n_t + 2:
        ts.append((zig, Arc(-j - 1, j + 2)))
        ts.append((zig, Arc(-j - 1, j + 3)))
        j += 1
    cases = 0
    for T, t in ts[:n_t]:
        U = u_of(T, t)  # raises NotAMember unless t is a member
        red = reduce(T, t)
        ses = CCSession()
        for d in polygon_diagonals(t.m, t.n):
            if cc_bar(T, U, d, ses) != cc(red.model, d):
                return ("reduction coincidence", False, f"t={tuple(t)}, d={tuple(d)}")
            cases += 1
    # locally bounded regime: with a perpendicular cofinite U the ambient
    # value involves no variable from U at all
    checked = 0
    pool = _reachable_window_arcs(zig, -5, 6)
    rng.shuffle(pool)
    for c in pool[:10]:
        reps = [zig.flip(u).replacement for u in zig.crossers(c)]
        U = cofinite_uspec_for(zig, c, reps)
        conds = perp(c, U, 1) and perp(c, U, 2) and all(
            perp(s, U, k) for s in reps for k in (0, 1, 2))
        p = cc(zig, c)
        if not conds or p.substitute_unit(U.contains) != p:
            return ("reduction coincidence", False, f"cofinite-U identity fails at {tuple(c)}")
        checked += 1
    return ("reduction coincidence", True, f"{cases} spanned diagonals, {checked} cofinite-U arcs")


def criterion_6_module_correspondence(rng, size: str) -> Result:
    """Submodule tables agree across the reduced-to-ambient embedding."""
    cases = 0
    for T, t in [(fountain(0), Arc(-5, 0)), (fountain(0), Arc(0, 5)),
                 (nested_zigzag(0), Arc(-2, 4)), (nested_zigzag(0), Arc(-3, 4))]:
        U = u_of(T, t)
        red = reduce(T, t)
        for d in polygon_diagonals(t.m, t.n):
            M = g_module(red.model, d)
            Ma = pi_star(M, U)
            ta, tb = submodule_classes(M), submodule_classes(Ma)
            if ta.size != tb.size or ta.class_multiset() != tb.class_multiset():
                return ("module correspondence", False, f"t={tuple(t)}, d={tuple(d)}")
            cases += 1
    return ("module correspondence", True, f"{cases} strings, equal sizes and class multisets")


def criterion_7_sl2_tiling(rng, size: str) -> Result:
    """Tiling of the nested zigzag on [-8, 8]: relations, spots, two oracles."""
    Z = nested_zigzag(0)
    W = tiling_window(Z, -8, 8)
    bad = verify_sl2(W)
    if bad:
        return ("sl2 tiling", False, f"{len(bad)} violated relations")
    spots = {(0, 3): 2, (1, 3): 3, (2, 4): 3, (1, 4): 8, (0, 4): 5}
    for cell, v in spots.items():
        if W.values.get(cell) != v:
            return ("sl2 tiling", False, f"spot r{cell} = {W.values.get(cell)} != {v}")
    if min(W.values.values()) < 1:
        return ("sl2 tiling", False, "non-positive entry")
    R = recurrence_window(Z, -8, 8)
    if R != W.values:
        return ("sl2 tiling", False, "submodule-count and recurrence oracles disagree")
    return ("sl2 tiling", True, f"{len(W.values)} cells, zero violations, oracles agree")


def criterion_8_frontier_gluing(rng, size: str) -> Result:
    """Frontier extension glues with the tiling of its triangulation."""
    words = ["".join(rng.choice("UR") for _ in range(rng.randint(1, 12))) for _ in range(5)]
    total_overlap = 0
    for word in words:
        F = Frontier(word)
        T = frontier_to_triangulation(F)
        span = len(word) + 4
        W = tiling_window(T, -span - 2, span + 2)
        ext = extend_frontier(F, (-span, -2, 3, span))
        ov = q_overlap_fill(F, -span - 2, span + 2)
        if not ov:
            return ("frontier gluing", False, f"empty overlap for {word}")
        for p, v in ov.items():
            if p in W.values and W.values[p] != v:
                return ("frontier gluing", False, f"{word}: tiling disagrees at {p}")
            if p in ext.values and ext.values[p] != v:
                return ("frontier gluing", False, f"{word}: extension disagrees at {p}")
        if min(ext.values.values()) < 1:
            return ("frontier gluing", False, f"{word}: non-positive extension value")
        total_overlap += len(ov)
    return ("frontier gluing", True, f"5 words, {total_overlap} overlap cells agree")


def criterion_9_reachability(rng, size: str) -> Result:
    """Fountain refusals through the CLI; one-sided variable support."""
    F = fountain(0)
    refused = succeeded = 0
    for m in range(-6, 5):
        for n in range(m + 2, 7):
            code = _quiet_cli(["cc", "--triangulation", "fountain:0", "--arc", f"{m},{n}"])
            straddles = m < 0 < n
            if straddles:
                if code != 2:
                    return ("reachability boundary", False, f"({m},{n}) not refused with 2")
                refused += 1
            else:
                if code != 0:
                    return ("reachability boundary", False, f"({m},{n}) exited {code}")
                succeeded += 1
                p = cc(F, Arc(m, n))
                if n <= 0 and not all(a.n <= 0 for a in p.variables()):
                    return ("reachability boundary", False, f"({m},{n}) uses right-side variables")
                if m >= 0 and not all(a.m >= 0 for a in p.variables()):
                    return ("reachability boundary", False, f"({m},{n}) uses left-side variables")
    return ("reachability boundary", True, f"{refused} refused with exit 2, {succeeded} computed")


def _quiet_cli(argv) -> int:
    import contextlib, io
    from .cli import main as cli_main

    buf_out, buf_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
        return cli_main(argv)


def criterion_10_mutation(rng, size: str) -> Result:
    """Random flip sequences reversed restore; quivers stay loop/2-cycle free."""
    n_seq = 1000 if size == "full" else 200
    bases = [fountain(0), nested_zigzag(0),
             polygon(0, 7, sorted(all_polygon_triangulations(0, 7)[0]))]
    for k in range(n_seq):
        T = bases[k % len(bases)]
        replacements = []
        for _ in range(rng.randint(1, 8)):
            pool = T.members_in_window(-7, 8)
            res = T.flip(rng.choice(pool))
            replacements.append(res.replacement)
            T = res.new_triangulation
        if k % 97 == 0:  # the quiver of the flipped triangulation, before the walk is undone
            Q = T.quiver() if T.is_polygon else T.quiver(-5, 6)
            seen = set()
            for a, b in Q.arrows:
                if a == b or (b, a) in seen:
                    return ("mutation involution", False, f"loop or 2-cycle in quiver of sequence {k}")
                seen.add((a, b))
        for r in reversed(replacements):
            T = T.flip(r).new_triangulation
        if T.added or T.removed:
            return ("mutation involution", False, f"sequence {k} did not restore")
    return ("mutation involution", True, f"{n_seq} flip sequences restored")


CRITERIA: List[Callable] = [
    criterion_1_cluster_map,
    criterion_2_oracle_equivalence,
    criterion_3_theta_identity,
    criterion_4_positivity,
    criterion_5_reduction,
    criterion_6_module_correspondence,
    criterion_7_sl2_tiling,
    criterion_8_frontier_gluing,
    criterion_9_reachability,
    criterion_10_mutation,
]


def run_suite(suite: str = "all", size: str = "full", seed: int = 20240901) -> bool:
    """Run the numbered criteria, printing one pass/fail line each."""
    wanted = None if suite == "all" else {int(s) for s in suite.split(",")}
    all_ok = True
    for i, fn in enumerate(CRITERIA, start=1):
        if wanted is not None and i not in wanted:
            continue
        name, ok, detail = fn(random.Random(seed + i), size)
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {i:2d} {name}: {detail}")
    return all_ok
