"""Brute-force oracles kept independent of the package internals.

Each oracle re-derives a quantity by direct enumeration over a window so
the closed-form implementations have something dumber to disagree with.
"""

from itertools import combinations

from infcc.arcs import Arc, crosses, seg


def crossing_order(d, arcs):
    """Arcs that all cross d, sorted in the order they cross d from d.m."""
    p = d.m
    return sorted(arcs, key=lambda x: (x.n, 0, -x.m) if x.m < p else (x.m, 1, -x.n))


def window_arcs(lo, hi):
    return [Arc(m, n) for m in range(lo, hi - 1) for n in range(m + 2, hi + 1)]


def flipped_pool(seed):
    """Test triangulations, each with the window its arcs are drawn from:
    `nested_zigzag(0)`, two staircases with words and `fountain(0)` after
    0, 2, 4 and 6 random flips, then 30 random 5- to 13-gons."""
    import random

    from infcc.triangulation import fountain, nested_zigzag, polygon, random_polygon_triangulation, staircase

    rng = random.Random(seed)
    for base in (nested_zigzag(0), staircase((0, 2), "RRU"), staircase((1, 3), "URRUU"), fountain(0)):
        for flips in (0, 2, 4, 6):
            T = base
            for _ in range(flips):
                T = T.flip(rng.choice(T.members_in_window(-6, 7))).new_triangulation
            yield T, (-7, 8)
    for _ in range(30):
        hi = rng.randint(4, 12)
        yield polygon(0, hi, sorted(random_polygon_triangulation(0, hi, rng))), (0, hi)


def brute_crossers(T, d, lo, hi):
    """Members crossing d, by scanning every arc in the window."""
    return sorted(a for a in window_arcs(lo, hi) if T.is_member(a) and crosses(a, d))


def brute_fan(T, v, lo, hi):
    """Co-endpoints in [lo, hi] of the members at v, by testing every arc."""
    return [w for w in range(lo, hi + 1) if abs(w - v) >= 2 and T.is_member(Arc(min(v, w), max(v, w)))]


def brute_spanning(T, d, lo, hi):
    """The narrowest member spanning d, by testing every arc of [lo, hi]
    around d; None when none does.  Members spanning d are nested."""
    from infcc.arcs import spans

    around = (Arc(a, b) for a in range(lo, d.m + 1) for b in range(d.n, hi + 1))
    return min((a for a in around if spans(a, d) and T.is_member(a)), key=lambda a: a.n - a.m, default=None)


def scan_crossers(T, d):
    """Members crossing d, in crossing order, by a scan over d's inner vertices.

    At each inner vertex the candidates are the base arcs there (removed ones
    included) plus the patch additions, each tested for membership and
    crossing.  Raises InfiniteCrossers at a fountain vertex inside d.
    """
    from infcc.errors import InfiniteCrossers

    cands = set()
    for v in range(d.m + 1, d.n):
        if v == T.base.fountain:
            raise InfiniteCrossers(v)
        ends = set(T.base.partners(v))
        ends.update(a.n if a.m == v else a.m for a in T.added if v in a)
        cands.update(Arc(min(v, w), max(v, w)) for w in ends)
    return crossing_order(d, [x for x in cands if T.is_member(x) and crosses(x, d)])


def recursive_cc(T, d, session=None):
    """cc of the object d by the 4-way Ptolemy recursion.

    A non-member x is resolved at its first crosser u: the four sides of the
    quadrilateral on the ends of x and u give cc(x) * x_u = cc(s1) * cc(s2)
    + cc(s3) * cc(s4).  No member crosses u, so the members crossing a side
    are among those crossing x, u excluded; the list shrinks at every level.
    Memoised on `session` (a CCSession) by (T, x).
    """
    from infcc.errors import NotMaximal, Unreachable
    from infcc.exchange import CCSession, is_reachable
    from infcc.laurent import ONE, LaurentPoly

    if session is None:
        session = CCSession()
    T.check_seg(d)
    if T.is_boundary(d):
        return ONE
    verdict = is_reachable(T, d)
    if not verdict.reachable:
        raise Unreachable(d, verdict.fountain)

    def rec(x, cands=None):
        if T.is_boundary(x):
            return ONE
        if T.is_member(x):
            return LaurentPoly.variable(x, session.index)
        hit = session.memo.get((T, x))
        if hit is not None:
            return hit
        crossers = T.crossers(x) if cands is None else crossing_order(x, [c for c in cands if crosses(c, x)])
        if not crossers:
            raise NotMaximal(f"non-member {tuple(x)} crosses no member: not a triangulation")
        u = crossers[0]
        rest = crossers[1:]
        q0, q1, q2, q3 = sorted((x.m, x.n, u.m, u.n))
        parts = [rec(seg(a, b), rest) for a, b in ((q0, q1), (q2, q3), (q1, q2), (q0, q3))]
        session.index.slot(u)
        value = (parts[0] * parts[1] + parts[2] * parts[3]).div_exact_variable(u)
        session.memo[(T, x)] = value
        return value

    return rec(d)


def hom_vanishes_polygon(P, d, targets, k):
    """No maps from d into the k-th rotational shift of any target arc.

    Polygon counterpart of the perpendicularity test: maps d -> rotate(u, k)
    exist exactly when d crosses rotate(u, k - 1).
    """
    P.require_polygon("hom_vanishes_polygon")
    for u in targets:
        w = P.rotate(u, k - 1)
        if isinstance(w, Arc) and crosses(d, w):
            return False
    return True


def kappa_embed(e, u_contains):
    """Include a class of the reduced model into the ambient split group.

    `u_contains` is a predicate (or USpec) naming the removed subcategory;
    raises SupportMeetsU when the class meets it.
    """
    from infcc.errors import SupportMeetsU
    from infcc.ktheory import SplitK0Class

    test = u_contains.contains if hasattr(u_contains, "contains") else u_contains
    for a in e.support():
        if test(a):
            raise SupportMeetsU(f"class touches the reduced-away member {tuple(a)}")
    return SplitK0Class(dict(e.coeffs))


def scan_inner_vertex(T, t):
    """Vertices v strictly inside t with both sides (t.m, v) and (v, t.n) present."""
    return [v for v in range(t.m + 1, t.n) if T.side_exists(t.m, v) and T.side_exists(v, t.n)]


def scan_outer_vertex(T, t, lo, hi):
    """Vertices x in [lo, hi] outside t with both sides to t's ends present."""
    a, b = t
    return [x for x in range(lo, hi + 1)
            if (x < a and T.side_exists(x, a) and T.side_exists(x, b))
            or (x > b and T.side_exists(a, x) and T.side_exists(b, x))]


def cycle_arrow(T, a, b):
    """Quiver arrow between a and b (+1 for a -> b, -1 for b -> a, None):
    they share one endpoint and the third side exists, and the arrows of
    the triangle A < B < C run (A,B) -> (B,C) -> (A,C) -> (A,B)."""
    shared = {a.m, a.n} & {b.m, b.n}
    if len(shared) != 1:
        return None
    x, y = sorted({a.m, a.n, b.m, b.n} - shared)
    if not T.side_exists(x, y):
        return None
    A, B, C = sorted({a.m, a.n, b.m, b.n})
    cycle = [(A, B), (B, C), (A, C)]
    for i in range(3):
        if cycle[i] == tuple(a) and cycle[(i + 1) % 3] == tuple(b):
            return 1
        if cycle[i] == tuple(b) and cycle[(i + 1) % 3] == tuple(a):
            return -1
    return None


def sweep_propagate(values, targets, *, edge):
    """Fill target cells by sweeps: retry every pending cell, in sorted
    order, until a sweep solves nothing."""
    from infcc.tilings import _try_cell

    pending = set(targets) - set(values)
    progress = True
    while pending and progress:
        progress = False
        for cell in sorted(pending):
            v = _try_cell(values, cell, edge)
            if v is not None:
                values[cell] = v
                pending.discard(cell)
                progress = True


def brute_submodule_classes(walk, dirs):
    """Classes {vertex: 1} of the closed subsets of the walk, by trying all 2^k masks."""
    k = len(walk)
    out = []
    for mask in range(1 << k):
        ok = True
        for i, d in enumerate(dirs):
            src, dst = (i, i + 1) if d == +1 else (i + 1, i)
            if mask >> src & 1 and not mask >> dst & 1:
                ok = False
                break
        if ok:
            out.append({walk[i]: 1 for i in range(k) if mask >> i & 1})
    return out


def brute_noncrossing_maximal(diagonals, lo, hi):
    """Check a polygon diagonal set for non-crossing and maximality."""
    ds = set(diagonals)
    pool = [a for a in window_arcs(lo, hi) if (a.m, a.n) != (lo, hi)]
    for a, b in combinations(ds, 2):
        if crosses(a, b):
            return False
    for a in pool:
        if a not in ds and not any(crosses(a, b) for b in ds):
            return False
    return True


def staircase_walk(entry, word, max_width):
    """Staircase arcs up to max_width, by walking the path step by step.

    The word's steps come first, then strict alternation starting with the
    opposite of the last letter ('U' after the empty word).
    """
    m, n = entry
    out = [Arc(m, n)]
    last = "R"
    for i in range(max_width - (n - m)):
        ch = word[i] if i < len(word) else ("U" if last == "R" else "R")
        last = ch
        m, n = (m - 1, n) if ch == "U" else (m, n + 1)
        out.append(Arc(m, n))
    return out


def frontier_walk(origin, word, lo, hi):
    """Points lo .. hi (lo <= 0 <= hi) of a frontier path, as {k: point}.

    Walks letter by letter from the origin, point 0.  Forward: the word's
    steps, then strict alternation starting with the opposite of the last
    letter ('U' after the empty word).  Backward: the step into the origin
    is the opposite of the word's first letter ('R' for the empty word), and
    the steps before it alternate strictly.  'U' lowers the first
    coordinate, 'R' raises the second.
    """
    out = {0: tuple(origin)}
    i, j = origin
    last = "R"
    for k in range(hi):
        ch = word[k] if k < len(word) else ("U" if last == "R" else "R")
        last = ch
        i, j = (i - 1, j) if ch == "U" else (i, j + 1)
        out[k + 1] = (i, j)
    i, j = origin
    last = word[0] if word else "U"
    for k in range(-1, lo - 1, -1):
        ch = "U" if last == "R" else "R"
        last = ch
        i, j = (i + 1, j) if ch == "U" else (i, j - 1)
        out[k] = (i, j)
    return out


def walk_covering(origin, word, i_lo, j_lo, i_hi, j_hi):
    """Frontier path points around a rectangle, walked letter by letter.

    From the last point before the origin with i > i_hi + 1 and j < j_lo - 1
    to the first point from the origin on with i < i_lo - 1 and j > j_hi + 1.
    """
    reach = len(word) + 2 * sum(map(abs, (*origin, i_lo, j_lo, i_hi, j_hi))) + 8
    walk = frontier_walk(origin, word, -reach, reach)
    start = next(k for k in range(-1, -reach - 1, -1)
                 if walk[k][0] > i_hi + 1 and walk[k][1] < j_lo - 1)
    end = next(k for k in range(reach + 1) if walk[k][0] < i_lo - 1 and walk[k][1] > j_hi + 1)
    return [walk[k] for k in range(start, end + 1)]


def _plane_cell(r, cell):
    """The value at cell forced by one of its four squares whose other three
    cells are known, by r(a,b) r(a+1,b+1) - r(a,b+1) r(a+1,b) = 1; else None."""
    i, j = cell
    for a, b in ((i, j), (i - 1, j), (i, j - 1), (i - 1, j - 1)):
        diag, anti = ((a, b), (a + 1, b + 1)), ((a, b + 1), (a + 1, b))
        same, cross = (diag, anti) if cell in diag else (anti, diag)
        partner = same[1] if same[0] == cell else same[0]
        if partner in r and cross[0] in r and cross[1] in r:
            num = r[cross[0]] * r[cross[1]] + (1 if same is diag else -1)
            if num % r[partner] or num // r[partner] <= 0:
                raise ArithmeticError(f"cell {cell}: {num}/{r[partner]} is not a positive integer")
            return num // r[partner]
    return None


def plane_fill(origin, word, bbox):
    """Full-plane tiling over bbox through a frontier's 1's, by sweeps.

    Seeds 1 on the path around bbox (`walk_covering`) and sweeps the whole
    rectangle spanned by bbox and that path, since determination chains
    may route outside bbox; sweeps alternate between increasing and
    decreasing order until one solves nothing.  Returns the determined
    cells of bbox.
    """
    i_lo, j_lo, i_hi, j_hi = bbox
    r = {p: 1 for p in walk_covering(origin, word, *bbox)}
    rows, cols = [i_lo, i_hi, *(p[0] for p in r)], [j_lo, j_hi, *(p[1] for p in r)]
    pending = [(i, j) for i in range(min(rows), max(rows) + 1) for j in range(min(cols), max(cols) + 1)
               if (i, j) not in r]
    progress = True
    while pending and progress:
        progress = False
        for cell in pending:
            v = _plane_cell(r, cell)
            if v is not None:
                r[cell] = v
                progress = True
        pending = [p for p in reversed(pending) if p not in r]
    return {(i, j): r[(i, j)] for i in range(i_lo, i_hi + 1) for j in range(j_lo, j_hi + 1)
            if (i, j) in r}


def column_repack(p, dst):
    """(value, index) of laurent._repack, one exponent column at a time:
    every key is rebuilt by adding e << (FIELD_BITS * slot) per arc."""
    from infcc.laurent import FIELD_BITS, _decode, _new

    src = p.index
    arcs, columns = _decode(p._terms, p.shift, src)
    if all(dst.slots.get(a) == src.slots[a] for a in arcs):
        return p, dst
    dst = dst.extended(arcs)
    keys = [0] * len(p._terms)
    for a, col in zip(arcs, columns):
        sh = FIELD_BITS * dst.slots[a]
        keys = [k + (e << sh) for k, e in zip(keys, col.tolist())]
    return _new(dict(zip(keys, p._terms.values())), dst, p.bound), dst


class NaiveLaurent:
    """Laurent polynomial as {exponent tuple: coefficient}, with no packing.

    An exponent tuple is the sorted tuple of (Arc, exponent) pairs with
    nonzero exponents, the representation the package used before its
    exponent vectors were packed into integers.  Every operation works on
    these tuples directly, so the packed kernel has a plain reference.
    """

    def __init__(self, terms=()):
        self.terms = {}
        for exps, c in terms:
            acc = {}
            for a, e in exps:
                acc[a] = acc.get(a, 0) + e
            k = tuple(sorted((a, e) for a, e in acc.items() if e))
            self.terms[k] = self.terms.get(k, 0) + c
        self.terms = {k: c for k, c in self.terms.items() if c}

    def __add__(self, other):
        return NaiveLaurent(list(self.terms.items()) + list(other.terms.items()))

    def __mul__(self, other):
        return NaiveLaurent([(k1 + k2, c1 * c2)
                             for k1, c1 in self.terms.items()
                             for k2, c2 in other.terms.items()])

    def div_exact_variable(self, t):
        return NaiveLaurent([(k + ((t, -1),), c) for k, c in self.terms.items()])

    def substitute_unit(self, arcs):
        return NaiveLaurent([(tuple((a, e) for a, e in k if a not in arcs), c)
                             for k, c in self.terms.items()])

    def min_exponents(self):
        arcs = {a for k in self.terms for a, _ in k}
        return {a: min(dict(k).get(a, 0) for k in self.terms) for a in arcs}

    def sorted_terms(self):
        return sorted(self.terms.items(), reverse=True)

    def to_json(self):
        return [{"coeff": c, "exps": [[[a.m, a.n], e] for a, e in k]}
                for k, c in self.sorted_terms()]

    def format_fraction(self):
        if not self.terms:
            return "0"
        den = {a: -e for a, e in self.min_exponents().items() if e < 0}
        num = self * NaiveLaurent([(tuple(den.items()), 1)])

        def factor(a, e):
            return f"x[{a.m},{a.n}]" + (f"^{e}" if e != 1 else "")

        parts = []
        for k, c in num.sorted_terms():
            body = "*".join(factor(a, e) for a, e in k)
            s = str(c) if not body else body if c == 1 else "-" + body if c == -1 else f"{c}*{body}"
            parts.append(s if not parts else "- " + s[1:] if s.startswith("-") else "+ " + s)
        text = " ".join(parts)
        if not den:
            return text
        den_text = "*".join(factor(a, e) for a, e in sorted(den.items()))
        if len(num.terms) > 1:
            text = f"({text})"
        if len(den) > 1:
            den_text = f"({den_text})"
        return f"{text}/{den_text}"
