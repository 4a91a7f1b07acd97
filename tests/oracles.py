"""Brute-force oracles kept independent of the package internals.

Each oracle re-derives a quantity by direct enumeration over a window so
the closed-form implementations have something dumber to disagree with.
"""

from itertools import combinations

from infcc.arcs import Arc, crosses


def window_arcs(lo, hi):
    return [Arc(m, n) for m in range(lo, hi - 1) for n in range(m + 2, hi + 1)]


def brute_crossers(T, d, lo, hi):
    """Members crossing d, by scanning every arc in the window."""
    return sorted(a for a in window_arcs(lo, hi) if T.is_member(a) and crosses(a, d))


def brute_submodule_count(walk, dirs):
    """Closed subsets of the walk, counted by explicit enumeration."""
    k = len(walk)
    count = 0
    for mask in range(1 << k):
        ok = True
        for i, d in enumerate(dirs):
            src, dst = (i, i + 1) if d == +1 else (i + 1, i)
            if mask >> src & 1 and not mask >> dst & 1:
                ok = False
                break
        count += ok
    return count


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
