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
