"""Direct-route benchmark: cc_direct and index on polygon models, two source trees.

Usage: ``python bench/direct_route.py [--baseline OLD/src]`` (see harness.py).

Each round runs one fresh child process per source tree.  A child builds a
triangulation of the N-gon on {0..N-1} for N = 8, 13 and 20, each with
``random_polygon_triangulation`` drawn from ``random.Random(N)``, and times
on a freshly built value per timed call (so the fan memo starts cold):

* ``cc_direct_us_n<N>``: ``cc_direct`` on every diagonal of the N-gon, per
  diagonal;
* ``index_us_n13``: ``index`` on every diagonal of the 13-gon, per diagonal.

Outside the timed region the child checks ``cc_direct == cc`` on every
diagonal, so both trees are timed on right answers.  A figure is the median
of its repetitions inside the child.  Rounds, quartiles and ratios are those
of harness.py.  The result goes to ``BENCH_direct.json`` at the repository
root, with the machine and the Python version.
"""

from __future__ import annotations

from harness import ROOT, child, compare, time_median

OUT = ROOT / "BENCH_direct.json"
ROUNDS = 9
SIZES = (8, 13, 20)  # vertices of each polygon; random.Random(N) draws its diagonals
INDEX_SIZE = 13


def measure() -> dict:
    """Per-diagonal figures (us) for the infcc found on sys.path."""
    import random

    from infcc import CCSession, cc, cc_direct, index
    from infcc.triangulation import polygon, polygon_diagonals, random_polygon_triangulation

    out = {}
    for n in SIZES:
        diags = sorted(random_polygon_triangulation(0, n - 1, random.Random(n)))
        make = lambda diags=diags, n=n: polygon(0, n - 1, diags)  # noqa: E731
        targets = polygon_diagonals(0, n - 1)
        P, session = make(), CCSession()
        if any(cc_direct(P, c) != cc(P, c, session) for c in targets):
            raise SystemExit(f"cc_direct != cc on the {n}-gon {diags}")
        out[f"cc_direct_us_n{n}"] = 1e6 * time_median(
            make, lambda P, ts=targets: [cc_direct(P, c) for c in ts]) / len(targets)
        if n == INDEX_SIZE:
            out[f"index_us_n{n}"] = 1e6 * time_median(
                make, lambda P, ts=targets: [index(P, c) for c in ts]) / len(targets)
    return out


if __name__ == "__main__":
    compare(
        __doc__, OUT, ROUNDS,
        lambda trees: {name: child(__file__, src) for name, src in trees.items()},
        polygons={f"n{n}": f"random_polygon_triangulation(0, {n - 1}, random.Random({n}))"
                  for n in SIZES},
        unit="us per diagonal")
