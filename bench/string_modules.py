"""String-module benchmark: g_module, tilings and cc_direct, two source trees.

Usage: ``python bench/string_modules.py [--baseline OLD/src]`` (see harness.py).

Each round runs one fresh child process per source tree.  A child times:

* ``g_module_us_k<K>``: ``g_module`` of the arc of ``nested_zigzag(0)``
  crossing K members, K = 4..14, chosen as ``crossers_us_k<K>`` in
  triangle_queries.py chooses it (`arc_crossing`).  The value is built once
  and its fans are read before timing, as they are after the first cells
  of a tiling, so the figure is the module built from a warm walk;
* ``tiling_us_per_cell_h<H>``: ``tiling_window`` of a freshly built
  ``nested_zigzag(0)`` on [-H, H], H = 8, 16, 32 and 64, divided by its
  cell count;
* ``cc_direct_us_n13``: ``cc_direct`` on every diagonal of the 13-gon that
  ``random_polygon_triangulation(0, 12, random.Random(13))`` draws, per
  diagonal, on a freshly built value per timed call (direct_route.py times
  the same figure).

Outside the timed region the child checks ``cc_direct == cc`` on every
diagonal of the 13-gon, so both trees are timed on right answers.  A figure
is the median of its repetitions inside the child.  Rounds, quartiles and
ratios are those of harness.py.  The result goes to ``BENCH_modules.json``
at the repository root, with the machine and the Python version.
"""

from __future__ import annotations

from harness import ROOT, child, compare, time_median

OUT = ROOT / "BENCH_modules.json"
ROUNDS = 9
KS = range(4, 15)
TILING_HALF_WIDTHS = (8, 16, 32, 64)
POLYGON_SIZE = 13  # vertices; random.Random(13) draws its diagonals


def measure() -> dict:
    """Figures for the infcc found on sys.path."""
    import random

    from infcc import CCSession, cc, cc_direct
    from infcc.modules import g_module
    from infcc.tilings import tiling_window
    from infcc.triangulation import nested_zigzag, polygon, polygon_diagonals, random_polygon_triangulation
    from triangle_queries import arc_crossing

    out = {}
    for k in KS:
        Z = nested_zigzag(0)
        d = arc_crossing(Z, k)
        Z.crossers(d)  # read the fans of d's inner vertices
        out[f"g_module_us_k{k}"] = 1e6 * time_median(lambda Z=Z: Z, lambda T, d=d: g_module(T, d))
    for h in TILING_HALF_WIDTHS:
        cells = (2 * h - 1) * 2 * h // 2
        out[f"tiling_us_per_cell_h{h}"] = 1e6 * time_median(
            lambda: nested_zigzag(0), lambda T, h=h: tiling_window(T, -h, h)) / cells
    n = POLYGON_SIZE
    diags = sorted(random_polygon_triangulation(0, n - 1, random.Random(n)))
    make = lambda: polygon(0, n - 1, diags)  # noqa: E731
    targets = polygon_diagonals(0, n - 1)
    P, session = make(), CCSession()
    if any(cc_direct(P, c) != cc(P, c, session) for c in targets):
        raise SystemExit(f"cc_direct != cc on the {n}-gon {diags}")
    out[f"cc_direct_us_n{n}"] = 1e6 * time_median(
        make, lambda P: [cc_direct(P, c) for c in targets]) / len(targets)
    return out


if __name__ == "__main__":
    compare(
        __doc__, OUT, ROUNDS,
        lambda trees: {name: child(__file__, src) for name, src in trees.items()},
        family="nested_zigzag(0) for g_module and tilings; a random 13-gon for cc_direct",
        unit="us")
