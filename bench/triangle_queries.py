"""Triangle-query benchmark: flips, crossers and tilings, two source trees.

Usage: ``python bench/triangle_queries.py [--baseline OLD/src]`` (see harness.py).

Each round runs one fresh child process per source tree.  A child times,
on ``nested_zigzag(0)`` unless named otherwise, and always on a freshly
built triangulation value (so no per-value memo is warm):

* ``flip_us_w<W>``: flipping the member of width W = n - m, W = 4, 16, 64
  and 200,001;
* ``flip_us_polygon12``: flipping every member of a fixed 12-gon
  (`POLYGON12`), per flip;
* ``flip_us_fountain_runs``: flipping every member in [-6, 6] of the
  fountain at 0 with three members removed on each side of it
  (`FOUNTAIN_RUNS`), per flip, so each flip at the fountain vertex steps
  over a run of removed members;
* ``crossers_member_ms_w<W>``: ``crossers`` of the member of width W =
  2,001, 20,001 and 200,001 (it crosses nothing);
* ``crossers_us_k<K>``: ``crossers`` of a non-member crossing K members,
  K = 4..14;
* ``tiling_us_per_cell_h<H>``: ``tiling_window`` on [-H, H], H = 8, 16, 32
  and 64, divided by its cell count;
* ``recurrence_ms_h<H>``: ``recurrence_window`` on [-H, H], H = 16 and 20
  (the half-widths of the perfbench tiling workload);
* ``frontier_us_per_cell_h<H>``: ``extend_frontier(Frontier("RRUURRRUUR"),
  (-H, -H, H, H))``, H = 8, 16, 32 and 48, divided by its cell count;
* ``frontier_ms_off100``: ``extend_frontier(Frontier("RU"), (100, 100, 102,
  102))``, nine cells about 100 rows and columns off the path.

A figure is the median of its repetitions inside the child.  Rounds,
quartiles and ratios are those of harness.py.
The result goes to ``BENCH_triangle.json`` at the repository root, with the
machine and the Python version.
"""

from __future__ import annotations

from harness import ROOT, child, compare, time_median

OUT = ROOT / "BENCH_triangle.json"
ROUNDS = 9
FLIP_WIDTHS = (4, 16, 64, 200_001)
MEMBER_WIDTHS = (2_001, 20_001, 200_001)
KS = range(4, 15)
TILING_HALF_WIDTHS = (8, 16, 32, 64)
RECURRENCE_HALF_WIDTHS = (16, 20)
FRONTIER_HALF_WIDTHS = (8, 16, 32, 48)
POLYGON12 = [(0, 2), (0, 5), (2, 5), (3, 5), (5, 11), (5, 8), (6, 8), (8, 11), (9, 11)]
FOUNTAIN_RUNS = [(-2, 0), (-3, 0), (-4, 0), (0, 2), (0, 3), (0, 4)]


def arc_crossing(Z, k):
    """The first arc (m, n), by width and then m, that crosses exactly k members of Z."""
    from infcc.arcs import Arc

    for width in range(2, 2 * k + 4):
        for m in range(-width, 3):
            d = Arc(m, m + width)
            if not Z.is_member(d) and len(Z.crossers(d)) == k:
                return d
    raise SystemExit(f"no arc crosses {k} members")


def measure() -> dict:
    """Figures for the infcc found on sys.path."""
    from infcc.tilings import Frontier, extend_frontier, recurrence_window, tiling_window
    from infcc.triangulation import fountain, nested_zigzag, polygon

    fresh = lambda: nested_zigzag(0)  # noqa: E731
    at = fresh().base.arc_at  # the member of width k + 2
    out = {}
    for w in FLIP_WIDTHS:
        out[f"flip_us_w{w}"] = 1e6 * time_median(fresh, lambda T, t=at(w - 2): T.flip(t))
    for name, make, (lo, hi) in (("polygon12", lambda: polygon(0, 11, POLYGON12), (0, 11)),
                                 ("fountain_runs", lambda: fountain(0, FOUNTAIN_RUNS), (-6, 6))):
        members = make().members_in_window(lo, hi)
        out[f"flip_us_{name}"] = 1e6 * time_median(make, lambda T, ms=members: [T.flip(t) for t in ms]) / len(members)
    for w in MEMBER_WIDTHS:
        out[f"crossers_member_ms_w{w}"] = 1e3 * time_median(fresh, lambda T, t=at(w - 2): T.crossers(t))
    for k in KS:
        d = arc_crossing(fresh(), k)
        out[f"crossers_us_k{k}"] = 1e6 * time_median(fresh, lambda T, d=d: T.crossers(d))
    for h in TILING_HALF_WIDTHS:
        cells = (2 * h - 1) * 2 * h // 2
        out[f"tiling_us_per_cell_h{h}"] = 1e6 * time_median(fresh, lambda T, h=h: tiling_window(T, -h, h)) / cells
    for h in RECURRENCE_HALF_WIDTHS:
        out[f"recurrence_ms_h{h}"] = 1e3 * time_median(fresh, lambda T, h=h: recurrence_window(T, -h, h))
    for h in FRONTIER_HALF_WIDTHS:
        cells = (2 * h + 1) ** 2
        out[f"frontier_us_per_cell_h{h}"] = 1e6 * time_median(
            lambda: Frontier("RRUURRRUUR"), lambda F, h=h: extend_frontier(F, (-h, -h, h, h))) / cells
    out["frontier_ms_off100"] = 1e3 * time_median(
        lambda: Frontier("RU"), lambda F: extend_frontier(F, (100, 100, 102, 102)))
    return out


if __name__ == "__main__":
    compare(
        __doc__, OUT, ROUNDS,
        lambda trees: {name: child(__file__, src) for name, src in trees.items()},
        family="nested_zigzag(0) unless the figure names another, a fresh value per timed call",
        unit="us, or ms where the figure's name says _ms_")
