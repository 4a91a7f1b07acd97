"""Unimodular integer tilings from triangulations and from frontiers.

A tiling window is a finite table of positive integers indexed by pairs
(i, j).  Half-plane windows live on Q = {(i, j) : i <= j - 2} and must
satisfy

    r(i,j) r(i+1,j+1) - r(i,j+1) r(i+1,j) = 1          (all 2x2 blocks)
    r(i,i+2) r(i+1,i+3) - r(i,i+3) = 1                 (edge relation)

while full-plane windows satisfy the 2x2 relation everywhere.

`tiling_window` produces the half-plane tiling of a locally finite
triangulation cell by cell: r(i, j) counts the submodules of the string
module of the arc (i, j), independently per cell, so the determinant
relations act as a cross-check instead of an error-compounding generator.

A frontier is a bi-infinite staircase path of 1's: it reads a U/R word
from its origin and alternates strictly beyond it in both directions.  The
origin is (anchor, anchor + 2) on the bottom row of Q, or any cell given as
`start=`.  `extend_frontier` propagates the 2x2 relation away from the path
on both sides, and `frontier_to_triangulation` is the staircase family that
starts at the path's bottom-row point.  Steps use matrix orientation: 'U'
moves up a row (i - 1), 'R' moves right a column (j + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from .arcs import Arc
from .errors import ExactnessFailure, NonAdmissibleFrontier, NotLocallyFinite
from .modules import count_submodules, g_module
from .triangulation import Triangulation, path_letter, path_point, path_reach, path_steps, staircase

Cell = Tuple[int, int]


def _in_q(p: Cell) -> bool:
    return p[0] <= p[1] - 2


@dataclass(frozen=True)
class TilingWindow:
    kind: str  # 'half_plane' | 'plane'
    values: Dict[Cell, int]

    def get(self, i: int, j: int) -> Optional[int]:
        return self.values.get((i, j))

    def bounds(self) -> Tuple[int, int, int, int]:
        cells = self.values
        return (
            min(i for i, _ in cells), min(j for _, j in cells),
            max(i for i, _ in cells), max(j for _, j in cells),
        )


class Violation(NamedTuple):
    kind: str  # 'unimodular' | 'edge'
    at: Cell
    lhs: int
    rhs: int


def tiling_window(T: Triangulation, lo: int, hi: int) -> TilingWindow:
    """Half-plane tiling of a locally finite triangulation on [lo, hi].

    r(i, j) is the submodule count of the string module of the arc (i, j);
    members and only members give r = 1.  Raises ValueError on a window
    that holds no arc, hi - lo < 2.
    """
    if hi - lo < 2:
        raise ValueError(f"window [{lo},{hi}] holds no arc: need lo <= hi - 2")
    cls = T.classify()
    if cls.kind == "fountain":
        raise NotLocallyFinite(f"fountain at {cls.fountain}: straddling cells cross infinitely many members")
    if cls.kind != "locally_finite":
        raise ValueError("tiling_window needs an infinite locally finite triangulation")
    values = {}
    for i in range(lo, hi - 1):
        for j in range(i + 2, hi + 1):
            values[(i, j)] = count_submodules(g_module(T, Arc(i, j)))
    return TilingWindow("half_plane", values)


def recurrence_window(T: Triangulation, lo: int, hi: int, pad: int = 3,
                      strict: bool = True) -> Dict[Cell, int]:
    """Half-plane window by determinant propagation from the members' 1's.

    Independent of submodule counting: seeds 1 at every member of a padded
    window and fills the rest with the two determinant relations.  With
    `strict` every window cell must resolve (ExactnessFailure otherwise);
    without it the determined sub-window is returned, which is the honest
    result for member configurations the local propagation cannot finish.
    """
    cls = T.classify()
    if cls.kind == "fountain":
        raise NotLocallyFinite(f"fountain at {cls.fountain}")
    values: Dict[Cell, int] = {
        (a.m, a.n): 1 for a in T.members_in_window(lo - pad, hi + pad)
    }
    targets = {
        (i, j)
        for i in range(lo - pad, hi + pad - 1)
        for j in range(i + 2, hi + pad + 1)
    }
    _propagate(values, targets, q_only=True, edge=True)
    missing = [p for p in targets if p not in values and lo <= p[0] and p[1] <= hi]
    if strict and missing:
        raise ExactnessFailure(f"undetermined cells {missing[:4]} (window too small?)")
    return {p: v for p, v in values.items() if lo <= p[0] and p[1] <= hi}


def verify_sl2(W: TilingWindow) -> List[Violation]:
    """All violated determinant relations on the window; empty means valid."""
    r = W.values
    out = []
    for (i, j) in sorted(r):
        block = [(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)]
        if all(p in r for p in block):
            lhs = r[(i, j)] * r[(i + 1, j + 1)] - r[(i, j + 1)] * r[(i + 1, j)]
            if lhs != 1:
                out.append(Violation("unimodular", (i, j), lhs, 1))
    if W.kind == "half_plane":
        for (i, j) in sorted(r):
            if j == i + 2 and (i, i + 3) in r and (i + 1, i + 3) in r:
                lhs = r[(i, i + 2)] * r[(i + 1, i + 3)] - r[(i, i + 3)]
                if lhs != 1:
                    out.append(Violation("edge", (i, j), lhs, 1))
    return out


# ---------------------------------------------------------------------------
# frontiers


@dataclass(frozen=True)
class Frontier:
    """The staircase path of 1's through `origin` and `word` (`path_point`)."""

    word: str
    anchor: int = 0
    start: Optional[Cell] = None

    def __post_init__(self):
        if any(ch not in "UR" for ch in self.word):
            raise NonAdmissibleFrontier(f"letters must be U/R, got {self.word!r}")

    @property
    def origin(self) -> Cell:
        return self.start if self.start is not None else (self.anchor, self.anchor + 2)

    def points_covering(self, i_lo: int, j_lo: int, i_hi: int, j_hi: int) -> List[Cell]:
        """Path points until the staircase has passed the given rectangle.

        From the first point before the origin with i > i_hi + 1 and
        j < j_lo - 1 to the first point from the origin on with i < i_lo - 1
        and j > j_hi + 1: the steps to each end hold enough U's and R's.
        """
        (i, j), word = self.origin, self.word
        back = path_letter(word, -1)
        first = -max(1, path_reach(back, "U", i_hi + 2 - i), path_reach(back, "R", j - j_lo + 2))
        end = max(path_reach(word, "U", i - i_lo + 2), path_reach(word, "R", j_hi + 2 - j))
        i, j = path_point(self.origin, word, first)
        pts = [(i, j)]
        for ch in path_steps(word, first, end):
            if ch == "U":
                i -= 1
            else:
                j += 1
            pts.append((i, j))
        return pts


def _solve_square(r: Dict[Cell, int], a: int, b: int, missing: Cell) -> int:
    """Solve the unimodular relation on the square anchored at (a, b)."""
    p00, p01, p10, p11 = (a, b), (a, b + 1), (a + 1, b), (a + 1, b + 1)
    if missing == p00:
        num, den = 1 + r[p01] * r[p10], r[p11]
    elif missing == p11:
        num, den = 1 + r[p01] * r[p10], r[p00]
    elif missing == p01:
        num, den = r[p00] * r[p11] - 1, r[p10]
    else:
        num, den = r[p00] * r[p11] - 1, r[p01]
    return _div_positive(num, den, missing)


def _div_positive(num: int, den: int, cell: Cell) -> int:
    if den == 0 or num % den != 0 or num // den <= 0:
        raise ExactnessFailure(f"cell {cell}: {num}/{den} is not a positive integer")
    return num // den


def _propagate(values: Dict[Cell, int], targets: set, *, q_only: bool, edge: bool) -> None:
    """Fill target cells by the determinant relations until a fixpoint.

    q_only restricts the 2x2 relation to squares lying inside the half
    plane; `edge` additionally uses the boundary-row relation
    r(i,i+2) r(i+1,i+3) - r(i,i+3) = 1.
    """
    pending = set(targets) - set(values)
    progress = True
    while pending and progress:
        progress = False
        for cell in sorted(pending):
            v = _try_cell(values, cell, q_only, edge)
            if v is not None:
                values[cell] = v
                pending.discard(cell)
                progress = True
    return None


def _try_cell(r: Dict[Cell, int], cell: Cell, q_only: bool, edge: bool) -> Optional[int]:
    i, j = cell
    for a, b in ((i, j), (i - 1, j), (i, j - 1), (i - 1, j - 1)):
        square = [(a, b), (a, b + 1), (a + 1, b), (a + 1, b + 1)]
        if q_only and not all(_in_q(p) for p in square):
            continue
        if all(p in r for p in square if p != cell):
            return _solve_square(r, a, b, cell)
    if edge:
        if j == i + 2:
            if (i, i + 3) in r and (i + 1, i + 3) in r:
                return _div_positive(1 + r[(i, i + 3)], r[(i + 1, i + 3)], cell)
            if (i - 1, i + 1) in r and (i - 1, i + 2) in r:
                return _div_positive(1 + r[(i - 1, i + 2)], r[(i - 1, i + 1)], cell)
        if j == i + 3 and (i, i + 2) in r and (i + 1, i + 3) in r:
            return r[(i, i + 2)] * r[(i + 1, i + 3)] - 1
    return None


def extend_frontier(F: Frontier, bbox: Tuple[int, int, int, int]) -> TilingWindow:
    """Extend the frontier's 1's to a full-plane window over bbox.

    bbox is (i_lo, j_lo, i_hi, j_hi).  Every division must be exact and
    every value positive; a failure falsifies admissibility and raises.
    """
    i_lo, j_lo, i_hi, j_hi = bbox
    if i_lo > i_hi or j_lo > j_hi:
        raise ValueError("empty bbox")
    values: Dict[Cell, int] = {p: 1 for p in F.points_covering(i_lo, j_lo, i_hi, j_hi)}
    # fill the whole rectangle spanned by the bbox and the generated path:
    # determination chains may route just outside the requested bbox
    a_lo = min(i_lo, min(p[0] for p in values))
    a_hi = max(i_hi, max(p[0] for p in values))
    b_lo = min(j_lo, min(p[1] for p in values))
    b_hi = max(j_hi, max(p[1] for p in values))
    work = {(i, j) for i in range(a_lo, a_hi + 1) for j in range(b_lo, b_hi + 1)}
    _propagate(values, work, q_only=False, edge=False)
    targets = {(i, j) for i in range(i_lo, i_hi + 1) for j in range(j_lo, j_hi + 1)}
    missing = targets - set(values)
    if missing:
        raise ExactnessFailure(f"could not determine cells {sorted(missing)[:4]}...")
    return TilingWindow("plane", {p: v for p, v in values.items() if p in targets})


def q_overlap_fill(F: Frontier, lo: int, hi: int) -> Dict[Cell, int]:
    """Cells of Q determined by the frontier's 1's through Q-interior squares.

    This is the region where the full-plane extension and the half-plane
    tiling of the frontier's triangulation provably agree; cells whose
    determination would leave Q are omitted.
    """
    pts = [p for p in F.points_covering(lo, lo, hi, hi) if _in_q(p)]
    values: Dict[Cell, int] = {p: 1 for p in pts}
    targets = {(i, j) for i in range(lo, hi - 1) for j in range(i + 2, hi + 1)}
    _propagate(values, targets, q_only=True, edge=False)
    return {p: v for p, v in values.items() if p in targets}


def frontier_to_triangulation(F: Frontier) -> Triangulation:
    """The locally finite triangulation cut out by the frontier inside Q.

    It is the staircase from the path's bottom-row point k0: its word is
    the path's steps k0 .. len(word), one past the word to pin the phase of
    the tail.  Raises NonAdmissibleFrontier when the declared window misses
    Q entirely, i.e. when k0 > len(word).
    """
    o, word = F.origin, F.word
    k0 = 2 - (o[1] - o[0])
    if k0 > len(word):
        raise NonAdmissibleFrontier("frontier window lies outside the half plane")
    return staircase(path_point(o, word, k0), path_steps(word, k0, len(word) + 1))
