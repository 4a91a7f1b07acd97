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
`start=`.  Steps use matrix orientation: 'U' moves up a row (i - 1), 'R'
moves right a column (j + 1).  `extend_frontier` reads the full-plane
tiling off one walk along the path, r(i, j) = det(u_i, v_j)
(Bessenrodt-Holm-Jorgensen, Adv. Math. 2017), and `frontier_to_triangulation`
is the staircase family that starts at the path's bottom-row point.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .arcs import Arc, Frozen
from .errors import ExactnessFailure, InvalidSpec, NonAdmissibleFrontier
from .modules import count_submodules, g_module
from .triangulation import Triangulation, check_window, path_letter, path_point, path_reach, path_steps, staircase

Cell = Tuple[int, int]


def _in_q(p: Cell) -> bool:
    return p[0] <= p[1] - 2


class TilingWindow(NamedTuple):
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
    members and only members give r = 1.  Raises InvalidSpec on a window
    that holds no arc, hi - lo < 2, and as `require_locally_finite` on a
    fountain or a polygon.
    """
    check_window(lo, hi)
    T.require_locally_finite("tiling_window")
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
    Raises as `require_locally_finite` on a fountain or a polygon.
    """
    T.require_locally_finite("recurrence_window")
    values: Dict[Cell, int] = {(a.m, a.n): 1 for a in T.members_in_window(lo - pad, hi + pad)}
    targets = {(i, j) for i in range(lo - pad, hi + pad - 1) for j in range(i + 2, hi + pad + 1)}
    _propagate(values, targets, edge=True)
    missing = [p for p in targets if p not in values and lo <= p[0] and p[1] <= hi]
    if strict and missing:
        raise ExactnessFailure(f"undetermined cells {missing[:4]} (window too small?)")
    return {p: v for p, v in values.items() if lo <= p[0] and p[1] <= hi}


def verify_sl2(W: TilingWindow) -> List[Violation]:
    """All violated determinant relations on the window; empty means valid.

    On an `extend_frontier` window the 2x2 relations hold by construction
    (Plucker), so there this proves nothing: that route's independent
    checks are `q_overlap_fill` (criterion 8) and the tests' plane oracle.
    """
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


class Frontier(Frozen):
    """The staircase path of 1's through `origin` and `word` (`path_point`)."""

    __slots__ = _fields = ("word", "anchor", "start")

    def __init__(self, word: str, anchor: int = 0, start: Optional[Cell] = None):
        if any(ch not in "UR" for ch in word):
            raise NonAdmissibleFrontier(f"letters must be U/R, got {word!r}")
        self._set("word", word)
        self._set("anchor", anchor)
        self._set("start", start)

    @property
    def origin(self) -> Cell:
        return self.start if self.start is not None else (self.anchor, self.anchor + 2)

    def points_covering(self, i_lo: int, j_lo: int, i_hi: int, j_hi: int) -> Iterator[Cell]:
        """Path points, in order, until the staircase has passed the given rectangle.

        From the first point before the origin with i > i_hi + 1 and
        j < j_lo - 1 to the first point from the origin on with i < i_lo - 1
        and j > j_hi + 1: the steps to each end hold enough U's and R's.
        A generator, so a walk keeps only the points it needs.
        """
        (i, j), word = self.origin, self.word
        back = path_letter(word, -1)
        first = -max(1, path_reach(back, "U", i_hi + 2 - i), path_reach(back, "R", j - j_lo + 2))
        end = max(path_reach(word, "U", i - i_lo + 2), path_reach(word, "R", j_hi + 2 - j))
        i, j = path_point(self.origin, word, first)
        yield i, j
        for ch in path_steps(word, first, end):
            if ch == "U":
                i -= 1
            else:
                j += 1
            yield i, j


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


def _propagate(values: Dict[Cell, int], targets: set, *, edge: bool) -> None:
    """Fill target cells by the determinant relations until a fixpoint.

    The 2x2 relation is used on squares lying inside the half plane;
    `edge` additionally uses the boundary-row relation
    r(i,i+2) r(i+1,i+3) - r(i,i+3) = 1.  A worklist: every pending cell is
    tried once in sorted order, and again only after one of its eight
    neighbours (the cells its relations read) has been solved.
    """
    pending = set(targets).difference(values)
    queue = deque(sorted(pending))
    queued = set(pending)
    while queue:
        cell = queue.popleft()
        queued.discard(cell)
        v = _try_cell(values, cell, edge)
        if v is None:
            continue
        values[cell] = v
        pending.discard(cell)
        i, j = cell
        for nb in ((i - 1, j - 1), (i - 1, j), (i - 1, j + 1), (i, j - 1),
                   (i, j + 1), (i + 1, j - 1), (i + 1, j), (i + 1, j + 1)):
            if nb in pending and nb not in queued:
                queued.add(nb)
                queue.append(nb)


def _try_cell(r: Dict[Cell, int], cell: Cell, edge: bool) -> Optional[int]:
    i, j = cell
    for a, b in ((i, j), (i - 1, j), (i, j - 1), (i - 1, j - 1)):
        square = [(a, b), (a, b + 1), (a + 1, b), (a + 1, b + 1)]
        if not all(_in_q(p) for p in square):
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
    """The full-plane tiling through the frontier's 1's, over bbox (i_lo, j_lo, i_hi, j_hi).

    One walk along the path from u = (1, 0), v = (0, 1): a 'U' step sets
    u <- u - v and an 'R' step v <- v - u, so det(u, v) = 1 on the path.
    With u_i the u of row i and v_j the v of column j, r(i, j) = det(u_i, v_j);
    only the bbox's rows and columns are kept.  A value that is not positive
    falsifies admissibility and raises ExactnessFailure; an empty bbox
    raises InvalidSpec.
    """
    i_lo, j_lo, i_hi, j_hi = bbox
    if i_lo > i_hi or j_lo > j_hi:
        raise InvalidSpec("empty bbox")
    pts = F.points_covering(i_lo, j_lo, i_hi, j_hi)
    first = next(pts)
    (i, j), (a, b), (c, d) = first, (1, 0), (0, 1)
    rows, cols = {}, {}
    for p in chain((first,), pts):
        if p[0] < i:
            a, b = a - c, b - d
        elif p[1] > j:
            c, d = c - a, d - b
        i, j = p
        if i_lo <= i <= i_hi:
            rows[i] = (a, b)
        if j_lo <= j <= j_hi:
            cols[j] = (c, d)
    values = {(i, j): rows[i][0] * cols[j][1] - rows[i][1] * cols[j][0]
              for i in range(i_lo, i_hi + 1) for j in range(j_lo, j_hi + 1)}
    bad = [p for p, r in values.items() if r <= 0]
    if bad:
        raise ExactnessFailure(f"cells {bad[:4]}: the determinant is not positive")
    return TilingWindow("plane", values)


def q_overlap_fill(F: Frontier, lo: int, hi: int) -> Dict[Cell, int]:
    """Cells of Q determined by the frontier's 1's through Q-interior squares.

    This is the region where the full-plane extension and the half-plane
    tiling of the frontier's triangulation provably agree; cells whose
    determination would leave Q are omitted.
    """
    pts = [p for p in F.points_covering(lo, lo, hi, hi) if _in_q(p)]
    values: Dict[Cell, int] = {p: 1 for p in pts}
    targets = {(i, j) for i in range(lo, hi - 1) for j in range(i + 2, hi + 1)}
    _propagate(values, targets, edge=False)
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
