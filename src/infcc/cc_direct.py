"""Direct cluster-character formula on finite polygon models.

Independent route to the same Laurent polynomials as the exchange
recursion: for an arc c of a triangulated polygon,

    value(c) = x^(-coindex(rotate(c, 1))) * sum over submodules N of the
               string module of c of  x^(theta(N)),

with chi = 1 for every class (multiplicity-free strings).  theta is
additive, so the sum is the submodule transfer `modules.submodule_sum`
with weight y_v = x^theta(S_v) at each walk vertex v: one theta_simple
per vertex and O(k) Laurent products.  The agreement of this assembly with
the exchange engine pins down all sign and orientation conventions at
once, so the two implementations cross-check each other exactly.
"""

from __future__ import annotations

from .arcs import Seg
from .ktheory import coindex, theta_simple
from .laurent import ONE, LaurentPoly, VarIndex
from .modules import g_module, submodule_sum
from .triangulation import Triangulation


def cc_direct(P: Triangulation, c: Seg) -> LaurentPoly:
    """Laurent polynomial of c assembled from its submodule transfer.

    Raises NotAPolygon off the polygon models, and InvalidArc on an arc or
    an Edge off the polygon (`check_seg`, through `crossers` and `rotate`).
    """
    P.require_polygon("cc_direct")
    index = VarIndex()
    M = g_module(P, c)
    ys = (LaurentPoly.monomial(theta_simple(P, v).coeffs, index) for v in M.walk)
    co = coindex(P, P.rotate(c, 1))
    return LaurentPoly.monomial({a: -k for a, k in co.coeffs.items()}, index) * submodule_sum(M, ys, ONE)
