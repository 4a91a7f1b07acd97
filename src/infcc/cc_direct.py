"""Direct cluster-character formula on finite polygon models.

Independent route to the same Laurent polynomials as the exchange
recursion: for an arc c of a triangulated polygon,

    value(c) = x^(index(c)) * sum over submodules N of the string module
               of c of  x^(theta(N)),

with chi = 1 for every class (multiplicity-free strings).  The paper's
factor x^(-coindex(rotate(c, 1))) is x^(index(c)): both read the socle of
the module of c and the top of the module of rotate(c, -1), so the module
of c, built once, serves the index and the sum.  theta is additive, so the
sum is the submodule transfer `modules.submodule_sum` with weight
y_v = x^theta(S_v) at each walk vertex v: one theta_simple per vertex and
O(k) Laurent products.  The agreement of this assembly with the exchange
engine pins down all sign and orientation conventions at once, so the two
implementations cross-check each other exactly.
"""

from __future__ import annotations

from .arcs import Seg
from .ktheory import _index_of, theta_simple
from .laurent import ONE, LaurentPoly, VarIndex
from .modules import g_module, submodule_sum
from .triangulation import Triangulation


def cc_direct(P: Triangulation, c: Seg) -> LaurentPoly:
    """Laurent polynomial of c assembled from its submodule transfer.

    Builds the string module of c and, unless it is zero, that of
    rotate(c, -1) for the index.
    Raises NotAPolygon off the polygon models, and InvalidArc on an arc or
    an Edge off the polygon (`check_seg`).
    """
    P.require_polygon("cc_direct")
    P.check_seg(c)
    slots = VarIndex()
    M = g_module(P, c)
    ys = (LaurentPoly.monomial(theta_simple(P, v).coeffs, slots) for v in M.walk)
    return LaurentPoly.monomial(_index_of(P, c, M).coeffs, slots) * submodule_sum(M, ys, ONE)
