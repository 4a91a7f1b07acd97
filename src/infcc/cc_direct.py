"""Direct cluster-character formula on finite polygon models.

Independent route to the same Laurent polynomials as the exchange
recursion: for an arc c of a triangulated polygon,

    value(c) = x^(-coindex(rotate(c, 1))) * sum over submodule classes e
               of the string module of c of  chi(e) * x^(theta(e)),

with chi(e) = 1 for every realised class (multiplicity-free strings).  The
agreement of this assembly with the exchange engine pins down all sign and
orientation conventions at once, so the two implementations cross-check
each other exactly.
"""

from __future__ import annotations

from .arcs import Arc, Seg
from .ktheory import ModClass, coindex, theta
from .laurent import LaurentPoly
from .modules import g_module, submodule_classes
from .triangulation import Triangulation


def cc_direct(P: Triangulation, c: Seg) -> LaurentPoly:
    """Laurent polynomial of c assembled from submodule counts."""
    if not P.is_polygon:
        raise ValueError("the direct formula is implemented on polygon models only")
    if isinstance(c, Arc) and not (P.base.lo <= c.m and c.n <= P.base.hi):
        raise ValueError(f"{tuple(c)} lies outside the polygon")
    co = coindex(P, P.rotate(c, 1))
    acc = LaurentPoly.zero()
    for e, chi in submodule_classes(g_module(P, c)).entries:
        term = LaurentPoly.monomial(theta(P, ModClass(e)).coeffs)
        acc = acc + term * chi
    return LaurentPoly.monomial({a: -k for a, k in co.coeffs.items()}) * acc
