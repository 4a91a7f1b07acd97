"""Exact arc combinatorics, cluster variables, and unimodular tilings.

The package models indecomposable objects as integer arcs, cluster tilting
subcategories as (possibly infinite) triangulations, and computes cluster
variables two independent ways: one Ptolemy exchange per member an arc
crosses, in a single pass back along the crossers, which works on the
infinite families, and a direct submodule-counting formula on finite
polygon models.  Reduction to polygons, split K-theory bookkeeping, and
tiling generation tie the routes together with exact integer arithmetic.

The namespace is lazy (PEP 562): ``import infcc`` loads no submodule, and
a public name or a submodule loads its module on first use, so a process
compiles only the modules it runs.
"""

import sys
from importlib import import_module

__version__ = "1.0.0"

# submodule -> the public names it defines
_EXPORTS = {
    "arcs": ("Arc", "Edge", "arc", "crosses", "seg", "shift", "spans"),
    "errors": ("ExactnessFailure", "ExponentOverflow", "FlipTargetNotMember", "InfccError",
               "InfiniteCrossers", "InvalidArc", "InvalidModule", "InvalidSpec",
               "NonAdmissibleFrontier", "NotAMember", "NotAPolygon", "NotLocallyFinite",
               "NotMaximal", "SupportMeetsU", "TooLarge", "Unreachable", "UnknownFamily",
               "WrongFamily"),
    "exchange": ("CCSession", "ReachabilityVerdict", "cc", "cc_multiset", "is_reachable"),
    "laurent": ("LaurentPoly", "format_fraction"),
    "cc_direct": ("cc_direct",),
    "ktheory": ("ModClass", "SplitK0Class", "coindex", "index", "theta", "theta_simple"),
    "modules": ("StringModule", "count_submodules", "g_module", "submodule_classes"),
    "reduction": ("ReducedModel", "USpec", "cc_bar", "perp", "pi_star", "reduce", "u_of"),
    "tilings": ("Frontier", "TilingWindow", "extend_frontier", "frontier_to_triangulation",
                "q_overlap_fill", "tiling_window", "verify_sl2"),
    "triangulation": ("Diagnosis", "FlipResult", "Quiver", "Triangulation",
                      "all_polygon_triangulations", "build", "fountain", "nested_zigzag",
                      "polygon", "polygon_diagonals", "random_polygon_triangulation",
                      "staircase"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "verify"}

# What `from infcc import *` binds: the public names, and the submodules
# that are not shadowed by a name (`cc_direct` is the function).  `cli` and
# `verify` load on first use only.
__all__ = sorted(_ORIGIN.keys() | (_EXPORTS.keys() - _ORIGIN.keys()))


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _ORIGIN.keys() | _SUBMODULES)


class _Package(type(sys)):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on the package; the submodule
        # `cc_direct` must not replace the function of the same name.
        if name in _ORIGIN and isinstance(value, type(sys)):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
