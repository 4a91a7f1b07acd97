"""The lazy package namespace: names, star import, dir, and what loads."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import infcc

from tests.subproc import src_env

# every public name of the package, by the submodule that defines it
EXPORTS = {
    "arcs": ["Arc", "Edge", "arc", "crosses", "seg", "shift", "spans"],
    "errors": ["ExactnessFailure", "ExponentOverflow", "FlipTargetNotMember", "InfccError",
               "InfiniteCrossers", "InvalidArc", "InvalidModule", "InvalidSpec",
               "NonAdmissibleFrontier", "NotAMember", "NotAPolygon", "NotLocallyFinite",
               "NotMaximal", "SupportMeetsU", "TooLarge", "Unreachable", "UnknownFamily",
               "WrongFamily"],
    "exchange": ["CCSession", "ReachabilityVerdict", "cc", "cc_multiset", "is_reachable"],
    "laurent": ["LaurentPoly", "format_fraction"],
    "cc_direct": ["cc_direct"],
    "ktheory": ["ModClass", "SplitK0Class", "coindex", "index", "theta", "theta_simple"],
    "modules": ["StringModule", "count_submodules", "g_module", "submodule_classes"],
    "reduction": ["ReducedModel", "USpec", "cc_bar", "perp", "pi_star", "reduce", "u_of"],
    "tilings": ["Frontier", "TilingWindow", "extend_frontier", "frontier_to_triangulation",
                "q_overlap_fill", "tiling_window", "verify_sl2"],
    "triangulation": ["Diagnosis", "FlipResult", "Quiver", "Triangulation",
                      "all_polygon_triangulations", "build", "fountain", "nested_zigzag",
                      "polygon", "polygon_diagonals", "random_polygon_triangulation",
                      "staircase"],
}
NAMES = {name for names in EXPORTS.values() for name in names}
# the submodules the eager __init__ left bound (cc_direct is the function)
SUBMODULES = set(EXPORTS) - {"cc_direct"}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_names_are_the_submodule_objects(module):
    mod = importlib.import_module(f"infcc.{module}")
    for name in EXPORTS[module]:
        assert getattr(infcc, name) is getattr(mod, name), name
    if module != "cc_direct":
        assert getattr(infcc, module) is mod


def test_every_error_class_is_exported():
    from infcc import errors

    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert classes == set(EXPORTS["errors"])


def test_star_import_binds_the_same_public_names():
    ns = {}
    exec("from infcc import *", ns)
    assert set(ns) - {"__builtins__"} == NAMES | SUBMODULES
    assert set(infcc.__all__) == NAMES | SUBMODULES


def test_dir_lists_every_name():
    assert NAMES | SUBMODULES | {"cli", "verify", "__version__"} <= set(dir(infcc))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        infcc.no_such_name
    with pytest.raises(ImportError):
        from infcc import no_such_name  # noqa: F401


def test_no_assert_in_the_package():
    # python -O strips asserts, so no check the package relies on may be one
    found = []
    for path in sorted(Path(infcc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_plain_import_loads_no_submodule():
    # a fresh interpreter: the test process has loaded every submodule
    code = """
import json, sys
import infcc
loaded = sorted(m for m in sys.modules if m.startswith("infcc"))
import infcc.cc_direct  # binding the submodule must not hide the function
print(json.dumps({"loaded": loaded, "cc_direct": callable(infcc.cc_direct)}))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": ["infcc"], "cc_direct": True}
