"""The library names the benchmark reads still exist.

`perfbench/` wraps and calls library functions by name, so renaming or
deleting one breaks a benchmark run, not a library test.  These tests read
the perfbench sources as text (nothing there is imported or run) and
resolve every name they take from the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

from infcc.laurent import LaurentPoly
from infcc.triangulation import Triangulation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _tracer_targets():
    """(module, attribute or Class.method) of every entry of tracer.TARGETS."""
    for node in ast.walk(_tree("tracer.py")):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("module,name", _tracer_targets())
def test_every_tracer_target_resolves(module, name):
    owner = importlib.import_module(f"infcc.{module}")
    *cls, attr = name.split(".")
    if cls:  # a method is wrapped on its class, so it must be defined there
        owner = vars(owner)[cls[0]]
        assert callable(vars(owner).get(attr)), f"{module}.{name}"
    else:
        assert callable(getattr(owner, attr, None)), f"{module}.{name}"


def _chain(node):
    """The dotted names of an attribute chain rooted at a plain name, or None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id] + names[::-1] if isinstance(node, ast.Name) else None


def _package_reads(filename, values):
    """Every dotted name the file reads off the package, from `import infcc`
    and `from infcc[.x] import y` bindings, and off the local names in
    `values` (name -> the library class of the value it holds)."""
    tree = _tree(filename)
    roots = {"infcc": "infcc", **values}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "infcc":
            for alias in node.names:
                roots[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                reads.add((alias.asname or alias.name, ()))  # the imported name itself
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in roots:
            reads.add((chain[0], tuple(chain[1:])))
    return roots, sorted(reads, key=str)


# in workloads.py a `T` holds a triangulation and a `p` a cc value
VALUES = {"workloads.py": {"T": Triangulation, "p": LaurentPoly}, "run.py": {}}


def _resolve(path):
    """The object at a dotted path below `infcc`, importing submodules on the way."""
    obj = importlib.import_module("infcc")
    for i, name in enumerate(path.split(".")[1:], start=2):
        try:
            obj = getattr(obj, name)
        except AttributeError:
            obj = importlib.import_module(".".join(path.split(".")[:i]))
    return obj


@pytest.mark.parametrize("filename", sorted(VALUES))
def test_every_package_name_the_benchmark_reads_exists(filename):
    roots, reads = _package_reads(filename, VALUES[filename])
    for root, attrs in reads:
        obj = roots[root]
        obj = _resolve(obj) if isinstance(obj, str) else obj
        for attr in attrs:
            assert hasattr(obj, attr), f"{filename}: {root}.{'.'.join(attrs)}"
            if attr in ("__file__", "base"):
                break  # a path, and a slot that __init__ fills
            obj = getattr(obj, attr)


def test_the_reads_include_the_names_a_deletion_would_break():
    _, reads = _package_reads("workloads.py", VALUES["workloads.py"])
    assert ("tilings", ("recurrence_window",)) in reads
    assert ("T", ("classify",)) in reads
