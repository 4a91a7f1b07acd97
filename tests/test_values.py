"""Value semantics of the immutable types.

The bases, `Triangulation`, `StringModule`, `Frontier` and `CCSession` are
slotted `Frozen` classes: fields cannot be reassigned, equality, hashing
and repr read the fields named in `_fields` only, and no value compares
equal to a plain tuple.  A session equals only itself and is unhashable.
The returned records are NamedTuples.
"""

import importlib
import pkgutil

import pytest

import infcc
from infcc.arcs import Arc, Frozen
from infcc.errors import InvalidModule, InvalidSpec
from infcc.exchange import CCSession, cc, is_reachable
from infcc.modules import StringModule, g_module, submodule_classes
from infcc.reduction import reduce, u_of
from infcc.tilings import Frontier, tiling_window
from infcc.triangulation import (FountainBase, PolygonBase, StaircaseBase, Triangulation, fountain, polygon,
                                 staircase)

FAMILIES = {
    "fountain": (fountain(0), Arc(0, 2)),
    "staircase": (staircase((0, 2), "UUR"), Arc(0, 2)),
    "polygon": (polygon(0, 5, [(0, 2), (0, 3), (0, 4)]), Arc(0, 3)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_flips_that_undo_each_other_give_an_equal_value(family):
    T, t = FAMILIES[family]
    res = T.flip(t)
    back = res.new_triangulation.flip(res.replacement).new_triangulation
    assert back is not T
    assert back == T and hash(back) == hash(T)
    assert res.new_triangulation != T
    assert len({T, back, res.new_triangulation}) == 2


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fields_cannot_be_assigned(family):
    T, _ = FAMILIES[family]
    with pytest.raises(AttributeError):
        T.added = frozenset()
    with pytest.raises(AttributeError):
        T.new_field = 1
    with pytest.raises(AttributeError):
        del T.base
    field = {"fountain": "fountain", "staircase": "word", "polygon": "hi"}[family]
    with pytest.raises(AttributeError):
        setattr(T.base, field, 3)
    # the fan memo is derived data: filling it changes no field
    T.fan(1)
    assert T == FAMILIES[family][0]


def test_other_values_cannot_be_assigned():
    P, _ = FAMILIES["polygon"]
    values = [(g_module(P, Arc(1, 5)), "walk"), (Frontier("UR"), "word"),
              (CCSession(), "memo"), (P.flip(Arc(0, 3)), "replaced"),
              (tiling_window(staircase((0, 2), ""), 0, 4), "values")]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def test_values_never_equal_tuples():
    bases = [(FountainBase(0), (0,)),
             (StaircaseBase(Arc(0, 2), "UU"), (Arc(0, 2), "UU")),
             (PolygonBase(0, 3, frozenset({Arc(0, 2)})), (0, 3, frozenset({Arc(0, 2)})))]
    for base, fields in bases:
        assert base != fields and fields != base
        assert base == type(base)(*fields)
    T = fountain(0)
    assert T != (T.base, T.added, T.removed)
    M = g_module(polygon(0, 4, [(0, 2), (0, 3)]), Arc(1, 4))
    assert M != (M.walk, M.dirs) and M == StringModule(M.walk, M.dirs)
    assert Frontier("UR") != ("UR", 0, None) and Frontier("UR") == Frontier("UR", 0)
    # the families never equal one another either
    assert FountainBase(0) != StaircaseBase(Arc(0, 2), "")


def test_string_module_walk_checks():
    with pytest.raises(InvalidModule, match="a walk of 1 vertices needs 0 directions, got 1"):
        StringModule((Arc(0, 2),), (1,))
    with pytest.raises(InvalidModule, match="multiplicity-free"):
        StringModule((Arc(0, 2), Arc(0, 2)), (1,))
    assert not StringModule((), ()) and len(StringModule((Arc(0, 2),), ())) == 1


def test_session_pivot_is_checked():
    with pytest.raises(InvalidSpec, match="pivot must be 'first' or 'last'"):
        CCSession(pivot="middle")
    session = CCSession(pivot="last")
    cc(fountain(0), Arc(1, 4), session)
    assert session.memo and session == session and session != CCSession(pivot="last")
    assert CCSession() != CCSession()
    with pytest.raises(TypeError):
        hash(session)


def test_a_session_subclass_keeps_identity_equality():
    class Tracked(CCSession):  # as a tracer wraps it: a plain subclass
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)

    session = Tracked()
    assert session == session and session != Tracked()
    with pytest.raises(TypeError):
        hash(session)


# values whose repr evaluates back to an equal value
ROUND_TRIPS = {
    **{f"{family}-base": T.base for family, (T, _) in FAMILIES.items()},
    **{f"{family}-flipped": T.flip(t).new_triangulation for family, (T, t) in FAMILIES.items()},
    "StringModule": g_module(FAMILIES["polygon"][0], Arc(1, 5)),
    "Frontier": Frontier("URRU", 2),
    "Frontier-start": Frontier("UR", 1, (-3, 4)),
}
NAMESPACE = {cls.__name__: cls for cls in (Arc, FountainBase, StaircaseBase, PolygonBase, Triangulation,
                                           StringModule, Frontier)}


@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_repr_evaluates_to_an_equal_value(name):
    v = ROUND_TRIPS[name]
    back = eval(repr(v), NAMESPACE)
    assert back is not v and back == v and hash(back) == hash(v)


def _frozen_classes():
    for info in pkgutil.iter_modules(infcc.__path__, "infcc."):
        importlib.import_module(info.name)
    seen, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
    return {cls.__name__: cls for cls in seen if cls.__module__.startswith("infcc.")}


def test_value_methods_come_from_frozen():
    classes = _frozen_classes()
    assert {"FountainBase", "StaircaseBase", "PolygonBase", "Triangulation", "StringModule",
            "Frontier", "CCSession"} <= set(classes)
    # the session's documented opt-outs: identity equality, no hash
    opt_outs = {("CCSession", "__eq__"): object.__eq__, ("CCSession", "__hash__"): None}
    for name, cls in classes.items():
        for method in ("__eq__", "__hash__", "__repr__"):
            expected = opt_outs.get((name, method), Frozen.__dict__[method])
            assert getattr(cls, method) is expected, (name, method)
        slots = {s for k in cls.__mro__ for s in k.__dict__.get("__slots__", ())}
        assert cls._fields and set(cls._fields) <= slots, name


# repr strings as the earlier dataclass versions printed them
REPRS = [
    (lambda: fountain(0, [(0, 2)]),
     "Triangulation(base=FountainBase(fountain=0), added=frozenset({Arc(m=1, n=3)}), "
     "removed=frozenset({Arc(m=0, n=2)}))"),
    (lambda: staircase((0, 2), "UUR", [(0, 2)]),
     "Triangulation(base=StaircaseBase(entry=Arc(m=0, n=2), word='UU'), "
     "added=frozenset({Arc(m=-1, n=1)}), removed=frozenset({Arc(m=0, n=2)}))"),
    (lambda: polygon(0, 3, [(0, 2)], [(0, 2)]),
     "Triangulation(base=PolygonBase(lo=0, hi=3, diagonals=frozenset({Arc(m=0, n=2)})), "
     "added=frozenset({Arc(m=1, n=3)}), removed=frozenset({Arc(m=0, n=2)}))"),
    (lambda: Frontier("UR", 1), "Frontier(word='UR', anchor=1, start=None)"),
    (lambda: g_module(polygon(0, 4, [(0, 2), (0, 3)]), Arc(1, 4)),
     "StringModule(walk=(Arc(m=0, n=2), Arc(m=0, n=3)), dirs=(1,))"),
    (lambda: CCSession(), "CCSession(pivot='first', memo={})"),
    (lambda: is_reachable(fountain(0), Arc(1, 4)),
     "ReachabilityVerdict(reachable=True, region='e_plus', fountain=0)"),
    (lambda: tiling_window(staircase((0, 2), ""), 0, 3),
     "TilingWindow(kind='half_plane', values={(0, 2): 1, (0, 3): 2, (1, 3): 3})"),
    (lambda: submodule_classes(g_module(polygon(0, 4, [(0, 2), (0, 3)]), Arc(1, 4))),
     "SubmoduleClassTable(entries=(({}, 1), ({Arc(m=0, n=3): 1}, 1), "
     "({Arc(m=0, n=2): 1, Arc(m=0, n=3): 1}, 1)))"),
    (lambda: reduce(polygon(0, 4, [(0, 2), (0, 3)]), Arc(0, 3)),
     "ReducedModel(model=Triangulation(base=PolygonBase(lo=0, hi=3, "
     "diagonals=frozenset({Arc(m=0, n=2)})), added=frozenset(), removed=frozenset()), "
     "t=Arc(m=0, n=3), rank=1)"),
    (lambda: u_of(fountain(0), Arc(0, 2)),
     "USpec(ambient=Triangulation(base=FountainBase(fountain=0), added=frozenset(), "
     "removed=frozenset()), removed=frozenset(), t=Arc(m=0, n=2))"),
]


@pytest.mark.parametrize("make, expected", REPRS, ids=[e.split("(")[0] for _, e in REPRS])
def test_repr_is_unchanged(make, expected):
    assert repr(make()) == expected
