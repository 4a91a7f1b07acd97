from hypothesis import given
from hypothesis import strategies as st

from infcc.arcs import Arc, Edge, arc, crosses, seg, shift, spans

import pytest

coord = st.integers(-50, 50)


def arcs():
    return st.tuples(coord, st.integers(2, 20)).map(lambda t: Arc(t[0], t[0] + t[1]))


def test_crossing_examples():
    assert crosses(Arc(0, 2), Arc(1, 3))
    assert not crosses(Arc(0, 2), Arc(2, 4))  # shared endpoint
    assert not crosses(Arc(-2, 4), Arc(0, 3))  # nested


def test_spanning_examples():
    assert spans(Arc(0, 5), Arc(1, 3))
    assert not spans(Arc(0, 5), Arc(0, 5))
    assert spans(Arc(-3, 0), Arc(-2, 0))


def test_shift_examples():
    assert shift(Arc(1, 3), 1) == Arc(0, 2)
    assert shift(Arc(0, 3), -2) == Arc(2, 5)
    assert shift(Arc(0, 2), 0) == Arc(0, 2)
    assert shift(Edge(4), 3) == Edge(1)


def test_constructors():
    assert arc(0, 2) == Arc(0, 2)
    with pytest.raises(ValueError):
        arc(0, 1)
    assert seg(3, 4) == Edge(3)
    assert seg(3, 5) == Arc(3, 5)
    with pytest.raises(ValueError):
        seg(3, 3)


@given(arcs(), arcs())
def test_crosses_symmetric_irreflexive(a, b):
    assert crosses(a, b) == crosses(b, a)
    assert not crosses(a, a)


@given(arcs(), arcs())
def test_spans_excludes_crossing(a, b):
    assert not spans(a, a)
    if spans(a, b):
        assert not crosses(a, b)


@given(arcs(), arcs(), st.integers(-10, 10))
def test_shift_preserves_crossing(a, b, k):
    assert crosses(a, b) == crosses(shift(a, k), shift(b, k))


@given(arcs(), st.integers(-8, 8), st.integers(-8, 8))
def test_shift_composes(a, j, k):
    assert shift(shift(a, j), k) == shift(a, j + k)
