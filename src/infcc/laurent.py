"""Exact sparse Laurent polynomials with arc-indexed variables.

A polynomial is a map from packed exponent vectors to arbitrary-precision
integer coefficients.  The variables live on a `VarIndex`, an append-only
map Arc -> slot, and the exponent vector (e_a) packs into the one integer

    key = sum over arcs a of  e_a * 2**(FIELD_BITS * slot(a))

with signed, unbiased fields (Kronecker substitution; Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  Multiplying monomials adds their keys, dividing by
x_t subtracts 2**(FIELD_BITS * slot(t)) from every key, and the constant
monomial is the key 0 on every index.  Appending a slot leaves every key
valid, so polynomials built on one index (a `CCSession` owns one) combine
without repacking; polynomials on different indices are aligned by
repacking the one on the smaller index onto the larger, or onto a copy of
the larger when it lacks some of their arcs.  Only a polynomial's maker
appends to its index; operations never do.  Constants need no index.

Every polynomial carries a bound on |exponent|.  An operation whose result
could leave the field range |e| <= MAX_EXPONENT raises ExponentOverflow;
keys never wrap.  Keys are decoded in one pass per term: adding and then
xor-ing the bias 2**(FIELD_BITS - 1) in every field turns a key into its
fields' 32-bit two's complement bytes, read back as C ints.

Zero coefficients are never stored, so equality of term dicts on one index
is equality of polynomials; equality and hashing hold across indices.
Values are immutable by convention; every operation returns a fresh
polynomial.  Coefficients use Python integers: cluster variable
coefficients and tiling entries grow without bound.  The public exponent
vector (`ExpVec`) is the sorted tuple of (Arc, exponent) pairs with all
exponents nonzero, e.g.

    x[0,2]^2 * x[0,3]^-1  ->  ((Arc(0,2), 2), (Arc(0,3), -1))
"""

from __future__ import annotations

import sys
from functools import reduce
from itertools import chain, compress
from operator import or_
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .arcs import Arc
from .errors import ExponentOverflow

ExpVec = Tuple[Tuple[Arc, int], ...]
Exponents = Union[Mapping[Arc, int], Iterable[Tuple[Arc, int]]]

FIELD_BITS = 32  # the C int that decoding reads the fields as
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_BYTES = FIELD_BITS // 8


class VarIndex:
    """Append-only map Arc -> slot shared by the polynomials built on it."""

    __slots__ = ("arcs", "slots")

    def __init__(self):
        self.arcs: List[Arc] = []
        self.slots: Dict[Arc, int] = {}

    def __len__(self) -> int:
        return len(self.arcs)

    def slot(self, a: Arc) -> int:
        """The slot of a, appended when a is new."""
        s = self.slots.get(a)
        if s is None:
            s = self.slots[a] = len(self.arcs)
            self.arcs.append(a)
        return s

    def extended(self, arcs: Iterable[Arc]) -> "VarIndex":
        """self when it holds every arc of `arcs`, else a copy with the missing ones appended."""
        missing = [a for a in arcs if a not in self.slots]
        if not missing:
            return self
        out = VarIndex()
        for a in chain(self.arcs, missing):
            out.slot(a)
        return out


def _bias(n: int) -> int:
    """2**(FIELD_BITS - 1) in each of n fields."""
    return ((1 << (FIELD_BITS * n)) - 1) // ((1 << FIELD_BITS) - 1) << (FIELD_BITS - 1)


def _check(bound: int, what: str) -> int:
    """`bound`, or ExponentOverflow when it is past the field range."""
    if bound > MAX_EXPONENT:
        raise ExponentOverflow(f"{what}: an exponent could reach {bound}, "
                               f"past the field limit {MAX_EXPONENT}")
    return bound


def _pack(exps: Iterable[Tuple[Arc, int]], index: VarIndex) -> Tuple[int, int]:
    """(key, max |exponent|) of one exponent vector on `index`."""
    acc: Dict[Arc, int] = {}
    for a, e in exps:
        acc[a] = acc.get(a, 0) + e
    bound = max(map(abs, acc.values()), default=0)
    if bound > MAX_EXPONENT:
        a = next(a for a, e in acc.items() if abs(e) == bound)
        _check(bound, f"x[{a.m},{a.n}]^{acc[a]}")
    key = 0
    for a, e in acc.items():
        if e:
            key += e << (FIELD_BITS * index.slot(a))
    return key, bound


def _decode(keys: Iterable[int], index: Optional[VarIndex]) -> Tuple[List[Arc], List[memoryview]]:
    """(arcs, columns): the variables in Arc order and each one's exponents.

    One pass over the terms: column j lists the exponent of arcs[j] in every
    term, in the order of `keys`; a variable occurring in no term is left
    out.
    """
    keys = list(keys)
    if index is None or not keys:
        return [], []
    n = len(index)
    bias = _bias(n)
    width = _FIELD_BYTES * n
    zs = [(k + bias) ^ bias for k in keys]
    fields = memoryview(b"".join(z.to_bytes(width, sys.byteorder) for z in zs)).cast("i")
    used = memoryview(reduce(or_, zs).to_bytes(width, sys.byteorder)).cast("i")
    arcs = index.arcs
    slots = sorted((s for s in range(n) if used[s]), key=arcs.__getitem__)
    return [arcs[s] for s in slots], [fields[s::n] for s in slots]


def _ordered(keys: List[int], index: Optional[VarIndex]):
    """(arcs, terms): the variables in Arc order, and the terms in ExpVec-descending order.

    A term is (position in `keys`, row), its row the flat list
    [j1, e1, j2, e2, ...] of the nonzero exponents e of arcs[j], j increasing.
    Rows compare like the ExpVecs they stand for.  They are lists, not
    tuples: thousands of freed tuples of one length would stay cached in
    the interpreter's tuple free lists.
    """
    arcs, columns = _decode(keys, index)
    if columns:
        nums = range(len(columns))
        rows = [list(chain.from_iterable(compress(zip(nums, row), row))) for row in zip(*columns)]
    else:
        rows = [[] for _ in keys]
    order = sorted(range(len(keys)), key=rows.__getitem__, reverse=True)
    return arcs, [(i, rows[i]) for i in order]


def _pairs(row: List[int]):
    """(j, e) pairs of a flat row."""
    it = iter(row)
    return zip(it, it)


def _repack(terms: Dict[int, int], src: VarIndex, dst: VarIndex) -> Tuple[Dict[int, int], VarIndex]:
    """(terms, index): `terms` on `src` re-keyed on `dst`, or on a copy of
    `dst` extended by the arcs it lacks.  Neither index changes."""
    keys = list(terms)
    arcs, columns = _decode(keys, src)
    if all(dst.slots.get(a) == src.slots[a] for a in arcs):
        return terms, dst
    dst = dst.extended(arcs)
    shifts = [FIELD_BITS * dst.slots[a] for a in arcs]
    out = {}
    for row, c in zip(zip(*columns) if columns else ((),) * len(keys), terms.values()):
        out[sum(e << sh for e, sh in zip(row, shifts) if e)] = c
    return out, dst


def _align(p: "LaurentPoly", q: "LaurentPoly"):
    """(p.terms, q.terms, index): both term dicts keyed on one index.

    The polynomial on the smaller index is repacked onto the larger one, or
    onto a copy of it when it lacks some arcs; keys on the larger index stay
    valid on the copy.  Neither operand's index changes, so values of
    different sessions combine without touching either session.
    """
    i, j = p.index, q.index
    if i is j or j is None:
        return p.terms, q.terms, i
    if i is None:
        return p.terms, q.terms, j
    if len(i) >= len(j):
        b, index = _repack(q.terms, j, i)
        return p.terms, b, index
    a, index = _repack(p.terms, i, j)
    return a, q.terms, index


def _new(terms: Dict[int, int], index: Optional[VarIndex], bound: int) -> "LaurentPoly":
    p = object.__new__(LaurentPoly)
    p.terms = terms
    p.index = index
    p.bound = bound
    return p


class LaurentPoly:
    """Immutable sparse Laurent polynomial over the integers.

    `terms` maps packed exponent keys on `index` to nonzero coefficients,
    so `len(p.terms)` is the number of monomials; `bound` is at least the
    largest |exponent|.
    """

    __slots__ = ("terms", "index", "bound")

    def __init__(self, terms: Optional[Mapping[ExpVec, int]] = None,
                 index: Optional[VarIndex] = None):
        """Polynomial with the given {exponent vector: coefficient} terms.

        Variables are put on `index`, or on a fresh index when it is None and
        some exponent is nonzero.
        """
        fresh = index is None
        if fresh:
            index = VarIndex()
        acc: Dict[int, int] = {}
        bound = 0
        for exps, c in (terms or {}).items():
            k, b = _pack(exps, index)
            bound = max(bound, b)
            acc[k] = acc.get(k, 0) + c
        self.terms: Dict[int, int] = {k: v for k, v in acc.items() if v}
        self.index = None if fresh and not len(index) else index
        self.bound = bound

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _new({}, None, 0)

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return _new({0: c} if c else {}, None, 0)

    @staticmethod
    def variable(a: Arc, index: Optional[VarIndex] = None) -> "LaurentPoly":
        if index is None:
            index = VarIndex()
        return _new({1 << (FIELD_BITS * index.slot(a)): 1}, index, 1)

    @staticmethod
    def monomial(alpha: Exponents, index: Optional[VarIndex] = None) -> "LaurentPoly":
        """The monomial x^alpha for a finitely supported exponent map."""
        return LaurentPoly({tuple(alpha.items() if isinstance(alpha, Mapping) else alpha): 1}, index)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b, index = _align(self, other)
        acc = dict(a)
        for k, v in b.items():
            c = acc.get(k, 0) + v
            if c:
                acc[k] = c
            else:
                del acc[k]
        return _new(acc, index, max(self.bound, other.bound))

    def __neg__(self) -> "LaurentPoly":
        return _new({k: -v for k, v in self.terms.items()}, self.index, self.bound)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return _new({}, None, 0)
            return _new({k: v * other for k, v in self.terms.items()}, self.index, self.bound)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        bound = self.bound + other.bound
        if bound > MAX_EXPONENT:
            bound = _check(self._tighten() + other._tighten(), "product")
        a, b, index = _align(self, other)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (k1, v1), = a.items()
            return _new({k1 + k: v1 * v for k, v in b.items()}, index, bound)
        acc: Dict[int, int] = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = k1 + k2
                if k in acc:
                    acc[k] += v1 * v2
                else:
                    acc[k] = v1 * v2
        return _new({k: v for k, v in acc.items() if v}, index, bound)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return False
        if len(self.terms) != len(other.terms):
            return False
        a, b, _ = _align(self, other)
        return a == b

    def __hash__(self):
        return hash(frozenset(self.sorted_terms()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _tighten(self) -> int:
        """Replace `bound` by the exact largest |exponent|."""
        _, columns = _decode(self.terms, self.index)
        self.bound = max((max(max(col), -min(col)) for col in columns), default=0)
        return self.bound

    # -- specialisations ---------------------------------------------------

    def div_exact_variable(self, t: Arc) -> "LaurentPoly":
        """Divide by the single variable x_t; always exact in a Laurent ring."""
        bound = self.bound + 1
        if bound > MAX_EXPONENT:
            bound = _check(self._tighten() + 1, f"division by x[{t.m},{t.n}]")
        index = VarIndex() if self.index is None else self.index.extended((t,))
        step = 1 << (FIELD_BITS * index.slot(t))
        return _new({k - step: v for k, v in self.terms.items()}, index, bound)

    def substitute_unit(self, members: Union[Callable[[Arc], bool], Iterable[Arc]]) -> "LaurentPoly":
        """Set x_a = 1 for every arc a selected by `members` (set or predicate)."""
        if self.index is None:
            return self
        if callable(members):
            chosen = members
        else:
            chosen = frozenset(members).__contains__
        n = len(self.index)
        drop = sum(((1 << FIELD_BITS) - 1) << (FIELD_BITS * s)
                   for s, a in enumerate(self.index.arcs) if chosen(a))
        if not drop:
            return self
        keep = ~drop
        bias = _bias(n)
        acc: Dict[int, int] = {}
        for k, v in self.terms.items():
            k2 = ((((k + bias) ^ bias) & keep) ^ bias) - bias
            c = acc.get(k2, 0) + v
            if c:
                acc[k2] = c
            else:
                del acc[k2]
        return _new(acc, self.index, self.bound)

    def eval_all_ones(self) -> int:
        """Value after setting every variable equal to 1."""
        return sum(self.terms.values())

    # -- inspection --------------------------------------------------------

    def variables(self) -> set:
        return set(_decode(self.terms, self.index)[0])

    def min_exponents(self) -> Dict[Arc, int]:
        """Per-variable minimum exponent over all terms (0 counts when absent)."""
        arcs, columns = _decode(self.terms, self.index)
        return {a: min(col) for a, col in zip(arcs, columns)}

    def denominator_support(self) -> set:
        """Arcs whose variable occurs with negative exponent after clearing."""
        return {a for a, e in self.min_exponents().items() if e < 0}

    def coefficients(self):
        return list(self.terms.values())

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> List[Tuple[ExpVec, int]]:
        """(exponent vector, coefficient) pairs, exponent vectors descending."""
        arcs, terms = _ordered(list(self.terms), self.index)
        coeffs = list(self.terms.values())
        return [(tuple((arcs[j], e) for j, e in _pairs(row)), coeffs[i]) for i, row in terms]

    def __str__(self) -> str:
        return format_fraction(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.sorted_terms())!r})"

    def to_json(self):
        """[{"coeff": c, "exps": [[[m, n], e], ...]}, ...], exponent vectors descending."""
        arcs, terms = _ordered(list(self.terms), self.index)
        points = [(a.m, a.n) for a in arcs]
        coeffs = list(self.terms.values())
        return [{"coeff": coeffs[i], "exps": [[list(points[j]), e] for j, e in _pairs(row)]}
                for i, row in terms]

    @staticmethod
    def from_json(data) -> "LaurentPoly":
        """The inverse of `to_json`, keyed directly on a fresh index.

        Each distinct [m, n] gets one slot and a factor adds e << shift, so
        repeated arcs add up; a term whose sum of |e| could leave a field
        is packed through the constructor's exact check instead.
        """
        index = VarIndex()
        shifts: Dict[Tuple[int, int], int] = {}
        acc: Dict[int, int] = {}
        bound = 0
        for entry in data:
            key = size = 0
            for (m, n), e in entry["exps"]:
                if e:
                    sh = shifts.get((m, n))
                    if sh is None:
                        sh = shifts[(m, n)] = FIELD_BITS * index.slot(Arc(m, n))
                    key += e << sh
                    size += abs(e)
            if size > MAX_EXPONENT:
                key, size = _pack(((Arc(m, n), e) for (m, n), e in entry["exps"]), index)
            bound = max(bound, size)
            acc[key] = acc.get(key, 0) + entry["coeff"]
        terms = {k: v for k, v in acc.items() if v}
        return _new(terms, index if any(terms) else None, bound)


ONE = LaurentPoly.const(1)


def _factor(a: Arc, e: int) -> str:
    return f"x[{a.m},{a.n}]" + (f"^{e}" if e != 1 else "")


def format_fraction(p: LaurentPoly) -> str:
    """Canonical text: numerator over a single monomial denominator.

    The denominator collects every variable with a negative minimum
    exponent, so the numerator is an honest polynomial.  The packed keys
    are shifted by the denominator once, then decoded once.
    """
    if not p.terms:
        return "0"
    arcs, columns = _decode(p.terms, p.index)
    den = {}
    shift = 0
    for a, col in zip(arcs, columns):
        lo = min(col)
        if lo < 0:
            _check(max(col) - lo, f"numerator exponent of x[{a.m},{a.n}]")
            den[a] = -lo
            shift -= lo << (FIELD_BITS * p.index.slots[a])
    keys = [k + shift for k in p.terms]
    num_arcs, terms = _ordered(keys, p.index)
    names = [f"x[{a.m},{a.n}]" for a in num_arcs]
    coeffs = list(p.terms.values())
    parts = []
    for i, row in terms:
        c = coeffs[i]
        body = "*".join([names[j] if e == 1 else f"{names[j]}^{e}" for j, e in _pairs(row)])
        if not body:
            s = str(c)
        elif c == 1:
            s = body
        elif c == -1:
            s = "-" + body
        else:
            s = f"{c}*{body}"
        if parts:
            parts.append("- " + s[1:] if s.startswith("-") else "+ " + s)
        else:
            parts.append(s)
    num_str = " ".join(parts)
    if not den:
        return num_str
    den_str = "*".join(_factor(a, e) for a, e in den.items())
    if len(keys) > 1:
        num_str = f"({num_str})"
    if "*" in den_str:
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"
