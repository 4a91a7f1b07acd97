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

A polynomial is a term dict plus an integer offset `shift`, itself a packed
key: a term's real key is its stored key + shift.  Multiplying by a
one-term polynomial with coefficient 1 (a variable, a monomial, the
constant 1) and dividing by a variable only add a constant to every key,
so they return a value that shares the operand's dict at a new shift, in
O(1).  A sum rebases the smaller operand by the difference of the shifts
and copies the larger; a general product adds the two shifts once.  The
dicts are never changed once built, so sharing them is safe.  Decoding
folds the shift into the bias it adds anyway (below), and the public
`terms` (real keys) is built on its first read of a shifted value and
cached.

Every polynomial carries a bound on |exponent|.  An operation whose result
could leave the field range |e| <= MAX_EXPONENT raises ExponentOverflow;
keys never wrap.  Keys are decoded in one pass per term: adding and then
xor-ing the bias 2**(FIELD_BITS - 1) in every field turns a real key into
its fields' 32-bit two's complement bytes, read back as C ints.  Only real
keys decode field by field: a shift alone may have fields past the range.

The presentations (`sorted_terms`, `to_json`, `format_fraction`, and
through them `hash` and `repr`) share one row per term: every distinct
(variable, exponent) factor gets a one-character id in (Arc, exponent)
order, and a term's row is the string of its ids, so one string sort
orders the terms and each factor is rendered once per call (`_rows`).

Zero coefficients are never stored, so equality of term dicts on one index
at one shift is equality of polynomials; equality and hashing hold across
indices and shifts.  Values are immutable by convention; every operation
returns a fresh polynomial, which may share its term dict with an operand.
Coefficients use Python integers: cluster variable coefficients and tiling
entries grow without bound.  The public exponent vector (`ExpVec`) is the
sorted tuple of (Arc, exponent) pairs with all exponents nonzero, e.g.

    x[0,2]^2 * x[0,3]^-1  ->  ((Arc(0,2), 2), (Arc(0,3), -1))
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from functools import reduce
from itertools import chain, repeat
from operator import itemgetter, or_
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .arcs import Arc
from .errors import ExponentOverflow, InvalidArc, InvalidSpec, TooLarge

ExpVec = Tuple[Tuple[Arc, int], ...]
Exponents = Union[Mapping[Arc, int], Iterable[Tuple[Arc, int]]]

FIELD_BITS = 32  # the C int that decoding reads the fields as
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_BYTES = FIELD_BITS // 8

# Row strings (see _rows): a gap stands for exponent 0 and an end closes a
# term; the factor ids are the characters after them.
_GAP, _END = "\0", "\1"
_FIRST_ID = 2
MAX_FACTORS = sys.maxunicode + 1 - _FIRST_ID  # distinct factors a rendering can name

_TERM_KEYS = {"coeff", "exps"}  # the keys of a term in the JSON form


def _require_arc(a) -> None:
    """InvalidArc unless a is an Arc (m, n) of integers with m <= n - 2."""
    if not (type(a) is Arc and type(a.m) is int and type(a.n) is int and a.m <= a.n - 2):
        raise InvalidArc(f"{a!r} is not an arc: a variable needs an Arc (m, n) with m <= n-2")


class VarIndex:
    """Append-only map Arc -> slot shared by the polynomials built on it."""

    __slots__ = ("arcs", "slots")

    def __init__(self):
        self.arcs: List[Arc] = []
        self.slots: Dict[Arc, int] = {}

    def __len__(self) -> int:
        return len(self.arcs)

    def slot(self, a: Arc) -> int:
        """The slot of a, appended when a is new.

        Raises InvalidArc when a new a is not an Arc (m, n) of integers
        with m <= n - 2.
        """
        s = self.slots.get(a)
        if s is None:
            _require_arc(a)
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
        _require_arc(a)
        _check(bound, f"x[{a.m},{a.n}]^{acc[a]}")
    key = 0
    for a, e in acc.items():
        if e:
            key += e << (FIELD_BITS * index.slot(a))
    return key, bound


def _decode(keys: Iterable[int], shift: int, index: Optional[VarIndex]) -> Tuple[List[Arc], List[memoryview]]:
    """(arcs, columns): the variables in Arc order and each one's exponents.

    One pass over the terms: column j lists the exponent of arcs[j] in every
    term, the real key k + shift for each k of `keys`, in their order; a
    variable occurring in no term is left out.
    """
    keys = list(keys)
    if index is None or not keys:
        return [], []
    n = len(index)
    bias = _bias(n)
    width = _FIELD_BYTES * n
    byteorder = sys.byteorder
    offset = shift + bias
    zs = [(k + offset) ^ bias for k in keys]
    fields = memoryview(b"".join([z.to_bytes(width, byteorder) for z in zs])).cast("i")
    used = memoryview(reduce(or_, zs).to_bytes(width, byteorder)).cast("i")
    arcs = index.arcs
    slots = sorted([s for s in range(n) if used[s]], key=arcs.__getitem__)
    return [arcs[s] for s in slots], [fields[s::n] for s in slots]


def _rows(n: int, arcs: List[Arc], columns: List[memoryview],
          lows: Optional[List[int]] = None) -> Tuple[Dict[str, Tuple[Arc, int]], List[str]]:
    """(factors, rows) of n terms decoded into `arcs` and `columns`.

    Every distinct (arc, exponent) pair with a nonzero exponent gets an id,
    one character, numbered in (arc, exponent) order; `factors` maps each id
    to its pair, in id order.  rows[i] is the string of the ids of term i's
    factors, arcs increasing.  Rows compare like the ExpVecs they stand for:
    the first differing id decides, and a shorter prefix sorts first in both.
    A value e in column j stands for the exponent e - lows[j] (0 when `lows`
    is None), so the columns of p serve for p * x^-lows as well.

    Each column maps through its own table to one character per term, _GAP
    for exponent 0; the columns are interleaved into one string with _END
    after each term, and the gaps are deleted.
    """
    factors: Dict[str, Tuple[Arc, int]] = {}
    stride = len(columns) + 1
    buf = [_END] * (n * stride)
    for j, (a, col, lo) in enumerate(zip(arcs, columns, lows or repeat(0))):
        col = col.tolist()
        values = set(col)
        values.discard(lo)
        if len(values) > MAX_FACTORS - len(factors):
            raise TooLarge(f"more than {MAX_FACTORS} distinct factors to render")
        table = {lo: _GAP}
        for e in sorted(values):
            c = table[e] = chr(_FIRST_ID + len(factors))
            factors[c] = (a, e - lo)
        # every table[e] for e in col in one call; for one term the getter
        # returns the bare one-character string, which iterates the same
        buf[j::stride] = itemgetter(*col)(table)
    rows = "".join(buf).replace(_GAP, "").split(_END)
    rows.pop()
    return factors, rows


def _order(rows: List[str]) -> List[int]:
    """Positions of `rows`, their exponent vectors descending."""
    return sorted(range(len(rows)), key=rows.__getitem__, reverse=True)


def _repack(p: "LaurentPoly", dst: VarIndex) -> Tuple["LaurentPoly", VarIndex]:
    """(value, index): p with keys valid on `dst`, or on a copy of `dst`
    extended by the arcs it lacks.  Neither index changes."""
    src = p.index
    keys = list(p._terms)
    arcs, columns = _decode(keys, p.shift, src)
    if all(dst.slots.get(a) == src.slots[a] for a in arcs):
        return p, dst
    dst = dst.extended(arcs)
    shifts = [FIELD_BITS * dst.slots[a] for a in arcs]
    out = {}
    for row, c in zip(zip(*columns) if columns else ((),) * len(keys), p._terms.values()):
        out[sum(e << sh for e, sh in zip(row, shifts) if e)] = c
    return _new(out, dst, p.bound), dst


def _align(p: "LaurentPoly", q: "LaurentPoly"):
    """(p, q, index): the operands with keys valid on one index.

    The polynomial on the smaller index is repacked onto the larger one, or
    onto a copy of it when it lacks some arcs; keys on the larger index stay
    valid on the copy.  Neither operand's index changes, so values of
    different sessions combine without touching either session.
    """
    i, j = p.index, q.index
    if i is j or j is None:
        return p, q, i
    if i is None:
        return p, q, j
    if len(i) >= len(j):
        q, index = _repack(q, i)
    else:
        p, index = _repack(p, j)
    return p, q, index


def _new(terms: Dict[int, int], index: Optional[VarIndex], bound: int, shift: int = 0) -> "LaurentPoly":
    p = object.__new__(LaurentPoly)
    p._terms = terms
    p.shift = shift
    p.index = index
    p.bound = bound
    return p


class LaurentPoly:
    """Immutable sparse Laurent polynomial over the integers.

    `_terms` maps packed keys to nonzero coefficients, and a term's real
    exponent key on `index` is its key + `shift`; the dict may be shared
    with other values at other shifts.  Products by a one-term value of
    coefficient 1 and `div_exact_variable` are O(1): they share the dict.
    `terms` maps the real keys to the coefficients, so `len(p.terms)` is
    the number of monomials; for a shifted value it is built on the first
    read and cached.  `bound` is at least the largest |exponent|.
    """

    __slots__ = ("_terms", "shift", "index", "bound", "_real")

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
        self._terms: Dict[int, int] = {k: v for k, v in acc.items() if v}
        self.shift = 0
        self.index = None if fresh and not len(index) else index
        self.bound = bound

    @property
    def terms(self) -> Dict[int, int]:
        """{real packed key: coefficient}, one entry per monomial."""
        shift = self.shift
        if not shift:
            return self._terms
        try:
            return self._real
        except AttributeError:
            real = self._real = {k + shift: v for k, v in self._terms.items()}
            return real

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
        """The monomial x^alpha for a finitely supported exponent map.

        A Mapping has each arc once, so its key is packed in one pass; an
        iterable of pairs may repeat an arc, whose exponents add up.
        """
        if not isinstance(alpha, Mapping):
            return LaurentPoly({tuple(alpha): 1}, index)
        fresh = index is None
        if fresh:
            index = VarIndex()
        key = bound = 0
        for a, e in alpha.items():
            if e:
                key += e << (FIELD_BITS * index.slot(a))
                bound = max(bound, abs(e))
        if bound > MAX_EXPONENT:
            a, e = next((a, e) for a, e in alpha.items() if abs(e) == bound)
            _check(bound, f"x[{a.m},{a.n}]^{e}")
        return _new({key: 1}, None if fresh and not len(index) else index, bound)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        p, q, index = _align(self, other)
        if len(p._terms) < len(q._terms):
            p, q = q, p
        a, b = p._terms, q._terms
        step = q.shift - p.shift
        acc = dict(a)
        acc.update(zip(map(step.__add__, b), b.values()) if step else b)
        if len(acc) < len(a) + len(b):  # some keys met: add their coefficients
            for k, v in b.items():
                k += step
                if k in a:
                    c = a[k] + v
                    if c:
                        acc[k] = c
                    else:
                        del acc[k]
        return _new(acc, index, max(self.bound, other.bound), p.shift)

    def __neg__(self) -> "LaurentPoly":
        return _new({k: -v for k, v in self._terms.items()}, self.index, self.bound, self.shift)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return _new({}, None, 0)
            return _new({k: v * other for k, v in self._terms.items()}, self.index, self.bound, self.shift)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        bound = self.bound + other.bound
        if bound > MAX_EXPONENT:
            bound = _check(self._tighten() + other._tighten(), "product")
        p, q, index = _align(self, other)
        a, b = p._terms, q._terms
        shift = p.shift + q.shift
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (k1, v1), = a.items()
            if v1 == 1:  # a monomial: the other dict, shifted
                return _new(b, index, bound, shift + k1)
            return _new({k: v1 * v for k, v in b.items()}, index, bound, shift + k1)
        acc: Dict[int, int] = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = k1 + k2
                if k in acc:
                    acc[k] += v1 * v2
                else:
                    acc[k] = v1 * v2
        if 0 in acc.values():
            acc = {k: v for k, v in acc.items() if v}
        return _new(acc, index, bound, shift)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return False
        if len(self._terms) != len(other._terms):
            return False
        p, q, _ = _align(self, other)
        step = p.shift - q.shift
        if not step:
            return p._terms == q._terms
        get = q._terms.get
        return all(get(k + step) == v for k, v in p._terms.items())

    def __hash__(self):
        return hash(frozenset(self.sorted_terms()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _tighten(self) -> int:
        """Replace `bound` by the exact largest |exponent|."""
        _, columns = _decode(self._terms, self.shift, self.index)
        self.bound = max((max(max(col), -min(col)) for col in columns), default=0)
        return self.bound

    # -- specialisations ---------------------------------------------------

    def div_exact_variable(self, t: Arc) -> "LaurentPoly":
        """Divide by the single variable x_t; always exact in a Laurent ring.

        O(1): the quotient shares this value's dict.
        """
        bound = self.bound + 1
        if bound > MAX_EXPONENT:
            bound = _check(self._tighten() + 1, f"division by x[{t.m},{t.n}]")
        index = VarIndex() if self.index is None else self.index.extended((t,))
        step = 1 << (FIELD_BITS * index.slot(t))
        return _new(self._terms, index, bound, self.shift - step)

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
        offset = self.shift + bias
        acc: Dict[int, int] = {}
        for k, v in self._terms.items():
            k2 = ((((k + offset) ^ bias) & keep) ^ bias) - bias
            c = acc.get(k2, 0) + v
            if c:
                acc[k2] = c
            else:
                del acc[k2]
        return _new(acc, self.index, self.bound)

    def eval_all_ones(self) -> int:
        """Value after setting every variable equal to 1."""
        return sum(self._terms.values())

    # -- inspection --------------------------------------------------------

    def variables(self) -> set:
        return set(_decode(self._terms, self.shift, self.index)[0])

    def min_exponents(self) -> Dict[Arc, int]:
        """Per-variable minimum exponent over all terms (0 counts when absent)."""
        arcs, columns = _decode(self._terms, self.shift, self.index)
        return {a: min(col) for a, col in zip(arcs, columns)}

    def denominator_support(self) -> set:
        """Arcs whose variable occurs with negative exponent after clearing."""
        return {a for a, e in self.min_exponents().items() if e < 0}

    def coefficients(self):
        return list(self._terms.values())

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> List[Tuple[ExpVec, int]]:
        """(exponent vector, coefficient) pairs, exponent vectors descending."""
        factors, rows = _rows(len(self._terms), *_decode(self._terms, self.shift, self.index))
        coeffs = list(self._terms.values())
        return [(tuple(map(factors.__getitem__, rows[i])), coeffs[i]) for i in _order(rows)]

    def __str__(self) -> str:
        return format_fraction(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.sorted_terms())!r})"

    def to_json(self):
        """[{"coeff": c, "exps": [((m, n), e), ...]}, ...], exponent vectors descending.

        The factor entries are shared tuples, one per distinct (arc, exponent)
        pair, which json.dumps writes as [[m, n], e]; they are immutable, so
        sharing them is safe.
        """
        factors, rows = _rows(len(self._terms), *_decode(self._terms, self.shift, self.index))
        shared = {c: ((a.m, a.n), e) for c, (a, e) in factors.items()}
        coeffs = list(self._terms.values())
        return [{"coeff": coeffs[i], "exps": list(map(shared.__getitem__, rows[i]))}
                for i in _order(rows)]

    @staticmethod
    def from_json(data) -> "LaurentPoly":
        """The inverse of `to_json`, keyed directly on a fresh index.

        `data` is a list of {"coeff": c, "exps": [[[m, n], e], ...]} terms
        (tuples do for lists) with integers c, m, n, e, each (m, n) an arc;
        bools are not integers here.  Any other shape or value raises
        InvalidSpec, and a point (m, n) that is not an arc raises InvalidArc.

        Each distinct [m, n] gets one slot and a factor adds e << shift, so
        repeated arcs add up; a term whose sum of |e| could leave a field
        is packed through the constructor's exact check instead.
        """
        if not isinstance(data, (list, tuple)):
            raise InvalidSpec(f"Laurent JSON must be a list of terms, got {type(data).__name__}")
        index = VarIndex()
        shifts: Dict[Tuple[int, int], int] = {}
        acc: Dict[int, int] = {}
        bound = 0
        for i, entry in enumerate(data):
            if type(entry) is not dict or entry.keys() != _TERM_KEYS:
                raise InvalidSpec(f"term {i} is not an object with the keys \"coeff\" and \"exps\"")
            c, exps = entry["coeff"], entry["exps"]
            if type(c) is not int:
                raise InvalidSpec(f"term {i}: the coefficient {c!r} is not an integer")
            if not isinstance(exps, (list, tuple)):
                raise InvalidSpec(f"term {i}: \"exps\" is a {type(exps).__name__}, not a list")
            key = size = 0
            for f in exps:
                try:
                    (m, n), e = f
                except (TypeError, ValueError):
                    raise InvalidSpec(f"term {i}: the factor {f!r} is not of the form [[m, n], e]") from None
                if type(m) is not int or type(n) is not int or type(e) is not int:
                    raise InvalidSpec(f"term {i}: the factor {f!r} has a non-integer entry")
                if m > n - 2:
                    raise InvalidArc(f"term {i}: ({m},{n}) is not an arc: need m <= n-2")
                if e:
                    sh = shifts.get((m, n))
                    if sh is None:
                        sh = shifts[(m, n)] = FIELD_BITS * index.slot(Arc(m, n))
                    key += e << sh
                    size += abs(e)
            if size > MAX_EXPONENT:
                key, size = _pack(((Arc(m, n), e) for (m, n), e in exps), index)
            bound = max(bound, size)
            acc[key] = acc.get(key, 0) + c
        terms = {k: v for k, v in acc.items() if v}
        return _new(terms, index if any(terms) else None, bound)


ONE = LaurentPoly.const(1)


def _factor(a: Arc, e: int) -> str:
    return f"x[{a.m},{a.n}]" + (f"^{e}" if e != 1 else "")


def format_fraction(p: LaurentPoly) -> str:
    """Canonical text: numerator over a single monomial denominator.

    The denominator collects every variable with a negative minimum
    exponent, so the numerator is an honest polynomial.  The keys are
    decoded once, and each column is read relative to its denominator
    exponent.
    """
    if not p._terms:
        return "0"
    arcs, columns = _decode(p._terms, p.shift, p.index)
    lows = [min(min(col), 0) for col in columns]
    den = {}
    for a, col, lo in zip(arcs, columns, lows):
        if lo < 0:
            _check(max(col) - lo, f"numerator exponent of x[{a.m},{a.n}]")
            den[a] = -lo
    factors, rows = _rows(len(p._terms), arcs, columns, lows)
    names = {c: _factor(a, e) for c, (a, e) in factors.items()}
    coeffs = list(p._terms.values())
    parts = []
    for i in _order(rows):
        c = coeffs[i]
        body = "*".join(map(names.__getitem__, rows[i]))
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
    if len(rows) > 1:
        num_str = f"({num_str})"
    if "*" in den_str:
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"
