import hashlib
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infcc import laurent
from infcc.arcs import Arc, Edge
from infcc.errors import ExponentOverflow, InvalidArc, InvalidSpec, TooLarge
from infcc.exchange import CCSession, cc
from infcc.laurent import MAX_EXPONENT, ONE, LaurentPoly, VarIndex, format_fraction
from infcc.triangulation import nested_zigzag

from tests.oracles import NaiveLaurent, column_repack

A = Arc(0, 2)
B = Arc(0, 3)
C = Arc(1, 3)
x = LaurentPoly.variable


def rand_poly():
    arcs = st.sampled_from([A, B, C])
    term = st.tuples(
        st.lists(st.tuples(arcs, st.integers(-3, 3)), max_size=3),
        st.integers(-9, 9),
    )
    return st.lists(term, max_size=4).map(
        lambda ts: sum(
            (LaurentPoly.monomial(dict(e)) * c for e, c in ts),
            LaurentPoly.zero(),
        )
    )


def test_monomial_examples():
    assert LaurentPoly.monomial({A: 1}) == x(A)
    assert LaurentPoly.monomial({}) == ONE
    m = LaurentPoly.monomial({A: -1, B: 1})
    assert m * x(A) == x(B)
    # repeated arcs in an exponent vector add up
    assert LaurentPoly({((A, 1), (B, 2), (A, 1)): 3}) == LaurentPoly.monomial({A: 2, B: 2}) * 3
    assert LaurentPoly({((A, 1), (A, -1)): 4}).index is None


@given(st.dictionaries(st.sampled_from([A, B, C]), st.integers(-MAX_EXPONENT, MAX_EXPONENT)))
def test_a_mapping_packs_like_the_general_constructor(alpha):
    """The one-pass packing of a Mapping gives the key, the bound and the
    index of the general constructor, on a shared index and on a fresh one."""
    index = VarIndex()
    fast = LaurentPoly.monomial(alpha, index)
    general = LaurentPoly({tuple(alpha.items()): 1}, index)
    assert (fast.terms, fast.bound, fast.index) == (general.terms, general.bound, index)
    fast, general = LaurentPoly.monomial(alpha), LaurentPoly({tuple(alpha.items()): 1})
    assert fast == general and fast.bound == general.bound
    assert (fast.index is None) == (general.index is None) == (not any(alpha.values()))


def test_monomial_overflow_names_the_arc():
    index = VarIndex()
    with pytest.raises(ExponentOverflow, match=rf"x\[0,3\]\^-{MAX_EXPONENT + 1}"):
        LaurentPoly.monomial({A: 1, B: -MAX_EXPONENT - 1}, index)


def test_monomial_multiplicative():
    a = {A: 2, B: -1}
    b = {B: 3, C: 1}
    lhs = LaurentPoly.monomial(a) * LaurentPoly.monomial(b)
    assert lhs == LaurentPoly.monomial({A: 2, B: 2, C: 1})


def test_ring_op_examples():
    assert x(A) + x(A) == LaurentPoly.const(2) * x(A)
    assert (x(A) + x(A) * x(B)).substitute_unit({A}) == ONE + x(B)
    p = LaurentPoly.monomial({A: -1}) + LaurentPoly.const(2) * x(B)
    assert p.eval_all_ones() == 3


def test_div_exact_variable():
    p = (x(A) + ONE) * x(B)
    assert p.div_exact_variable(B) == x(A) + ONE
    assert (p * x(A)).div_exact_variable(A) == p


@given(rand_poly(), rand_poly(), rand_poly())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + LaurentPoly.zero() == p
    assert p * ONE == p


@given(rand_poly())
def test_div_mul_roundtrip(p):
    assert p.div_exact_variable(A) * x(A) == p


@given(rand_poly(), rand_poly())
def test_substitute_unit_is_ring_map(p, q):
    s = {A}
    assert (p * q).substitute_unit(s) == p.substitute_unit(s) * q.substitute_unit(s)
    assert (p + q).substitute_unit(s) == p.substitute_unit(s) + q.substitute_unit(s)


@given(rand_poly())
def test_json_roundtrip(p):
    data = json.loads(json.dumps(p.to_json()))
    assert LaurentPoly.from_json(data) == p
    assert LaurentPoly.from_json(p.to_json()) == p  # the shared tuples read back too


def test_fraction_format():
    p = (x(Arc(-3, 0)) + ONE).div_exact_variable(Arc(-2, 0))
    assert format_fraction(p) == "(x[-3,0] + 1)/x[-2,0]"
    assert format_fraction(LaurentPoly.zero()) == "0"
    assert format_fraction(ONE) == "1"


def test_denominator_support():
    p = (x(A) + ONE).div_exact_variable(B)
    assert p.denominator_support() == {B}


# -- packed kernel against the tuple-exponent oracle ---------------------------

POOL = [A, B, C, Arc(-7, -4), Arc(-2, 5), Arc(3, 10)]
BIG = 10 ** 6


def term_specs(max_terms=5):
    exps = st.lists(st.tuples(st.sampled_from(POOL), st.integers(-BIG, BIG)), max_size=4)
    coeff = st.integers(-9, 9).filter(bool)
    return st.lists(st.tuples(exps, coeff), max_size=max_terms)


def both(spec, index):
    """The same polynomial as a LaurentPoly on `index` and as the oracle."""
    p = LaurentPoly({}, index)
    for exps, c in spec:  # one constructor call per term; index None gives each its own
        p = p + LaurentPoly({tuple(exps): c}, index)
    return p, NaiveLaurent([(exps, c) for exps, c in spec])


# each polynomial of a test case goes on a fresh index, on the case's shared
# index, or (for "mixed") on either, drawn per polynomial
modes = st.sampled_from(["fresh", "shared", "mixed"])


@st.composite
def poly_pairs(draw, count):
    mode = draw(modes)
    shared = VarIndex()
    for a in draw(st.permutations(POOL))[:draw(st.integers(0, len(POOL)))]:
        shared.slot(a)
    out = []
    for _ in range(count):
        on_shared = mode == "shared" or (mode == "mixed" and draw(st.booleans()))
        out.append(both(draw(term_specs()), shared if on_shared else None))
    return out


def same(p, ref):
    """Byte-for-byte agreement of every presentation, and polynomial equality."""
    assert json.dumps(p.to_json()) == json.dumps(ref.to_json())
    assert format_fraction(p) == ref.format_fraction()
    assert p.sorted_terms() == ref.sorted_terms()
    assert p.min_exponents() == ref.min_exponents()
    assert p.variables() == set(ref.min_exponents())
    assert p == LaurentPoly(ref.terms)
    assert hash(p) == hash(LaurentPoly(ref.terms))
    assert len(p.terms) == len(ref.terms)


def index_sizes(*polys):
    return [None if p.index is None else len(p.index) for p in polys]


@given(poly_pairs(2))
def test_add_mul_match_oracle(pairs):
    (p, rp), (q, rq) = pairs
    sizes = index_sizes(p, q)
    same(p, rp)
    same(p + q, rp + rq)
    same(p * q, rp * rq)
    same(q * p, rp * rq)
    assert (p == q) == (rp.terms == rq.terms)
    # operations and comparisons leave the operands' indices as they were
    assert index_sizes(p, q) == sizes


def test_comparison_across_indices_appends_nothing():
    index = VarIndex()
    p = x(A, index) + x(B, index)
    q = x(C) * x(Arc(5, 9))
    r = x(A) + x(B)
    sizes = index_sizes(p, q, r)
    assert p != q and p == r and q != r
    assert (p + q) - q == p and len((p * q).terms) == 2
    assert p.div_exact_variable(C).index is not index
    assert index_sizes(p, q, r) == sizes


@given(poly_pairs(1), st.sampled_from(POOL + [Arc(20, 30)]), st.sets(st.sampled_from(POOL)))
def test_div_and_substitute_match_oracle(pairs, t, units):
    (p, rp), = pairs
    sizes = index_sizes(p)
    same(p.div_exact_variable(t), rp.div_exact_variable(t))
    same(p.substitute_unit(units), rp.substitute_unit(units))
    same(p.substitute_unit(units.__contains__), rp.substitute_unit(units))
    assert index_sizes(p) == sizes


@given(poly_pairs(3))
def test_products_across_indices(pairs):
    (p, rp), (q, rq), (r, rr) = pairs
    same((p * q) * r, (rp * rq) * rr)
    same(p * (q + r), rp * (rq + rr))


# -- offsets: values that share a term dict at different shifts --------------------

def on_index(p):
    """p's index, or a fresh one for a constant."""
    return VarIndex() if p.index is None else p.index


@st.composite
def shifted(draw):
    """(value, oracle): a polynomial times a monomial of coefficient 1 on its
    index, then divided by some variables, so its dict sits at an offset."""
    (p, ref), = draw(poly_pairs(1))
    exps = draw(st.lists(st.tuples(st.sampled_from(POOL), st.integers(-BIG, BIG)), max_size=3))
    p = p * LaurentPoly.monomial(exps, on_index(p))
    ref = ref * NaiveLaurent([(exps, 1)])
    for t in draw(st.lists(st.sampled_from(POOL), max_size=3)):
        p, ref = p.div_exact_variable(t), ref.div_exact_variable(t)
    return p, ref


@given(shifted(), shifted())
def test_shifted_sums_and_products_match_oracle(a, b):
    (p, rp), (q, rq) = a, b
    same(p, rp)
    same(p + q, rp + rq)
    same(p * q, rp * rq)
    same(p - p, NaiveLaurent())
    assert (p == q) == (rp.terms == rq.terms)


@given(shifted())
def test_shifted_terms_are_the_real_keys(pair):
    p, ref = pair
    unshifted = LaurentPoly(ref.terms, p.index)  # the same value at shift 0
    assert p.terms == unshifted.terms and len(p.terms) == len(ref.terms)
    assert p == unshifted and hash(p) == hash(unshifted)


@given(poly_pairs(1), st.lists(st.sampled_from(POOL), max_size=4))
def test_monomial_chain_returns_to_the_value(pairs, arcs):
    (p, ref), = pairs
    index = on_index(p)
    q = p
    for t in arcs:
        q = q * x(t, index)
    for t in reversed(arcs):
        q = q.div_exact_variable(t)
    assert q == p and hash(q) == hash(p)
    assert len(q.terms) == len(ref.terms)
    same(q, ref)


@given(shifted(), st.sampled_from(POOL))
def test_shared_dict_reads_the_same_afterwards(pair, t):
    p, ref = pair
    terms, text = dict(p.terms), format_fraction(p)
    up = p * x(t, on_index(p))  # shares p's dict
    down = p.div_exact_variable(t)  # shares it too
    same(up + down, ref * NaiveLaurent([(((t, 1),), 1)]) + ref.div_exact_variable(t))
    same(up * down, ref * ref)
    assert p.terms == terms and format_fraction(p) == text
    same(p, ref)


def test_monomial_products_and_divisions_share_the_dict():
    index = VarIndex()
    p = x(A, index) + x(B, index) * 3
    for q in (p * x(C, index), x(C, index) * p, p * ONE, p.div_exact_variable(A),
              p * LaurentPoly.monomial({A: 2, C: -1}, index)):
        assert q._terms is p._terms


def test_division_chain_past_the_limit():
    """`bound` follows a shared dict through divisions, so the limit still holds."""
    p = (x(A) + x(B)) * LaurentPoly.monomial({A: -(MAX_EXPONENT - 4)})
    for _ in range(4):
        p = p.div_exact_variable(A)
    assert p.min_exponents()[A] == -MAX_EXPONENT
    assert format_fraction(p) == f"(x[0,3] + x[0,2])/x[0,2]^{MAX_EXPONENT}"
    with pytest.raises(ExponentOverflow):
        p.div_exact_variable(A)


# -- variables must be arcs ----------------------------------------------------------

NOT_ARCS = [(0, 2), Edge(1), Arc(0, 1), Arc(3, 4), "x[0,2]"]


@pytest.mark.parametrize("v", NOT_ARCS, ids=repr)
@pytest.mark.parametrize("make", [
    lambda v: LaurentPoly.variable(v),
    lambda v: LaurentPoly.monomial({v: 1}),
    lambda v: LaurentPoly.monomial({v: MAX_EXPONENT + 1}),
    lambda v: LaurentPoly({((v, 2),): 1}),
    lambda v: x(B).div_exact_variable(v),
    lambda v: ONE.div_exact_variable(v),
], ids=["variable", "monomial", "monomial_past_limit", "constructor", "div", "div_constant"])
def test_non_arc_variables_refused(make, v):
    with pytest.raises(InvalidArc):
        make(v)


def test_session_values_share_one_index():
    ses = CCSession()
    Z = nested_zigzag(0)
    values = [cc(Z, d, ses) for d in (Arc(2, 9), Arc(0, 5), Arc(1, 4))]
    assert all(v.index is ses.index for v in values)
    # values on a fresh index equal the session's and hash alike
    for v in values:
        again = LaurentPoly.from_json(v.to_json())
        assert again.index is not ses.index
        assert again == v and hash(again) == hash(v)


def test_appending_slots_keeps_keys():
    index = VarIndex()
    index.slot(A)
    p = x(A, index) + ONE
    before = dict(p.terms)
    q = x(C, index) * x(B, index)  # appends two slots
    assert p.terms == before
    assert format_fraction(p * q) == "x[0,3]*x[1,3] + x[0,2]*x[0,3]*x[1,3]"


# -- golden output --------------------------------------------------------------

def test_golden_2584_terms():
    """Digests of the text and JSON renderings, recorded with tuple exponents."""
    p = cc(nested_zigzag(0), Arc(2, 11))
    assert len(p.terms) == 2584
    assert hashlib.sha1(format_fraction(p).encode()).hexdigest() == \
        "bdbac8398ad21701dd9d882cc386978b33ba94b6"
    assert hashlib.sha1(json.dumps(p.to_json()).encode()).hexdigest() == \
        "e265f9b73b2c40f6bd0ba1a90475cb966628f7ec"


@pytest.mark.parametrize("n, terms, text_sha1, json_sha1", [
    (12, 6765, "483cde2b56cf792bfc6f72382420feb7a6c615aa", "0f8f23d1ddf760beb29fed2c4ef67bc87c2e586e"),
    (14, 46368, "4cf81b9132bd9f4dc791af2e93f78f4d1ad6df5b", "50d085a8c9abe3954f578c35496ed18c6927eddb"),
])
def test_golden_at_scale(n, terms, text_sha1, json_sha1):
    """Digests of the renderings of cc((2, n)), recorded with per-term exponent lists."""
    p = cc(nested_zigzag(0), Arc(2, n))
    assert len(p.terms) == terms
    assert hashlib.sha1(format_fraction(p).encode()).hexdigest() == text_sha1
    assert hashlib.sha1(json.dumps(p.to_json()).encode()).hexdigest() == json_sha1


# -- one id per factor ----------------------------------------------------------

def distinct_factors(p):
    return {f for k, _ in p.sorted_terms() for f in k}


def test_to_json_shares_one_object_per_factor():
    p = cc(nested_zigzag(0), Arc(2, 10))
    out = p.to_json()
    assert len({id(f) for t in out for f in t["exps"]}) == len(distinct_factors(p)) > 1
    assert all(type(f) is tuple and type(f[0]) is tuple for t in out for f in t["exps"])


def many_factor_spec(seed, arcs, terms, exps):
    rng = random.Random(seed)
    return [([(a, rng.choice(exps)) for a in rng.sample(arcs, rng.randint(0, 12))],
             rng.choice([-3, -1, 1, 2, 5])) for _ in range(terms)]


@pytest.mark.parametrize("seed", range(3))
def test_hundreds_of_factors_match_oracle(seed):
    """More distinct factors than one byte can number render as the oracle does."""
    arcs = [Arc(m, m + d) for m in range(-4, 4) for d in (2, 3, 5)]
    spec = many_factor_spec(seed, arcs, 300, [e for e in range(-9, 10) if e])
    ref = NaiveLaurent(spec)
    p = LaurentPoly.from_json(json_of(spec))
    assert len(distinct_factors(p)) >= 300
    same(p, ref)
    same(p * x(A), ref * NaiveLaurent([(((A, 1),), 1)]))


def test_factor_ids_past_the_basic_plane():
    """Ids run through the surrogate block and past U+FFFF and still sort as exponents do."""
    spec = [([(A, e)], e % 7 - 3 or 1) for e in range(-34000, 34000) if e]
    spec += [([(A, e), (B, 1)], 1) for e in range(-50, 50, 3)]
    ref = NaiveLaurent(spec)
    p = LaurentPoly.from_json(json_of(spec))
    assert len(distinct_factors(p)) > 0xFFFF
    assert json.dumps(p.to_json()) == json.dumps(ref.to_json())
    assert format_fraction(p) == ref.format_fraction()
    assert p.sorted_terms() == ref.sorted_terms()


def test_too_many_factors_refused(monkeypatch):
    p = LaurentPoly.from_json(json_of([([(A, e)], 1) for e in range(1, 6)]))
    monkeypatch.setattr(laurent, "MAX_FACTORS", 4)
    for render in (format_fraction, LaurentPoly.to_json, LaurentPoly.sorted_terms):
        with pytest.raises(TooLarge):
            render(p)
    monkeypatch.setattr(laurent, "MAX_FACTORS", 5)
    assert format_fraction(p) == "x[0,2]^5 + x[0,2]^4 + x[0,2]^3 + x[0,2]^2 + x[0,2]"


# -- exponent range ---------------------------------------------------------------

def test_exponent_at_the_limit():
    top = LaurentPoly.monomial({A: MAX_EXPONENT})
    bottom = LaurentPoly.monomial({A: -MAX_EXPONENT, B: MAX_EXPONENT})
    assert format_fraction(top) == f"x[0,2]^{MAX_EXPONENT}"
    assert format_fraction(bottom) == f"x[0,3]^{MAX_EXPONENT}/x[0,2]^{MAX_EXPONENT}"
    assert bottom.min_exponents() == {A: -MAX_EXPONENT, B: MAX_EXPONENT}


def test_exponent_overflow_raises():
    with pytest.raises(ExponentOverflow):
        LaurentPoly.monomial({A: MAX_EXPONENT + 1})
    with pytest.raises(ExponentOverflow):
        LaurentPoly({((B, -MAX_EXPONENT - 1),): 3})
    half = LaurentPoly.monomial({A: 1 << 30})
    with pytest.raises(ExponentOverflow):
        half * half
    with pytest.raises(ExponentOverflow):
        LaurentPoly.monomial({A: -MAX_EXPONENT}).div_exact_variable(A)
    # a numerator exponent past the limit cannot be rendered
    with pytest.raises(ExponentOverflow):
        format_fraction(LaurentPoly.monomial({A: MAX_EXPONENT}) + LaurentPoly.monomial({A: -1}))


def test_bound_is_tightened_before_refusing():
    """A loose bound from a chain of products does not refuse a small result."""
    one = x(A).div_exact_variable(A)  # the constant 1, with bound 2
    for _ in range(40):  # the bound doubles at each squaring, the exponents stay 0
        one = one * one
    assert one == ONE and one.bound <= MAX_EXPONENT
    assert format_fraction(one * x(A)) == "x[0,2]"


# -- from_json ----------------------------------------------------------------------

def json_of(spec):
    """Raw terms in the to_json shape, repeated arcs and all."""
    return [{"coeff": c, "exps": [[[a.m, a.n], e] for a, e in exps]} for exps, c in spec]


@given(term_specs(max_terms=6))
def test_from_json_matches_oracle(spec):
    p = LaurentPoly.from_json(json_of(spec))
    ref = NaiveLaurent(spec)
    same(p, ref)
    assert p.bound >= max((abs(e) for k in ref.terms for _, e in k), default=0)


@pytest.mark.parametrize("data, expected", [
    ([], LaurentPoly.zero()),
    ([{"coeff": 5, "exps": []}], LaurentPoly.const(5)),
    ([{"coeff": 1, "exps": [[[0, 2], 1]]}], x(A)),
    ([{"coeff": 2, "exps": [[[0, 2], -3], [[0, 3], 1]]}], LaurentPoly.monomial({A: -3, B: 1}) * 2),
    ([{"coeff": 1, "exps": [[[0, 2], 1], [[0, 2], 2]]}], LaurentPoly.monomial({A: 3})),
    ([{"coeff": 3, "exps": [[[0, 2], 1], [[0, 2], -1]]}], LaurentPoly.const(3)),
    ([{"coeff": 1, "exps": [[[0, 2], 1]]}, {"coeff": -1, "exps": [[[0, 2], 1]]}], LaurentPoly.zero()),
    ([{"coeff": 2, "exps": [[[0, 3], 1]]}, {"coeff": 3, "exps": [[[0, 3], 1]]}], x(B) * 5),
])
def test_from_json_examples(data, expected):
    p = LaurentPoly.from_json(data)
    assert p == expected
    assert json.dumps(p.to_json()) == json.dumps(expected.to_json())
    assert format_fraction(p) == format_fraction(expected)
    if not p.terms or list(p.terms) == [0]:
        assert p.index is None  # constants need no index


@pytest.mark.parametrize("data, error", [
    ([{"coeff": 1.5, "exps": [[[0, 2], 1]]}], InvalidSpec),  # not exact
    ([{"coeff": True, "exps": [[[0, 2], 1]]}], InvalidSpec),
    ([{"coeff": 1, "exps": [[[0, 2], True]]}], InvalidSpec),
    ([{"coeff": 1, "exps": [[[0, 2], 1.0]]}], InvalidSpec),
    ([{"coeff": 1, "exps": [[[0, False], 1]]}], InvalidSpec),
    ([{"coeff": 1, "exps": [[["0", 2], 1]]}], InvalidSpec),
    ([{"coeff": 1, "exps": [[[5, 2], 1]]}], InvalidArc),  # (5, 2) is not an arc
    ([{"coeff": 1, "exps": [[[0, 1], 0]]}], InvalidArc),
    ([{"coeff": 1}], InvalidSpec),  # no "exps"
    ([{"exps": []}], InvalidSpec),
    ([{"coeff": 1, "exps": [], "extra": 0}], InvalidSpec),
    ([{"coeff": 1, "exps": "x[0,2]"}], InvalidSpec),
    ([{"coeff": 1, "exps": [[[0, 2]]]}], InvalidSpec),
    ([{"coeff": 1, "exps": [[0, 2, 1]]}], InvalidSpec),
    ([{"coeff": 1, "exps": [None]}], InvalidSpec),
    (["x[0,2]"], InvalidSpec),
    ([[1, []]], InvalidSpec),
    ("x[0,2] + 1", InvalidSpec),
    ({"coeff": 1, "exps": []}, InvalidSpec),
    (None, InvalidSpec),
])
def test_from_json_refuses_malformed(data, error):
    with pytest.raises(error):
        LaurentPoly.from_json(data)


def test_from_json_exponent_range():
    top = [[[0, 2], MAX_EXPONENT], [[0, 3], -MAX_EXPONENT]]  # the sum of |e| passes the limit
    assert LaurentPoly.from_json([{"coeff": 1, "exps": top}]) == \
        LaurentPoly.monomial({A: MAX_EXPONENT, B: -MAX_EXPONENT})
    with pytest.raises(ExponentOverflow):
        LaurentPoly.from_json([{"coeff": 1, "exps": [[[0, 2], MAX_EXPONENT + 1]]}])
    with pytest.raises(ExponentOverflow):
        LaurentPoly.from_json([{"coeff": 1, "exps": [[[0, 2], MAX_EXPONENT], [[0, 2], 1]]}])


# -- memo --------------------------------------------------------------------------

def test_warm_session_multiplies_nothing(monkeypatch):
    calls = []
    mul = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    ses = CCSession()
    Z = nested_zigzag(0)
    first = cc(Z, Arc(2, 9), ses)
    assert calls, "the counter sees the cold computation"
    calls.clear()
    assert cc(Z, Arc(2, 9), ses) is first
    assert calls == []


def _index(*arcs):
    index = VarIndex()
    for a in arcs:
        index.slot(a)
    return index


D, E = Arc(-4, 1), Arc(2, 9)


@pytest.mark.parametrize("case", ["permuted", "shifted", "negative", "extended", "constant", "constant_term"])
def test_repack_through_the_byte_image_matches_the_column_repack(case):
    src = _index(A, B, C, D)
    p = LaurentPoly({((A, 2), (B, 1)): 3, ((C, 1), (D, 4)): -5, ((A, 1),): 7}, src)
    dst = _index(D, C, B, A)
    if case == "shifted":
        p = (p * x(B, src) * x(D, src)).div_exact_variable(C)
        assert p.shift
    elif case == "negative":
        p = LaurentPoly({((A, -3), (D, 2)): 2, ((B, -1), (C, -7)): 1, ((D, -MAX_EXPONENT),): 4}, src)
    elif case == "extended":
        dst = _index(E, B, D)  # lacks A and C: repacked onto a copy
    elif case == "constant":
        p = LaurentPoly({(): 6}, src)
    elif case == "constant_term":
        p = p + LaurentPoly.const(9)
    got, got_index = laurent._repack(p, dst)
    want, want_index = column_repack(p, dst)
    assert got_index.arcs == want_index.arcs
    assert got.terms == want.terms and got.bound == want.bound and got == p
    if case == "constant":  # key 0 is valid on every index: nothing to repack
        assert got is p and got_index is dst
    elif case == "extended":
        assert got.index is got_index is not dst and len(dst) == 3
    else:
        assert got.index is got_index is dst


def test_repack_matches_the_column_repack_on_random_layouts():
    rng = random.Random(6)
    pool = [Arc(m, m + w) for m in range(-3, 3) for w in (2, 3, 5)]
    for _ in range(200):
        src = _index(*rng.sample(pool, rng.randint(1, len(pool))))
        terms = {tuple((a, rng.randint(-40, 40)) for a in rng.sample(src.arcs, rng.randint(0, len(src)))):
                 rng.randint(-9, 9) or 1 for _ in range(rng.randint(1, 12))}
        p = LaurentPoly(terms, src)
        if rng.random() < 0.5:
            p = p.div_exact_variable(rng.choice(src.arcs))
        dst = _index(*rng.sample(pool, rng.randint(1, len(pool))))
        got, got_index = laurent._repack(p, dst)
        want, want_index = column_repack(p, dst)
        assert got_index.arcs == want_index.arcs and got.terms == want.terms and got == p
