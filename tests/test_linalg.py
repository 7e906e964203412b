import random
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from e510.linalg import (add_into, format_scalar, null_space, parse_scalar,
                         to_fp, RowReducer)
import oracles
from oracles import dense_null_space, dense_rank, dense_rank_mod, dense_rref


def sparse(rows):
    """Dense rows (lists) as the sparse dict rows RowReducer takes."""
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def reduced(rows):
    red = RowReducer()
    for row in sparse(rows):
        red.insert(row)
    return red


def mul_vector(rows, x):
    """The product of the dense matrix rows with the sparse vector x."""
    return [sum((Q(v) * x.get(j, 0) for j, v in enumerate(r)), Q(0)) for r in rows]


def test_rank_identity():
    assert reduced([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank == 3


def test_rank_dependent_rows():
    rows = [[1, 2, 3], [2, 4, 6]]
    assert reduced(rows).rank == dense_rank(rows) == 1


def test_rank_zero_matrix():
    assert reduced([[0] * 5] * 4).rank == 0


def test_null_space_identity():
    assert null_space(sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3) == []


def test_null_space_dependent_rows():
    rows = [[1, 2, 3], [2, 4, 6]]
    basis = null_space(sparse(rows), 3)
    assert len(basis) == 2
    for v in basis:
        assert not any(mul_vector(rows, v))


def test_null_space_zero_matrix():
    assert len(null_space([{}, {}], 4)) == 4


def test_null_space_echelonized():
    basis = null_space(sparse([[1, 2, 3], [2, 4, 6]]), 3)
    # each vector carries a unit free coordinate absent from the others
    frees = []
    for v in basis:
        units = [k for k, val in v.items() if val == 1]
        assert units
        frees.append(set(units))
    for i, v in enumerate(basis):
        for j, f in enumerate(frees):
            if i != j:
                assert not (f & {k for k in v}) or basis[i] is basis[j]


def test_rank_plus_nullity():
    rng = random.Random(11)
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        red = reduced(rows)
        basis = null_space(sparse(rows), nc)
        assert len(basis) + red.rank == nc
        assert red.rank == dense_rank(rows)
        for v in basis:
            assert not any(mul_vector(rows, v))


def test_scalar_field_axioms_random():
    rng = random.Random(3)
    for _ in range(200):
        a = Q(rng.randint(-9, 9), rng.randint(1, 9))
        b = Q(rng.randint(-9, 9), rng.randint(1, 9))
        c = Q(rng.randint(-9, 9), rng.randint(1, 9))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_scalar_serialization():
    assert format_scalar(Q(1, 2)) == "1/2"
    assert format_scalar(Q(-3)) == "-3"
    assert parse_scalar("7/4") == Q(7, 4)
    assert parse_scalar("-5") == Q(-5)
    assert parse_scalar(format_scalar(Q(22, 7))) == Q(22, 7)


def test_row_reducer_kernel():
    red = RowReducer()
    red.insert({0: Q(1), 1: Q(2), 2: Q(3)})
    red.insert({0: Q(2), 1: Q(4), 2: Q(6)})
    assert red.rank == 1
    kern = red.kernel([0, 1, 2])
    assert len(kern) == 2


# small exact systems: (ncols, rows, right-hand side), entries mostly zero
_entries = st.one_of(st.just(0), st.just(0),
                     st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def systems(draw):
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 6))
    rows = [[draw(_entries) for _ in range(ncols)] for _ in range(nrows)]
    b = [draw(_entries) for _ in range(nrows)]
    return ncols, rows, b


@settings(max_examples=300, deadline=None)
@given(systems())
def test_linear_algebra_matches_dense_gauss_jordan(system):
    ncols, rows, _b = system
    red = reduced(rows)
    assert red.rank == len(dense_rref(rows, ncols)[1])
    assert red.kernel(range(ncols)) == dense_null_space(rows, ncols)
    assert null_space(sparse(rows), ncols) == dense_null_space(rows, ncols)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_row_reducer_combination_invariants(system):
    ncols, rows, _b = system
    red = RowReducer()
    for i, r in enumerate(rows):
        red.insert({j: Q(v) for j, v in enumerate(r) if v}, {i: Q(1)})

    def combine(comb):
        return [sum((c * Q(rows[i][j]) for i, c in comb.items()), Q(0))
                for j in range(ncols)]

    rref, pivots = dense_rref(rows, ncols)
    # the pivot rows are the reduced echelon form, pivots on the least keys
    assert sorted(red.pivots) == pivots
    for k, row in red.pivots.items():
        assert min(row) == k and row[k] == 1
        assert [row.get(j, 0) for j in range(ncols)] == rref[pivots.index(k)]
        assert combine(red.combs[k]) == [row.get(j, 0) for j in range(ncols)]
    # each row that reduced to zero leaves a nonzero relation among the rows,
    # supported on itself and earlier rows
    assert red.rank + len(red.relations) == len(rows)
    for rel in red.relations:
        assert rel and combine(rel) == [0] * ncols
        assert rel[max(rel)] == 1
    assert red.kernel(range(ncols)) == dense_null_space(rows, ncols)


# -- arithmetic over F_p ------------------------------------------------------

_PRIMES = st.sampled_from([2, 3, 5, 7, 2**30 - 35, 2**31 - 1])


@st.composite
def fp_systems(draw):
    p = draw(_PRIMES)
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 7))
    ints = st.one_of(st.just(0), st.integers(-2 * p, 2 * p))
    return p, ncols, [[draw(ints) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=300, deadline=None)
@given(fp_systems())
def test_row_reducer_mod_p_rank_matches_dense_oracle(system):
    p, ncols, rows = system
    red = RowReducer(p)
    for r in rows:
        red.insert({j: v for j, v in enumerate(r) if v})
    assert red.rank == dense_rank_mod(rows, p)
    for k, row in red.pivots.items():
        assert min(row) == k and row[k] == 1
        assert all(0 < v < p for v in row.values())
    # each kernel vector annihilates every inserted row mod p
    for v in red.kernel(range(ncols)):
        for r in rows:
            assert sum(r[j] * c for j, c in v.items()) % p == 0


def _p_integral(p):
    return st.builds(Q, st.integers(-10**6, 10**6),
                     st.integers(1, 10**6).filter(lambda den: den % p))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_to_fp_is_a_ring_homomorphism(data):
    p = data.draw(_PRIMES)
    a, b = data.draw(_p_integral(p)), data.draw(_p_integral(p))
    assert 0 <= to_fp(a, p) < p
    assert to_fp(a + b, p) == (to_fp(a, p) + to_fp(b, p)) % p
    assert to_fp(a * b, p) == to_fp(a, p) * to_fp(b, p) % p
    assert to_fp(a.denominator, p) * to_fp(a, p) % p == to_fp(a.numerator, p)


@settings(max_examples=100, deadline=None)
@given(_PRIMES, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**4))
def test_to_fp_raises_when_p_divides_the_denominator(p, num, k):
    x = Q(num * p + 1, k * p)  # numerator prime to p, so p stays in the denominator
    with pytest.raises(ZeroDivisionError):
        to_fp(x, p)


def test_add_into_mod_p():
    acc = {0: 3, 1: 4}
    add_into(acc, {0: 1, 2: 1}, -3, 7)  # 3 - 3 = 0 is dropped, -3 = 4 mod 7
    assert acc == {1: 4, 2: 4}
    add_into(acc, {1: 1}, 7, 7)  # a multiple of p adds nothing
    assert acc == {1: 4, 2: 4}


_keys = st.integers(0, 7)
_big = st.integers(-2**40, 2**40)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 2**30 - 35, 2**31 - 1]), st.dictionaries(_keys, _big),
       st.dictionaries(_keys, _big), _big)
def test_add_into_mod_p_matches_its_loop_definition(p, acc, other, scale):
    # unreduced and negative ints, as glact_vector passes exponents times
    # signs: a term that is 0 mod p may meet a key acc does not hold
    want = dict(acc)
    oracles.add_into(want, other, scale, p)
    got = dict(acc)
    add_into(got, other, scale, p)
    assert got == want
    assert list(got) == list(want)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_keys, st.integers(-9, 9) | st.fractions(max_denominator=9)),
       st.dictionaries(_keys, st.integers(-9, 9) | st.fractions(max_denominator=9)),
       st.integers(-3, 3) | st.fractions(max_denominator=5))
def test_add_into_over_q_matches_its_loop_definition(acc, other, scale):
    want = dict(acc)
    oracles.add_into(want, other, scale)
    got = dict(acc)
    add_into(got, other, scale)
    assert got == want
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_keys, st.integers(-9, 9)), st.dictionaries(_keys, st.integers(-9, 9)))
def test_add_into_default_scale_keeps_ints_int(acc, other):
    # the default scale is the int 1: int data stays int, with no Fraction
    # and no float, and sums and order are those of the loop definition
    want = dict(acc)
    oracles.add_into(want, other, 1)
    got = dict(acc)
    add_into(got, other)
    assert list(got.items()) == list(want.items())
    assert all(type(v) is int for v in got.values())
    halves = {k: Q(v, 2) for k, v in other.items()}
    add_into(got, halves)
    assert all(type(v) in (int, Q) for v in got.values())
