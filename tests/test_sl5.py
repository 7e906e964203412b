import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from e510 import sl5
from oracles import hook_content_dimension, partition_of_weight


def test_dominance_simple_root():
    assert sl5.dominance_compare((0, 0, 0, 0), (2, -1, 0, 0)) == "less-or-equal"


def test_dominance_two_roots():
    # (1,1,0,0) - (0,0,1,0) = alpha_12 + alpha_23 = (1,1,-1,0)
    assert sl5.dominance_compare((0, 0, 1, 0), (1, 1, 0, 0)) == "less-or-equal"
    assert sl5.dominance_compare((1, 1, 0, 0), (0, 0, 1, 0)) == "greater-or-equal"


def test_dominance_incomparable_fundamental():
    # root coordinates of the first fundamental weight are (4/5,3/5,2/5,1/5)
    assert sl5.dominance_compare((0, 0, 0, 0), (1, 0, 0, 0)) == "incomparable"


def test_dominance_equal():
    assert sl5.dominance_compare((1, 2, 0, 1), (1, 2, 0, 1)) == "equal"


def _raise_by(lam, ks):
    """lam + sum_i ks[i] alpha_i."""
    return tuple(lam[t] + sum(k * alpha[t] for k, alpha in zip(ks, sl5.SIMPLE_ROOTS))
                 for t in range(4))


_weights = st.tuples(*[st.integers(-4, 4)] * 4)
_steps = st.tuples(*[st.integers(0, 3)] * 4)


@settings(max_examples=200, deadline=None)
@given(_weights)
def test_dominant_conjugate_is_reached_by_simple_reflections(lam):
    # s_i lam = lam - lam_i alpha_i: reflecting in a simple root with a
    # negative coordinate until none is left reaches the dominant weight of
    # the Weyl orbit of lam
    nu = lam
    while (i := next((i for i in range(4) if nu[i] < 0), None)) is not None:
        nu = _raise_by(nu, [-nu[i] if t == i else 0 for t in range(4)])
    assert sl5.dominant_conjugate(lam) == nu
    assert sl5.dominant_conjugate(nu) == nu


@settings(max_examples=200, deadline=None)
@given(_weights, _steps, _steps, st.tuples(*[st.integers(-3, 3)] * 4))
def test_dominance_partial_order_random(a, up1, up2, ks):
    # a <= b <= c built by nonnegative root steps: reflexive, antisymmetric
    # and transitive, and the reverse comparison mirrors the forward one
    def le(x, y):
        return sl5.dominance_compare(x, y) in ("less-or-equal", "equal")

    b = _raise_by(a, up1)
    c = _raise_by(b, up2)
    assert le(a, a) and le(a, b) and le(b, c) and le(a, c)
    assert (le(b, a) and le(a, b)) == (a == b) == (not any(up1))
    # any root-lattice difference is decided by the signs of its coefficients
    want = ("equal" if not any(ks) else "less-or-equal" if min(ks) >= 0
            else "greater-or-equal" if max(ks) <= 0 else "incomparable")
    mirror = {"equal": "equal", "less-or-equal": "greater-or-equal",
              "greater-or-equal": "less-or-equal", "incomparable": "incomparable"}
    assert sl5.dominance_compare(a, _raise_by(a, ks)) == want
    assert sl5.dominance_compare(_raise_by(a, ks), a) == mirror[want]


def test_weyl_dimension_trivial():
    assert sl5.weyl_dimension((0, 0, 0, 0)) == 1


def test_weyl_dimension_standard():
    assert sl5.weyl_dimension((1, 0, 0, 0)) == 5
    assert sl5.weyl_dimension((1, 0, 0, 0)) == hook_content_dimension((1,))


def test_weyl_dimension_40():
    lam = (1, 1, 0, 0)
    assert sl5.weyl_dimension(lam) == 40
    assert sl5.weyl_dimension(lam) == hook_content_dimension(partition_of_weight(lam))


def test_weyl_matches_hook_content_random():
    rng = random.Random(4)
    for _ in range(30):
        lam = tuple(rng.randint(0, 3) for _ in range(4))
        assert sl5.weyl_dimension(lam) == \
            hook_content_dimension(partition_of_weight(lam))


def test_weyl_not_dominant():
    try:
        sl5.weyl_dimension((1, -1, 0, 0))
    except ValueError as exc:
        assert "dominant" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_dual_weight_examples():
    assert sl5.dual_weight((1, 1, 0, 0)) == (0, 0, 1, 1)
    assert sl5.dual_weight((0, 0, 0, 0)) == (0, 0, 0, 0)
    assert sl5.dual_weight((1, 2, 3, 4)) == (4, 3, 2, 1)


def test_dual_involution_and_dimension():
    rng = random.Random(9)
    for _ in range(40):
        lam = tuple(rng.randint(0, 3) for _ in range(4))
        assert sl5.dual_weight(sl5.dual_weight(lam)) == lam
        assert sl5.weyl_dimension(lam) == sl5.weyl_dimension(sl5.dual_weight(lam))


def test_dual_respects_dominance():
    # the dual map acts on weight differences by permuting the simple roots,
    # so it preserves every dominance relation
    rng = random.Random(21)
    for _ in range(200):
        lam = tuple(rng.randint(-2, 2) for _ in range(4))
        mu = tuple(rng.randint(-2, 2) for _ in range(4))
        assert sl5.dominance_compare(lam, mu) == \
            sl5.dominance_compare(sl5.dual_weight(lam), sl5.dual_weight(mu))


# (C^{-1})_{ij} = min(i, j) (5 - max(i, j)) / 5 for the A4 Cartan matrix
_CARTAN_INV_REF = [[Q(min(i, j) * (5 - max(i, j)), 5) for j in range(1, 5)]
                   for i in range(1, 5)]


@settings(deadline=None)
@given(st.tuples(*[st.integers(-8, 8)] * 4))
@example((1, 0, 0, 0))  # a fundamental weight: not in the root lattice
@example((2, -1, 0, 0))
def test_root_coefficients_match_fraction_reference(delta):
    ref = [sum(c * d for c, d in zip(row, delta)) for row in _CARTAN_INV_REF]
    got = sl5.root_coefficients(delta)
    if any(k.denominator != 1 for k in ref):
        assert got is None
        return
    assert got == tuple(int(k) for k in ref)
    assert all(type(k) is int for k in got)
    back = [sum(k * alpha[t] for k, alpha in zip(got, sl5.SIMPLE_ROOTS)) for t in range(4)]
    assert tuple(back) == delta


_ints = st.integers(-10**6, 10**6)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[_ints] * 4), st.tuples(*[_ints] * 4),
       st.tuples(*[st.integers(-6, 6)] * 4), st.tuples(*[_ints] * 5))
@example((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0))
@example((0, 0, 0, 0), (1, 0, 0, 0), (-2, 1, 0, 0), (1, 1, 1, 1, 1))
def test_unrolled_kernels_match_their_loop_definitions(a, b, small, c):
    # the 4-tuple kernels equal the generator and loop forms of tests/oracles,
    # value and type, on random int tuples (negatives included); small
    # differences reach the integral and the dominated cases often
    for x, y in ((a, b), (a, oracles.wadd(a, small)), (small, (0, 0, 0, 0))):
        assert sl5.wadd(x, y) == oracles.wadd(x, y)
        assert sl5.wsub(x, y) == oracles.wsub(x, y)
        assert sl5.root_coefficients(sl5.wsub(x, y)) == oracles.root_coefficients(oracles.wsub(x, y))
        assert sl5.dominated_depth(x, y) == oracles.dominated_depth(x, y)
        assert sl5.dominated_depth(y, x) == oracles.dominated_depth(y, x)
        assert sl5.is_dominant(x) is oracles.is_dominant(x)
    assert sl5.from_gl(c) == oracles.from_gl(c)
    assert sl5.from_gl(list(c)) == oracles.from_gl(list(c))
    for got in (sl5.wadd(a, b), sl5.from_gl(c), sl5.dominated_depth(small, (0, 0, 0, 0))):
        assert got is None or type(got) is tuple and all(type(k) is int for k in got)


@pytest.mark.parametrize("bad", [(0, 0, 1, 0, 0), (0, 0, 1), (True, 0, 0, 0), (0, 1.0, 0, 0),
                                 ("0", 0, 0, 0), 5, None])
def test_check_weight_refuses_all_but_four_ints(bad):
    with pytest.raises(ValueError, match="a weight is 4 integers"):
        sl5.check_weight(bad)


def test_check_weight_returns_a_tuple():
    assert sl5.check_weight([1, 0, -2, 3]) == (1, 0, -2, 3)
