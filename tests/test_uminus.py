import itertools
import math
import random
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from e510 import sl5
from e510 import uminus as um
from e510 import verma as V
import oracles
from oracles import (crossing_count, omega_basis_check, partial_matchings,
                     perm_sign_by_inversions, u_add, u_scale, uelement_from_obj)


def test_eps_t_identity_permutation():
    assert um.eps_t(1, 2, 3, 4) == (1, 5)


def test_eps_t_degenerate():
    assert um.eps_t(1, 2, 1, 3) == (0, 1)


def test_eps_t_even_inversions():
    # (4,5,1,2,3) has 6 inversions
    assert perm_sign_by_inversions((4, 5, 1, 2, 3)) == 1
    assert um.eps_t(4, 5, 1, 2) == (1, 3)


def test_eps_t_matches_inversion_oracle():
    from itertools import permutations
    for p in permutations(range(1, 6), 4):
        sign, t = um.eps_t(*p)
        assert t not in p
        assert sign == perm_sign_by_inversions(p + (t,))


def test_normal_form_square_zero():
    assert um.normal_form([(1, 2), (1, 2)]) == {}


def test_normal_form_swap():
    d12d34 = (um.ZERO_DEL, ((1, 2), (3, 4)))
    del5 = ((0, 0, 0, 0, 1), ())
    assert um.normal_form([(3, 4), (1, 2)]) == {d12d34: Q(-1), del5: Q(1)}


def test_normal_form_del_central():
    a = um.normal_form([3, (1, 2)])
    b = um.normal_form([(1, 2), 3])
    assert a == b == {((0, 0, 1, 0, 0), ((1, 2),)): Q(1)}


def test_normal_form_is_associative_random():
    rng = random.Random(2)
    for _ in range(40):
        words = [[(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rng.randint(0, 2))]
                 for _ in range(3)]
        u, v, w = (um.normal_form(word) for word in words)
        assert um.u_mul(um.u_mul(u, v), w) == um.u_mul(u, um.u_mul(v, w))


_letters = st.tuples(st.integers(1, 5), st.integers(1, 5))  # d_ij, any orientation
_words = st.lists(st.one_of(_letters, st.integers(1, 5)), max_size=3)  # ints are del_t
_elements = st.lists(st.tuples(st.integers(-3, 3).filter(bool), _words), max_size=2).map(
    lambda terms: u_add(*(u_scale(um.normal_form(w), Q(c)) for c, w in terms)))


@settings(max_examples=60, deadline=None)
@given(_elements, _elements, _elements)
def test_u_mul_is_associative(u, v, w):
    assert um.u_mul(um.u_mul(u, v), w) == um.u_mul(u, um.u_mul(v, w))


@settings(max_examples=60, deadline=None)
@given(_words, _letters, _letters, _words)
def test_d_anticommutator_is_del_in_normal_form(left, A, B, right):
    # u (d_A d_B + d_B d_A) w = eps_{A,B} u del_t w, t the index A and B miss
    sign, t = um.eps_t(*A, *B)
    lhs = u_add(um.normal_form(left + [A, B] + right), um.normal_form(left + [B, A] + right))
    assert lhs == u_scale(um.normal_form(left + [t] + right), Q(sign))


def test_pbw_monomials_order():
    # every PBW monomial of degree d once: del count, then del multidegree
    # lex, then pair tuple lex
    for d in range(7):
        brute = [(d5, ps) for d5 in itertools.product(range(d // 2 + 1), repeat=5)
                 if 2 * sum(d5) <= d
                 for ps in itertools.combinations(um.PAIRS, d - 2 * sum(d5))]
        brute.sort(key=lambda m: (sum(m[0]), m[0], m[1]))
        assert um.pbw_monomials(d) == brute


def test_sif_subsets_small():
    assert um.sif_subsets(1) == [()]
    assert um.sif_subsets(2) == [(), ((1, 2),)]


def test_sif_subsets_count_matches_matchings():
    for d in range(7):
        ours = {frozenset(map(frozenset, s)) for s in um.sif_subsets(d)}
        brute = set(map(frozenset, partial_matchings(range(1, d + 1))))
        assert ours == brute
    assert len(um.sif_subsets(4)) == 10


def test_crossing_number_paper_example():
    assert um.crossing_number([(1, 3), (2, 5), (4, 7)]) == 2


def test_crossing_number_trivial():
    assert um.crossing_number([]) == 0
    assert um.crossing_number([(1, 2), (3, 4)]) == 0


def test_crossing_number_matches_oracle_random():
    rng = random.Random(13)
    for _ in range(60):
        d = rng.randint(0, 7)
        ms = partial_matchings(range(1, d + 1))
        m = rng.choice(ms)
        ours = um.crossing_number([tuple(sorted(p)) for p in m])
        assert ours == crossing_count(m)


def test_contraction_worked_examples():
    I = ((1, 2), (2, 3), (3, 5))
    assert um.contraction(I, (1, 3)) == {((0, 0, 0, 1, 0), ()): Q(-1, 2)}
    I2 = ((2, 1), (1, 3), (4, 5), (2, 5))
    assert um.contraction(I2, (1, 3)) == {((0, 0, 1, 0, 0), ()): Q(-1, 2)}
    # shared index kills the contraction
    assert um.contraction(((1, 2), (2, 3)), (1, 2)) == {}


def test_omega_worked_example():
    I = ((2, 1), (1, 3), (4, 5), (2, 5))
    expected = u_add(
        um.normal_form(I),
        u_scale(um.normal_form([3, (1, 3), (2, 5)]), Q(-1, 2)),
        u_scale(um.normal_form([2, (2, 1), (2, 5)]), Q(1, 2)),
        u_scale(um.normal_form([4, (2, 1), (4, 5)]), Q(1, 2)),
        u_scale(um.normal_form([3, 4]), Q(1, 4)),
    )
    assert um.omega(I) == expected


def test_omega_degree_one():
    assert um.omega(((1, 2),)) == {(um.ZERO_DEL, ((1, 2),)): Q(1)}


def test_omega_vanishing_on_repeats():
    assert um.omega(((1, 2), (1, 2))) == {}
    assert um.omega(((1, 2), (2, 1))) == {}
    assert um.omega(((3, 4), (1, 2), (4, 3))) == {}


def test_canonical_orbit_rep_equals_the_sorting_reference():
    # every index tuple of length <= 3 over the 25 ordered pairs, (i, i)
    # included: the insertion sort gives the reference's sign and rep
    pairs = list(itertools.product(range(1, 6), repeat=2))
    tuples = [I for d in range(4) for I in itertools.product(pairs, repeat=d)]
    assert len(tuples) == 16276
    for I in tuples:
        assert um.canonical_orbit_rep(I) == oracles.canonical_orbit_rep(I), I
    assert um.canonical_orbit_rep(((2, 1), (1, 3))) == (-1, ((1, 2), (1, 3)))
    assert um.canonical_orbit_rep(((3, 4), (1, 2), (4, 3))) == (0, None)


def test_canonical_orbit_rep_is_the_omega_sign():
    # omega_I = sign * omega_rep, and omega_I = 0 exactly when the sign is 0
    pairs = list(itertools.product(range(1, 6), repeat=2))
    for I in random.Random(5).sample(list(itertools.product(pairs, repeat=3)), 200):
        sign, rep = um.canonical_orbit_rep(I)
        want = u_scale(um.omega(rep), Q(sign)) if sign else {}
        assert um.omega(I) == want, I


def test_bd_act_examples():
    I = ((1, 2), (3, 4))
    ident = ((1, 2), (1, 1))
    assert um.bd_act(ident, I) == I
    assert um.sign_character(ident) == 1
    s0 = ((1, 2), (-1, 1))
    assert um.bd_act(s0, I) == ((2, 1), (3, 4))
    assert um.sign_character(s0) == -1
    s1 = ((2, 1), (1, 1))
    assert um.bd_act(s1, I) == ((3, 4), (1, 2))
    assert um.sign_character(s1) == -1


def test_bd_rank_mismatch():
    try:
        um.bd_act(((1,), (1,)), ((1, 2), (3, 4)))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sign_equivariance_random(data):
    # omega_{g.I} = (-1)^{l(g)} omega_I for every signed permutation g of B_d
    d = data.draw(st.integers(1, 4))
    index = st.tuples(st.integers(1, 5), st.integers(1, 5))
    I = data.draw(st.tuples(*[index] * d))
    sigma = tuple(data.draw(st.permutations(range(1, d + 1))))
    etas = data.draw(st.tuples(*[st.sampled_from((1, -1))] * d))
    g = (sigma, etas)
    assert um.omega(um.bd_act(g, I)) == u_scale(um.omega(I), Q(um.sign_character(g)))


def test_l0_adjoint_examples():
    d13 = {(um.ZERO_DEL, ((1, 3),)): Q(1)}
    assert um.l0_adjoint(1, 2, um.normal_form([(2, 3)])) == d13
    assert um.l0_adjoint(1, 2, {((1, 0, 0, 0, 0), ()): Q(1)}) == \
        {((0, 1, 0, 0, 0), ()): Q(-1)}
    assert um.l0_adjoint(1, 2, um.normal_form([(3, 4)])) == {}


def test_l0_adjoint_weight_shift():
    rng = random.Random(19)
    for _ in range(50):
        m = rng.choice(um.pbw_monomials(rng.randint(1, 3)))
        s, r = rng.sample(range(1, 6), 2)
        base = um.monomial_weight(m)
        shift_c = [0] * 5
        shift_c[s - 1] += 1
        shift_c[r - 1] -= 1
        shift = sl5.from_gl(shift_c)
        for m2 in um.l0_adjoint(s, r, {m: Q(1)}):
            assert um.monomial_weight(m2) == sl5.wadd(base, shift)


def test_d_arrow_examples():
    assert um.d_arrow(1, 2, ((2, 3),)) == {(um.ZERO_DEL, ((1, 3),)): Q(1)}
    # letter 2 occurs twice; each occurrence is replaced in its own slot
    got = um.d_arrow(4, 2, ((1, 2), (2, 3)))
    want = u_add(um.omega(((1, 4), (2, 3))), um.omega(((1, 2), (4, 3))))
    assert got == want
    assert um.d_arrow(1, 5, ((1, 2), (2, 3))) == {}


def test_action_identity_degree_2():
    import itertools
    for I in itertools.combinations_with_replacement(um.PAIRS, 2):
        oI = um.omega(I)
        for s in range(1, 6):
            for r in range(1, 6):
                if s != r:
                    assert um.l0_adjoint(s, r, oI) == um.d_arrow(s, r, I)


def test_omega_basis_dimensions():
    assert len(um.omega_basis(1)[0]) == 10
    assert len(um.omega_basis(2)[0]) == 50
    assert len(um.omega_basis(3)[0]) == 170
    assert oracles.pbw_dimension(2) == 50
    assert oracles.pbw_dimension(3) == 170


def test_omega_basis_degree_one_is_pbw():
    reps, cols = um.omega_basis(1)
    for rep, col in zip(reps, cols):
        assert col == {um.rep_monomial(rep): Q(1)}


def test_omega_basis_invertible_small():
    for d in range(5):
        assert omega_basis_check(d)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_omega_basis_round_trip(data):
    # random theta blocks on random reps, expanded on the omega basis and
    # decomposed again, come back unchanged
    d = data.draw(st.integers(1, 4))
    reps = um.omega_basis(d)[0]
    picked = data.draw(st.lists(st.sampled_from(reps), min_size=1, max_size=6, unique=True))
    scalars = st.builds(Q, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    column = st.dictionaries(st.integers(0, 5), scalars, min_size=1, max_size=3)
    thetas = {rep: data.draw(st.dictionaries(st.integers(0, 3), column, min_size=1, max_size=3))
              for rep in picked}
    phi = V.MorphismData(d, None, None, None, None,
                         oracles.expand_omega(d, thetas, lambda rep: Q(1)))
    assert V.theta_decomposition(phi) == thetas


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_omega_int_tables_invert_the_basis(d, data):
    # rows (s times the inverse change of basis) times cols (t times the
    # omega columns) is s t times the identity; each row is s times the
    # reference's back-substituted inverse row and each column t times
    # omega_basis's, entry for entry and in order, in ints; s and t are the
    # least positive ints that clear them
    s, rows, t, cols = um.omega_int_tables(d)
    reps, fcols, inv = oracles.omega_basis_inverse(d)
    assert list(rows) == list(cols) == reps
    assert (s, t) == {1: (1, 1), 2: (2, 2), 3: (2, 2), 4: (4, 4)}[d]
    assert s == math.lcm(*(c.denominator for row in inv for c in row.values()))
    assert t == math.lcm(*(c.denominator for col in fcols for c in col.values()))
    holders: dict = {}
    for j, rep in enumerate(reps):
        for m, c in cols[rep]:
            holders.setdefault(m, []).append((j, c))
    picked = data.draw(st.lists(st.sampled_from(range(len(reps))), min_size=1, max_size=12,
                                unique=True))
    for i in picked:
        rep = reps[i]
        assert rows[rep] == tuple((m, s * c) for m, c in inv[i].items())
        assert cols[rep] == tuple((m, t * c) for m, c in fcols[i].items())
        assert all(type(c) is int for _m, c in rows[rep] + cols[rep])
        product: dict = {}
        for m, a in rows[rep]:
            for j, b in holders[m]:
                product[j] = product.get(j, 0) + a * b
        assert {j: v for j, v in product.items() if v} == {i: s * t}


def test_dominance_on_degree2_monomials():
    import itertools
    # weights of d_I vs entrywise comparison of the sorted letter strings
    tuples = list(itertools.product(range(1, 6), repeat=2))
    idx2 = list(itertools.product(tuples, repeat=2))
    rng = random.Random(31)
    sample = rng.sample(idx2, 200)
    for I in sample:
        K = rng.choice(idx2)
        wI = um.monomial_weight((um.ZERO_DEL, I))
        wK = um.monomial_weight((um.ZERO_DEL, K))
        lettersI = sorted([x for p in I for x in p])
        lettersK = sorted([x for p in K for x in p])
        entrywise = all(a <= b for a, b in zip(lettersI, lettersK))
        cmp = sl5.dominance_compare(wI, wK)
        assert (cmp in ("greater-or-equal", "equal")) == entrywise


def test_degenerate_eps_choice_never_propagates():
    """Changing the irrelevant t value of degenerate eps cannot change any
    normal form or omega expansion."""
    rng = random.Random(41)
    baseline = []
    words = [[(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rng.randint(0, 4))]
             for _ in range(30)]
    for word in words:
        baseline.append((um.normal_form(word), um.omega(tuple(word))))
    original = um.eps_t
    try:
        def patched(i, j, k, l):
            sign, t = original(i, j, k, l)
            return (sign, 3) if sign == 0 else (sign, t)
        um.eps_t = patched
        um._order_cache.clear()
        for word, (nf, om) in zip(words, baseline):
            assert um.normal_form(word) == nf
            assert um.omega(tuple(word)) == om
    finally:
        um.eps_t = original
        um._order_cache.clear()


def test_uelement_json_round_trip():
    w = um.omega(((2, 1), (1, 3), (4, 5), (2, 5)))
    assert uelement_from_obj(um.uelement_to_obj(w)) == w
    obj = um.uelement_to_obj(w)[0]
    assert set(obj) == {"monomial", "coeff"}
    assert set(obj["monomial"]) == {"del", "pairs"}


def _pair_words(n):
    """Every word of at most n canonical pairs, repeats and any order allowed."""
    return [w for k in range(n + 1) for w in itertools.product(um.PAIRS, repeat=k)]


def test_int_normal_form_equals_the_fraction_reference():
    # every word of at most 4 canonical pairs: the int normal form has the
    # value of the Fraction one of tests/oracles, with int coefficients
    for word in _pair_words(4):
        got = um.normal_form(word)
        assert got == oracles.normal_form(word), word
        assert all(type(c) is int for c in got.values()), word


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_letters, st.integers(1, 5)), max_size=6))
def test_normal_form_of_any_word_equals_the_fraction_reference(word):
    # letters in either orientation, d_ii and del_t included
    got = um.normal_form(word)
    assert got == oracles.normal_form(word)
    assert all(type(c) is int for c in got.values())


def test_l0_adjoint_equals_the_fraction_reference():
    # on every PBW monomial of degree at most 4 (so on every word of at most 4
    # pairs, by linearity) and every x_s d/dx_r: int coefficients in give the
    # reference's values as ints, Fraction coefficients give Fractions
    for d in range(5):
        for m in um.pbw_monomials(d):
            for s, r in itertools.product(range(1, 6), repeat=2):
                want = oracles.l0_adjoint(s, r, {m: Q(1)})
                got = um.l0_adjoint(s, r, {m: 1})
                assert got == want, (s, r, m)
                assert all(type(c) is int for c in got.values())
                half = um.l0_adjoint(s, r, {m: Q(1, 2)})
                assert half == {k: v / 2 for k, v in want.items()}
                assert all(type(c) is Q for c in half.values())
