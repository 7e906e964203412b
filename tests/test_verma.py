import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from e510 import fmodules as fm
from e510 import sl5
from e510 import uminus as um
from e510 import verma as V
from e510.linalg import RowReducer, UnluckyPrime, add_into, format_scalar, parse_scalar, to_fp
from oracles import klimyk_multiplicity

ZD = um.ZERO_DEL
D12 = (ZD, ((1, 2),))
D13 = (ZD, ((1, 3),))
D15 = (ZD, ((1, 5),))
D45 = (ZD, ((4, 5),))


def ve(mod, degree, terms):
    return V.VermaElement(mod, degree, {k: Q(v) for k, v in terms.items()})


# -- actions ---------------------------------------------------------------

def test_act_l0_hw_annihilation():
    mod = V.get_module((1, 1, 0, 0))
    w = ve(mod, 0, {((ZD, ()), mod.hw_index): 1})
    for i in range(1, 5):
        assert V.act_l0(i, i + 1, w).is_zero()


def test_act_l0_adjoint_term():
    mod = V.get_module((1, 1, 0, 0))
    w = ve(mod, 1, {((ZD, ((2, 3),)), mod.hw_index): 1})
    got = V.act_l0(1, 2, w)
    assert got.terms == {(D13, mod.hw_index): Q(1)}


def test_act_l0_weight_additivity():
    # h-eigenvalues add across the tensor: weight(u (x) v) = wt(u) + wt(v)
    mod = V.get_module((1, 1, 0, 0))
    rng = random.Random(8)
    for _ in range(20):
        m = rng.choice(um.pbw_monomials(rng.randint(1, 2)))
        idx = rng.randrange(mod.dim)
        w = ve(mod, um.degree(m), {(m, idx): 1})
        expected = sl5.wadd(um.monomial_weight(m), mod.weight_of(idx))
        assert w.weight() == expected
        for i, j in [(1, 2), (2, 3), (3, 4), (4, 5)]:
            # h_ij eigenvalue = pair value of the weight
            hw_val = sl5.pair_value(expected, i, j)
            a = V.act_l0(i, i, w).terms.get((m, idx), Q(0))
            b = V.act_l0(j, j, w).terms.get((m, idx), Q(0))
            assert a - b == hw_val


def test_act_x5d45_nabla_A_vector():
    for m, n in [(0, 0), (1, 1), (2, 1)]:
        mod = V.get_module((m, n, 0, 0))
        w = ve(mod, 1, {(D12, mod.hw_index): 1})
        assert V.act_x5d45(w).is_zero()


def test_act_x5d45_del5():
    mod = V.get_module((1, 0, 0, 0))
    w = ve(mod, 2, {(((0, 0, 0, 0, 1), ()), mod.hw_index): 1})
    got = V.act_x5d45(w)
    assert got.terms == {(D45, mod.hw_index): Q(-1)}
    assert got.degree == 1


def test_act_x5d45_degree_zero():
    mod = V.get_module((1, 1, 0, 0))
    w = ve(mod, 0, {((ZD, ()), mod.hw_index): 1})
    assert V.act_x5d45(w).is_zero()


def test_act_x5d45_lowers_degree_by_one():
    mod = V.get_module((1, 0, 0, 0))
    rng = random.Random(12)
    for _ in range(15):
        m = rng.choice(um.pbw_monomials(rng.randint(1, 3)))
        w = ve(mod, um.degree(m), {(m, rng.randrange(mod.dim)): 1})
        out = V.act_x5d45(w)
        assert out.degree == w.degree - 1
        for (m2, _idx) in out.terms:
            assert um.degree(m2) == w.degree - 1


def test_l1_basis_spans_40_dimensions():
    basis = V.l1_basis()
    assert len(basis) == 40 == sl5.weyl_dimension((1, 1, 0, 0))


# -- singular vectors -------------------------------------------------------

def test_singular_mu_1100():
    mod = V.get_module((1, 1, 0, 0))
    res = V.singular_vectors((1, 1, 0, 0), 1, module=mod)
    assert [lam for lam, _ in res] == [(1, 2, 0, 0)]
    (lam, vecs), = res
    assert len(vecs) == 1
    assert vecs[0].terms == {(D12, mod.hw_index): Q(1)}


def test_singular_mu_0001_nabla_B_leading():
    res = V.singular_vectors((0, 0, 0, 1), 1)
    assert [lam for lam, _ in res] == [(1, 0, 0, 0)]
    (lam, vecs), = res
    lead = V.leading_term(vecs[0])
    assert {m for (m, _i) in lead.terms} == {D15}


def test_singular_mu_1000_is_family_A_member():
    # (1,0,0,0) = (m,n,0,0) at m=1, n=0: the nabla_A singular vector d12 (x) x1
    res = V.singular_vectors((1, 0, 0, 0), 1)
    assert [lam for lam, _ in res] == [(1, 1, 0, 0)]


def test_singular_solution_spaces_one_dimensional():
    for mu in [(1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 0, 1)]:
        for _lam, vecs in V.singular_vectors(mu, 1):
            assert len(vecs) == 1


def test_highest_weight_space_matches_klimyk():
    rng = random.Random(14)
    mus = [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (2, 0, 0, 1)]
    for mu in mus:
        d = rng.choice((1, 2))
        mons = um.pbw_monomials(d)
        weights = [um.monomial_weight(m) for m in mons]
        cands = sorted({sl5.wadd(mu, w) for w in weights
                        if sl5.is_dominant(sl5.wadd(mu, w))})
        for lam in cands[:6]:
            hw = V.highest_weight_vectors(mu, d, lam)
            assert len(hw) == klimyk_multiplicity(mu, weights, lam), (mu, d, lam)


def test_leading_term_top_line_fixed_point():
    mod = V.get_module((1, 1, 0, 0))
    w = ve(mod, 2, {((ZD, ((1, 2), (1, 3))), mod.hw_index): 3})
    assert V.leading_term(w).terms == w.terms


def test_leading_term_nabla_B_family():
    phi = V.nabla_B(1, 1)  # M(2,0,0,1) -> M(1,0,0,2)
    lead = V.leading_term(phi.hw_image())
    assert {m for (m, _i) in lead.terms} == {D15}
    # leading F part is the highest weight line x1^m (x*_5)^{n+1}
    mod = phi.target
    for (_m, idx) in lead.terms:
        assert mod.weight_of(idx) == mod.highest_weight


def test_leading_nonvanishing_and_uniqueness():
    # Prop 3.8: every singular vector has nonzero leading term; equal leading
    # terms imply equal vectors (tested by pairwise normalization)
    for mu in [(1, 1, 0, 0), (0, 0, 1, 1)]:
        for d in (1, 2):
            for _lam, vecs in V.singular_vectors(mu, d):
                for w in vecs:
                    assert not V.leading_term(w).is_zero()


def test_degeneracy_triangle():
    # singular vector exists <-> morphism_from_singular succeeds <-> the
    # morphism applied to 1 (x) hw reproduces the vector exactly
    for mu in [(1, 1, 0, 0), (0, 0, 0, 1)]:
        mod = V.get_module(mu)
        for lam, vecs in V.singular_vectors(mu, 1, module=mod):
            for w in vecs:
                phi = V.morphism_from_singular(w, lam)
                got = V.apply_morphism(phi, {(ZD, ()): Q(1)},
                                       {phi.source.hw_index: Q(1)})
                assert got.terms == w.terms


# -- morphisms ---------------------------------------------------------------

def test_nabla_A_association():
    # Phi = sum d_ij (x) d/dx_ij: on the hw of F(m, n+1, 0, 0) only the (1,2)
    # slot survives with coefficient n+1
    phi = V.nabla_A(1, 1)
    img = V.apply_morphism(phi, {(ZD, ()): Q(1)}, {phi.source.hw_index: Q(1)})
    assert img.terms == {(D12, phi.target.hw_index): Q(2)}
    ok, _ = V.check_morphism(phi)
    assert ok


def test_apply_morphism_zero():
    phi = V.nabla_A(0, 0)
    assert V.apply_morphism(phi, {(ZD, ()): Q(1)}, {}).is_zero()


def test_nabla_B_association():
    # Phi = sum d_ij (x) (x*_i d_j - x*_j d_i): on x1 the image is
    # -sum_{j>1} d_1j (x) x*_j
    phi = V.nabla_B(0, 0)
    img = phi.hw_image()
    monos = {m for (m, _i) in img.terms}
    assert monos == {(ZD, ((1, j),)) for j in range(2, 6)}
    assert all(c == Q(-1) for c in img.terms.values())


def test_nabla_C_hw_image_at_origin():
    # F(0,0,1,0) is all of the wedge dual, so the paper's value
    # sum_{i<j} d_ij (x) x*_ij is literal here
    phi = V.nabla_C(0, 0)
    img = phi.hw_image()
    assert len(img.terms) == 10
    tgt = phi.target
    for (m, idx), c in img.terms.items():
        pair = m[1][0]
        vec = tgt.vectors[idx]
        mono = next(iter(vec))
        k = fm.PAIRS.index(pair)
        assert mono[15 + k] == 1


def test_morphism_from_singular_rejects_non_singular():
    mod = V.get_module((1, 0, 0, 0))
    w = ve(mod, 1, {(D45, mod.hw_index): 1})
    try:
        V.morphism_from_singular(w, w.weight())
    except ValueError as exc:
        assert "singular" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_compose_BA_paper_value():
    # nabla_B nabla_A (1 (x) x1^m x12) = -m sum_{j>1} d12 d1j (x) x1^{m-1} x*_j
    BA = V.compose(V.nabla_B(0, 0), V.nabla_A(1, 0))
    img = BA.hw_image()
    tgt = BA.target  # F(0,0,0,1)
    expected_monos = {(ZD, ((1, 2), (1, j))) for j in (3, 4, 5)}
    got_monos = {m for (m, _i) in img.terms}
    assert got_monos == expected_monos  # d12 d12 = 0 kills j = 2
    for (m, idx), c in img.terms.items():
        j = m[1][1][1]
        vec = tgt.vectors[idx]
        mono = next(iter(vec))
        assert mono[25 + j - 1] == 1  # x*_j line
        assert c == Q(-1)  # -m at m = 1


def test_compose_squares_vanish():
    assert V.compose(V.nabla_A(0, 0), V.nabla_A(0, 1)).is_zero()
    assert V.compose(V.nabla_B(0, 1), V.nabla_B(1, 0)).is_zero()
    assert V.compose(V.nabla_C(1, 0), V.nabla_C(0, 0)).is_zero()


def test_compose_weight_mismatch():
    try:
        V.compose(V.nabla_A(0, 0), V.nabla_B(0, 0))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_CBA_leading_term():
    CBA = V.family_instance("CBA")
    assert (CBA.lam, CBA.mu) == ((1, 1, 0, 0), (0, 0, 1, 1))
    lead = V.morphism_leading_term(CBA)
    assert {m for (m, _i) in lead.terms} == {(ZD, ((1, 2), (1, 5), (4, 5)))}
    tgt = CBA.target
    for (_m, idx) in lead.terms:
        assert tgt.weight_of(idx) == tgt.highest_weight


def test_theta_decomposition_nabla_A():
    phi = V.nabla_A(0, 1)
    thetas = V.theta_decomposition(phi)
    assert all(rep[0] == () for rep in thetas)  # no del blocks at degree 1
    rep_d12 = ((), ((1, 2),))
    hw_col = thetas[rep_d12][phi.source.hw_index]
    assert hw_col == {phi.target.hw_index: Q(2)}


def test_theta_decomposition_del_basis_element():
    # an element with bare del_3 coefficient decomposes onto the (3,) block
    phi = V.nabla_A(0, 0)
    fake = V.MorphismData(2, phi.lam, phi.mu, phi.source, phi.target,
                          {((0, 0, 1, 0, 0), ()): {0: {0: Q(5)}}})
    thetas = V.theta_decomposition(fake)
    assert set(thetas) == {((3,), ())}
    assert thetas[((3,), ())][0] == {0: Q(5)}


_CHAINS = [("A", 0, 0), ("A", 1, 0), ("A", 0, 1), ("B", 0, 0), ("B", 1, 0), ("B", 0, 1),
           ("C", 0, 0), ("C", 1, 0), ("C", 0, 1), ("BA", 1, 0), ("CB", 0, 0),
           ("CA", 0, 0), ("CBA", 0, 0)]


def _nested(d):
    return [(k, _nested(v) if isinstance(v, dict) else v) for k, v in d.items()]


def test_theta_decomposition_matches_inverse_oracle():
    # peeling by del count gives the blocks of the explicit inverse change of
    # basis: the same values, reps, source indices and target indices, all in
    # the same order
    corpus = []
    for chain, m, n in _CHAINS:
        phi = V.family_instance(chain, m, n)
        corpus += [phi, V.dual_morphism(phi)]
        corpus += V.perturbed_controls(phi, 1, seed=11)
        corpus += V.equivariant_controls(phi, 2)
    assert len(corpus) == 43
    for phi in corpus:
        got = V.theta_decomposition(phi)
        assert got
        assert _nested(got) == _nested(oracles.theta_decomposition(phi)), (phi.lam, phi.tag)


def test_theta_CA_relation():
    # theta_{12,45}(s) = 2 theta^3(s) for nabla_C nabla_A
    CA = V.family_instance("CA")
    table = V._theta_table(CA)
    hw = CA.source.hw_index
    th_1245, sg1 = V._theta_lookup(table, (), ((1, 2), (4, 5)))
    th_3, sg3 = V._theta_lookup(table, (3,), ())
    col1 = {k: sg1 * v for k, v in th_1245.get(hw, {}).items()}
    col3 = {k: sg3 * v for k, v in (th_3 or {}).get(hw, {}).items()}
    assert col1 == {k: 2 * v for k, v in col3.items()}
    assert col3  # nonzero


def test_check_morphism_rejects_random_matrix():
    phi = V.nabla_A(0, 0)
    bad = V.perturbed_controls(phi, 1, seed=42)[0]
    ok, diag = V.check_morphism(bad)
    assert not ok and "equivariance" in diag


def test_check_morphism_CB():
    CB = V.family_instance("CB", n=1)  # M(1,0,0,1) -> M(0,0,1,2)
    assert (CB.lam, CB.mu) == ((1, 0, 0, 1), (0, 0, 1, 2))
    ok, diag = V.check_morphism(CB)
    assert ok, diag


def test_verify_equations_agree_with_check():
    corpus = [V.nabla_A(0, 0), V.nabla_B(0, 0), V.nabla_C(0, 0),
              V.family_instance("BA", m=1), V.family_instance("CA")]
    for phi in corpus:
        ok1, _ = V.check_morphism(phi)
        ok2, _ = V.verify_degree_equations(phi)
        assert ok1 and ok2
    for phi in corpus:
        for bad in V.perturbed_controls(phi, 2, seed=7):
            ok1, _ = V.check_morphism(bad)
            ok2, _ = V.verify_degree_equations(bad)
            assert (not ok1) and (not ok2)


def test_verify_equations_unsupported_degree():
    phi = V.nabla_A(0, 0)
    fake = V.MorphismData(4, phi.lam, phi.mu, phi.source, phi.target, {})
    ok, diag = V.verify_degree_equations(fake)
    assert not ok and "unsupported" in diag


def test_equivariant_controls_fail_only_l1():
    CA = V.family_instance("CA")
    ctls = V.equivariant_controls(CA, 2)
    assert ctls
    for bad in ctls:
        ok1, _ = V.check_morphism(bad)
        ok2, diag2 = V.verify_degree_equations(bad)
        assert not ok1 and not ok2
        assert not diag2.startswith("precheck")


def test_hw_controls_equivariant():
    for bad in V.hw_controls((1, 1, 0, 0), 1, 2):
        ok1, _ = V.check_morphism(bad)
        ok2, diag2 = V.verify_degree_equations(bad)
        assert not ok1 and not ok2
        assert not diag2.startswith("precheck")


_GENERATORS = [(r, s) for r in range(1, 6) for s in range(1, 6) if r != s]


def _pattern(bad):
    return [(m, list(cols)) for m, cols in bad.items()]


def test_gen_on_theta_matches_fraction_reference():
    # the integer result is D * (the rational one) for one D > 0 per Phi: the
    # same monomials and columns in the same order, every entry scaled by D
    corpus = []
    for chain, m, n in [("A", 1, 0), ("B", 0, 1), ("C", 0, 1), ("BA", 1, 0),
                        ("CB", 0, 0), ("CA", 0, 0), ("CBA", 0, 0)]:
        phi = V.family_instance(chain, m, n)
        corpus += [phi, V.dual_morphism(phi)]
        if chain != "CBA":
            corpus += V.perturbed_controls(phi, 1, seed=3)
    corpus += V.equivariant_controls(V.family_instance("CA"), 1)
    corpus += V.hw_controls((1, 1, 0, 0), 1, 1)
    for phi in corpus:
        ratios = set()
        for r, s in _GENERATORS:
            got = V._gen_on_theta(phi, r, s)
            want = oracles.gen_on_theta(phi, r, s)
            assert _pattern(got) == _pattern(want), (phi.tag, r, s)
            for m, cols in want.items():
                for n, col in cols.items():
                    assert set(got[m][n]) == set(col)
                    ratios.update(Q(got[m][n][i]) / v for i, v in col.items())
        assert len(ratios) <= 1
        assert all(q > 0 and q.denominator == 1 for q in ratios)


def test_equivariance_failure_matches_the_ordered_scan():
    # the verdict comes from the 8 Chevalley generators, the diagnostic is the
    # first failing generator of all 20 in order: some controls fail first at
    # x_1d3 or x_1d4, before any simple generator but x_1d2 fails
    corpus = []
    for chain, m, n in _CHAINS:
        phi = V.family_instance(chain, m, n)
        corpus += [phi, V.dual_morphism(phi)]
        corpus += V.perturbed_controls(phi, 6, seed=7)
        corpus += V.equivariant_controls(phi, 3)
    assert len(corpus) == 110
    firsts = set()
    for phi in corpus:
        got = V._equivariance_failure(phi)
        assert got == oracles.equivariance_failure(phi), (phi.lam, phi.mu, phi.tag)
        if got:
            firsts.add(got[:2])
    assert {(1, 3), (1, 4)} <= firsts


def _scaled(phi, q):
    return V.MorphismData(phi.degree, phi.lam, phi.mu, phi.source, phi.target,
                          {m: {n: {i: q * c for i, c in col.items()}
                               for n, col in cols.items()}
                           for m, cols in phi.coeffs.items()})


@cache
def _small_morphisms():
    return (V.nabla_A(1, 0), V.family_instance("BA", 1), V.family_instance("CA"))


def _reference_equivariance(phi):
    """check_morphism's verdict from the Fraction reference, when some
    generator fails; None when Phi is L0-invariant."""
    bad = oracles.equivariance_failure(phi)
    if bad is None:
        return None
    r, s, mono = bad
    mono = um.format_monomial(mono)
    return (False, f"L0 equivariance fails at x_{r}d{s}, monomial {mono}"), \
        (False, f"precheck: L0 equivariance fails at x_{r}d{s}")


_RATIONALS = st.builds(Q, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 97))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2), _RATIONALS, _RATIONALS, st.randoms(use_true_random=False))
def test_checks_exact_under_rational_scaling(which, scale, bump, rng):
    phi = _small_morphisms()[which]
    for c in (phi, _scaled(phi, scale)):
        assert V.check_morphism(c) == (True, "ok")
        assert V.verify_degree_equations(c) == (True, "ok")
    m = rng.choice(sorted(phi.coeffs))
    n = rng.randrange(phi.source.dim)
    idx = rng.randrange(phi.target.dim)
    bad = _scaled(phi, 1)
    col = bad.coeffs[m].setdefault(n, {})
    col[idx] = col.get(idx, 0) + bump
    verdicts = (V.check_morphism(bad), V.verify_degree_equations(bad))
    want = _reference_equivariance(bad)
    if want is not None:
        assert verdicts == want
    scaled = _scaled(bad, scale)
    assert (V.check_morphism(scaled), V.verify_degree_equations(scaled)) == verdicts


@cache
def _small_duals():
    return tuple(V.dual_morphism(phi) for phi in _small_morphisms())


def _int_morphism(phi, coeffs):
    return V.MorphismData(phi.degree, phi.lam, phi.mu, phi.source, phi.target, coeffs)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 5), st.permutations(range(1, 6)), _RATIONALS,
       st.randoms(use_true_random=False))
def test_gen_on_theta_commutator_law(which, perm, bump, rng):
    # x -> x . Phi is a representation of L_0: [x_r d_s, x_s d_t] = x_r d_t
    # acts as the commutator of the two actions, which is why invariance
    # under the 8 Chevalley generators is invariance under all 20
    phi = (_small_morphisms() + _small_duals())[which]
    r, s, t = perm[:3]
    bad = _scaled(phi, 1)
    m = rng.choice(sorted(phi.coeffs))
    col = bad.coeffs[m].setdefault(rng.randrange(phi.source.dim), {})
    idx = rng.randrange(phi.target.dim)
    col[idx] = col.get(idx, 0) + bump
    start = _int_morphism(bad, V._clear_denominators(bad.coeffs))

    def act(psi, a, b):
        return _int_morphism(psi, V._gen_on_theta(psi, a, b))

    want = act(start, r, t).coeffs
    got: dict = {}
    for sign, (a, b), (c, d) in ((1, (r, s), (s, t)), (-1, (s, t), (r, s))):
        for mono, cols in act(act(start, c, d), a, b).coeffs.items():
            for n, img in cols.items():
                add_into(got.setdefault(mono, {}).setdefault(n, {}), img, sign)
    got = {mono: {n: img for n, img in cols.items() if img} for mono, cols in got.items()}
    assert {mono: cols for mono, cols in got.items() if cols} == want


@pytest.mark.parametrize("mu,d", [((0, 0, 1, 0), 2), ((0, 0, 0, 1), 1), ((0, 0, 1, 2), 2),
                                  ((2, 0, 0, 1), 2), ((0, 0, 1, 1), 3)],
                         ids=["0010-d2", "0001-d1", "0012-d2", "2001-d2", "0011-d3"])
def test_checks_leave_lazy_target_as_reference(mu, d):
    # morphism_from_singular keeps the search's lazy module as its target,
    # whose F-basis numbering certificates record; the checks must build the
    # weight spaces the rational path builds, in the same order
    def fresh():
        (lam, vecs), = V.singular_vectors(mu, d)
        return V.morphism_from_singular(vecs[0], lam)

    phi, ref = fresh(), fresh()
    assert not phi.target._full and phi.target is not ref.target
    before = list(phi.target.spaces)
    assert V.check_morphism(phi) == (True, "ok")
    assert V.verify_degree_equations(phi) == (True, "ok")
    assert list(phi.target.spaces) != before  # the checks did build spaces
    # the rational path: all 20 generators and x5 d45, then the precheck of
    # verify_degree_equations (its equations read only target columns of
    # theta blocks, combinations of the Phi columns already read).  The checks
    # decide invariance on the 8 Chevalley generators, so they look up fewer
    # weights outside the module; those spaces are empty and number nothing
    def generators():
        for r, s in _GENERATORS:
            assert not oracles.gen_on_theta(ref, r, s)

    def numbered(mod):
        return [(nu, idxs) for nu, idxs in mod.spaces.items() if idxs]

    generators()
    assert V.act_x5d45(ref.hw_image()).is_zero()
    generators()
    assert phi.target.vectors == ref.target.vectors
    assert numbered(phi.target) == numbered(ref.target)


@pytest.mark.parametrize("chain,m,n", [("BA", 1, 1), ("CB", 1, 0), ("CA", 1, 0),
                                       ("CA", 0, 1), ("CBA", 3, 0), ("CBA", 0, 2)])
def test_family_instance_rejects_ignored_parameter(chain, m, n):
    with pytest.raises(ValueError, match=f"chain {chain} does not take"):
        V.family_instance(chain, m, n)


# -- duality -----------------------------------------------------------------

def test_dual_nabla_A_is_C_side():
    phi = V.nabla_A(0, 0)  # M(0,1,0,0) -> M(0,0,0,0)
    psi = V.dual_morphism(phi)
    assert (psi.lam, psi.mu) == ((0, 0, 0, 0), (0, 0, 1, 0))
    ok, diag = V.check_morphism(psi)
    assert ok, diag


def test_dual_twice_identity():
    for phi in [V.nabla_A(1, 0), V.nabla_B(0, 1), V.family_instance("BA", m=1)]:
        psi2 = V.dual_morphism(V.dual_morphism(phi))
        assert (psi2.lam, psi2.mu) == (phi.lam, phi.mu)
        ratios = set()
        for m, cols in phi.coeffs.items():
            for n, col in cols.items():
                for idx, v in col.items():
                    ratios.add(v / psi2.coeffs[m][n][idx])
        assert len(ratios) == 1


def test_dual_of_a_raw_search_morphism():
    # the search's module is lazy: the dual re-expresses onto get_module(mu)
    mu, lam = (0, 0, 0, 1), (1, 0, 0, 0)
    (v,) = dict(V.singular_vectors(mu, 1))[lam]
    assert not v.module._full
    psi = V.dual_morphism(V.morphism_from_singular(v, lam))
    ok, diag = V.check_morphism(psi)
    assert ok, diag
    full = V.dual_morphism(V.morphism_from_singular(V.reexpress(v, V.get_module(mu)), lam))
    assert (psi.lam, psi.mu, psi.coeffs) == (full.lam, full.mu, full.coeffs)


def test_dual_BA_leading_weight():
    # leading weight of the dual is -(leading weight)*
    BA = V.family_instance("BA", m=1)
    psi = V.dual_morphism(BA)
    nu = sl5.wsub(BA.mu, BA.lam)
    nu_dual = sl5.wsub(psi.mu, psi.lam)
    assert nu_dual == tuple(-x for x in sl5.dual_weight(nu))
    ok, _ = V.check_morphism(psi)
    assert ok


def test_dual_degree4_tagged_conjectural():
    phi = V.nabla_A(0, 0)
    fake = V.MorphismData(4, phi.lam, phi.mu, phi.source, phi.target, {})
    psi = V.dual_morphism(fake)
    assert psi.tag == "conjectural"


# -- classification and certificates ----------------------------------------

def test_classify_degree1_box0():
    rows = V.classify(1, 0)
    assert len(rows) == 1
    row = rows[0]
    assert (row.mu, row.lam, row.family) == ((0, 0, 0, 0), (0, 1, 0, 0), "nabla_A")


def test_classify_degree2_box0():
    assert V.classify(2, 0) == []


def test_classify_degree3_box1():
    rows = V.classify(3, 1)
    assert len(rows) == 1
    assert (rows[0].mu, rows[0].lam, rows[0].family) == (
        (0, 0, 1, 1), (1, 1, 0, 0), "nabla_CBA")


def test_certificate_round_trip():
    mod = V.get_module((1, 1, 0, 0))
    (lam, vecs), = V.singular_vectors((1, 1, 0, 0), 1, module=mod)
    fam = V.label_family((1, 1, 0, 0), lam, 1, vecs)
    cert = V.make_certificate((1, 1, 0, 0), lam, 1, vecs[0], fam)
    assert cert["family"] == "nabla_A"
    assert all(cert["checks"].values())
    ok, diag = V.verify_certificate(cert)
    assert ok, diag


def test_certificate_detects_tampering():
    mod = V.get_module((1, 1, 0, 0))
    (lam, vecs), = V.singular_vectors((1, 1, 0, 0), 1, module=mod)
    cert = V.make_certificate((1, 1, 0, 0), lam, 1, vecs[0], "nabla_A")
    cert["vector"][0]["fcoeffs"][0]["coeff"] = "7/2"
    ok, _diag = V.verify_certificate(cert)
    assert not ok


@cache
def _box2_certificate():
    # a degree-2 box-2 hit with 48 vector coefficients, nabla_CB
    mu = (0, 0, 1, 1)
    (lam, vecs), = V.singular_vectors(mu, 2)
    return V.make_certificate(mu, lam, 2, vecs[0], V.label_family(mu, lam, 2, vecs))


@settings(max_examples=25, deadline=None)
@given(st.data(), _RATIONALS)
def test_certificate_tamper_property(data, q):
    # the certificate round-trips through JSON; replacing any one coefficient
    # of its one-dimensional singular vector leaves the computed span
    cert = json.loads(json.dumps(_box2_certificate()))
    assert V.verify_certificate(cert) == (True, "ok")
    entry = data.draw(st.sampled_from(cert["vector"]))
    fc = data.draw(st.sampled_from(entry["fcoeffs"]))
    assume(q != parse_scalar(fc["coeff"]))
    fc["coeff"] = format_scalar(q)
    assert V.verify_certificate(cert) == (
        False, "stored vector is not in the computed solution space")


def test_weight_arithmetic_of_catalogued_morphisms():
    # lam = mu + weight of the leading U-monomial
    for phi in [V.nabla_A(1, 1), V.nabla_B(0, 1), V.nabla_C(0, 1),
                V.family_instance("BA", m=1), V.family_instance("CBA")]:
        lead = V.morphism_leading_term(phi)
        monos = {m for (m, _i) in lead.terms}
        m = next(iter(monos))
        assert phi.lam == sl5.wadd(phi.mu, um.monomial_weight(m))


def test_grading_act_l0_preserves_degree():
    mod = V.get_module((1, 1, 0, 0))
    w = ve(mod, 2, {((ZD, ((1, 2), (3, 4))), 5): 2})
    out = V.act_l0(2, 1, w)
    for (m, _i) in out.terms:
        assert um.degree(m) == 2


def test_is_singular_builds_l1_basis_once():
    V.l1_basis.cache_clear()
    (_lam, vecs), = V.singular_vectors((0, 0, 0, 1), 1)
    for _ in range(3):
        assert V.is_singular(vecs[0], full_l1=True)
    assert V.l1_basis.cache_info().misses == 1


def test_search_reverification_runs_under_optimize():
    # with asserts stripped (-O) a failed re-verification must still raise
    code = (
        "import sys\n"
        "from e510 import verma\n"
        "assert sys.flags.optimize\n"  # stripped: must not stop the check below
        "verma.is_singular = lambda w, full_l1=True: False\n"
        "try:\n"
        "    verma.singular_vectors((0, 1, 0, 0), 1)\n"
        "except ArithmeticError as exc:\n"
        "    print('raised:', exc)\n"
        "else:\n"
        "    sys.exit('no error raised')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(V.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: lifted vector fails the singular check")


def test_stacked_solver_inverts_raising_maps():
    mod = fm.TensorModule((1, 1, 0, 0)).build_full()
    top = mod.highest_weight
    for nu in sorted(set(mod.weights) - {top}):
        solve_combs, zero_combs = V._stacked_solver(mod, nu)
        cols = mod.ensure_weight(nu)
        # stacked row (i, target index) of e_i = x_i d_{i+1} on the space nu
        entries = {i: mod.act_entries(i, i + 1, nu) for i in range(1, 5)}
        nrows = sum(len(mod.ensure_weight(sl5.wadd(nu, sl5.SIMPLE_ROOTS[i - 1])))
                    for i in range(1, 5))

        def apply(comb, col):
            return sum((c * entries[i][col].get(tidx, 0)
                        for (i, tidx), c in comb.items()), Q(0))

        assert list(solve_combs) == sorted(cols)
        for pc, comb in solve_combs.items():
            assert [apply(comb, col) for col in cols] == \
                [int(col == pc) for col in cols]
        assert len(zero_combs) == nrows - len(cols)
        for comb in zero_combs:
            assert comb and all(apply(comb, col) == 0 for col in cols)
        assert V._stacked_solver(mod, nu) is mod.cache("stack")[nu]


def test_label_family_above_degree_three_is_exploratory():
    assert V.label_family((0, 0, 0, 0), (3, 0, 0, 0), 4, []) == "exploratory"
    assert V.label_family((0, 0, 0, 0), (0, 1, 0, 0), 1, []) == "ANOMALY"


# -- the F_p sieve of the search ----------------------------------------------

def _sweep_d2_hits(monkeypatch, prime=None):
    """(mu, lam, dim) of every degree-2 hit over the weights of box 2 with
    entry sum <= 4; exact only (every candidate lifted over Q) when prime is
    None, else sieved mod prime.  Checks every vector on the way."""
    if prime is None:
        def no_fp(x, p):
            raise ZeroDivisionError("exact only")
        monkeypatch.setattr(V, "to_fp", no_fp)
    else:
        monkeypatch.setattr(V, "SIEVE_PRIME", prime)
    hits = []
    for mu in sl5.dominant_weights_in_box(2):
        if sum(mu) > 4:
            continue
        for lam, vecs in V.singular_vectors(mu, 2):
            assert all(V.is_singular(w) for w in vecs)
            hits.append((mu, lam, len(vecs)))
    monkeypatch.undo()
    return hits


def test_sieve_at_tiny_primes_keeps_the_exact_hits(monkeypatch):
    exact = _sweep_d2_hits(monkeypatch)
    assert len(exact) == 6
    real, unlucky = V._sieve, []

    def counting(lift):
        verdict = real(lift)
        if verdict == "unlucky":
            unlucky.append(V.SIEVE_PRIME)
        return verdict

    for p in (2, 3, 5, 7):
        monkeypatch.setattr(V, "_sieve", counting)
        assert _sweep_d2_hits(monkeypatch, p) == exact, p
    # basis-vector halves (p = 2) and stacked raising systems that lose rank
    # mod 3 send those candidates to the Q fallback
    assert {2, 3} <= set(unlucky)


SWEEP_D2 = [(mu, 2) for mu in sl5.dominant_weights_in_box(2) if sum(mu) <= 4]
SWEEPS = SWEEP_D2 + [(mu, 4) for mu in sl5.dominant_weights_in_box(1)]


def _sieve_run(monkeypatch, searches, oracle=False):
    """Run the searches; returns [((mu, d, lam), verdict)] of the sieve on
    every candidate with a leading term, and the hits as (mu, d, lam, vecs).
    With oracle set the sieve reads oracles.fp_view (its F_p inputs
    converted from the rational solver, basis and z-term images)."""
    real_lift, real_sieve = V._lift_singular, V._sieve
    current, verdicts = [], []

    def lift_singular(mod, d, lam, *args, **kwargs):
        current.append((mod.highest_weight, d, lam))
        return real_lift(mod, d, lam, *args, **kwargs)

    def sieve(lift):
        verdict = real_sieve(lift)
        verdicts.append((current[-1], verdict))
        return verdict

    monkeypatch.setattr(V, "_lift_singular", lift_singular)
    monkeypatch.setattr(V, "_sieve", sieve)
    if oracle:
        real_inputs, views = V._lifting_inputs, {}

        def inputs(mod, p):
            if p is None:
                return real_inputs(mod, None)
            if (mod, p) not in views:
                views[mod, p] = oracles.fp_view(mod, p, V._stacked_solver, V._zimage)
            return views[mod, p]

        monkeypatch.setattr(V, "_lifting_inputs", inputs)
    hits = [(mu, d, lam, vecs)
            for mu, d in searches for lam, vecs in V.singular_vectors(mu, d)]
    monkeypatch.undo()
    return verdicts, hits


def _objs(hits, onto_full=False):
    return [(mu, d, lam, [V.verma_element_to_obj(V.reexpress(w, V.get_module(mu))
                                                 if onto_full else w) for w in vecs])
            for mu, d, lam, vecs in hits]


# SHA-256 of the ordered [((mu, d, lam), verdict)] list of the sieve, per
# modulus: the degree-2 box-2 sweep at the small primes (where "unlucky"
# verdicts occur) and both sweeps at 2^31 - 1
VERDICT_PINS = {
    2: "ab9d7803d2a7998bce9381b2565f6c0de3c1ac782fe28ab4c1fdc4fb702d8f43",
    3: "fdb451351227f885fe36f30f001ff4ccf58aeebae2826c7bed1422a5a804754a",
    5: "12bde6c01ad53d5cebf1ce8af2413368431b91e12d9633cf6a32937754df8d43",
    7: "b43a459f47fbe7ef80e9f0f9fcc1400d0444ffe85b52d7869b9667b592822e69",
    V.SIEVE_PRIME: "8958636e3e4dd70c07201b310380311743f7b1f2797fa2632d5f9f2c64ac4969",
}


def _verdict_digest(verdicts) -> str:
    return hashlib.sha256(json.dumps(verdicts, separators=(",", ":")).encode()).hexdigest()


def test_sieve_on_its_own_data_matches_the_converted_sieve(monkeypatch):
    verdicts, hits = _sieve_run(monkeypatch, SWEEPS)
    old_verdicts, old_hits = _sieve_run(monkeypatch, SWEEPS, oracle=True)
    assert verdicts == old_verdicts
    assert _verdict_digest(verdicts) == VERDICT_PINS[V.SIEVE_PRIME]
    assert _objs(hits) == _objs(old_hits)
    # no fallback at 2^31 - 1; every survivor is a hit (575 + 262 killed)
    counts = {v: sum(1 for _, x in verdicts if x == v)
              for v in ("dead", "alive", "unlucky")}
    assert counts == {"dead": 575 + 262, "alive": 6 + 2, "unlucky": 0}
    assert len(hits) == counts["alive"]


@pytest.mark.parametrize("prime", (2, 3, 5, 7))
def test_sieve_verdicts_at_small_primes_are_pinned(monkeypatch, prime):
    monkeypatch.setattr(V, "SIEVE_PRIME", prime)
    verdicts, _ = _sieve_run(monkeypatch, SWEEP_D2)
    assert len(verdicts) == 581
    assert _verdict_digest(verdicts) == VERDICT_PINS[prime]


def test_sieve_builds_zterm_images_only_for_flushed_depths():
    # a candidate's z-term images are made when the lifting flushes their
    # depth, so the sieve makes none for the depths of the candidates it
    # kills before they get there (accumulating every depth at once made
    # 5,326 and 1,409 of them); the Q pass lifts only survivors, which flush
    # every depth
    made = {2: [0, 0], 4: [0, 0]}
    for mu, d in SWEEPS:
        mod = fm.TensorModule(mu)
        V.singular_vectors(mu, d, module=mod)
        made[d][0] += len(mod.cache("zterm", V.SIEVE_PRIME))
        made[d][1] += len(mod.cache("zterm"))
    assert made[2][0] <= 1341 and made[4][0] <= 275
    assert (made[2][1], made[4][1]) == (111, 4)


def test_forced_fallback_at_a_small_prime_keeps_the_vectors(monkeypatch):
    # a small prime may renumber the lazy basis: compare on get_module(mu)
    _, want = _sieve_run(monkeypatch, SWEEP_D2)
    monkeypatch.setattr(V, "SIEVE_PRIME", 3)
    verdicts, hits = _sieve_run(monkeypatch, SWEEP_D2)
    assert any(v == "unlucky" for _, v in verdicts)
    assert _objs(hits, onto_full=True) == _objs(want, onto_full=True)


def test_unlucky_prime_triggers():
    mod = fm.TensorModule((2, 0, 0, 1)).build_full()
    # the one basis vector with a half cannot be reduced mod 2
    (half,) = [i for i, v in enumerate(mod.vectors)
               if any(c.denominator == 2 for c in v.values())]
    with pytest.raises(UnluckyPrime):
        mod.vector(half, p=2)
    # an F_p vector outside its weight space leaves a residual
    nu = mod.weights[half]
    stray = dict(mod.vector(half, p=3))
    stray[max(stray)] = (stray[max(stray)] + 1) % 3
    with pytest.raises(UnluckyPrime):
        mod.coords(nu, stray, p=3)
    # a stacked raising system of F(1,1,0,0) loses rank mod 3, never mod 2^31 - 1
    mod = fm.TensorModule((1, 1, 0, 0)).build_full()
    dropped = []
    for nu in sorted(set(mod.weights) - {mod.highest_weight}):
        V._stacked_solver(mod, nu, p=V.SIEVE_PRIME)
        try:
            V._stacked_solver(mod, nu, p=3)
        except UnluckyPrime:
            dropped.append(nu)
    assert len(dropped) == 1


def test_fp_solver_is_the_rational_solver_mod_p():
    p = V.SIEVE_PRIME
    mod = fm.TensorModule((1, 1, 0, 0)).build_full()
    for nu in sorted(set(mod.weights) - {mod.highest_weight}):
        for r, s in ((1, 2), (2, 3), (3, 4), (4, 5)):
            assert mod.act_entries(r, s, nu, p=p) == {
                col: {k: v for k, c in img.items() if (v := to_fp(c, p))}
                for col, img in mod.act_entries(r, s, nu).items()}
        solve_combs, zero_combs = V._stacked_solver(mod, nu, p=p)
        q_solve, q_zero = V._stacked_solver(mod, nu)
        assert list(solve_combs) == list(q_solve)
        # full column rank mod p: the left kernels have equal dimensions, and
        # the solve combinations differ from the reduced rational ones by a
        # combination of the F_p left kernel
        assert len(zero_combs) == len(q_zero)
        kernel = RowReducer(p)
        for comb in zero_combs:
            kernel.insert(comb)
        for col, comb in solve_combs.items():
            diff = dict(comb)
            add_into(diff, {k: to_fp(c, p) for k, c in q_solve[col].items()}, -1, p)
            assert not kernel.reduce(diff)


def test_sieve_sends_only_survivors_to_the_exact_pass(monkeypatch):
    mu = (0, 0, 1, 0)
    mod = fm.TensorModule(mu)
    first = V.singular_vectors(mu, 2, module=mod)
    moduli = []

    class Recording(V.RowReducer):
        def __init__(self, p=None):
            moduli.append(p)
            super().__init__(p)

    monkeypatch.setattr(V, "RowReducer", Recording)
    # the raising systems are cached now, so every RowReducer made is the
    # constraint system of one lifting: one mod p per candidate with a
    # leading term, one over Q per survivor
    again = V.singular_vectors(mu, 2, module=mod)
    assert [(lam, V.verma_element_to_obj(w)) for lam, vs in again for w in vs] == \
        [(lam, V.verma_element_to_obj(w)) for lam, vs in first for w in vs]
    assert moduli.count(None) == len(again) == 1
    assert moduli.count(V.SIEVE_PRIME) == 5 == len(moduli) - 1


def test_lazy_sweep_modules_are_pinned():
    # the degree-2 sweep's results and every lazy module it builds: weight
    # spaces in build order, basis vectors term by term in stored order and
    # the provenance, values as format_scalar renders them
    h = hashlib.sha256()
    for mu in sl5.dominant_weights_in_box(2):
        if sum(mu) > 4:
            continue
        mod = fm.TensorModule(mu)
        hits = V.singular_vectors(mu, 2, module=mod)
        parts = [
            [[lam, [V.verma_element_to_obj(w) for w in vecs]] for lam, vecs in hits],
            [[nu, idxs] for nu, idxs in mod.spaces.items()],
            [[[m, format_scalar(c)] for m, c in vec.items()] for vec in mod.vectors],
            [[origin, [[k, format_scalar(c)] for k, c in trail], format_scalar(pc)]
             for origin, trail, pc in mod.prov],
        ]
        h.update(json.dumps(parts, separators=(",", ":")).encode())
    assert h.hexdigest() == "22976dfd59af7205b8b2d51fb18c4d161331e15930ccb6197ed59615a48e6142"


def test_depth_memo_matches_dominated_depth():
    mu = (0, 0, 1, 1)
    mod = fm.TensorModule(mu)
    V.singular_vectors(mu, 2, module=mod)
    assert mod.cache("depth")
    for nu, depth in mod.cache("depth").items():
        ks = sl5.dominated_depth(nu, mu)
        assert depth == (None if ks is None else sum(ks))


def test_pickled_module_drops_caches_and_keeps_certificates():
    import pickle

    rows = V.classify_mu((0, 0, 1, 1), 2)
    mod = rows[0].vectors[0].module
    assert mod.cache("zterm") and mod.cache("stack") and \
        any(p is not None and got for (_name, p), got in mod._derived.items())
    back = pickle.loads(pickle.dumps(rows))
    mod2 = back[0].vectors[0].module
    assert mod2._derived == {}
    assert mod2.vectors == mod.vectors and mod2.prov == mod.prov
    for row, row2 in zip(rows, back):
        assert (row2.mu, row2.lam, row2.family) == (row.mu, row.lam, row.family)
        for w, w2 in zip(row.vectors, row2.vectors):
            assert V.make_certificate(row2.mu, row2.lam, 2, w2, row2.family) == \
                V.make_certificate(row.mu, row.lam, 2, w, row.family)


def test_derived_state_sits_in_one_store():
    # after a search, both checks and a dual, a search module and a
    # DualModule hold their basis data and one store of derived caches, and
    # the read-only aliases that the benchmark's probes read are that store
    phi = V.nabla_C(0, 0)
    psi = V.dual_morphism(phi)
    for f in (phi, psi):
        assert V.check_morphism(f)[0] and V.verify_degree_equations(f)[0]
    mod = phi.target
    assert psi.source.base is mod and psi.target.base is phi.source
    assert set(vars(mod)) == {"weight", "vectors", "weights", "prov", "spaces", "pivots",
                              "_full", "_derived"}
    assert {"act", "actions", "stack", "zterm", "depth"} <= {n for n, p in mod._derived}
    assert {("stack", V.SIEVE_PRIME), ("bases", V.SIEVE_PRIME)} <= set(mod._derived)
    for dual in (psi.source, psi.target):
        assert isinstance(dual, fm.DualModule)
        assert set(vars(dual)) == {"base", "weight", "hw_index", "_weights", "_derived"}
        assert ("act", None) in dual._derived
    assert ("actions", None) in psi.target._derived
    for m in (mod, psi.source, psi.target):
        assert m._act_cache is m.cache("act") and m._stack_cache is m.cache("stack")
        with pytest.raises(AttributeError):
            m._act_cache = {}
        assert m.__getstate__().keys() == set(vars(m)) - {"_derived"}


def test_clear_caches_empties_every_global_cache():
    def search():
        return [(lam, V.verma_element_to_obj(w))
                for lam, vecs in V.singular_vectors((0, 0, 1, 0), 2) for w in vecs]

    before = search()
    V.get_module((0, 1, 0, 0))
    V.l1_basis()
    um.omega_basis(2)
    V.clear_caches()
    assert V._l0_mono.cache_info().currsize == 0
    assert V._odd_action.cache_info().currsize == 0
    assert V._transitions.cache_info().currsize == 0
    # every memoized function of either namespace, so a forgotten one fails
    memoized = {(ns.__name__, name): obj.cache_info().currsize
                for ns in (V, um) for name, obj in vars(ns).items()
                if hasattr(obj, "cache_info")}
    assert {("e510.verma", "l1_basis"), ("e510.uminus", "omega_basis")} <= set(memoized)
    assert all(size == 0 for size in memoized.values()), memoized
    assert V._module_cache == {}
    assert um._order_cache == {}
    assert search() == before
