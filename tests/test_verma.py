import collections
import copy
import hashlib
import itertools
import json
import math
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
        weights = [um.monomial_weight(m) for m in um.pbw_monomials(d)]
        for lam in oracles.dominant_candidates(mu, d)[:6]:
            hw, _sing = oracles.verma_kernels(mu, d, lam)
            assert len(hw) == klimyk_multiplicity(mu, weights, lam), (mu, d, lam)


_CHARACTER_CASES = [((0, 0, 0, 3), 4), ((0, 0, 1, 0), 5), ((0, 0, 0, 2), 7),
                    ((0, 0, 0, 1), 11)]


@pytest.mark.parametrize("mu,d", _CHARACTER_CASES,
                         ids=["".join(map(str, mu)) + f"-d{d}" for mu, d in _CHARACTER_CASES])
def test_lifting_without_zterms_finds_the_klimyk_multiplicity(mu, d, monkeypatch):
    # with the z-term records emptied the lifting imposes the raisings
    # alone, so at every candidate lam its kernel is the space of highest
    # weight vectors of weight lam in M(mu)_d, whose dimension is the
    # Racah-Klimyk multiplicity of F(lam) in F(mu) (x) U(L_-)_d; the
    # singular vectors the search finds there are at most that many
    weights = [um.monomial_weight(m) for m in um.pbw_monomials(d)]
    hits = {lam: len(vecs) for lam, vecs in V.singular_vectors(mu, d)}
    groups, trans, zrecords = V._degree_tables(d)
    tables = (groups, trans, {m: () for m in zrecords})
    monkeypatch.setattr(V, "is_singular", lambda w: True)
    mod = fm.TensorModule(mu)
    for lam in V._candidates(mu, groups):
        want = klimyk_multiplicity(mu, weights, lam)
        assert len(V._lift_singular(mod, d, lam, tables)) == want, lam
        assert hits.pop(lam, 0) <= want, lam
    assert not hits


_COMPLETENESS_CASES = [
    *((mu, d) for mu in [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (2, 0, 0, 1),
                         (0, 0, 1, 1)] for d in (1, 2)),
    ((0, 0, 1, 1), 3), ((1, 1, 0, 0), 3)]


@pytest.mark.parametrize("mu,d", _COMPLETENESS_CASES,
                         ids=["".join(map(str, mu)) + f"-d{d}" for mu, d in _COMPLETENESS_CASES])
def test_search_is_complete_against_dense_kernel(mu, d):
    # at every dominant candidate the search returns a basis of the singular
    # space that dense elimination finds on get_module(mu): as many vectors,
    # each inside that space once re-expressed there
    found = dict(V.singular_vectors(mu, d))
    full = V.get_module(mu)
    for lam in oracles.dominant_candidates(mu, d):
        _hw, sing = oracles.verma_kernels(mu, d, lam)
        vecs = found.pop(lam, [])
        assert len(sing) == len(vecs), (mu, d, lam)
        for w in vecs:
            assert oracles.in_span(sing, V.reexpress(w, full)), (mu, d, lam)
    assert not found


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
        assert fm.unpack(mono)[15 + k] == 1


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
        assert fm.unpack(mono)[25 + j - 1] == 1  # x*_j line
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


def _verdicts(phi):
    fresh = V.MorphismData(phi.degree, phi.lam, phi.mu, phi.source, phi.target,
                           phi.coeffs, phi.tag)
    return V.check_morphism(fresh), V.verify_degree_equations(fresh)


def test_morphism_layer_matches_the_fraction_references(monkeypatch):
    # the integer-scaled theta blocks, duals, compositions and equivariant
    # controls equal their Fraction forms value for value, with the keys in
    # the same order at all three levels (monomial, source column, target
    # index), and both checks say the same of each; the degree equations
    # read off the Fraction-first theta table say the same too.  The corpus:
    # the 13 chains, 6 perturbed controls at each of seeds 0, 1 and 7, up to
    # 3 equivariant controls per chain, and every chain's and control's dual
    corpus, pairs = [], []
    for chain, m, n in _CHAINS:
        phi = V.family_instance(chain, m, n)
        controls = V.equivariant_controls(phi, 3)
        references = oracles.equivariant_controls(phi, 3)
        assert len(controls) == len(references)
        pairs += zip(controls, references)
        for psi in [phi, *controls]:
            dual = V.dual_morphism(psi)
            pairs.append((dual, oracles.dual_morphism(psi)))
            corpus += [psi, dual]
        for seed in (0, 1, 7):
            corpus += V.perturbed_controls(phi, 6, seed=seed)
    assert len(corpus) == 272
    A, B, C = V.nabla_A(1, 0), V.nabla_B(0, 0), V.nabla_C(0, 1)
    for phi2, phi1 in [(B, A), (V.nabla_C(0, 0), V.nabla_A(0, 0)), (C, V.compose(B, A)),
                       (V.compose(C, B), A)]:
        pairs.append((V.compose(phi2, phi1), oracles.compose(phi2, phi1)))
        duals = V.dual_morphism(phi1), V.dual_morphism(phi2)
        pairs.append((V.compose(*duals), oracles.compose(*duals)))
    for got, want in pairs:
        assert _nested(got.coeffs) == _nested(want.coeffs), (got.lam, got.mu, got.tag)
        assert all(type(c) is int for cols in got.coeffs.values() for col in cols.values()
                   for c in col.values() if c.denominator == 1)
        assert (got.degree, got.lam, got.mu, got.tag) == (want.degree, want.lam, want.mu, want.tag)
        assert got.source is want.source and got.target is want.target
        assert _verdicts(got) == _verdicts(want)
    for phi in corpus:
        for column in (None, phi.source.hw_index):
            assert _nested(V.theta_decomposition(phi, column)) == \
                _nested(oracles.peeled_theta(phi, column)), phi.tag
    got = [_verdicts(phi) for phi in corpus]
    monkeypatch.setattr(V, "_theta_table", oracles.theta_table)
    assert [_verdicts(phi) for phi in corpus] == got
    assert {diag.split(" fails")[0] for _check, (_ok, diag) in got} == {
        "ok", "precheck: L0 equivariance", "degree-2 equation", "degree-3 equation (6)"}


def test_extension_divides_once_and_no_control_decomposes_nothing(monkeypatch):
    # morphism_from_singular divides each extended image by its pivot once,
    # so every integral coefficient off the highest weight column is an int;
    # asking for no equivariant control decomposes nothing
    phi = V.nabla_C(0, 1)
    values = [c for cols in phi.coeffs.values() for n, col in cols.items()
              if n != phi.source.hw_index for c in col.values()]
    assert any(c.denominator > 1 for c in values)
    assert all(type(c) is int for c in values if c.denominator == 1)
    monkeypatch.setattr(V, "_int_thetas", lambda *args: pytest.fail("decomposed"))
    assert V.equivariant_controls(V.family_instance("CA"), 0) == []


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


def test_verify_equations_agree_with_check(monkeypatch):
    # the equations accept exactly what check_morphism accepts, and deciding
    # them on the highest weight column first returns what evaluating them on
    # every column of F(lam) returns, diagnostic included
    corpus = [V.family_instance(chain, m, n) for chain, m, n in _CHAINS]
    for phi in corpus:
        ok1, _ = V.check_morphism(phi)
        ok2, _ = V.verify_degree_equations(phi)
        assert ok1 and ok2
    controls = [bad for phi in corpus for bad in V.perturbed_controls(phi, 2, seed=7)]
    controls += V.equivariant_controls(V.family_instance("CA"), 2)
    controls += V.equivariant_controls(V.family_instance("CBA"), 2)
    controls += oracles.hw_controls((1, 1, 0, 0), 1, 2)
    for bad in controls:
        ok1, _ = V.check_morphism(bad)
        ok2, _ = V.verify_degree_equations(bad)
        assert (not ok1) and (not ok2)
    got = [V.verify_degree_equations(phi) for phi in corpus + controls]
    assert {phi.degree for phi, (_, diag) in zip(controls, got[len(corpus):])
            if not diag.startswith("precheck")} == {1, 2, 3}
    real = V._theta_table
    monkeypatch.setattr(V, "_theta_table", lambda phi, column=None: real(phi))
    assert [V.verify_degree_equations(_unchecked(phi)) for phi in corpus + controls] == got


# weights of box 1 whose degree-3 highest-weight controls take under 1.5 s
_DEG3_HW_MUS = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0),
                (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1), (1, 1, 0, 0)]


def test_degree3_equations_need_one_orientation():
    # the second orientation (a, c, b) of the letters outside Q names no
    # failure the first misses: verdicts and diagnostics equal the
    # two-orientation reference on the highest weight column and on all, for
    # the degree-3 chain, its dual, its controls and highest-weight controls
    corpus = []
    for chain, m, n in _CHAINS:
        phi = V.family_instance(chain, m, n)
        if phi.degree == 3:
            corpus += [phi, V.dual_morphism(phi)]
            for seed in (0, 1, 7):
                corpus += V.perturbed_controls(phi, 6, seed=seed)
            corpus += V.equivariant_controls(phi, 3)
    for mu in _DEG3_HW_MUS:
        corpus += oracles.hw_controls(mu, 3, 3)
    assert len(corpus) == 53
    named = set()
    for phi in corpus:
        for column in (phi.source.hw_index, None):
            table = V._theta_table(phi, column)
            got = V._equations_deg3(phi, table)
            assert got == oracles.equations_deg3(phi, table), phi.tag
            named.add(got[1].split(" fails")[0])
    assert named == {"ok"} | {f"degree-3 equation ({k})" for k in (3, 4, 5, 6)}


def test_equations_of_a_morphism_read_only_the_hw_column(monkeypatch):
    # an invariant Phi that passes is decided on the highest weight column of
    # F(lam): the target action is applied to no other source column's
    # theta blocks; a Phi that fails is scanned on the other columns too
    columns = []
    real = V._mat_apply

    def counted(phi, r, s, theta):
        columns.extend(theta)
        return real(phi, r, s, theta)

    monkeypatch.setattr(V, "_mat_apply", counted)
    A = V.nabla_A(1, 0)
    for phi in [A, V.dual_morphism(A), V.family_instance("CA"), V.family_instance("CBA")]:
        columns.clear()
        assert V.verify_degree_equations(phi) == (True, "ok")
        assert columns and set(columns) == {phi.source.hw_index}
    for bad in (oracles.hw_controls((1, 1, 0, 0), 1, 1)
                + V.equivariant_controls(V.family_instance("CA"), 1)
                + V.equivariant_controls(V.family_instance("CBA"), 1)):
        columns.clear()
        assert not V.verify_degree_equations(bad)[0]
        assert set(columns) > {bad.source.hw_index}


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
    for bad in oracles.hw_controls((1, 1, 0, 0), 1, 2):
        ok1, _ = V.check_morphism(bad)
        ok2, diag2 = V.verify_degree_equations(bad)
        assert not ok1 and not ok2
        assert not diag2.startswith("precheck")


_GENERATORS = [(r, s) for r in range(1, 6) for s in range(1, 6) if r != s]


def _column(bad, n):
    """Column n of a morphism-shaped dict as terms (monomial, index) -> value."""
    return {(m, i): v for m, cols in bad.items() for i, v in cols.get(n, {}).items()}


def test_gen_on_theta_matches_fraction_reference():
    # the integer operator on each column is D * (that column of the
    # rational x_r d_s . Phi) for one D > 0 per Phi: the same terms, every
    # entry scaled by D
    corpus = []
    for chain, m, n in [("A", 1, 0), ("B", 0, 1), ("C", 0, 1), ("BA", 1, 0),
                        ("CB", 0, 0), ("CA", 0, 0), ("CBA", 0, 0)]:
        phi = V.family_instance(chain, m, n)
        corpus += [phi, V.dual_morphism(phi)]
        if chain != "CBA":
            corpus += V.perturbed_controls(phi, 1, seed=3)
    corpus += V.equivariant_controls(V.family_instance("CA"), 1)
    corpus += oracles.hw_controls((1, 1, 0, 0), 1, 1)
    for phi in corpus:
        ratios = set()
        columns = V._int_columns(phi)
        for r, s in _GENERATORS:
            want = oracles.gen_on_theta(phi, r, s)
            action = phi.source.action(r, s)
            for n in range(phi.source.dim):
                got = V._gen_on_theta(phi, columns, r, s, n, action[n])
                col = _column(want, n)
                assert set(got) == set(col), (phi.tag, r, s, n)
                ratios.update(Q(got[k]) / v for k, v in col.items())
        assert len(ratios) <= 1
        assert all(q > 0 and q.denominator == 1 for q in ratios)


def test_equivariance_failure_matches_the_ordered_scan():
    # the verdict comes from the lowering frame, the diagnostic is the first
    # failing generator of all 20 in order and its first failing monomial in
    # the morphism-shaped order: some controls fail first at x_1d3 or x_1d4
    corpus = []
    for chain, m, n in _CHAINS:
        phi = V.family_instance(chain, m, n)
        corpus += [phi, V.dual_morphism(phi)]
        for seed in (0, 1, 7):
            corpus += V.perturbed_controls(phi, 6, seed=seed)
        for ctl in V.equivariant_controls(phi, 3):
            corpus += [ctl, V.dual_morphism(ctl)]
    assert len(corpus) == 272
    firsts = set()
    for phi in corpus:
        got = V._equivariance_failure(phi)
        assert got == oracles.equivariance_failure(phi), (phi.lam, phi.mu, phi.tag)
        if got:
            firsts.add(got[:2])
    assert {(1, 3), (1, 4)} <= firsts


# frame sources: F(lam) of dimension 5 to 280, with multiplicities up to 8
_FRAME_WEIGHTS = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1),
                  (2, 0, 1, 0), (1, 1, 1, 0)]


def _lowering_coords(mod, i, p):
    """Coordinates of x_{i+1} d/dx_i . b_p in mod's basis, from its action."""
    return {n: c for n, c in mod.action(i + 1, i)[p].items() if c}


@pytest.mark.parametrize("lam", _FRAME_WEIGHTS)
def test_tensor_frame_is_the_prov_origins(lam):
    # a built module's frame is what it was built from: one pair per vector
    # below the top, (i, p) its prov origin and coords that lowering's
    # coordinates (pc at the new vector, the trail at earlier ones), though
    # it is found by greedy elimination over the lowering columns
    mod = V.get_module(lam)
    frame = mod.lowering_frame()
    assert mod.lowering_frame() is frame
    assert [pair for pair, _ in frame] == [origin for origin, _, _ in mod.prov[1:]]
    for n, ((i, p), coords) in enumerate(frame, start=1):
        assert coords == _lowering_coords(mod, i, p)
        assert coords[n] == mod.prov[n][2] and max(coords) == n
    with pytest.raises(ValueError, match="not fully built"):
        fm.TensorModule(lam).lowering_frame()


def _depth(mod, nu):
    return sum(sl5.dominated_depth(nu, mod.highest_weight))


@pytest.mark.parametrize("lam", _FRAME_WEIGHTS)
def test_dual_frame_spans_each_weight_space(lam):
    # the dual's frame: columns of its own lowerings, from the weight space
    # just above, in order of depth, as many in each weight space below the
    # top as its dimension and independent there; kept in the store
    dual = V.get_module(lam).dual()
    frame = dual.lowering_frame()
    assert dual.lowering_frame() is frame and len(frame) == dual.dim - 1
    spans: dict = {}
    depths = []
    for (i, p), coords in frame:
        assert coords == _lowering_coords(dual, i, p)
        nu = sl5.wsub(dual.weight_of(p), sl5.SIMPLE_ROOTS[i - 1])
        assert {dual.weight_of(n) for n in coords} == {nu}
        assert spans.setdefault(nu, RowReducer()).insert(coords)
        depths.append(_depth(dual, nu))
    assert depths == sorted(depths) and depths[0] == 1
    by_weight = collections.Counter(dual.weight_of(n) for n in range(dual.dim))
    assert {nu: span.rank for nu, span in spans.items()} == \
        {nu: k for nu, k in by_weight.items() if nu != dual.highest_weight}


def _extended(phi, scaled):
    """phi's highest weight image extended along the source's prov, as
    morphism_from_singular does, but with the image of vector `scaled` taken
    twice: every frame relation then holds except the one that made it."""
    src = phi.source
    images = [phi.hw_image()] + [None] * (src.dim - 1)
    for n in range(1, src.dim):
        (i, p), trail, pc = src.prov[n]
        img = V.act_l0(i + 1, i, images[p])
        for k, c in trail:
            img = img.plus(images[k], -c)
        images[n] = img.scaled(Q(2 if n == scaled else 1) / pc)
    return V.MorphismData(phi.degree, phi.lam, phi.mu, src, phi.target,
                          V._coeffs(img.terms for img in images))


@pytest.mark.parametrize("chain,m,n", [("A", 1, 0), ("B", 0, 1), ("C", 0, 1), ("CA", 0, 0)])
def test_frame_check_reads_every_frame_pair(chain, m, n):
    # breaking the one frame relation that made vector n (its image doubled,
    # the rest extended from it) fails the frame check, for every n; the
    # first few of them get the reference's verdict too
    phi = V.family_instance(chain, m, n)
    assert V._frame_holds(phi, V._int_columns(phi))
    for k in range(1, phi.source.dim):
        bad = _extended(phi, k)
        assert not V._frame_holds(bad, V._int_columns(bad)), k
        if k <= 3:
            got = V._equivariance_failure(bad)
            assert got is not None and got == oracles.equivariance_failure(bad), k


def _on_trivial_source(mu, pair, idx):
    """Phi: F(0,0,0,0) -> M(mu)_1 with Phi(b_0) = d_pair (x) b_idx: an empty
    frame, so only (i) and (ii) of the frame lemma can reject it."""
    return V.MorphismData(1, (0, 0, 0, 0), mu, V.get_module((0, 0, 0, 0)), V.get_module(mu),
                          {(ZD, (pair,)): {0: {idx: Q(1)}}}, tag=f"d{pair}")


def test_frame_lemma_targeted_controls():
    # x_1 d_2 kills both and the trivial source has an empty frame: d12 (x) b_0
    # is a highest weight vector of weight (0,1,0,0), not lam = 0, so only
    # (i) rejects it; d34 (x) b_2 in M(0,0,1,0) has weight 0 but x_2 d_3 does
    # not kill it, so only (ii) does.  Both get the reference's diagnostic.
    assert V.get_module((0, 0, 0, 0)).lowering_frame() == []
    wrong_weight = _on_trivial_source((0, 0, 0, 0), (1, 2), 0)
    not_highest = _on_trivial_source((0, 0, 1, 0), (3, 4), 2)
    assert wrong_weight.hw_image().weight() == (0, 1, 0, 0)
    assert not_highest.hw_image().weight() == (0, 0, 0, 0)
    for bad, want in ((wrong_weight, (3, 1, (ZD, ((2, 3),)))),
                      (not_highest, (1, 3, (ZD, ((1, 4),))))):
        columns = V._int_columns(bad)
        assert not V._gen_on_theta(bad, columns, 1, 2, bad.source.hw_index, {})
        assert not V._frame_holds(bad, columns)
        assert oracles.equivariance_failure(bad) == want
        r, s, mono = want
        assert V.check_morphism(bad) == \
            (False, f"L0 equivariance fails at x_{r}d{s}, monomial {um.format_monomial(mono)}")
        assert V.verify_degree_equations(bad) == \
            (False, f"precheck: L0 equivariance fails at x_{r}d{s}")


def test_frame_and_generators_disagreeing_raises(monkeypatch):
    # the lemma makes a failing frame check a failing generator; were it not
    # so, the scan raises rather than call Phi invariant or name nothing
    monkeypatch.setattr(V, "_frame_holds", lambda phi, columns: False)
    with pytest.raises(ArithmeticError, match="lowering frame"):
        V.check_morphism(_unchecked(V.nabla_A(1, 0)))


def _unchecked(phi):
    return V.MorphismData(phi.degree, phi.lam, phi.mu, phi.source, phi.target,
                          phi.coeffs, phi.tag)


def test_checks_decide_invariance_once(monkeypatch):
    # the first check keeps the verdict on Phi: an invariant Phi costs one
    # frame check for both checks (the raisings at b_hw, then one lowering
    # per frame pair), and a failing one costs the second check nothing
    A = V.nabla_A(1, 0)
    invariant = [A, V.family_instance("CA"), V.family_instance("CBA"), V.dual_morphism(A)]
    assert [phi.degree for phi in invariant] == [1, 2, 3, 1]
    control = V.perturbed_controls(V.family_instance("BA", 1), 1, seed=7)[0]
    calls = []
    real, real_frame = V._gen_on_theta, V._frame_holds

    def counted(phi, columns, r, s, n, coords):
        calls.append((r, s))
        return real(phi, columns, r, s, n, coords)

    def counted_frame(phi, columns):
        calls.append("frame")
        return real_frame(phi, columns)

    monkeypatch.setattr(V, "_gen_on_theta", counted)
    monkeypatch.setattr(V, "_frame_holds", counted_frame)
    for phi in invariant:
        calls.clear()
        checked = _unchecked(phi)
        assert V.check_morphism(checked) == (True, "ok")
        assert V.verify_degree_equations(checked) == (True, "ok")
        assert calls == ["frame", (1, 2), (2, 3), (3, 4), (4, 5)] + \
            [(i + 1, i) for (i, _p), _coords in phi.source.lowering_frame()]
        assert checked == _unchecked(phi) and repr(checked) == repr(_unchecked(phi))
    checked = _unchecked(control)
    assert not V.check_morphism(checked)[0]
    before = len(calls)
    assert V.verify_degree_equations(checked)[0] is False
    assert len(calls) == before
    assert checked == _unchecked(control) and repr(checked) == repr(_unchecked(control))


_SEVEN = [("A", 1, 0), ("B", 0, 1), ("C", 0, 1), ("BA", 1, 0), ("CB", 0, 0),
          ("CA", 0, 0), ("CBA", 0, 0)]


def test_valid_checks_build_no_dual_module():
    # the checks read a TensorModule source's frame and action, not the
    # action of its dual, so checking the chains makes no DualModule
    V.clear_caches()
    chains = [V.family_instance(*spec) for spec in _SEVEN]
    for phi in chains:
        assert V.check_morphism(phi) == (True, "ok")
        assert V.verify_degree_equations(phi) == (True, "ok")
    for phi in chains:
        assert isinstance(phi.source, fm.TensorModule)
        assert phi.source.cache("dual") == {} and phi.target.cache("dual") == {}


def test_checks_read_lowerings_from_the_record(monkeypatch):
    # once the modules are built, checking the chains and their duals lowers
    # no ambient vector to read a column: every lowering column comes from
    # the record (building a weight space still lowers its parents)
    V.clear_caches()
    chains = [V.family_instance(*spec) for spec in _SEVEN]
    chains += [V.dual_morphism(phi) for phi in chains]
    calls, building = [], [0]
    real, real_ensure = fm.glact_vector, fm.TensorModule.ensure_weight

    def counted(r, s, vec, **kwargs):
        if not building[0]:
            calls.append((r, s))
        return real(r, s, vec, **kwargs)

    def ensure_weight(mod, nu):
        building[0] += 1
        try:
            return real_ensure(mod, nu)
        finally:
            building[0] -= 1

    monkeypatch.setattr(fm, "glact_vector", counted)
    monkeypatch.setattr(fm.TensorModule, "ensure_weight", ensure_weight)
    for phi in chains:
        assert V.check_morphism(phi) == (True, "ok")
        assert V.verify_degree_equations(phi) == (True, "ok")
    assert calls and not [(r, s) for r, s in calls if r == s + 1]


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
    # acts as the commutator of the two actions, so the generators that kill
    # Phi form a subalgebra
    phi = (_small_morphisms() + _small_duals())[which]
    r, s, t = perm[:3]
    bad = _scaled(phi, 1)
    m = rng.choice(sorted(phi.coeffs))
    col = bad.coeffs[m].setdefault(rng.randrange(phi.source.dim), {})
    idx = rng.randrange(phi.target.dim)
    col[idx] = col.get(idx, 0) + bump
    start = _int_morphism(bad, V._int_coeffs(bad)[1])

    def act(psi, a, b):
        # x_a d_b . psi assembled from the columns of the one operator
        columns, action = V._int_columns(psi), psi.source.action(a, b)
        return _int_morphism(psi, V._coeffs(V._gen_on_theta(psi, columns, a, b, n, action[n])
                                            for n in range(psi.source.dim)))

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
    # a search vector's morphism maps into get_module(mu); the search's lazy
    # module, whose F-basis numbering certificates record, stays the
    # reference for w: building the morphism and both checks build no weight
    # space there, and its image of the highest weight vector is w
    (lam, vecs), = V.singular_vectors(mu, d)
    w = vecs[0]
    mod = w.module
    assert not mod._full
    before = list(mod.spaces)
    phi = V.morphism_from_singular(w, lam, check=False)
    assert phi.target is V.get_module(mu) and phi.source is V.get_module(lam)
    assert V.check_morphism(phi) == (True, "ok")
    assert V.verify_degree_equations(phi) == (True, "ok")
    assert list(mod.spaces) == before
    assert V.reexpress(phi.hw_image(), mod).terms == w.terms


def test_a_search_morphism_composes_and_makes_controls():
    # the morphism of a search vector maps between fully built modules, so
    # it composes with a catalogued one (nabla_B . nabla_A found by the
    # search) and its perturbed controls are formed and rejected
    lam = (1, 1, 0, 0)
    (w,) = dict(V.singular_vectors((1, 0, 0, 0), 1))[lam]
    phi = V.morphism_from_singular(w, lam)
    BA = V.compose(V.nabla_B(0, 0), phi)
    assert BA.coeffs == V.family_instance("BA", m=1).coeffs
    assert V.check_morphism(BA) == (True, "ok")
    assert V.verify_degree_equations(BA) == (True, "ok")
    controls = V.perturbed_controls(phi, 3, seed=5)
    assert len(controls) == 3
    for bad in controls:
        assert not V.check_morphism(bad)[0], bad.tag
        assert not V.verify_degree_equations(bad)[0], bad.tag


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


@pytest.mark.parametrize("chain, m, n", _CHAINS)
def test_double_dual_is_the_morphism_itself(chain, m, n):
    # the dual of a module's dual is the module, and the two (-1)^k weights
    # cancel, so the double dual has phi's own modules and coefficients
    phi = V.family_instance(chain, m, n)
    back = V.dual_morphism(V.dual_morphism(phi))
    assert back.source is phi.source and back.target is phi.target
    assert back.coeffs == phi.coeffs


@pytest.mark.parametrize("chain, factors, sign", [
    ("BA", lambda: [V.nabla_B(0, 0), V.nabla_A(1, 0)], -1),
    ("CB", lambda: [V.nabla_C(0, 1), V.nabla_B(0, 0)], -1),
    ("CA", lambda: [V.nabla_C(0, 0), V.nabla_A(0, 0)], -1),
    ("CBA", lambda: [V.nabla_C(0, 1), V.compose(V.nabla_B(0, 0), V.nabla_A(1, 0))], 1),
    ("CBA", lambda: [V.compose(V.nabla_C(0, 1), V.nabla_B(0, 0)), V.nabla_A(1, 0)], 1),
], ids=["BA", "CB", "CA", "C.BA", "CB.A"])
def test_dual_of_a_composite_composes_the_duals(chain, factors, sign):
    # dual(phi2 . phi1) = (-1)^(d1 d2) dual(phi1) . dual(phi2): the duals
    # of one module are one object, so the duals of a chain compose
    phi2, phi1 = factors()
    composite = V.compose(phi2, phi1)
    assert composite.coeffs == V.family_instance(chain, 1 if chain == "BA" else 0).coeffs
    assert sign == (-1) ** (phi1.degree * phi2.degree)
    dual = V.dual_morphism(composite)
    chained = V.compose(V.dual_morphism(phi1), V.dual_morphism(phi2))
    assert (chained.source, chained.target) == (dual.source, dual.target)
    assert chained.coeffs == _scaled(dual, sign).coeffs
    ok, diag = V.check_morphism(chained)
    assert ok, diag


def test_dual_of_a_raw_search_morphism():
    # the search's module is lazy; the morphism maps into get_module(mu), so
    # its dual is that of the morphism of the re-expressed vector
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


def test_verify_certificate_runs_each_check_once(monkeypatch):
    # verify_certificate reads the singular verdict from the checks it re-runs
    # and builds the morphism for the equations unchecked, so beyond what the
    # search applies, x_5 d45 and the L_1 spanning set (one l1_images) act
    # on the stored vector once each
    mu = (1, 1, 0, 0)
    (lam, vecs), = V.singular_vectors(mu, 1)
    cert = V.make_certificate(mu, lam, 1, vecs[0], V.label_family(mu, lam, 1, vecs))
    calls = []
    for name in ("act_x5d45", "l1_images", "morphism_from_singular"):
        def counted(*args, real=getattr(V, name), name=name, **kwargs):
            calls.append((name, kwargs.get("check")))
            return real(*args, **kwargs)
        monkeypatch.setattr(V, name, counted)
    V.singular_vectors(mu, 1)
    search = collections.Counter(calls)
    calls.clear()
    assert V.verify_certificate(cert) == (True, "ok")
    assert collections.Counter(calls) - search == collections.Counter(
        {("act_x5d45", None): 1, ("l1_images", None): 1,
         ("morphism_from_singular", False): 1})


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
        assert V.is_singular(vecs[0])
    assert V.l1_basis.cache_info().misses == 1


def test_search_reverification_runs_under_optimize():
    # with asserts stripped (-O) a failed re-verification must still raise
    code = (
        "import sys\n"
        "from e510 import verma\n"
        "assert sys.flags.optimize\n"  # stripped: must not stop the check below
        "verma.is_singular = lambda w: False\n"
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

def _skip_sieve(monkeypatch):
    """Make every lifting mod p raise UnluckyPrime, so that each candidate
    is lifted over Q alone."""
    real = V._lift

    def lift(mod, plan, tables, p):
        if p is not None:
            raise UnluckyPrime("sieve skipped")
        return real(mod, plan, tables, p)

    monkeypatch.setattr(V, "_lift", lift)


def _sweep_d2_hits(monkeypatch, prime=None):
    """(mu, lam, dim) of every degree-2 hit over the weights of box 2 with
    entry sum <= 4; exact only (every candidate lifted over Q) when prime is
    None, else sieved mod prime.  Checks every vector on the way."""
    if prime is None:
        _skip_sieve(monkeypatch)
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
    real, unlucky = V._lift, []

    def counting(mod, plan, tables, p):
        try:
            return real(mod, plan, tables, p)
        except UnluckyPrime:
            unlucky.append(p)
            raise

    for p in (2, 3, 5, 7):
        monkeypatch.setattr(V, "_lift", counting)
        assert _sweep_d2_hits(monkeypatch, p) == exact, p
    # basis-vector halves (p = 2) and stacked raising systems that lose rank
    # mod 3 send those candidates to the Q fallback
    assert {2, 3} <= set(unlucky)


SWEEP_D2 = [(mu, 2) for mu in sl5.dominant_weights_in_box(2) if sum(mu) <= 4]
SWEEPS = SWEEP_D2 + [(mu, 4) for mu in sl5.dominant_weights_in_box(1)]


def _sieved(monkeypatch, current):
    """Patch _lift to record the sieve's lifting of each candidate: returns
    the list it appends (current[-1], record) to, the record None when the
    prime cannot decide (UnluckyPrime)."""
    real, sieved = V._lift, []

    def lift(mod, plan, tables, p):
        if p is None:
            return real(mod, plan, tables, p)
        sieved.append((current[-1], None))
        got = real(mod, plan, tables, p)
        sieved[-1] = (current[-1], got)
        return got

    monkeypatch.setattr(V, "_lift", lift)
    return sieved


def _verdict(record) -> str:
    return "unlucky" if record is None else "dead" if record.dead else "alive"


def _sieve_run(monkeypatch, searches, oracle=False):
    """Run the searches; returns [((mu, d, lam), verdict)] of the sieve on
    every candidate with a leading term, and the hits as (mu, d, lam, vecs).
    With oracle set the sieve reads oracles.fp_view (its F_p inputs
    converted from the rational solver, basis and z-term images)."""
    real_lift = V._lift_singular
    current = []

    def lift_singular(mod, d, lam, *args, **kwargs):
        current.append((mod.highest_weight, d, lam))
        return real_lift(mod, d, lam, *args, **kwargs)

    monkeypatch.setattr(V, "_lift_singular", lift_singular)
    sieved = _sieved(monkeypatch, current)
    if oracle:
        real_solver, real_zimage, views = V._stacked_solver, V._zimage, {}

        def view(mod, p):
            if (mod, p) not in views:
                views[mod, p] = oracles.fp_view(mod, p, real_solver, real_zimage)
            return views[mod, p]

        def solver(mod, nu, *, p=None):
            return real_solver(mod, nu) if p is None else view(mod, p)[0](nu)

        def zimage(mod, op, fidx, *, p=None):
            return real_zimage(mod, op, fidx) if p is None else view(mod, p)[1](op, fidx)

        monkeypatch.setattr(V, "_stacked_solver", solver)
        monkeypatch.setattr(V, "_zimage", zimage)
    hits = [(mu, d, lam, vecs)
            for mu, d in searches for lam, vecs in V.singular_vectors(mu, d)]
    monkeypatch.undo()
    return [(c, _verdict(rec)) for c, rec in sieved], hits


def _objs(hits, onto_full=False):
    return [(mu, d, lam, [V.verma_element_to_obj(V.reexpress(w, V.get_module(mu))
                                                 if onto_full else w) for w in vecs])
            for mu, d, lam, vecs in hits]


# SHA-256 of the ordered [((mu, d, lam), verdict)] list of the sieve, per
# modulus: the degree-2 box-2 sweep at the small primes (where "unlucky"
# verdicts occur) and both sweeps at the large primes, SIEVE_PRIME = 2^30 - 35
# and 2^31 - 1, whose verdicts are the same
VERDICT_PINS = {
    2: "ab9d7803d2a7998bce9381b2565f6c0de3c1ac782fe28ab4c1fdc4fb702d8f43",
    3: "fdb451351227f885fe36f30f001ff4ccf58aeebae2826c7bed1422a5a804754a",
    5: "12bde6c01ad53d5cebf1ce8af2413368431b91e12d9633cf6a32937754df8d43",
    7: "b43a459f47fbe7ef80e9f0f9fcc1400d0444ffe85b52d7869b9667b592822e69",
    2**30 - 35: "8958636e3e4dd70c07201b310380311743f7b1f2797fa2632d5f9f2c64ac4969",
    2**31 - 1: "8958636e3e4dd70c07201b310380311743f7b1f2797fa2632d5f9f2c64ac4969",
}


def _verdict_digest(verdicts) -> str:
    return hashlib.sha256(json.dumps(verdicts, separators=(",", ":")).encode()).hexdigest()


def test_sieve_on_its_own_data_matches_the_converted_sieve(monkeypatch):
    verdicts, hits = _sieve_run(monkeypatch, SWEEPS)
    old_verdicts, old_hits = _sieve_run(monkeypatch, SWEEPS, oracle=True)
    assert verdicts == old_verdicts
    assert _verdict_digest(verdicts) == VERDICT_PINS[V.SIEVE_PRIME]
    assert _objs(hits) == _objs(old_hits)
    # no fallback at SIEVE_PRIME; every survivor is a hit (575 + 262 killed)
    counts = {v: sum(1 for _, x in verdicts if x == v)
              for v in ("dead", "alive", "unlucky")}
    assert counts == {"dead": 575 + 262, "alive": 6 + 2, "unlucky": 0}
    assert len(hits) == counts["alive"]


def test_sieve_prime_is_a_prime_below_2_to_the_30():
    # every residue and every divisor of a % is then a one-digit CPython int
    p = V.SIEVE_PRIME
    assert p.bit_length() <= 30 and p in VERDICT_PINS
    assert all(p % q for q in range(2, math.isqrt(p) + 1))


def test_sieve_verdicts_at_the_previous_prime_are_pinned(monkeypatch):
    # 2^31 - 1, the sieve prime before SIEVE_PRIME, gives the same ordered
    # verdicts on both sweeps
    monkeypatch.setattr(V, "SIEVE_PRIME", 2**31 - 1)
    verdicts, _ = _sieve_run(monkeypatch, SWEEPS)
    assert _verdict_digest(verdicts) == VERDICT_PINS[2**31 - 1] == VERDICT_PINS[V.SIEVE_PRIME]


@pytest.mark.parametrize("prime", (2, 3, 5, 7))
def test_sieve_verdicts_at_small_primes_are_pinned(monkeypatch, prime):
    monkeypatch.setattr(V, "SIEVE_PRIME", prime)
    verdicts, _ = _sieve_run(monkeypatch, SWEEP_D2)
    assert len(verdicts) == 581
    assert _verdict_digest(verdicts) == VERDICT_PINS[prime]


def _death_counts(monkeypatch, searches):
    """[((mu, d, lam), sieve, exact)] for each candidate the sieve kills on
    the searches: the stacked solves of its lifting mod SIEVE_PRIME and of
    the exact lifting of the same candidate, read from their _lift records;
    the exact one is made on a throwaway module per mu so that the search's
    own module is built as usual.  The solves fix which weight spaces a
    lifting builds, in order."""
    current = []
    sieved = _sieved(monkeypatch, current)
    counts = []
    for mu, d in searches:
        mod, spare = fm.TensorModule(mu), fm.TensorModule(mu)
        tables = V._degree_tables(d)
        for lam in V._candidates(mu, tables[0]):
            current.append((mu, d, lam))
            sieved.clear()
            V._lift_singular(mod, d, lam, tables)
            if not sieved or _verdict(sieved[0][1]) != "dead":
                continue
            exact = V._lift(spare, V._level_plan(d, sl5.wsub(lam, mu)), tables, None)
            assert exact.dead
            counts.append(((mu, d, lam), sieved[0][1].solves, exact.solves))
    monkeypatch.undo()
    return counts


# SHA-256 of the ordered [((mu, d, lam), solves)] of every candidate the
# sieve kills on both sweeps, solves being its death count (_Lifting.solves),
# per modulus: at both large primes 837 kills after 5,945 solves in all, 206
# of them after none, and at p = 2 521 kills after 2,549 solves
DEATH_PINS = {
    2: "e3bb4503c4626d32ae3a842b090d634179d84efc0532fa3a24b856f5f1ce5dad",
    2**30 - 35: "58e1e658e5522b9d288a2833911ba32c2e5cfb5bebdb20f9a19be37964514f13",
    2**31 - 1: "58e1e658e5522b9d288a2833911ba32c2e5cfb5bebdb20f9a19be37964514f13",
}


@pytest.mark.parametrize("prime,dead,deeper", (
    (V.SIEVE_PRIME, 575 + 262, 0), (2**31 - 1, 575 + 262, 0), (2, 521, 54)))
def test_sieve_kills_where_the_exact_lifting_dies(monkeypatch, prime, dead, deeper):
    # a candidate the sieve kills builds the weight spaces of its first
    # stacked solves; at the large primes it dies after as many as the exact
    # lifting makes, so the lazy F-basis numbering is that of the Q pass
    # alone, while at p = 2 a lost rank makes some candidates lift deeper
    monkeypatch.setattr(V, "SIEVE_PRIME", prime)
    counts = _death_counts(monkeypatch, SWEEPS)
    assert len(counts) == dead
    assert all(sieved >= exact for _, sieved, exact in counts)
    assert sum(sieved > exact for _, sieved, exact in counts) == deeper
    assert _verdict_digest([(c, sieved) for c, sieved, _ in counts]) == DEATH_PINS[prime]


def test_sieve_builds_zterm_images_only_for_flushed_depths(monkeypatch):
    # a candidate's z-term images are made when the lifting flushes their
    # depth, so the sieve makes none for the depths of the candidates it
    # kills before they get there; the Q pass lifts only survivors, which
    # flush every depth.  The module caches an image's coordinates per
    # modulus; an image whose target space is not built yet is ambient,
    # made each time and never cached (those are the only tensor actions
    # the search's z-terms make)
    made = {2: [0, 0, 0], 4: [0, 0, 0]}
    real, d = V.glact_vector, None

    def glact_vector(r, s, vec):
        made[d][2] += 1
        return real(r, s, vec)

    monkeypatch.setattr(V, "glact_vector", glact_vector)
    for mu, d in SWEEPS:
        mod = fm.TensorModule(mu)
        V.singular_vectors(mu, d, module=mod)
        made[d][0] += len(mod.cache("zterm", V.SIEVE_PRIME))
        made[d][1] += len(mod.cache("zterm"))
    assert made[2][0] <= 1048 and made[4][0] <= 268
    assert (made[2][1], made[4][1]) == (41, 1)
    assert (made[2][2], made[4][2]) == (381, 20)


def test_fp_zimage_is_the_rational_image_reduced():
    # over F_p, a cached _zimage is the rational coordinate image of
    # x_5 d_t . v_fidx reduced mod p: on the degree-2 sweep's modules, each
    # image the sieve made is the record's coordinates reduced, the
    # coordinates of the ambient image reduced, and the coordinates over F_p
    # of the tensor action over F_p on the basis vector reduced mod p; made
    # again with both caches emptied, it fills only its own cache, not the
    # rational one, and builds no weight space
    p = V.SIEVE_PRIME
    made = 0
    for mu, d in SWEEP_D2:
        mod = fm.TensorModule(mu)
        V.singular_vectors(mu, d, module=mod)
        images = dict(mod.cache("zterm", p))
        mod.cache("zterm", p).clear()
        mod.cache("zterm").clear()
        spaces = list(mod.spaces)
        for (op, fidx), img in images.items():
            target = sl5.wadd(mod.weights[fidx], fm.gen_shift(*op))
            ambient = fm.glact_vector(*op, mod.vectors[fidx])
            rational = mod.coords(target, ambient) if ambient else {}
            assert mod.lowering_coords(*op, fidx) == rational
            want = {k: v for k, c in rational.items() if (v := to_fp(c, p))}
            reduced = {k: v for k, c in mod.vectors[fidx].items() if (v := to_fp(c, p))}
            image = oracles.glact_vector(*op, reduced, p)
            assert img == want == (oracles.coords(mod, target, image, p) if image else {})
            assert V._zimage(mod, op, fidx, p=p) == img
            made += 1
        assert mod.cache("zterm") == {} and mod.cache("zterm", p) == images
        assert list(mod.spaces) == spaces
    assert made >= 1000


def test_fp_zimage_is_ambient_into_a_target_that_is_not_p_integral():
    # a built target whose basis has a denominator p is not usable over
    # F_p: the image is the ambient one reduced mod p, made each time and not
    # cached, while over Q (and at a prime that divides no denominator) the
    # same image is the target's coordinates, cached
    mod = fm.build_irreducible((2, 0, 0, 1))
    cases = []
    for fidx, nu in enumerate(mod.weights):
        for t in (1, 2, 3):
            target = sl5.wadd(nu, fm.gen_shift(5, t))
            if mod.spaces.get(target) and not V._integral_basis(mod, target, 2) \
                    and V._integral_basis(mod, nu, 2):
                cases.append(((5, t), fidx, target))
    assert cases
    for op, fidx, target in cases:
        reduced = {k: v for k, c in mod.vectors[fidx].items() if (v := to_fp(c, 2))}
        assert V._zimage(mod, op, fidx, p=2) == oracles.glact_vector(*op, reduced, 2)
        assert (op, fidx) not in mod.cache("zterm", 2)
        for p in (None, V.SIEVE_PRIME):
            img = V._zimage(mod, op, fidx, p=p)
            assert mod.cache("zterm", p)[op, fidx] is img
            assert set(img) <= set(mod.spaces[target])


def test_bases_store_is_a_p_integrality_memo():
    # "bases" maps each weight space the sieve asked about to whether its
    # basis is p-integral, and _fp_basis raises UnluckyPrime exactly when
    # it is not
    mod = fm.build_irreducible((2, 0, 0, 1))
    for p in (2, 3, V.SIEVE_PRIME):
        for nu, idxs in mod.spaces.items():
            integral = all(Q(c).denominator % p for n in idxs for c in mod.vectors[n].values())
            assert V._integral_basis(mod, nu, p) is integral
            if integral:
                V._fp_basis(mod, nu, p)
            else:
                with pytest.raises(UnluckyPrime):
                    V._fp_basis(mod, nu, p)
        assert set(mod.cache("bases", p)) == set(mod.spaces)
        assert set(mod.cache("bases", p).values()) <= {True, False}
    assert not all(mod.cache("bases", 2).values())
    assert all(mod.cache("bases", V.SIEVE_PRIME).values())


@pytest.mark.parametrize("prime", (V.SIEVE_PRIME, 2))
def test_flushes_match_the_ambient_expansion(monkeypatch, prime):
    # every flush of both sweeps, in the sieve at prime and in the Q pass of
    # each candidate the sieve does not kill, gives the verdict and the
    # constraint rank of expanding every z-term in ambient monomials
    # (oracles.flush_z) from the same constraints, and when it does not kill,
    # the same reduced echelon form, so the same row space
    monkeypatch.setattr(V, "SIEVE_PRIME", prime)
    real_flush, real_lift = V._flush_z, V._lift_singular
    current, seen = [], collections.Counter()

    def lift_singular(mod, d, lam, tables):
        current.append(mod)
        return real_lift(mod, d, lam, tables)

    def flush(entries, zimage, constraints, L, p):
        ref = copy.deepcopy(constraints)
        want = oracles.flush_z(current[-1], entries, ref, L, p)
        got = real_flush(entries, zimage, constraints, L, p)
        assert (got, constraints.rank) == (want, ref.rank)
        if not got:
            assert constraints.pivots == ref.pivots
        seen[p, got] += 1
        return got

    monkeypatch.setattr(V, "_lift_singular", lift_singular)
    monkeypatch.setattr(V, "_flush_z", flush)
    hits = [lam for mu, d in SWEEPS for lam, _vecs in V.singular_vectors(mu, d)]
    assert len(hits) == 8
    assert seen[prime, True] and seen[prime, False] and seen[None, False]


_ORDER_WEIGHTS = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1),
                  (0, 0, 1, 1), (2, 0, 0, 1), (0, 0, 1, 2)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_ORDER_WEIGHTS), st.randoms(use_true_random=False))
def test_weight_spaces_do_not_depend_on_build_order(mu, rng):
    # the lemma reexpress rests on (TensorModule): a module built by
    # ensure_weight on a random set of weights in a random order holds in
    # each space it built the basis of get_module(mu), in the same order and
    # at consecutive indices; so reexpress moves an element onto the full
    # module and back, and raises on a space the target has not built
    full = V.get_module(mu)
    weights = sorted(full.spaces)
    mod = fm.TensorModule(mu)
    for nu in rng.sample(weights, rng.randint(1, len(weights))):
        mod.ensure_weight(nu)
    for nu, idxs in mod.spaces.items():
        assert [mod.vectors[n] for n in idxs] == \
            [full.vectors[n] for n in full.spaces.get(nu, [])]
        assert idxs == list(range(idxs[0], idxs[0] + len(idxs)) if idxs else [])
    monos = um.pbw_monomials(1)
    terms = {(rng.choice(monos), n): Q(rng.randint(1, 9), rng.randint(1, 3))
             for n in rng.sample(range(len(mod.vectors)), min(4, len(mod.vectors)))}
    w = V.VermaElement(mod, 1, terms)
    onto = V.reexpress(w, full)
    for (m, n), c in w.terms.items():
        nu = mod.weights[n]
        assert onto.terms[m, full.spaces[nu][mod.spaces[nu].index(n)]] == c
    assert V.reexpress(onto, mod).terms == w.terms
    unbuilt = [n for n in range(full.dim) if not mod.spaces.get(full.weight_of(n))]
    if unbuilt:
        with pytest.raises(ArithmeticError, match="not built"):
            V.reexpress(V.VermaElement(full, 1, {(monos[0], unbuilt[0]): Q(1)}), mod)


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
        V._fp_basis(mod, mod.weights[half], 2)
    # a stacked raising system of F(1,1,0,0) loses rank mod 3, never mod SIEVE_PRIME
    mod = fm.TensorModule((1, 1, 0, 0)).build_full()
    dropped = []
    for nu in sorted(set(mod.weights) - {mod.highest_weight}):
        V._stacked_solver(mod, nu, p=V.SIEVE_PRIME)
        try:
            V._stacked_solver(mod, nu, p=3)
        except UnluckyPrime:
            dropped.append(nu)
    assert len(dropped) == 1


def test_a_division_by_zero_in_the_sieve_is_not_an_unlucky_prime(monkeypatch):
    # only UnluckyPrime sends a candidate to the Q lifting: any other
    # ZeroDivisionError on the F_p path is a fault, and it propagates
    real = V._zimage

    def zimage(mod, op, fidx, *, p=None):
        if p is not None:
            raise ZeroDivisionError("division by zero")
        return real(mod, op, fidx, p=p)

    monkeypatch.setattr(V, "_zimage", zimage)
    with pytest.raises(ZeroDivisionError) as raised:
        V.singular_vectors((0, 0, 0, 1), 2)
    assert type(raised.value) is ZeroDivisionError


def test_fp_solver_is_the_rational_solver_mod_p():
    p = V.SIEVE_PRIME
    mod = fm.TensorModule((1, 1, 0, 0)).build_full()
    for nu in sorted(set(mod.weights) - {mod.highest_weight}):
        for r, s in ((1, 2), (2, 3), (3, 4), (4, 5)):
            assert V._raising_columns(mod, r, nu, p) == {
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
            [[[fm.unpack(m), format_scalar(c)] for m, c in vec.items()]
             for vec in mod.vectors],
            [[origin, [[k, format_scalar(c)] for k, c in trail], format_scalar(pc)]
             for origin, trail, pc in mod.prov],
        ]
        h.update(json.dumps(parts, separators=(",", ":")).encode())
    assert h.hexdigest() == "22976dfd59af7205b8b2d51fb18c4d161331e15930ccb6197ed59615a48e6142"


def test_level_plan_matches_dominated_depth():
    # for every candidate of both sweeps, the plan of lam - mu holds each
    # weight nu = lam - w below mu at its dominated depth, with the sorted
    # monomials of w, and every z-term record of those monomials lands its
    # drop of levels below them, where dominated_depth puts its weight
    for mu, d in SWEEPS:
        groups, _trans, zrecords = V._degree_tables(d)
        for lam in V._candidates(mu, groups):
            want: dict = {}
            for w, ms in groups.items():
                nu = sl5.wsub(lam, w)
                ks = sl5.dominated_depth(nu, mu)
                if ks is not None:
                    want.setdefault(sum(ks), []).append((sl5.wsub(nu, mu), tuple(sorted(ms))))
            plan = V._level_plan(d, sl5.wsub(lam, mu))
            assert plan == {depth: sorted(entries) for depth, entries in want.items()}
            assert [off for off, _ms in plan.get(0, [])] in ([], [(0, 0, 0, 0)])
            for depth, entries in plan.items():
                for off, ms in entries:
                    nu = sl5.wadd(mu, off)
                    for m in ms:
                        for op, drop, _terms in zrecords[m]:
                            tau = nu if op is None else sl5.wadd(nu, fm.gen_shift(*op))
                            assert sum(sl5.dominated_depth(tau, mu)) == depth + drop


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
    assert mod2.lower == mod.lower
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
    # psi's checks read phi.target's own views, not its dual's, so act on
    # the dual to fill its store
    psi.source.action(2, 1).apply({psi.source.hw_index: 1}, {})
    mod = phi.target
    assert psi.source.base is mod and psi.target.base is phi.source
    assert set(vars(mod)) == {"weight", "vectors", "weights", "prov", "spaces", "pivots",
                              "lower", "_full", "_derived"}
    assert {"act", "actions", "stack", "zterm", "raising"} <= \
        {n for n, p in mod._derived}
    assert ("dual", None) in mod._derived
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
    um.omega_int_tables(2)
    V.clear_caches()
    assert V._l0_mono.cache_info().currsize == 0
    assert V._odd_action.cache_info().currsize == 0
    assert V._degree_tables.cache_info().currsize == 0
    assert V._level_plan.cache_info().currsize == 0
    assert V._level_plan.cache_info().maxsize is not None
    # every memoized function of these namespaces, so a forgotten one fails
    memoized = {(ns.__name__, name): obj.cache_info().currsize
                for ns in (V, um, sl5, fm) for name, obj in vars(ns).items()
                if hasattr(obj, "cache_info")}
    assert {("e510.verma", "l1_basis"), ("e510.uminus", "omega_basis"),
            ("e510.uminus", "omega_int_tables")} <= set(memoized)
    # the integer omega tables are bounded like the basis they are made from
    assert um.omega_int_tables.cache_info().maxsize == um.omega_basis.cache_info().maxsize == 8
    assert all(size == 0 for size in memoized.values()), memoized
    assert V._module_cache == {}
    assert um._order_cache == {}
    assert search() == before


@pytest.mark.parametrize("mu, d", [((0, 0, 1, 0, 0), 2), ((0, 0, 1), 2), ((True, 0, 0, 0), 1),
                                   ((0, 0, 1, 0), "2"), ((0, 0, 1, 0), True),
                                   ((0, 0, 1, 0), 2.0), ((0, 0, 1, 0), 0)])
def test_search_refuses_bad_weights_and_degrees(mu, d):
    with pytest.raises(ValueError, match="a weight is 4 integers|degree must be an integer"):
        V.singular_vectors(mu, d)


def test_search_refuses_a_module_of_another_highest_weight():
    # M(0,0,0,1) has a degree-1 hit at (1,0,0,0), which a search lifting
    # through F(1,0,0,0) would miss without a word
    assert [lam for lam, _vecs in V.singular_vectors((0, 0, 0, 1), 1)] == [(1, 0, 0, 0)]
    for module in (V.get_module((1, 0, 0, 0)), fm.TensorModule((0, 0, 1, 0))):
        with pytest.raises(ValueError, match=r"highest weight \(\d, \d, \d, \d\), not"):
            V.singular_vectors((0, 0, 0, 1), 1, module=module)
    assert V.singular_vectors((0, 0, 0, 1), 1, module=fm.TensorModule((0, 0, 0, 1)))


@pytest.mark.parametrize("bad", [(1, 0, 0, 0, 0), (1, 0, 0), (True, 0, 0, 0)])
def test_get_module_refuses_a_weight_that_is_not_four_ints(bad):
    V.get_module((1, 0, 0, 0))  # (True, 0, 0, 0) must not find this one
    with pytest.raises(ValueError, match="a weight is 4 integers"):
        V.get_module(bad)


def test_search_and_modules_refuse_weights_beyond_the_exponent_slot():
    # through TensorModule, before any weight space or table is built
    for call in (lambda: V.get_module((0, 2**16, 0, 0)),
                 lambda: V.singular_vectors((2**16, 0, 0, 0), 1)):
        with pytest.raises(ValueError, match=r"below 2\^16 = 65536"):
            call()


def test_second_search_at_a_degree_rebuilds_no_table(monkeypatch):
    # the per-degree table (weight groups, raising transitions, z-term
    # records) is made by the first search of a degree and only read after
    calls = collections.Counter()
    real = um.pbw_monomials

    def counted(d):
        calls[d] += 1
        return real(d)

    monkeypatch.setattr(um, "pbw_monomials", counted)
    V.clear_caches()
    first = V.singular_vectors((0, 0, 1, 1), 2)
    assert calls[2] >= 1
    builds = {f: getattr(V, f).cache_info().misses for f in ("_degree_tables",)}
    calls.clear()
    second = V.singular_vectors((1, 0, 0, 1), 2)
    assert first and second  # both searches lift a hit over Q too
    assert calls[2] == 0
    assert {f: getattr(V, f).cache_info().misses for f in builds} == builds


def test_search_without_a_hit_leaves_the_action_memos_empty():
    # the per-degree table is built from the uncached actions, so only
    # act_l0, act_odd and _equivariance_failure fill _l0_mono and _odd_action
    V.clear_caches()
    assert V.singular_vectors((1, 0, 0, 0), 2) == []
    assert V._degree_tables.cache_info().currsize == 1
    assert V._l0_mono.cache_info().currsize == 0
    assert V._odd_action.cache_info().currsize == 0


def _ordered(x):
    """x with every dict replaced by its list of items, so that == also
    compares the orders the lifting iterates in."""
    if isinstance(x, dict):
        return [(k, _ordered(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_ordered(v) for v in x]
    return x


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_degree_tables_match_the_cached_actions(d):
    tables = V._degree_tables(d)
    want = oracles.degree_tables(d)
    assert _ordered(tables) == _ordered(want)
    groups, trans, zrecords = tables
    assert all(type(c) is int for t in trans.values() for src in t.values()
               for c in src.values())
    assert all(type(c) is int for recs in zrecords.values()
               for _op, _drop, terms in recs for _m2, c in terms)


def test_exact_pass_alone_finds_the_sieved_hits(monkeypatch):
    # every candidate of the degree-2 sweep lifted over Q, with no F_p table
    # read: the sieve changes neither the hits nor their vectors
    _, sieved = _sieve_run(monkeypatch, SWEEP_D2)
    _skip_sieve(monkeypatch)
    verdicts, exact = _sieve_run(monkeypatch, SWEEP_D2)
    assert verdicts and {v for _, v in verdicts} == {"unlucky"}
    assert _objs(exact) == _objs(sieved)


# -- the hit check in ints -----------------------------------------------------

@cache
def _sweep_d2_vectors():
    """The vectors of the degree-2 sweep's six hits, on their search modules."""
    return tuple(w for mu, d in SWEEP_D2 for _lam, vecs in V.singular_vectors(mu, d)
                 for w in vecs)


def _perturbed(w, key, q):
    """w with q added to its coefficient at key (dropped if that gives 0)."""
    terms = dict(w.terms)
    terms[key] += q
    if not terms[key]:
        del terms[key]
    return V.VermaElement(w.module, w.degree, terms)


def _draw_element(data, q):
    """A sweep hit, a Fraction multiple of one, or one with a coefficient
    perturbed, and whether it is singular by construction (None: unknown)."""
    w = data.draw(st.sampled_from(_sweep_d2_vectors()))
    kind = data.draw(st.sampled_from(["hit", "multiple", "perturbed"]))
    if kind == "hit":
        return w, True
    if kind == "multiple":
        return w.scaled(q), True
    # the hits span lines, so a hit with several terms loses singularity
    return _perturbed(w, data.draw(st.sampled_from(sorted(w.terms))), q), \
        None if len(w.terms) == 1 else False


def test_l1_basis_has_int_coefficients_over_50_generators():
    basis = V.l1_basis()
    assert all(type(c) is int for e in basis for c in e.values())
    assert len({g for e in basis for g in e}) == 50
    assert basis[0] == {(5, (4, 5)): 1}


@settings(max_examples=60, deadline=None)
@given(st.data(), _RATIONALS)
def test_integer_singular_check_agrees_with_the_fraction_oracle(data, q):
    # is_singular runs on D w in ints with one image per L_1 generator; the
    # oracle runs on w in Fractions, with 60 act_odd calls on scaled copies
    w, singular = _draw_element(data, q)
    want = oracles.is_singular(w)
    assert V.is_singular(w) == want
    checks = dict(V._singular_checks(w))
    assert (checks["l0_highest"] and checks["x5d45"]) == oracles.is_singular(w, full_l1=False)
    assert all(checks.values()) == want
    if singular is not None:
        assert want == singular


@settings(max_examples=25, deadline=None)
@given(st.data(), _RATIONALS)
def test_l1_images_are_the_fraction_combinations_scaled(data, q):
    # each of the 40 images is D times the Fraction one: the same terms in the
    # same order, from one act_odd per generator instead of one per term
    w, _ = _draw_element(data, q)
    wi = V._int_multiple(w)
    assert all(type(c) is int for c in wi.terms.values())
    D = Q(next(iter(wi.terms.values()))) / next(iter(w.terms.values()))
    assert D.denominator == 1 and D > 0
    got = list(V.l1_images(wi, V.act_x5d45(wi)))
    want = [oracles.act_l1_combination(e, w).terms for e in V.l1_basis()]
    assert [list(t.items()) for t in got] == \
        [[(k, D * c) for k, c in t.items()] for t in want]


@settings(max_examples=30, deadline=None)
@given(st.data(), _RATIONALS)
def test_actions_match_the_add_into_reference(data, q):
    # in-place accumulation keeps add_into's order: a cancelled key goes, and
    # comes back at the end; the hits make every raising cancel in full
    w, _ = _draw_element(data, q)
    for r, s in itertools.product(range(1, 6), repeat=2):
        got = V.act_l0(r, s, w)
        want = oracles.act_l0(r, s, w)
        assert list(got.terms.items()) == list(want.terms.items())
        assert got.degree == want.degree
    for g in sorted({g for e in V.l1_basis() for g in e}):
        got = V.act_odd(*g, w)
        want = oracles.act_odd(*g, w)
        assert list(got.terms.items()) == list(want.terms.items())
        assert got.degree == want.degree
