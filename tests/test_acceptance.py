"""Acceptance suite: every criterion is exact (tolerance is equality) and
prints one PASS line with its runtime when it holds."""

import itertools
import random
import time
from fractions import Fraction as Q

import pytest

import oracles
from e510 import fmodules as fm
from e510 import sl5
from e510 import uminus as um
from e510 import verma as V
from oracles import u_add, u_scale

ZD = um.ZERO_DEL


def report(num, elapsed, budget, detail):
    line = f"ACCEPTANCE {num:2d} PASS {elapsed:7.2f}s (budget {budget}s): {detail}"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


# shared sweep results ------------------------------------------------------

@pytest.fixture(scope="module")
def sweep1():
    t0 = time.time()
    rows = V.classify(1, 2)
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def sweep2():
    t0 = time.time()
    rows = V.classify(2, 2)
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def sweep3():
    t0 = time.time()
    rows = V.classify(3, 1)
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def catalogue(sweep1, sweep2, sweep3):
    """The catalogued morphisms: one per classification hit, with the search
    vector moved onto the cached full realization of F(mu)."""
    phis = []
    for rows, _dt in (sweep1, sweep2, sweep3):
        for row in rows:
            w = V.reexpress(row.vectors[0], V.get_module(row.mu))
            phis.append((row, V.morphism_from_singular(w, row.lam)))
    return phis


def test_criterion_01_omega_worked_example():
    t0 = time.time()
    I = ((2, 1), (1, 3), (4, 5), (2, 5))
    expected = u_add(
        um.normal_form(I),
        u_scale(um.normal_form([3, (1, 3), (2, 5)]), Q(-1, 2)),
        u_scale(um.normal_form([2, (2, 1), (2, 5)]), Q(1, 2)),
        u_scale(um.normal_form([4, (2, 1), (4, 5)]), Q(1, 2)),
        u_scale(um.normal_form([3, 4]), Q(1, 4)),
    )
    assert um.omega(I) == expected
    report(1, time.time() - t0, 1, "omega worked example equals its expansion")


def test_criterion_02_sign_equivariance():
    t0 = time.time()
    rng = random.Random(2024)
    checked = 0
    for d in (2, 3, 4):
        for _ in range(200):
            I = tuple((rng.randint(1, 5), rng.randint(1, 5)) for _ in range(d))
            sigma = list(range(1, d + 1))
            rng.shuffle(sigma)
            etas = tuple(rng.choice((1, -1)) for _ in range(d))
            g = (tuple(sigma), etas)
            assert um.omega(um.bd_act(g, I)) == \
                u_scale(um.omega(I), Q(um.sign_character(g)))
            checked += 1
    report(2, time.time() - t0, 10, f"{checked} random signed permutations")


def test_criterion_03_action_identity():
    t0 = time.time()
    checked = 0
    for d in (1, 2, 3):
        for I in itertools.combinations_with_replacement(um.PAIRS, d):
            oI = um.omega(I)
            for s in range(1, 6):
                for r in range(1, 6):
                    if s == r:
                        continue
                    assert um.l0_adjoint(s, r, oI) == um.d_arrow(s, r, I), (I, s, r)
                    checked += 1
    report(3, time.time() - t0, 60, f"{checked} exhaustive (I, s, r) identities")


def test_criterion_04_basis_dimensions():
    t0 = time.time()
    from math import comb
    for d in range(7):
        want = sum(comb(k + 4, 4) * comb(10, d - 2 * k) for k in range(d // 2 + 1))
        reps, _cols = um.omega_basis(d)
        assert len(reps) == want == len(um.pbw_monomials(d))
        assert oracles.omega_basis_check(d), f"basis not invertible at degree {d}"
    report(4, time.time() - t0, 60,
           "omega basis square and unitriangular-invertible for d <= 6")


def test_criterion_05_module_dimensions():
    t0 = time.time()
    count = 0
    for lam in sl5.dominant_weights_in_box(3):
        if sum(lam) > 3:
            continue
        mod = fm.build_irreducible(lam)
        assert mod.dim == sl5.weyl_dimension(lam), lam
        count += 1
    report(5, time.time() - t0, 120, f"{count} modules match the Weyl formula")


def _expected_hits_deg1(box):
    exp = set()
    for m in range(box + 1):
        for n in range(box + 1):
            exp.add(((m, n, 0, 0), (m, n + 1, 0, 0), "nabla_A"))
            if n + 1 <= box:
                exp.add(((m, 0, 0, n + 1), (m + 1, 0, 0, n), "nabla_B"))
                exp.add(((0, 0, n + 1, m), (0, 0, n, m), "nabla_C"))
    return exp


def test_criterion_06_degree1_classification(sweep1):
    rows, dt = sweep1
    t0 = time.time()
    got = {(r.mu, r.lam, r.family) for r in rows}
    assert got == _expected_hits_deg1(2)
    assert all(r.dimension == 1 for r in rows)
    assert not any(r.family == "ANOMALY" for r in rows)
    report(6, dt + time.time() - t0, 300,
           f"{len(rows)} hits = the three degree-1 families, no anomalies")


def test_criterion_07_degree2_classification(sweep2):
    rows, dt = sweep2
    t0 = time.time()
    exp = set()
    for n in range(3):
        exp.add(((n, 0, 0, 1), (n + 1, 1, 0, 0), "nabla_BA"))
    for n in range(2):
        exp.add(((0, 0, 1, n + 1), (1, 0, 0, n), "nabla_CB"))
    exp.add(((0, 0, 1, 0), (0, 1, 0, 0), "nabla_CA"))
    got = {(r.mu, r.lam, r.family) for r in rows}
    assert got == exp
    assert all(r.dimension == 1 for r in rows)
    report(7, dt + time.time() - t0, 600,
           f"{len(rows)} hits = the three degree-2 families, no anomalies")


def test_criterion_08_degree3_classification(sweep3):
    rows, dt = sweep3
    t0 = time.time()
    assert [(r.mu, r.lam, r.family, r.dimension) for r in rows] == \
        [((0, 0, 1, 1), (1, 1, 0, 0), "nabla_CBA", 1)]
    report(8, dt + time.time() - t0, 600,
           "single degree-3 hit mu=(0,0,1,1), lam=(1,1,0,0)")


def test_criterion_09_composition_algebra():
    t0 = time.time()
    for m in range(3):
        assert V.compose(V.nabla_A(m, 0), V.nabla_A(m, 1)).is_zero()
    assert V.compose(V.nabla_B(0, 1), V.nabla_B(1, 0)).is_zero()
    for n in range(3):
        assert V.compose(V.nabla_C(1, n), V.nabla_C(0, n)).is_zero()

    composites = {
        "BA": [V.family_instance("BA", m=m) for m in (1, 2)],
        "CB": [V.family_instance("CB", n=n) for n in (0, 1)],
        "CA": [V.family_instance("CA")],
        "CBA": [V.family_instance("CBA")],
    }
    leading = {"BA": ((1, 2), (1, 5)), "CB": ((1, 5), (4, 5)),
               "CA": ((1, 2), (4, 5)), "CBA": ((1, 2), (1, 5), (4, 5))}
    for name, phis in composites.items():
        for phi in phis:
            assert not phi.is_zero(), name
            ok, diag = V.check_morphism(phi)
            assert ok, (name, diag)
            lead = V.morphism_leading_term(phi)
            assert {mm for (mm, _i) in lead.terms} == {(ZD, leading[name])}, name
            tgt = phi.target
            for (_mm, idx) in lead.terms:
                assert tgt.weight_of(idx) == tgt.highest_weight
    report(9, time.time() - t0, 120,
           "squares vanish; BA, CB, CA, CBA nonzero with Section-4 leading terms")


def test_criterion_10_duality(catalogue):
    t0 = time.time()
    for row, phi in catalogue:
        psi = V.dual_morphism(phi)
        ok, diag = V.check_morphism(psi)
        assert ok, (row.mu, row.lam, diag)
        back = V.dual_morphism(psi)
        assert (back.lam, back.mu) == (phi.lam, phi.mu)
        lt1 = V.morphism_leading_term(phi)
        lt2 = V.morphism_leading_term(back)
        keys1, keys2 = sorted(lt1.terms), sorted(lt2.terms)
        assert keys1 == keys2
        ratios = {lt1.terms[k] / lt2.terms[k] for k in keys1}
        assert len(ratios) == 1
    report(10, time.time() - t0, 300,
           f"duals of {len(catalogue)} catalogued morphisms verified, "
           "double dual is the identity up to scalar")


def test_criterion_11_check_equivalence(catalogue):
    t0 = time.time()
    for row, phi in catalogue:
        ok1, d1 = V.check_morphism(phi)
        ok2, d2 = V.verify_degree_equations(phi)
        assert ok1 and ok2, (row.mu, row.lam, d1, d2)
    controls = {1: [], 2: [], 3: []}
    seeds = {"A": V.nabla_A(0, 0), "B": V.nabla_B(0, 0), "C": V.nabla_C(0, 0),
             "BA": V.family_instance("BA", m=1), "CA": V.family_instance("CA"),
             "CBA": V.family_instance("CBA")}
    for name, phi in seeds.items():
        controls[phi.degree].extend(V.perturbed_controls(phi, 8, seed=len(name)))
    hw = {1: oracles.hw_controls((1, 1, 0, 0), 1, 2),
          2: oracles.hw_controls((1, 0, 0, 0), 2, 2)}
    for degree, batch in hw.items():
        assert len(batch) == 2, degree
        for bad in batch:
            # L0-invariant by construction: rejected past the precheck
            assert not V.verify_degree_equations(bad)[1].startswith("precheck")
    controls[1].extend(hw[1])
    controls[2].extend(V.equivariant_controls(seeds["CA"], 2))
    controls[2].extend(hw[2])
    controls[3].extend(V.equivariant_controls(seeds["CBA"], 2))
    counts = {}
    for degree, batch in controls.items():
        if len(batch) < 20:
            extra = {1: seeds["A"], 2: seeds["CA"], 3: seeds["CBA"]}[degree]
            batch.extend(V.perturbed_controls(extra, 20 - len(batch), seed=99))
        assert len(batch) >= 20, (degree, len(batch))
        for bad in batch:
            ok1, _ = V.check_morphism(bad)
            ok2, _ = V.verify_degree_equations(bad)
            assert not ok1 and not ok2, (degree, bad.tag)
        counts[degree] = len(batch)
    report(11, time.time() - t0, 300,
           f"equations agree with the direct check on {len(catalogue)} "
           f"morphisms; controls rejected per degree: {counts}")


def test_criterion_12_dominance_cross_check():
    t0 = time.time()
    tuples = list(itertools.product(range(1, 6), repeat=2))
    idx2 = [(p1, p2) for p1 in tuples for p2 in tuples]
    weights = {}
    letters = {}
    for I in idx2:
        weights[I] = um.monomial_weight((ZD, I))
        letters[I] = tuple(sorted(x for p in I for x in p))
    cmp_cache = {}
    checked = 0
    for I in idx2:
        wI, lI = weights[I], letters[I]
        for K in idx2:
            key = (wI, weights[K])
            got = cmp_cache.get(key)
            if got is None:
                got = sl5.dominance_compare(*key)
                cmp_cache[key] = got
            entrywise = all(a <= b for a, b in zip(lI, letters[K]))
            assert ((got in ("greater-or-equal", "equal")) == entrywise), (I, K)
            checked += 1
    report(12, time.time() - t0, 5,
           f"{checked} exhaustive degree-2 dominance comparisons")
