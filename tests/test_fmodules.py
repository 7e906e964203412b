import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import weakref
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from e510 import fmodules as fm
from e510 import sl5


def mono(**kw):
    e = [0] * 30
    pairs = {p: k for k, p in enumerate(fm.PAIRS)}
    for key, val in kw.items():
        kind, rest = key[0], key[1:]
        if kind == "x" and rest.isdigit() and len(rest) == 1:
            e[int(rest) - 1] += val
        elif kind == "w":
            e[5 + pairs[(int(rest[0]), int(rest[1]))]] += val
        elif kind == "W":
            e[15 + pairs[(int(rest[0]), int(rest[1]))]] += val
        elif kind == "d":
            e[25 + int(rest) - 1] += val
    return tuple(e)


def test_act_standard():
    assert fm.glact_monomial(1, 2, mono(x2=1)) == {mono(x1=1): Q(1)}


def test_act_dual_sign_by_pairing():
    # <g.v, f> + <v, g.f> = 0 forces x1 d2 . x*_1 = -x*_2
    assert fm.glact_monomial(1, 2, mono(d1=1)) == {mono(d2=1): Q(-1)}
    for r, s in itertools.permutations(range(1, 6), 2):
        for t in range(1, 6):
            gv = fm.glact_monomial(r, s, mono(**{f"x{t}": 1}))
            for u in range(1, 6):
                lhs = gv.get(mono(**{f"x{u}": 1}), Q(0))
                gf = fm.glact_monomial(r, s, mono(**{f"d{u}": 1}))
                rhs = gf.get(mono(**{f"d{t}": 1}), Q(0))
                assert lhs + rhs == 0


def test_act_disjoint_indices():
    assert fm.glact_monomial(3, 4, mono(w12=1)) == {}


def test_act_is_derivation():
    rng = random.Random(6)
    for _ in range(40):
        r, s = rng.sample(range(1, 6), 2)
        a = rng.choice([mono(x1=1), mono(w23=1), mono(W45=1), mono(d3=1)])
        b = rng.choice([mono(x2=1), mono(w14=1), mono(W12=1), mono(d5=1)])
        ab = tuple(x + y for x, y in zip(a, b))
        got = fm.glact_monomial(r, s, ab)
        want = {}
        for m, c in fm.glact_monomial(r, s, a).items():
            k = tuple(x + y for x, y in zip(m, b))
            want[k] = want.get(k, Q(0)) + c
        for m, c in fm.glact_monomial(r, s, b).items():
            k = tuple(x + y for x, y in zip(a, m))
            want[k] = want.get(k, Q(0)) + c
        want = {k: v for k, v in want.items() if v}
        assert got == want


def test_build_trivial():
    m = fm.build_irreducible((0, 0, 0, 0))
    assert m.dim == 1


def test_build_standard():
    m = fm.build_irreducible((1, 0, 0, 0))
    assert m.dim == 5
    basis = {next(iter(v)) for v in m.vectors}
    assert basis == {mono(**{f"x{i}": 1}) for i in range(1, 6)}


def test_build_40():
    m = fm.build_irreducible((1, 1, 0, 0))
    assert m.dim == 40 == sl5.weyl_dimension((1, 1, 0, 0))


def test_build_matches_weyl_box():
    for lam in [(0, 1, 0, 0), (0, 0, 1, 0), (2, 0, 0, 0), (1, 0, 0, 1)]:
        assert fm.build_irreducible(lam).dim == sl5.weyl_dimension(lam)


def test_hw_vector_annihilated_and_weighted():
    for lam in [(1, 1, 0, 0), (1, 0, 0, 1), (0, 0, 1, 1)]:
        m = fm.build_irreducible(lam)
        assert m.weight_of(m.hw_index) == lam
        for i in range(1, 5):
            assert not m.apply_gen(i, i + 1, {m.hw_index: Q(1)})


def test_commutator_relations_random():
    rng = random.Random(3)
    m = fm.build_irreducible((1, 0, 0, 1))
    for _ in range(60):
        a, b, c, d = (rng.randint(1, 5) for _ in range(4))
        if a == b or c == d:
            continue
        v = {rng.randrange(m.dim): Q(1)}
        lhs = m.apply_gen(a, b, m.apply_gen(c, d, v))
        rhs = m.apply_gen(c, d, m.apply_gen(a, b, v))
        comm = dict(lhs)
        for k, x in rhs.items():
            comm[k] = comm.get(k, Q(0)) - x
        comm = {k: x for k, x in comm.items() if x}
        want = {}
        if b == c:
            for k, x in m.apply_gen(a, d, v).items():
                want[k] = want.get(k, Q(0)) + x
        if d == a:
            for k, x in m.apply_gen(c, b, v).items():
                want[k] = want.get(k, Q(0)) - x
        want = {k: x for k, x in want.items() if x}
        assert comm == want


def test_dual_module_examples():
    triv = fm.DualModule(fm.build_irreducible((0, 0, 0, 0)))
    assert triv.highest_weight == (0, 0, 0, 0)
    d5 = fm.DualModule(fm.build_irreducible((1, 0, 0, 0)))
    assert d5.highest_weight == (0, 0, 0, 1)
    d40 = fm.DualModule(fm.build_irreducible((1, 1, 0, 0)))
    assert d40.highest_weight == (0, 0, 1, 1)
    assert d40.weight_of(d40.hw_index) == (0, 0, 1, 1)
    for i in range(1, 5):
        assert not d40.apply_gen(i, i + 1, {d40.hw_index: Q(1)})


def test_dual_negated_transpose():
    m = fm.build_irreducible((0, 1, 0, 0))
    dm = fm.DualModule(m)
    for r, s in [(2, 1), (1, 2), (3, 5)]:
        for p in range(m.dim):
            img = m.apply_gen(r, s, {p: Q(1)})
            for q, v in img.items():
                dimg = dm.apply_gen(r, s, {q: Q(1)})
                assert dimg.get(p, Q(0)) == -v


# the weights of box 2 whose modules are small enough to build in a test
_BOX2 = [lam for lam in itertools.product(range(3), repeat=4) if sl5.weyl_dimension(lam) <= 200]
_built: dict = {}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dual_of_dual_is_the_base(data):
    # DualModule(DualModule(F)) has F's weights and highest weight vector,
    # and the negated transpose of the negated transpose is F's own action
    lam = data.draw(st.sampled_from(_BOX2))
    if lam not in _built:
        base = fm.build_irreducible(lam)
        _built[lam] = base, fm.DualModule(fm.DualModule(base))
    base, dd = _built[lam]
    assert dd.highest_weight == base.highest_weight
    assert dd.hw_index == base.hw_index
    assert [dd.weight_of(i) for i in range(dd.dim)] == base.weights
    r, s = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    scalars = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    coords = data.draw(st.dictionaries(st.integers(0, base.dim - 1), scalars, max_size=6))
    assert dd.apply_gen(r, s, coords) == base.apply_gen(r, s, coords)


def test_module_acted_on_is_freed_without_the_cycle_collector():
    # the module keeps its action views, so a view must not keep the module
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        m = fm.build_irreducible((1, 0, 0, 0))
        assert m.apply_gen(2, 1, {m.hw_index: 1})
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_module_acted_on_pickles():
    # the view's weak reference to its module is not pickled
    dual = fm.DualModule(fm.build_irreducible((1, 0, 0, 0)))
    img = dual.apply_gen(1, 2, {0: 1})
    back = pickle.loads(pickle.dumps(dual))
    assert back.apply_gen(1, 2, {0: 1}) == img


def test_pickled_dual_module_drops_derived_caches():
    # as a TensorModule does: the transposed columns built so far stay behind
    dual = fm.DualModule(fm.build_irreducible((1, 0, 0, 0)))
    imgs = {(r, s): dual.apply_gen(r, s, {i: 1 for i in range(dual.dim)})
            for r in range(1, 6) for s in range(1, 6)}
    assert dual.cache("act") and dual.cache("actions")
    back = pickle.loads(pickle.dumps(dual))
    assert back._derived == {}
    assert back.base._derived == {}
    assert (back.weight, back.hw_index, back._weights) == \
        (dual.weight, dual.hw_index, dual._weights)
    assert {(r, s): back.apply_gen(r, s, {i: 1 for i in range(back.dim)})
            for r in range(1, 6) for s in range(1, 6)} == imgs


def test_every_weight_dominated_by_highest():
    for lam in [(1, 1, 0, 0), (0, 1, 1, 0)]:
        m = fm.build_irreducible(lam)
        for idx in range(m.dim):
            assert sl5.dominance_compare(m.weight_of(idx), lam) in (
                "less-or-equal", "equal")


def test_weight_multiplicities_symmetric_under_duality():
    lam = (1, 1, 0, 0)
    m = fm.build_irreducible(lam)
    dm = fm.DualModule(m)
    mults, dmults = {}, {}
    for idx in range(m.dim):
        mults[m.weight_of(idx)] = mults.get(m.weight_of(idx), 0) + 1
        dmults[dm.weight_of(idx)] = dmults.get(dm.weight_of(idx), 0) + 1
    # F(lam)* has the weights of F(lam*):
    star = fm.build_irreducible(sl5.dual_weight(lam))
    smults = {}
    for idx in range(star.dim):
        smults[star.weight_of(idx)] = smults.get(star.weight_of(idx), 0) + 1
    assert dmults == smults


def _lower_pair(monomial, pair):
    sgn = 1
    i, j = pair
    if i > j:
        sgn, pair = -1, (j, i)
    if pair[0] == pair[1]:
        return None, 0
    pos = 5 + {p: k for k, p in enumerate(fm.PAIRS)}[pair]
    if monomial[pos] == 0:
        return None, 0
    out = list(monomial)
    out[pos] -= 1
    return tuple(out), sgn * monomial[pos]


def _lower_vec(monomial, t):
    if monomial[t - 1] == 0:
        return None, 0
    out = list(monomial)
    out[t - 1] -= 1
    return tuple(out), monomial[t - 1]


def test_pluecker_contractions_annihilate():
    """The quadratic contraction operators corresponding to the dual Pluecker
    relations kill every vector of F(n, m+1, 0, 0) for n, m in {0,1}."""
    for n, m in itertools.product((0, 1), (0, 1)):
        mod = fm.build_irreducible((n, m + 1, 0, 0))
        for vec in mod.vectors:
            for a, b, c, d in itertools.permutations((1, 2, 3, 4, 5), 4):
                acc = {}
                for p1, p2 in (((a, b), (c, d)), ((a, c), (d, b)), ((a, d), (b, c))):
                    for monomial, co in vec.items():
                        m1, s1 = _lower_pair(monomial, p1)
                        if m1 is None:
                            continue
                        m2, s2 = _lower_pair(m1, p2)
                        if m2 is None:
                            continue
                        acc[m2] = acc.get(m2, Q(0)) + co * s1 * s2
                assert not {k: v for k, v in acc.items() if v}
            for a, b, c in itertools.permutations((1, 2, 3, 4, 5), 3):
                acc = {}
                for pp, t in (((a, b), c), ((b, c), a), ((c, a), b)):
                    for monomial, co in vec.items():
                        m1, s1 = _lower_pair(monomial, pp)
                        if m1 is None:
                            continue
                        m2, s2 = _lower_vec(m1, t)
                        if m2 is None:
                            continue
                        acc[m2] = acc.get(m2, Q(0)) + co * s1 * s2
                assert not {k: v for k, v in acc.items() if v}


def _generator_image(r, s, slot):
    """x_r d/dx_s on one generator of the ambient algebra, as {slot: Q}."""
    if slot < 5:  # x_t
        return {r - 1: Q(1)} if slot == s - 1 else {}
    if slot >= 25:  # x*_t
        return {25 + s - 1: Q(-1)} if slot - 25 == r - 1 else {}
    dual = slot >= 15
    i, j = fm.PAIRS[slot - (15 if dual else 5)]
    if dual:  # x*_ij -> -(delta_ri x*_sj + delta_rj x*_is)
        raw = ([((s, j), Q(-1))] if i == r else []) + ([((i, s), Q(-1))] if j == r else [])
    else:  # x_ij -> delta_is x_rj + delta_js x_ir
        raw = ([((r, j), Q(1))] if i == s else []) + ([((i, r), Q(1))] if j == s else [])
    out = {}
    for (a, b), c in raw:
        if a == b:
            continue
        if a > b:
            a, b, c = b, a, -c
        k = (15 if dual else 5) + fm.PAIRS.index((a, b))
        out[k] = out.get(k, Q(0)) + c
    return out


def _glact_reference(r, s, vec):
    """Derivation rule over Q: sum over generators of exponent * image."""
    out = {}
    for m, c in vec.items():
        for slot, e in enumerate(m):
            if not e:
                continue
            for slot2, c2 in _generator_image(r, s, slot).items():
                m2 = list(m)
                m2[slot] -= 1
                m2[slot2] += 1
                key = tuple(m2)
                out[key] = out.get(key, Q(0)) + c * Q(e) * c2
    return {k: v for k, v in out.items() if v}


_monomials = st.lists(st.tuples(st.integers(0, 29), st.integers(1, 2)),
                      min_size=1, max_size=4).map(
    lambda parts: tuple(sum(e for slot, e in parts if slot == k) for k in range(30)))
_vectors = st.dictionaries(
    _monomials, st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
    max_size=5)


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), _vectors)
def test_glact_vector_matches_fraction_reference(r, s, vec):
    got = fm.glact_vector(r, s, vec)
    assert got == _glact_reference(r, s, vec)
    assert all(type(c) is Q for c in got.values())


def _stored_scalars(mod):
    """Every scalar a module stores: basis vectors, provenance trail
    coefficients and pivots, and the rational action columns."""
    for vec in mod.vectors:
        yield from vec.values()
    for _origin, trail, pc in mod.prov:
        yield pc
        yield from (c for _idx, c in trail)
    for cols in mod.cache("act").values():
        for col in cols.values():
            yield from col.values()


def test_built_vectors_have_fraction_coefficients():
    # the coefficients are rationals stored as an int when integral and as a
    # Fraction only when not, never as a float; checked on full modules with
    # every action column built (F(0,0,1,2) is the least whose coordinates
    # meet integral Fractions) and on a search's lazy module
    from e510 import verma

    mods = [fm.build_irreducible(lam) for lam in
            [(1, 0, 0, 0), (0, 1, 1, 0), (1, 1, 0, 0), (2, 0, 0, 1), (0, 0, 1, 2)]]
    for mod in mods:
        for nu in list(mod.spaces):
            for r, s in itertools.product(range(1, 6), repeat=2):
                mod.act_entries(r, s, nu)
    lazy = fm.TensorModule((0, 0, 1, 0))
    assert verma.singular_vectors((0, 0, 1, 0), 2, module=lazy)
    assert lazy.cache("act")
    kinds = set()
    for mod in mods + [lazy]:
        for c in _stored_scalars(mod):
            assert type(c) is int or (type(c) is Q and c.denominator != 1), (mod.weight, c)
            kinds.add(type(c))
    assert kinds == {int, Q}


_dense_monomials = st.lists(st.integers(0, 2), min_size=30, max_size=30).map(tuple)


@pytest.mark.parametrize("r,s", list(itertools.product(range(1, 6), repeat=2)))
@settings(max_examples=40, deadline=None)
@given(st.one_of(_monomials, _dense_monomials))
def test_glact_monomial_matches_slot_loop(r, s, m):
    got = fm.glact_monomial(r, s, m)
    want = oracles.glact_monomial(r, s, m)
    # same terms in the same order, as ints
    assert list(got.items()) == list(want.items())
    assert all(type(c) is int for c in got.values())


@pytest.mark.parametrize("code", [
    # a Weyl product that is not an integer
    "sl5.pair_value = lambda lam, i, j: 1 if (i, j) == (1, 3) else 0\n"
    "sl5.weyl_dimension((0, 0, 0, 0))\n",
    # a base module with two lowest weight vectors
    "class Base:\n"
    "    dim, highest_weight = 2, (0, 0, 0, 0)\n"
    "    def weight_of(self, idx):\n"
    "        return (0, 0, 0, 0)\n"
    "fmodules.DualModule(Base())\n",
], ids=["weyl_dimension", "dual_module"])
def test_checks_run_under_optimize(code):
    # with asserts stripped (-O) a failed consistency check must still raise
    prog = ("import sys\n"
            "from e510 import fmodules, sl5\n"
            "assert sys.flags.optimize\n"  # stripped: must not stop the check
            "try:\n" + "".join("    " + line + "\n" for line in code.splitlines()) +
            "except ArithmeticError as exc:\n"
            "    print('raised:', exc)\n"
            "else:\n"
            "    sys.exit('no error raised')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", prog], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:")
