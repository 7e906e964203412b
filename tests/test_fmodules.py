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
from e510.linalg import UnluckyPrime, to_fp


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
    return fm.pack(e)


def times(a, b):
    """The product of two packed monomials (exponents added slot by slot)."""
    return fm.pack([x + y for x, y in zip(fm.unpack(a), fm.unpack(b))])


def test_act_standard():
    assert fm.glact_vector(1, 2, {mono(x2=1): 1}) == {mono(x1=1): Q(1)}


def test_act_dual_sign_by_pairing():
    # <g.v, f> + <v, g.f> = 0 forces x1 d2 . x*_1 = -x*_2
    assert fm.glact_vector(1, 2, {mono(d1=1): 1}) == {mono(d2=1): Q(-1)}
    for r, s in itertools.permutations(range(1, 6), 2):
        for t in range(1, 6):
            gv = fm.glact_vector(r, s, {mono(**{f"x{t}": 1}): 1})
            for u in range(1, 6):
                lhs = gv.get(mono(**{f"x{u}": 1}), Q(0))
                gf = fm.glact_vector(r, s, {mono(**{f"d{u}": 1}): 1})
                rhs = gf.get(mono(**{f"d{t}": 1}), Q(0))
                assert lhs + rhs == 0


def test_act_disjoint_indices():
    assert fm.glact_vector(3, 4, {mono(w12=1): 1}) == {}


def test_act_is_derivation():
    rng = random.Random(6)
    for _ in range(40):
        r, s = rng.sample(range(1, 6), 2)
        a = rng.choice([mono(x1=1), mono(w23=1), mono(W45=1), mono(d3=1)])
        b = rng.choice([mono(x2=1), mono(w14=1), mono(W12=1), mono(d5=1)])
        ab = times(a, b)
        got = fm.glact_vector(r, s, {ab: 1})
        want = {}
        for m, c in fm.glact_vector(r, s, {a: 1}).items():
            k = times(m, b)
            want[k] = want.get(k, Q(0)) + c
        for m, c in fm.glact_vector(r, s, {b: 1}).items():
            k = times(a, m)
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
            assert not m.action(i, i + 1).apply({m.hw_index: Q(1)}, {})


def test_commutator_relations_random():
    rng = random.Random(3)
    m = fm.build_irreducible((1, 0, 0, 1))
    for _ in range(60):
        a, b, c, d = (rng.randint(1, 5) for _ in range(4))
        if a == b or c == d:
            continue
        v = {rng.randrange(m.dim): Q(1)}
        lhs = m.action(a, b).apply(m.action(c, d).apply(v, {}), {})
        rhs = m.action(c, d).apply(m.action(a, b).apply(v, {}), {})
        comm = dict(lhs)
        for k, x in rhs.items():
            comm[k] = comm.get(k, Q(0)) - x
        comm = {k: x for k, x in comm.items() if x}
        want = {}
        if b == c:
            for k, x in m.action(a, d).apply(v, {}).items():
                want[k] = want.get(k, Q(0)) + x
        if d == a:
            for k, x in m.action(c, b).apply(v, {}).items():
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
        assert not d40.action(i, i + 1).apply({d40.hw_index: Q(1)}, {})


def test_dual_negated_transpose():
    m = fm.build_irreducible((0, 1, 0, 0))
    dm = fm.DualModule(m)
    for r, s in [(2, 1), (1, 2), (3, 5)]:
        for p in range(m.dim):
            img = m.action(r, s).apply({p: Q(1)}, {})
            for q, v in img.items():
                dimg = dm.action(r, s).apply({q: Q(1)}, {})
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
    assert dd.action(r, s).apply(coords, {}) == base.action(r, s).apply(coords, {})


def test_each_module_has_one_dual_whose_dual_is_the_module():
    base = fm.build_irreducible((1, 1, 0, 0))
    dual = base.dual()
    assert isinstance(dual, fm.DualModule) and dual.base is base
    assert base.dual() is dual
    assert dual.dual() is base
    with pytest.raises(ValueError, match="not fully built"):
        fm.TensorModule((1, 0, 0, 0)).dual()


def test_module_acted_on_is_freed_without_the_cycle_collector():
    # the module keeps its action views, so a view must not keep the module
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        m = fm.build_irreducible((1, 0, 0, 0))
        assert m.action(2, 1).apply({m.hw_index: 1}, {})
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_module_acted_on_pickles():
    # the view's weak reference to its module is not pickled
    dual = fm.DualModule(fm.build_irreducible((1, 0, 0, 0)))
    img = dual.action(1, 2).apply({0: 1}, {})
    back = pickle.loads(pickle.dumps(dual))
    assert back.action(1, 2).apply({0: 1}, {}) == img


def test_pickled_dual_module_drops_derived_caches():
    # as a TensorModule does: the transposed columns built so far stay behind
    dual = fm.DualModule(fm.build_irreducible((1, 0, 0, 0)))
    imgs = {(r, s): dual.action(r, s).apply({i: 1 for i in range(dual.dim)}, {})
            for r in range(1, 6) for s in range(1, 6)}
    assert dual.cache("act") and dual.cache("actions")
    back = pickle.loads(pickle.dumps(dual))
    assert back._derived == {}
    assert back.base._derived == {}
    assert (back.weight, back.hw_index, back._weights) == \
        (dual.weight, dual.hw_index, dual._weights)
    assert {(r, s): back.action(r, s).apply({i: 1 for i in range(back.dim)}, {})
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
            vec = {fm.unpack(m): co for m, co in vec.items()}
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
    """Derivation rule over Q on exponent tuples: sum over generators of
    exponent * image."""
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
    got = fm.glact_vector(r, s, {fm.pack(m): c for m, c in vec.items()})
    assert {fm.unpack(m): c for m, c in got.items()} == _glact_reference(r, s, vec)
    assert all(type(c) is Q for c in got.values())


_int_vectors = st.dictionaries(_monomials, st.integers(-3, 3).filter(bool), max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.one_of(_vectors, _int_vectors))
def test_glact_vector_matches_the_add_into_reference(r, s, vec):
    # the same terms in the same order, and of the same types, as one
    # add_into per monomial, r = s included
    packed = {fm.pack(m): c for m, c in vec.items()}
    got = fm.glact_vector(r, s, packed)
    want = oracles.glact_vector(r, s, packed)
    assert list(got.items()) == list(want.items())
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


def test_glact_vector_drops_a_cancelled_term_and_appends_it_when_it_returns():
    # under x_1 d/dx_2 the first three monomials all reach x_1 x_13 x*_2,
    # with coefficients 1, 1 and -1: it cancels after the second, and comes
    # back after the fourth monomial's terms; the last one is the r = s case
    k = mono(x1=1, w13=1, W12=0, d2=1)
    vec = {mono(x2=1, w13=1, d2=1): 1, mono(x1=1, w23=1, d2=1): -1,
           mono(x2=1, w23=1): 1, mono(x1=1, w13=1, d1=1): 1}
    got = fm.glact_vector(1, 2, vec)
    want = oracles.glact_vector(1, 2, vec)
    assert list(got.items()) == list(want.items())
    assert list(got)[-1] == k and len(got) == 3
    diag = {mono(x1=2, d1=1): 3, mono(x1=1, d1=1): 2, mono(x2=1): 5}
    got = fm.glact_vector(1, 1, diag)
    assert list(got.items()) == list(oracles.glact_vector(1, 1, diag).items())
    # x_1 d/dx_1 counts x_1 minus x*_1: 2 - 1 on the first, 1 - 1 = 0 on the second
    assert list(got) == [mono(x1=2, d1=1)]


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
# a move raises one exponent by 1: inside F(lam) every exponent, the raised
# one included, is at most max(lam) < 2^16, so here each stays one below that
_wide_monomials = st.lists(st.integers(0, 2**16 - 2), min_size=30, max_size=30).map(tuple)


@pytest.mark.parametrize("r,s", list(itertools.product(range(1, 6), repeat=2)))
@settings(max_examples=60, deadline=None)
@given(st.one_of(_monomials, _dense_monomials, _wide_monomials))
def test_glact_monomial_matches_slot_loop(r, s, m):
    got = fm.glact_vector(r, s, {fm.pack(m): 1})
    want = oracles.glact_monomial(r, s, m)
    # same terms in the same order, as ints
    assert [(fm.unpack(k), c) for k, c in got.items()] == list(want.items())
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


def test_gen_shift_table_matches_its_definition():
    # all 25 x_r d/dx_s, the diagonal included; each shift is the weight that
    # x_r d/dx_s adds to a monomial it does not kill
    for r, s in itertools.product(range(1, 6), repeat=2):
        assert fm.gen_shift(r, s) == oracles.gen_shift(r, s)
        assert all(type(k) is int for k in fm.gen_shift(r, s))
    m = mono(x1=1, x2=1, x3=1, x4=1, x5=1)
    for r, s in itertools.product(range(1, 6), repeat=2):
        for m2 in fm.glact_vector(r, s, {m: 1}):
            assert fm.monomial_weight(m2) == sl5.wadd(fm.monomial_weight(m), fm.gen_shift(r, s))


@pytest.mark.parametrize("bad", [(0, 0, 1, 0, 0), (0, 0, 1), (True, 0, 0, 0), (1, 0, 0, 0.0)])
@pytest.mark.parametrize("make", [fm.TensorModule, fm.build_irreducible])
def test_modules_refuse_a_weight_that_is_not_four_ints(make, bad):
    with pytest.raises(ValueError, match="a weight is 4 integers"):
        make(bad)


# -- the packed monomial encoding ----------------------------------------------

_exponents = st.lists(st.integers(0, 2**16 - 1), min_size=30, max_size=30).map(tuple)


@given(_exponents)
def test_unpack_inverts_pack(e):
    m = fm.pack(e)
    assert type(m) is int and 0 <= m < 2**480
    assert fm.unpack(m) == e


@given(_exponents, _exponents)
def test_pack_preserves_tuple_order(e, f):
    # so min() of a residual, pivots and term order are those of the tuples
    assert (fm.pack(e) < fm.pack(f)) == (e < f)
    assert (fm.pack(e) == fm.pack(f)) == (e == f)


def test_hw_monomial_packs_the_highest_weight_exponents():
    for lam in [(0, 0, 0, 0), (1, 2, 3, 4), (2**16 - 1, 0, 7, 2**16 - 1)]:
        a, b, c, d = lam
        assert fm.hw_monomial(lam) == mono(x1=a, w12=b, W45=c, d5=d)
        assert fm.monomial_gl_weight(fm.hw_monomial(lam)) == \
            (a + b, b, 0, -c, -c - d)


@pytest.mark.parametrize("make", [fm.TensorModule, fm.build_irreducible])
def test_modules_refuse_a_weight_beyond_the_exponent_slot(make):
    for lam in [(2**16, 0, 0, 0), (0, 0, 0, 2**16), (0, 1, 2**20, 0)]:
        with pytest.raises(ValueError, match=r"below 2\^16 = 65536"):
            make(lam)
    assert fm.TensorModule((2**16 - 1, 0, 0, 0)).ensure_weight((2**16 - 1, 0, 0, 0)) == [0]


# -- raising columns from the lowering record --------------------------------

def _typed(cols):
    """Column maps as lists, so that == also compares key order and types."""
    return [(idx, [(k, type(v), v) for k, v in col.items()]) for idx, col in cols.items()]


def _outcome(fn, *args, **kwargs):
    try:
        return _typed(fn(*args, **kwargs))
    except UnluckyPrime:
        return "unlucky"


def _searched(mu, d):
    from e510 import verma

    mod = fm.TensorModule(mu)
    verma.singular_vectors(mu, d, module=mod)
    return mod


RAISING_MODULES = {"full": [(1, 1, 0, 0), (0, 0, 1, 2), (2, 0, 0, 1), (1, 0, 1, 1)],
                   "lazy": [((0, 0, 1, 1), 2), ((1, 0, 0, 1), 2), ((0, 0, 0, 1), 4)]}


@pytest.mark.parametrize("kind, spec", [(k, s) for k, specs in RAISING_MODULES.items()
                                        for s in specs])
def test_raising_columns_match_the_ambient_loop(kind, spec):
    # over Q and over F_p: the same values, int/Fraction types and key order
    # (or the same UnluckyPrime) as acting on the ambient vectors, on the
    # module as built and on a pickled copy, which keeps the lowering record
    # but no derived cache; the copy also reduces the same bases mod p as the
    # ambient loop does on a second copy, and builds the same (above-top)
    # spaces
    from e510 import verma

    mod = fm.build_irreducible(spec) if kind == "full" else _searched(*spec)
    weights = list(mod.spaces)
    for p in (None, verma.SIEVE_PRIME, 2, 3):
        ref, own = (pickle.loads(pickle.dumps(mod)) for _ in range(2))
        for nu in weights:
            for i in range(1, 5):
                want = _outcome(oracles.raising_columns, ref, i, nu, p)
                assert _outcome(verma._raising_columns, own, i, nu, p) == want
                assert set(own.cache("bases", p)) == set(ref.cache("bases", p))
                assert _outcome(verma._raising_columns, mod, i, nu, p) == want
        assert list(own.spaces) == list(ref.spaces)
        assert list(own.spaces)[:len(weights)] == weights


@pytest.mark.parametrize("kind, spec", [(k, s) for k, specs in RAISING_MODULES.items()
                                        for s in specs])
def test_lowering_columns_match_the_ambient_loop(kind, spec):
    # the same values, int/Fraction types and key order as acting on the
    # ambient vectors, on the module as built and on a pickled copy, which
    # keeps the lowering record but no derived cache; all three build the
    # same spaces
    mod = fm.build_irreducible(spec) if kind == "full" else _searched(*spec)
    weights = list(mod.spaces)
    ref, own = (pickle.loads(pickle.dumps(mod)) for _ in range(2))
    for nu in weights:
        for i in range(1, 5):
            want = _outcome(oracles.ambient_columns, ref, i + 1, i, nu)
            assert _outcome(own.act_entries, i + 1, i, nu) == want
            assert _outcome(mod.act_entries, i + 1, i, nu) == want
    assert list(own.spaces) == list(ref.spaces) == list(mod.spaces)
    assert own.vectors == ref.vectors == mod.vectors


def test_raising_columns_build_spaces_as_the_ambient_loop_did():
    # on fresh lazy modules, act_entries builds the weight spaces the
    # ambient loop built, in the same order, over Q and over F_p
    from e510 import verma

    weights = list(_searched((0, 0, 1, 1), 2).spaces)
    for p in (None, verma.SIEVE_PRIME):
        ref, own = fm.TensorModule((0, 0, 1, 1)), fm.TensorModule((0, 0, 1, 1))
        for nu in reversed(weights):
            for i in (4, 1, 3, 2):
                assert _outcome(verma._raising_columns, own, i, nu, p) == \
                    _outcome(oracles.raising_columns, ref, i, nu, p)
                assert list(own.spaces) == list(ref.spaces)
                assert own.vectors == ref.vectors and own.prov == ref.prov


# F_2 raisings x_i d/dx_{i+1} into a target whose basis is not 2-integral and
# which every column misses mod 2: lam -> [(target, i)]
_ZERO_INTO_UNLUCKY = {(1, 0, 0, 2): [((-1, 0, 0, 0), 1)],
                      (0, 1, 0, 2): [((2, -1, 0, 0), 2), ((-1, -1, 1, 0), 1),
                                     ((-1, 0, -1, 1), 1), ((-1, 0, 0, -1), 1)]}


def test_fp_raising_columns_need_a_target_basis_only_for_a_nonzero_column():
    # over F_2 the sieve's raising columns raise UnluckyPrime on all four
    # raisings into weight (1, 0, 0, 0) of F(2,0,0,1), as the ambient loop
    # does; but where every column into a target whose basis is not
    # 2-integral is 0 mod 2, they are the rational columns reduced, while the
    # ambient loop, which reduces that basis, raises
    from e510 import verma

    mod = fm.build_irreducible((2, 0, 0, 1))
    for i in range(1, 5):
        nu = sl5.wsub((1, 0, 0, 0), sl5.SIMPLE_ROOTS[i - 1])
        assert mod.spaces[nu]
        ref, own = (pickle.loads(pickle.dumps(mod)) for _ in range(2))
        assert _outcome(oracles.raising_columns, ref, i, nu, 2) == "unlucky"
        assert _outcome(verma._raising_columns, own, i, nu, 2) == "unlucky"
    for lam, cases in _ZERO_INTO_UNLUCKY.items():
        mod = fm.build_irreducible(lam)
        for target, i in cases:
            nu = sl5.wsub(target, sl5.SIMPLE_ROOTS[i - 1])
            ref, own = (pickle.loads(pickle.dumps(mod)) for _ in range(2))
            assert _outcome(oracles.raising_columns, ref, i, nu, 2) == "unlucky"
            with pytest.raises(UnluckyPrime):
                verma._fp_basis(own, target, 2)
            got = verma._raising_columns(own, i, nu, 2)
            assert got == {idx: {k: v for k, c in col.items() if (v := to_fp(c, 2))}
                           for idx, col in mod.act_entries(i, i + 1, nu).items()}
            assert got and not any(got.values()) and any(mod.act_entries(i, i + 1, nu).values())


def test_raising_reads_only_built_spaces():
    # _raising builds nothing: with its memo gone (a pickled copy, which
    # keeps the lowering record), every column of every built space leaves
    # the list of spaces, in order, as it was
    mod = pickle.loads(pickle.dumps(_searched((0, 0, 1, 1), 2)))
    spaces = list(mod.spaces)
    for nu in spaces:
        if mod.spaces[nu]:
            for j in range(1, 5):
                mod._raising(j, nu)
                assert list(mod.spaces) == spaces
    assert mod.cache("raising") and mod.lower


def test_search_makes_no_ambient_raising(monkeypatch):
    # the raisings of the search and of its singular check come from the
    # lowering record: x_i d/dx_{i+1} never acts on an ambient vector
    from e510 import verma

    calls = []

    def record(real):
        def glact_vector(r, s, vec):
            calls.append((r, s))
            return real(r, s, vec)
        return glact_vector

    monkeypatch.setattr(fm, "glact_vector", record(fm.glact_vector))
    monkeypatch.setattr(verma, "glact_vector", record(verma.glact_vector))
    assert verma.singular_vectors((0, 0, 1, 0), 2)
    assert calls and not [rs for rs in calls if rs[1] == rs[0] + 1]


_LOWERING_WEIGHTS = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 0, 1),
                     (0, 0, 1, 2), (0, 0, 0, 2)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_LOWERING_WEIGHTS), st.randoms(use_true_random=False))
def test_lowering_coords_are_the_ambient_coordinates(mu, rng):
    # on a module built by ensure_weight on a random set of weights in a
    # random order, x_r d/dx_s . v_idx (r > s) read from the lowering record
    # is the coordinate vector of the ambient image in every built target,
    # and reading it builds nothing
    weights = sorted(fm.build_irreducible(mu).spaces)
    mod = fm.TensorModule(mu)
    for nu in rng.sample(weights, rng.randint(1, len(weights))):
        mod.ensure_weight(nu)
    spaces, size = list(mod.spaces), len(mod.vectors)
    checked = 0
    for idx, nu in enumerate(mod.weights):
        for s, r in itertools.combinations(range(1, 6), 2):
            target = sl5.wadd(nu, fm.gen_shift(r, s))
            if target not in mod.spaces:
                continue
            img = fm.glact_vector(r, s, mod.vectors[idx])
            assert mod.lowering_coords(r, s, idx) == (mod.coords(target, img) if img else {})
            checked += 1
    assert list(mod.spaces) == spaces and len(mod.vectors) == size
    assert checked or not mod.vectors
