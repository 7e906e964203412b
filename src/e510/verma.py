"""Generalized Verma modules M(lambda) for E(5,10) and their morphisms.

M(lambda) = U(L_-) (x) F(lambda).  Elements are sparse dicts
(PBW monomial, F-basis index) -> Fraction over a concrete module realization.

The singular-vector search runs per candidate highest weight lambda by
leading-term lifting: a singular vector is determined by its component on the
top weight line of F(mu) (the leading term), every deeper component is the
unique solution of a stacked raising system, and the lowest-weight-vector
condition x_5 d45 . w = 0 is imposed level by level.  This is an exact
block-triangular elimination of the usual linear system {raisings = 0,
x5 d45 = 0} on each weight subspace; every returned vector is re-verified
directly, including against a full spanning set of L_1.

Almost every candidate lam has no singular vector, so the lifting runs first
over F_p (p = SIEVE_PRIME = 2^31 - 1, plain ints) as a sieve, on F_p data of
its own: the basis vectors reduced mod p once (their denominators are at most
2), the action columns and z-term images computed from those by the integer
tensor action and the same forward reduction (pivots are 1, so nothing is
divided), and the stacked raising solver factored by RowReducer(p).  All
but the solver are the rational data reduced mod p: coordinates mod p are
the rational ones reduced because the whole basis of the space they are
taken in is reduced first.  Only survivors, lifted again over Q, build the
rational solver, action tables and z-term images; the Q pass alone produces
and verifies the vectors.

The sieve is sound while every stacked raising system A has full column rank
mod p.  The left kernel of A mod p then has the dimension of the rational
one, so it is the reduction of the rational left kernel, and the F_p solve
combinations differ from the reduced rational ones only by left-kernel rows.
Such rows change the lifted components only by combinations of constraints
already imposed, so the span of the constraints is the reduction of the
rational span, and reduction mod p cannot raise a rank: a constraint rank mod
p that reaches the number L of leading monomials proves the candidate dead
over Q.  Where p cannot decide, UnluckyPrime sends the candidate to the Q
pass: to_fp meets a denominator divisible by p (in a basis vector or a PBW
coefficient); an F_p coordinate computation leaves a residual; or the F_p
rank of a stacked system falls short of the dimension of its weight space.

The sieve builds the lazy module through the same ensure_weight calls as the
exact lifting, in the same order (each weight space, then its raising
targets), so the lazy F-basis, whose indices certificates record, is
numbered as without it, unless the constraint rank mod p falls short of the
rank over Q: then the sieve may lift deeper than Q would, build more weight
spaces and renumber the basis.  Results stay correct even then, but
certificates may change; this is seen at p = 2 and not known for
p = 2^31 - 1, which meets no UnluckyPrime on the degree-2 box-2 and
degree-4 box-1 sweeps.

The L_1 condition x_5 d45 . w = 0 gives z-term rows at the depth of the
weight each term lands in.  The lifting records each term (PBW monomial, PBW
coefficient, x_5 d_t op, lifted components) under that depth as it arises,
and expands a depth's records into rows only when it flushes that depth, so
a candidate killed earlier never multiplies out the terms of the depths it
does not reach.  The rows, their order and every rank check are those of
expanding each term at once.  Deferring changes no sieve verdict, because
nothing deferred can raise UnluckyPrime: to_fp of the PBW coefficient runs
when the term is recorded, and the expansion reads only basis vectors of the
weight space nu the components live in (vector, and _zimage through it),
whose reduction mod p fp_basis made when solver(nu) built the action mod p
(at depth 0 the one highest weight vector, a monomial with coefficient 1);
glact_vector over F_p divides nothing.  Nor does it build a weight space, so
the lazy F-basis numbering is unchanged.

The morphism checks (check_morphism, verify_degree_equations) run in ints.
Their conditions are linear and homogeneous in Phi, so with D > 0 the lcm of
the denominators of Phi's coefficients, x . (D Phi) = D (x . Phi) vanishes
exactly when x . Phi does; likewise the theta blocks are scaled by a positive
integer and each degree equation is multiplied by 4.  Scaling by a positive
integer keeps zero-ness, so verdicts and diagnostics are those of rational
arithmetic.  Invariance is decided on the 8 Chevalley generators x_i d_{i+1}
and x_{i+1} d_i, which generate sl5; a failing Phi is reported at the first
failing generator of all 20 x_r d/dx_s in order.  The target's action is
read through its module's column views (action(r, s)), the same ones
apply_gen uses, and the source's through a transposed view.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache, partial

from . import fmodules, sl5, uminus
from .fmodules import TensorModule, DualModule, glact_vector, gen_shift
from .fmodules import _PAIR_POS, _V0, _VD0, _W0
from .linalg import RowReducer, UnluckyPrime, add_into, as_int, format_scalar, parse_scalar, to_fp

ZDEL = uminus.ZERO_DEL


# ---------------------------------------------------------------------------
# Verma elements

@dataclass
class VermaElement:
    """Sparse element of M(mu): terms maps (PBW monomial, F index) -> Q."""

    module: object
    degree: int
    terms: dict = field(default_factory=dict)

    def is_zero(self) -> bool:
        return not self.terms

    def scaled(self, c: Q) -> "VermaElement":
        return VermaElement(self.module, self.degree,
                            {k: c * v for k, v in self.terms.items()} if c else {})

    def plus(self, other: "VermaElement", scale: Q = Q(1)) -> "VermaElement":
        out = dict(self.terms)
        add_into(out, other.terms, scale)
        return VermaElement(self.module, self.degree, out)

    def weight(self):
        for (m, idx) in self.terms:
            return sl5.wadd(uminus.monomial_weight(m), self.module.weight_of(idx))
        return None


@lru_cache(maxsize=None)
def _l0_mono(r: int, s: int, m: tuple):
    """The adjoint action of x_r d/dx_s on the PBW monomial m: (m', int) pairs."""
    return tuple((m2, as_int(c)) for m2, c in uminus.l0_adjoint(r, s, {m: Q(1)}).items())


def act_l0(r: int, s: int, w: VermaElement) -> VermaElement:
    """Action of x_r d/dx_s on a Verma element: adjoint on the U part plus
    the module action on the F part."""
    mod = w.module
    out: dict = {}
    for (m, idx), c in w.terms.items():
        for m2, c2 in _l0_mono(r, s, m):
            add_into(out, {(m2, idx): c * c2})
        for idx2, c2 in mod.apply_gen(r, s, {idx: c}).items():
            add_into(out, {(m, idx2): c2})
    return VermaElement(mod, w.degree, out)


@lru_cache(maxsize=None)
def _odd_action(p: int, A: tuple, m: tuple):
    """Left action of the positive odd generator x_p d_A on the PBW monomial m,
    pushed through to the Verma tensor form.

    Returns a tuple of (monomial, coeff, op) with op None for terms where the
    F part is untouched and op = (p, t) where the leftover x_p d/dx_t of L_0
    still has to act on the F part.  Uses the brackets
    [x_p d_A, d_B] = eps_{A,B} x_p del_{t_{A,B}} and
    [x_p d_A, del_t] = -delta_{tp} d_A, with a (-1) for each odd generator
    the (odd) element moves past; x_p d_A itself kills 1 (x) F.
    """
    d5, ps = m
    out: list = []
    if d5[p - 1]:
        nd = list(d5)
        nd[p - 1] -= 1
        for (d5w, psw), cw in uminus.normal_form((A,) + ps).items():
            mono = (tuple(x + y for x, y in zip(nd, d5w)), psw)
            out.append((mono, -d5[p - 1] * cw, None))
    for j, Pj in enumerate(ps):
        sgn0 = -1 if j % 2 else 1
        se, t = uminus.eps_t(A[0], A[1], Pj[0], Pj[1])
        if not se:
            continue
        coeff = Q(sgn0 * se)
        rest = ps[:j] + ps[j + 1:]
        # leftover x_p d/dx_t acts adjointly on the generators right of slot j
        for l in range(j, len(rest)):
            i2, j2 = rest[l]
            for pos, letter in ((0, i2), (1, j2)):
                if letter != t:
                    continue
                np_raw = (p, j2) if pos == 0 else (i2, p)
                word = rest[:l] + (np_raw,) + rest[l + 1:]
                for (d5w, psw), cw in uminus.normal_form(word).items():
                    mono = (tuple(x + y for x, y in zip(d5, d5w)), psw)
                    out.append((mono, coeff * cw, None))
        out.append(((d5, rest), coeff, (p, t)))
    return tuple(out)


def act_odd(p: int, A: tuple, w: VermaElement) -> VermaElement:
    """Action of x_p d_A in L_1 on a Verma element (degree drops by 1)."""
    mod = w.module
    out: dict = {}
    for (m, idx), c in w.terms.items():
        for m2, c2, op in _odd_action(p, A, m):
            cc = c * c2
            if op is None:
                add_into(out, {(m2, idx): cc})
            else:
                for idx2, c3 in mod.apply_gen(op[0], op[1], {idx: cc}).items():
                    add_into(out, {(m2, idx2): c3})
    return VermaElement(mod, w.degree - 1, out)


def act_x5d45(w: VermaElement) -> VermaElement:
    """Action of the lowest weight vector x_5 d45 of L_1."""
    return act_odd(5, (4, 5), w)


def act_l1_combination(elem: dict, w: VermaElement) -> VermaElement:
    """Action of a closed combination sum c_{p,A} x_p d_A in L_1."""
    out: dict = {}
    for (p, A), c in elem.items():
        add_into(out, act_odd(p, A, w.scaled(c)).terms)
    return VermaElement(w.module, w.degree - 1, out)


@lru_cache(maxsize=1)
def l1_basis() -> list[dict]:
    """A spanning set of L_1 as the closure of x_5 d45 under the raising
    operators, echelonized; 40 elements, each a dict (p, pair) -> Q.
    Memoized and shared: callers only read it."""
    def raise_elem(i, elem):
        out: dict = {}
        for (p, (a, b)), c in elem.items():
            if p == i + 1:
                add_into(out, {(i, (a, b)): c})
            for pos, letter in ((0, a), (1, b)):
                if letter != i + 1:
                    continue
                raw = (i, b) if pos == 0 else (a, i)
                sgn, cp = uminus.canon_pair(raw)
                if sgn:
                    add_into(out, {(p, cp): sgn * c})
        return out

    basis: list[dict] = []
    red = RowReducer()
    queue = [{(5, (4, 5)): Q(1)}]
    while queue:
        elem = queue.pop(0)
        if red.insert(elem):
            basis.append(elem)
            for i in range(1, 5):
                img = raise_elem(i, elem)
                if img:
                    queue.append(img)
    return basis


def leading_term(w: VermaElement) -> VermaElement:
    """Projection onto U_- (x) F(mu)_mu: the terms whose F part lies on the
    top weight line."""
    mod = w.module
    top = mod.highest_weight
    terms = {k: v for k, v in w.terms.items() if mod.weight_of(k[1]) == top}
    return VermaElement(mod, w.degree, terms)


def is_singular(w: VermaElement, full_l1: bool = True) -> bool:
    for i in range(1, 5):
        if not act_l0(i, i + 1, w).is_zero():
            return False
    if not act_x5d45(w).is_zero():
        return False
    if full_l1:
        for elem in l1_basis():
            if not act_l1_combination(elem, w).is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# Singular vector search by leading-term lifting

def _stacked_solver(mod: TensorModule, nu, *, p: int | None = None):
    """Factor the stacked raising maps out of the weight space nu.

    Returns (solve_combs, zero_combs): solve_combs maps each basis index of
    the space, in ascending order, to a row-combination dict over stacked row
    keys (i, target_idx) recovering that coordinate of the unique solution of
    A v = b; zero_combs are the left-kernel combinations yielding consistency
    constraints.  Raising maps are jointly injective below the top weight, so
    every coordinate is pinned.  With a modulus p the maps are factored over
    F_p from the action mod p; a rank below the dimension of the space then
    raises UnluckyPrime (p divides a denominator of the rational solver).
    """
    nu = tuple(nu)
    cache = mod.cache("stack", p)
    got = cache.get(nu)
    if got is not None:
        return got
    cols = mod.ensure_weight(nu)
    rows: dict = {}
    for i in range(1, 5):
        # every equation slot constrains, including rows no column touches
        target = sl5.wadd(nu, sl5.SIMPLE_ROOTS[i - 1])
        for tidx in mod.ensure_weight(target):
            rows[(i, tidx)] = {}
        entries = mod.act_entries(i, i + 1, nu, p=p)
        for col in cols:
            for tidx, val in entries[col].items():
                rows[(i, tidx)][col] = val
    red = RowReducer(p)
    one = Q(1) if p is None else 1
    for rk, row in sorted(rows.items()):
        red.insert(row, {rk: one})
    if red.rank != len(cols):
        error = ArithmeticError if p is None else UnluckyPrime
        raise error(f"raising maps not injective on weight space {nu}")
    got = cache[nu] = ({pc: red.combs[pc] for pc in sorted(red.pivots)}, red.relations)
    return got


def singular_vectors(mu, d: int, module: TensorModule | None = None):
    """All singular vectors of degree d in M(mu), grouped by weight.

    Returns a list of (lam, [VermaElement]) sorted by lam; each basis vector
    is exactly verified (L0 raisings, x5 d45, and a full L_1 spanning set)
    and normalized so the lexicographically least leading monomial has
    coefficient 1.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    mu = tuple(mu)
    mod = module if module is not None else TensorModule(mu)
    groups = _weight_groups(d)
    out = []
    for lam in _candidates(mu, groups):
        vecs = _lift_singular(mod, d, lam, groups)
        if vecs:
            out.append((lam, vecs))
    return out


def highest_weight_vectors(mu, d: int, lam, module: TensorModule | None = None):
    """Basis of the weight-lam highest weight vectors of (U_-)_d (x) F(mu)
    (no L_1 condition); used for cross-checks and negative controls."""
    mod = module if module is not None else TensorModule(tuple(mu))
    return _lift_singular(mod, d, tuple(lam), _weight_groups(d), impose_l1=False)


def _weight_groups(d: int) -> dict:
    """The PBW monomials of degree d grouped by weight: weight -> [monomial],
    each list in the order of uminus.pbw_monomials."""
    groups: dict = {}
    for m in uminus.pbw_monomials(d):
        groups.setdefault(uminus.monomial_weight(m), []).append(m)
    return groups


@lru_cache(maxsize=8)
def _transitions(d: int, p: int | None) -> dict:
    """The adjoint actions of the raisings on the degree-d PBW monomials,
    over Q (p None) or F_p: table[i][m2][m] is the coefficient of m2 in
    x_i d_{i+1} . m, the sources m of each m2 in _weight_groups(d) order.
    Shared by every candidate of every search of degree d."""
    table: dict = {i: {} for i in range(1, 5)}
    for ms in _weight_groups(d).values():
        for m in ms:
            for i in range(1, 5):
                for m2, c in _l0_mono(i, i + 1, m):
                    table[i].setdefault(m2, {})[m] = c if p is None else to_fp(c, p)
    return table


def _candidates(mu, groups) -> list:
    """The dominant weights mu + wt(m), sorted: the lam a search tries."""
    return sorted(lam for w in groups if sl5.is_dominant(lam := sl5.wadd(mu, w)))


# The modulus of the search's F_p sieve: the Mersenne prime 2^31 - 1.
SIEVE_PRIME = 2**31 - 1


def _zimage(mod: TensorModule, op, fidx, *, p: int | None = None):
    """The ambient image x_5 d_t . v_fidx (over F_p with a modulus p), cached
    on the module: shared by every candidate lam of a search."""
    key = (op, fidx)
    cache = mod.cache("zterm", p)
    img = cache.get(key)
    if img is None:
        img = cache[key] = glact_vector(op[0], op[1], mod.vector(fidx, p=p), p=p)
    return img


def _lifting_inputs(mod: TensorModule, p: int | None):
    """(solver, vector, zimage): the module data the lifting reads, over Q
    (p None) or F_p; see _stacked_solver, TensorModule.vector and _zimage."""
    return (partial(_stacked_solver, mod, p=p), partial(mod.vector, p=p),
            partial(_zimage, mod, p=p))


def _sieve(lift) -> str:
    """The sieve's verdict on one candidate: "dead" when its lifting mod
    SIEVE_PRIME proves it dead, "alive" when it survives, and "unlucky" when
    the prime cannot decide (UnluckyPrime: see the module docstring)."""
    try:
        return "alive" if lift(SIEVE_PRIME) is not None else "dead"
    except ZeroDivisionError:
        return "unlucky"


def _lift_singular(mod, d, lam, groups, impose_l1=True):
    """Basis of the degree-d singular vectors of weight lam in M(mu) (of the
    highest weight vectors when impose_l1 is False) by leading-term lifting:
    one lifting loop, run over F_p as a sieve and then over Q for the
    survivors (see the module docstring).  groups is _weight_groups(d).  With
    impose_l1 the z-terms of x_5 d45 are recorded per depth and expanded into
    constraint rows only when the lifting flushes that depth (the module
    docstring says why that is safe), and each vector is re-verified by the
    full is_singular check."""
    mu = mod.highest_weight
    depths = mod.cache("depth")

    def nu_depth(nu):
        """sum(dominated_depth(nu, mu)), or None; memoized on the module."""
        got = depths.get(nu, -1)
        if got == -1:
            ks = sl5.dominated_depth(nu, mu)
            got = depths[nu] = None if ks is None else sum(ks)
        return got

    # depth -> {nu -> the sorted monomials of weight lam - nu}: w -> lam - w is
    # injective, so each nu has one group, and depth 0 holds only nu = mu
    levels: dict[int, dict] = {}
    for w, ms in groups.items():
        nu = sl5.wsub(lam, w)
        dm = nu_depth(nu)
        if dm is not None:
            levels.setdefault(dm, {})[nu] = sorted(ms)
    if 0 not in levels:
        return []
    leading = levels[0][mu]
    L = len(leading)

    def lift(p):
        """(V, constraints) over Q (p None) or F_p, or None once dead."""
        solver, vector, zimage = _lifting_inputs(mod, p)
        # trans[i][m_target][m_source] = coeff; V holds only monomials of
        # levels, so the sources outside it contribute nothing
        trans = _transitions(d, p)

        constraints = RowReducer(p)
        V: dict = {}           # monomial -> {fidx -> {ci -> scalar}}
        zterms: dict = {}      # depth -> [(monomial, scalar, op, comps)]

        def add_z_terms(m, nu, depth, comps):
            for m2, c2, op in _odd_action(5, (4, 5), m):
                if op is None:
                    tau_depth = depth
                else:
                    tau_depth = nu_depth(sl5.wadd(nu, gen_shift(op[0], op[1])))
                    if tau_depth is None:
                        continue
                if p is not None:
                    c2 = to_fp(c2, p)
                zterms.setdefault(tau_depth, []).append((m2, c2, op, comps))

        def flush_z(depth) -> bool:
            rows: dict = {}    # (monomial, ambient mono) -> {ci -> scalar}
            for m2, c2, op, comps in zterms.pop(depth, ()):
                for fidx, form in comps.items():
                    vec = vector(fidx) if op is None else zimage(op, fidx)
                    for amb, ac in vec.items():
                        add_into(rows.setdefault((m2, amb), {}), form, c2 * ac, p)
            for row in rows.values():
                constraints.insert(row)
                if constraints.rank >= L:
                    return True
            return constraints.rank >= L

        def combine(comb, b) -> dict:
            form: dict = {}
            for rk, cf in comb.items():
                bf = b.get(rk)
                if bf:
                    add_into(form, bf, cf, p)
            return form

        one = Q(1) if p is None else 1
        for depth in range(max(levels) + 1):
            if depth == 0:
                for ci, m in enumerate(leading):
                    hw_space = mod.ensure_weight(mu)
                    V[m] = {hw_space[0]: {ci: one}}
                    if impose_l1:
                        add_z_terms(m, mu, 0, V[m])
            else:
                for nu, ms in sorted(levels.get(depth, {}).items()):
                    solve_combs, zero_combs = solver(nu)
                    for m in ms:
                        b: dict = {}
                        for i in range(1, 5):
                            for u, tcoef in trans[i].get(m, {}).items():
                                for fidx, form in V.get(u, {}).items():
                                    acc = b.setdefault((i, fidx), {})
                                    add_into(acc, form, -tcoef, p)
                        comps: dict = {}
                        for col, comb in solve_combs.items():
                            form = combine(comb, b)
                            if form:
                                comps[col] = form
                        for comb in zero_combs:
                            form = combine(comb, b)
                            if form:
                                constraints.insert(form)
                        if comps:
                            V[m] = comps
                            if impose_l1:
                                add_z_terms(m, nu, depth, comps)
                        if constraints.rank >= L:
                            return None
            if impose_l1 and flush_z(depth):
                return None
        if impose_l1:
            for depth in sorted(zterms):
                if flush_z(depth):
                    return None
        if constraints.rank >= L:
            return None
        return V, constraints

    lifted = None if _sieve(lift) == "dead" else lift(None)
    if lifted is None:
        return []
    V, constraints = lifted
    kernel = constraints.kernel(list(range(L)))
    vecs = []
    for kv in kernel:
        terms: dict = {}
        for m, comps in V.items():
            for fidx, form in comps.items():
                val = sum((cf * kv.get(ci, Q(0)) for ci, cf in form.items()), Q(0))
                if val:
                    terms[(m, fidx)] = val
        w = VermaElement(mod, d, terms)
        w = _normalize_singular(w)
        if impose_l1 and not is_singular(w):
            raise ArithmeticError(
                f"lifted vector fails the singular check: mu={mu}, lam={lam}, d={d}")
        vecs.append(w)
    return vecs


def _normalize_singular(w: VermaElement) -> VermaElement:
    lead = leading_term(w)
    if lead.is_zero():
        return w
    key = min(lead.terms, key=lambda k: (sum(k[0][0]), k[0]))
    return w.scaled(Q(1) / lead.terms[key])


# ---------------------------------------------------------------------------
# Morphisms

@dataclass
class MorphismData:
    """Degree-d element of (U_-)_d (x) Hom(F(lam), F(mu)) defining a linear
    map M(lam) -> M(mu); coeffs maps each PBW monomial to a column map
    {source index -> {target index -> Q}}."""

    degree: int
    lam: tuple
    mu: tuple
    source: object
    target: object
    coeffs: dict = field(default_factory=dict)
    tag: str = ""

    def is_zero(self) -> bool:
        return all(not col for cols in self.coeffs.values() for col in cols.values()) \
            if self.coeffs else True

    def column(self, n: int) -> VermaElement:
        """Phi(b_n) as an element of M(mu)."""
        terms = {}
        for m, cols in self.coeffs.items():
            for idx, c in cols.get(n, {}).items():
                terms[(m, idx)] = c
        return VermaElement(self.target, self.degree, terms)

    def hw_image(self) -> VermaElement:
        return self.column(self.source.hw_index)


_module_cache: dict = {}


def get_module(lam) -> TensorModule:
    lam = tuple(lam)
    mod = _module_cache.get(lam)
    if mod is None:
        mod = _module_cache[lam] = fmodules.build_irreducible(lam)
    return mod


def clear_caches() -> None:
    """Empty the process-wide caches: the L_0 and L_1 action tables on PBW
    monomials, the raising transition tables, the L_1 spanning set, the
    fully built modules of get_module, and uminus's omega basis and
    normal-ordering table.  Results do not depend on them."""
    _l0_mono.cache_clear()
    _odd_action.cache_clear()
    _transitions.cache_clear()
    l1_basis.cache_clear()
    _module_cache.clear()
    uminus.omega_basis.cache_clear()
    uminus._order_cache.clear()


def reexpress(w: VermaElement, module) -> VermaElement:
    """The same element of M(mu) in the coordinates of another realization of
    F(mu) (e.g. moving a search result onto the cached full module)."""
    if w.module is module:
        return w
    if tuple(w.module.highest_weight) != tuple(module.highest_weight):
        raise ValueError("module weight mismatch")
    by_mono: dict = {}
    for (m, idx), c in w.terms.items():
        amb = by_mono.setdefault(m, {})
        add_into(amb, w.module.vectors[idx], c)
    terms: dict = {}
    for m, amb in by_mono.items():
        if not amb:
            continue
        nu = fmodules.monomial_weight(next(iter(amb)))
        for idx, c in module.coords(nu, amb).items():
            terms[(m, idx)] = c
    return VermaElement(module, w.degree, terms)


def morphism_from_singular(w: VermaElement, lam, check: bool = True) -> MorphismData:
    """The morphism M(lam) -> M(mu) with Phi(hw) = w, extended equivariantly
    along the lowering provenance of the freshly built F(lam).

    With check=False the singular conditions are not enforced; any highest
    weight vector w then yields an L0-invariant Phi that is generally not a
    morphism (used to build negative controls)."""
    lam = tuple(lam)
    mod_mu = w.module
    if check and not is_singular(w, full_l1=False):
        raise ValueError("not singular")
    wt = w.weight()
    if wt != lam:
        raise ValueError(f"weight mismatch: vector has weight {wt}, not {lam}")
    src = get_module(lam)
    images: list = [None] * src.dim
    images[src.hw_index] = w
    for n in range(src.dim):
        if images[n] is not None:
            continue
        origin, trail, pc = src.prov[n]
        i, parent = origin
        img = act_l0(i + 1, i, images[parent])
        for k, c in trail:
            img = img.plus(images[k], -c)
        images[n] = img.scaled(Q(1) / pc)
    coeffs: dict = {}
    for n, img in enumerate(images):
        for (m, idx), c in img.terms.items():
            coeffs.setdefault(m, {}).setdefault(n, {})[idx] = c
    return MorphismData(w.degree, lam, mod_mu.highest_weight, src, mod_mu, coeffs)


def apply_morphism(phi: MorphismData, u: dict, vcoords: dict, *,
                   products: dict | None = None) -> VermaElement:
    """phi(u (x) v) = u Phi(v) for a UElement u and coordinates v in F(lam).
    products, when given, memoizes the products u * m (m a PBW monomial of
    phi) for calls with this same u."""
    if products is None:
        products = {}
    out: dict = {}
    for m, cols in phi.coeffs.items():
        fv: dict = {}
        for n, cn in vcoords.items():
            add_into(fv, cols.get(n, {}), cn)
        if not fv:
            continue
        prod = products.get(m)
        if prod is None:
            prod = products[m] = uminus.u_mul(u, {m: Q(1)})
        for m2, c2 in prod.items():
            for idx, cf in fv.items():
                add_into(out, {(m2, idx): c2 * cf})
    deg = phi.degree + (uminus.degree(next(iter(u))) if u else 0)
    return VermaElement(phi.target, deg, out)


def compose(phi2: MorphismData, phi1: MorphismData) -> MorphismData:
    """phi2 . phi1, of degree d1 + d2."""
    if phi1.mu != phi2.lam or phi1.target is not phi2.source:
        raise ValueError("weight mismatch in composition")
    coeffs: dict = {}
    products: dict = {}  # m -> {m2 -> m * m2}: the U products, shared by columns
    for n in range(phi1.source.dim):
        acc: dict = {}
        for m, cols in phi1.coeffs.items():
            col = cols.get(n)
            if col:
                img = apply_morphism(phi2, {m: Q(1)}, col,
                                     products=products.setdefault(m, {}))
                add_into(acc, img.terms)
        for (m, idx), c in acc.items():
            coeffs.setdefault(m, {}).setdefault(n, {})[idx] = c
    return MorphismData(phi1.degree + phi2.degree, phi1.lam, phi2.mu,
                        phi1.source, phi2.target, coeffs)


def theta_decomposition(phi: MorphismData) -> dict:
    """Coefficients of Phi on the del_T omega_I basis: rep -> column map.

    The basis is unitriangular by del count (uminus.omega_basis), so in its
    order theta_rep is what is left of Phi at the diagonal monomial of rep,
    and del_T omega_I (x) theta_rep is then peeled off the rest."""
    reps, cols = uminus.omega_basis(phi.degree)
    rest = {m: {n: dict(col) for n, col in cs.items()} for m, cs in phi.coeffs.items()}
    out: dict = {}
    for rep, col in zip(reps, cols):
        m0 = uminus.rep_monomial(rep)
        theta = {n: c for n, c in rest.pop(m0, {}).items() if c}
        if not theta:
            continue
        out[rep] = theta
        for mono, cf in col.items():
            if mono != m0:
                acc = rest.setdefault(mono, {})
                for n, c in theta.items():
                    add_into(acc.setdefault(n, {}), c, -cf)
    return out


def _expand_omega(degree: int, thetas: dict, factor) -> dict:
    """sum over rep = (T, I) of factor(rep) del_T omega_I (x) thetas[rep] as
    Phi coefficients, without empty columns or monomials."""
    colmap = dict(zip(*uminus.omega_basis(degree)))
    coeffs: dict = {}
    for rep, theta in thetas.items():
        f = factor(rep)
        for mono, cf in colmap[rep].items():
            for n, col in theta.items():
                add_into(coeffs.setdefault(mono, {}).setdefault(n, {}), col, f * cf)
    coeffs = {m: {n: col for n, col in cols.items() if col}
              for m, cols in coeffs.items()}
    return {m: cols for m, cols in coeffs.items() if cols}


def _onto_full_target(phi: MorphismData) -> MorphismData:
    """phi with its images re-expressed on get_module(mu) when its target is
    a lazily built TensorModule (whose dual cannot be formed); phi itself
    otherwise."""
    if not isinstance(phi.target, TensorModule) or phi.target._full:
        return phi
    full = get_module(phi.mu)
    coeffs: dict = {}
    for n in range(phi.source.dim):
        for (m, idx), c in reexpress(phi.column(n), full).terms.items():
            coeffs.setdefault(m, {}).setdefault(n, {})[idx] = c
    return MorphismData(phi.degree, phi.lam, phi.mu, phi.source, full, coeffs, phi.tag)


def dual_morphism(phi: MorphismData) -> MorphismData:
    """The dual map M(mu*) -> M(lam*): decompose as sum del_T omega_I (x)
    theta, transpose each theta into the abstract duals and weight the block
    with k = len(T) del factors by (-1)^k.  Proven for degree <= 3; higher
    degrees are built identically but tagged conjectural.  A target that is
    a search's lazily built module is first replaced by get_module(mu)."""
    phi = _onto_full_target(phi)
    thetas = theta_decomposition(phi)
    src = DualModule(phi.target)
    tgt = DualModule(phi.source)
    # transpose: theta* column at w-index q collects theta[n][q] at n
    tstars: dict = {}
    for rep, theta in thetas.items():
        tstar = tstars[rep] = {}
        for n, col in theta.items():
            for q, v in col.items():
                tstar.setdefault(q, {})[n] = v
    coeffs = _expand_omega(phi.degree, tstars, lambda rep: Q((-1) ** len(rep[0])))
    tag = "conjectural" if phi.degree >= 4 else ""
    return MorphismData(phi.degree, sl5.dual_weight(phi.mu),
                        sl5.dual_weight(phi.lam), src, tgt, coeffs, tag)


def _clear_denominators(table: dict) -> dict:
    """D * table in ints for a three-level table key -> column -> index ->
    scalar, D > 0 the lcm of the scalars' denominators."""
    D = math.lcm(*(c.denominator for cols in table.values()
                   for col in cols.values() for c in col.values()))
    return {key: {n: {i: c.numerator * (D // c.denominator) for i, c in col.items()}
                  for n, col in cols.items()}
            for key, cols in table.items()}


class _TransposedAction(dict):
    """k -> [(n, A[k, n])] with n ascending for A the action of x_r d/dx_s
    on a module: the columns n whose image has a k component.  A missing k
    transposes the action on the weight space those n lie in, once."""

    def __init__(self, module, r: int, s: int):
        self.module, self.r, self.s = module, r, s
        self.shift = gen_shift(r, s)
        self.done: set = set()

    def __missing__(self, k):
        mod = self.module
        nu = sl5.wsub(mod.weight_of(k), self.shift)
        if nu not in self.done:
            self.done.add(nu)
            ns = mod.ensure_weight(nu)
            entries = mod.act_entries(self.r, self.s, nu)
            for n in ns:
                for k2, c in entries[n].items():
                    self.setdefault(k2, []).append((n, c))
        return self.setdefault(k, [])


def _gen_on_theta(phi: MorphismData, r: int, s: int, coeffs: dict | None = None):
    """x_r d/dx_s . (D Phi) as a morphism-shaped coefficient dict in ints
    (zero iff Phi is invariant): sum [x, m] (x) theta_m + m (x) (A_W theta_m
    - theta_m A_V).  coeffs is D Phi, _clear_denominators(phi.coeffs),
    computed when not given."""
    if coeffs is None:
        coeffs = _clear_denominators(phi.coeffs)
    A_W = phi.target.action(r, s)
    A_V = _TransposedAction(phi.source, r, s)
    out: dict = {}
    for m, cols in coeffs.items():
        for m2, c2 in _l0_mono(r, s, m):
            tgt = out.setdefault(m2, {})
            for n, col in cols.items():
                add_into(tgt.setdefault(n, {}), col, c2)
        tgt = out.setdefault(m, {})
        for k, col in cols.items():
            A_W.apply(col, tgt.setdefault(k, {}))
            # (theta A_V) column n picks up A_V[k, n] theta_col[k]
            for n, c in A_V[k]:
                add_into(tgt.setdefault(n, {}), col, -c)
    return {m: {n: col for n, col in cols.items() if col}
            for m, cols in out.items() if any(cols.values())}


# The 20 generators x_r d/dx_s (r != s) in diagnostic order, and the 8
# Chevalley generators x_i d_{i+1}, x_{i+1} d_i in the same order.
_ORDER = tuple((r, s) for r in range(1, 6) for s in range(1, 6) if r != s)
_SIMPLE = tuple((r, s) for r, s in _ORDER if abs(r - s) == 1)


def _equivariance_failure(phi: MorphismData):
    """The first (r, s, monomial) at which x_r d/dx_s . Phi is not zero, over
    the 20 generators of L_0 in order, or None when Phi is invariant.

    x -> x . Phi is a representation of sl5, so the x that kill Phi form a
    subalgebra; the 8 Chevalley generators generate sl5, so Phi is invariant
    exactly when they kill it, and only they are applied to an invariant Phi.
    When one fails, the generators before it in _ORDER are scanned, reusing
    the images already computed, for the first failure of the 20."""
    coeffs = _clear_denominators(phi.coeffs)
    images = {}
    for g in _SIMPLE:
        images[g] = _gen_on_theta(phi, *g, coeffs)
        if images[g]:
            break
    else:
        return None
    for g in _ORDER:
        bad = images[g] if g in images else _gen_on_theta(phi, *g, coeffs)
        if bad:
            return (*g, next(iter(bad)))


def check_morphism(phi: MorphismData):
    """Morphism conditions: (a) L_0 . Phi = 0, decided on the 8 Chevalley
    generators, and (b) x5 d45 annihilates Phi(hw).  Returns (ok,
    diagnostics); a failure of (a) names the first failing generator of the
    20 x_r d/dx_s in order."""
    bad = _equivariance_failure(phi)
    if bad:
        r, s, mono = bad
        return False, f"L0 equivariance fails at x_{r}d{s}, monomial {uminus.format_monomial(mono)}"
    img = act_x5d45(phi.hw_image())
    if not img.is_zero():
        return False, "x5 d45 does not annihilate the highest weight image"
    return True, "ok"


# -- degree-specific equation checks ----------------------------------------
#
# The equations run in ints: the theta table is scaled by a positive integer
# (_theta_table) and the degree-2 and degree-3 equations are multiplied by 4,
# which clears their halves and quarters.  Every equation is linear and
# homogeneous in theta, so neither scaling changes which ones vanish.

def _theta_lookup(table: dict, T: tuple, I: tuple):
    """theta^T_I for arbitrary index tuples, extended by sign equivariance."""
    sign, rep = uminus.canonical_orbit_rep(I)
    if sign == 0:
        return None, 0
    theta = table.get((tuple(sorted(T)), rep))
    if theta is None:
        return None, 0
    return theta, sign


def _mat_add(acc: dict, theta, sign: int) -> None:
    if theta is None or not sign:
        return
    for n, col in theta.items():
        a = acc.setdefault(n, {})
        add_into(a, col, sign)


def _mat_apply(phi: MorphismData, r: int, s: int, theta) -> dict:
    A_W = phi.target.action(r, s)
    out: dict = {}
    for n, col in theta.items():
        img = A_W.apply(col, {})
        if img:
            out[n] = img
    return out


def _theta_shuffle(table, T: tuple, I: tuple, p: int, gamma: int):
    """(x_p d/d gamma . theta)^T_I via the index shuffles: raise T letters
    gamma -> p and lower I letters p -> gamma.  The caller scales the
    result, so its signs here stay +-1."""
    acc: dict = {}
    for h in range(len(T)):
        if T[h] == gamma:
            theta, sign = _theta_lookup(table, T[:h] + (p,) + T[h + 1:], I)
            _mat_add(acc, theta, sign)
    for l, (a, b) in enumerate(I):
        if a == p:
            theta, sign = _theta_lookup(table, T, I[:l] + ((gamma, b),) + I[l + 1:])
            _mat_add(acc, theta, -sign)
        if b == p:
            theta, sign = _theta_lookup(table, T, I[:l] + ((a, gamma),) + I[l + 1:])
            _mat_add(acc, theta, -sign)
    return acc


def _cyclic(a, b, c):
    return ((a, b, c), (b, c, a), (c, a, b))


def _perm_eps(p, q, a, b, c):
    """Sign of the permutation (p,q,a,b,c) of [5]."""
    return sl5.perm_sign([x - 1 for x in (p, q, a, b, c)])


def verify_degree_equations(phi: MorphismData):
    """Degree-specific scalar equations characterizing morphisms among
    L0-invariant Phi, evaluated on every basis vector of F(lam) at once.
    Returns (ok, diagnostics); the verdict agrees with check_morphism."""
    bad = _equivariance_failure(phi)
    if bad:
        r, s, _mono = bad
        return False, f"precheck: L0 equivariance fails at x_{r}d{s}"
    equations = {1: _equations_deg1, 2: _equations_deg2, 3: _equations_deg3}.get(phi.degree)
    if equations is None:
        return False, "unsupported degree"
    return equations(phi)


def _theta_table(phi: MorphismData) -> dict:
    """The theta blocks keyed (T, I), scaled to ints by a positive integer
    (see _clear_denominators)."""
    return _clear_denominators(theta_decomposition(phi))


def _equations_deg1(phi: MorphismData):
    table = _theta_table(phi)
    for p in range(1, 6):
        others = [x for x in range(1, 6) if x != p]
        for trip in itertools.permutations(others, 3):
            a, b, c = trip
            acc: dict = {}
            for al, be, ga in _cyclic(a, b, c):
                theta, sign = _theta_lookup(table, (), ((al, be),))
                if theta:
                    _mat_add(acc, _mat_apply(phi, p, ga, theta), sign)
            if any(col for col in acc.values()):
                return False, f"degree-1 equation fails at p={p}, (a,b,c)={trip}"
    return True, "ok"


def _equations_deg2(phi: MorphismData):
    """x_p d_Q Phi(v) expanded over the d_K basis: the coefficient of each
    canonical K must vanish; the theta^p term appears only on the K matching
    Q, weighted by the orientation sign of d_Q = sign * d_K.  Each equation
    is multiplied by 4."""
    table = _theta_table(phi)
    for p, q in itertools.permutations(range(1, 6), 2):
        a, b, c = [x for x in range(1, 6) if x not in (p, q)]
        eps = _perm_eps(p, q, a, b, c)
        qsign, qc = uminus.canon_pair((p, q))
        for K in uminus.PAIRS:
            acc: dict = {}
            if K == qc:
                theta, sign = _theta_lookup(table, (p,), ())
                _mat_add(acc, theta, -4 * qsign * sign)
            for al, be, ga in _cyclic(a, b, c):
                I = ((al, be), K)
                sh = _theta_shuffle(table, (), I, p, ga)
                _mat_add(acc, sh, -2 * eps)
                theta, sign = _theta_lookup(table, (), I)
                if theta:
                    _mat_add(acc, _mat_apply(phi, p, ga, theta), 4 * eps * sign)
            if any(col for col in acc.values()):
                return False, f"degree-2 equation fails at Q=({p},{q}), K={K}"
    return True, "ok"


def _equations_deg3(phi: MorphismData):
    """The degree-3 equations (3)-(6), each multiplied by 4."""
    table = _theta_table(phi)
    pairs1 = list(uminus.PAIRS)
    for p, q in itertools.permutations(range(1, 6), 2):
        rest = [x for x in range(1, 6) if x not in (p, q)]
        for ori in (tuple(rest), (rest[0], rest[2], rest[1])):
            a, b, c = ori
            eps = _perm_eps(p, q, a, b, c)
            # (5): sum_cyc x_p d gamma . theta^p_{alpha beta} = 0
            acc5: dict = {}
            # (6): eps * sum_cyc x_p d gamma . theta^q_{alpha beta} - 1/2 theta_{ab,bc,ca}
            acc6: dict = {}
            for al, be, ga in _cyclic(a, b, c):
                th, sg = _theta_lookup(table, (p,), ((al, be),))
                if th:
                    _mat_add(acc5, _mat_apply(phi, p, ga, th), 4 * sg)
                th, sg = _theta_lookup(table, (q,), ((al, be),))
                if th:
                    _mat_add(acc6, _mat_apply(phi, p, ga, th), 4 * eps * sg)
            th, sg = _theta_lookup(table, (), ((a, b), (b, c), (c, a)))
            _mat_add(acc6, th, -2 * sg)
            if any(col for col in acc5.values()):
                return False, f"degree-3 equation (5) fails at Q=({p},{q})"
            if any(col for col in acc6.values()):
                return False, f"degree-3 equation (6) fails at Q=({p},{q})"
            # (4): for each choice of the distinguished letter a
            for aa, bb, cc in _cyclic(a, b, c):
                acc4: dict = {}
                th, sg = _theta_lookup(table, (), ((aa, bb), (bb, cc), (cc, q)))
                _mat_add(acc4, th, sg)
                th, sg = _theta_lookup(table, (), ((aa, cc), (cc, bb), (bb, q)))
                _mat_add(acc4, th, sg)
                for al, be, ga in _cyclic(aa, bb, cc):
                    sh = _theta_shuffle(table, (aa,), ((al, be),), p, ga)
                    _mat_add(acc4, sh, -2 * eps)
                    th, sg = _theta_lookup(table, (aa,), ((al, be),))
                    if th:
                        _mat_add(acc4, _mat_apply(phi, p, ga, th), 4 * eps * sg)
                if any(col for col in acc4.values()):
                    return False, f"degree-3 equation (4) fails at Q=({p},{q}), a={aa}"
            # (3): coefficients of the omega_{H,L} basis, H < L canonical;
            # theta^p terms appear on the orbits containing the Q pair, with
            # the orientation and slot-swap signs of omega_{., Q}.
            if ori != tuple(rest):
                continue  # the (H, L) equations do not depend on orientation choice
            qsign, qc = uminus.canon_pair((p, q))
            for hi in range(len(pairs1)):
                for li in range(hi + 1, len(pairs1)):
                    H, Lp = pairs1[hi], pairs1[li]
                    acc3: dict = {}
                    if Lp == qc:
                        th, sg = _theta_lookup(table, (p,), (H,))
                        _mat_add(acc3, th, 4 * qsign * sg)
                    if H == qc:
                        th, sg = _theta_lookup(table, (p,), (Lp,))
                        _mat_add(acc3, th, -4 * qsign * sg)
                    for al, be, ga in _cyclic(a, b, c):
                        I = ((al, be), H, Lp)
                        sh = _theta_shuffle(table, (), I, p, ga)
                        _mat_add(acc3, sh, -2 * eps)
                        th, sg = _theta_lookup(table, (), I)
                        if th:
                            _mat_add(acc3, _mat_apply(phi, p, ga, th), 4 * eps * sg)
                    if any(col for col in acc3.values()):
                        return False, (f"degree-3 equation (3) fails at Q=({p},{q}), "
                                       f"H={H}, L={Lp}")
    return True, "ok"


# ---------------------------------------------------------------------------
# Classification sweeps, family labels, certificates

_D12 = (ZDEL, ((1, 2),))
_D15 = (ZDEL, ((1, 5),))
_D45 = (ZDEL, ((4, 5),))
_D12_15 = (ZDEL, ((1, 2), (1, 5)))
_D15_45 = (ZDEL, ((1, 5), (4, 5)))
_D12_45 = (ZDEL, ((1, 2), (4, 5)))
_D12_15_45 = (ZDEL, ((1, 2), (1, 5), (4, 5)))

# family -> (degree, mu pattern, lam - mu, leading monomials)
FAMILIES = {
    "nabla_A": (1, lambda mu: mu[2] == 0 and mu[3] == 0, (0, 1, 0, 0), {_D12}),
    "nabla_B": (1, lambda mu: mu[1] == 0 and mu[2] == 0 and mu[3] >= 1,
                (1, 0, 0, -1), {_D15}),
    "nabla_C": (1, lambda mu: mu[0] == 0 and mu[1] == 0 and mu[2] >= 1,
                (0, 0, -1, 0), {_D45}),
    "nabla_BA": (2, lambda mu: mu[1] == 0 and mu[2] == 0 and mu[3] == 1,
                 (1, 1, 0, -1), {_D12_15}),
    "nabla_CB": (2, lambda mu: mu[0] == 0 and mu[1] == 0 and mu[2] == 1 and mu[3] >= 1,
                 (1, 0, -1, -1), {_D15_45}),
    "nabla_CA": (2, lambda mu: mu == (0, 0, 1, 0), (0, 1, -1, 0), {_D12_45}),
    "nabla_CBA": (3, lambda mu: mu == (0, 0, 1, 1), (1, 1, -1, -1), {_D12_15_45}),
}


def label_family(mu, lam, d: int, vecs) -> str:
    """Family label for a singular-vector hit: "exploratory" above degree 3,
    where no family is catalogued, else the matching family of FAMILIES
    (pattern, weight shift, leading term, 1-dim line) or ANOMALY."""
    if d > 3:
        return "exploratory"
    if len(vecs) != 1:
        return "ANOMALY"
    lead = leading_term(vecs[0])
    lead_monos = {m for (m, _idx) in lead.terms}
    diff = sl5.wsub(lam, mu)
    for name, (fd, pat, shift, monos) in FAMILIES.items():
        if fd == d and pat(mu) and diff == shift and lead_monos == monos:
            return name
    return "ANOMALY"


@dataclass
class ClassifyRow:
    mu: tuple
    lam: tuple
    dimension: int
    family: str
    vectors: list


def classify_mu(mu, d: int) -> list[ClassifyRow]:
    """Every singular-vector hit of degree d in M(mu), labelled."""
    mu = tuple(mu)
    return [ClassifyRow(mu, lam, len(vecs), label_family(mu, lam, d, vecs), vecs)
            for lam, vecs in singular_vectors(mu, d)]


def classify(d: int, max_entry: int) -> list[ClassifyRow]:
    """Sweep all dominant mu with entries <= max_entry at degree d and label
    every singular-vector hit; unlabeled hits come back as ANOMALY rows.
    Degrees above 3 are searched but tagged exploratory (no family labels)."""
    return [row for mu in sl5.dominant_weights_in_box(max_entry)
            for row in classify_mu(mu, d)]


def verma_element_to_obj(w: VermaElement) -> list:
    items = sorted(w.terms.items(), key=lambda kv: (sum(kv[0][0][0]), kv[0][0], kv[0][1]))
    out = []
    bymono: dict = {}
    for (m, idx), c in items:
        bymono.setdefault(m, []).append((idx, c))
    for m in sorted(bymono, key=lambda m: (sum(m[0]), m)):
        out.append({
            "monomial": uminus.monomial_to_obj(m),
            "fcoeffs": [{"index": idx, "coeff": format_scalar(c)}
                        for idx, c in sorted(bymono[m])],
        })
    return out


def verma_element_from_obj(module, degree: int, obj) -> VermaElement:
    terms: dict = {}
    for entry in obj:
        m = uminus.monomial_from_obj(entry["monomial"])
        for fc in entry["fcoeffs"]:
            terms[(m, fc["index"])] = parse_scalar(fc["coeff"])
    return VermaElement(module, degree, terms)


def make_certificate(mu, lam, d: int, w: VermaElement, family: str) -> dict:
    """Certificate for one singular vector; all checks re-run on emission."""
    checks = {
        "l0_highest": all(act_l0(i, i + 1, w).is_zero() for i in range(1, 5)),
        "x5d45": act_x5d45(w).is_zero(),
        "full_l1": all(act_l1_combination(e, w).is_zero() for e in l1_basis()),
    }
    phi = morphism_from_singular(w, lam)
    checks["equations"] = verify_degree_equations(phi)[0] if d <= 3 else False
    return {
        "mu": list(mu),
        "lambda": list(lam),
        "degree": d,
        "vector": verma_element_to_obj(w),
        "leading_term": verma_element_to_obj(leading_term(w)),
        "checks": checks,
        "family": family,
    }


def _is_ints(x, n: int) -> bool:
    return isinstance(x, list) and len(x) == n and all(type(v) is int for v in x)


def _element_shape_error(obj) -> str | None:
    """Why obj is not in the form verma_element_to_obj writes, or None."""
    if not isinstance(obj, list):
        return "not a list"
    for e in obj:
        mono = e.get("monomial") if isinstance(e, dict) else None
        if not (isinstance(mono, dict) and _is_ints(mono.get("del"), 5)
                and isinstance(mono.get("pairs"), list)
                and all(_is_ints(p, 2) for p in mono["pairs"])
                and isinstance(e.get("fcoeffs"), list)
                and all(isinstance(fc, dict) and type(fc.get("index")) is int
                        and isinstance(fc.get("coeff"), str) for fc in e["fcoeffs"])):
            return f"bad entry {e!r}"
        for fc in e["fcoeffs"]:
            try:
                ok = parse_scalar(fc["coeff"]) != 0  # terms hold no zeros
            except (ValueError, ZeroDivisionError):
                ok = False
            if not ok:
                return f"bad coefficient {fc['coeff']!r}"
    return None


def _certificate_shape_error(cert) -> str | None:
    """Why cert is not in the form make_certificate writes, or None."""
    if not isinstance(cert, dict):
        return f"expected a JSON object, got {type(cert).__name__}"
    for key in ("mu", "lambda", "degree", "vector", "leading_term"):
        if key not in cert:
            return f"missing key {key!r}"
    for key in ("mu", "lambda"):
        if not _is_ints(cert[key], 4):
            return f"{key} must be a list of 4 integers, got {cert[key]!r}"
    if not sl5.is_dominant(tuple(cert["mu"])):
        return f"mu {cert['mu']!r} is not dominant"
    if not (type(cert["degree"]) is int and cert["degree"] >= 1):
        return f"degree must be an integer >= 1, got {cert['degree']!r}"
    if not cert["vector"]:
        return "vector is empty"
    for key in ("vector", "leading_term"):
        bad = _element_shape_error(cert[key])
        if bad:
            return f"{key}: {bad}"
    return None


def verify_certificate(cert: dict) -> tuple[bool, str]:
    """Re-run the search for the certified (mu, degree) and check the stored
    vector is reproduced exactly, with all checks passing."""
    bad = _certificate_shape_error(cert)
    if bad:
        return False, f"malformed certificate: {bad}"
    mu = tuple(cert["mu"])
    lam = tuple(cert["lambda"])
    d = cert["degree"]
    res = singular_vectors(mu, d)
    for got_lam, vecs in res:
        if got_lam != lam:
            continue
        mod = vecs[0].module
        w = verma_element_from_obj(mod, d, cert["vector"])
        if not any(v.terms == w.terms for v in vecs):
            span = RowReducer()
            for v in vecs:
                span.insert(dict(v.terms))
            if span.reduce(dict(w.terms)):
                return False, "stored vector is not in the computed solution space"
        if not is_singular(w):
            return False, "stored vector fails the singular conditions"
        lt = verma_element_from_obj(mod, d, cert["leading_term"])
        if leading_term(w).terms != lt.terms:
            return False, "stored leading term mismatch"
        fam = label_family(mu, lam, d, [w])
        if fam != cert.get("family"):
            return False, f"family label mismatch: {fam} != {cert.get('family')}"
        return True, "ok"
    return False, f"no singular vectors of weight {lam} found in M({mu}) at degree {d}"


# ---------------------------------------------------------------------------
# The catalogued degree-1 families and their compositions

def _formula_morphism(lam, mu, theta_fn) -> MorphismData:
    """Degree-1 morphism with Phi = sum_{i<j} d_ij (x) theta_ij where
    theta_fn(i, j, ambient monomial) returns an ambient image dict; the images
    must land inside the realization of F(mu) (coords raises otherwise)."""
    src = get_module(lam)
    tgt = get_module(mu)
    coeffs: dict = {}
    for n in range(src.dim):
        for (i, j) in uminus.PAIRS:
            amb: dict = {}
            for mono, c in src.vectors[n].items():
                add_into(amb, theta_fn(i, j, mono), c)
            if not amb:
                continue
            nu = fmodules.monomial_weight(next(iter(amb)))
            col = tgt.coords(nu, amb)
            mkey = (ZDEL, ((i, j),))
            coeffs.setdefault(mkey, {})[n] = col
    return MorphismData(1, tuple(lam), tuple(mu), src, tgt, coeffs)


def nabla_A(m: int, n: int) -> MorphismData:
    """M(m, n+1, 0, 0) -> M(m, n, 0, 0), associated to
    sum_{i<j} d_ij (x) d/dx_ij."""
    def theta(i, j, mono):
        k = _W0 + _PAIR_POS[(i, j)]
        e = mono[k]
        if not e:
            return {}
        out = list(mono)
        out[k] -= 1
        return {tuple(out): Q(e)}
    return _formula_morphism((m, n + 1, 0, 0), (m, n, 0, 0), theta)


def nabla_B(m: int, n: int) -> MorphismData:
    """M(m+1, 0, 0, n) -> M(m, 0, 0, n+1), associated to
    sum_{i<j} d_ij (x) (x*_i d_j - x*_j d_i)."""
    def theta(i, j, mono):
        out: dict = {}
        for star, dx in ((i, j), (j, i)):
            e = mono[_V0 + dx - 1]
            if e:
                nm = list(mono)
                nm[_V0 + dx - 1] -= 1
                nm[_VD0 + star - 1] += 1
                sign = 1 if star == i else -1
                add_into(out, {tuple(nm): Q(sign * e)})
        return out
    return _formula_morphism((m + 1, 0, 0, n), (m, 0, 0, n + 1), theta)


def nabla_C(m: int, n: int) -> MorphismData:
    """M(0, 0, m, n) -> M(0, 0, m+1, n), found by the search (the textbook
    formula lives in the quotient model of the dual, not this realization)."""
    mu = (0, 0, m + 1, n)
    mod = get_module(mu)
    res = singular_vectors(mu, 1, module=mod)
    for lam, vecs in res:
        if lam == (0, 0, m, n):
            return morphism_from_singular(vecs[0], lam)
    raise ArithmeticError(f"no nabla_C singular vector in M({mu})")


# The catalogued chains: name -> (the parameters it takes, the others must be
# 0; its builder (m, n) -> MorphismData).  family_instance and the CLI read it.
CHAINS = {
    "A": ("mn", nabla_A),
    "B": ("mn", nabla_B),
    "C": ("mn", nabla_C),
    "BA": ("m", lambda m, n: compose(nabla_B(m - 1, 0), nabla_A(m, 0))),
    "CB": ("n", lambda m, n: compose(nabla_C(0, n + 1), nabla_B(0, n))),
    "CA": ("", lambda m, n: compose(nabla_C(0, 0), nabla_A(0, 0))),
    "CBA": ("", lambda m, n: compose(nabla_C(0, 1), compose(nabla_B(0, 0), nabla_A(1, 0)))),
}


def family_instance(chain: str, m: int = 0, n: int = 0) -> MorphismData:
    """Catalogued morphisms and compositions by chain name (see CHAINS).

    A, B, C take the (m, n) of their defining family; BA is
    nabla_B . nabla_A : M(m,1,0,0) -> M(m-1,0,0,1) for m >= 1; CB is
    M(1,0,0,n) -> M(0,0,1,n+1); CA is M(0,1,0,0) -> M(0,0,1,0); CBA is
    M(1,1,0,0) -> M(0,0,1,1).  A nonzero parameter that the chain does not
    take raises ValueError.
    """
    if chain not in CHAINS:
        raise ValueError(f"unknown chain {chain!r}")
    params, build = CHAINS[chain]
    for name, value in (("m", m), ("n", n)):
        if value and name not in params:
            raise ValueError(f"chain {chain} does not take {name} (got {name}={value})")
    if chain == "BA" and m < 1:
        raise ValueError("BA needs m >= 1")
    return build(m, n)


def morphism_leading_term(phi: MorphismData) -> VermaElement:
    return leading_term(phi.hw_image())


# ---------------------------------------------------------------------------
# Negative controls: L0-equivariant data that fail the L1 condition

def perturbed_controls(phi: MorphismData, count: int, seed: int = 0):
    """Randomly perturbed copies of phi: one theta entry is changed, which
    breaks L0 equivariance (and hence both checks) almost surely."""
    import random
    rng = random.Random(seed)
    out = []
    monos = sorted(phi.coeffs, key=lambda m: (sum(m[0]), m))
    for k in range(count):
        m = monos[rng.randrange(len(monos))]
        n = rng.randrange(phi.source.dim)
        idx = rng.randrange(phi.target.dim)
        coeffs = {mm: {c: dict(col) for c, col in cols.items()}
                  for mm, cols in phi.coeffs.items()}
        col = coeffs[m].setdefault(n, {})
        col[idx] = col.get(idx, Q(0)) + Q(rng.randint(1, 7))
        out.append(MorphismData(phi.degree, phi.lam, phi.mu, phi.source,
                                phi.target, coeffs, tag=f"control-{k}"))
    return out


def hw_controls(mu, d: int, count: int):
    """L0-invariant Phi of degree d over M(mu) built from highest weight
    vectors that are not singular: they pass the equivariance precheck and
    fail the L_1 condition, so both checks must reject them."""
    mu = tuple(mu)
    mod = get_module(mu)
    out = []
    for lam in _candidates(mu, _weight_groups(d)):
        hw = highest_weight_vectors(mu, d, lam, module=mod)
        if not hw:
            continue
        sing = RowReducer()
        for _lam2, vecs in singular_vectors(mu, d, module=mod):
            if _lam2 == lam:
                for v in vecs:
                    sing.insert(dict(v.terms))
        for w in hw:
            if not sing.reduce(dict(w.terms)):
                continue  # inside the singular space
            out.append(morphism_from_singular(w, lam, check=False))
            if len(out) >= count:
                return out
    return out


def equivariant_controls(phi: MorphismData, count: int):
    """L0-equivariant non-morphisms built by rescaling isotypic blocks of the
    del_T omega_I decomposition; they pass the invariance precheck but break
    the L1 condition whenever more than one block is populated."""
    thetas = theta_decomposition(phi)
    ks = {len(rep[0]) for rep in thetas}
    if len(ks) < 2:
        return []
    out = []
    for j in range(count):
        scale = Q(2 + j)
        coeffs = _expand_omega(phi.degree, thetas,
                               lambda rep: scale if len(rep[0]) > 0 else Q(1))
        out.append(MorphismData(phi.degree, phi.lam, phi.mu, phi.source,
                                phi.target, coeffs, tag=f"scaled-{j}"))
    return out
