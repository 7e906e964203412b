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

The re-verification runs in ints: it acts on D w, D > 0 the lcm of the
denominators of w, and the conditions are linear and homogeneous in w, so
D w passes exactly when w does.  _singular_checks applies the conditions,
raisings, then x_5 d45, then L_1, lazily: is_singular stops at the first
that fails and a certificate records all three.  The order is kept because
acting reads action columns, which build weight spaces of a lazy module and
so fix its F-basis numbering.  The 40 elements of the L_1 spanning set are
int combinations of 50 generators x_p d_A, and each generator acts on D w
once (l1_images); x_5 d45 is one of them.  The actions act_l0 and act_odd
sum their terms into one dict in place with add_term.

Almost every candidate lam has no singular vector, so the lifting runs first
over F_p (p = SIEVE_PRIME = 2^30 - 35, plain ints) as a sieve.  fmodules
works over Q only, and every reduction of module data mod p is made here,
by _mod_p, next to the sieve: the raising columns (_raising_columns) and
the z-term coordinates (_zimage), each the rational data reduced mod p;
only the stacked raising solver is factored over F_p, by RowReducer(p).
No basis vector is reduced: the module's "bases" store records for each
weight space asked about whether its basis is p-integral (_integral_basis;
denominators are at most 2), and _fp_basis raises UnluckyPrime from it.
The rational raising columns come from the module's
lowering record (TensorModule.act_entries): F(mu) is built by lowering, so
[E_j, F_i] = delta_ij H_i gives them from the coordinates of the lowering
images, with no ambient vector acted on.  The PBW side is shared: both
passes read the one int table per degree of _degree_tables, and add_into
reduces a coefficient mod p as it scales by it.  Each candidate's levels
come from _level_plan(d, lam - mu), made once per degree and lam - mu and
shared by every mu: nu = lam - w lies at depth
sum(root_coefficients(w - (lam - mu))) below mu.  _lift lifts a candidate
over either field into a record (_Lifting).  Only survivors mod p and the
candidates p cannot decide, lifted again over Q, build the rational solver
and z-term images; the Q lifting alone produces and verifies the vectors.

The sieve is sound while every stacked raising system A has full column rank
mod p.  The left kernel of A mod p then has the dimension of the rational
one, so it is the reduction of the rational left kernel, and the F_p solve
combinations differ from the reduced rational ones only by left-kernel rows.
Such rows change the lifted components only by combinations of constraints
already imposed, so the span of the constraints is the reduction of the
rational span, and reduction mod p cannot raise a rank: a constraint rank mod
p that reaches the number L of leading monomials proves the candidate dead
over Q.  Where p cannot decide, UnluckyPrime sends the candidate to the Q
pass (the int PBW coefficients raise nothing): p divides a denominator in
the basis of a weight space whose raising columns are read, in one of their
coordinates, or in their target's basis once a column is not 0 mod p
(_raising_columns); or a stacked system's F_p rank falls short of the
dimension of its weight space.  With every column 0 mod p the target's
basis is not needed: the argument asks only that A mod p be the reduction of
a p-integral A.

The sieve builds the lazy module through the same ensure_weight calls as the
exact lifting, in the same order (each weight space, then its raising
targets), so the lazy F-basis, whose indices certificates record, is
numbered as without it, unless the constraint rank mod p falls short of the
rank over Q: then the sieve may lift deeper than Q would, build more weight
spaces and renumber the basis.  Results stay correct even then, but
certificates may change.  This is seen at p = 2; at p = 2^30 - 35 and
2^31 - 1, which meet no UnluckyPrime on the degree-2 box-2 and degree-4
box-1 sweeps, each of the 837 candidates the sieve kills there dies after
as many stacked solves as the exact lifting makes (a test pins them).

The L_1 condition x_5 d45 . w = 0 gives z-term rows at the depth of the
weight each term lands in: that of its monomial when the F part is not
acted on, and 5 - t levels below it under x_5 d/dx_t, which only lowers
(t <= 3).  The lifting records the terms (PBW monomial, PBW
coefficient) of each monomial that share an x_5 d_t op, with the op and the
monomial's lifted components, under that depth as they arise
(_degree_tables groups them by op, hence by depth, once), and expands a
depth's records into rows only when it flushes that depth (_flush_z), so a
candidate killed earlier never multiplies out the terms of the depths it
does not reach.  A row belongs to a PBW monomial m2 and a coordinate in
the weight space W its F part lands in: fidx for an untouched v_fidx, and
the coordinates of x_5 d_t . v_fidx from the lowering record
(TensorModule.lowering_coords) when W is usable, that is built and, over
F_p, with a p-integral basis; otherwise the image is expanded in ambient
tensor monomials, as every term once was.  All terms of m2 land in one W,
fixed by lam, and an untouched term means W was solved or is the top line,
so the rows of an m2 in a flush are all coordinates or all ambient.  The
basis of W is an injective change of coordinates, also mod p (unit pivots
on distinct least monomials), and the image of a p-integral v_fidx under
the int tensor action has p-integral coordinates in it.  So each flush
spans the rows of the ambient expansion: its rank, its verdict and the
final reduced echelon form and kernel are theirs.  Only coordinates are
cached, so no ambient image is read once its W is built.  Deferring
changes no sieve verdict, because nothing deferred can raise UnluckyPrime:
the PBW coefficients are ints, and every v_fidx read was found p-integral
when solver(nu) built the action mod p (at depth 0 it is the highest
weight vector, a monomial with coefficient 1).  Nor does it build a weight
space (lowering_coords reads only spaces between W and v_fidx), so the
lazy F-basis numbering is unchanged.

The morphism layer runs in ints.  It reads Phi only through D Phi
(_int_coeffs), D > 0 the lcm of the denominators of Phi's coefficients, and
the change of basis to del_T omega_I through uminus.omega_int_tables: s
times its inverse (the rows) and t times its columns.  The theta blocks are
the rows applied to D Phi, so S theta is integral for S = s D; a dual or an
equivariant control expands its S theta blocks on the t-scaled columns; a
composite is formed from D1 Phi1 and D2 Phi2.  Each output entry is then
divided once, by S, t S or D1 D2 (_divided, with exact_div), and so is an
int where integral.  Every partial sum is the rational one times a positive
integer, so it vanishes exactly when that does: add_into drops and revives
the same keys, and every coefficient dict keeps its values and its key
order at all three levels (monomial, source column, target index).  The
checks (check_morphism, verify_degree_equations) never divide: their
conditions are linear and homogeneous in Phi, so x . (D Phi) = D (x . Phi)
vanishes exactly when x . Phi does; they read the S-scaled theta blocks,
and each degree equation is multiplied by 2 (degree 1) or 4, so verdicts
and diagnostics are those of rational arithmetic.  Invariance is decided once
per Phi, and the first check keeps the verdict on the MorphismData for the
other.  It rests on a frame lemma: Phi is L_0-invariant exactly when (i)
every term of Phi(b_hw) has weight lam, (ii) the raisings x_i d_{i+1} (i =
1..4) kill Phi(b_hw), and (iii) Phi(F_i b_p) = F_i Phi(b_p), F_i = x_{i+1}
d_i, for the pairs (i, p) of a lowering frame of the source, whose images
span each weight space below the top.  (i) and (ii) give an L_0-map psi
with psi(b_hw) = Phi(b_hw), and (iii) makes Phi = psi by induction on
depth.  Every module finds its frame once by elimination over its lowering
columns (on a TensorModule that gives its provenance).  One operator,
_gen_on_theta, applies a generator to one column, x_r d/dx_s . Phi(b_n) -
Phi(x_r d/dx_s . b_n), given the source coordinates of x_r d/dx_s . b_n:
none for a raising at b_hw, the frame's at a frame pair, and the source's
action(r, s) when a Phi that fails the frame is scanned through all 20
x_r d/dx_s in order to name the first failing one.  The degree equations of
an invariant Phi are decided on the highest weight column v of F(lam):
there they hold every coefficient of x_5 d_45 Phi(v), n+ kills Phi(v), and
L_1 = U(n+) . x_5 d_45, so they make Phi a morphism, which satisfies them on
every column.  Only a Phi that fails at v is evaluated on all columns, to
name its first failing equation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache, partial

from . import fmodules, sl5, uminus
from .fmodules import TensorModule, glact_vector
from .linalg import (RowReducer, UnluckyPrime, add_into, add_term, exact_div, format_scalar,
                     parse_scalar, to_fp)

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

    def plus(self, other: "VermaElement", scale=1) -> "VermaElement":
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
    return tuple(uminus.l0_adjoint(r, s, {m: 1}).items())


def act_l0(r: int, s: int, w: VermaElement) -> VermaElement:
    """Action of x_r d/dx_s on a Verma element: adjoint on the U part plus
    the module action on the F part, summed into one dict in place with
    add_term."""
    mod = w.module
    cols = mod.action(r, s)
    out: dict = {}
    for (m, idx), c in w.terms.items():
        for m2, c2 in _l0_mono(r, s, m):
            add_term(out, (m2, idx), c * c2)
        for idx2, c2 in cols[idx].items():
            add_term(out, (m, idx2), c * c2)
    return VermaElement(mod, w.degree, out)


@lru_cache(maxsize=None)
def _odd_action(p: int, A: tuple, m: tuple):
    """Left action of the positive odd generator x_p d_A on the PBW monomial m,
    pushed through to the Verma tensor form.

    Returns a tuple of (monomial, int coeff, op) with op None for terms where
    the F part is untouched and op = (p, t) where the leftover x_p d/dx_t of
    L_0 still has to act on the F part.  Uses the brackets
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
            mono = (uminus.del_add(nd, d5w), psw)
            out.append((mono, -d5[p - 1] * cw, None))
    for j, Pj in enumerate(ps):
        sgn0 = -1 if j % 2 else 1
        se, t = uminus.eps_t(A[0], A[1], Pj[0], Pj[1])
        if not se:
            continue
        coeff = sgn0 * se
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
                    mono = (uminus.del_add(d5, d5w), psw)
                    out.append((mono, coeff * cw, None))
        out.append(((d5, rest), coeff, (p, t)))
    return tuple(out)


def act_odd(p: int, A: tuple, w: VermaElement) -> VermaElement:
    """Action of x_p d_A in L_1 on a Verma element (degree drops by 1),
    summed in place like act_l0."""
    mod = w.module
    out: dict = {}
    for (m, idx), c in w.terms.items():
        for m2, c2, op in _odd_action(p, A, m):
            cc = c * c2
            if op is None:
                add_term(out, (m2, idx), cc)
            else:
                for idx2, c3 in mod.action(*op)[idx].items():
                    add_term(out, (m2, idx2), cc * c3)
    return VermaElement(mod, w.degree - 1, out)


def act_x5d45(w: VermaElement) -> VermaElement:
    """Action of the lowest weight vector x_5 d45 of L_1."""
    return act_odd(5, (4, 5), w)


@lru_cache(maxsize=1)
def l1_basis() -> list[dict]:
    """A spanning set of L_1 as the closure of x_5 d45 under the raising
    operators, echelonized; 40 elements, each a dict (p, pair) -> int (the
    closure starts at 1 and the raisings move letters with signs +-1).
    Memoized and shared: callers only read it."""
    def raise_elem(i, elem):
        out: dict = {}
        for (p, (a, b)), c in elem.items():
            if p == i + 1:
                add_term(out, (i, (a, b)), c)
            for pos, letter in ((0, a), (1, b)):
                if letter != i + 1:
                    continue
                raw = (i, b) if pos == 0 else (a, i)
                sgn, cp = uminus.canon_pair(raw)
                if sgn:
                    add_term(out, (p, cp), sgn * c)
        return out

    basis: list[dict] = []
    red = RowReducer()
    queue = [{(5, (4, 5)): 1}]
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


def _int_multiple(w: VermaElement) -> VermaElement:
    """D w in ints, D > 0 the lcm of the denominators of w's coefficients."""
    D = math.lcm(*(c.denominator for c in w.terms.values()))
    return VermaElement(w.module, w.degree, {k: c.numerator * (D // c.denominator)
                                             for k, c in w.terms.items()})


def _singular_checks(w: VermaElement):
    """The singular conditions on w as (name, verdict) pairs, each computed
    only when asked for: "l0_highest" (the raisings x_i d_{i+1}, i = 1..4,
    kill w), "x5d45" and "full_l1" (every element of l1_basis() kills w, see
    l1_images), in this order, which fixes the weight spaces a lazy module
    builds.  Decided on D w in ints (_int_multiple): the conditions are
    linear and homogeneous in w, so with D > 0 they hold for D w exactly
    when they hold for w."""
    w = _int_multiple(w)
    yield "l0_highest", all(act_l0(i, i + 1, w).is_zero() for i in range(1, 5))
    low = act_x5d45(w)
    yield "x5d45", low.is_zero()
    yield "full_l1", not any(l1_images(w, low))


def is_singular(w: VermaElement) -> bool:
    """Whether the raisings, x_5 d45 and all of L_1 kill w; stops at the
    first check of _singular_checks that fails."""
    return all(ok for _name, ok in _singular_checks(w))


def l1_images(w: VermaElement, low: VermaElement):
    """The terms of e . w for the elements e of the spanning set l1_basis()
    in order, one at a time, given low = act_x5d45(w); not any(...) of them
    is the L_1 check, which stops at the first element that does not kill w.
    Each of the 50 generators x_p d_A the 40 elements use acts on w at most
    once (x_5 d45 through low), and e . w is the int combination of those
    images."""
    images = {(5, (4, 5)): low.terms}
    for elem in l1_basis():
        out: dict = {}
        for g, c in elem.items():
            img = images.get(g)
            if img is None:
                img = images[g] = act_odd(*g, w).terms
            add_into(out, img, c)
        yield out


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
        entries = _raising_columns(mod, i, nu, p)
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


def _raising_columns(mod: TensorModule, i: int, nu, p: int | None) -> dict:
    """mod.act_entries(i, i + 1, nu), or with a modulus p those rational
    columns reduced mod p, raising UnluckyPrime from _fp_basis(mod, nu, p)
    for a non-empty nu, then from the reduction of the columns, then from
    the target's _fp_basis once a column is not 0 mod p (see the module
    docstring)."""
    cols = mod.act_entries(i, i + 1, nu)
    if p is None:
        return cols
    if cols:
        _fp_basis(mod, nu, p)
    cols = {idx: _mod_p(col, p) for idx, col in cols.items()}
    if any(cols.values()):
        _fp_basis(mod, sl5.wadd(nu, sl5.SIMPLE_ROOTS[i - 1]), p)
    return cols


def _mod_p(vec: dict, p: int) -> dict:
    """A sparse rational vector reduced mod p, without the entries that
    vanish: the one reduction of module data mod p.  Raises UnluckyPrime
    where p divides a denominator."""
    return {k: v for k, c in vec.items() if (v := to_fp(c, p))}


def _integral_basis(mod: TensorModule, nu, p: int) -> bool:
    """Whether every basis vector of the built weight space nu is
    p-integral, decided once and kept in the module's "bases" store for p;
    raises nothing."""
    memo = mod.cache("bases", p)
    got = memo.get(nu)
    if got is None:
        got = memo[nu] = all(c.denominator % p for idx in mod.spaces[nu]
                             for c in mod.vectors[idx].values())
    return got


def _fp_basis(mod: TensorModule, nu, p: int) -> None:
    """Raise UnluckyPrime unless the basis of the built weight space nu is
    p-integral (_integral_basis)."""
    if not _integral_basis(mod, nu, p):
        raise UnluckyPrime(f"{p} divides a denominator in the basis of weight space {nu}")


def singular_vectors(mu, d: int, module: TensorModule | None = None):
    """All singular vectors of degree d in M(mu), grouped by weight.

    Returns a list of (lam, [VermaElement]) sorted by lam; each basis vector
    is exactly verified (L0 raisings, x5 d45, and a full L_1 spanning set)
    and normalized so the lexicographically least leading monomial has
    coefficient 1.  A given module is the F(mu) the search builds on; one
    of another highest weight raises ValueError.
    """
    if type(d) is not int or d < 1:
        raise ValueError(f"degree must be an integer >= 1, got {d!r}")
    mu = sl5.check_weight(mu)
    mod = module if module is not None else TensorModule(mu)
    if mod.highest_weight != mu:
        raise ValueError(f"the module has highest weight {mod.highest_weight}, not {mu}")
    tables = _degree_tables(d)
    out = []
    for lam in _candidates(mu, tables[0]):
        vecs = _lift_singular(mod, d, lam, tables)
        if vecs:
            out.append((lam, vecs))
    return out


@lru_cache(maxsize=8)
def _degree_tables(d: int) -> tuple:
    """The search's data on the degree-d PBW monomials, in ints, shared by
    the sieve and the exact pass of every search of degree d (callers only
    read it): (groups, trans, zrecords).

    groups maps each weight to its monomials in uminus.pbw_monomials order.
    trans[i][m2][m] is the coefficient of m2 in x_i d_{i+1} . m, the sources
    m of each m2 in groups order.  zrecords maps m to the terms of
    x_5 d45 . m (_odd_action(5, (4, 5), m)) grouped by op, as (op, drop,
    ((monomial, coefficient), ...)) with drop the number of levels the op
    moves the F part down: 0 when op is None, and 5 - t for op = (5, t),
    whose weight shift eps_5 - eps_t is minus the sum of the simple roots
    alpha_t .. alpha_4.  t <= 3, so the groups land at distinct depths and
    each depth receives the terms of a monomial in _odd_action order.  Built
    from the uncached actions, so the memos of act_l0 and act_odd keep only
    what those ask for."""
    groups: dict = {}
    for m in uminus.pbw_monomials(d):
        groups.setdefault(uminus.monomial_weight(m), []).append(m)
    trans: dict = {i: {} for i in range(1, 5)}
    zrecords = {}
    for ms in groups.values():
        for m in ms:
            for i in range(1, 5):
                for m2, c in uminus.l0_adjoint(i, i + 1, {m: 1}).items():
                    trans[i].setdefault(m2, {})[m] = c
            by_op: dict = {}
            for m2, c, op in _odd_action.__wrapped__(5, (4, 5), m):
                by_op.setdefault(op, []).append((m2, c))
            zrecords[m] = tuple((op, 0 if op is None else 5 - op[1], tuple(terms))
                                for op, terms in by_op.items())
    return groups, trans, zrecords


@lru_cache(maxsize=128)
def _level_plan(d: int, delta) -> dict:
    """The levels a degree-d search lifts a candidate lam through, for
    delta = lam - mu, shared by every mu: depth -> [(nu - mu, the sorted
    monomials of weight lam - nu)], sorted.  The weight nu = lam - w of a
    group w lies below mu at depth sum(root_coefficients(w - delta)) when
    those coefficients are integers >= 0, and outside the weights of F(mu)
    otherwise.  w -> lam - w is injective, so each nu has one group, and
    depth 0 holds only nu = mu.  Callers only read it.  A sweep meets few
    deltas (35 on the degree-2 box-2 sweep, 59 at degree 7 box 1), and a
    degree-11 plan holds about 12 kB, hence the bound."""
    plan: dict = {}
    for w, ms in _degree_tables(d)[0].items():
        ks = sl5.root_coefficients(sl5.wsub(w, delta))
        if ks is not None and min(ks) >= 0:
            plan.setdefault(sum(ks), []).append((sl5.wsub(delta, w), tuple(sorted(ms))))
    for entries in plan.values():
        entries.sort()
    return plan


def _candidates(mu, groups) -> list:
    """The dominant weights mu + wt(m), sorted: the lam a search tries."""
    return sorted(lam for w in groups if sl5.is_dominant(lam := sl5.wadd(mu, w)))


# The modulus of the search's F_p sieve: 2^30 - 35, the largest prime below
# 2^30, so every residue and every divisor of a % is a one-digit CPython int.
SIEVE_PRIME = 2**30 - 35


def _zimage(mod: TensorModule, op, fidx, *, p: int | None = None):
    """x_5 d_t . v_fidx for op = (5, t), over Q or, with a modulus p,
    reduced mod p: its coordinates in the target weight space
    (TensorModule.lowering_coords) when that space is usable, and its
    ambient image otherwise.  Usable means built over Q, and built with a
    p-integral basis (_integral_basis) over F_p.  Only coordinates are
    cached on the module per modulus, shared by every candidate lam of a
    search, so an ambient image is never served once its target is built
    (see the module docstring)."""
    key = (op, fidx)
    cache = mod.cache("zterm", p)
    img = cache.get(key)
    if img is not None:
        return img
    target = sl5.wadd(mod.weights[fidx], fmodules.gen_shift(*op))
    if target in mod.spaces and (p is None or _integral_basis(mod, target, p)):
        img = mod.lowering_coords(*op, fidx)
        img = cache[key] = img if p is None else _mod_p(img, p)
        return img
    img = glact_vector(*op, mod.vectors[fidx])
    return img if p is None else _mod_p(img, p)


def _flush_z(entries, zimage, constraints: RowReducer, L: int, p: int | None) -> bool:
    """Insert the z-term rows of one depth's records, entries = [(op,
    terms, comps)], into constraints; True as soon as their rank reaches L.
    A row is keyed (m2, k), k = fidx when op is None and each key of
    zimage(op, fidx) otherwise (the module docstring says why its rank is
    that of expanding every term in ambient monomials)."""
    rows: dict = {}    # (monomial, coordinate or ambient monomial) -> {ci -> scalar}
    for op, terms, comps in entries:
        if op is None:
            for m2, c2 in terms:
                for fidx, form in comps.items():
                    add_into(rows.setdefault((m2, fidx), {}), form, c2, p)
            continue
        for fidx, form in comps.items():
            img = zimage(op, fidx)
            for m2, c2 in terms:
                for k, ac in img.items():
                    add_into(rows.setdefault((m2, k), {}), form, c2 * ac, p)
    for row in rows.values():
        constraints.insert(row)
        if constraints.rank >= L:
            return True
    return False


@dataclass
class _Lifting:
    """A candidate's lifting (_lift): its components V, monomial -> {fidx ->
    {ci -> scalar}}, the constraints on the leading coefficients ci, the
    stacked solves made (a dead candidate's death count), and whether it died."""
    V: dict
    constraints: RowReducer
    solves: int
    dead: bool


def _combine(comb: dict, b: dict, p: int | None) -> dict:
    """One component or constraint of a monomial: sum of cf * b[rk] over comb."""
    form: dict = {}
    for rk, cf in comb.items():
        if bf := b.get(rk):
            add_into(form, bf, cf, p)
    return form


def _lift(mod: TensorModule, plan: dict, tables: tuple, p: int | None) -> _Lifting:
    """The lifting of the candidate with levels plan = _level_plan(d, lam -
    mu) over Q (p None) or F_p, from the int tables = _degree_tables(d).
    Each depth's z-terms of x_5 d45 become rows only when it is flushed (see
    the module docstring).  Dead at the first rank check that reaches the
    number L of leading monomials; over F_p it may raise UnluckyPrime."""
    _groups, trans, zrecords = tables
    mu = mod.highest_weight
    leading = plan[0][0][1]
    L, top = len(leading), max(plan)
    zimage = partial(_zimage, mod, p=p)
    constraints = RowReducer(p)
    V: dict = {}
    zterms: dict = {}      # depth -> [(op, terms, comps)]
    solves = 0
    one = Q(1) if p is None else 1
    hw = mod.ensure_weight(mu)[0]
    for ci, m in enumerate(leading):
        V[m] = {hw: {ci: one}}
        for op, drop, terms in zrecords[m]:
            zterms.setdefault(drop, []).append((op, terms, V[m]))
    # every rank check returns at once, so rank < L at each flush; the
    # z-terms of the deepest level land up to 4 levels below it
    depth = 0
    while not _flush_z(zterms.pop(depth, ()), zimage, constraints, L, p):
        depth += 1
        if depth > top and not zterms:
            return _Lifting(V, constraints, solves, False)
        for off, ms in plan.get(depth, ()):
            solve_combs, zero_combs = _stacked_solver(mod, sl5.wadd(mu, off), p=p)
            solves += 1
            for m in ms:
                # trans[i][m_target][m_source] = coeff; V holds only
                # monomials of levels, so other sources contribute nothing
                b: dict = {}
                for i in range(1, 5):
                    for u, tcoef in trans[i].get(m, {}).items():
                        for fidx, form in V.get(u, {}).items():
                            add_into(b.setdefault((i, fidx), {}), form, -tcoef, p)
                comps: dict = {}
                for col, comb in solve_combs.items():
                    if form := _combine(comb, b, p):
                        comps[col] = form
                for comb in zero_combs:
                    if form := _combine(comb, b, p):
                        constraints.insert(form)
                if comps:
                    V[m] = comps
                    for op, drop, terms in zrecords[m]:
                        zterms.setdefault(depth + drop, []).append((op, terms, comps))
                if constraints.rank >= L:
                    return _Lifting(V, constraints, solves, True)
    return _Lifting(V, constraints, solves, True)


def _lift_singular(mod, d, lam, tables):
    """Basis of the degree-d singular vectors of weight lam in M(mu) by
    leading-term lifting (_lift): mod SIEVE_PRIME first, as a sieve, and
    over Q unless that lifting dies, also when the prime cannot decide
    (UnluckyPrime; see the module docstring).  The vectors come from the
    kernel of the Q lifting's constraints, each re-verified by the full
    is_singular check."""
    mu = mod.highest_weight
    plan = _level_plan(d, sl5.wsub(lam, mu))
    if 0 not in plan:
        return []
    try:
        if _lift(mod, plan, tables, SIEVE_PRIME).dead:
            return []
    except UnluckyPrime:
        pass
    lifted = _lift(mod, plan, tables, None)
    if lifted.dead:
        return []
    vecs = []
    for kv in lifted.constraints.kernel(list(range(len(plan[0][0][1])))):
        terms: dict = {}
        for m, comps in lifted.V.items():
            for fidx, form in comps.items():
                val = sum((cf * kv.get(ci, Q(0)) for ci, cf in form.items()), Q(0))
                if val:
                    terms[(m, fidx)] = val
        w = VermaElement(mod, d, terms)
        w = _normalize_singular(w)
        if not is_singular(w):
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

_UNDECIDED = object()


@dataclass
class MorphismData:
    """Degree-d element of (U_-)_d (x) Hom(F(lam), F(mu)) defining a linear
    map M(lam) -> M(mu); coeffs maps each PBW monomial to a column map
    {source index -> {target index -> Q}}.  Source and target are fully
    built modules (get_module) or their duals, so morphisms compose and
    dualize as they come.  coeffs is fixed once built: the
    first check keeps Phi's L_0-invariance verdict in l0_failure for the
    next (see _equivariance_failure)."""

    degree: int
    lam: tuple
    mu: tuple
    source: object
    target: object
    coeffs: dict = field(default_factory=dict)
    tag: str = ""
    l0_failure: object = field(default=_UNDECIDED, init=False, repr=False, compare=False)

    def is_zero(self) -> bool:
        return all(not col for cols in self.coeffs.values() for col in cols.values())

    def column(self, n: int) -> VermaElement:
        """Phi(b_n) as an element of M(mu)."""
        terms = {}
        for m, cols in self.coeffs.items():
            for idx, c in cols.get(n, {}).items():
                terms[(m, idx)] = c
        return VermaElement(self.target, self.degree, terms)

    def hw_image(self) -> VermaElement:
        return self.column(self.source.hw_index)


def _coeffs(images) -> dict:
    """MorphismData.coeffs from the images Phi(b_n), each a terms dict
    (PBW monomial, target index) -> Q, in source index order n = 0, 1, ..."""
    coeffs: dict = {}
    for n, terms in enumerate(images):
        for (m, idx), c in terms.items():
            coeffs.setdefault(m, {}).setdefault(n, {})[idx] = c
    return coeffs


_module_cache: dict = {}


def get_module(lam) -> TensorModule:
    lam = sl5.check_weight(lam)
    mod = _module_cache.get(lam)
    if mod is None:
        mod = _module_cache[lam] = fmodules.build_irreducible(lam)
    return mod


def clear_caches() -> None:
    """Empty the process-wide caches: the L_0 and L_1 action tables on PBW
    monomials, the search's per-degree tables (_degree_tables) and level
    plans (_level_plan), the L_1 spanning set, the fully built modules of
    get_module, and uminus's omega basis, its integer tables
    (omega_int_tables) and normal-ordering table.  Results do not depend on
    them."""
    _l0_mono.cache_clear()
    _odd_action.cache_clear()
    _degree_tables.cache_clear()
    _level_plan.cache_clear()
    l1_basis.cache_clear()
    _module_cache.clear()
    uminus.omega_basis.cache_clear()
    uminus.omega_int_tables.cache_clear()
    uminus._order_cache.clear()


def reexpress(w: VermaElement, module) -> VermaElement:
    """The same element of M(mu) in the coordinates of another TensorModule
    of weight mu: the vector at position k of a weight space is the same in
    both (see TensorModule), so each index moves to its position in the
    other.  w itself when it already lies on module.  morphism_from_singular
    moves a search vector onto get_module(mu) with it; a weight space that
    module has not built raises ArithmeticError."""
    if w.module is module:
        return w
    if tuple(w.module.highest_weight) != tuple(module.highest_weight):
        raise ValueError("module weight mismatch")
    src = w.module
    terms: dict = {}
    for (m, idx), c in w.terms.items():
        nu = src.weights[idx]
        space = module.spaces.get(nu)
        if not space:
            raise ArithmeticError(f"weight space {nu} is not built in the target")
        terms[(m, space[idx - src.spaces[nu][0]])] = c
    return VermaElement(module, w.degree, terms)


def morphism_from_singular(w: VermaElement, lam, check: bool = True) -> MorphismData:
    """The morphism get_module(lam) -> get_module(mu) with Phi(hw) = w,
    extended equivariantly along the lowering provenance of F(lam).  w may
    lie on any TensorModule of weight mu, such as a search's lazy one: it is
    checked there, then moved onto get_module(mu) by reexpress, which leaves
    the module it came from as it was.

    With check=True (the default) w must pass is_singular.  With
    check=False the singular conditions are not enforced, for a w already
    verified or to build negative controls: any highest weight vector w
    then yields an L0-invariant Phi that is generally not a morphism."""
    lam = tuple(lam)
    if check and not is_singular(w):
        raise ValueError("not singular")
    wt = w.weight()
    if wt != lam:
        raise ValueError(f"weight mismatch: vector has weight {wt}, not {lam}")
    mod_mu = get_module(w.module.highest_weight)
    w = reexpress(w, mod_mu)
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
        images[n] = VermaElement(mod_mu, w.degree,
                                 {key: exact_div(c, pc) for key, c in img.terms.items()})
    return MorphismData(w.degree, lam, mod_mu.highest_weight, src, mod_mu,
                        _coeffs(img.terms for img in images))


def apply_morphism(phi: MorphismData, u: dict, vcoords: dict) -> VermaElement:
    """phi(u (x) v) = u Phi(v) for a UElement u and coordinates v in F(lam)."""
    deg = phi.degree + (uminus.degree(next(iter(u))) if u else 0)
    return VermaElement(phi.target, deg, _apply(phi.coeffs, u, vcoords, {}))


def _apply(coeffs: dict, u: dict, vcoords: dict, products: dict) -> dict:
    """The terms (monomial, target index) -> scalar of u Phi(v) for Phi's
    coefficient table coeffs (see apply_morphism); products memoizes the
    products u * m (m a monomial of coeffs) across calls with this same u."""
    out: dict = {}
    for m, cols in coeffs.items():
        fv: dict = {}
        for n, cn in vcoords.items():
            add_into(fv, cols.get(n, {}), cn)
        if not fv:
            continue
        prod = products.get(m)
        if prod is None:
            prod = products[m] = uminus.u_mul(u, {m: 1})
        for m2, c2 in prod.items():
            for idx, cf in fv.items():
                add_term(out, (m2, idx), c2 * cf)
    return out


def compose(phi2: MorphismData, phi1: MorphismData) -> MorphismData:
    """phi2 . phi1, of degree d1 + d2, computed on D1 Phi1 and D2 Phi2 in
    ints (_int_coeffs) and divided by D1 D2 once per entry."""
    if phi1.mu != phi2.lam or phi1.target is not phi2.source:
        raise ValueError("weight mismatch in composition")
    d1, table1 = _int_coeffs(phi1)
    d2, table2 = _int_coeffs(phi2)
    images: list = []
    products: dict = {}  # m -> {m2 -> m * m2}: the U products, shared by columns
    for n in range(phi1.source.dim):
        acc: dict = {}
        for m, cols in table1.items():
            col = cols.get(n)
            if col:
                add_into(acc, _apply(table2, {m: 1}, col, products.setdefault(m, {})))
        images.append(_divided(acc, d1 * d2))
    return MorphismData(phi1.degree + phi2.degree, phi1.lam, phi2.mu,
                        phi1.source, phi2.target, _coeffs(images))


def _int_coeffs(phi: MorphismData, column: int | None = None) -> tuple:
    """(D, D Phi's coefficient table in ints), D > 0 the lcm of the
    denominators of its scalars; with column given, that source column alone
    (monomials without it left out).  Keys keep Phi's order at every level.
    When every scalar is an int the table is Phi's own, so callers only read
    it.  The morphism layer reads Phi through this table and divides each
    output entry once (see the module docstring)."""
    coeffs = phi.coeffs
    if column is not None:
        coeffs = {m: {column: cols[column]} for m, cols in coeffs.items() if column in cols}
    dens = {c.denominator for cols in coeffs.values() for col in cols.values()
            for c in col.values() if type(c) is not int}
    if not dens:
        return 1, coeffs
    D = math.lcm(*dens)
    return D, {m: {n: {i: c.numerator * (D // c.denominator) for i, c in col.items()}
                   for n, col in cols.items()}
               for m, cols in coeffs.items()}


def _int_thetas(phi: MorphismData, column: int | None = None) -> tuple:
    """(S, S times Phi's theta blocks in ints), S = s D > 0: the blocks
    rep -> source column -> target index of theta_decomposition, each the
    sum over the inverse row of rep (uminus.omega_int_tables, scaled by s)
    of the columns of D Phi (_int_coeffs), without empty columns or blocks."""
    D, table = _int_coeffs(phi, column)
    s, rows, _t, _cols = uminus.omega_int_tables(phi.degree)
    out: dict = {}
    for rep, row in rows.items():
        theta: dict = {}
        for mono, cf in row:
            for n, col in table.get(mono, {}).items():
                add_into(theta.setdefault(n, {}), col, cf)
        theta = {n: col for n, col in theta.items() if col}
        if theta:
            out[rep] = theta
    return s * D, out


def theta_decomposition(phi: MorphismData, column: int | None = None) -> dict:
    """Coefficients of Phi on the del_T omega_I basis: rep -> column map,
    each theta_rep the inverse row of rep applied to Phi's coefficients
    (_int_thetas), reps in the order of uminus.omega_basis.  With column
    given only that column of every theta_rep is computed."""
    scale, thetas = _int_thetas(phi, column)
    return {rep: {n: _divided(col, scale) for n, col in theta.items()}
            for rep, theta in thetas.items()}


def _expand_omega(degree: int, thetas: dict, factor, scale: int) -> dict:
    """sum over rep = (T, I) of factor(rep) del_T omega_I (x) thetas[rep] /
    scale as Phi coefficients, for int blocks thetas and int factors: the
    sums run on the int columns t del_T omega_I (uminus.omega_int_tables)
    and each entry is divided by t scale once.  No empty columns or
    monomials are kept."""
    _s, _rows, t, cols = uminus.omega_int_tables(degree)
    coeffs: dict = {}
    for rep, theta in thetas.items():
        f = factor(rep)
        for mono, cf in cols[rep]:
            for n, col in theta.items():
                add_into(coeffs.setdefault(mono, {}).setdefault(n, {}), col, f * cf)
    coeffs = {m: {n: _divided(col, t * scale) for n, col in cols.items() if col}
              for m, cols in coeffs.items()}
    return {m: cols for m, cols in coeffs.items() if cols}


def _divided(vec: dict, scale: int) -> dict:
    """vec with every value divided by scale > 0 (exact_div), in place: the
    one division per output entry of the integer morphism layer."""
    if scale != 1:
        for k, c in vec.items():
            vec[k] = exact_div(c, scale)
    return vec


def dual_morphism(phi: MorphismData) -> MorphismData:
    """The dual map M(mu*) -> M(lam*): decompose as sum del_T omega_I (x)
    theta, transpose each theta into the modules' one dual() each (so duals
    of a chain compose) and weight the block with k = len(T) del factors by
    (-1)^k.  Proven for degree <= 3; higher degrees are built identically but
    tagged conjectural."""
    scale, thetas = _int_thetas(phi)
    src = phi.target.dual()
    tgt = phi.source.dual()
    # transpose: theta* column at w-index q collects theta[n][q] at n
    tstars: dict = {}
    for rep, theta in thetas.items():
        tstar = tstars[rep] = {}
        for n, col in theta.items():
            for q, v in col.items():
                tstar.setdefault(q, {})[n] = v
    coeffs = _expand_omega(phi.degree, tstars, lambda rep: (-1) ** len(rep[0]), scale)
    tag = "conjectural" if phi.degree >= 4 else ""
    return MorphismData(phi.degree, sl5.dual_weight(phi.mu),
                        sl5.dual_weight(phi.lam), src, tgt, coeffs, tag)


def _int_columns(phi: MorphismData) -> dict:
    """n -> D Phi(b_n) as terms (monomial, target index) -> int, D as in
    _int_coeffs."""
    columns: dict = {}
    for m, cols in _int_coeffs(phi)[1].items():
        for n, col in cols.items():
            terms = columns.setdefault(n, {})
            for idx, c in col.items():
                if c:
                    terms[m, idx] = c
    return columns


def _gen_on_theta(phi: MorphismData, columns: dict, r: int, s: int, n: int,
                  coords: dict) -> dict:
    """x_r d/dx_s . Phi(b_n) - Phi(x_r d/dx_s . b_n) on the integer columns
    of D Phi (columns, _int_columns(phi)), as terms (monomial, target index)
    -> scalar, given coords, the source coordinates of x_r d/dx_s . b_n.
    Phi is L_0-invariant exactly when this is empty for every r, s and n."""
    out = act_l0(r, s, VermaElement(phi.target, phi.degree, columns.get(n, {}))).terms
    for k, a in coords.items():
        add_into(out, columns.get(k, {}), -a)
    return out


# The 20 generators x_r d/dx_s (r != s) in diagnostic order.  Invariance is
# decided on a lowering frame of the source (the frame lemma): Phi from
# F(lam) is L_0-invariant exactly when (i) every term of Phi(b_hw) has weight
# lam, (ii) the raisings x_i d_{i+1} (i = 1..4) kill Phi(b_hw), and (iii)
# Phi(F_i b_p) = F_i Phi(b_p), F_i = x_{i+1} d_i, for each pair (i, p) of a
# lowering frame, lowerings whose images span each weight space below the
# top.  (i) and (ii) make Phi(b_hw) a highest weight vector of weight lam in
# the finite-dimensional sl5-module M(mu)_d, so there is an L_0-map psi with
# psi(b_hw) = Phi(b_hw); psi commutes with every F_i, so by (iii) Phi and psi
# agree on each frame image, hence by induction on depth on every b_n.
_ORDER = tuple((r, s) for r in range(1, 6) for s in range(1, 6) if r != s)


def _frame_holds(phi: MorphismData, columns: dict) -> bool:
    """Whether D Phi (columns, _int_columns(phi)) meets (i)-(iii) of the
    frame lemma (see _ORDER)."""
    hw = phi.source.hw_index
    if any(sl5.wadd(uminus.monomial_weight(m), phi.target.weight_of(idx)) != phi.lam
           for m, idx in columns.get(hw, {})):
        return False
    return not any(_gen_on_theta(phi, columns, i, i + 1, hw, {}) for i in range(1, 5)) \
        and not any(_gen_on_theta(phi, columns, i + 1, i, p, coords)
                    for (i, p), coords in phi.source.lowering_frame())


def _equivariance_failure(phi: MorphismData):
    """The first (r, s, monomial) at which x_r d/dx_s . Phi is not zero, over
    the 20 generators of L_0 in _ORDER, or None when Phi is invariant: the
    verdict kept in phi.l0_failure, decided on the first call.

    The frame lemma decides (_frame_holds).  A Phi that fails it is scanned
    over every column with the source's action, and the monomial named is
    the first failing one when Phi's monomials m are taken in turn, each
    after those of [x_r d/dx_s, m].  The scan raises ArithmeticError if no
    generator fails, which the lemma rules out."""
    if phi.l0_failure is _UNDECIDED:
        columns = _int_columns(phi)
        failure = None
        if not _frame_holds(phi, columns):
            src = phi.source
            for r, s in _ORDER:
                action = src.action(r, s)
                bad = {m for n in range(src.dim)
                       for m, _idx in _gen_on_theta(phi, columns, r, s, n, action[n])}
                if bad:
                    failure = (r, s, next(m2 for m in phi.coeffs
                                          for m2 in [*(t for t, _c in _l0_mono(r, s, m)), m]
                                          if m2 in bad))
                    break
            else:
                raise ArithmeticError("the lowering frame fails but the 20 generators of "
                                      "L_0 kill Phi")
        phi.l0_failure = failure
    return phi.l0_failure


def check_morphism(phi: MorphismData):
    """Morphism conditions: (a) L_0 . Phi = 0, decided on a lowering frame of
    the source, and (b) x5 d45 annihilates Phi(hw).  Returns (ok,
    diagnostics); a failure of (a) names the first failing generator of the
    20 x_r d/dx_s in order.  (a) never builds the source's dual.  The
    verdict is kept on phi, so verify_degree_equations does not redo it."""
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
# (_theta_table), the degree-1 equations are multiplied by 2 and the degree-2
# and degree-3 equations by 4, which clears their halves and quarters.  Every
# equation is linear and homogeneous in theta, so neither scaling changes
# which ones vanish.

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


def _x_theta(acc: dict, phi: MorphismData, table, T: tuple, I: tuple,
             p: int, gamma: int, k: int) -> None:
    """acc += k (2 A - S), the x_p d/d gamma term of theta^T_I as every
    equation here weighs it: A the target's action on theta^T_I, S its index
    shuffles (_theta_shuffle), empty where no letter of T or I is gamma or
    p."""
    _mat_add(acc, _theta_shuffle(table, T, I, p, gamma), -k)
    theta, sign = _theta_lookup(table, T, I)
    if theta:
        _mat_add(acc, _mat_apply(phi, p, gamma, theta), 2 * k * sign)


def _cyclic(a, b, c):
    return ((a, b, c), (b, c, a), (c, a, b))


def _perm_eps(p, q, a, b, c):
    """Sign of the permutation (p,q,a,b,c) of [5]."""
    return sl5.perm_sign([x - 1 for x in (p, q, a, b, c)])


def verify_degree_equations(phi: MorphismData):
    """Degree-specific scalar equations characterizing morphisms among
    L0-invariant Phi.  Returns (ok, diagnostics); the verdict agrees with
    check_morphism.

    Once Phi is invariant the equations are decided on the highest weight
    column v = b_hw of F(lam) alone.  Invariance makes Phi(v) killed by n+.
    The equations at one column are the coefficients of x_p d_{pq} Phi(v)
    for every ordered pair (p, q), so at v they include every coefficient of
    x_5 d_45 Phi(v); as L_1 = U(n+) . x_5 d_45, then L_1 Phi(v) = 0 and Phi
    is a morphism (the lemma behind check_morphism's (b)).  A morphism
    satisfies the equations on every column, so a failure at v is a failure
    on all of them: only then are all columns evaluated, which names the
    first failing equation over all of F(lam)."""
    bad = _equivariance_failure(phi)
    if bad:
        r, s, _mono = bad
        return False, f"precheck: L0 equivariance fails at x_{r}d{s}"
    equations = {1: _equations_deg1, 2: _equations_deg2, 3: _equations_deg3}.get(phi.degree)
    if equations is None:
        return False, "unsupported degree"
    if equations(phi, _theta_table(phi, phi.source.hw_index))[0]:
        return True, "ok"
    return equations(phi, _theta_table(phi))


def _theta_table(phi: MorphismData, column: int | None = None) -> dict:
    """The theta blocks keyed (T, I), at one source column when given,
    scaled to ints by a positive integer (see _int_thetas)."""
    return _int_thetas(phi, column)[1]


def _equations_deg1(phi: MorphismData, table: dict):
    for p in range(1, 6):
        others = [x for x in range(1, 6) if x != p]
        for trip in itertools.permutations(others, 3):
            a, b, c = trip
            acc: dict = {}
            for al, be, ga in _cyclic(a, b, c):
                _x_theta(acc, phi, table, (), ((al, be),), p, ga, 1)
            if any(col for col in acc.values()):
                return False, f"degree-1 equation fails at p={p}, (a,b,c)={trip}"
    return True, "ok"


def _equations_deg2(phi: MorphismData, table: dict):
    """x_p d_Q Phi(v) expanded over the d_K basis: the coefficient of each
    canonical K must vanish; the theta^p term appears only on the K matching
    Q, weighted by the orientation sign of d_Q = sign * d_K.  Each equation
    is multiplied by 4."""
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
                _x_theta(acc, phi, table, (), ((al, be), K), p, ga, 2 * eps)
            if any(col for col in acc.values()):
                return False, f"degree-2 equation fails at Q=({p},{q}), K={K}"
    return True, "ok"


def _equations_deg3(phi: MorphismData, table: dict):
    """The degree-3 equations (3)-(6), each multiplied by 4, at each Q =
    (p, q) on one orientation (a, b, c) of the other letters.  (a, c, b)
    adds nothing: its cyclic terms reverse each pair of I, under which
    _x_theta is odd, and flip eps, so its (5) is minus this one; in its (6)
    the flips cancel and theta_{ac,cb,ba} = theta_{ab,bc,ca} (three reversed
    pairs, one odd reordering); its (4) at a letter is this (4) there with
    the other two letters swapped, whose theta terms trade places; and (3)
    does not depend on the orientation."""
    pairs1 = list(uminus.PAIRS)
    for p, q in itertools.permutations(range(1, 6), 2):
        a, b, c = [x for x in range(1, 6) if x not in (p, q)]
        eps = _perm_eps(p, q, a, b, c)
        # (5): sum_cyc x_p d gamma . theta^p_{alpha beta} = 0
        acc5: dict = {}
        # (6): eps * sum_cyc x_p d gamma . theta^q_{alpha beta} - 1/2 theta_{ab,bc,ca}
        acc6: dict = {}
        for al, be, ga in _cyclic(a, b, c):
            _x_theta(acc5, phi, table, (p,), ((al, be),), p, ga, 2)
            _x_theta(acc6, phi, table, (q,), ((al, be),), p, ga, 2 * eps)
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
                _x_theta(acc4, phi, table, (aa,), ((al, be),), p, ga, 2 * eps)
            if any(col for col in acc4.values()):
                return False, f"degree-3 equation (4) fails at Q=({p},{q}), a={aa}"
        # (3): coefficients of the omega_{H,L} basis, H < L canonical;
        # theta^p terms appear on the orbits containing the Q pair, with
        # the orientation and slot-swap signs of omega_{., Q}.
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
                    _x_theta(acc3, phi, table, (), ((al, be), H, Lp), p, ga, 2 * eps)
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


def _certificate_checks(lam, d: int, w: VermaElement) -> dict:
    """The checks a certificate records for its vector w, each run once: the
    three of _singular_checks and the degree equations of the morphism w
    defines.  That morphism is built only once the first three hold, with
    check=False, as check=True would run them again; "equations" is False
    when they do not hold and above degree 3, which has none."""
    checks = dict(_singular_checks(w))
    checks["equations"] = all(checks.values()) and d <= 3 and \
        verify_degree_equations(morphism_from_singular(w, lam, check=False))[0]
    return checks


def make_certificate(mu, lam, d: int, w: VermaElement, family: str) -> dict:
    """Certificate for one singular vector; all checks re-run on emission."""
    return {
        "mu": list(mu),
        "lambda": list(lam),
        "degree": d,
        "vector": verma_element_to_obj(w),
        "leading_term": verma_element_to_obj(leading_term(w)),
        "checks": _certificate_checks(lam, d, w),
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
    for key in ("mu", "lambda", "degree", "vector", "leading_term", "checks"):
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
    checks = cert["checks"]
    if not (isinstance(checks, dict)
            and set(checks) == {"l0_highest", "x5d45", "full_l1", "equations"}
            and all(type(v) is bool for v in checks.values())):
        return f"checks must be the four booleans make_certificate writes, got {checks!r}"
    return None


def verify_certificate(cert: dict) -> tuple[bool, str]:
    """Re-run the search for the certified (mu, degree) and check the stored
    vector is reproduced exactly, with all checks passing and the stored
    checks equal to the re-run ones.  A well-formed mu that no module can
    hold (an entry of 2^16 or more) raises ValueError, as TensorModule does."""
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
        checks = _certificate_checks(lam, d, w)
        if not (checks["l0_highest"] and checks["x5d45"] and checks["full_l1"]):
            return False, "stored vector fails the singular conditions"
        lt = verma_element_from_obj(mod, d, cert["leading_term"])
        if leading_term(w).terms != lt.terms:
            return False, "stored leading term mismatch"
        fam = label_family(mu, lam, d, [w])
        if fam != cert.get("family"):
            return False, f"family label mismatch: {fam} != {cert.get('family')}"
        if cert["checks"] != checks:
            return False, "stored checks do not match the re-run checks"
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
        got = fmodules.derivative(mono, ("x", (i, j)))
        return {} if got is None else {got[0]: got[1]}
    return _formula_morphism((m, n + 1, 0, 0), (m, n, 0, 0), theta)


def nabla_B(m: int, n: int) -> MorphismData:
    """M(m+1, 0, 0, n) -> M(m, 0, 0, n+1), associated to
    sum_{i<j} d_ij (x) (x*_i d_j - x*_j d_i)."""
    def theta(i, j, mono):
        out: dict = {}
        for star, dx in ((i, j), (j, i)):
            got = fmodules.derivative(mono, ("x", dx), ("x*", star))
            if got:
                nm, e = got
                add_term(out, nm, e if star == i else -e)
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
            # the search has just verified the vector in full
            return morphism_from_singular(vecs[0], lam, check=False)
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


def equivariant_controls(phi: MorphismData, count: int):
    """L0-equivariant non-morphisms built by rescaling isotypic blocks of the
    del_T omega_I decomposition; they pass the invariance precheck but break
    the L1 condition whenever more than one block is populated.  The blocks
    are scaled to ints once (_int_thetas) and each control divides once."""
    if count < 1:
        return []
    scale, thetas = _int_thetas(phi)
    ks = {len(rep[0]) for rep in thetas}
    if len(ks) < 2:
        return []
    out = []
    for j in range(count):
        coeffs = _expand_omega(phi.degree, thetas,
                               lambda rep: 2 + j if len(rep[0]) > 0 else 1, scale)
        out.append(MorphismData(phi.degree, phi.lam, phi.mu, phi.source,
                                phi.target, coeffs, tag=f"scaled-{j}"))
    return out
