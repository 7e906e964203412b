"""Concrete irreducible sl5-modules F(a,b,c,d).

F(a,b,c,d) is realized as the submodule of

    Sym^a(C^5) (x) Sym^b(L2 C^5) (x) Sym^c(L2 C^5 *) (x) Sym^d(C^5 *)

generated by the highest weight monomial x_1^a x_12^b (x*_45)^c (x*_5)^d,
closed under the lowering operators x_{i+1} d/dx_i and echelonized inside each
weight space with pivots on the lexicographically least monomial.

A tensor monomial is a flat 30-tuple of exponents laid out as
[x_1..x_5 | x_ij | x*_ij | x*_1..x*_5] with pairs in lexicographic order.
Weight spaces are built lazily; a full build checks the Weyl dimension.
"""

from __future__ import annotations

import weakref

from . import sl5
from .linalg import UnluckyPrime, add_into, as_int, exact_div, to_fp
from .uminus import PAIRS

N_GEN = 30
_PAIR_POS = {p: k for k, p in enumerate(PAIRS)}

# slot ranges in the flat exponent tuple
_V0, _W0, _WD0, _VD0 = 0, 5, 15, 25


def hw_monomial(lam) -> tuple:
    a, b, c, d = lam
    e = [0] * N_GEN
    e[_V0 + 0] = a
    e[_W0 + _PAIR_POS[(1, 2)]] = b
    e[_WD0 + _PAIR_POS[(4, 5)]] = c
    e[_VD0 + 4] = d
    return tuple(e)


def monomial_gl_weight(m: tuple) -> tuple:
    """gl5 weight vector (c_1..c_5) of a tensor monomial."""
    c = [0] * 5
    for t in range(5):
        c[t] += m[_V0 + t] - m[_VD0 + t]
    for k, (i, j) in enumerate(PAIRS):
        c[i - 1] += m[_W0 + k] - m[_WD0 + k]
        c[j - 1] += m[_W0 + k] - m[_WD0 + k]
    return tuple(c)


def monomial_weight(m: tuple):
    return sl5.from_gl(monomial_gl_weight(m))


def _moves(r: int, s: int) -> tuple:
    """The (source slot, target slot, sign) moves of x_r d/dx_s: a monomial
    with exponent e at the source slot gives the term sign * e at itself
    with one unit moved to the target slot.  Rules: x_r ds . x_t = delta_ts
    x_r, x_r ds . x*_t = -delta_rt x*_s, extended as derivations to the
    wedge generators; source == target when r = s."""
    moves = [(_V0 + s - 1, _V0 + r - 1, 1), (_VD0 + r - 1, _VD0 + s - 1, -1)]

    def wedge(base, k, sign, pairs):
        for a, b in pairs:
            if a != b:
                moves.append((base + k, base + _PAIR_POS[min(a, b), max(a, b)],
                              sign if a < b else -sign))

    for k, (i, j) in enumerate(PAIRS):
        # x_r ds . x_ij = delta_is x_rj + delta_js x_ir (slot order kept)
        wedge(_W0, k, 1, [(r, j)] * (i == s) + [(i, r)] * (j == s))
        # x_r ds . x*_ij = -(delta_ri x*_sj + delta_rj x*_is)
        wedge(_WD0, k, -1, [(s, j)] * (i == r) + [(i, s)] * (j == r))
    return tuple(moves)


_MOVES = {(r, s): _moves(r, s) for r in range(1, 6) for s in range(1, 6)}


def glact_monomial(r: int, s: int, m: tuple) -> dict:
    """Derivation action of x_r d/dx_s on a tensor monomial (r = s allowed),
    read off the precomputed moves.  Coefficients are plain ints (exponents
    times signs); for r != s every move gives its own monomial, and for
    r = s every move gives m itself, so terms cancel only then."""
    if r == s:
        c = sum(sign * m[src] for src, _dst, sign in _MOVES[r, s])
        return {m: c} if c else {}
    out = {}
    for src, dst, sign in _MOVES[r, s]:
        e = m[src]
        if e:
            t = list(m)
            t[src] -= 1
            t[dst] += 1
            out[tuple(t)] = sign * e
    return out


def glact_vector(r: int, s: int, vec: dict, *, p: int | None = None) -> dict:
    """x_r d/dx_s on a sparse ambient vector; each term is coefficient times
    an int, so Fraction coefficients in give Fraction coefficients out.  With
    a modulus p the vector and its image are over F_p."""
    out: dict = {}
    for m, c in vec.items():
        add_into(out, glact_monomial(r, s, m), c, p)
    return out


# fundamental-coordinate shift of the weight under x_r d/dx_s
def gen_shift(r: int, s: int):
    c = [0] * 5
    c[r - 1] += 1
    c[s - 1] -= 1
    return sl5.from_gl(c)


class ActionColumns(dict):
    """idx -> the image column of x_r d/dx_s at basis index idx of a module,
    as module.act_entries stores it.  A missing index is filled with its
    whole weight space from module.act_entries, so a lazily built module (a
    search's module, whose F-basis numbering certificates record) gains the
    same weight spaces, in the same order, as under one act_entries call per
    index.  The module keeps its views, so a view refers to its module weakly
    and a module is freed when its last reference goes."""

    def __init__(self, module, r: int, s: int):
        self.module, self.r, self.s = weakref.ref(module), r, s

    def __reduce__(self):
        # pickled empty, since a weak reference cannot be pickled; it refills
        return ActionColumns, (self.module(), self.r, self.s)

    def __missing__(self, idx):
        mod = self.module()
        self.update(mod.act_entries(self.r, self.s, mod.weight_of(idx)))
        return self[idx]

    def apply(self, coords: dict, out: dict) -> dict:
        """out += x_r d/dx_s applied to a coordinate vector; returns out."""
        for idx, c in coords.items():
            add_into(out, self[idx], c)
        return out


class _ActingModule:
    """The sl5 action shared by TensorModule and DualModule, and the one
    store of data derived from the basis.  self._derived maps (name, p) ->
    dict, p None over Q and a prime over F_p; cache(name, p) is the only way
    in.  The store is rebuilt on demand and not pickled."""

    def cache(self, name: str, p: int | None = None) -> dict:
        """The derived cache `name` over Q, or its F_p counterpart."""
        got = self._derived.get((name, p))
        if got is None:
            got = self._derived[name, p] = {}
        return got

    # Read-only aliases, only for the cache probes of perfbench/tracer.py,
    # which reads them by name; they go when the benchmark probes through
    # cache() (ROADMAP.md, item 1).
    _act_cache = property(lambda self: self.cache("act"))
    _stack_cache = property(lambda self: self.cache("stack"))

    def __getstate__(self):
        """Pickle the module without its derived caches."""
        return {k: v for k, v in self.__dict__.items() if k != "_derived"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._derived = {}

    def action(self, r: int, s: int) -> ActionColumns:
        """The column view of x_r d/dx_s, made once per module."""
        views = self.cache("actions")
        got = views.get((r, s))
        if got is None:
            got = views[r, s] = ActionColumns(self, r, s)
        return got

    def apply_gen(self, r: int, s: int, coords: dict) -> dict:
        """x_r d/dx_s applied to a coordinate vector (indices may mix weights)."""
        return self.action(r, s).apply(coords, {})


class TensorModule(_ActingModule):
    """F(a,b,c,d) with lazily built weight spaces.

    Basis vectors are ambient sparse dicts, normalized so the pivot (least)
    monomial has coefficient 1 and reduced against earlier vectors of the same
    weight space.  Provenance of each vector (which lowering of which parent
    created it, with the reduction trail) supports equivariant extension of
    singular vectors to morphisms.  Every rational scalar stored (basis
    vectors, provenance, action columns) is an int where integral and a
    Fraction otherwise.
    """

    def __init__(self, lam):
        lam = tuple(lam)
        if not sl5.is_dominant(lam):
            raise ValueError(f"not dominant: {lam}")
        self.weight = lam
        self.vectors: list[dict] = []
        self.weights: list[tuple] = []
        self.prov: list = []
        self.spaces: dict[tuple, list[int]] = {}
        self.pivots: dict[tuple, dict] = {}
        self._full = False
        self._derived: dict = {}

    # Its derived caches, over Q and over F_p: "act" (r, s, weight) -> action
    # columns, "actions" (r, s) -> their ActionColumns view (Q only), "bases"
    # weight -> the basis reduced mod p (F_p only), and from the singular
    # search "stack" weight -> factored raising maps, "zterm" (x_5 d_t op,
    # index) -> ambient image and "depth" weight -> depth below the top (Q only).

    # -- construction -----------------------------------------------------

    def ensure_weight(self, nu) -> list[int]:
        nu = tuple(nu)
        got = self.spaces.get(nu)
        if got is not None:
            return got
        if nu == self.weight:
            self.spaces[nu] = []
            self.pivots[nu] = {}
            self._insert(nu, {hw_monomial(self.weight): 1}, None)
            return self.spaces[nu]
        if sl5.dominated_depth(nu, self.weight) is None:
            self.spaces[nu] = []
            return self.spaces[nu]
        parents = []
        for i in range(1, 5):
            up = sl5.wadd(nu, sl5.SIMPLE_ROOTS[i - 1])
            for idx in self.ensure_weight(up):
                parents.append((i, idx))
        self.spaces.setdefault(nu, [])
        self.pivots.setdefault(nu, {})
        for i, idx in parents:
            img = glact_vector(i + 1, i, self.vectors[idx])
            if img:
                self._insert(nu, img, (i, idx))
        return self.spaces[nu]

    def vector(self, idx: int, *, p: int | None = None) -> dict:
        """Basis vector idx, or with a modulus p its image in F_p (see
        fp_basis)."""
        if p is None:
            return self.vectors[idx]
        return self.fp_basis(self.weights[idx], p)[idx]

    def fp_basis(self, nu, p: int) -> dict:
        """The basis of the built weight space nu reduced mod p, index ->
        vector, made once and cached.  Raises UnluckyPrime unless every
        vector is p-integral: only then are coordinates mod p the rational
        ones reduced."""
        bases = self.cache("bases", p)
        got = bases.get(nu)
        if got is None:
            got = bases[nu] = {idx: {k: v for k, c in self.vectors[idx].items()
                                     if (v := to_fp(c, p))}
                               for idx in self.spaces[nu]}
        return got

    def _reduce(self, nu, vec, *, p: int | None = None):
        """Reduce an ambient vector by the basis of the weight space nu, least
        monomial first, until the least monomial is no basis vector's pivot.
        Returns (residual, trail), trail being the [(index, coefficient)]
        subtracted, each coefficient an int where integral; the residual is
        empty when vec lies in the space.  With a modulus p, vec and the basis
        are over F_p; pivots are 1 there too, so nothing is divided."""
        residual = dict(vec)
        trail = []
        piv = self.pivots.get(nu, {})
        basis = self.vectors if p is None else self.fp_basis(nu, p)
        while residual:
            mkey = min(residual)
            hit = piv.get(mkey)
            if hit is None:
                break
            c = as_int(residual[mkey])
            trail.append((hit, c))
            add_into(residual, basis[hit], -c, p)
        return residual, trail

    def _insert(self, nu, vec, origin):
        residual, trail = self._reduce(nu, vec)
        if not residual:
            return None
        mkey = min(residual)
        pc = as_int(residual[mkey])
        if pc == 1 or pc == -1:
            unit = {k: as_int(pc * v) for k, v in residual.items()}
        else:
            unit = {k: exact_div(v, pc) for k, v in residual.items()}
        n = len(self.vectors)
        self.vectors.append(unit)
        self.weights.append(nu)
        self.spaces[nu].append(n)
        self.pivots[nu][mkey] = n
        self.prov.append((origin, trail, pc))
        return n

    def coords(self, nu, vec, *, p: int | None = None) -> dict:
        """Coordinates of an ambient vector lying in the weight space nu (over
        F_p with a modulus p, where a residual raises UnluckyPrime)."""
        residual, trail = self._reduce(tuple(nu), vec, p=p)
        if residual:
            error = ArithmeticError if p is None else UnluckyPrime
            raise error(f"vector not inside weight space {nu}")
        return dict(trail)

    def build_full(self):
        if self._full:
            return self
        kmax = sl5.dominated_depth(sl5.lowest_weight(self.weight), self.weight)
        box = []
        for k1 in range(kmax[0] + 1):
            for k2 in range(kmax[1] + 1):
                for k3 in range(kmax[2] + 1):
                    for k4 in range(kmax[3] + 1):
                        delta = [0, 0, 0, 0]
                        for k, alpha in zip((k1, k2, k3, k4), sl5.SIMPLE_ROOTS):
                            for t in range(4):
                                delta[t] += k * alpha[t]
                        box.append((k1 + k2 + k3 + k4,
                                    sl5.wsub(self.weight, tuple(delta))))
        for _, nu in sorted(box):
            self.ensure_weight(nu)
        want = sl5.weyl_dimension(self.weight)
        if len(self.vectors) != want:
            raise ArithmeticError(
                f"dimension mismatch for F{self.weight}: {len(self.vectors)} != {want}")
        self._full = True
        return self

    # -- module interface --------------------------------------------------

    @property
    def dim(self) -> int:
        if not self._full:
            raise ValueError("module not fully built")
        return len(self.vectors)

    @property
    def highest_weight(self):
        return self.weight

    hw_index = 0

    def weight_of(self, idx: int):
        return self.weights[idx]

    def act_entries(self, r: int, s: int, nu, *, p: int | None = None) -> dict:
        """Column map idx -> {idx': scalar} of x_r d/dx_s on the weight space
        nu, or with a modulus p the same map over F_p, computed from the basis
        vectors mod p.  Both build the same weight spaces in the same order."""
        key = (r, s, tuple(nu))
        cache = self.cache("act", p)
        got = cache.get(key)
        if got is not None:
            return got
        target = sl5.wadd(nu, gen_shift(r, s))
        self.ensure_weight(target)
        cols = {}
        for idx in self.ensure_weight(nu):
            img = glact_vector(r, s, self.vector(idx, p=p), p=p)
            cols[idx] = self.coords(target, img, p=p) if img else {}
        cache[key] = cols
        return cols


class DualModule(_ActingModule):
    """Abstract dual of a fully built module: generators act by negated
    transpose; the reported highest weight is the dual weight."""

    def __init__(self, base):
        base_dim = base.dim  # requires full build
        self.base = base
        self.weight = sl5.dual_weight(base.highest_weight)
        low = sl5.lowest_weight(base.highest_weight)
        hw = [i for i in range(base_dim) if base.weight_of(i) == low]
        if len(hw) != 1:
            raise ArithmeticError(
                f"F{base.highest_weight} has {len(hw)} lowest weight vectors, not 1")
        self.hw_index = hw[0]
        # the base is fully built, so its weights are final
        self._weights = [tuple(-x for x in base.weight_of(i)) for i in range(base_dim)]
        self._derived: dict = {}

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def highest_weight(self):
        return self.weight

    def weight_of(self, idx: int):
        return self._weights[idx]

    def ensure_weight(self, nu) -> list[int]:
        return self.base.ensure_weight(tuple(-x for x in nu))

    def act_entries(self, r: int, s: int, nu) -> dict:
        """Column map of x_r d/dx_s on dual indices of dual weight nu:
        the negated transpose of the action on the base."""
        key = (r, s, tuple(nu))
        cache = self.cache("act")
        got = cache.get(key)
        if got is not None:
            return got
        base_nu = tuple(-x for x in nu)
        src = sl5.wsub(base_nu, gen_shift(r, s))
        cols = {idx: {} for idx in self.base.ensure_weight(base_nu)}
        src_entries = self.base.act_entries(r, s, src)
        for q in self.base.ensure_weight(src):
            for p, v in src_entries[q].items():
                cols[p][q] = -v
        cache[key] = cols
        return cols


def build_irreducible(lam) -> TensorModule:
    """Fully built F(lam); raises on a Weyl-dimension mismatch."""
    return TensorModule(lam).build_full()
