"""Concrete irreducible sl5-modules F(a,b,c,d).

F(a,b,c,d) is realized as the submodule of

    Sym^a(C^5) (x) Sym^b(L2 C^5) (x) Sym^c(L2 C^5 *) (x) Sym^d(C^5 *)

generated by the highest weight monomial x_1^a x_12^b (x*_45)^c (x*_5)^d,
closed under the lowering operators x_{i+1} d/dx_i and echelonized inside each
weight space with pivots on the lexicographically least monomial.

A tensor monomial is one int: its 30 exponents, laid out as
[x_1..x_5 | x_ij | x*_ij | x*_1..x*_5] with pairs in lexicographic order,
sit in 16-bit slots, slot 0 most significant, so the order of the ints is the
lexicographic order of the exponent tuples (pack and unpack convert).
Exponents of F(lam) never exceed max(lam), which TensorModule keeps below
2^16.  Weight spaces are built lazily; a full build checks the Weyl dimension.
Everything here is exact over Q and takes no modulus: the singular search's
F_p sieve reduces the module data it reads itself (verma).
"""

from __future__ import annotations

import struct
import weakref

from . import sl5
from .linalg import RowReducer, add_into, add_term, as_int, exact_div
from .uminus import PAIRS

N_GEN = 30
_PAIR_POS = {p: k for k, p in enumerate(PAIRS)}

# slot ranges in the exponent layout
_V0, _W0, _WD0, _VD0 = 0, 5, 15, 25

# the bit offset of each slot in a packed monomial, and the mask of one slot
SLOT_BITS = 16
_SHIFT = tuple(SLOT_BITS * (N_GEN - 1 - k) for k in range(N_GEN))
_MASK = (1 << SLOT_BITS) - 1
_SLOTS = struct.Struct(f">{N_GEN}H")


def pack(e) -> int:
    """The packed monomial of 30 exponents, each in range(2^16)."""
    return int.from_bytes(_SLOTS.pack(*e), "big")


def unpack(m: int) -> tuple:
    """The 30 exponents of a packed monomial."""
    return _SLOTS.unpack(m.to_bytes(_SLOTS.size, "big"))


# the bit offset of each variable's slot, by name: ("x", t) and ("x*", t) for
# x_t and x*_t (t in 1..5), ("x", (i, j)) and ("x*", (i, j)) for x_ij and x*_ij
_VAR_SHIFT = {(name, key): _SHIFT[base + k]
              for name, base, keys in (("x", _V0, range(1, 6)), ("x", _W0, PAIRS),
                                       ("x*", _WD0, PAIRS), ("x*", _VD0, range(1, 6)))
              for k, key in enumerate(keys)}


def derivative(m: int, var, times=None):
    """d/d var of the tensor monomial m, times the variable `times` when
    given (variables named as in _VAR_SHIFT): (monomial, the exponent of var
    in m), or None when var does not occur in m."""
    shift = _VAR_SHIFT[var]
    e = m >> shift & _MASK
    if not e:
        return None
    return m - (1 << shift) + (0 if times is None else 1 << _VAR_SHIFT[times]), e


def check_module_weight(lam) -> tuple:
    """lam as a weight tuple, or ValueError unless it is 4 ints, dominant, and
    has every entry below 2^16, so that no exponent of F(lam) overflows its
    slot: the weights TensorModule accepts."""
    lam = sl5.check_weight(lam)
    if not sl5.is_dominant(lam):
        raise ValueError(f"not dominant: {lam}")
    if max(lam) > _MASK:
        raise ValueError(f"weight entries must be below 2^{SLOT_BITS} = "
                         f"{_MASK + 1}, the limit of a tensor exponent: {lam}")
    return lam


def hw_monomial(lam) -> int:
    a, b, c, d = lam
    return (a << _SHIFT[_V0 + 0] | b << _SHIFT[_W0 + _PAIR_POS[(1, 2)]]
            | c << _SHIFT[_WD0 + _PAIR_POS[(4, 5)]] | d << _SHIFT[_VD0 + 4])


def monomial_gl_weight(m: int) -> tuple:
    """gl5 weight vector (c_1..c_5) of a tensor monomial."""
    e = unpack(m)
    c = [0] * 5
    for t in range(5):
        c[t] += e[_V0 + t] - e[_VD0 + t]
    for k, (i, j) in enumerate(PAIRS):
        c[i - 1] += e[_W0 + k] - e[_WD0 + k]
        c[j - 1] += e[_W0 + k] - e[_WD0 + k]
    return tuple(c)


def monomial_weight(m: int):
    return sl5.from_gl(monomial_gl_weight(m))


def _moves(r: int, s: int) -> tuple:
    """The (shift, delta, sign) moves of x_r d/dx_s: a monomial m with
    exponent e = m >> shift & _MASK at the source slot gives the term sign * e
    at m + delta, which moves one unit to the target slot.  Rules: x_r ds . x_t
    = delta_ts x_r, x_r ds . x*_t = -delta_rt x*_s, extended as derivations to
    the wedge generators; source == target (delta 0) when r = s."""
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
    return tuple((_SHIFT[src], (1 << _SHIFT[dst]) - (1 << _SHIFT[src]), sign)
                 for src, dst, sign in moves)


_MOVES = {(r, s): _moves(r, s) for r in range(1, 6) for s in range(1, 6)}


def glact_vector(r: int, s: int, vec: dict) -> dict:
    """x_r d/dx_s on a sparse ambient vector (r = s allowed: every move then
    gives m itself): each move whose source exponent e in a monomial m of
    coefficient c is not 0 adds c * sign * e at m + delta, summed in place
    with add_into's semantics and key order.  Int coefficients stay ints and
    Fractions give Fractions.  A move raises one exponent by 1, which stays
    below 2^16 inside F(lam)."""
    out: dict = {}
    for m, c in vec.items():
        if not c:
            continue
        for shift, delta, sign in _MOVES[r, s]:
            e = m >> shift & _MASK
            if e:
                k = m + delta
                v = out.get(k, 0) + c * (sign * e)
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
    return out


# gl5 weight of x_r d/dx_s: +1 at r, -1 at s (nothing when r = s)
_SHIFTS = {(r, s): sl5.from_gl([(t == r) - (t == s) for t in range(1, 6)])
           for r in range(1, 6) for s in range(1, 6)}


def gen_shift(r: int, s: int):
    """The fundamental-coordinate shift of the weight under x_r d/dx_s, read
    off the table of all 25 made at import."""
    return _SHIFTS[r, s]


class ActionColumns(dict):
    """idx -> the image column of x_r d/dx_s at basis index idx of a module,
    as module.act_entries stores it.  A missing index is filled with its
    whole weight space from module.act_entries, so a lazily built module (a
    search's module, whose F-basis numbering certificates record) gains the
    same weight spaces, in the same order, as under one act_entries call per
    index.  The module keeps its views (in its derived store, which is not
    pickled), so a view refers to its module weakly and a module is freed
    when its last reference goes."""

    def __init__(self, module, r: int, s: int):
        self.module, self.r, self.s = weakref.ref(module), r, s

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
    """The sl5 action over Q shared by TensorModule and DualModule, its
    lowering frame, and the one store of data derived from the basis.
    self._derived maps (name, variant) -> dict, variant None unless a caller
    keeps several versions of one cache (verma keeps its F_p data under the
    modulus); cache(name, variant) is the only way in.  The store is rebuilt
    on demand and not pickled."""

    def cache(self, name: str, variant=None) -> dict:
        """The derived cache `name`, or its version `variant`."""
        got = self._derived.get((name, variant))
        if got is None:
            got = self._derived[name, variant] = {}
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

    def lowering_frame(self) -> list:
        """The lowering frame of the fully built module, found once by greedy
        elimination and kept in the store as "frame": pairs ((i, p), coords),
        one per basis vector below the top, with coords the column {n: a_n}
        of x_{i+1} d/dx_i . b_p = sum a_n b_n.  The weight spaces below the
        top are taken in order of depth, then weight, and in each the columns
        for its parents p (i = 1..4, p in index order) that raise the rank,
        until they span the space.  On a TensorModule the pairs are the
        lowerings its vectors were made from (prov): building a weight space
        inserts the same lowerings in the same order, and keeps one exactly
        when it is independent of those before it."""
        frames = self.cache("frame")
        if None in frames:
            return frames[None]
        top = self.highest_weight
        spaces: dict = {}
        for n in range(self.dim):
            spaces.setdefault(self.weight_of(n), []).append(n)
        frame = []
        for _depth, nu in sorted((sum(sl5.dominated_depth(nu, top)), nu)
                                 for nu in spaces if nu != top):
            span = RowReducer()
            for i in range(1, 5):
                cols = self.action(i + 1, i)
                for p in spaces.get(sl5.wadd(nu, sl5.SIMPLE_ROOTS[i - 1]), ()):
                    if span.rank < len(spaces[nu]) and span.insert(cols[p]):
                        frame.append(((i, p), cols[p]))
            if span.rank < len(spaces[nu]):
                raise ArithmeticError(f"the lowerings into weight {nu} do not span it")
        frames[None] = frame
        return frame


class TensorModule(_ActingModule):
    """F(a,b,c,d) with lazily built weight spaces.

    Basis vectors are ambient sparse dicts, normalized so the pivot (least)
    monomial has coefficient 1 and reduced against earlier vectors of the same
    weight space.  Provenance of each vector (which lowering of which parent
    created it, with the reduction trail) supports equivariant extension of
    singular vectors to morphisms, and the lowering record (self.lower) gives
    the raising and lowering columns.  Every rational scalar stored (basis
    vectors, provenance, the record, action columns) is an int where
    integral and a Fraction otherwise.

    ensure_weight(nu) builds nu from its parents' spaces alone, in a fixed
    order, and builds nothing else between its first and its last vector.
    So, by induction on depth, the ordered basis of each weight space is the
    same in every TensorModule of the same weight, whatever order its spaces
    were built in, and the indices of a space are consecutive: the vector
    at position k of a space is the same vector in each of them (reexpress
    rests on this).
    """

    def __init__(self, lam):
        lam = check_module_weight(lam)
        self.weight = lam
        self.vectors: list[dict] = []
        self.weights: list[tuple] = []
        self.prov: list = []
        self.spaces: dict[tuple, list[int]] = {}
        self.pivots: dict[tuple, dict] = {}
        # (i, idx) -> what ensure_weight found for the lowering x_{i+1} d/dx_i
        # . v_idx: the index of the vector it became, or its [(index,
        # coordinate)] when it was in the span
        self.lower: dict = {}
        self._full = False
        self._derived: dict = {}

    # Its derived caches: "act" (r, s, weight) -> action columns, "actions"
    # (r, s) -> their ActionColumns view, "raising" j -> idx -> the
    # coordinates of x_j d/dx_{j+1} . v_idx that _raising reads from the
    # lowering record, "frame" None -> its lowering frame, "dual" None -> its
    # DualModule (see dual()), and those verma keeps per modulus (None over
    # Q) for the singular search: "stack", "zterm" (the coordinates of
    # x_5 d_t . v_idx, from lowering_coords) and, over F_p, "bases" (whether
    # a weight space's basis is p-integral).

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
        # nu is a weight of F(lam) exactly when its dominant conjugate is
        # dominated by lam (Humphreys, Lie Algebras, 21.3); otherwise every
        # lowering into nu is 0, and none is made.  Most nu with no parent
        # vector are not weights, and need no test
        weight = bool(parents) and sl5.dominated_depth(
            sl5.dominant_conjugate(nu), self.weight) is not None
        for i, idx in parents:
            img = glact_vector(i + 1, i, self.vectors[idx]) if weight else None
            self.lower[i, idx] = self._insert(nu, img, (i, idx)) if img else ()
        return self.spaces[nu]

    def _reduce(self, nu, vec):
        """Reduce an ambient vector by the basis of the weight space nu, least
        monomial first, until the least monomial is no basis vector's pivot.
        Returns (residual, trail), trail being the [(index, coefficient)]
        subtracted, each coefficient an int where integral; the residual is
        empty when vec lies in the space."""
        residual = dict(vec)
        trail = []
        piv = self.pivots.get(nu, {})
        while residual:
            mkey = min(residual)
            hit = piv.get(mkey)
            if hit is None:
                break
            c = as_int(residual[mkey])
            trail.append((hit, c))
            add_into(residual, self.vectors[hit], -c)
        return residual, trail

    def _insert(self, nu, vec, origin):
        """Add vec to the weight space nu unless it lies in the span: the new
        index, or the [(index, coordinate)] of vec in the span."""
        residual, trail = self._reduce(nu, vec)
        if not residual:
            return trail
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

    def coords(self, nu, vec) -> dict:
        """Coordinates of an ambient vector lying in the weight space nu."""
        residual, trail = self._reduce(tuple(nu), vec)
        if residual:
            raise ArithmeticError(f"vector not inside weight space {nu}")
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

    def dual(self) -> DualModule:
        """The one DualModule of this fully built module, kept in the store."""
        duals = self.cache("dual")
        if None not in duals:
            duals[None] = DualModule(self)
        return duals[None]

    def act_entries(self, r: int, s: int, nu) -> dict:
        """Column map idx -> {idx': scalar} of x_r d/dx_s on the weight space
        nu, over Q; it builds the target's weight space, then nu's.  A
        raising x_j d/dx_{j+1} (_raising) and a lowering x_{i+1} d/dx_i
        (_lowering) are read from the lowering record; every other generator
        acts on the basis vectors, and each image is reduced in the target's
        basis."""
        key = (r, s, tuple(nu))
        cache = self.cache("act")
        got = cache.get(key)
        if got is not None:
            return got
        target = sl5.wadd(nu, gen_shift(r, s))
        self.ensure_weight(target)
        idxs = self.ensure_weight(nu)
        if s == r + 1:
            cols = self._raising(r, key[2])
        elif r == s + 1:
            cols = {idx: dict(self._lowering(s, idx)) for idx in idxs}
        else:
            cols = {}
            for idx in idxs:
                img = glact_vector(r, s, self.vectors[idx])
                cols[idx] = self.coords(target, img) if img else {}
        cache[key] = cols
        return cols

    def _raising(self, j: int, nu) -> dict:
        """idx -> coordinates of x_j d/dx_{j+1} . v_idx for every idx of the
        built weight space nu, each an int where integral, keys in ascending
        target pivot monomial (the order coords gives).

        F(lam) is built by lowering from v_0, which E_j = x_j d/dx_{j+1}
        kills, and a vector n made from F_i = x_{i+1} d/dx_i . v_par with
        trail [(k, c_k)] and pivot coefficient pc is (F_i v_par - sum c_k
        v_k) / pc.  Since [E_j, F_i] = delta_ij H_i,

            E_j v_n = (F_i E_j v_par + delta_ij <wt(par), alpha_i^v> v_par
                       - sum c_k E_j v_k) / pc,

        and F_i on a basis vector t is read from the lowering record
        (_lowering).  Every space
        read here was built before nu: the target of E_j v_n is a parent of
        wt(n), and the lowering into it was recorded when it was built.  So
        this builds nothing and leaves self.spaces as it is.  The columns are
        memoized per index in "raising", and the vectors a column needs
        (parents and trail, all of lower index) are computed first, in index
        order, with no recursion."""
        memo = self.cache("raising").setdefault(j, {})
        prov = self.prov
        need = {n for n in self.spaces[nu] if n not in memo}
        stack = list(need)
        while stack:
            origin, trail, _pc = prov[stack.pop()]
            if origin is not None:
                for k in (origin[1], *[k for k, _c in trail]):
                    if k not in need and k not in memo:
                        need.add(k)
                        stack.append(k)
        for n in sorted(need):
            origin, trail, pc = prov[n]
            col: dict = {}
            if origin is not None:
                i, par = origin
                acc: dict = {}
                for t, c in memo[par].items():
                    for k, ck in self._lowering(i, t):
                        add_term(acc, k, c * ck)
                if i == j:
                    add_term(acc, par, self.weights[par][i - 1])
                for k, ck in trail:
                    add_into(acc, memo[k], -ck)
                if acc:
                    piv = self.pivots[sl5.wadd(self.weights[n], sl5.SIMPLE_ROOTS[j - 1])]
                    col = {k: v if pc == 1 and type(v) is int else exact_div(v, pc)
                           for m in sorted(piv) if (v := acc.get(k := piv[m]))}
            memo[n] = col
        return {n: memo[n] for n in self.spaces[nu]}

    def _lowering(self, i: int, t: int):
        """The coordinates [(k, c)] of x_{i+1} d/dx_i . v_t as coords gives
        them, read from the lowering record (with prov when the image became
        a vector).  ensure_weight records the lowerings into every weight
        space it builds from parents, so a lowering with no record lands
        outside the weights of F(lam) and is 0."""
        low = self.lower.get((i, t), ())
        if type(low) is int:
            _origin, trail, pc = self.prov[low]
            return [*trail, (low, pc)]
        return low

    def lowering_coords(self, r: int, s: int, idx: int) -> dict:
        """The coordinates {k: c} of x_r d/dx_s . v_idx for r > s, read from
        the lowering record, with no ambient vector acted on.  x_{s+1} d/dx_s
        is the lowering F_s (_lowering), and for r > s + 1

            x_r d_s v = F_{r-1} (x_{r-1} d_s v) - x_{r-1} d_s (F_{r-1} v),

        since x_r d/dx_s = [F_{r-1}, x_{r-1} d/dx_s].  Every weight this
        passes through lies between the target wt(v_idx) + eps_r - eps_s and
        wt(v_idx), so once ensure_weight(target) has built the target, those
        spaces are built and their lowerings recorded: this builds nothing.
        Called with the target unbuilt, it reads an incomplete record, so
        callers check mod.spaces first."""
        if r == s + 1:
            return dict(self._lowering(s, idx))
        out: dict = {}
        for k, c in self.lowering_coords(r - 1, s, idx).items():
            for k2, c2 in self._lowering(r - 1, k):
                add_term(out, k2, c * c2)
        for k, c in self._lowering(r - 1, idx):
            for k2, c2 in self.lowering_coords(r - 1, s, k).items():
                add_term(out, k2, -c * c2)
        return out


class DualModule(_ActingModule):
    """Abstract dual of a fully built module: generators act by negated
    transpose; the reported highest weight is the dual weight.  Made once per
    module by base.dual(); base and dual refer to each other.  Its derived
    caches are "act", "actions" and "frame", as for a TensorModule."""

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

    def dual(self) -> TensorModule:
        """The base, whose action is the negated transpose of this one's."""
        return self.base

    def act_entries(self, r: int, s: int, nu) -> dict:
        """Column map of x_r d/dx_s on dual indices of dual weight nu:
        the negated transpose of the action on the base."""
        key = (r, s, tuple(nu))
        cache = self.cache("act")
        got = cache.get(key)
        if got is not None:
            return got
        cols = {idx: {} for idx, wt in enumerate(self._weights) if wt == key[2]}
        src = sl5.wsub(tuple(-x for x in nu), gen_shift(r, s))
        for q, col in self.base.act_entries(r, s, src).items():
            for p, v in col.items():
                cols[p][q] = -v
        cache[key] = cols
        return cols


def build_irreducible(lam) -> TensorModule:
    """Fully built F(lam); raises on a Weyl-dimension mismatch."""
    return TensorModule(lam).build_full()
