"""Independent oracles used by the tests, and the helpers only tests call.

The oracles are deliberately written from first principles (hand
elimination, enumeration, classical formulas) and never call the code paths
they are used to check.  The references keep the forms that faster library
code replaced (Fraction and add_into loops, slot loops), to pin the rewrites
value for value and in order.  The helpers (omega_basis_check,
pbw_dimension, uelement_from_obj, hw_controls) build test inputs and
structural checks from the library.
"""

from fractions import Fraction as Q
from itertools import combinations


def dense_rref(rows, ncols):
    """Reduced row echelon form by textbook dense Gauss-Jordan elimination on
    lists of Fractions: (the nonzero rows, the pivot column of each)."""
    m = [[Q(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        pv = m[top][col]
        m[top] = [x / pv for x in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b if b else a for a, b in zip(m[r], m[top])]
        pivots.append(col)
    return m[:len(pivots)], pivots


def dense_rank(rows):
    """Rank by textbook dense Gaussian elimination on lists of Fractions."""
    return len(dense_rref(rows, len(rows[0]) if rows else 0)[1])


def dense_rank_mod(rows, p):
    """Rank over F_p by textbook dense Gaussian elimination on lists of ints,
    inverting pivots by Fermat's little theorem (p prime)."""
    m = [[x % p for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(r + 1, len(m)):
            f = m[i][col]
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def dense_null_space(rows, ncols):
    """Kernel basis read off the reduced echelon form: for each free column f
    in ascending order, 1 at f and minus column f of each pivot row at that
    row's pivot column (zeros left out)."""
    rref, pivots = dense_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = {f: Q(1)}
        for row, p in zip(rref, pivots):
            if row[f]:
                v[p] = -row[f]
        basis.append(v)
    return basis


def u_scale(u, c):
    """c * u for a sparse element {monomial: coefficient}, zeros left out."""
    return {m: c * v for m, v in u.items() if c * v}


def u_add(*elems):
    """The sum of sparse elements {monomial: coefficient}, zeros left out."""
    out = {}
    for e in elems:
        for m, v in e.items():
            out[m] = out.get(m, 0) + v
    return {m: v for m, v in out.items() if v}


def hook_content_dimension(partition, n=5):
    """Dimension of the Schur functor S_partition(C^n) by hook content."""
    num, den = 1, 1
    for r, row in enumerate(partition):
        for c in range(row):
            num *= n + c - r
            arm = row - c - 1
            leg = sum(1 for r2 in range(r + 1, len(partition)) if partition[r2] > c)
            den *= arm + leg + 1
    q, rem = divmod(num, den)
    assert rem == 0
    return q


def partition_of_weight(lam):
    """gl5 partition of the dominant sl5 weight (a,b,c,d), padded to 5 rows."""
    a, b, c, d = lam
    return (a + b + c + d, b + c + d, c + d, d, 0)


def perm_sign_by_inversions(seq):
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def partial_matchings(points):
    """All partial matchings of a list of points, by brute enumeration."""
    points = list(points)
    if not points:
        return [frozenset()]
    first, rest = points[0], points[1:]
    out = [m for m in partial_matchings(rest)]
    for i, other in enumerate(rest):
        for m in partial_matchings(rest[:i] + rest[i + 1:]):
            out.append(m | {frozenset((first, other))})
    return out


def crossing_count(matching):
    n = 0
    pairs = [tuple(sorted(p)) for p in matching]
    for (a, b), (c, d) in combinations(pairs, 2):
        if (c < a < d) != (c < b < d):
            n += 1
    return n


def klimyk_multiplicity(mu, weights, lam):
    """Multiplicity of F(lam) in F(mu) (x) E from the weights of E, by the
    Racah-Klimyk alternating sum over the symmetric group S5."""
    rho = (1, 1, 1, 1)

    def lift(w):
        c = [sum(w[i:]) for i in range(4)] + [0]
        return tuple(c)

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    target = lift(add(lam, rho))
    target = tuple(t - target[-1] for t in target)
    base = lift(add(mu, rho))
    total = 0
    for eta in weights:
        c = tuple(b + e for b, e in zip(base, lift(eta)))
        if len(set(c)) < 5:
            continue
        order = sorted(range(5), key=lambda i: -c[i])
        sc = tuple(c[i] for i in order)
        sc = tuple(x - sc[-1] for x in sc)
        if sc == target:
            total += perm_sign_by_inversions(order)
    return total


def _axpy(acc, col, c):
    """acc += c * col for sparse dicts of Fractions, dropping zeros."""
    for k, v in col.items():
        s = acc.get(k, Q(0)) + c * v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def gen_on_theta(phi, r, s):
    """x_r d/dx_s . Phi as a morphism-shaped coefficient dict, in Fractions
    straight from Phi's coefficients and the modules' rational action tables
    (zero iff Phi is invariant): sum [x, m] (x) theta_m + m (x) (A_W theta_m
    - theta_m A_V), the rational reference for verma._gen_on_theta."""
    from e510 import sl5, uminus
    from e510.fmodules import gen_shift

    src = phi.source
    shift = gen_shift(r, s)
    by_weight = {}  # the source is fully built: its indices by weight
    for n in range(src.dim):
        by_weight.setdefault(tuple(src.weight_of(n)), []).append(n)
    out = {}
    for m, cols in phi.coeffs.items():
        for m2, c2 in uminus.l0_adjoint(r, s, {m: Q(1)}).items():
            tgt = out.setdefault(m2, {})
            for n, col in cols.items():
                _axpy(tgt.setdefault(n, {}), col, c2)
        tgt = out.setdefault(m, {})
        for k, col in cols.items():
            img = phi.target.action(r, s).apply(col, {})
            _axpy(tgt.setdefault(k, {}), img, Q(1))
            # (theta A_V) column n picks up A_V[k, n] theta_col[k]
            nu_n = sl5.wsub(src.weight_of(k), shift)
            for n in by_weight.get(nu_n, ()):
                c = src.act_entries(r, s, nu_n)[n].get(k)
                if c:
                    _axpy(tgt.setdefault(n, {}), col, -c)
    return {m: {n: col for n, col in cols.items() if col}
            for m, cols in out.items() if any(cols.values())}


def equivariance_failure(phi):
    """The first (r, s, monomial) at which gen_on_theta(phi, r, s) is not
    zero, over all 20 generators x_r d/dx_s (r != s) in order, r then s, or
    None: the reference for verma._equivariance_failure, which decides
    invariance on a lowering frame of the source and keeps the verdict on
    Phi."""
    for r in range(1, 6):
        for s in range(1, 6):
            if r != s:
                bad = gen_on_theta(phi, r, s)
                if bad:
                    return r, s, next(iter(bad))
    return None


def equations_deg3(phi, table):
    """verma._equations_deg3 as it was written before it kept one
    orientation: (5), (6) and (4) checked for both orientations (a, b, c) and
    (a, c, b) of the letters outside Q = (p, q), (3) for the first only.
    The reference that pins dropping the second orientation, verdict and
    diagnostic."""
    import itertools

    from e510 import uminus
    from e510.verma import _cyclic, _mat_add, _perm_eps, _theta_lookup, _x_theta

    pairs1 = list(uminus.PAIRS)
    for p, q in itertools.permutations(range(1, 6), 2):
        rest = [x for x in range(1, 6) if x not in (p, q)]
        for ori in (tuple(rest), (rest[0], rest[2], rest[1])):
            a, b, c = ori
            eps = _perm_eps(p, q, a, b, c)
            acc5, acc6 = {}, {}
            for al, be, ga in _cyclic(a, b, c):
                _x_theta(acc5, phi, table, (p,), ((al, be),), p, ga, 2)
                _x_theta(acc6, phi, table, (q,), ((al, be),), p, ga, 2 * eps)
            th, sg = _theta_lookup(table, (), ((a, b), (b, c), (c, a)))
            _mat_add(acc6, th, -2 * sg)
            if any(col for col in acc5.values()):
                return False, f"degree-3 equation (5) fails at Q=({p},{q})"
            if any(col for col in acc6.values()):
                return False, f"degree-3 equation (6) fails at Q=({p},{q})"
            for aa, bb, cc in _cyclic(a, b, c):
                acc4 = {}
                th, sg = _theta_lookup(table, (), ((aa, bb), (bb, cc), (cc, q)))
                _mat_add(acc4, th, sg)
                th, sg = _theta_lookup(table, (), ((aa, cc), (cc, bb), (bb, q)))
                _mat_add(acc4, th, sg)
                for al, be, ga in _cyclic(aa, bb, cc):
                    _x_theta(acc4, phi, table, (aa,), ((al, be),), p, ga, 2 * eps)
                if any(col for col in acc4.values()):
                    return False, f"degree-3 equation (4) fails at Q=({p},{q}), a={aa}"
            if ori != tuple(rest):
                continue
            qsign, qc = uminus.canon_pair((p, q))
            for hi in range(len(pairs1)):
                for li in range(hi + 1, len(pairs1)):
                    H, Lp = pairs1[hi], pairs1[li]
                    acc3 = {}
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


def canonical_orbit_rep(I):
    """(sign, rep) of uminus.canonical_orbit_rep by sorting: each pair
    normalized to i < j, (0, None) for a pair (i, i) or a repeated pair, and
    the sign of the permutation that sorts the normalized pairs."""
    sign = 1
    canon = []
    for i, j in I:
        if i == j:
            return 0, None
        sign *= 1 if i < j else -1
        canon.append((min(i, j), max(i, j)))
    if len(set(canon)) < len(canon):
        return 0, None
    order = sorted(range(len(canon)), key=lambda k: canon[k])
    return sign * perm_sign_by_inversions(order), tuple(sorted(canon))


def act_l0(r, s, w):
    """x_r d/dx_s on a Verma element by one add_into per term, through a
    one-entry dict and the module's action columns applied to a one-entry
    coordinate vector: the reference for verma.act_l0,
    its terms and their order, with Fraction coefficients (add_into's
    Fraction(1) scale here)."""
    from e510 import verma

    mod = w.module
    out = {}
    for (m, idx), c in w.terms.items():
        for m2, c2 in verma._l0_mono(r, s, m):
            add_into(out, {(m2, idx): c * c2})
        for idx2, c2 in mod.action(r, s).apply({idx: c}, {}).items():
            add_into(out, {(m, idx2): c2})
    return verma.VermaElement(mod, w.degree, out)


def act_odd(p, A, w):
    """x_p d_A in L_1 on a Verma element, built like act_l0 above: the
    reference for verma.act_odd."""
    from e510 import verma

    mod = w.module
    out = {}
    for (m, idx), c in w.terms.items():
        for m2, c2, op in verma._odd_action(p, A, m):
            cc = c * c2
            if op is None:
                add_into(out, {(m2, idx): cc})
            else:
                for idx2, c3 in mod.action(op[0], op[1]).apply({idx: cc}, {}).items():
                    add_into(out, {(m2, idx2): c3})
    return verma.VermaElement(mod, w.degree - 1, out)


def act_l1_combination(elem, w):
    """sum c_{p,A} x_p d_A in L_1 on a Verma element as one act_odd above
    per generator, each on the Fraction copy w.scaled(c): the reference for
    the images verma.l1_images sums from one int image per generator."""
    from e510 import verma

    out = {}
    for (p, A), c in elem.items():
        add_into(out, act_odd(p, A, w.scaled(Q(c))).terms)
    return verma.VermaElement(w.module, w.degree - 1, out)


def is_singular(w, full_l1=True):
    """The singular check on w itself in Fractions: the raisings and x_5 d45
    by act_l0/act_odd above and the 40 elements of verma.l1_basis() by
    act_l1_combination (60 act_odd calls), the reference for
    verma.is_singular."""
    from e510 import verma

    if any(act_l0(i, i + 1, w).terms for i in range(1, 5)):
        return False
    if act_odd(5, (4, 5), w).terms:
        return False
    return not full_l1 or not any(act_l1_combination(e, w).terms
                                  for e in verma.l1_basis())


def glact_vector(r, s, vec, p=None):
    """x_r d/dx_s on a sparse vector of packed tensor monomials, one
    add_into (the reference one below) per monomial of the slot loop's
    image (glact_monomial below): the reference for fmodules.glact_vector,
    its terms and their order, and (with p) the tensor action over F_p."""
    from e510 import fmodules

    out = {}
    for m, c in vec.items():
        img = glact_monomial(r, s, fmodules.unpack(m))
        add_into(out, {fmodules.pack(k): v for k, v in img.items()}, c, p)
    return out


def raising_columns(mod, i, nu, p=None):
    """The columns of x_i d/dx_{i+1} on the weight space nu as the ambient
    loop computed them (ambient_columns)."""
    return ambient_columns(mod, i, i + 1, nu, p)


def ambient_columns(mod, r, s, nu, p=None):
    """The columns of x_r d/dx_s on the weight space nu computed on ambient
    vectors: the target's weight space built, then nu's, each basis vector
    (with p, its reduction mod p, fp_basis below) acted on in the tensor
    space (glact_vector above, over F_p with p) and its image reduced in
    the target's basis (coords below)."""
    from e510 import fmodules, sl5

    target = sl5.wadd(nu, fmodules.gen_shift(r, s))
    mod.ensure_weight(target)
    cols = {}
    for idx in mod.ensure_weight(nu):
        vec = mod.vectors[idx] if p is None else fp_basis(mod, mod.weights[idx], p)[idx]
        img = glact_vector(r, s, vec, p)
        cols[idx] = coords(mod, target, img, p) if img else {}
    return cols


def fp_basis(mod, nu, p):
    """The basis of the built weight space nu reduced mod p, index ->
    vector, raising UnluckyPrime where p divides a denominator.  It asks
    verma._fp_basis first, so the module's "bases" store records the spaces
    reduced here as the search records those it checks."""
    from e510 import verma
    from e510.linalg import to_fp

    verma._fp_basis(mod, nu, p)
    return {idx: {k: v for k, c in mod.vectors[idx].items() if (v := to_fp(c, p))}
            for idx in mod.spaces[nu]}


def coords(mod, nu, vec, p=None):
    """mod.coords(nu, vec), or with a modulus p the coordinates over F_p in
    the basis reduced mod p (pivots are 1, so nothing is divided), least
    monomial first; a residual left mod p raises UnluckyPrime."""
    from e510.linalg import UnluckyPrime

    if p is None:
        return mod.coords(nu, vec)
    residual, trail = dict(vec), []
    piv, basis = mod.pivots.get(nu, {}), fp_basis(mod, nu, p)
    while residual:
        hit = piv.get(min(residual))
        if hit is None:
            raise UnluckyPrime(f"vector not inside weight space {nu}")
        c = residual[min(residual)]
        trail.append((hit, c))
        add_into(residual, basis[hit], -c, p)
    return dict(trail)


def fp_view(mod, p, solver, zimage):
    """The search's F_p inputs (solver, zimage) as the first F_p sieve made
    them: each converted from its rational original (solver(mod, nu),
    zimage(mod, op, fidx)) into F_p, raising UnluckyPrime where p divides
    a denominator.  A solver is converted once; a z-term image each time,
    since the rational zimage gives ambient images for a target not yet
    built and coordinates once it is."""
    from e510.linalg import UnluckyPrime

    stack = {}

    def mod_p(c):
        c = Q(c)
        if c.denominator % p == 0:
            raise UnluckyPrime(f"{p} divides the denominator of {c}")
        return c.numerator * pow(c.denominator, -1, p) % p

    def fp(form):
        return {k: v for k, c in form.items() if (v := mod_p(c))}

    def fp_solver(nu):
        got = stack.get(nu)
        if got is None:
            solve_combs, zero_combs = solver(mod, nu)
            got = stack[nu] = ({col: fp(comb) for col, comb in solve_combs.items()},
                               [fp(comb) for comb in zero_combs])
        return got

    def fp_zimage(op, fidx):
        return fp(zimage(mod, op, fidx))

    return fp_solver, fp_zimage


def flush_z(mod, entries, constraints, L, p=None):
    """verma._flush_z as it was before z-terms had module coordinates: every
    term expanded in ambient tensor monomials, the basis vector v_fidx when
    op is None and the tensor action x_5 d_t . v_fidx (glact_vector above)
    otherwise, each reduced mod p with a modulus; rows keyed (monomial,
    ambient monomial), inserted in order until the rank reaches L (True)."""
    from e510.linalg import to_fp

    def vector(fidx):
        vec = mod.vectors[fidx]
        return vec if p is None else {k: v for k, c in vec.items() if (v := to_fp(c, p))}

    rows = {}
    for op, terms, comps in entries:
        for m2, c2 in terms:
            for fidx, form in comps.items():
                vec = vector(fidx) if op is None else glact_vector(*op, vector(fidx), p)
                for amb, ac in vec.items():
                    add_into(rows.setdefault((m2, amb), {}), form, c2 * ac, p)
    for row in rows.values():
        constraints.insert(row)
        if constraints.rank >= L:
            return True
    return False


def degree_tables(d):
    """(groups, trans, zrecords) as verma._degree_tables(d) lays them out,
    rebuilt straight from uminus.l0_adjoint and the cached
    verma._odd_action, one generator at a time: the raisings x_i d_{i+1}
    over the monomials in group order, and x_5 d45 with its terms regrouped
    by op after the fact."""
    from e510 import uminus, verma

    groups = {}
    for m in uminus.pbw_monomials(d):
        groups.setdefault(uminus.monomial_weight(m), []).append(m)
    monos = [m for ms in groups.values() for m in ms]
    trans = {i: {} for i in range(1, 5)}
    for i in range(1, 5):
        for m in monos:
            for m2, c in uminus.l0_adjoint(i, i + 1, {m: 1}).items():
                trans[i].setdefault(m2, {})[m] = c
    zrecords = {}
    for m in monos:
        terms = verma._odd_action(5, (4, 5), m)
        ops = list(dict.fromkeys(op for _m2, _c, op in terms))
        # the levels op moves the F part down: the root coefficients of
        # minus its weight shift, summed
        zrecords[m] = tuple((op, 0 if op is None else sum(root_coefficients(
                                 wsub((0, 0, 0, 0), gen_shift(*op)))),
                             tuple((m2, c) for m2, c, o in terms if o == op))
                            for op in ops)
    return groups, trans, zrecords


def glact_monomial(r, s, m):
    """x_r d/dx_s on a tensor monomial by the slot loop the table-driven
    moves of fmodules replaced: the reference for fmodules.glact_vector on
    one monomial, its terms, their order and their int coefficients."""
    from e510.uminus import PAIRS

    pair_pos = {p: k for k, p in enumerate(PAIRS)}
    V0, W0, WD0, VD0 = 0, 5, 15, 25
    out = {}

    def bump(pos, pos2):
        e = list(m)
        e[pos] -= 1
        e[pos2] += 1
        return tuple(e)

    def put(key, c):
        c += out.get(key, 0)
        if c:
            out[key] = c
        else:
            out.pop(key, None)

    e = m[V0 + s - 1]
    if e:
        put(bump(V0 + s - 1, V0 + r - 1), e)
    ed = m[VD0 + r - 1]
    if ed:
        put(bump(VD0 + r - 1, VD0 + s - 1), -ed)
    for k, (i, j) in enumerate(PAIRS):
        ew = m[W0 + k]
        if ew:
            # x_r ds . x_ij = delta_is x_rj + delta_js x_ir (slot order kept)
            for a, b in (((r, j),) if i == s else ()) + (((i, r),) if j == s else ()):
                if a == b:
                    continue
                sign, np = (1, (a, b)) if a < b else (-1, (b, a))
                put(bump(W0 + k, W0 + pair_pos[np]), sign * ew)
        ewd = m[WD0 + k]
        if ewd:
            # x_r ds . x*_ij = -(delta_ri x*_sj + delta_rj x*_is)
            for a, b in (((s, j),) if i == r else ()) + (((i, s),) if j == r else ()):
                if a == b:
                    continue
                sign, np = (1, (a, b)) if a < b else (-1, (b, a))
                put(bump(WD0 + k, WD0 + pair_pos[np]), -sign * ewd)
    return out


def omega_basis_inverse(d: int):
    """Rows of the inverse change of basis: inv[i] is a sparse map
    monomial -> Q with X_i = sum_m inv[i][m] * target[m] solving
    sum_i X_i col_i = target.  Exact back-substitution on the
    unitriangular structure."""
    from e510.linalg import add_into
    from e510.uminus import omega_basis, rep_monomial

    reps, cols = omega_basis(d)
    order = sorted(range(len(reps)), key=lambda i: sum(rep_monomial(reps[i])[0]))
    inv: list[dict] = [None] * len(reps)
    for i in order:
        m0 = rep_monomial(reps[i])
        row = {m0: Q(1)}
        for j in order:
            if j == i:
                break
            c = cols[j].get(m0)
            if c:
                add_into(row, inv[j], -c)
        inv[i] = row
    return reps, cols, inv


def theta_decomposition(phi):
    """Phi's theta blocks by the explicit inverse change of basis in
    Fractions, the reference for verma.theta_decomposition, which applies
    the same rows scaled to ints (uminus.omega_int_tables): rep -> n ->
    column, in the order of the omega basis."""
    reps, _cols, inv = omega_basis_inverse(phi.degree)
    out = {}
    for rep, row in zip(reps, inv):
        theta = {}
        for mono, cf in row.items():
            for n, col in phi.coeffs.get(mono, {}).items():
                _axpy(theta.setdefault(n, {}), col, cf)
        theta = {n: col for n, col in theta.items() if col}
        if theta:
            out[rep] = theta
    return out


# -- Fraction references of the morphism layer ---------------------------------
# verma decomposes, transposes, expands and composes on integer-scaled tables
# and divides each output entry once; these are the Fraction forms it
# replaced, kept loop for loop, so that values and the order of keys at every
# level (monomial, source column, target index) can be compared.

def peeled_theta(phi, column=None):
    """Phi's theta blocks peeled off by del count in Fractions: in the order
    of the omega basis, theta_rep is what is left of Phi at the diagonal
    monomial of rep, and del_T omega_I (x) theta_rep is peeled off the rest."""
    from e510.linalg import add_into
    from e510.uminus import omega_basis, rep_monomial

    reps, cols = omega_basis(phi.degree)
    rest = {m: {n: dict(col) for n, col in cs.items() if column in (None, n)}
            for m, cs in phi.coeffs.items()}
    out = {}
    for rep, col in zip(reps, cols):
        m0 = rep_monomial(rep)
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


def theta_table(phi, column=None):
    """peeled_theta scaled to ints by the lcm of its denominators: the theta
    table the degree equations read, in its Fraction-first form."""
    import math

    thetas = peeled_theta(phi, column)
    D = math.lcm(*(c.denominator for cols in thetas.values()
                   for col in cols.values() for c in col.values()))
    return {rep: {n: {i: c.numerator * (D // c.denominator) for i, c in col.items()}
                  for n, col in cols.items()}
            for rep, cols in thetas.items()}


def expand_omega(degree, thetas, factor):
    """sum over rep of factor(rep) del_T omega_I (x) thetas[rep] as Phi
    coefficients in Fractions, without empty columns or monomials."""
    from e510.linalg import add_into
    from e510.uminus import omega_basis

    colmap = dict(zip(*omega_basis(degree)))
    coeffs = {}
    for rep, theta in thetas.items():
        f = factor(rep)
        for mono, cf in colmap[rep].items():
            for n, col in theta.items():
                add_into(coeffs.setdefault(mono, {}).setdefault(n, {}), col, f * cf)
    coeffs = {m: {n: col for n, col in cols.items() if col}
              for m, cols in coeffs.items()}
    return {m: cols for m, cols in coeffs.items() if cols}


def dual_morphism(phi):
    """verma.dual_morphism by peeled_theta, a transpose and expand_omega in
    Fractions."""
    from e510 import sl5, verma

    tstars = {}
    for rep, theta in peeled_theta(phi).items():
        tstar = tstars[rep] = {}
        for n, col in theta.items():
            for q, v in col.items():
                tstar.setdefault(q, {})[n] = v
    coeffs = expand_omega(phi.degree, tstars, lambda rep: (-1) ** len(rep[0]))
    return verma.MorphismData(phi.degree, sl5.dual_weight(phi.mu), sl5.dual_weight(phi.lam),
                              phi.target.dual(), phi.source.dual(), coeffs,
                              "conjectural" if phi.degree >= 4 else "")


def compose(phi2, phi1):
    """verma.compose in Fractions: each column of Phi1 is applied to, one
    monomial m at a time, by u Phi2(v) with u = m, the U products shared."""
    from e510 import uminus, verma
    from e510.linalg import add_into, add_term

    images = []
    products = {}
    for n in range(phi1.source.dim):
        acc = {}
        for m, cols in phi1.coeffs.items():
            col = cols.get(n)
            if not col:
                continue
            prods = products.setdefault(m, {})
            img = {}
            for m2, cols2 in phi2.coeffs.items():
                fv = {}
                for k, ck in col.items():
                    add_into(fv, cols2.get(k, {}), ck)
                if not fv:
                    continue
                prod = prods.get(m2)
                if prod is None:
                    prod = prods[m2] = uminus.u_mul({m: 1}, {m2: 1})
                for m3, c3 in prod.items():
                    for idx, cf in fv.items():
                        add_term(img, (m3, idx), c3 * cf)
            add_into(acc, img)
        images.append(acc)
    coeffs = {}
    for n, terms in enumerate(images):
        for (m, idx), c in terms.items():
            coeffs.setdefault(m, {}).setdefault(n, {})[idx] = c
    return verma.MorphismData(phi1.degree + phi2.degree, phi1.lam, phi2.mu,
                              phi1.source, phi2.target, coeffs)


def equivariant_controls(phi, count):
    """verma.equivariant_controls in Fractions: the del blocks of
    peeled_theta scaled by 2 + j for the j-th control."""
    from e510 import verma

    thetas = peeled_theta(phi)
    if len({len(rep[0]) for rep in thetas}) < 2:
        return []
    return [verma.MorphismData(phi.degree, phi.lam, phi.mu, phi.source, phi.target,
                               expand_omega(phi.degree, thetas,
                                            lambda rep: Q(2 + j) if rep[0] else Q(1)),
                               tag=f"scaled-{j}")
            for j in range(count)]


def dominant_candidates(mu, d):
    """The dominant weights mu + wt(m) over the PBW monomials m of degree d,
    sorted: every lam a degree-d singular vector of M(mu) can have."""
    from e510 import sl5, uminus

    return sorted({lam for m in uminus.pbw_monomials(d)
                   if sl5.is_dominant(lam := sl5.wadd(mu, uminus.monomial_weight(m)))})


def verma_kernels(mu, d, lam):
    """(highest weight space, singular space) of weight lam in (U_-)_d (x)
    F(mu), on verma.get_module(mu), by dense elimination over the basis pairs
    (m, idx) of weight lam: the kernel of the four raisings x_i d_{i+1}, and
    the kernel of the raisings and x_5 d45.  Each is a list of VermaElements.
    Only the actions act_l0 and act_x5d45 are read, never the lifting."""
    from e510 import sl5, uminus, verma

    mod = verma.get_module(mu)
    lam = tuple(lam)
    pairs = [(m, idx) for m in uminus.pbw_monomials(d) for idx in range(mod.dim)
             if sl5.wadd(uminus.monomial_weight(m), mod.weight_of(idx)) == lam]
    raisings, lowest = {}, {}  # row key -> {pair position -> Q}
    for col, pair in enumerate(pairs):
        e = verma.VermaElement(mod, d, {pair: Q(1)})
        for i in range(1, 5):
            for key, c in verma.act_l0(i, i + 1, e).terms.items():
                raisings.setdefault((i, key), {})[col] = c
        for key, c in verma.act_x5d45(e).terms.items():
            lowest.setdefault(key, {})[col] = c

    def kernel(rows):
        dense = [[row.get(col, 0) for col in range(len(pairs))] for row in rows]
        return [verma.VermaElement(mod, d, {pairs[c]: v for c, v in vec.items()})
                for vec in dense_null_space(dense, len(pairs))]

    return (kernel(list(raisings.values())),
            kernel(list(raisings.values()) + list(lowest.values())))


def in_span(vecs, w):
    """Whether the VermaElement w lies in the span of the VermaElements vecs,
    by dense rank over the union of their terms."""
    keys = list({k for v in [*vecs, w] for k in v.terms})
    rows = [[v.terms.get(k, 0) for k in keys] for v in vecs]
    return dense_rank(rows + [[w.terms.get(k, 0) for k in keys]]) == dense_rank(rows)


def hw_controls(mu, d, count):
    """Up to count L0-invariant Phi of degree d into M(mu), each built from a
    highest weight vector outside the singular space (verma_kernels): they
    pass the equivariance precheck and fail the L_1 condition, so both checks
    must reject them."""
    from e510 import verma

    out = []
    for lam in dominant_candidates(mu, d):
        hw, sing = verma_kernels(mu, d, lam)
        for w in hw:
            if not in_span(sing, w):
                out.append(verma.morphism_from_singular(w, lam, check=False))
                if len(out) >= count:
                    return out
    return out


def pbw_dimension(d: int) -> int:
    """dim (U_-)_d: the sum of the block sizes of uminus.pbw_layout(d)."""
    from e510.uminus import pbw_layout

    return sum(count for _k, _n, count in pbw_layout(d))


def omega_basis_check(d: int) -> bool:
    """Verify square-invertibility of the change of basis.

    The columns are unitriangular with respect to the del-count filtration
    and their level-k diagonal monomials biject onto the PBW monomials with k
    del factors, which proves invertibility; both facts are checked here, as
    is the dimension formula.
    """
    from e510.uminus import omega_basis, pbw_monomials, rep_monomial

    reps, cols = omega_basis(d)
    if len(reps) != pbw_dimension(d):
        return False
    monos = set(pbw_monomials(d))
    diag = set()
    for rep, col in zip(reps, cols):
        m0 = rep_monomial(rep)
        k = sum(m0[0])
        if col.get(m0) != 1:
            return False
        for (d5, ps) in col:
            if sum(d5) < k or (sum(d5) == k and (d5, ps) != m0):
                return False
        diag.add(m0)
    return diag == monos


def uelement_from_obj(obj) -> dict:
    """The UElement that uminus.uelement_to_obj wrote as obj."""
    from e510.linalg import parse_scalar
    from e510.uminus import monomial_from_obj

    return {monomial_from_obj(t["monomial"]): parse_scalar(t["coeff"]) for t in obj}


# -- reference definitions of the flat kernels ---------------------------------
# The generator and loop forms the unrolled sl5 weight arithmetic, the shift
# table of fmodules.gen_shift, the F_p loop of linalg.add_into and the int
# normal forms of uminus replaced, kept to pin the rewrites value for value.

_CARTAN_INV5 = ((4, 3, 2, 1), (3, 6, 4, 2), (2, 4, 6, 3), (1, 2, 3, 4))


def wadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def wsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def is_dominant(lam):
    return all(x >= 0 for x in lam)


def from_gl(c):
    return tuple(c[i] - c[i + 1] for i in range(4))


def root_coefficients(delta):
    """C^{-1} delta as 5 C^{-1} delta / 5, row by row; None unless integral."""
    a, b, c, d = delta
    ks = []
    for r0, r1, r2, r3 in _CARTAN_INV5:
        k, rem = divmod(r0 * a + r1 * b + r2 * c + r3 * d, 5)
        if rem:
            return None
        ks.append(k)
    return tuple(ks)


def dominated_depth(lam, mu):
    ks = root_coefficients(wsub(mu, lam))
    if ks is None or min(ks) < 0:
        return None
    return ks


def gen_shift(r, s):
    c = [0] * 5
    c[r - 1] += 1
    c[s - 1] -= 1
    return from_gl(c)


def add_into(acc, other, scale=Q(1), p=None):
    """acc += scale * other with zeros dropped, over Q or (with p) F_p."""
    if p is None:
        if not scale:
            return
        for k, v in other.items():
            s = acc.get(k)
            s = scale * v if s is None else s + scale * v
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
    else:
        scale %= p
        if not scale:
            return
        for k, v in other.items():
            s = (acc.get(k, 0) + scale * v) % p
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)


_order_cache_ref: dict = {}


def _order_word(pairs):
    """Normal order of a word of canonical pairs with Fraction coefficients,
    memoized here, apart from uminus's table."""
    from e510.uminus import ZERO_DEL, eps_t

    cached = _order_cache_ref.get(pairs)
    if cached is not None:
        return cached
    out: dict = {}
    for k in range(len(pairs) - 1):
        a, b = pairs[k], pairs[k + 1]
        if a < b:
            continue
        if a == b:
            out = {}
            break
        swapped = pairs[:k] + (b, a) + pairs[k + 2:]
        for m, c in _order_word(swapped).items():
            add_into(out, {m: c}, Q(-1))
        sign, t = eps_t(a[0], a[1], b[0], b[1])
        if sign:
            rest = pairs[:k] + pairs[k + 2:]
            dt = tuple(1 if u == t - 1 else 0 for u in range(5))
            for (d5, ps), c in _order_word(rest).items():
                add_into(out, {(wadd(d5, dt), ps): c}, Q(sign))
        break
    else:
        out = {(ZERO_DEL, pairs): Q(1)}
    _order_cache_ref[pairs] = out
    return out


def normal_form(word):
    """PBW normal form of a word of generators, Fraction coefficients."""
    from e510.uminus import canon_pair

    del5 = [0] * 5
    sign = 1
    cpairs = []
    for letter in word:
        if isinstance(letter, int):
            del5[letter - 1] += 1
            continue
        s, p = canon_pair(letter)
        if s == 0:
            return {}
        sign *= s
        cpairs.append(p)
    out: dict = {}
    for (d5, ps), c in _order_word(tuple(cpairs)).items():
        add_into(out, {(wadd(tuple(del5), d5), ps): c}, Q(sign))
    return out


def l0_adjoint(s, r, u):
    """x_s d/dx_r acting on a UElement as an even derivation, through the
    Fraction normal_form above."""
    out: dict = {}
    for (d5, ps), c in u.items():
        if d5[s - 1]:
            nd = list(d5)
            nd[s - 1] -= 1
            nd[r - 1] += 1
            add_into(out, {(tuple(nd), ps): -d5[s - 1] * c})
        for pos, (i, j) in enumerate(ps):
            for slot, other in ((i, j), (j, i)):
                if slot != r:
                    continue
                word = ps[:pos] + ((s, other) if slot == i else (other, s),) + ps[pos + 1:]
                for (d5w, psw), cw in normal_form(word).items():
                    add_into(out, {(wadd(d5, d5w), psw): c * cw})
    return out
