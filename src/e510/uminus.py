"""The enveloping algebra U(L_-) of the negative part of E(5,10).

Generators: odd d_ij (= d_ji with a sign, degree 1) and even central del_t
(degree 2), with the single relation  d_A d_B + d_B d_A = eps_{A,B} del_{t_{A,B}}.

A PBW monomial is a del-multidegree together with a strictly increasing tuple
of canonical pairs (i, j), i < j, ordered lexicographically.  Elements are
sparse dicts monomial -> rational, an int where integral and a Fraction
otherwise: the structure constants of the relation are signs, so normal
forms (and the L0-adjoint action on int elements) have int coefficients,
while omega_I carries the halves of its contractions as Fractions; the
morphism layer reads the omega basis and its inverse scaled to ints
(omega_int_tables).  The omega_I basis, the signed B_d action, the
crossing-number combinatorics and the L0-adjoint action live here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as Q
from functools import lru_cache

from . import sl5
from .linalg import add_into, add_term, format_scalar

# canonical pairs in lexicographic order
PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(1, 6) for j in range(i + 1, 6))

ZERO_DEL = (0, 0, 0, 0, 0)


def eps_t(i: int, j: int, k: int, l: int) -> tuple[int, int]:
    """(sign, t) for the bracket [d_ij, d_kl] = sign * del_t.

    When {i,j,k,l} has four distinct elements, t is the missing index of [5]
    and sign is the sign of the permutation (i,j,k,l,t); otherwise sign = 0
    and t = 1 (the value is irrelevant and never reaches a nonzero term).
    """
    s = {i, j, k, l}
    if len(s) < 4:
        return 0, 1
    t = ({1, 2, 3, 4, 5} - s).pop()
    perm = (i, j, k, l, t)
    inv = sum(1 for a in range(5) for b in range(a + 1, 5) if perm[a] > perm[b])
    return (-1 if inv % 2 else 1), t


def canon_pair(p: tuple[int, int]) -> tuple[int, tuple[int, int]]:
    """(sign, (i,j)) with i < j; sign 0 for the zero generator d_ii."""
    i, j = p
    if i == j:
        return 0, (i, j)
    if i < j:
        return 1, (i, j)
    return -1, (j, i)


def bar(p: tuple[int, int]) -> tuple[int, int]:
    return (p[1], p[0])


# ---------------------------------------------------------------------------
# PBW normal form

_order_cache: dict[tuple, dict] = {}


def del_add(a: tuple, b: tuple) -> tuple:
    """The sum of two del-multidegrees (5-tuples), unrolled."""
    a1, a2, a3, a4, a5 = a
    b1, b2, b3, b4, b5 = b
    return (a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5)


def _order_word(pairs: tuple) -> dict:
    """Normal-order a word of canonical pairs.

    Returns {(del5, sorted_pairs): int coeff}.  Rewrites: equal adjacent
    pairs annihilate; an out-of-order adjacent pair (B, A) with B > A becomes
    -(A, B) plus eps_{B,A} del_t times the word with both removed.  Each
    rewrite lowers the inversion count or the length, so this terminates;
    every coefficient is a sum of products of signs, hence an int.
    """
    cached = _order_cache.get(pairs)
    if cached is not None:
        return cached
    out: dict = {}
    for k in range(len(pairs) - 1):
        a, b = pairs[k], pairs[k + 1]
        if a < b:
            continue
        if a == b:
            break
        add_into(out, _order_word(pairs[:k] + (b, a) + pairs[k + 2:]), -1)
        sign, t = eps_t(a[0], a[1], b[0], b[1])
        if sign:
            rest = _order_word(pairs[:k] + pairs[k + 2:])
            add_into(out, {(d5[:t - 1] + (d5[t - 1] + 1,) + d5[t:], ps): c
                           for (d5, ps), c in rest.items()}, sign)
        break
    else:
        out = {(ZERO_DEL, pairs): 1}
    _order_cache[pairs] = out
    return out


def normal_form(word) -> dict:
    """PBW normal form of a word of generators.

    Each letter is either a pair (i, j) standing for d_ij (any orientation,
    d_ii = 0) or an integer t standing for del_t.  Returns a UElement with
    int coefficients (the relation's structure constants are signs).
    """
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
    base = tuple(del5)
    return {(del_add(base, d5), ps): sign * c
            for (d5, ps), c in _order_word(tuple(cpairs)).items()}


def u_mul(a: dict, b: dict) -> dict:
    """Product in U(L_-) of two elements in normal form."""
    out: dict = {}
    for (d5a, psa), ca in a.items():
        for (d5b, psb), cb in b.items():
            d5 = del_add(d5a, d5b)
            for (d5w, psw), cw in _order_word(psa + psb).items():
                add_term(out, (del_add(d5, d5w), psw), ca * cb * cw)
    return out


def degree(m: tuple) -> int:
    d5, ps = m
    return 2 * sum(d5) + len(ps)


def monomial_weight(m: tuple) -> sl5.Weight:
    """Weight of a PBW monomial: each pair letter contributes its standard
    weight, each del_t the weight of the dual standard vector."""
    d5, ps = m
    c = [0] * 5
    for (i, j) in ps:
        c[i - 1] += 1
        c[j - 1] += 1
    for t in range(5):
        c[t] -= d5[t]
    return sl5.from_gl(c)


def pbw_monomials(d: int) -> list[tuple]:
    """All PBW monomials of degree d, in the canonical order: number of del
    factors ascending, then del-multidegree lex, then pair tuple lex."""
    out = []
    for k, npairs, _count in pbw_layout(d):
        dels = sorted(rep_monomial((T, ()))[0]
                      for T in itertools.combinations_with_replacement(range(1, 6), k))
        for d5 in dels:
            for ps in itertools.combinations(PAIRS, npairs):
                out.append((d5, ps))
    return out


def pbw_layout(d: int) -> list[tuple]:
    """(k, n, count) per nonempty block of pbw_monomials(d), k ascending: the
    count monomials with k del factors and n = d - 2k pair factors."""
    return [(k, n, math.comb(k + 4, 4) * math.comb(len(PAIRS), n))
            for k in range(d // 2 + 1) if (n := d - 2 * k) <= len(PAIRS)]


# ---------------------------------------------------------------------------
# SIF subsets, crossing numbers, contractions, omega

def sif_subsets(d: int) -> list[tuple]:
    """All self-intersection-free subsets of the 2-subsets of [d], i.e. all
    partial matchings, each a sorted tuple of (k, l) with k < l."""
    def rec(avail):
        if not avail:
            return [()]
        first, rest = avail[0], avail[1:]
        out = [s for s in rec(rest)]  # first unmatched
        for i, other in enumerate(rest):
            pair = (first, other)
            for s in rec(rest[:i] + rest[i + 1:]):
                out.append(tuple(sorted((pair,) + s)))
        return out
    return sorted(set(rec(tuple(range(1, d + 1)))), key=lambda s: (len(s), s))


def crossing_number(S) -> int:
    """Number of crossing pairs: {k,l} and {h,m} cross when exactly one of
    k, l lies strictly between h and m."""
    S = [tuple(sorted(p)) for p in S]
    n = 0
    for (a, b), (c, e) in itertools.combinations(S, 2):
        if (c < a < e) != (c < b < e):
            n += 1
    return n


def contraction(I: tuple, kl: tuple) -> dict:
    """D_{{k,l}}(I) = 1/2 (-1)^{k+l} eps_{I_k,I_l} del_t as a UElement
    (positions are 1-based, k < l)."""
    k, l = kl
    a, b = I[k - 1], I[l - 1]
    sign, t = eps_t(a[0], a[1], b[0], b[1])
    if sign == 0:
        return {}
    d5 = tuple(1 if u == t - 1 else 0 for u in range(5))
    return {(d5, ()): Q(sign * (-1) ** (k + l), 2)}


def omega(I: tuple) -> dict:
    """omega_I = sum over SIF sets S of (-1)^{c(S)} D_S(I) d_{C_S(I)},
    normal-formed; homogeneous of degree len(I)."""
    d = len(I)
    out: dict = {}
    for S in sif_subsets(d):
        factors = [contraction(I, kl) for kl in S]
        if not all(factors):
            continue  # a matched pair with eps = 0
        coeff = Q((-1) ** crossing_number(S))
        d5 = (0,) * 5
        for factor in factors:
            ((dt, _), c), = factor.items()
            coeff *= c
            d5 = del_add(d5, dt)
        matched = {pos for p in S for pos in p}
        rest = tuple(I[pos] for pos in range(d) if pos + 1 not in matched)
        for (d5w, psw), c in normal_form(rest).items():
            add_term(out, (del_add(d5, d5w), psw), coeff * c)
    return out


# ---------------------------------------------------------------------------
# Signed permutation action

def bd_act(g, I: tuple) -> tuple:
    """Action of a signed permutation g = (sigma, etas) on an index tuple:
    J_j = I_{sigma_j} when eta_j = +1 and its bar otherwise.  sigma is a
    tuple of 1-based images."""
    sigma, etas = g
    if len(sigma) != len(I) or len(etas) != len(I):
        raise ValueError("rank mismatch")
    return tuple(I[sigma[j] - 1] if etas[j] == 1 else bar(I[sigma[j] - 1])
                 for j in range(len(I)))


def sign_character(g) -> int:
    """(-1)^{l(g)}: the permutation sign times the product of the eta flags."""
    sigma, etas = g
    s = sl5.perm_sign([x - 1 for x in sigma])
    for e in etas:
        s *= e
    return s


def canonical_orbit_rep(I: tuple):
    """Canonical B_d-orbit representative of I: pairs normalized to i < j and
    the tuple sorted; returns (sign, rep) or (0, None) when omega_I = 0
    (repeated pair up to bar).  The sign is -1 per reversed pair and per swap
    of the insertion sort."""
    sign = 1
    rep: list = []
    for i, j in I:
        if i == j:
            return 0, None
        if i > j:
            i, j = j, i
            sign = -sign
        k = len(rep)
        while k and rep[k - 1] > (i, j):
            k -= 1
            sign = -sign
        if k and rep[k - 1] == (i, j):
            return 0, None
        rep.insert(k, (i, j))
    return sign, tuple(rep)


# ---------------------------------------------------------------------------
# L0 action

def l0_adjoint(s: int, r: int, u: dict) -> dict:
    """Adjoint action of x_s d/dx_r on a UElement, extended as an even
    derivation: [x_s dr, d_ij] = delta_ri d_sj + delta_rj d_is and
    [x_s dr, del_t] = -delta_ts del_r.  The structure constants are ints, so
    int coefficients in give int coefficients out."""
    out: dict = {}
    for (d5, ps), c in u.items():
        e = d5[s - 1]
        if e:
            nd = list(d5)
            nd[s - 1] -= 1
            nd[r - 1] += 1
            add_term(out, (tuple(nd), ps), -e * c)
        for pos, (i, j) in enumerate(ps):
            if i == r:
                letter = (s, j)
            elif j == r:
                letter = (i, s)
            else:
                continue
            word = ps[:pos] + (letter,) + ps[pos + 1:]
            add_into(out, {(del_add(d5, d5w), psw): cw
                           for (d5w, psw), cw in normal_form(word).items()}, c)
    return out


def d_arrow(s: int, r: int, I: tuple) -> dict:
    """The substitution operator: sum over entry slots of I carrying the
    letter r of omega of the tuple with that letter replaced by s."""
    out: dict = {}
    for pos, (i, j) in enumerate(I):
        if i == r:
            add_into(out, omega(I[:pos] + ((s, j),) + I[pos + 1:]))
        if j == r:
            add_into(out, omega(I[:pos] + ((i, s),) + I[pos + 1:]))
    return out


# ---------------------------------------------------------------------------
# The omega basis of (U_-)_d

@lru_cache(maxsize=8)
def omega_basis(d: int):
    """Representatives (T, I) and their expansions in PBW monomials.

    T runs over nondecreasing tuples in [5]^k and I over canonical B-orbit
    representatives (strictly increasing tuples of canonical pairs) with
    2k + len(I) = d.  Returns (reps, cols) with cols[i] the UElement
    del_T omega_I, by del count k ascending.  The matrix is square
    unitriangular in that order: the level-k component of each column is
    exactly the PBW monomial (T, I) with coefficient 1.  One result per
    degree is memoized and shared, so callers only read reps and cols.
    """
    reps = []
    cols = []
    for k, npairs, _count in pbw_layout(d):
        omegas = [(I, omega(I)) for I in itertools.combinations(PAIRS, npairs)]
        for T in itertools.combinations_with_replacement(range(1, 6), k):
            d5 = rep_monomial((T, ()))[0]
            for I, om in omegas:
                col = {}
                for (d5w, psw), c in om.items():
                    col[(del_add(d5, d5w), psw)] = c
                reps.append((T, I))
                cols.append(col)
    return reps, cols


@lru_cache(maxsize=8)
def omega_int_tables(d: int):
    """The change of basis of omega_basis(d) and its inverse on ints:
    (s, rows, t, cols), each of rows and cols a dict rep -> tuple of
    (PBW monomial, int) in the order of omega_basis.  cols[rep] is t times
    the expansion of del_T omega_I, and rows[rep] is s times the row of the
    inverse, so that theta_rep = sum rows[rep][m] Phi_m / s; s and t are the
    least positive ints that clear the halves (1 at d = 1, 2 at d = 2 and 3,
    4 at d = 4).  The inverse comes by back-substitution on the
    unitriangular structure: row i is the diagonal monomial of rep i minus c
    times row j for each earlier column j that holds it with coefficient c,
    taken in basis order through an index monomial -> columns, so the build
    is O(nnz).  One result per degree is memoized and shared."""
    reps, cols = omega_basis(d)
    holders: dict = {}
    for j, col in enumerate(cols):
        for m, c in col.items():
            holders.setdefault(m, []).append((j, c))
    inv: list = []
    for i, rep in enumerate(reps):
        m0 = rep_monomial(rep)
        row = {m0: Q(1)}
        for j, c in holders[m0]:  # ascending, and column i holds m0 last
            if j == i:
                break
            add_into(row, inv[j], -c)
        inv.append(row)

    def scaled(table):
        k = math.lcm(*(c.denominator for vec in table for c in vec.values()))
        return k, {rep: tuple((m, c.numerator * (k // c.denominator)) for m, c in vec.items())
                   for rep, vec in zip(reps, table)}

    s, rows = scaled(inv)
    t, tcols = scaled(cols)
    return s, rows, t, tcols


def rep_monomial(rep) -> tuple:
    """The diagonal PBW monomial of a basis representative (T, I)."""
    T, I = rep
    d5 = [0] * 5
    for t in T:
        d5[t - 1] += 1
    return (tuple(d5), I)


# ---------------------------------------------------------------------------
# Serialization

def monomial_to_obj(m: tuple) -> dict:
    d5, ps = m
    return {"del": list(d5), "pairs": [list(p) for p in ps]}


def monomial_from_obj(o: dict) -> tuple:
    return (tuple(o["del"]), tuple(tuple(p) for p in o["pairs"]))


def uelement_to_obj(u: dict) -> list:
    items = sorted(u.items(), key=lambda kv: (sum(kv[0][0]), kv[0]))
    return [{"monomial": monomial_to_obj(m), "coeff": format_scalar(c)}
            for m, c in items]


def format_monomial(m: tuple) -> str:
    d5, ps = m
    parts = []
    for t, e in enumerate(d5, start=1):
        if e == 1:
            parts.append(f"del{t}")
        elif e > 1:
            parts.append(f"del{t}^{e}")
    for (i, j) in ps:
        parts.append(f"d{i}{j}")
    return " ".join(parts) if parts else "1"


def format_uelement(u: dict) -> str:
    if not u:
        return "0"
    items = sorted(u.items(), key=lambda kv: (sum(kv[0][0]), kv[0]))
    bits = []
    for m, c in items:
        cs = format_scalar(c)
        mono = format_monomial(m)
        if mono == "1":
            bits.append(cs)
        elif cs == "1":
            bits.append(mono)
        elif cs == "-1":
            bits.append(f"-{mono}")
        else:
            bits.append(f"{cs} {mono}")
    out = " + ".join(bits)
    return out.replace("+ -", "- ")


def latex_monomial(m: tuple) -> str:
    d5, ps = m
    parts = []
    for t, e in enumerate(d5, start=1):
        if e == 1:
            parts.append(f"\\partial_{t}")
        elif e > 1:
            parts.append(f"\\partial_{t}^{{{e}}}")
    for (i, j) in ps:
        parts.append(f"d_{{{i}{j}}}")
    return "".join(parts) if parts else "1"


def latex_uelement(u: dict) -> str:
    if not u:
        return "0"
    items = sorted(u.items(), key=lambda kv: (sum(kv[0][0]), kv[0]))
    bits = []
    for m, c in items:
        num, den = c.numerator, c.denominator
        mag = f"\\tfrac{{{abs(num)}}}{{{den}}}" if den != 1 else (str(abs(num)) if abs(num) != 1 else "")
        term = ("-" if num < 0 else "+") + mag + latex_monomial(m)
        bits.append(term)
    s = "".join(bits)
    return s[1:] if s.startswith("+") else s
