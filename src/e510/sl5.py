"""Root and weight combinatorics of sl5.

Weights are 4-tuples of integers: coordinates with respect to the fundamental
weights attached to the consecutive pairs (1,2), (2,3), (3,4), (4,5).  Derived
pair values lam_{ij} are always recomputed from the coordinates, never stored.
All arithmetic here is on plain integers: root coordinates come from the
integer matrix 5 C^{-1} followed by an exact division by 5.
"""

from __future__ import annotations

Weight = tuple  # 4 integers in fundamental-weight coordinates

# simple roots in fundamental coordinates: rows of the A4 Cartan matrix
SIMPLE_ROOTS: tuple[Weight, ...] = (
    (2, -1, 0, 0),
    (-1, 2, -1, 0),
    (0, -1, 2, -1),
    (0, 0, -1, 2),
)

# 5 times the inverse Cartan matrix of A4 (det C = 5, so this is integral)
_CARTAN_INV5 = (
    (4, 3, 2, 1),
    (3, 6, 4, 2),
    (2, 4, 6, 3),
    (1, 2, 3, 4),
)


def wadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def wsub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def pair_value(lam: Weight, i: int, j: int) -> int:
    """lam_{ij} = sum of consecutive coordinates from i to j-1, for i < j."""
    return sum(lam[k - 1] for k in range(i, j))


def is_dominant(lam: Weight) -> bool:
    return all(x >= 0 for x in lam)


def root_coefficients(delta: Weight):
    """Coefficients of delta on the simple roots, or None if not integral.

    delta = sum_i k_i alpha_i with k = C^{-1} delta = (5 C^{-1} delta) / 5,
    computed in integers; returns the 4-tuple of integers when every entry of
    5 C^{-1} delta is divisible by 5, else None.
    """
    a, b, c, d = delta
    ks = []
    for r0, r1, r2, r3 in _CARTAN_INV5:
        k, rem = divmod(r0 * a + r1 * b + r2 * c + r3 * d, 5)
        if rem:
            return None
        ks.append(k)
    return tuple(ks)


def dominance_compare(lam: Weight, mu: Weight) -> str:
    """Dominance order: 'equal', 'less-or-equal', 'greater-or-equal' or
    'incomparable'.

    lam <= mu iff mu - lam is a nonnegative integer combination of the simple
    roots; incomparability is a first-class result, not an error.
    """
    if lam == mu:
        return "equal"
    ks = root_coefficients(wsub(mu, lam))
    if ks is not None:
        if all(k >= 0 for k in ks):
            return "less-or-equal"
        if all(k <= 0 for k in ks):
            return "greater-or-equal"
    return "incomparable"


def dominated_depth(lam: Weight, mu: Weight):
    """Root-coefficient vector of mu - lam when lam <= mu, else None."""
    ks = root_coefficients(wsub(mu, lam))
    if ks is None or min(ks) < 0:
        return None
    return ks


def weyl_dimension(lam: Weight) -> int:
    """Dimension of the irreducible sl5-module of highest weight lam."""
    if not is_dominant(lam):
        raise ValueError(f"not dominant: {lam}")
    num, den = 1, 1
    for i in range(1, 5):
        for j in range(i + 1, 6):
            num *= pair_value(lam, i, j) + (j - i)
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Weyl product for {lam} is not an integer: {num}/{den}")
    return dim


def dual_weight(lam: Weight) -> Weight:
    """(a,b,c,d) -> (d,c,b,a); the highest weight of the dual module."""
    return tuple(reversed(lam))


def lowest_weight(lam: Weight) -> Weight:
    """The lowest weight of the irreducible module F(lam): -(lam*)."""
    return tuple(-x for x in reversed(lam))


def from_gl(c) -> Weight:
    """Fundamental coordinates of a gl5 weight vector (c_1..c_5)."""
    return tuple(c[i] - c[i + 1] for i in range(4))


def perm_sign(perm) -> int:
    """Sign of a permutation given as a list of images (0-based)."""
    inv = 0
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def dominant_weights_in_box(max_entry: int):
    """All dominant weights with every coordinate in [0, max_entry]."""
    rng = range(max_entry + 1)
    return [(a, b, c, d) for a in rng for b in rng for c in rng for d in rng]
