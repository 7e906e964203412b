"""Root and weight combinatorics of sl5.

Weights are 4-tuples of integers: coordinates with respect to the fundamental
weights attached to the consecutive pairs (1,2), (2,3), (3,4), (4,5).  Derived
pair values lam_{ij} are always recomputed from the coordinates, never stored.
All arithmetic here is on plain integers: root coordinates come from the
integer matrix 5 C^{-1} followed by an exact division by 5.

The kernels the search runs most (wadd, wsub, root_coefficients,
is_dominant, from_gl on gl5 5-tuples, and dominated_depth through them) are
unrolled expressions on 4-tuples of ints that build no generator or list and
check nothing.  check_weight is the check: the library's entry points pass the
weights they are given through it.
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


def check_weight(lam) -> Weight:
    """lam as a weight tuple, or ValueError unless it is 4 ints (bools are
    refused).  The kernels below unpack their arguments without checking, so
    the library's entry points check the weights they are given here."""
    try:
        lam = tuple(lam)
    except TypeError:
        raise ValueError(f"a weight is 4 integers, got {lam!r}") from None
    if len(lam) != 4 or any(type(x) is not int for x in lam):
        raise ValueError(f"a weight is 4 integers, got {lam!r}")
    return lam


def wadd(a: Weight, b: Weight) -> Weight:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 + b0, a1 + b1, a2 + b2, a3 + b3)


def wsub(a: Weight, b: Weight) -> Weight:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 - b0, a1 - b1, a2 - b2, a3 - b3)


def pair_value(lam: Weight, i: int, j: int) -> int:
    """lam_{ij} = sum of consecutive coordinates from i to j-1, for i < j."""
    return sum(lam[k - 1] for k in range(i, j))


def is_dominant(lam: Weight) -> bool:
    a, b, c, d = lam
    return a >= 0 and b >= 0 and c >= 0 and d >= 0


def root_coefficients(delta: Weight):
    """Coefficients of delta on the simple roots, or None if not integral.

    delta = sum_i k_i alpha_i with k = C^{-1} delta = (5 C^{-1} delta) / 5,
    computed in integers; returns the 4-tuple of integers when every entry of
    5 C^{-1} delta is divisible by 5, else None.  5 C^{-1} is integral (det C
    = 5), with rows (4,3,2,1), (3,6,4,2), (2,4,6,3), (1,2,3,4); row i is
    congruent to -i times the last row mod 5, so the last entry alone decides.
    """
    a, b, c, d = delta
    k4, rem = divmod(a + 2 * b + 3 * c + 4 * d, 5)
    if rem:
        return None
    return ((4 * a + 3 * b + 2 * c + d) // 5, (3 * a + 6 * b + 4 * c + 2 * d) // 5,
            (2 * a + 4 * b + 6 * c + 3 * d) // 5, k4)


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
    if ks is None or ks[0] < 0 or ks[1] < 0 or ks[2] < 0 or ks[3] < 0:
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
    c1, c2, c3, c4, c5 = c
    return (c1 - c2, c2 - c3, c3 - c4, c4 - c5)


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
