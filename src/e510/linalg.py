"""Exact rational scalars and sparse linear algebra over Q, and over F_p.

Everything here is exact: scalars are ints where integral and
`fractions.Fraction`s otherwise, elimination is plain rational arithmetic
with deterministic pivoting, and there is no tolerance anywhere.  No `/`
sees two ints, so no float can arise (`exact_div` divides; the pivot of
`RowReducer` is a Fraction).  Vectors and matrix rows are sparse dicts
key -> scalar with no explicit zeros, and `RowReducer` is the one
Gauss-Jordan eliminator; `add_term` adds one term, `add_into` a whole
vector.  `add_into` and `RowReducer` also work over a prime field F_p when
given a modulus p: values are then plain ints in range(p), and `to_fp` maps
a p-integral rational into F_p; `add_into` also takes unreduced and
negative ints there, and reduces every sum it stores.
`UnluckyPrime` is raised where F_p cannot stand in for Q because p divides
a denominator of the rational computation.
"""

from __future__ import annotations

from fractions import Fraction as Q

__all__ = [
    "Q",
    "parse_scalar",
    "format_scalar",
    "null_space",
    "RowReducer",
    "to_fp",
    "as_int",
    "exact_div",
    "UnluckyPrime",
]


def parse_scalar(s: str) -> Q:
    """Parse "p/q" or "p" into an exact rational."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return Q(int(num), int(den))
    return Q(int(s))


def format_scalar(x: Q) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class UnluckyPrime(ZeroDivisionError):
    """p divides a denominator of the rational computation being reduced mod
    p, so its F_p image does not exist: a rank drops mod p, or a rational is
    not p-integral.  The sieve checks the basis of a weight space whose
    raising columns it reads, their coordinates, and their target's basis
    once a column is not 0 mod p; with every column 0 the target basis is
    not needed, as A mod p is still the reduction of a p-integral A."""


def to_fp(x, p: int) -> int:
    """The image in F_p (an int in range(p)) of a rational or int x; raises
    UnluckyPrime when p divides its denominator."""
    den = x.denominator
    if den == 1:
        return x.numerator % p
    if den % p == 0:
        raise UnluckyPrime(f"{p} divides the denominator of {x}")
    return x.numerator * pow(den, -1, p) % p


def as_int(x):
    """x as an int when it is integral (a Fraction otherwise)."""
    return x if type(x) is int else x.numerator if x.denominator == 1 else x


def exact_div(a, b):
    """a / b for ints or Fractions a and b != 0: an int when the quotient is
    integral, a Fraction otherwise, and never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Q(a, b) if r else q
    return as_int(a / b)


def add_into(acc: dict, other: dict, scale=1, p: int | None = None) -> None:
    """acc += scale * other for sparse dicts, dropping zeros: a key whose sum
    is 0 is removed, and comes back at the end of acc if a later sum revives
    it.  A new entry is scale * v itself, with no zero added, so ints times
    an int scale (the default 1) stay ints (exact, and much cheaper than
    Fractions); a Fraction anywhere gives a Fraction.  With a modulus p the
    arithmetic is in F_p: values are ints in range(p), scale an int."""
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
                acc.pop(k, None)  # k may be absent: v can be 0 mod p


def add_term(acc: dict, key, value) -> None:
    """acc[key] += value over Q, as add_into(acc, {key: value}) does it but
    with no one-entry dict: a sum of 0 removes the key, and a key that comes
    back goes to the end."""
    got = acc.get(key, 0) + value
    if got:
        acc[key] = got
    else:
        acc.pop(key, None)


def null_space(rows, ncols: int) -> list[dict]:
    """Kernel basis of the sparse dict rows seen as linear forms on
    range(ncols), read off their reduced echelon form (RowReducer.kernel)."""
    red = RowReducer()
    for row in rows:
        red.insert(row)
    return red.kernel(range(ncols))


class RowReducer:
    """Incremental reduced row echelon form over ordered hashable column keys.

    Rows are sparse dicts key -> rational (int or Fraction).  insert()
    reduces a new row against the basis, absorbs the remainder as a new row
    with a unit pivot on its least key (dividing by the pivot as a Fraction
    over Q), and back-eliminates that key from the older rows, so no pivot key
    ever appears in another row and each row's pivot is its least key.  The
    result is the reduced echelon form of the rows inserted so far, unique for
    the natural order of the keys.

    A row may carry a combination dict (over labels of the inserted rows) that
    is reduced alongside it: combs[k] then expresses pivot row k, and each
    entry of relations a row that reduced to zero, as a combination of the
    inserted rows.  Either every insert carries a combination or none does.

    With a modulus p the reduction is over the field F_p instead: row and
    combination values are ints, kept in range(p).
    """

    def __init__(self, p: int | None = None):
        self.p = p
        self.pivots: dict[object, dict] = {}
        self.combs: dict[object, dict] = {}
        self.relations: list[dict] = []

    def reduce(self, row: dict, comb: dict | None = None) -> dict:
        """The remainder of row against the basis; comb, when given, is
        reduced alongside in place.  One pass suffices, because subtracting a
        pivot row changes no other pivot key's coefficient."""
        p = self.p
        if p is None:
            row = {k: v for k, v in row.items() if v}
        else:
            row = {k: v % p for k, v in row.items() if v % p}
        for k in [k for k in row if k in self.pivots]:
            c = row[k]
            add_into(row, self.pivots[k], -c, p)
            if comb is not None:
                add_into(comb, self.combs[k], -c, p)
        return row

    def insert(self, row: dict, comb: dict | None = None) -> bool:
        """Add a row; True when it raised the rank."""
        if comb is not None:
            comb = dict(comb)
        row = self.reduce(row, comb)
        if not row:
            if comb is not None:
                self.relations.append(comb)
            return False
        k = min(row)
        p = self.p
        if p is None:
            pv = Q(row[k])  # rows may hold ints: divide as Fractions
            unit = {j: v / pv for j, v in row.items()}
            if comb is not None:
                comb = {j: v / pv for j, v in comb.items()}
        else:
            inv = pow(row[k], -1, p)
            unit = {j: v * inv % p for j, v in row.items()}
            if comb is not None:
                comb = {j: v * inv % p for j, v in comb.items()}
        for key, other in self.pivots.items():
            c = other.get(k)
            if c:
                add_into(other, unit, -c, p)
                if comb is not None:
                    add_into(self.combs[key], comb, -c, p)
        self.pivots[k] = unit
        if comb is not None:
            self.combs[k] = comb
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel(self, keys) -> list[dict]:
        """Kernel basis of the rows seen as linear forms on `keys`, which must
        hold every key of every row in ascending order: one vector per
        non-pivot key f, with 1 at f and minus each pivot row's f entry at
        that row's pivot."""
        p = self.p
        basis = []
        for f in keys:
            if f in self.pivots:
                continue
            v = {f: Q(1) if p is None else 1}
            for k, row in self.pivots.items():
                c = row.get(f)
                if c:
                    v[k] = -c if p is None else p - c
            basis.append(v)
        return basis
