"""Exact rational scalars and sparse linear algebra over Q.

Everything here is exact: scalars are `fractions.Fraction`, elimination is
plain fraction arithmetic with deterministic pivoting, and there is no
tolerance anywhere.  Matrices are stored sparsely as {(row, col): Fraction}
with no explicit zeros.
"""

from __future__ import annotations

from fractions import Fraction as Q

__all__ = [
    "Q",
    "parse_scalar",
    "format_scalar",
    "SparseMatrix",
    "rank",
    "null_space",
    "solve",
    "RowReducer",
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


_ZERO = Q(0)


def add_into(acc: dict, other: dict, scale: Q = Q(1)) -> None:
    """acc += scale * other for sparse dicts, dropping zeros."""
    if not scale:
        return
    for k, v in other.items():
        s = acc.get(k, _ZERO) + scale * v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


class SparseMatrix:
    """Sparse matrix over Q; entries maps (row, col) -> nonzero Fraction."""

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], Q] = {}
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    def __getitem__(self, ij):
        return self.entries.get(ij, Q(0))

    def __setitem__(self, ij, v):
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"index {ij} out of bounds for {self.nrows}x{self.ncols}")
        v = Q(v)
        if v:
            self.entries[ij] = v
        else:
            self.entries.pop(ij, None)

    @classmethod
    def from_rows(cls, rows, ncols=None):
        """Build from an iterable of dense rows (lists) or sparse rows (dicts)."""
        rows = list(rows)
        if ncols is None:
            width = 0
            for r in rows:
                if isinstance(r, (list, tuple)):
                    width = max(width, len(r))
                elif r:
                    width = max(width, max(r) + 1)
            ncols = width
        m = cls(len(rows), ncols)
        for i, r in enumerate(rows):
            items = enumerate(r) if isinstance(r, (list, tuple)) else r.items()
            for j, v in items:
                if v:
                    m[i, j] = v
        return m

    def rows(self) -> list[dict[int, Q]]:
        out = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def mul_vector(self, x: dict[int, Q]) -> dict[int, Q]:
        out: dict[int, Q] = {}
        for (i, j), v in self.entries.items():
            xv = x.get(j)
            if xv:
                s = out.get(i, Q(0)) + v * xv
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return out


def _eliminate(rows: list[dict[int, Q]]) -> list[tuple[int, dict[int, Q]]]:
    """Exact Gaussian elimination to reduced echelon form.

    Pivot choice: lowest-index nonzero column first, then the structurally
    sparsest row among those hitting that column (ties by lowest row index).
    Returns a list of (pivot column, row) with unit pivots, sorted by column;
    each pivot column occurs in its own row only.
    """
    work = [(i, dict(r)) for i, r in enumerate(rows) if r]
    pivots: list[tuple[int, dict[int, Q]]] = []
    while work:
        col = min(min(r) for _, r in work)
        best = min((k for k, (_, r) in enumerate(work) if col in r),
                   key=lambda k: (len(work[k][1]), work[k][0]))
        _, piv = work.pop(best)
        pv = piv[col]
        piv = {j: v / pv for j, v in piv.items()}
        nxt = []
        for idx, r in work:
            c = r.get(col)
            if c:
                add_into(r, piv, -c)
            if r:
                nxt.append((idx, r))
        work = nxt
        pivots.append((col, piv))
    pivots.sort(key=lambda t: t[0])
    for k in range(len(pivots) - 1, 0, -1):
        col, prow = pivots[k]
        for k2 in range(k):
            c = pivots[k2][1].get(col)
            if c:
                add_into(pivots[k2][1], prow, -c)
    return pivots


def rank(m: SparseMatrix) -> int:
    """Rank over Q by exact elimination."""
    return len(_eliminate(m.rows()))


def null_space(m: SparseMatrix) -> list[dict[int, Q]]:
    """Echelonized basis of {v : Mv = 0}.

    Each basis vector has a distinguished free coordinate equal to 1 that does
    not appear in the other basis vectors; the basis has m.ncols - rank(m)
    elements and is deterministic.
    """
    pivots = _eliminate(m.rows())
    pivot_set = {c for c, _ in pivots}
    basis = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        v = {f: Q(1)}
        for c, row in pivots:
            coeff = row.get(f)
            if coeff:
                v[c] = -coeff
        basis.append(v)
    return basis


def solve(m: SparseMatrix, b) -> dict[int, Q] | None:
    """Some x with Mx = b, or None when b is not in the column space."""
    if isinstance(b, (list, tuple)):
        b = {i: Q(v) for i, v in enumerate(b) if v}
    aug = m.ncols  # augmented column index
    rows = m.rows()
    for i, v in b.items():
        if v:
            rows[i][aug] = Q(v)
    pivots = _eliminate(rows)
    x: dict[int, Q] = {}
    for c, row in pivots:
        if c == aug:
            return None  # a row reduced to 0 = 1: inconsistent
        v = row.get(aug)
        if v:
            x[c] = v
    return x


class RowReducer:
    """Incremental reduced echelon form over arbitrary hashable column keys.

    Rows are sparse dicts key -> Q.  insert() reduces a new row against the
    basis, absorbs the remainder as a new unit-pivot row, and back-eliminates
    the new pivot from the older rows, so no pivot key ever appears in another
    row.  Used for rank tracking and kernel extraction in the search engines.
    """

    def __init__(self):
        self.pivots: dict[object, dict] = {}

    def reduce(self, row: dict) -> dict:
        row = {k: v for k, v in row.items() if v}
        hits = [k for k in row if k in self.pivots]
        while hits:
            for k in hits:
                c = row.get(k)
                if c:
                    add_into(row, self.pivots[k], -c)
            hits = [k for k in row if k in self.pivots]
        return row

    def insert(self, row: dict) -> bool:
        row = self.reduce(row)
        if not row:
            return False
        k = min(row, key=repr)
        pv = row[k]
        unit = {j: v / pv for j, v in row.items()}
        for other in self.pivots.values():
            c = other.get(k)
            if c:
                add_into(other, unit, -c)
        self.pivots[k] = unit
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel(self, keys: list) -> list[dict[int, Q]]:
        """Kernel basis of the accumulated rows seen as linear forms on `keys`."""
        index = {k: i for i, k in enumerate(keys)}
        mat = SparseMatrix.from_rows(
            [{index[k]: v for k, v in row.items()} for row in self.pivots.values()],
            ncols=len(keys))
        return null_space(mat)
