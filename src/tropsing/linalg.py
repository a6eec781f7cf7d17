"""Small dense exact linear algebra over Fraction.

Everything here works on sequences of row vectors whose entries are ints or
Fractions.  Sizes in this package are tiny (matrices up to roughly 12x12),
so plain Gaussian elimination is all we need.
"""

from fractions import Fraction


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns) where reduced_rows has the zero
    rows stripped.
    """
    m = [[frac(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1, 1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in m[:r]], tuple(pivots)


def rank(rows) -> int:
    reduced, _ = rref(rows)
    return len(reduced)


def kernel_basis(rows, ncols):
    """Reduced-echelon basis of {v : M v = 0} for the matrix with given rows.

    One basis vector per free column, carrying a 1 in that column; the
    result is deterministic.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][free]
        basis.append(tuple(v))
    return basis


class IncrementalSpan:
    """Maintains a reduced basis while columns get added one at a time."""

    def __init__(self):
        self.rows = []  # (leading index, reduced row with a 1 there)

    def _reduce(self, vec):
        v = [frac(x) for x in vec]
        for lead, row in self.rows:
            if v[lead] != 0:
                f = v[lead]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return all(x == 0 for x in self._reduce(vec))

    def add(self, vec) -> bool:
        """Add vec to the span; returns True if the rank grew."""
        v = self._reduce(vec)
        for i, x in enumerate(v):
            if x != 0:
                inv = Fraction(1, 1) / x
                self.rows.append((i, tuple([a * inv for a in v])))
                return True
        return False
