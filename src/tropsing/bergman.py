"""Singularity coefficient matrix, Gale dual, and the matroid behind its kernel.

The curves through a fixed torus point with vanishing first derivatives form
the kernel of a 3 x s matrix A.  Its tropicalization only depends on the
matroid of the columns of a Gale dual B of A, and its maximal cones are the
weight classes of complete flags of flats of that matroid.  Everything here
is exact.  A's column matroid is read off its vanishing 3 x 3 minors, once
per matrix: its flats of rank below 3 and its cocircuits.  B's matroid is the
dual, so closures, flats and flags follow from A's rank function without
any elimination; only loop-free membership sweeps an incremental span of
B's columns, which keeps it an independent route.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import linalg
from .errors import (
    ConfigurationError,
    DependentPivotsError,
    MalformedFlagError,
    TooLargeError,
    TropsingError,
    ZeroTorusCoordinateError,
)
from .lattice import Circuit, orient

DEFAULT_LIMIT = 12


@dataclass(frozen=True)
class CoefficientMatrix:
    """3 x s exact matrix whose kernel parametrizes curves singular at a point."""

    rows: tuple
    config: object
    base_point: tuple  # (p, q) for torus points, (1, 0) for the boundary case

    @property
    def size(self) -> int:
        return len(self.rows[0])

    def column(self, i):
        return tuple([row[i] for row in self.rows])

    @cached_property
    def minor_zero_pattern(self):
        """Index triples whose 3 x 3 minor vanishes: the matroid of the columns."""
        cols = [self.column(i) for i in range(self.size)]
        return frozenset(
            t for t in combinations(range(self.size), 3) if minor(*[cols[i] for i in t]) == 0
        )

    @cached_property
    def flats_by_rank(self):
        """Flats of rank 0, 1 and 2 of the column matroid, as bitmasks.

        Read off `minor_zero_pattern`.  The columns i, j with a nonvanishing
        minor (i, j, k) are independent and span the hyperplane of every k
        without one.  A column in no nonvanishing minor is zero, the only
        flat of rank 0; two nonzero columns in none together are parallel.
        """
        s = self.size
        completions = {}  # independent pair -> the columns completing it to a basis
        for t in combinations(range(s), 3):
            if t not in self.minor_zero_pattern:
                i, j, k = t
                for pair, c in (((i, j), k), ((i, k), j), ((j, k), i)):
                    completions[pair] = completions.get(pair, 0) | 1 << c
        if not completions:
            raise TropsingError("coefficient matrix has rank < 3")
        full = (1 << s) - 1
        nonzero = sorted({i for pair in completions for i in pair})
        loops = full & ~bit_mask(nonzero, s)
        lines = set()
        for i in nonzero:
            parallel = (j for j in nonzero if (min(i, j), max(i, j)) not in completions)
            lines.add(loops | bit_mask(parallel, s))
        planes = {full & ~c for c in completions.values()}
        return (loops,), tuple(sorted(lines)), tuple(sorted(planes))

    @cached_property
    def cocircuits(self):
        """Complements of the column matroid's hyperplanes, by size, then indices."""
        full = (1 << self.size) - 1
        found = (frozenset(bit_indices(full & ~h)) for h in self.flats_by_rank[2])
        return tuple(sorted(found, key=lambda f: (len(f), sorted(f))))

    def rank_of(self, mask) -> int:
        """Rank of the column set `mask` (a bitmask): the least rank of a flat over it."""
        for r, flats in enumerate(self.flats_by_rank):
            if any(not mask & ~f for f in flats):
                return r
        return 3


def bit_indices(mask):
    """Sorted indices of the set bits of a nonnegative integer."""
    return tuple([i for i in range(mask.bit_length()) if mask >> i & 1])


def bit_mask(indices, size) -> int:
    """Integer with exactly the bits at the given indices in range(size) set."""
    mask = 0
    for i in indices:
        if not 0 <= i < size:
            raise ConfigurationError(f"column index {i} out of range for {size} columns")
        mask |= 1 << i
    return mask


def minor(u, v, w):
    """Determinant of the 3 x 3 matrix with columns u, v, w."""
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - v[0] * (u[1] * w[2] - u[2] * w[1])
        + w[0] * (u[1] * v[2] - u[2] * v[1])
    )


def coefficient_matrix(config, p=1, q=1) -> CoefficientMatrix:
    """Matrix of the conditions f(p,q) = f_x(p,q) = f_y(p,q) = 0.

    For (p, q) = (1, 1) the rows are the all-ones vector and the two
    coordinate vectors of the configuration; for other torus points each
    column is scaled by p^i q^j, which leaves the matroid unchanged.
    """
    p, q = Fraction(p), Fraction(q)
    if p == 0 or q == 0:
        raise ZeroTorusCoordinateError("base point must lie in the torus")
    rows = [[], [], []]
    for (i, j) in config.points:
        scale = (p ** i) * (q ** j)
        rows[0].append(scale)
        rows[1].append(scale * i)
        rows[2].append(scale * j)
    return CoefficientMatrix(tuple([tuple(r) for r in rows]), config, (p, q))


@dataclass(frozen=True)
class GaleDual:
    """(s-3) x s matrix whose rows span the kernel of the coefficient matrix.

    `matrix` is stored in the original column order; `pivots_first()` returns
    the (-A1^t | I) presentation obtained by moving the pivot columns to the
    front, which is how such matrices are usually written down.
    """

    matrix: tuple
    pivots: tuple
    coefficient: CoefficientMatrix

    @property
    def size(self) -> int:
        return self.coefficient.size

    def column(self, i):
        return tuple([row[i] for row in self.matrix])

    def column_order(self):
        rest = [i for i in range(self.size) if i not in self.pivots]
        return tuple(self.pivots) + tuple(rest)

    def pivots_first(self):
        order = self.column_order()
        return tuple([tuple([row[i] for i in order]) for row in self.matrix])


def gale_dual(A: CoefficientMatrix, pivots=None) -> GaleDual:
    """Gale dual of A by Gaussian elimination on a pivot triple.

    The default pivot triple is the first (in canonical column order) whose
    columns are linearly independent.  Raises DependentPivotsError otherwise.
    """
    s = A.size
    if pivots is None:
        for cand in combinations(range(s), 3):
            if minor(*[A.column(i) for i in cand]) != 0:
                pivots = cand
                break
        if pivots is None:
            raise DependentPivotsError("matrix has rank < 3")
    else:
        pivots = tuple([int(i) for i in pivots])
        for i in pivots:
            if not 0 <= i < s:
                raise ConfigurationError(f"pivot index {i} out of range for {s} columns")
        if len(set(pivots)) != 3:
            raise DependentPivotsError("need three distinct pivot indices")
        if minor(*[A.column(i) for i in pivots]) == 0:
            raise DependentPivotsError(f"pivot columns {pivots} are dependent")
    rest = [i for i in range(s) if i not in pivots]
    order = list(pivots) + rest
    permuted = [[A.rows[r][i] for i in order] for r in range(3)]
    reduced, piv_cols = linalg.rref(permuted)
    if piv_cols != (0, 1, 2):
        raise DependentPivotsError(f"elimination pivoted on columns {piv_cols}")
    if all(x == 1 for x in A.rows[0]):
        # transformed points live on the plane {t + x + y = 1}
        for i in range(s):
            if sum(reduced[r][i] for r in range(3)) != 1:
                raise TropsingError(f"reduced column {i} does not sum to 1")
    k = s - 3
    b_perm = []
    for r in range(k):
        row = [-reduced[j][3 + r] for j in range(3)]
        row += [Fraction(1) if c == r else Fraction(0) for c in range(k)]
        b_perm.append(row)
    matrix = []
    for row in b_perm:
        orig = [Fraction(0)] * s
        for pos, col in enumerate(order):
            orig[col] = row[pos]
        matrix.append(tuple(orig))
    gd = GaleDual(tuple(matrix), tuple(pivots), A)
    for arow in A.rows:
        for brow in gd.matrix:
            if sum(a * b for a, b in zip(arow, brow)) != 0:
                raise TropsingError("Gale dual rows are not orthogonal to the matrix")
    return gd


def closure_mask(A: CoefficientMatrix, mask) -> int:
    """Closure, in the matroid of A's Gale dual, of the column set `mask`.

    That matroid is the dual of A's, with rank r_B(S) = |S| + r_A(E - S) - 3.
    So e outside S lies in cl_B(S) iff r_A(T - e) < r_A(T) for T = E - S,
    that is iff T - e lies in a flat of A of rank r_A(T) - 1.
    """
    rest = ((1 << A.size) - 1) & ~mask
    r = A.rank_of(rest)
    if r == 0:
        return mask
    for flat in A.flats_by_rank[r - 1]:
        left = rest & ~flat
        if not left & (left - 1):  # a single column
            mask |= left
    return mask


def is_flat(B: GaleDual, subset) -> bool:
    """True iff the span of the chosen columns contains no further column."""
    mask = bit_mask(subset, B.size)
    return closure_mask(B.coefficient, mask) == mask


@dataclass(frozen=True)
class FlagOfFlats:
    """Complete chain of flats F_1 < ... < F_{s-3} = ground set.

    Each flat is a sorted tuple of distinct indices strictly containing the
    flat before it, or construction raises MalformedFlagError; so block k,
    F_k minus F_{k-1}, has the size of that step.
    """

    flats: tuple

    def __post_init__(self):
        for k, flat in enumerate(self.flats):
            if list(flat) != sorted(set(flat)):
                raise MalformedFlagError(f"flat {k} {list(flat)} is not sorted without repeats")
            if not set(self.flats[k - 1] if k else ()) < set(flat):
                raise MalformedFlagError(
                    f"flat {k} {list(flat)} does not strictly contain the flat before it"
                )

    @classmethod
    def _unchecked(cls, flats):
        """The flag on a chain already known to keep the invariant, unchecked.

        The check, even as one set per flat, took the 3 x 3 grid's `flags` job
        (12 240 flags) from 0.173 s to 0.218 s (min of 7; CPython 3.11, Xeon).
        """
        flag = object.__new__(cls)
        object.__setattr__(flag, "flats", flats)
        return flag

    @property
    def blocks(self):
        out = []
        prev = set()
        for f in self.flats:
            out.append(tuple([i for i in f if i not in prev]))
            prev = set(f)
        return tuple(out)

    def block_of(self, i) -> int:
        """1-based position of the block containing index i."""
        for pos, block in enumerate(self.blocks, start=1):
            if i in block:
                return pos
        raise KeyError(i)


@dataclass(frozen=True)
class WeightClass:
    """Ordered partition of the ground set, blocks listed by increasing height."""

    blocks: tuple

    def flag_chain(self):
        chain = []
        acc = []
        for block in self.blocks:
            acc.extend(block)
            chain.append(tuple(sorted(acc)))
        return tuple(chain)


def enumerate_flags(B: GaleDual, limit=None):
    """All complete flags of flats of the column matroid of B.

    Depth-first extension by rank over bitmasks of columns.  Each flat's
    covers are found once, one closure each, as they partition the columns
    outside it.  An explicit stack rather than a recursive closure, so
    nothing outlives the call waiting for the cycle collector.  Output
    canonically sorted.  Guarded by the enumeration limit (default 12).
    """
    s = B.size
    if s > (DEFAULT_LIMIT if limit is None else int(limit)):
        raise TooLargeError(f"flag enumeration disabled for s={s}; raise the limit")
    A = B.coefficient
    full = (1 << s) - 1
    top_rank = len(B.matrix)
    results = []
    covers = {}  # flat mask -> its covers, as (mask, sorted indices) pairs
    stack = [((), 0)]
    while stack:
        chain, current = stack.pop()
        if len(chain) == top_rank:
            if current == full:
                results.append(FlagOfFlats._unchecked(chain))  # covers nest strictly
            continue
        if current not in covers:
            covers[current] = found = []
            seen = current
            for e in range(s):
                if not seen >> e & 1:
                    mask = closure_mask(A, current | 1 << e)
                    seen |= mask
                    found.append((mask, bit_indices(mask)))
        for mask, flat in covers[current]:
            stack.append((chain + (flat,), mask))
    return tuple(sorted(results, key=lambda f: f.flats))


@dataclass(frozen=True)
class FlagClass:
    case: str  # 'A' (4-element circuit on top) or 'B' (collinear circuit on top)
    circuit: Circuit
    pair: tuple = None        # case B: the two off-line indices sharing a block
    tail_on_line: bool = None  # case B: later blocks verified to sit on the line


def classify_flag(flag: FlagOfFlats, config) -> FlagClass:
    """Sort a complete flag into one of the two admissible shapes.

    Either the top block is a 4-element circuit and all other blocks are
    singletons, or the top block is a collinear triple, exactly one earlier
    block is a pair of points off that line, and every block between the two
    sits on the line.  Anything else raises MalformedFlagError.  The shape is
    read off the strictly nested chain: the top block is the last flat minus
    the one below, and a block is a singleton or a pair where the size grows
    by 1 or 2.
    """
    flats = flag.flats
    below = flats[-2] if len(flats) > 1 else ()
    top = tuple(sorted(set(flats[-1]).difference(below)))
    circuit = config.circuit_at(top)
    if circuit is None:
        raise MalformedFlagError(f"top block {top} is not a circuit")
    # the blocks below the top are nonempty, so their indices outnumber them
    # by 0 if all are singletons and by 1 if one is a pair, the rest singletons
    excess = len(below) - (len(flats) - 1)
    if len(top) == 4:
        if excess:
            raise MalformedFlagError("4-element top block requires singleton blocks")
        return FlagClass("A", circuit)
    if excess != 1:
        raise MalformedFlagError("expected exactly one pair block below the circuit")
    j = next(k for k, flat in enumerate(flats) if len(flat) == k + 2)
    pair = tuple(sorted(set(flats[j]).difference(flats[j - 1] if j else ())))
    pts = config.points
    a, b = pts[top[0]], pts[top[1]]
    if not (orient(a, b, pts[pair[0]]) and orient(a, b, pts[pair[1]])):
        raise MalformedFlagError("pair block must lie off the circuit line")
    for k in range(j + 1, len(flats) - 1):
        if orient(a, b, pts[sum(flats[k]) - sum(flats[k - 1])]):  # the step's one new index
            raise MalformedFlagError("blocks above the pair must lie on the line")
    return FlagClass("B", circuit, pair, True)


@dataclass(frozen=True)
class WeightFlagResult:
    weight_class: WeightClass
    flag: tuple  # cumulative chain, last entry is the full ground set
    is_flag_of_flats: bool


def flag_from_weight(B: GaleDual, u) -> WeightFlagResult:
    """Level sets of u as an ordered partition, with the flat test per flat.

    The induced chain is a flag of flats exactly when u lies in the
    tropicalized kernel, which is how Bergman membership is decided here.
    """
    u = [Fraction(x) for x in u]
    if len(u) != B.size:
        raise ConfigurationError("weight vector length does not match the matrix")
    levels = sorted(set(u))
    blocks = tuple([tuple([i for i, x in enumerate(u) if x == lvl]) for lvl in levels])
    wc = WeightClass(blocks)
    chain = wc.flag_chain()
    ok = all(is_flat(B, f) for f in chain)
    return WeightFlagResult(wc, chain, ok)


def weight_class_sample(flag, gaps=None):
    """Height vector inside the weight class: strict steps between blocks.

    `flag` may be a FlagOfFlats or a WeightClass; `gaps` optionally gives the
    positive increment per step (default all 1, so block k sits at height k).
    """
    blocks = flag.blocks
    n = len(blocks)
    if gaps is None:
        steps = [Fraction(1)] * n
    else:
        steps = [Fraction(g) for g in gaps]
        if len(steps) != n or any(g <= 0 for g in steps):
            raise ConfigurationError("need one positive gap per block")
    size = sum(len(b) for b in blocks)
    u = [Fraction(0)] * size
    h = Fraction(0)
    for block, step in zip(blocks, steps):
        h += step
        for i in block:
            u[i] = h
    return tuple(u)


def bergman_member_loopfree(B: GaleDual, w) -> bool:
    """Membership via optimal-weight bases: no ground element may be a loop.

    With heights ordered so that later blocks are larger, an element belongs
    to some optimal basis iff its column is independent of the columns of
    strictly smaller weight, so we sweep the levels upward keeping an
    incremental span.  (Sweeping downward instead would implement the
    opposite sign convention and disagree with the circuit oracle.)
    """
    w = [Fraction(x) for x in w]
    if len(w) != B.size:
        raise ConfigurationError("weight vector length does not match the matrix")
    levels = {}
    for i, x in enumerate(w):
        levels.setdefault(x, []).append(i)
    span = linalg.IncrementalSpan()
    for lvl in sorted(levels):
        group = levels[lvl]
        for i in group:
            if span.contains(B.column(i)):
                return False
        for i in group:
            span.add(B.column(i))
    return True


def bergman_member_circuit_oracle(A: CoefficientMatrix, w) -> bool:
    """Independent membership oracle for the tropicalized kernel.

    For linear ideals, membership means every minimal-support row-space vector
    attains its maximum weight at least twice over its support.
    """
    w = [Fraction(x) for x in w]
    for support in A.cocircuits:
        top = max(w[i] for i in support)
        if sum(1 for i in support if w[i] == top) < 2:
            return False
    return True
