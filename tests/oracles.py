"""Reference routines the tests compare the package against."""

from tropsing.bergman import FlagClass
from tropsing.errors import MalformedFlagError
from tropsing.lattice import Circuit, canonical_key, circuit_kind, orient, point_in_polygon
from tropsing.linalg import rank


def same_span(vectors_a, vectors_b) -> bool:
    """Whether two lists of vectors span the same space, by Gaussian elimination."""
    a = [list(v) for v in vectors_a]
    b = [list(v) for v in vectors_b]
    ra = rank(a) if a else 0
    rb = rank(b) if b else 0
    return ra == rb == rank(a + b)


def chain_blocks(flats):
    """Each flat minus the flat before it, in the flat's order."""
    out = []
    prev = set()
    for f in flats:
        out.append(tuple([i for i in f if i not in prev]))
        prev = set(f)
    return tuple(out)


def classify_flag_by_blocks(flats, config) -> FlagClass:
    """The flag dichotomy decided on explicit blocks, with a circuit test per flag."""
    blocks = chain_blocks(flats)
    top = blocks[-1]
    pts = config.points
    kind = circuit_kind(pts[i] for i in top)
    if kind is None:
        raise MalformedFlagError(f"top block {tuple(top)} is not a circuit")
    if len(top) == 4:
        if any(len(b) != 1 for b in blocks[:-1]):
            raise MalformedFlagError("4-element top block requires singleton blocks")
        return FlagClass("A", Circuit(tuple(top), kind))
    pairs = [k for k, b in enumerate(blocks[:-1]) if len(b) == 2]
    if len(pairs) != 1 or any(
        len(b) != 1 for k, b in enumerate(blocks[:-1]) if k != pairs[0]
    ):
        raise MalformedFlagError("expected exactly one pair block below the circuit")
    j = pairs[0]
    pair = blocks[j]
    a, b = pts[top[0]], pts[top[1]]
    off_line = lambda i: orient(a, b, pts[i]) != 0
    if not (off_line(pair[0]) and off_line(pair[1])):
        raise MalformedFlagError("pair block must lie off the circuit line")
    for later in blocks[j + 1 : -1]:
        if off_line(later[0]):
            raise MalformedFlagError("blocks above the pair must lie on the line")
    return FlagClass("B", Circuit(tuple(top), kind), tuple(pair), True)


def lattice_points_by_box(cycle):
    """Lattice points of a convex vertex cycle by testing every point of its box."""
    xs = [p[0] for p in cycle]
    ys = [p[1] for p in cycle]
    found = []
    for j in range(min(ys), max(ys) + 1):
        for i in range(min(xs), max(xs) + 1):
            if point_in_polygon((i, j), cycle):
                found.append((i, j))
    return sorted(found, key=canonical_key)
