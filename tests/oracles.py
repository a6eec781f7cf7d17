"""Reference routines the tests compare the package against."""

from tropsing.linalg import rank


def same_span(vectors_a, vectors_b) -> bool:
    """Whether two lists of vectors span the same space, by Gaussian elimination."""
    a = [list(v) for v in vectors_a]
    b = [list(v) for v in vectors_b]
    ra = rank(a) if a else 0
    rb = rank(b) if b else 0
    return ra == rb == rank(a + b)
