"""Seed-generated job lists for the three benchmark workloads.

Stdlib only: this module never imports tropsing, so the program under test
sees nothing but the generated inputs.  A workload's job list is an endless
sequence of rounds; round r is drawn from its own generator seeded with
(workload, seed, r), so the same seed always gives byte-identical rounds and
a run that completes more rounds only appends to the list.  No input repeats
across rounds except where the workload fixes it (the matroids and the flag
jobs), which is what a per-input cache would see in a user session.
"""

import json
import random
from fractions import Fraction

DEFAULT_SEED = 1

# ---------------------------------------------------------------- geometry


def orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def hull(points):
    """CCW convex hull vertices (monotone chain), collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def lattice_points(vertices):
    """All lattice points of the polygon, in the canonical (y, then x) order."""
    cyc = hull(vertices)
    xs = [p[0] for p in cyc]
    ys = [p[1] for p in cyc]
    return [
        (i, j)
        for j in range(min(ys), max(ys) + 1)
        for i in range(min(xs), max(xs) + 1)
        if all(orient(cyc[k], cyc[(k + 1) % len(cyc)], (i, j)) >= 0 for k in range(len(cyc)))
    ]


def area2(points):
    """Twice the area of the convex hull of the points."""
    cyc = hull(points)
    return sum(
        cyc[k][0] * cyc[(k + 1) % len(cyc)][1] - cyc[(k + 1) % len(cyc)][0] * cyc[k][1]
        for k in range(len(cyc))
    )


def frac(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def grid(side):
    return lattice_points([(0, 0), (side, 0), (side, side), (0, side)])


UNIT_TRIANGLE = lattice_points([(0, 0), (1, 0), (0, 1)])
FIVE_POINT = lattice_points([(0, 0), (1, 0), (1, 2), (0, 1)])
INTRO = lattice_points([(0, 0), (2, 0), (1, 2), (0, 1)])
EIGHT_POINT = lattice_points([(0, 0), (1, 0), (2, 1), (2, 2), (0, 2)])
BOUNDARY = lattice_points([(0, 0), (3, 0), (3, 1), (0, 2)])  # criterion 9
A3_TRIANGLE = lattice_points([(-1, -1), (2, 1), (1, 2)])
B2_PENTAGON = lattice_points([(0, 1), (1, 0), (2, 0), (2, 2), (1, 2)])

# the ROADMAP ladder; the grids are n x n cells, so s = (n + 1)^2
LADDER = (
    ("unit_triangle", UNIT_TRIANGLE),
    ("five_point", FIVE_POINT),
    ("intro", INTRO),
    ("eight_point", EIGHT_POINT),
    ("grid_s9", grid(2)),
    ("grid_s16", grid(3)),
    ("grid_s25", grid(4)),
)


# sizes of a round's random polygons, one after each of the two ladder jobs
# per configuration: close to the mix criterion 8's draw gives, but fixed,
# so that which jobs sit near p50 does not swing with the seed
RANDOM_SIZES = (3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8, 9, 10)


def random_polygon(rnd, size):
    """A random lattice polygon with `size` points, drawn as criterion 8
    draws them (3 to 5 random vertices in [0, 3]^2), redrawn until it has
    that many points."""
    while True:
        verts = [(rnd.randint(0, 3), rnd.randint(0, 3)) for _ in range(rnd.randint(3, 5))]
        if len(hull(verts)) >= 3:
            pts = lattice_points(verts)
            if len(pts) == size:
                return pts


def wide_heights(rnd, n):
    return [frac(Fraction(rnd.randint(-20, 20), rnd.randint(1, 5))) for _ in range(n)]


def tied_heights(rnd, n):
    return [frac(rnd.randint(-1, 1)) for _ in range(n)]


def geom_round(seed, r):
    """Each ladder configuration under both height kinds, each job followed
    by a fresh random polygon under the other kind."""
    rnd = random.Random(f"geom_ladder:{seed}:{r}")
    jobs = []
    for k, size in enumerate(RANDOM_SIZES):
        name, pts = LADDER[k // 2]
        for config, points, kind in (
            (name, pts, ("wide", "tied")[k % 2]),
            ("random", random_polygon(rnd, size), ("tied", "wide")[k % 2]),
        ):
            make = wide_heights if kind == "wide" else tied_heights
            jobs.append(
                {
                    "op": "ladder",
                    "config": config,
                    "points": [list(p) for p in points],
                    "height_kind": kind,
                    "heights": make(rnd, len(points)),
                }
            )
    return jobs


# ---------------------------------------------------------------- matroids

# name, points, torus?, exact number of complete flags of flats
MATROIDS = (
    ("five_point", FIVE_POINT, True, 4),
    ("intro", INTRO, True, 24),
    ("eight_point", EIGHT_POINT, True, 1380),
    ("grid_s9", grid(2), True, 12240),
    ("boundary_block", BOUNDARY, False, 2880),
)
QUERIES_PER_MATROID = 200


def matroid_round(seed, r):
    """Per matroid: flag enumeration, flag classification (torus only),
    circuits, then membership queries; half random vectors as in
    criterion 4, half weight-class samples of a random flag, shifted."""
    rnd = random.Random(f"matroid_flags:{seed}:{r}")
    jobs = []
    for name, points, torus, nflags in MATROIDS:
        jobs.append({"op": "enumerate", "matroid": name})
        if torus:
            jobs.append({"op": "classify", "matroid": name})
        jobs.append({"op": "circuits", "matroid": name})
        nblocks = len(points) - 3
        for q in range(QUERIES_PER_MATROID):
            if q % 2 == 0:
                vec = [frac(Fraction(rnd.randint(-12, 12), rnd.randint(1, 5))) for _ in points]
                jobs.append({"op": "query", "matroid": name, "vector": vec})
            else:
                jobs.append(
                    {
                        "op": "query",
                        "matroid": name,
                        "flag_index": rnd.randrange(nflags),
                        "gaps": [
                            frac(Fraction(rnd.randint(1, 9), rnd.randint(1, 4)))
                            for _ in range(nblocks)
                        ],
                        "shift": frac(Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))),
                    }
                )
    return jobs


# ---------------------------------------------------------------- CLI families

# name, points, top blocks (in order), points drawn as shuffled singletons
# below them, expected kind of the torus `classify` (None where the family
# is not a torus one), expected kind of the `classify` of the lifted
# coefficients.  The fat-end family draws its heights as criterion 9 does
# and lifts a quadrangle-circuit flag of its configuration, whose weight
# class need not be a maximal cone, so its lift has no fixed kind.
FAMILIES = (
    ("A3", A3_TRIANGLE, [[(0, 0), (1, 1), (2, 1), (1, 2)]], [(-1, -1)], "TypeA3", "TypeA3"),
    ("A4", INTRO, [[(0, 0), (1, 0), (0, 1), (1, 1)]], [(2, 0), (1, 2)], "TypeA4", "TypeA4"),
    ("B1", grid(2), [[(0, 1), (2, 1)], [(1, 0), (1, 1), (1, 2)]],
     [(0, 0), (2, 0), (0, 2), (2, 2)], "TypeB1", "TypeB1"),
    ("B2", B2_PENTAGON, [[(2, 0), (2, 1)], [(1, 0), (1, 1), (1, 2)]],
     [(0, 1), (2, 2)], "TypeB2Interior", "TypeB2Interior"),
    ("FatEnd", BOUNDARY, None, None, None, None),
)
FAT_END_QUADS = ([(0, 0), (1, 0), (0, 1), (1, 1)], [(1, 0), (2, 0), (1, 1), (2, 1)],
                 [(2, 0), (3, 0), (2, 1), (3, 1)])
SAMPLES_PER_FAMILY = 6


def _gaps(rnd, n):
    return [Fraction(rnd.randint(1, 9), rnd.randint(1, 4)) for _ in range(n)]


def _blocks_heights(points, blocks, gaps):
    """Weight-class sample: block k sits at the sum of the first k gaps."""
    table, h = {}, Fraction(0)
    for block, g in zip(blocks, gaps):
        h += g
        for p in block:
            table[p] = h
    return [table[p] for p in points]


def _chain(points, blocks):
    chain, acc = [], []
    for block in blocks:
        acc.extend(points.index(p) for p in block)
        chain.append(sorted(acc))
    return chain


def _fat_end_heights(rnd, points):
    """Criterion 9: a three-way maximum on {y=0}, two-way on {y=1}."""
    bottom = [p for p in points if p[1] == 0]
    second = [p for p in points if p[1] == 1]
    mb = Fraction(rnd.randint(-3, 3))
    m1 = mb - Fraction(rnd.randint(1, 5), rnd.randint(1, 2))
    tb, ts = rnd.sample(bottom, 3), rnd.sample(second, 2)
    table = {}
    for p in points:
        if p[1] == 0:
            table[p] = mb if p in tb else mb - rnd.randint(1, 6)
        elif p[1] == 1:
            table[p] = m1 if p in ts else m1 - rnd.randint(1, 6)
        else:
            table[p] = m1 - rnd.randint(4, 9)
    return [table[p] for p in points]


def cli_round(seed, r):
    """SAMPLES_PER_FAMILY weight-class samples per family through every
    subcommand, each followed by a `classify` of the coefficients its `lift`
    prints, then `flags` once per family configuration."""
    rnd = random.Random(f"cli_singular:{seed}:{r}")
    jobs = []
    for i in range(SAMPLES_PER_FAMILY):
        for family, points, top, singles, kind, lift_kind in FAMILIES:
            jobs += _family_sample(rnd, f"r{r}.s{i}.{family}", family, points, top, singles,
                                   kind, lift_kind)
    for family, points, *_ in FAMILIES:
        jobs.append(
            {
                "op": "cli",
                "id": f"r{r}.{family}.flags",
                "family": family,
                "argv": ["flags"],
                "input": {"points": [list(p) for p in points]},
                "expect_kind": None,
            }
        )
    return jobs


def _family_sample(rnd, prefix, family, points, top, singles, kind, lift_kind):
    if top is None:
        u = _fat_end_heights(rnd, points)
        quad = rnd.choice(FAT_END_QUADS)
        blocks = [[p] for p in points if p not in quad]
        rnd.shuffle(blocks)
        blocks.append(quad)
    else:
        blocks = [[p] for p in singles]
        rnd.shuffle(blocks)
        blocks += top
        u = _blocks_heights(points, blocks, _gaps(rnd, len(blocks)))
    c, a, b = (Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)) for _ in range(3))
    # the all-ones shift keeps the curve in place; x and y shifts move it
    # off the origin, so only the shape-level commands get them
    u_const = [frac(h + c) for h in u]
    u_lin = [frac(h + a * p[0] + b * p[1] + c) for h, p in zip(u, points)]
    base = {"points": [list(p) for p in points]}
    jobs = []
    for name, argv, inp, expect in (
        ("subdivide", ["subdivide"], dict(base, heights=u_lin), None),
        ("curve", ["curve"], dict(base, heights=u_lin), None),
        ("classify", ["classify"], dict(base, heights=u_const), kind),
        ("classify_non_torus", ["classify", "--non-torus"], dict(base, heights=u_const),
         "FatEnd" if top is None else None),
        ("discriminant", ["discriminant"], dict(base, heights=u_lin), None),
        ("plot", ["plot"], dict(base, heights=u_lin), None),
        ("lift", ["lift", "--seed", str(rnd.randint(0, 999))],
         dict(base, flag=_chain(points, blocks)), None),
        ("classify_lift", ["classify"], dict(base, coefficients_from=f"{prefix}.lift"),
         lift_kind),
    ):
        jobs.append(
            {
                "op": "cli",
                "id": f"{prefix}.{name}",
                "family": family,
                "argv": argv,
                "input": inp,
                "expect_kind": expect,
            }
        )
    return jobs


ROUNDS = {"geom_ladder": geom_round, "matroid_flags": matroid_round, "cli_singular": cli_round}
WORKLOADS = tuple(ROUNDS)


def round_jobs(workload, seed, r):
    return ROUNDS[workload](seed, r)


def canonical_bytes(jobs):
    """The job list as canonical JSON, the form the determinism test compares."""
    return json.dumps(jobs, sort_keys=True, separators=(",", ":")).encode()
