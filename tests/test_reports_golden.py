"""Pinned singularity reports on a seeded corpus, one digest pair per input.

Each input's entry is "kind json fields": the report kind, then the digest
of its `tropsing/1` JSON bytes and of the report's repr, which covers every
field value and the order of the heights dict.  The corpus is seeded random
heights plus flag weight-class samples with random gaps, each sample also
with two adjacent blocks tied, on the golden configurations.  The non-torus
classifier runs wherever the block structure allows it.  After a deliberate
change to the reports, rewrite tests/golden/reports.json with

    PYTHONPATH=src python tests/test_reports_golden.py

and review the diff.
"""

import json
import os
import random
import zlib
from fractions import Fraction

from test_golden import A3, B1_GRID, B2_BOUNDARY, B2_INTERIOR, FAT_END, GOLDEN, INTRO

from tropsing import (
    PointConfiguration,
    TropsingError,
    classify_non_torus,
    classify_singularity,
    coefficient_matrix,
    coefficient_matrix_non_torus,
    enumerate_flags,
    gale_dual,
    weight_class_sample,
)
from tropsing.jsonio import dumps, report_to_json

PATH = os.path.join(GOLDEN, "reports.json")
SEED = 1
CONFIGS = {
    "intro": INTRO,
    "grid": B1_GRID,
    "fat_end": FAT_END,
    "b2_interior": B2_INTERIOR,
    "b2_boundary": B2_BOUNDARY,
    "a3": A3,
}
RANDOM_HEIGHTS = 12  # per configuration and classifier
FLAG_SAMPLES = 10  # per configuration and classifier, each also tied
KINDS = {
    "TypeA3",
    "TypeA4",
    "TypeB1",
    "TypeB2Interior",
    "TypeB2Boundary",
    "FatEnd",
    "NonMaximal",
    "NotSingularAtOrigin",
    "NonGeneric",
}


def digest(text):
    return f"{zlib.crc32(text.encode()):08x}"


def corpus():
    """(id, classifier, config, heights) for every input, in a fixed order."""
    rnd = random.Random(SEED)
    for name, job in CONFIGS.items():
        config = PointConfiguration([tuple(p) for p in job["points"]])
        for mode, classify, matrix in (
            ("torus", classify_singularity, coefficient_matrix),
            ("non_torus", classify_non_torus, coefficient_matrix_non_torus),
        ):
            try:
                flags = enumerate_flags(gale_dual(matrix(config)))
            except TropsingError:
                continue
            for k in range(RANDOM_HEIGHTS):
                u = [Fraction(rnd.randint(-2, 2), rnd.choice((1, 1, 2))) for _ in range(config.size)]
                yield f"{name}.{mode}.random{k}", classify, config, u
            for k in range(FLAG_SAMPLES):
                flag = rnd.choice(flags)
                gaps = [Fraction(rnd.randint(1, 6), rnd.randint(1, 3)) for _ in flag.blocks]
                u = list(weight_class_sample(flag, gaps))
                yield f"{name}.{mode}.flag{k}", classify, config, u
                # the same sample on a wall of its weight class: one block
                # lowered onto the block below it
                blocks = flag.blocks
                j = rnd.randrange(1, len(blocks))
                tied = [u[blocks[j - 1][0]] if i in blocks[j] else x for i, x in enumerate(u)]
                yield f"{name}.{mode}.tied{k}", classify, config, tied


def reports():
    out = {}
    for key, classify, config, u in corpus():
        rep = classify(config, u)
        out[key] = f"{rep.kind} {digest(dumps(report_to_json(rep)))} {digest(repr(rep))}"
    return out


def test_reports_match_pinned_digests():
    with open(PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)
    fresh = reports()
    assert {entry.split()[0] for entry in fresh.values()} == KINDS
    assert fresh == pinned


if __name__ == "__main__":
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write(dumps(reports()) + "\n")
