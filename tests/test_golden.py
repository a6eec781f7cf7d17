"""Golden CLI outputs: every subcommand's stdout and the plot SVG, byte for byte.

The files under tests/golden/ pin the `tropsing/1` output across refactors.
After a deliberate output change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from tropsing.cli import run_cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

INTRO = {
    "points": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [1, 2]],
    "heights": ["-1", "0", "-1", "-3", "0", "0"],
}
# a weight-class sample of the 3x3 grid around the middle column (criterion 6)
B1_GRID = {
    "points": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1], [0, 2], [1, 2], [2, 2]],
    "heights": ["7/2", "115/12", "23/6", "103/12", "115/12", "103/12", "61/12", "115/12", "3/2"],
}
# three-way tie on {y=0}, two-way tie on {y=1} (criterion 9)
FAT_END = {
    "points": [[0, 0], [1, 0], [2, 0], [3, 0], [0, 1], [1, 1], [2, 1], [3, 1], [0, 2]],
    "heights": ["0", "0", "-2", "0", "-1", "-3", "-1", "-4", "-6"],
}
B2_INTERIOR = {
    "points": [[1, 0], [2, 0], [0, 1], [1, 1], [2, 1], [1, 2], [2, 2]],
    "heights": ["7", "5", "7/2", "7", "5", "7", "5/2"],
}
B2_BOUNDARY = {
    "points": [[0, 0], [1, 0], [0, 1], [1, 1], [0, 2], [1, 2]],
    "heights": ["4", "1", "4", "1", "4", "-1"],
}
A3 = {
    "points": [[-1, -1], [0, 0], [1, 1], [2, 1], [1, 2]],
    "heights": ["3", "7/2", "7/2", "7/2", "7/2"],
}

CASES = {
    "subdivide": (INTRO, ["subdivide"]),
    "curve": (INTRO, ["curve"]),
    "flags": (INTRO, ["flags"]),
    "classify": (INTRO, ["classify"]),
    "discriminant": (INTRO, ["discriminant"]),
    "lift": (INTRO, ["lift", "--seed", "4"]),
    "plot": (INTRO, ["plot", "--svg", "plot.svg"]),
    "classify_b1_grid": (B1_GRID, ["classify"]),
    "classify_fat_end": (FAT_END, ["classify", "--non-torus"]),
    "classify_b2_interior": (B2_INTERIOR, ["classify"]),
    "classify_b2_boundary": (B2_BOUNDARY, ["classify"]),
    "classify_a3": (A3, ["classify"]),
}


def run_case(name, workdir):
    """Run one case with workdir as the current directory; return (code, stdout)."""
    job, argv = CASES[name]
    with open(os.path.join(workdir, "job.json"), "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf):
            code = run_cli(argv + ["--in", "job.json"])
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def read_golden(filename):
    with open(os.path.join(GOLDEN, filename), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path):
    code, out = run_case(name, str(tmp_path))
    assert code == 0
    assert out.encode() == read_golden(f"{name}.json")
    if name == "plot":
        assert (tmp_path / "plot.svg").read_bytes() == read_golden("plot.svg")


def record(workdir):
    os.makedirs(GOLDEN, exist_ok=True)
    for name in sorted(CASES):
        code, out = run_case(name, workdir)
        if code != 0:
            sys.exit(f"{name}: exit {code}\n{out}")
        with open(os.path.join(GOLDEN, f"{name}.json"), "wb") as fh:
            fh.write(out.encode())
    with open(os.path.join(workdir, "plot.svg"), "rb") as src:
        with open(os.path.join(GOLDEN, "plot.svg"), "wb") as dst:
            dst.write(src.read())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
