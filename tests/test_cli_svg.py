import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsing import (
    MalformedFlagError,
    ParseError,
    PointConfiguration,
    TropsingError,
    classify_flag,
    dual_curve,
    regular_subdivision,
    render_svg,
)
from tropsing import cli
from tropsing.bergman import FlagOfFlats
from tropsing.cli import _cmd_flags, build_parser, run_cli
from tropsing.jsonio import (
    config_from_json,
    config_to_json,
    curve_to_json,
    dumps,
    fraction_from_json,
    fraction_to_json,
    subdivision_to_json,
)
from tropsing.subdivisions import MarkedSubdivision
from tropsing.svg import render_pair


INTRO_JOB = {
    "points": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [1, 2]],
    "heights": ["-1", "0", "-1", "-3", "0", "0"],
}

INTRO_SERIES_JOB = {
    "points": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [1, 2]],
    "coefficients": ["-t - t^3", "1 + 2*t + t^3", "-t", "t^3", "-2 - t^3", "1"],
}


def subdivision_from_json(config, obj) -> MarkedSubdivision:
    """Inverse of `subdivision_to_json`, for the round-trip test."""
    cells = [
        (tuple([tuple(p) for p in cell["polygon"]]), tuple(cell["marked"]))
        for cell in obj["cells"]
    ]
    return MarkedSubdivision(config, cells)


def run_job(tmp_path, capsys, command, job, *extra):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = run_cli([command, "--in", str(path), *extra])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestJsonRoundtrip:
    def test_fractions(self):
        from fractions import Fraction

        for x in (Fraction(1), Fraction(-7, 3), Fraction(0)):
            assert fraction_from_json(fraction_to_json(x)) == x
        assert fraction_from_json(5) == 5
        with pytest.raises(Exception):
            fraction_from_json(0.5)
        for value, x in (("-3/4", Fraction(-3, 4)), ("007", 7), ("6/4", Fraction(3, 2))):
            assert fraction_from_json(value) == x
        assert fraction_from_json("9" * 1000) == int("9" * 1000)
        for bad in ("1.5", "1e3", " 1", "+1", "1/-2", "1/0", "", "9" * 1001, 10**1000, True, None):
            with pytest.raises(ParseError):
                fraction_from_json(bad)
        with pytest.raises(TropsingError):  # past the int-to-str digit limit
            fraction_to_json(Fraction(10**5000))

    def test_config(self, intro_config):
        assert config_from_json(config_to_json(intro_config)) == intro_config

    def test_subdivision(self, intro_config, intro_heights):
        ms = regular_subdivision(intro_config, intro_heights)
        back = subdivision_from_json(intro_config, subdivision_to_json(ms))
        assert back == ms

    def test_no_floats_anywhere(self, intro_config, intro_heights):
        curve = dual_curve(intro_config, intro_heights)
        text = json.dumps(curve_to_json(curve))
        assert "." not in text  # exact strings only

    def test_flag_roundtrip(self, intro_config):
        from tropsing import coefficient_matrix, enumerate_flags, gale_dual
        from tropsing.jsonio import flag_from_json, flag_to_json

        flags = enumerate_flags(gale_dual(coefficient_matrix(intro_config)))
        for flag in flags[:5]:
            assert flag_from_json(flag_to_json(flag)["flats"]) == flag
            assert flag_from_json(json.loads(dumps(flag_to_json(flag)))["flats"]) == flag


def assert_dumps_like_stdlib(payload):
    """Reference: the stdlib encoder with the CLI's settings.

    Compared line by line, so a failure names the first differing line
    instead of diffing megabytes of text.
    """
    expected = json.dumps(payload, indent=2, sort_keys=True)
    assert dumps(payload).split("\n") == expected.split("\n")


ints = st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
int_lists = st.lists(st.integers(min_value=-3, max_value=12), max_size=5)
scalars = st.none() | st.booleans() | ints | st.text() | int_lists | st.lists(st.booleans())
trees = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=30,
)


class TestDumps:
    @pytest.mark.parametrize(
        "points,count",
        [
            ([[i, j] for j in range(3) for i in range(3)], 12240),
            ([[0, 0], [1, 0], [2, 0], [3, 0], [0, 1], [1, 1], [2, 1], [3, 1], [0, 2]], 11760),
        ],
    )
    def test_matches_stdlib_on_flags_payloads(self, points, count):
        payload = _cmd_flags({"points": points}, build_parser().parse_args(["flags"]))
        assert payload["flag_count"] == count
        assert_dumps_like_stdlib(payload)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(tree=trees, seq=int_lists)
    def test_matches_stdlib_on_random_trees(self, tree, seq):
        # the same int sequence as a list and a tuple at several depths
        payload = {"a": seq, "b": [seq, [tuple(seq), {"c": seq}]], "tree": tree}
        assert_dumps_like_stdlib(payload)
        assert_dumps_like_stdlib(tree)

    def test_strings_escape_as_ascii(self):
        payload = {"é\x00": ["\u2603\n\t\"\\", "\U0001f600", "\x1f"], "": {}, "e": []}
        assert_dumps_like_stdlib(payload)

    @pytest.mark.parametrize(
        "bad", [Fraction(1, 2), 0.5, [1, 2.0], {"x": [Fraction(3)]}, {1: "one"}]
    )
    def test_rejects_other_types(self, bad):
        with pytest.raises(TypeError):
            dumps(bad)


class TestCli:
    def test_classify_intro(self, tmp_path, capsys):
        code, out = run_job(tmp_path, capsys, "classify", INTRO_JOB)
        assert code == 0
        assert out["schema"] == "tropsing/1"
        rep = out["report"]
        assert rep["kind"] == "TypeB1"
        assert rep["l1"] == "1" and rep["l2"] == "1"

    def test_classify_from_series(self, tmp_path, capsys):
        code, out = run_job(tmp_path, capsys, "classify", INTRO_SERIES_JOB)
        assert code == 0
        assert out["singular_at_one_one"] is True
        assert out["report"]["kind"] == "TypeB1"

    def test_subdivide_unit_triangle(self, tmp_path, capsys):
        job = {"points": [[0, 0], [1, 0], [0, 1]], "heights": ["0", "0", "0"]}
        code, out = run_job(tmp_path, capsys, "subdivide", job)
        assert code == 0
        assert len(out["subdivision"]["cells"]) == 1
        assert out["subdivision"]["cells"][0]["marked"] == [0, 1, 2]
        assert out["cone"]["codimension"] == 0

    def test_curve_command(self, tmp_path, capsys):
        code, out = run_job(tmp_path, capsys, "curve", INTRO_JOB)
        assert code == 0
        assert out["type"] == {"bounded_edges": 2, "genus": 0, "dimension": 4}
        weights = sorted(e["weight"] for e in out["curve"]["bounded_edges"])
        assert weights == [1, 2]

    def test_flags_command(self, tmp_path, capsys):
        job = {"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
        code, out = run_job(tmp_path, capsys, "flags", job)
        assert code == 0
        assert out["flag_count"] == 1
        assert out["flags"][0]["case"] == "A"

    def test_flags_lists_a_malformed_flag_with_its_error(self, tmp_path, capsys, monkeypatch):
        # enumeration never yields such a flag; the entry is there in case one
        # ever contradicts the two-shape theorem
        points = [[0, 0], [1, 0], [0, 1], [1, 1], [1, 2]]
        bogus = FlagOfFlats(((0,), (0, 1), (0, 1, 2, 3, 4)))
        monkeypatch.setattr(cli, "enumerate_flags", lambda B, limit: (bogus,))
        code, out = run_job(tmp_path, capsys, "flags", {"points": points})
        with pytest.raises(MalformedFlagError) as info:
            classify_flag(bogus, PointConfiguration(points))
        assert code == 0 and out["flag_count"] == 1
        assert out["flags"] == [
            {"flats": [[0], [0, 1], [0, 1, 2, 3, 4]], "case": "malformed", "error": str(info.value)}
        ]
        assert str(info.value) == "top block (2, 3, 4) is not a circuit"

    def test_discriminant_command(self, tmp_path, capsys):
        code, out = run_job(tmp_path, capsys, "discriminant", INTRO_JOB)
        assert code == 0
        assert out["is_discriminant"] is True

    def test_lift_command(self, tmp_path, capsys):
        job = {"points": INTRO_JOB["points"], "flag_index": 0}
        code, out = run_job(tmp_path, capsys, "lift", job, "--seed", "4")
        assert code == 0
        assert out["singular_at_one_one"] is True
        assert out["in_weight_class_closure"] is True

    def test_malformed_rational_exits_2(self, tmp_path, capsys):
        job = {"points": [[0, 0], [1, 0], [0, 1]], "heights": ["1/0", "0", "0"]}
        code, out = run_job(tmp_path, capsys, "subdivide", job)
        assert code == 2
        assert out["error"]["type"] == "ParseError"

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = run_cli(["subdivide", "--in", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert "error" in out

    def test_domain_error_exits_1(self, tmp_path, capsys):
        # collinear configuration is a domain error, not a parse error
        job = {"points": [[0, 0], [1, 0], [2, 0]], "heights": ["0", "0", "0"]}
        code, out = run_job(tmp_path, capsys, "subdivide", job)
        assert code == 1
        assert out["error"]["type"] == "DegenerateConfigurationError"

    def test_limit_flag(self, tmp_path, capsys):
        job = {"points": INTRO_JOB["points"]}
        code, out = run_job(tmp_path, capsys, "flags", job, "--limit", "4")
        assert code == 1
        assert out["error"]["type"] == "TooLargeError"

    def test_boolean_coordinate_exits_2(self, tmp_path, capsys):
        job = {"points": [[0, 0], [True, 0], [0, 1]], "heights": ["0", "0", "0"]}
        code, out = run_job(tmp_path, capsys, "subdivide", job)
        assert code == 2
        assert out["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "flag",  # the job's flag entry: an explicit flag or an index into the flags
        [
            {"flag": [[99], [0, 1], [0, 1, 2], [0, 1, 2, 3, 4, 5]]},
            {"flag": [[0.5], [0, 1], [0, 1, 2], [0, 1, 2, 3, 4, 5]]},
            {"flag": [[True], [0, 1], [0, 1, 2], [0, 1, 2, 3, 4, 5]]},
            {"flag_index": True},
            {"exponents": 5},
            {"flag": []},
            {"flag": [[3], [3, 4, 5], [0, 1, 2, 4, 5]]},
        ],
    )
    def test_lift_bad_flag_index_exits_2(self, tmp_path, capsys, flag):
        job = {"points": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]], **flag}
        code, out = run_job(tmp_path, capsys, "lift", job)
        assert code == 2
        assert out["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "height",
        ["1" * 5000, '"1e5000"', '"1e10000000"'],
        ids=["int_of_5000_digits", "1e5000", "1e10000000"],
    )
    def test_oversized_or_exponent_rational_exits_2(self, tmp_path, capsys, height):
        path = tmp_path / "job.json"
        path.write_text('{"points": [[0, 0], [1, 0], [0, 1]], "heights": [%s, 0, 0]}' % height)
        code = run_cli(["subdivide", "--in", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"]["type"] == "ParseError"

    def test_non_torus_job_key_ignored(self, tmp_path, capsys):
        job = {
            "points": [[0, 0], [1, 0], [2, 0], [3, 0], [0, 1], [1, 1], [2, 1], [3, 1], [0, 2]],
            "heights": ["0", "0", "-2", "0", "-1", "-3", "-1", "-4", "-6"],
        }
        code, plain = run_job(tmp_path, capsys, "classify", job)
        assert code == 0
        code, keyed = run_job(tmp_path, capsys, "classify", dict(job, non_torus="false"))
        assert code == 0
        assert keyed == plain
        assert plain["report"]["kind"] != "FatEnd"

    @pytest.mark.parametrize(
        "command,option",
        [("classify", "--seed"), ("curve", "--limit"), ("subdivide", "--pivots")],
    )
    def test_option_of_another_command_exits_2(self, tmp_path, capsys, command, option):
        code, _out = run_job(tmp_path, capsys, command, INTRO_JOB, option, "3")
        assert code == 2

    def test_pivots_flag(self, tmp_path, capsys):
        job = {"points": INTRO_JOB["points"]}
        code, out = run_job(tmp_path, capsys, "flags", job, "--pivots", "0,1,3")
        assert code == 0
        assert out["pivots"] == [0, 1, 3]

    @pytest.mark.parametrize("pivots,bad", [("0,1,99", "99"), ("0,1,-1", "-1")])
    def test_pivot_out_of_range_exits_1(self, tmp_path, capsys, pivots, bad):
        job = {"points": INTRO_JOB["points"]}
        code, out = run_job(tmp_path, capsys, "flags", job, "--pivots", pivots)
        assert code == 1
        assert out["error"]["type"] == "ConfigurationError"
        assert f"pivot index {bad} " in out["error"]["message"]

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(INTRO_JOB))
        dest = tmp_path / "result.json"
        code = run_cli(["subdivide", "--in", str(path), "--out", str(dest)])
        assert code == 0
        assert json.loads(dest.read_text())["schema"] == "tropsing/1"

    def test_plot_writes_svg(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(INTRO_JOB))
        svg = tmp_path / "picture.svg"
        code = run_cli(["plot", "--in", str(path), "--svg", str(svg)])
        assert code == 0
        doc = svg.read_text()
        assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")

    def test_classify_non_torus_flag(self, tmp_path, capsys):
        job = {
            "points": [[i, 0] for i in range(4)]
            + [[i, 1] for i in range(4)]
            + [[0, 2]],
            "heights": ["0", "0", "0", "-2", "-1", "-1", "-3", "-3", "-5"],
        }
        code, out = run_job(tmp_path, capsys, "classify", job, "--non-torus")
        assert code == 0
        assert out["report"]["kind"] == "FatEnd"

    def test_lift_with_explicit_flag(self, tmp_path, capsys):
        # unit square: the single flag is the whole ground set in one flat
        job = {
            "points": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "flag": [[0, 1, 2, 3]],
        }
        code, out = run_job(tmp_path, capsys, "lift", job, "--seed", "11")
        assert code == 0
        assert out["singular_at_one_one"] is True
        assert out["flag"] == {"flats": [[0, 1, 2, 3]]}

    def test_relaxed_configuration_accepted(self, tmp_path, capsys):
        # points deliberately not saturated: needs the relaxed flag
        job = {"points": [[0, 0], [2, 0], [0, 2]], "heights": ["0", "0", "0"]}
        code, out = run_job(tmp_path, capsys, "subdivide", job)
        assert code == 1  # saturation check fails as a domain error
        job["relaxed"] = True
        code, out = run_job(tmp_path, capsys, "subdivide", job)
        assert code == 0
        assert out["config"]["saturated"] is False
        job["relaxed"] = "false"  # only a JSON boolean is a switch
        code, out = run_job(tmp_path, capsys, "subdivide", job)
        assert code == 2
        assert out["error"]["type"] == "ParseError"

    def test_heights_length_mismatch_is_parse_error(self, tmp_path, capsys):
        job = {"points": [[0, 0], [1, 0], [0, 1]], "heights": ["0", "0"]}
        code, out = run_job(tmp_path, capsys, "subdivide", job)
        assert code == 2

    def test_float_heights_rejected(self, tmp_path, capsys):
        job = {"points": [[0, 0], [1, 0], [0, 1]], "heights": [0.5, 0, 0]}
        code, out = run_job(tmp_path, capsys, "subdivide", job)
        assert code == 2


class TestSvg:
    def test_subdivision_markers(self, intro_config, intro_heights):
        ms = regular_subdivision(intro_config, intro_heights)
        doc = render_svg(ms)
        assert doc.count("<circle") == intro_config.size
        assert 'fill="#ffffff"' not in doc  # no white points here

    def test_white_points_drawn_hollow(self):
        cfg = PointConfiguration([(0, 0), (1, 0), (2, 0), (0, 1)])
        ms = regular_subdivision(cfg, (0, -1, 0, 0))
        doc = render_svg(ms)
        assert 'fill="#ffffff"' in doc

    def test_curve_has_weight_label_and_origin(self, intro_config, intro_heights):
        curve = dual_curve(intro_config, intro_heights)
        doc = render_svg(curve)
        assert ">2</text>" in doc
        assert 'fill="#c01818"' in doc  # origin marker

    def test_single_vertex_curve(self):
        tri = PointConfiguration([(0, 0), (1, 0), (0, 1)])
        curve = dual_curve(tri, (0, 0, 0))
        doc = render_svg(curve)
        assert doc.count("<line") == 3

    def test_byte_identical(self, intro_config, intro_heights):
        curve = dual_curve(intro_config, intro_heights)
        ms = regular_subdivision(intro_config, intro_heights)
        assert render_svg(curve) == render_svg(curve)
        assert render_pair(ms, curve) == render_pair(ms, curve)

    def test_rays_clipped_to_viewport(self, intro_config, intro_heights):
        curve = dual_curve(intro_config, intro_heights)
        doc = render_svg(curve)
        # every coordinate stays within the declared canvas
        head = doc.split(">", 1)[0]
        width = float(head.split('width="')[1].split('"')[0])
        height = float(head.split('height="')[1].split('"')[0])
        import re

        for x1, y1, x2, y2 in re.findall(
            r'<line x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" y2="([-\d.]+)"', doc
        ):
            for v, bound in ((x1, width), (x2, width), (y1, height), (y2, height)):
                assert -0.001 <= float(v) <= bound + 0.001

    def test_exact_three_decimal_format(self):
        from tropsing.svg import _fmt

        cases = {
            Fraction(12): "12.000",
            Fraction(-2, 3): "-0.667",
            Fraction(1, 2000): "0.000",  # exact tie, to the even digit
            Fraction(3, 2000): "0.002",
            Fraction(-5, 2000): "-0.002",
            Fraction(-1, 10000): "-0.000",
            Fraction(17665, 30): "588.833",
        }
        for x, text in cases.items():
            assert _fmt(x) == text
        rnd = random.Random(5)
        for _ in range(2000):
            x = Fraction(rnd.randint(-10**6, 10**6), rnd.randint(1, 997))
            if (x * 2000).denominator != 1:  # not a tie at the fourth decimal
                assert _fmt(x) == f"{float(x):.3f}"
