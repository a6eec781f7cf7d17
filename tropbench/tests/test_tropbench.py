"""The benchmark's own tests.

    python3 -m pytest tropbench/tests -q

They run short benchmark runs (about a minute in all).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import jobs as J  # noqa: E402
import run as runner  # noqa: E402
from spans import JOB, Tracer  # noqa: E402

# the metrics the benchmark is specified to report, end to end and per layer
NAMED_END_TO_END = {"jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mb"}
NAMED_LAYER_CALLS = {
    "subdivisions.regular_subdivision", "curves.dual_curve", "singular.classify_singularity",
    "subdivisions.cone_info", "curves.type_dimension", "lattice.PointConfiguration",
    "bergman.enumerate_flags", "bergman.classify_flag", "bergman.member_loopfree",
    "bergman.member_circuit_oracle", "bergman.flag_from_weight", "bergman.gale_dual",
    "lattice.circuits", "cli.classify", "cli.curve", "cli.subdivide", "cli.plot",
    "cli.discriminant", "cli.lift", "cli.classify_non_torus", "cli.flags",
}
NAMED_COUNTS = {
    "subdivisions.cells", "curves.bounded_edges", "singular.on_curve", "bergman.flags",
    "bergman.queries", "bergman.members", "cli.bytes_out", "cli.expected_exit1",
    "series.singular_lifts",
}


def bench(*args, env=None, cwd=ROOT, python=(sys.executable,)):
    return subprocess.run(
        [*python, os.path.join("tropbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def generate(workload, seed, hashseed):
    """Round 0 and 1 of a job list, generated in a fresh interpreter."""
    code = (
        "import sys; sys.path.insert(0, 'tropbench'); import jobs; "
        f"sys.stdout.buffer.write(b''.join(jobs.canonical_bytes(jobs.round_jobs("
        f"{workload!r}, {seed}, r)) for r in (0, 1)))"
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, check=True).stdout


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_same_seed_same_job_list(workload):
    first = generate(workload, 5, "1")
    assert first == generate(workload, 5, "2")
    assert first != generate(workload, 6, "1")


def test_rounds_do_not_repeat_inputs():
    a, b = J.geom_round(5, 0), J.geom_round(5, 1)
    assert [j["heights"] for j in a] != [j["heights"] for j in b]


def test_benchmark_json_lists_every_metric_with_a_unit():
    spec = benchmark_json()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == dict(runner.END_TO_END)
    assert NAMED_END_TO_END <= set(e2e)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == dict(runner.per_layer_names())
    for call in NAMED_LAYER_CALLS:
        assert call + ".busy_s" in layer and call + ".calls" in layer
    assert NAMED_COUNTS <= set(layer)
    assert {"job.self_s", "trace.overhead_pct"} <= set(layer)
    assert [w["name"] for w in spec["workloads"]] == list(J.WORKLOADS)


@pytest.fixture(scope="module")
def smoke_runs():
    return {
        "e2e": last_json(bench("--workload", "cli_singular", "--seed", "3",
                               "--seconds", "1", "--trace", "0")),
        "traced": last_json(bench("--workload", "matroid_flags", "--seed", "3",
                                  "--seconds", "1", "--trace", "1")),
    }


def test_smoke_runs_emit_every_metric_with_its_unit(smoke_runs):
    spec = benchmark_json()
    for key, section in (("e2e", "end_to_end"), ("traced", "per_layer")):
        metrics = smoke_runs[key]["metrics"]
        assert {m: v["unit"] for m, v in metrics.items()} == {
            m["name"]: m["unit"] for m in spec[section]
        }
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    assert smoke_runs["traced"]["metrics"]["bergman.flags"]["value"] == 4 + 24 + 1380 + 12240 + 2880


def test_smoke_runs_have_no_failures(smoke_runs):
    for result in smoke_runs.values():
        assert result["attempted"] >= 100
        assert result["failed"] == 0 and result["correct"] is True


def test_geom_round_has_no_failures():
    import worker

    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        run = worker.Run("geom_ladder", 3, trace=True)
        try:
            run.run_round(0, run.prepare(0))
        finally:
            shutil.rmtree(run.workdir, ignore_errors=True)
    finally:
        os.chdir(cwd)
    assert run.failed == 0 and len(run.durations) == 28
    assert run.tracer.summary()["layers"]["singular.classify_singularity"][1] == 28


def test_refuses_optimized_interpreter():
    args = ("--workload", "cli_singular", "--seconds", "1")
    for proc in (
        bench(*args, python=(sys.executable, "-O")),
        bench(*args, env=dict(os.environ, PYTHONOPTIMIZE="1")),
    ):
        assert proc.returncode != 0
        assert "correct" not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "tropbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = bench("--workload", "geom_ladder", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_is_job_time_not_covered_by_layer_spans():
    tr = Tracer(True)
    tr.spans = [("j", JOB, 0, 100), ("j", "a", 10, 30), ("j", "b", 20, 50), ("k", JOB, 0, 10)]
    summary = tr.summary()
    assert summary["job_self_s"] == (100 - 40 + 10) / 1e9
    assert summary["layers"]["a"] == (20 / 1e9, 1)
