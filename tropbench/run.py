"""tropsing benchmark: the command that runs one workload.

    python3 tropbench/run.py --workload geom_ladder --seed 1 --seconds 30 --trace 0

Workloads: geom_ladder, matroid_flags, cli_singular (see BENCHMARK.json and
tropbench/NOTES.md for why each exists).  Every measurement happens in a
fresh interpreter started from here with PYTHONHASHSEED fixed; this process
only starts workers, aggregates and prints.

--trace 0 prints the end-to-end metrics.  set-up time is the median over
SETUP_RUNS fresh interpreters that stop where the first timed job would
start, plus the measuring worker itself.

--trace 1 prints the per-layer metrics: one untraced and one traced worker
share the --seconds budget, each from round 0 of the same job list; layer
figures come from the traced one, and their jobs_per_s ratio is the tracing
overhead.  Per-layer busy times, call counts and counters are per round of
the job list.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 whenever the workers
ran, even if a check failed: wrong outputs show as failed jobs and
"correct": false.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from jobs import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 30
WORKER_TIMEOUT_S = 150
HASH_SEED = "0"

# <module>.<function> of every call the benchmark times, per layer
LAYER_CALLS = (
    "lattice.PointConfiguration",
    "subdivisions.regular_subdivision",
    "subdivisions.cone_info",
    "curves.dual_curve",
    "curves.curve_type",
    "curves.type_dimension",
    "singular.classify_singularity",
    "bergman.coefficient_matrix",
    "singular.coefficient_matrix_non_torus",
    "bergman.gale_dual",
    "bergman.enumerate_flags",
    "bergman.classify_flag",
    "lattice.circuits",
    "bergman.weight_class_sample",
    "bergman.member_loopfree",
    "bergman.member_circuit_oracle",
    "bergman.flag_from_weight",
    "cli.subdivide",
    "cli.curve",
    "cli.classify",
    "cli.classify_non_torus",
    "cli.discriminant",
    "cli.plot",
    "cli.lift",
    "cli.flags",
)
COUNTERS = (
    "subdivisions.cells",
    "curves.bounded_edges",
    "singular.on_curve",
    "bergman.flags",
    "bergman.queries",
    "bergman.members",
    "cli.bytes_out",
    "cli.expected_exit1",
    "series.singular_lifts",
)


def per_layer_names():
    """(name, unit) of every --trace 1 metric, in print order."""
    out = []
    for call in LAYER_CALLS:
        out += [(call + ".busy_s", "s/round"), (call + ".calls", "count/round")]
    out += [(c, "B/round" if c == "cli.bytes_out" else "count/round") for c in COUNTERS]
    out += [
        ("job.busy_s", "s/round"),
        ("job.self_s", "s/round"),
        ("trace.jobs_per_s", "1/s"),
        ("trace.untraced_jobs_per_s", "1/s"),
        ("trace.overhead_pct", "%"),
    ]
    return out


END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": ",".join(f"{x:.2f}" for x in os.getloadavg()),
        "pythonhashseed": HASH_SEED,
    }


def start_worker(workload, seed, seconds, trace, setup_only=False):
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def jobs_per_s(res):
    return res["attempted"] / sum(res["durations_s"])


def end_to_end(res, setups):
    d = res["durations_s"]
    return {
        "jobs_per_s": jobs_per_s(res),
        "job_p50_ms": statistics.median(d) * 1e3,
        "job_p90_ms": statistics.quantiles(d, n=10)[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(plain, traced):
    rounds = traced["rounds"]
    tr = traced["trace"]
    values = {}
    for call in LAYER_CALLS:
        busy, calls = tr["layers"].get(call, (0.0, 0))
        values[call + ".busy_s"] = busy / rounds
        values[call + ".calls"] = calls / rounds
    for c in COUNTERS:
        values[c] = traced["counts"].get(c, 0) / rounds
    values["job.busy_s"] = tr["job_busy_s"] / rounds
    values["job.self_s"] = tr["job_self_s"] / rounds
    values["trace.jobs_per_s"] = jobs_per_s(traced)
    values["trace.untraced_jobs_per_s"] = jobs_per_s(plain)
    values["trace.overhead_pct"] = (jobs_per_s(plain) / jobs_per_s(traced) - 1) * 100
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # `python -O` strips the asserts that guard gale_dual: a different program
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        sys.exit("refusing to run under -O / PYTHONOPTIMIZE")
    if not os.path.isfile(os.path.join(ROOT, "src", "tropsing", "__init__.py")):
        sys.exit(f"no tropsing sources under {os.path.join(ROOT, 'src')}")

    env = environment()
    if args.trace:
        plain = start_worker(args.workload, args.seed, args.seconds / 2, 0)
        traced = start_worker(args.workload, args.seed, args.seconds / 2, 1)
        runs = (plain, traced)
        metrics = per_layer(plain, traced)
        units = dict(per_layer_names())
    else:
        setups = [start_worker(args.workload, args.seed, 0, 0, setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS)]
        main_run = start_worker(args.workload, args.seed, args.seconds, 0)
        runs = (main_run,)
        metrics = end_to_end(main_run, setups + [main_run["setup_s"]])
        units = dict(END_TO_END)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for r in runs:
        print(f"run rounds={r['rounds']} jobs={r['attempted']} "
              f"timed_s={sum(r['durations_s']):.3f} traced={r['trace'] is not None}")
    if args.trace:
        print("per-layer metrics, per round, from the traced worker; "
              "trace.* compare it with the untraced one")
        notes = {}
    else:
        print("end-to-end metrics, tracing off")
        n = len(main_run["durations_s"])
        notes = {
            "job_p50_ms": f"n={n}",
            "job_p90_ms": f"n={n}, {n - int(0.9 * n)} beyond",
            "setup_s": f"median of {SETUP_RUNS + 1} fresh interpreters",
        }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}" + (f" ({notes[name]})" if name in notes else ""))
    print(f"failed_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")

    os.makedirs(os.path.join(ROOT, ".tropbench", "out"), exist_ok=True)
    report = os.path.join(ROOT, ".tropbench", "out",
                          f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "args": vars(args), "metrics": metrics, "units": units,
                   "attempted": attempted, "failed": failed,
                   "counts": [r["counts"] for r in runs], "rounds": [r["rounds"] for r in runs]},
                  fh, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
