"""One measured run of one workload, in a fresh interpreter.

run.py starts this script; it prints one JSON object on stdout.  Set-up
(interpreter start, `import tropsing`, generating round 0 and writing its
job files) ends where the first timed job starts.  Then whole rounds of
jobs run until the summed job time is as near --seconds as whole rounds
allow and, for the end-to-end run, at least MIN_JOBS jobs were timed, so
that ten or more samples lie beyond p90.  Checks, digests and the next
round's input files sit between jobs, outside the timed spans.
"""

import argparse
import array
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import tropsing  # noqa: E402  (from the checkout's own src/)

import jobs as J  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

MIN_JOBS = 100
MAX_WALL_S = 60
WORK = os.path.join(".tropbench", "work")
OUT = os.path.join(".tropbench", "out")
DIGESTS = os.path.join(HERE, "digests.json")
MAX_REPORTED_FAILURES = 5


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def recorded_digests(workload, seed):
    """Per-round digest strings recorded at the seed commit, or []."""
    if seed != J.DEFAULT_SEED or not os.path.exists(DIGESTS):
        return []
    with open(DIGESTS, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["workloads"].get(workload, []) if data["seed"] == seed else []


class Run:
    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.tracer = Tracer(trace)
        # fixed-width pid: the plot paths printed, and so cli.bytes_out, keep their length
        self.workdir = os.path.join(WORK, f"{workload}-{os.getpid():07d}")
        os.makedirs(self.workdir)
        self.wl = WORKLOADS[workload](self.tracer, self.workdir)
        self.counts = Counter()
        self.durations = array.array("d")  # seconds per timed job, 8 B each
        self.failed = 0
        self.rounds = 0
        # job input -> digest of round 0's jobs: an input that repeats in a later round
        # must give the same output.  Only round 0 is kept, so memory does not grow
        # with the number of rounds run.
        self.outputs = {}
        self.recorded = recorded_digests(workload, seed)

    def prepare(self, r):
        jobs = J.round_jobs(self.workload, self.seed, r)
        with open(os.path.join(self.workdir, f"jobs_r{r}.json"), "wb") as fh:
            fh.write(J.canonical_bytes(jobs))
        self.wl.prepare(r, jobs)
        return jobs

    def fail(self, job_id, message):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {self.workload} {job_id}: {message}", file=sys.stderr)

    def run_round(self, r, jobs):
        """Run, time and check every job of round r; returns the round's digests."""
        want = self.recorded[r] if r < len(self.recorded) else None
        digests = []
        for k, job in enumerate(jobs):
            job_id = f"r{r}.j{k}"
            self.tracer.job = job_id
            t0 = time.perf_counter_ns()
            try:
                out = self.wl.run(job)
                error = None
            except Exception:  # a raise is a failed job; count it and go on
                error = traceback.format_exc(limit=3)
            t1 = time.perf_counter_ns()
            self.tracer.job_span(job_id, t0, t1)
            self.durations.append((t1 - t0) / 1e9)
            d = "--------"
            if error is None:
                try:
                    d = digest(self.wl.check(job, out, self.counts))
                    key = json.dumps(
                        {f: v for f, v in job.items() if f[0] != "_" and f != "id"}, sort_keys=True
                    )
                    if r == 0:
                        self.outputs.setdefault(key, d)
                    if self.outputs.get(key, d) != d:
                        raise CheckFailed("same input, different output")
                    if want is not None and want[8 * k:8 * k + 8] != d:
                        raise CheckFailed("output differs from the recorded digest")
                except Exception as exc:  # noqa: BLE001  a check that raises is a failed check
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                self.fail(job_id, error)
            digests.append(d)
        self.rounds += 1
        return "".join(digests)

    def measure(self, jobs, seconds, min_jobs):
        """Whole rounds while the next one is expected to end nearer to
        `seconds` than stopping now would, and until min_jobs were timed;
        never past MAX_WALL_S, so a much slower program still reports."""
        start = time.monotonic()
        r = 0
        while True:
            before = sum(self.durations)
            self.run_round(r, jobs)
            r += 1
            timed = sum(self.durations)
            if time.monotonic() - start >= MAX_WALL_S or (
                timed + (timed - before) / 2 >= seconds and len(self.durations) >= min_jobs
            ):
                return
            jobs = self.prepare(r)

    def result(self, setup_s):
        out = {
            "setup_s": setup_s,
            "attempted": len(self.durations),
            "failed": self.failed,
            "rounds": self.rounds,
            "durations_s": list(self.durations),
            "counts": dict(self.counts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "trace": None,
        }
        if self.tracer.enabled:
            out["trace"] = self.tracer.summary()
            os.makedirs(OUT, exist_ok=True)
            self.tracer.write(os.path.join(OUT, f"spans_{self.workload}_seed{self.seed}.json"))
        return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=J.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("refusing to run with asserts stripped (-O)")
    if not os.path.abspath(tropsing.__file__).startswith(SRC + os.sep):
        sys.exit(f"tropsing imported from {tropsing.__file__}, not from {SRC}")
    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        jobs = run.prepare(0)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        run.measure(jobs, args.seconds, 0 if args.trace else MIN_JOBS)
        print(json.dumps(run.result(setup_s)))
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
