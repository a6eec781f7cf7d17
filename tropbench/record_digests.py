"""Record the digest of every job's canonical output for the default seed.

    python3 tropbench/record_digests.py

Writes tropbench/digests.json for the first RECORDED_ROUNDS rounds of each
workload.  When a run uses the default seed, the worker compares each job
of those rounds against these digests and counts a mismatch as a failed
job, so record them only at a commit whose outputs are the reference.
The checked-in file was recorded at the commit that introduced the
benchmark.
"""

import json
import os
import shutil
import sys

import jobs as J
import run as runner
import worker

RECORDED_ROUNDS = 8


def main():
    if os.environ.get("PYTHONHASHSEED") != runner.HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=runner.HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    os.chdir(worker.ROOT)
    out = {"seed": J.DEFAULT_SEED, "digest": "sha256[:8] per job, concatenated per round",
           "workloads": {}}
    for workload in J.WORKLOADS:
        run = worker.Run(workload, J.DEFAULT_SEED, trace=False)
        run.recorded = []
        try:
            rounds = [run.run_round(r, run.prepare(r)) for r in range(RECORDED_ROUNDS)]
        finally:
            shutil.rmtree(run.workdir, ignore_errors=True)
        if run.failed:
            sys.exit(f"{workload}: {run.failed} jobs failed; nothing recorded")
        out["workloads"][workload] = rounds
        print(f"{workload}: {RECORDED_ROUNDS} rounds, {sum(len(r) for r in rounds) // 8} jobs")
    with open(worker.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
