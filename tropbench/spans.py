"""In-memory spans around the benchmark's calls into each layer.

A span is (job id, name, start ns, end ns).  Every job gets a parent span
named "job"; with tracing on, each call the benchmark makes into a layer's
public function gets a child span with the same job id.  Spans stay in
memory until the run ends and are then written out in one piece.
"""

import json
import time

JOB = "job"


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.job = None
        self.spans = []

    def call(self, name, fn, *args, **kwargs):
        """Call fn, recording a span named `name` when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((self.job, name, t0, time.perf_counter_ns()))

    def job_span(self, job_id, t0, t1):
        if self.enabled:
            self.spans.append((job_id, JOB, t0, t1))

    def summary(self):
        """Per layer call: busy seconds and calls; plus job self time, i.e.
        the part of each job span that no layer span covers."""
        layers = {}
        children = {}
        jobs = {}
        for job_id, name, t0, t1 in self.spans:
            if name == JOB:
                jobs[job_id] = (t0, t1)
                continue
            busy, calls = layers.get(name, (0, 0))
            layers[name] = (busy + (t1 - t0), calls + 1)
            children.setdefault(job_id, []).append((t0, t1))
        self_ns = 0
        for job_id, (j0, j1) in jobs.items():
            covered, reach = 0, j0
            for t0, t1 in sorted(children.get(job_id, ())):
                t0, t1 = max(t0, reach), min(t1, j1)
                if t1 > t0:
                    covered += t1 - t0
                    reach = t1
            self_ns += (j1 - j0) - covered
        return {
            "layers": {name: (busy / 1e9, calls) for name, (busy, calls) in layers.items()},
            "job_busy_s": sum(t1 - t0 for t0, t1 in jobs.values()) / 1e9,
            "job_self_s": self_ns / 1e9,
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["job", "name", "start_ns", "end_ns"], "spans": self.spans}, fh)
