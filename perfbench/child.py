"""One cold bktame CLI invocation, run in a fresh interpreter.

Usage: python3 perfbench/child.py '<json job>'

The parent passes the job as one JSON argument: ``spawned`` (its
CLOCK_MONOTONIC reading just before the spawn), ``argv`` (the CLI
arguments, or null to stop after the import), ``trace`` (install the
tracer) and ``spans`` (where the tracer writes its spans).  ``bktame`` must
be importable, which the parent arranges through PYTHONPATH.

The first statement imports ``bktame.cli`` so that set-up time covers
exactly interpreter start plus that import.  The child prints one JSON
line: set-up and wall time, the report's sha256, peak RSS taken before the
report is parsed, the row counts, and per-layer metrics when traced.
"""

import time

import bktame.cli as cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import csv  # noqa: E402  (kept out of the set-up interval on purpose)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def count_rows(text, fmt):
    """(rows, rows whose ok is false) of a rendered report."""
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        return len(rows), sum(1 for row in rows if row.get("ok") == "False")
    items = json.loads(text)["items"]
    return len(items), sum(1 for it in items if it.get("ok") is False)


def report_format(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else "json"


def main():
    job = json.loads(sys.argv[1])
    out = {"setup_s": READY - job["spawned"]}
    argv = job["argv"]
    if argv is None:
        return out
    tracer = None
    if job.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer(job.get("invocation"))
        tracer.install()
    t0 = time.perf_counter()
    text, code = cli.run(argv)
    out["wall_s"] = time.perf_counter() - t0
    out["code"] = code
    out["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["rows"], out["bad_rows"] = count_rows(text, report_format(argv))
    if tracer is not None:
        out["layers"], out["absent"] = tracer.metrics()
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
