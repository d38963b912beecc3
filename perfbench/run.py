"""Cold-process benchmark of the bktame CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each invocation of ``bktame.cli.run`` happens in its own fresh interpreter
(perfbench/child.py), because a CLI user pays for the module imports and
the ``lru_cache`` fills of ``build_field``, ``jh_factors`` and
``_bm_system`` on every run.  One child runs at a time, so the benchmark
never asks for more than one core besides its own idle parent.

A run is made of whole passes: a pass runs every argv variant of the
workload once, and a pass starts only if it is expected to end by the
deadline (the first always runs), so every variant runs equally often.
With ``--trace 0`` the run also spawns ``SETUP_SAMPLES`` import-only
children for set-up time, spread over the run, and reports the end-to-end
metrics.  With ``--trace 1`` each argv runs untraced and then traced, and
the run reports the per-layer metrics of the traced invocations plus the
tracing overhead.  Every invocation is checked: exit code 0, no row with
ok false, and a report sha256 equal to the pinned one (perfbench/pins.json)
and to every other invocation of the same argv in the run.  Any failure
makes the benchmark exit 1.

Human-readable lines start with ``#``; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
PINS = os.path.join(HERE, "pins.json")

SETUP_SAMPLES = 48
CHILD_TIMEOUT_S = 150


class Invocation:
    """Outcome of one child process."""

    def __init__(self, argv, traced, data, error):
        self.argv = argv
        self.traced = traced
        self.data = data or {}
        self.reasons = [error] if error else []

    @property
    def key(self):
        return " ".join(self.argv)

    @property
    def failed(self):
        return bool(self.reasons)


def spawn(job, env):
    """Run one child; returns (parsed result or None, error text or None)."""
    job = dict(job, spawned=time.clock_gettime(time.CLOCK_MONOTONIC))
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(job)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % CHILD_TIMEOUT_S
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, "child exited %d: %s" % (proc.returncode, tail[0])
    return json.loads(lines[-1]), None


def judge(inv, pins, seen):
    """Append every reason the invocation counts as failed."""
    if not inv.data:
        return
    if inv.data["code"] != 0:
        inv.reasons.append("exit code %d" % inv.data["code"])
    if inv.data["bad_rows"]:
        inv.reasons.append("%d rows with ok false" % inv.data["bad_rows"])
    digest = inv.data["sha256"]
    if inv.key not in pins:
        inv.reasons.append("no pinned report sha256 (re-run perfbench/pin.py)")
    elif pins[inv.key] != digest:
        inv.reasons.append("report sha256 %s differs from pinned %s" % (digest, pins[inv.key]))
    first = seen.setdefault(inv.key, digest)
    if first != digest:
        inv.reasons.append("report sha256 %s differs from this run's %s" % (digest, first))


def tail_percentile(values):
    """Highest of p99.9..p50 with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def describe(name, unit, values):
    text = "# %s: median %.6g %s over %d samples" % (
        name, statistics.median(values), unit, len(values))
    tail = tail_percentile(values)
    if tail:
        return text + ", p%g %.6g %s" % (tail[0], tail[1], unit)
    return text + ", no percentile has 10 samples beyond it"


def provenance():
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "bktame")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                src_hash.update(name.encode() + b"\0" + handle.read())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "src_sha256": src_hash.hexdigest(), "commit": git_commit()}


def git_commit():
    """HEAD's commit if the checkout root is a git work tree, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload, seed, seconds, trace, env, pins):
    """Run whole passes over the workload's argvs; returns (invocations, setup samples).

    Before each pass the untraced run spawns import-only children until
    their count keeps step with the elapsed share of the run, and it spawns
    the rest at the end, so set-up is sampled across the whole run.
    """
    argvs = workload.argvs(seed)
    start = time.monotonic()
    deadline = start + seconds
    setup = []

    def sample_setup(count):
        for _ in range(count - len(setup)):
            data, error = spawn({"argv": None}, env)
            if error:
                raise RuntimeError("import-only child failed: %s" % error)
            setup.append(data["setup_s"])

    invocations, seen, passes = [], {}, []
    spans = os.path.join(OUT_DIR, "%s.spans" % workload.name)
    while True:
        if not trace and seconds > 0:
            elapsed = (time.monotonic() - start) / seconds
            sample_setup(int(SETUP_SAMPLES * min(1.0, elapsed)))
        if passes and time.monotonic() + statistics.median(passes) > deadline:
            break
        started = time.monotonic()
        for argv in argvs:
            for traced in ((False, True) if trace else (False,)):
                job = {"argv": argv, "trace": traced, "spans": spans if traced else None,
                       "invocation": "%s-%d-%d" % (workload.name, seed, len(invocations))}
                data, error = spawn(job, env)
                inv = Invocation(argv, traced, data, error)
                judge(inv, pins, seen)
                invocations.append(inv)
        passes.append(time.monotonic() - started)
    if not trace:
        sample_setup(SETUP_SAMPLES)
    return invocations, setup


def end_to_end(invocations, setup):
    done = [inv.data for inv in invocations if inv.data]
    samples = {"wall_s": [d["wall_s"] for d in done], "setup_s": setup,
               "peak_rss_mb": [d["peak_rss_mb"] for d in done]}
    metrics = {}
    for name, unit in END_TO_END:
        if name in samples:
            value = statistics.median(samples[name])
            print(describe(name, unit, samples[name]))
        else:  # rows_per_s: rows verified per second of summed wall_s
            value = sum(d["rows"] for d in done) / sum(samples["wall_s"])
            print("# %s: %.6g %s over %d samples" % (name, value, unit, len(done)))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def per_layer(invocations):
    traced = [inv.data for inv in invocations if inv.traced and inv.data]
    plain = [inv.data["wall_s"] for inv in invocations if not inv.traced and inv.data]
    absent = sorted({name for data in traced for name in data["absent"]})
    if absent:
        print("# absent layers (function no longer exists): %s" % ", ".join(absent))
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = (statistics.median(d["wall_s"] for d in traced) / statistics.median(plain)
                     if traced and plain else 0.0)
        else:
            value = statistics.median(d["layers"].get(name, 0) for d in traced) if traced else 0
        metrics[name] = {"value": value, "unit": unit}
        print("# %s: %.6g %s over %d traced samples" % (name, value, unit, len(traced)))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bktame", "cli.py")):
        print("perfbench: no bktame sources under %s" % SRC, file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=SRC)
    data, error = spawn({"argv": None}, env)  # warm-up: byte-compiles and fills the page cache
    if error:
        print("perfbench: cannot import bktame.cli: %s" % error, file=sys.stderr)
        return 2
    with open(PINS) as handle:
        pins = json.load(handle)
    os.makedirs(OUT_DIR, exist_ok=True)

    workload = WORKLOADS[args.workload]
    print("# workload %s, seed %d, trace %d: %s" % (workload.name, args.seed, args.trace,
                                                    workload.why))
    print("# loads %s; bypasses %s" % (", ".join(workload.loads), ", ".join(workload.bypasses)))
    print("# provenance %s" % json.dumps(provenance(), sort_keys=True))
    invocations, setup = measure(workload, args.seed, args.seconds, args.trace, env, pins)

    for key in sorted({inv.key for inv in invocations}):
        runs = [inv for inv in invocations if inv.key == key and inv.data]
        digest = runs[0].data["sha256"] if runs else "none"
        print("# argv [%s] x%d sha256 %s" % (key, len(runs), digest))
    failed = [inv for inv in invocations if inv.failed]
    for inv in failed:
        print("# FAIL [%s]%s: %s" % (inv.key, " traced" if inv.traced else "",
                                      "; ".join(inv.reasons)))
    print("# fail_ratio: %d/%d = %.6g" % (len(failed), len(invocations),
                                         len(failed) / len(invocations)))
    if not any(inv.data for inv in invocations):
        print("perfbench: no invocation produced a result", file=sys.stderr)
        return 1
    metrics = per_layer(invocations) if args.trace else end_to_end(invocations, setup)
    print(json.dumps({"correct": not failed, "attempted": len(invocations),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
