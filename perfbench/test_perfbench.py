"""The benchmark's own tests.  Run with: python3 -m pytest perfbench -q"""

import json
import os
import subprocess
import sys
import time

import pytest

import run
from run import CHILD, PINS, ROOT, SRC, tail_percentile
from tracer import GROUPS, Tracer, load_spans
from workloads import SEED_POOL, WORKLOADS

ENV = dict(os.environ, PYTHONPATH=SRC)


def child(argv, trace, spans=None):
    job = {"spawned": time.clock_gettime(time.CLOCK_MONOTONIC), "argv": argv,
           "trace": trace, "spans": spans, "invocation": "test"}
    proc = subprocess.run([sys.executable, CHILD, json.dumps(job)], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_workload_argv_is_a_function_of_the_seed():
    for workload in WORKLOADS.values():
        assert workload.argvs(7) == workload.argvs(7)
        assert len(workload.argvs(7)) == workload.variants
        if any("{seed}" in arg for arg in workload.template):
            assert workload.argvs(7) != workload.argvs(8)
    assert WORKLOADS["bm_cycles"].argvs(1)[0] == [
        "bm", "-p", "5", "-f", "2", "--seed", "8", "--format", "csv"]
    assert WORKLOADS["oracle_pairs"].argvs(SEED_POOL + 3) == WORKLOADS["oracle_pairs"].argvs(3)


def test_every_argv_of_the_seed_pool_is_pinned():
    with open(PINS) as handle:
        pins = json.load(handle)
    pool = {" ".join(argv) for workload in WORKLOADS.values() for argv in workload.pool()}
    assert pool == set(pins)
    for seed in (0, 1, 10, 12345):
        for workload in WORKLOADS.values():
            assert all(" ".join(argv) in pool for argv in workload.argvs(seed))


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(1, 21))) == (50, 10)
    assert tail_percentile(list(range(1, 101)))[0] == 90


def test_groups_without_functions_are_absent_not_errors():
    values, absent = Tracer(None).metrics()
    assert set(GROUPS) <= set(absent)
    assert values["shapes.oracle.calls"] == 0


@pytest.mark.parametrize("argv, layer", [
    (["oracle", "-p", "3", "-f", "1", "--samples", "40", "--seed", "4"], "gfarith.gauss_rank.calls"),
    (["bm", "-p", "3", "-f", "1", "--seed", "2", "--format", "csv"], "intlinalg.solve.calls"),
    (["ptau", "-p", "3", "-f", "2"], "shapes.refined_shapes.count"),
])
def test_tracing_changes_no_report_byte(argv, layer, tmp_path):
    spans_path = str(tmp_path / "spans")
    plain = child(argv, False)
    traced = child(argv, True, spans_path)
    assert plain["code"] == traced["code"] == 0
    assert plain["sha256"] == traced["sha256"]
    assert traced["layers"][layer] > 0
    assert traced["layers"]["cli.command.calls"] == 1
    header, spans = load_spans(spans_path)
    assert header["count"] == len(spans) == traced["layers"]["trace.spans"]
    for name, parent, start, end in spans:
        assert start <= end
        if parent >= 0:
            _, _, pstart, pend = spans[parent]
            assert pstart <= start and end <= pend
    assert spans[0][0] == "cli.run" and spans[0][1] == -1


def test_tampered_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    with open(PINS) as handle:
        pins = json.load(handle)
    key = " ".join(WORKLOADS["bm_cycles"].argvs(0)[2])
    pins[key] = "0" * 64
    tampered = tmp_path / "pins.json"
    tampered.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS", str(tampered))
    code = run.main(["--workload", "bm_cycles", "--seed", "0", "--seconds", "0"])
    out = capsys.readouterr().out
    assert code == 1
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 8
    assert "differs from pinned" in out
