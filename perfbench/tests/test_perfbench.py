"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import inqcheck.cli
import run
from tracing import Tracer, layer_self_ms, plain_api, self_times, traced
from workloads import WORKLOADS, CompiledDeep, Frontier, MemoReuse, ModalSparse, VerifySmall

HERE = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_files(name):
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7", "--setup-only"]
        done = subprocess.run(command, check=True, env=env, timeout=120, stdout=subprocess.PIPE, text=True)
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1] == run.files_digest(WORKLOADS[name](7).files)
    assert digests[0] != run.files_digest(WORKLOADS[name](8).files)


TINY = [
    type("TinyVerify", (VerifySmall,), {"POOL": 10}),
    type("TinyCompiled", (CompiledDeep,), {"ROUNDS": 1, "ROUND": (6, 7)}),
    type("TinyModal", (ModalSparse,), {"PER_N": 1, "WORLDS": range(14, 17)}),
    type("TinyMemo", (MemoReuse,), {"MODELS": 1, "STATES": 5}),
]


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.name)
def test_tiny_configuration_passes_the_verdict_gate(cls, tmp_path):
    workload = cls(3)
    run.prepare(workload, tmp_path)
    record = run.Record(2.0)
    count, wall, scaled = run.run_cases(workload, plain_api(), run.CaseTimer(2.0), record,
                                        lambda n, s: n == len(workload.items))
    assert record.failed == 0 and record.attempted == count == len(workload.items)
    assert len(record.scales) == count and wall > 0 and scaled > 0
    assert run.check_verdicts(workload, record) == []
    assert run.check_engines(workload)[0] == []

    # a wrong verdict is reported, not folded into the timing
    record.verdicts[0] = {"0:WRONG"}
    assert len(run.check_verdicts(workload, record)) == 1


def test_frontier_case_is_cut_at_its_deadline(tmp_path):
    run.prepare(Frontier(3), tmp_path)
    seconds, verdict, failure = run.run_frontier(tmp_path, 0.3)
    assert (verdict, failure) == (None, "Deadline")
    assert seconds == pytest.approx(0.3, abs=0.2)


def test_speed_scales_use_the_probes_around_each_stretch():
    slow = 2 * run.REF_PROBE_S
    probes = [slow] * (2 * run.PROBE_WINDOW + 2) + [run.REF_PROBE_S] * (4 * run.PROBE_WINDOW)
    scales = run.speed_scales(probes)
    assert len(scales) == len(probes) - 1
    assert scales[0] == 0.5 and scales[-1] == 1.0


def test_self_time_is_span_minus_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 7.0, 0],
        ["c", 2.0, 3.0, 1],
        # overlapping children, as from threads, are covered once
        ["d", 20.0, 30.0, -1],
        ["e", 21.0, 25.0, 4],
        ["f", 23.0, 28.0, 4],
    ]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0, 3.0, 4.0, 5.0]


def test_traced_cli_call_accounts_for_its_time_and_restores(tmp_path):
    originals = {name: getattr(inqcheck.cli, name) for name in ("evaluate", "reduce_tqbf", "parse_qbf")}
    workload = type("One", (VerifySmall,), {"POOL": 1})(5)
    run.prepare(workload, tmp_path)
    tracer = Tracer()
    with traced(tracer) as api:
        assert workload.run(api, 0) == workload.expected(0)
    assert {name: getattr(inqcheck.cli, name) for name in originals} == originals
    root = next(span for span in tracer.spans if span[0] == "cli")
    layers = layer_self_ms(tracer.spans)
    assert sum(layers.values()) == pytest.approx((root[2] - root[1]) * 1e3)
    assert layers["kernels.table_ms"] > 0 and layers["qbf.parse_ms"] > 0
    assert tracer.total("checker.queries") == 1
