"""Self-checks of the benchmark harness.

    python3 -m pytest -q perfbench/tests

Run from the root of a checkout; the jobs import ``posetlab`` from
``src``. The whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

SMALL_JOBS = [
    Job("transform-divisibility", ["transform", "--fn", "f.json", "--bound", "60", "--json"],
        "transform", {"family": "divisibility", "bound": 60,
                      "document": {"poset": "divisibility", "values": {"1": "2", "6": "-1/3"}}},
        files={"f.json": json.dumps({"poset": "divisibility",
                                     "values": {"1": "2", "6": "-1/3"}})},
        output_of="g.json"),
    Job("invert-divisibility", ["invert-transform", "--fn", "g.json", "--bound", "60", "--json"],
        "invert", {"family": "divisibility", "bound": 60,
                   "document": {"poset": "divisibility", "values": {"1": "2", "6": "-1/3"}}},
        files={"g.json": None}),
    Job("search-chain", ["search", "--poset", "chain", "--bound", "6", "--shell-bound", "9",
                         "--json"], "search", {"family": "chain", "bound": 6, "shell": 9}),
    Job("witness-subsets", ["witness", "--poset", "subsets", "--y", "{1,2}", "--avoid", "{4}",
                            "--count", "3", "--json"], "witness",
        {"family": "subsets", "y": (1, 2), "avoid": [(4,)], "count": 3, "found": 3}),
    Job("isomap", ["isomap", "--n", "1000003", "--json"], "factor",
        {"n": 1000003, "factors": [1000003]}),
]


def _run_pass(jobs, expected, work, traced):
    verdicts = {}
    deadline = time.monotonic() + 120
    return run.Pass(traced, [run.run_job(job, expected[job.name], work, traced, deadline,
                                         verdicts) for job in jobs])


@pytest.fixture
def work(tmp_path):
    return tmp_path


def test_traced_stdout_matches_untraced(work):
    expected = run.write_inputs(SMALL_JOBS, work)
    for traced in (False, True):
        result = _run_pass(SMALL_JOBS, expected, work, traced)
        assert [r.reason for r in result.runs] == [None] * len(SMALL_JOBS)
        assert all(r.ok for r in result.runs)
    # ok means stdout equalled the expected bytes in both modes, so the
    # traced and untraced outputs are byte-identical.


def test_tampered_expected_output_is_an_error(work):
    expected = run.write_inputs(SMALL_JOBS[:1], work)
    job = SMALL_JOBS[0]
    tampered = expected[job.name].replace(b'"2"', b'"3"', 1)
    assert tampered != expected[job.name]
    result = run.run_job(job, tampered, work, False, time.monotonic() + 60, {})
    assert not result.ok
    assert "differs" in result.reason


@pytest.mark.parametrize("job", SMALL_JOBS[1:], ids=lambda job: job.name)
def test_oracles_reject_tampered_outputs(job, work):
    expected = run.write_inputs([SMALL_JOBS[0], job] if job.files else [job], work)
    text = expected[job.name].decode()
    assert oracles.check(job, text) is None
    doc = json.loads(text)
    if "values" in doc:
        key = next(iter(doc["values"]))
        doc["values"][key] = "7"
    elif "candidate" in doc:
        doc["candidate"]["f"] = {"1": "1"}
    elif "certificates" in doc:
        doc["certificates"][0]["mu_yz"] = "1"
    else:
        doc["multiset"] = "1000033"
    assert oracles.check(job, json.dumps(doc)) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_across_traced_runs(workload, work):
    jobs = workloads.jobs_for(workload, 7)
    expected = run.write_inputs(jobs, work)
    first, second = (_run_pass(jobs, expected, work, True) for _ in range(2))
    assert all(r.ok for r in first.runs + second.runs)
    counts_a, _ = run.pass_layers(first)
    counts_b, _ = run.pass_layers(second)
    assert counts_a == counts_b
    assert counts_a["cli.handler.calls"] == len(jobs)


def test_generator_is_seeded():
    def documents(seed):
        return [(job.argv, job.files) for job in workloads.jobs_for("invert", seed)]

    assert documents(3) == documents(3)
    assert documents(3) != documents(4)
    for workload in workloads.WORKLOADS:
        sizes = [len(job.argv) for job in workloads.jobs_for(workload, 3)]
        assert sizes == [len(job.argv) for job in workloads.jobs_for(workload, 4)]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
