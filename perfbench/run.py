"""posetlab benchmark: seeded CLI job lists, run as a researcher runs them.

    python3 perfbench/run.py --workload invert --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds ``src/posetlab``. One closed-
loop client runs the workload's job list pass after pass, each job in a
fresh ``posetlab.cli`` process with ``src`` on the path and an empty
Mobius memo, until the next pass would overrun ``--seconds``. Every
job's stdout must match, byte for byte, what the seed commit's copy of
the package (``perfbench/seedref``) prints for the same arguments, and
must pass an independent oracle (``oracles.py``); a nonzero exit, a
mismatch or a failed check counts the job as failed.

On a shared cloud VM (2 vCPUs, 2.1 GHz Xeon) the speed of pure-Python
code drifts by up to a quarter within a minute, so the benchmark pins
itself and its jobs to one CPU and scales every reported time to a
nominal speed: a fixed pure-Python calibration workload runs in this
process before and after each job, and the job's times are multiplied
by ``NOMINAL_CALIBRATION_S`` over the mean of those two calibration
times. The raw medians are printed alongside.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (time to run
the job list once the CLI is ready: the sum over jobs of each job's
median across passes), ``setup_s`` (median over jobs of the time from
spawn until ``import posetlab.cli`` is done) and ``peak_rss_mb``
(highest max-RSS of any job). ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics that ``tracing.py``
collects. ``--workload all`` runs every workload in turn. The last line
of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 150  # jobs still running this long after start are killed and fail
NOMINAL_CALIBRATION_S = 0.025  # typical calibrate() time on a 2.1 GHz Xeon vCPU
LAYERS = ("cli", "lab", "functions", "incidence", "posets", "linalg", "numtheory")


@dataclass
class JobRun:
    ok: bool
    reason: str | None
    setup_s: float
    wall_s: float
    rss_mb: float
    stdout_bytes: int
    trace: dict | None
    calibration_s: float = NOMINAL_CALIBRATION_S

    @property
    def speed(self) -> float:
        """Factor that scales this job's raw times to nominal speed."""
        return NOMINAL_CALIBRATION_S / self.calibration_s


@dataclass
class Pass:
    traced: bool
    runs: list = field(default_factory=list)


# -- expected outputs -----------------------------------------------------------


def write_inputs(jobs, work: Path) -> dict:
    """Write the input documents and return each job's expected stdout,
    as printed by the seed commit's package run in this process."""
    from seedref import cli as reference

    expected = {}
    for job in jobs:
        for name, text in job.files.items():
            if text is not None:
                (work / name).write_text(text, encoding="utf-8")
        buffer = io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(buffer):
                status = reference.run(list(job.argv))
        finally:
            os.chdir(cwd)
        out = buffer.getvalue()
        problem = oracles.check(job, out) if status == 0 else f"{job.name}: exit {status}"
        if problem:
            raise RuntimeError(f"reference output fails its own check: {problem}")
        expected[job.name] = out.encode("utf-8")
        if job.output_of:
            (work / job.output_of).write_bytes(expected[job.name])
    return expected


# -- running jobs ---------------------------------------------------------------


def _child_env() -> dict:
    """The caller's environment, with ``src`` first on the path; jobs
    keep their asserts and share the bytecode the warm-up compiles,
    whatever the caller's Python settings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in ("PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


def run_job(job, expected: bytes, work: Path, traced: bool, deadline: float,
            verdicts: dict) -> JobRun:
    meta_path = work / "meta.json"
    meta_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "job.py"), str(meta_path), "1" if traced else "0",
            job.name, "--", *job.argv]
    with open(work / "stderr.txt", "wb") as stderr:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=work, env=_child_env(), stdout=subprocess.PIPE,
                                stderr=stderr)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            end_ns = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        meta = None
    if meta is None:
        reason = f"{job.name}: the job wrote no timing record"
        meta = {"ready_ns": spawn_ns}
    elif proc.returncode != 0:
        tail = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        reason = f"{job.name}: exit {proc.returncode} {' '.join(tail)}"
    elif stdout != expected:
        reason = f"{job.name}: stdout differs from the seed commit's output"
    else:
        key = (job.name, stdout)
        if key not in verdicts:
            verdicts[key] = oracles.check(job, stdout.decode("utf-8", errors="replace"))
        reason = verdicts[key]
    return JobRun(
        ok=reason is None,
        reason=reason,
        setup_s=(meta["ready_ns"] - spawn_ns) / 1e9,
        wall_s=(end_ns - meta["ready_ns"]) / 1e9,
        rss_mb=usage.ru_maxrss / 1024,
        stdout_bytes=len(stdout),
        trace=meta.get("trace"),
    )


def calibrate() -> float:
    """Seconds that a fixed pure-Python workload (Fraction sums, dict
    stores, an int loop) takes right now on the host."""
    start = time.perf_counter()
    for _ in range(3):
        acc, table, total = Fraction(0), {}, 0
        for i in range(1500):
            acc += Fraction(i % 7 - 3, 1 + i % 5)
            table[(i, i % 11)] = acc
        for i in range(40000):
            total += i * i % 7
    return time.perf_counter() - start


def warm_up(work: Path) -> None:
    """Import the package once so that later jobs find compiled bytecode."""
    subprocess.run([sys.executable, "-c", "import posetlab.cli"], cwd=work, env=_child_env(),
                   check=True, timeout=60)


def measure(workload: str, seed: int, seconds: float, trace: bool, started: float):
    jobs = workloads.jobs_for(workload, seed)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        work = Path(tmp)
        expected = write_inputs(jobs, work)
        warm_up(work)
        deadline = started + RUN_LIMIT_S
        verdicts: dict = {}
        passes: list = []
        rounds = 0
        begin = time.monotonic()
        before = calibrate()
        while True:
            for traced in ((False, True) if trace else (False,)):
                current = Pass(traced)
                for job in jobs:
                    run = run_job(job, expected[job.name], work, traced, deadline, verdicts)
                    after = calibrate()
                    run.calibration_s = (before + after) / 2
                    before = after
                    current.runs.append(run)
                passes.append(current)
            rounds += 1
            elapsed = time.monotonic() - begin
            per_round = elapsed / rounds
            if elapsed + per_round > seconds or time.monotonic() + per_round > deadline:
                break
    return passes


# -- metrics --------------------------------------------------------------------


def job_list_s(passes, scaled: bool = True) -> float:
    """Time to run the job list: the sum over jobs of each job's median
    wall time across the passes."""
    per_job = zip(*([r.wall_s * (r.speed if scaled else 1) for r in p.runs] for p in passes))
    return sum(statistics.median(times) for times in per_job)


def end_to_end(passes) -> dict:
    runs = [run for p in passes for run in p.runs]
    return {
        "wall_s": (job_list_s(passes), "s"),
        "setup_s": (statistics.median(run.setup_s * run.speed for run in runs), "s"),
        "peak_rss_mb": (max(run.rss_mb for run in runs), "MB"),
    }


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def pass_layers(p: Pass) -> tuple:
    """(counters, scaled seconds by span name) for one traced pass. A
    layer's self time (key ``self.<layer>``) is its spans' durations
    minus the time their child spans cover."""
    counts: dict = {"cli.stdout_bytes": 0, "incidence.memo_entries": 0}
    times: dict = {}

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for run in p.runs:
        trace = run.trace or {"counts": {}, "spans": []}
        for key, value in trace["counts"].items():
            if key == "incidence.memo_entries":
                counts[key] = max(counts[key], value)
            else:
                add(counts, key, value)
        spans = trace["spans"]
        child_ns = [0] * len(spans)
        scale = run.speed / 1e9
        for name, start, end, parent, _job in spans:
            if parent >= 0:
                child_ns[parent] += end - start
            add(times, name, (end - start) * scale)
            add(counts, name + ".calls", 1)
        for (name, start, end, parent, _job), inner in zip(spans, child_ns):
            add(times, "self." + name.split(".")[0], (end - start - inner) * scale)
        counts["cli.stdout_bytes"] += run.stdout_bytes
    return counts, times


def per_layer(passes) -> dict:
    traced = [pass_layers(p) for p in passes if p.traced]
    counts = traced[0][0]
    if any(other != counts for other, _ in traced[1:]):
        raise RuntimeError("per-layer counters differ between passes of one run")

    def seconds(name):
        return statistics.median(times.get(name, 0.0) for _, times in traced)

    def c(name):
        return counts.get(name, 0)

    metrics = {
        "scalars.ops": (c("scalars.ops"), "count"),
        "scalars.integer_share": (_share(c("scalars.integer"), c("scalars.ops")), "ratio"),
        "scalars.gaussian_share": (_share(c("scalars.gaussian"), c("scalars.ops")), "ratio"),
        "linalg.nullspace_s": (seconds("linalg.nullspace"), "s"),
        "linalg.cells": (c("linalg.cells"), "count"),
        "linalg.rank": (c("linalg.rank"), "count"),
        "functions.materialize_s": (seconds("functions.materialize"), "s"),
        "functions.points": (c("functions.points"), "count"),
        "functions.nonzero_share": (_share(c("functions.nonzero"), c("functions.points")),
                                    "ratio"),
        "posets.leq_calls": (c("posets.leq_calls"), "count"),
        "posets.interval_calls": (c("posets.interval.calls"), "count"),
        "posets.interval_elements": (c("posets.interval_elements"), "count"),
        "posets.interval_s": (seconds("posets.interval"), "s"),
        "posets.window_elements": (c("posets.window_elements"), "count"),
        "incidence.row_s": (seconds("incidence.row"), "s"),
        "incidence.rows": (c("incidence.rows"), "count"),
        "incidence.row_walk": (c("incidence.row_walk"), "count"),
        "incidence.row_fill_share": (_share(c("incidence.row_fills"), c("incidence.row_walk")),
                                     "ratio"),
        "incidence.memo_hit_share": (
            _share(c("incidence.memo_hits"), c("incidence.memo_reads")), "ratio"),
        "incidence.convolution_s": (seconds("incidence.convolution"), "s"),
        "incidence.memo_entries": (c("incidence.memo_entries"), "count"),
        "lab.witness.candidates": (c("lab.witness.candidates"), "count"),
        "lab.witness.accepted": (c("lab.witness.accepted"), "count"),
        "lab.witness.yield": (_share(c("lab.witness.accepted"), c("lab.witness.candidates")),
                              "ratio"),
        "lab.check_witness_s": (seconds("lab.check_witness"), "s"),
        "lab.census_s": (seconds("lab.census"), "s"),
        "lab.pair_search_s": (seconds("lab.pair_search"), "s"),
        "numtheory.factor_calls": (c("numtheory.factor_calls"), "count"),
        "numtheory.factor_s": (seconds("numtheory.factor"), "s"),
        "numtheory.is_prime_calls": (c("numtheory.is_prime_calls"), "count"),
        "cli.handler_s": (seconds("cli.handler"), "s"),
        "cli.render_s": (seconds("cli.render"), "s"),
        "cli.stdout_bytes": (c("cli.stdout_bytes"), "bytes"),
        "trace.overhead_s": (job_list_s([p for p in passes if p.traced])
                             - job_list_s([p for p in passes if not p.traced]), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (seconds(f"self.{layer}"), "s")
    return metrics


# -- entry point ----------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, started):
    passes = measure(workload, seed, seconds, trace, started)
    runs = [run for p in passes for run in p.runs]
    failed = [run for run in runs if not run.ok]
    for run in failed[:5]:
        print(f"FAILED {run.reason}", file=sys.stderr)
    metrics = per_layer(passes) if trace else end_to_end(passes)
    untraced = [p for p in passes if not p.traced]
    print(f"{workload}: seed {seed}, {len(untraced)} untraced"
          f"{f' and {len(passes) - len(untraced)} traced' if trace else ''}"
          f" passes of {len(passes[0].runs)} jobs")
    print(f"  raw (unscaled) job list {job_list_s(untraced, scaled=False):.4f} s, "
          f"setup {statistics.median(r.setup_s for r in runs):.4f} s, "
          f"calibration {statistics.median(r.calibration_s for r in runs):.4f} s")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:28s} {shown:>14s} {unit}")
    print(f"  {'error_rate':28s} {_share(len(failed), len(runs)):>14.6g} ratio"
          f" ({len(failed)} failed of {len(runs)} jobs)")
    return metrics, len(runs), len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "posetlab" / "cli.py").is_file():
        print(f"error: {SRC / 'posetlab'} not found; run from a posetlab checkout",
              file=sys.stderr)
        return 2

    # Jobs inherit the affinity, so calibration and jobs share one core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        found, tried, bad = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         time.monotonic())
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
        attempted += tried
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
