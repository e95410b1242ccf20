#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of inqcheck.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 15 --trace 0

Builds the workload's inputs from the seed, runs its cases for at least
--seconds (and at least MIN_CASES cases), checks every verdict against a
reference outside the timed region, and prints a summary followed by one
JSON line. With --trace 0 the JSON holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a run that repeats its
untraced cases traced. `--workload all` runs every workload in turn,
each in its own process. See README.md.

Case times are scaled to a fixed CPU speed. The vCPUs of a shared host run
faster or slower by a quarter or more from one second to the next, as the
host's other tenants come and go; so a fixed probe of interpreter and numpy
work runs between cases every PROBE_EVERY_S, and each stretch of cases is
scaled by REF_PROBE_S over the median probe time around it. The summary
also prints the unscaled figures.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import bootstrap

HERE = Path(__file__).resolve().parent
WORK = bootstrap.ROOT / ".perfbench_work"
# enough cases that at least ten latencies lie above the 90th percentile
MIN_CASES = 100
# case time between two speed probes, and probes on each side of a stretch
# of cases whose median sets its speed (about one second in all)
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 10
# the probe's median time on the 2-vCPU Xeon (Sapphire Rapids) KVM guest
# the benchmark was tuned on; scaled times read as times at that speed
REF_PROBE_S = 1.0e-3
SETUP_RUNS = 7
# files of verify-small given to the `verify --jobs` diagnostic
JOBS_FILES = 250
WORKLOAD_NAMES = ("verify-small", "compiled-deep", "modal-sparse", "memo-reuse")


class Deadline(Exception):
    """The case ran past its deadline."""


class CaseTimer:
    """Raises Deadline inside a case that runs past the deadline."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame) -> None:
        if self.armed:
            raise Deadline()

    def run(self, case):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        try:
            return case()
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


class Worker:
    """The process that runs compiled-deep's frontier case (worker.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=bootstrap.ROOT, bufsize=0,
        )
        self.buffer = b""
        if self.read(time.perf_counter() + 120) != {"ready": True}:
            self.stop()
            raise RuntimeError("frontier worker did not start")

    def read(self, deadline: float) -> dict | None:
        """Next message, or None at the deadline or when the worker exits."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def run(self, job: dict, seconds: float) -> str:
        self.proc.stdin.write((json.dumps(job) + "\n").encode())
        self.proc.stdin.flush()
        message = self.read(time.perf_counter() + seconds)
        if message is None:
            self.stop()
            raise Deadline()
        if "error" in message:
            raise RuntimeError(message["error"])
        return message["verdict"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Record:
    """Latencies, failures and verdicts of the cases of one run."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.latencies: list[float] = []
        # per case, REF_PROBE_S over the probe time around it
        self.scales: list[float] = []
        self.failures: Counter = Counter()
        self.verdicts: dict[object, set] = {}

    def add(self, key, seconds: float, verdict: str | None, failure: str | None) -> None:
        if failure is None:
            self.latencies.append(seconds)
            self.verdicts.setdefault(key, set()).add(verdict)
        else:
            # a failed case misses every latency limit
            self.latencies.append(max(seconds, self.deadline))
            self.failures[failure] += 1

    def scaled(self) -> list[float]:
        return [t * k for t, k in zip(self.latencies, self.scales)]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def timed_case(timer: CaseTimer, record: Record, key, case) -> None:
    start = time.perf_counter()
    verdict = failure = None
    try:
        verdict = timer.run(case)
    except Exception as e:  # any exception is a failed case, never an abort
        failure = type(e).__name__
    record.add(key, time.perf_counter() - start, verdict, failure)


def run_frontier(directory: Path, deadline: float) -> tuple[float, str | None, str | None]:
    """The frontier case written in the directory, in a worker process of
    its own killed at the deadline; return its wall time, its verdict or
    None, and the failure or None."""
    worker = Worker()
    start = time.perf_counter()
    verdict = failure = None
    try:
        verdict = worker.run({"qbf": str(directory / "frontier.qbf"), "stem": str(directory / "frontier")},
                             deadline)
    except (Deadline, RuntimeError) as e:
        failure = type(e).__name__ if isinstance(e, Deadline) else str(e)
    finally:
        worker.stop()
    return time.perf_counter() - start, verdict, failure


_PROBE_KEYS = [(i, i * 7 % 13) for i in range(64)]
_PROBE_ARRAY = np.arange(4096, dtype=np.uint64)


def probe() -> float:
    """Wall time of a fixed piece of work of the kinds the program does:
    interpreter dispatch over tuples and a dict, and numpy array arithmetic."""
    start = time.perf_counter()
    table = {}
    for _ in range(48):
        for key in _PROBE_KEYS:
            table[key] = table.get(key, 0) + (key[0] ^ key[1])
    x = _PROBE_ARRAY
    for _ in range(48):
        x = (x * np.uint64(2654435761)) ^ (x >> np.uint64(7))
    return time.perf_counter() - start


def speed_scales(probes: list[float]) -> list[float]:
    """For stretch j, which runs between probes j and j + 1: REF_PROBE_S
    over the median of the probes within PROBE_WINDOW of it."""
    scales = []
    for j in range(len(probes) - 1):
        around = probes[max(0, j + 1 - PROBE_WINDOW): j + 1 + PROBE_WINDOW]
        scales.append(REF_PROBE_S / statistics.median(around))
    return scales


def heap_release():
    """glibc's malloc_trim, or a no-op where it does not exist."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except AttributeError:
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


def run_cases(workload, api, timer: CaseTimer, record: Record, done) -> tuple[int, float, float]:
    """Run the pool's items in order, wrapping around, until done(count, s)
    holds after a case, s being the wall time of the cases so far; return
    the count, that wall time and the same time scaled to REF_PROBE_S.

    A speed probe runs before the first case and then whenever
    PROBE_EVERY_S of cases have passed; the probes' time is in neither.

    After a case that stands for a process of its own, the heap it freed
    is handed back to the system, as that process's exit would; otherwise
    memory freed by earlier cases but kept by the allocator would add to
    the peak of later ones, by an amount that depends on their order.
    """
    release = heap_release() if workload.one_process_per_case else (lambda: None)
    probes = [probe()]
    stretches = []  # (wall time, cases) between consecutive probes
    wall = 0.0
    count = 0
    start = time.perf_counter()
    cases = 0
    while True:
        index = count % len(workload.items)
        if index == 0:
            workload.begin_pass()
        timed_case(timer, record, index, lambda: workload.run(api, index))
        release()
        count += 1
        cases += 1
        elapsed = time.perf_counter() - start
        finished = done(count, wall + elapsed)
        if finished or elapsed >= PROBE_EVERY_S:
            stretches.append((elapsed, cases))
            wall += elapsed
            probes.append(probe())
            start = time.perf_counter()
            cases = 0
        if finished:
            break
    scaled = 0.0
    for (elapsed, cases), scale in zip(stretches, speed_scales(probes)):
        record.scales.extend([scale] * cases)
        scaled += elapsed * scale
    return count, wall, scaled


def prepare(workload, directory: Path) -> None:
    """Everything before the first timed case: write and load the inputs."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in workload.files.items():
        (directory / name).write_text(text, encoding="utf-8")
    workload.load(directory)


def files_digest(files: dict[str, str]) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(f"{name}\0{files[name]}\0".encode())
    return digest.hexdigest()


def measure_setup(args, files: dict[str, str]) -> tuple[list[float], list[float]]:
    """Wall time of SETUP_RUNS fresh processes that each import inqcheck,
    generate and render the inputs and parse those a library workload
    reads, unscaled and scaled by the speed probes run just before and
    after each. Writing the files is left out: it is the benchmark's I/O,
    not the program's work, and on a shared disk it varies by half.
    Each process's inputs must equal this process's, byte for byte."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    times, scaled = [], []
    for _ in range(SETUP_RUNS):
        probes = [probe() for _ in range(PROBE_WINDOW)]
        start = time.perf_counter()
        done = subprocess.run(command, check=True, cwd=bootstrap.ROOT, stdout=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        probes += [probe() for _ in range(PROBE_WINDOW)]
        scaled.append(times[-1] * REF_PROBE_S / statistics.median(probes))
        if done.stdout.strip() != files_digest(files):
            raise RuntimeError("the inputs differ between processes")
    return times, scaled


def check_verdicts(workload, record: Record) -> list[str]:
    """Compare every observed verdict with the reference; return the errors."""
    errors = []
    for key, seen in record.verdicts.items():
        expected = workload.expected(key)
        if seen != {expected}:
            errors.append(f"{workload.name} case {key}: got {sorted(seen)}, expected {expected}")
    return errors


def check_engines(workload) -> tuple[list[str], str]:
    """Run the workload's slice on each engine; all must equal the reference."""
    from inqcheck import evaluate

    errors, verdicts = [], []
    for number, (query, expected) in enumerate(workload.engine_slice()):
        for engine in workload.slice_engines:
            got = str(evaluate(query, engine=engine).value)
            verdicts.append(got)
            if got != expected:
                errors.append(f"{workload.name} slice {number}: {engine} says {got}, reference {expected}")
    return errors, hashlib.sha256("\n".join(verdicts).encode()).hexdigest()[:16]


def verdict_digest(workload, record: Record) -> str:
    """Digest of the verdicts of the pool items that ran, in pool order."""
    seen = [record.verdicts[k] for k in range(len(workload.items)) if k in record.verdicts]
    return hashlib.sha256("\n".join("|".join(sorted(v)) for v in seen).encode()).hexdigest()[:16]


def environment() -> dict:
    from inqcheck import DEFAULT_TABLE_BYTE_CAP, HAS_NUMBA, active_kernel

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": HAS_NUMBA,
        "kernel": active_kernel(),
        "table_byte_cap": DEFAULT_TABLE_BYTE_CAP,
    }


def jobs_speedup(paths: list[str]) -> tuple[float, list[str]]:
    """Throughput of one `verify --jobs 2` call over the files against one
    `verify --jobs 1` call, median of three each, alternating."""
    from inqcheck.cli import main
    from workloads import call_cli

    jobs = min(2, len(os.sched_getaffinity(0)))
    times: dict[int, list[float]] = {1: [], jobs: []}
    errors = []
    for _ in range(3):
        for n in (1, jobs):
            start = time.perf_counter()
            code, out = call_cli(main, ["verify", *paths, "--json", "--jobs", str(n)])
            times[n].append(time.perf_counter() - start)
            report = json.loads(out)
            if code != 0 or report["result"] != "AGREE" or report["cases"] != len(paths):
                errors.append(f"verify --jobs {n}: exit {code}, {report}")
    return statistics.median(times[1]) / statistics.median(times[jobs]), errors


def percentiles(latencies: list[float]) -> tuple[float, float]:
    """The median and the 90th percentile."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return deciles[4], deciles[8]


def measure(workload, args, timer: CaseTimer, record: Record) -> tuple[dict, dict]:
    """Untraced run: every end-to-end metric except setup_s, and the
    unscaled timings for the summary."""
    from tracing import plain_api

    _, wall, scaled = run_cases(workload, plain_api(), timer, record,
                                lambda count, s: s >= args.seconds and count >= MIN_CASES)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p50, p90 = percentiles(record.scaled())
    raw50, raw90 = percentiles(record.latencies)
    ok = record.attempted - record.failed
    metrics = {
        "throughput_cases_per_s": (ok / scaled, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "ok_share": (ok / record.attempted, "share"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    unscaled = {
        "throughput_cases_per_s": ok / wall,
        "latency_p50_ms": raw50 * 1e3,
        "latency_p90_ms": raw90 * 1e3,
        "speed (REF_PROBE_S / probe)": scaled / wall,
    }
    return metrics, unscaled


def measure_traced(workload, args, timer: CaseTimer, record: Record) -> dict:
    """Traced run: about half of --seconds untraced, then the same cases
    again traced; every per-layer metric, averaged over the traced cases."""
    from tracing import Tracer, layer_self_ms, plain_api, traced

    tracer = Tracer()
    count, _, untraced_s = run_cases(workload, plain_api(), timer, record,
                                     lambda n, s: s >= args.seconds / 2 and n >= MIN_CASES)
    with traced(tracer) as api:
        _, _, traced_s = run_cases(workload, api, timer, record, lambda n, s: n == count)
    traced_cases = count

    metrics = {}
    for metric, total_ms in layer_self_ms(tracer.spans).items():
        metrics[metric] = (total_ms / traced_cases, "ms")
    for name in ("reduction.translated_size", "kernels.program_rows", "kernels.implies_rows",
                 "kernels.modal_rows", "kernels.declarative_rows"):
        metrics[name] = (tracer.mean(name), "count")
    metrics["kernels.table_bytes"] = (tracer.mean("kernels.table_bytes"), "B")
    metrics["kernels.lattice_useful_share"] = (tracer.mean("kernels.lattice_useful_share"), "share")
    queries = tracer.total("checker.queries") or 1
    metrics["checker.table_hit_share"] = (tracer.total("checker.table_hits") / queries, "share")
    metrics["checker.sparse_share"] = (tracer.total("checker.sparse_choices") / queries, "share")
    metrics["tracing_overhead"] = (traced_s / untraced_s, "ratio")
    return metrics


def run_all(args) -> int:
    """Run every workload in its own process and print each summary; then
    one JSON line with all results, or stop at the first run that fails."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=bootstrap.ROOT)
        if done.returncode != 0:
            print(done.stdout, end="")
            return done.returncode
        *summary, last = done.stdout.strip().splitlines()
        print("\n".join(summary))
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="least timed wall time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    changed = [name for name in ("INQCHECK_KERNEL", "INQCHECK_TABLE_BYTES") if name in os.environ]
    if changed:
        print(f"perfbench: refusing to run with {', '.join(changed)} set; "
              "it changes the program being measured", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    bootstrap.load_inqcheck()
    from workloads import DEADLINE_S, WORKLOADS, Frontier, VerifySmall

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.parse(workload.files.__getitem__)
        print(files_digest(workload.files))
        return 0

    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    notes = []
    try:
        prepare(workload, directory)
        timer = CaseTimer(DEADLINE_S)
        record = Record(DEADLINE_S)
        if args.trace:
            metrics = measure_traced(workload, args, timer, record)
        else:
            metrics, unscaled = measure(workload, args, timer, record)
            notes += [f"unscaled {name} {value:.6f}" for name, value in unscaled.items()]
        errors = check_verdicts(workload, record)
        slice_errors, engine_digest = check_engines(workload)
        errors += slice_errors
        if args.trace:
            jobs = workload if isinstance(workload, VerifySmall) else VerifySmall(args.seed)
            if jobs is not workload:
                prepare(jobs, directory / "jobs")
            speedup, job_errors = jobs_speedup(jobs.qbf_paths()[:JOBS_FILES])
            metrics["cli.verify_jobs2_speedup"] = (speedup, "ratio")
            errors += job_errors
            frontier = Frontier(args.seed)
            prepare(frontier, directory / "frontier")
            seconds, verdict, failure = run_frontier(directory / "frontier", DEADLINE_S)
            metrics["checker.frontier_ms"] = (seconds * 1e3, "ms")
            notes.append(f"frontier case (l = {frontier.L}): "
                         + (f"decided {verdict}" if verdict else f"not decided: {failure}"))
            if verdict and verdict != frontier.expected():
                errors.append(f"frontier case: got {verdict}, expected {frontier.expected()}")
        else:
            setup, scaled_setup = measure_setup(args, workload.files)
            metrics = {"setup_s": (statistics.median(scaled_setup), "s"), **metrics}
            notes.insert(0, f"unscaled setup_s {statistics.median(setup):.6f}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    p90 = percentiles(record.latencies)[1]
    above = sum(1 for t in record.latencies if t > p90)
    print(f"env {json.dumps(environment())}")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    print(f"  cases attempted {record.attempted}, failed {record.failed} "
          f"(failed_share {record.failed / record.attempted:.6f}), failures {dict(record.failures)}")
    print(f"  latency samples {record.attempted}, above p90 {above}")
    print(f"  verdict digest {verdict_digest(workload, record)}, "
          f"engine slice digest {engine_digest} ({'/'.join(workload.slice_engines)})")
    for note in notes:
        print(f"  {note}")
    for error in errors:
        print(f"WRONG VERDICT: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
