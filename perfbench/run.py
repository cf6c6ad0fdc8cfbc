"""compident benchmark: drives the real CLI in process over seeded workloads.

    python3 perfbench/run.py --workload analyze-sparse --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

Run from the root of a checkout.  Each call is ``compident.cli.main(argv)``
with stdout captured, made by one client in a closed loop (the next call
starts when the previous one returned), and every output is checked.

``--trace 0`` measures for ``--seconds`` seconds and reports the
end-to-end metrics.  ``--trace 1`` makes each call of a fixed prefix of
the call sequence untraced and then traced, reports the per-layer metrics
and ``trace.overhead_ratio``, and writes the spans to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(machine, calibration loop, fail ratio, sample counts) is written to
``.perfbench_out/`` too.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from quantile import harrell_davis  # noqa: E402

# Set-up is timed in this process and in fresh probe processes, some
# before and some after the timed loop, so that the median spans the run.
SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 3
# Nominal untraced calls per second; a traced run replays the first
# seconds * rate / 2 calls, a count fixed by the arguments so that the
# counters of two traced runs can be compared exactly.
TRACE_RATE = {"analyze-sparse": 6.0, "sweep-trees": 0.3, "coeffs-dense": 3.0}
CALIBRATION_ITERATIONS = 2_000_000

END_TO_END_UNITS = {"latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "models_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


class LayoutError(Exception):
    """The working directory is not a compident checkout."""


def check_layout() -> None:
    for rel in ("src/compident/cli.py", "fixtures/manifest.json",
                "perfbench/reference.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise LayoutError(f"{rel} not found under {ROOT}")


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: recorded, never used to scale."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def setup(workload: str, seed: int):
    """Import the program and build the corpus; returns (corpus, main, s)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    from compident import cli
    os.makedirs(workloads.WORK_BASE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=workloads.WORK_BASE)
    try:
        corpus = workloads.Corpus(workload, seed, ROOT, workdir)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return corpus, cli.main, time.perf_counter() - start


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def call_once(main, call: workloads.Call):
    """One CLI request; returns (seconds, error or None, models finished)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(call.argv))
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - start, f"raised {exc!r}", 0
    elapsed = time.perf_counter() - start
    error, models = call.check(rc, out.getvalue())
    if error and err.getvalue():
        error += f" (stderr: {err.getvalue().strip()[:200]})"
    return elapsed, error, models


def replay(main, calls, seconds: float):
    """Closed loop over ``calls``, cyclically, until ``seconds`` have passed."""
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        records.append(call_once(main, calls[len(records) % len(calls)]))
    return records


def replay_traced(main, calls, count: int, tracer):
    """The first ``count`` calls, each made untraced and then traced.

    Alternating the two keeps host speed drift and warm-up out of the
    overhead ratio.  Returns (untraced records, traced records).
    """
    untraced, traced = [], []
    for i in range(count):
        call = calls[i % len(calls)]
        untraced.append(call_once(main, call))
        tracer.install()
        try:
            traced.append(tracer.request(i, call.kind, call.argv,
                                         lambda: call_once(main, call)))
        finally:
            tracer.uninstall()
    return untraced, traced


def per_call_medians(records, pass_length: int):
    """(seconds, models) of each distinct call that ran: the median over its
    repetitions.  Every call of the pass then weighs the same, wherever
    the run stopped, and one stalled repetition does not move it."""
    runs: dict = {}
    for i, (seconds, _error, models) in enumerate(records):
        runs.setdefault(i % pass_length, []).append((seconds, models))
    return [(statistics.median(t for t, _m in reps),
             statistics.median(m for _t, m in reps)) for reps in runs.values()]


def end_to_end(per_call, setup_samples) -> dict:
    times = [t for t, _m in per_call]
    return {
        "setup_s": statistics.median(setup_samples),
        "models_per_s": sum(m for _t, m in per_call) / sum(times),
        "latency_p50_ms": harrell_davis(times, 0.5) * 1000,
        "latency_p90_ms": harrell_davis(times, 0.9) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def git_commit():
    """HEAD of the checkout's own .git, read directly; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(seed: int) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "compident")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    uname = os.uname()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "system": f"{uname.sysname} {uname.release} {uname.machine}",
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def run_workload(args) -> dict:
    calib_before = calibrate()
    corpus, main, setup_s = setup(args.workload, args.seed)
    try:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "calls_per_pass": len(corpus.calls)}
        if args.trace:
            from tracing import Tracer
            count = max(1, int(args.seconds * TRACE_RATE[args.workload] / 2))
            tracer = Tracer()
            untraced, traced = replay_traced(main, corpus.calls, count, tracer)
            records = untraced + traced
            metrics = tracer.metrics()
            metrics["trace.overhead_ratio"] = (
                sum(r[0] for r in traced) / sum(r[0] for r in untraced), "ratio")
            os.makedirs(OUT_DIR, exist_ok=True)
            trace_path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
            tracer.write(trace_path)
            record["trace_file"] = os.path.relpath(trace_path, ROOT)
            record["traced_calls"] = count
        else:
            samples = [setup_s] + [setup_probe(args.workload, args.seed)
                                   for _ in range(SETUP_PROBES_BEFORE)]
            records = replay(main, corpus.calls, args.seconds)
            samples += [setup_probe(args.workload, args.seed)
                        for _ in range(SETUP_PROBES_AFTER)]
            per_call = per_call_medians(records, len(corpus.calls))
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in end_to_end(per_call, samples).items()}
            record["setup_samples_s"] = samples
            record["latency_samples"] = len(per_call)
            record["call_seconds"] = [r[0] for r in records]
    finally:
        shutil.rmtree(corpus.workdir, ignore_errors=True)
    errors = [r[1] for r in records if r[1]]
    record.update({
        "attempted": len(records),
        "failed": len(errors),
        "fail_ratio": len(errors) / len(records),
        "errors": errors[:20],
        "calibration_s": {"before": calib_before, "after": calibrate()},
        "machine": machine_record(args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return record


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}: {record['attempted']} calls, "
          f"{record['failed']} failed")
    width = max(len(k) for k in record["metrics"])
    for name, m in record["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<{width}}  {record['fail_ratio']:.6g} ratio")
    for err in record["errors"]:
        print(f"  FAIL {err}")
    cal = record["calibration_s"]
    print(f"  calibration loop: {cal['before']:.4f} s before, "
          f"{cal['after']:.4f} s after")
    print(f"  machine: {json.dumps(record['machine'], sort_keys=True)}")


def result_line(record: dict) -> str:
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": record["metrics"]})


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after another."""
    attempted = failed = 0
    metrics = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics[workload] = result["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        check_layout()
    except LayoutError as exc:
        print(f"error: {exc}; run from the root of a compident checkout",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        corpus, _main, setup_s = setup(args.workload, args.seed)
        shutil.rmtree(corpus.workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
