"""disclab benchmark: one workload, one closed-loop client, one instance at a time.

Usage, from the repository root:

    python3 bench/run.py --workload exact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all      # every workload, one process each

Workloads (see workloads.py): `exact` (certification grid, multicolor chain,
random exact weighted and multicolor solves, the README sweep), `allocate`
(PROP(2H) allocation with the local-search oracle) and `minc` (brute-force
minimal c). Every instance is one in-process call of `disclab.cli.run(argv)`
on files generated from the seed; no --threads is passed, so the CLI default
applies.

A pass runs the workload's whole instance list once and re-checks every
outcome with the correctness gate (verify.py). A run makes as many whole
passes as fit in --seconds, but at least one and at least MIN_SAMPLES
instances, so every run measures the same mix. Every pass must print the
same stdout bytes.

Times are CPU seconds of this process (all its threads), read around each
`run(argv)` call and scaled to a reference CPU speed. On the shared 2-vCPU
virtual machine this benchmark was built on, the wall clock also counted
time the hypervisor gave the CPU to others (up to a third of a pass), and
the CPU itself switched every few seconds between two speeds about 1.6x
apart, so identical work took 0.19 s or 0.32 s. Between instances the
benchmark therefore times a fixed pure-Python kernel (`reference_time`) and
scales each instance's CPU time by REFERENCE_S over the mean of the kernel
times just before and after it. On that machine this cut the run-to-run
variation of a fixed pass from 14.5% to 5.5%. Unscaled wall-clock figures
are printed for reference but are not metrics.

--trace 0 reports the end-to-end metrics. setup_s is the median, over
SETUP_SAMPLES fresh processes, of the scaled CPU time from process start
until the inputs are written and the first instance could start.

--trace 1 runs one untraced pass, then TRACED_PASSES passes with spans
recorded around disclab's public functions (tracing.py), and reports the
per-layer metrics of one pass. It checks that every count repeats exactly
between the traced passes and that the traced stdout matches the untraced
stdout, and writes the spans to .bench_out/.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it
REFERENCE_S = 0.0025  # CPU seconds the reference kernel takes at the reference speed
SETUP_SAMPLES = 5
TRACED_PASSES = 2
DEFAULT_SEED = 1
WORKLOADS = ("exact", "allocate", "minc")


def _import_program():
    """Import disclab from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    import disclab

    if not os.path.abspath(disclab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"disclab resolved to {disclab.__file__}, not {SRC}")


def reference_time():
    """CPU seconds of a fixed pure-Python kernel (Fractions, tuples, dicts)
    that never touches disclab, so it gauges only the machine's speed."""
    started = time.process_time()
    total = Fraction(0)
    counts = {}
    for i in range(600):
        total += Fraction(i % 7, 1 + i % 5)
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return time.process_time() - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", default="", metavar="DIR",
                        help="write the inputs under DIR, print the set-up time and exit")
    return parser.parse_args(argv)


class PassResult:
    """Per-instance scaled CPU and wall times, failures and the stdout digest of one pass."""

    def __init__(self):
        self.latencies = []
        self.scales = []  # latency / CPU seconds, per instance
        self.walls = []
        self.failures = []
        self.digest = hashlib.sha256()


def run_pass(instances, run, check, tracer=None):
    """Run every instance once; time each call of `run` and gate its outcome.

    `run` is `disclab.cli.run` (looked up by the caller, so a traced run gets
    the wrapped one); `check` is the correctness gate. An instance that
    raises, exits unexpectedly or fails the gate is recorded as a failure.
    """
    result = PassResult()
    if tracer is not None:
        tracer.start_pass()
    before = reference_time()
    for index, instance in enumerate(instances):
        outcome = reason = None
        if tracer is not None:
            tracer.instance = index
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            outcome = run(instance.argv)
        except Exception:  # a crash is a wrong answer, not the end of the run
            reason = traceback.format_exc(limit=3)
        finally:
            cpu = time.process_time() - cpu
            result.walls.append(time.perf_counter() - wall)
            if tracer is not None:
                tracer.instance = None
        after = reference_time()
        result.scales.append(2 * REFERENCE_S / (before + after))
        result.latencies.append(cpu * result.scales[-1])
        before = after
        if outcome is not None:
            result.digest.update(outcome.stdout.encode("utf-8"))
            try:
                reason = check(instance, outcome)
            except Exception:  # malformed output the gate could not parse
                reason = traceback.format_exc(limit=3)
        if reason is not None:
            result.failures.append((index, " ".join(instance.argv), reason))
    return result


def tally(passes):
    """(attempted, failed) over passes; wrong_frac is failed / attempted."""
    return sum(len(p.latencies) for p in passes), sum(len(p.failures) for p in passes)


def _percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _measure_setup(args, workdir):
    """Median scaled CPU seconds a fresh process needs until its inputs are ready."""
    samples = []
    for i in range(SETUP_SAMPLES):
        target = os.path.join(workdir, f"setup{i}")
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", target]
        child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if child.returncode != 0:
            raise RuntimeError(f"set-up process failed: {child.stderr.strip()}")
        samples.append(float(child.stdout.split()[-1]))
        shutil.rmtree(target, ignore_errors=True)
    return statistics.median(samples)


def _emit(correct, attempted, failed, metrics, units, notes):
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {units[name]}{notes.get(name, '')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def _report_failures(passes):
    for number, result in enumerate(passes):
        for index, argv, reason in result.failures[:5]:
            print(f"pass {number} instance {index} ({argv}): {reason}", file=sys.stderr)


def end_to_end(args, instances, workdir, cli, check):
    setup_s = _measure_setup(args, workdir)
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(instances, cli.run, check))
        elapsed = time.perf_counter() - started
        room = elapsed * (len(passes) + 1) / len(passes) <= args.seconds
        if not room and len(passes) * len(instances) >= MIN_SAMPLES:
            break
    latencies = [x for p in passes for x in p.latencies]
    walls = [x for p in passes for x in p.walls]
    attempted, failed = tally(passes)
    digests = {p.digest.hexdigest() for p in passes}
    _report_failures(passes)
    if len(digests) != 1:
        print("stdout differs between passes", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(instances)} instances, stdout_sha256 {' '.join(sorted(digests))}")
    print(f"wall clock, for reference: {attempted / sum(walls):.4g} instances/s, "
          f"p50 {_percentile(walls, 50) * 1e3:.4g} ms, p90 {_percentile(walls, 90) * 1e3:.4g} ms")
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": (attempted - failed) / sum(latencies),
        "latency_p50_ms": _percentile(latencies, 50) * 1e3,
        "latency_p90_ms": _percentile(latencies, 90) * 1e3,
        "verified_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "verified_frac": "ratio", "peak_rss_mb": "MB"}
    sample_note = f"  (n={attempted} instances)"
    notes = {"setup_s": f"  (median of {SETUP_SAMPLES} processes)",
             "throughput_per_s": sample_note, "latency_p50_ms": sample_note,
             "latency_p90_ms": sample_note,
             "verified_frac": f"  (wrong_frac {failed / attempted:.6g} = {failed}/{attempted})"}
    _emit(failed == 0 and len(digests) == 1, attempted, failed, metrics, units, notes)


def per_layer(args, instances, cli, check):
    from tracing import COUNT_METRICS, LAYER_UNITS, Tracer, layer_metrics

    untraced = run_pass(instances, cli.run, check)
    tracer = Tracer()
    tracer.install()
    traced = [run_pass(instances, cli.run, check, tracer) for _ in range(TRACED_PASSES)]
    passes = [untraced] + traced
    per_pass = [layer_metrics(spans, p.scales) for spans, p in zip(tracer.passes, traced)]
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(span_file)

    problems = []
    digests = [p.digest.hexdigest() for p in passes]
    if len(set(digests)) != 1:
        problems.append(f"stdout differs with tracing on: {digests}")
    for name in COUNT_METRICS:
        values = [m[name] for m in per_pass]
        if len(set(values)) != 1:
            problems.append(f"count {name} differs between traced passes: {values}")
    for problem in problems:
        print(problem, file=sys.stderr)
    _report_failures(passes)

    metrics = {
        name: per_pass[0][name] if name in COUNT_METRICS
        else statistics.fmean(m[name] for m in per_pass)
        for name in LAYER_UNITS
    }
    untraced_s = sum(untraced.latencies)
    metrics["trace.overhead_s"] = statistics.fmean(sum(p.latencies) for p in traced) - untraced_s
    units = dict(LAYER_UNITS, **{"trace.overhead_s": "s"})
    print(f"workload {args.workload} seed {args.seed}: per pass of {len(instances)} instances; "
          f"untraced {untraced_s:.3f} s; stdout_sha256 {digests[0]}; "
          f"{sum(len(s) for s in tracer.passes)} spans in {span_file}")
    attempted, failed = tally(passes)
    _emit(failed == 0 and not problems, attempted, failed, metrics, units, {})


def _setup_only(args):
    """Write the inputs and print the scaled CPU seconds used since process start."""
    gauges = [reference_time() for _ in range(3)]
    _import_program()
    import workloads

    workloads.build(args.workload, args.seed, args.setup_only)
    ready = time.process_time() - sum(gauges)
    scale = 2 * REFERENCE_S / (min(gauges) + min(reference_time() for _ in range(3)))
    print(f"ready {ready * scale!r}", flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        return _setup_only(args)
    if args.workload == "all":
        for workload in WORKLOADS:
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import disclab from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads
    from disclab import cli
    from verify import check

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        instances = workloads.build(args.workload, args.seed, os.path.join(workdir, "inputs"))
        if args.trace:
            per_layer(args, instances, cli, check)
        else:
            end_to_end(args, instances, workdir, cli, check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still has its inputs there
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
