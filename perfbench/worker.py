"""One measured process of the benchmark: set up a workload, time it, check it.

run.py starts this in a fresh interpreter for every measurement, so imports,
input generation and peak memory belong to one workload alone.  The
process:

1. imports ``evqc`` from the checkout's ``src`` and generates the inputs;
2. runs the first operation once untimed (warm-up); the time from process
   start to the end of this step is ``setup_s``;
3. runs the workload's pass of operations as a closed loop with one caller,
   in whole passes, as many as come closest to the requested seconds (at
   least one), timing a reference-kernel sample (reference.py) before
   each operation;
4. re-runs the first operation once more, then checks every output.

With ``--trace 1`` every operation of step 3 runs twice, once traced and
once plain, alternating which goes first; the two outputs must be
identical, and the ratio of their times is the tracing overhead.

The result is one JSON object written to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import reference


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True, help="checkout holding src/evqc")
    p.add_argument("--tmp", required=True, help="scratch directory for inputs and outputs")
    p.add_argument("--result", required=True, help="where to write the result JSON")
    p.add_argument("--t-spawn", type=float, required=True, help="time.monotonic() when the process was started")
    p.add_argument("--setup-only", action="store_true", help="stop after the warm-up")
    p.add_argument("--fault", action="store_true", help="check against planted wrong values")
    return p.parse_args(argv)


def import_program(root: Path) -> None:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import evqc

    if Path(evqc.__file__).resolve().parent != src / "evqc":
        raise SystemExit(f"imported evqc from {evqc.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{ {'Data': 'd', 'Instruction': 'i'}.get(kind, '') }"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "optimize_flag": sys.flags.optimize,
    }


def execute(op, out: Path, tracer=None, op_id: int = -1) -> tuple[float, dict]:
    """Run one operation; return its duration and the digest of its outputs."""
    out.mkdir()
    result = error = None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with tracer.operation(op_id) if tracer is not None else nullcontext():
            result = op.run(out)
    except Exception as err:  # an operation that raises is a failed operation
        error = f"{type(err).__name__}: {err}"
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if error is None:
        try:
            digest = op.digest(result, out)
        except Exception as err:
            digest = {"error": f"unreadable output: {type(err).__name__}: {err}"}
    else:
        digest = {"error": error}
    shutil.rmtree(out)
    return elapsed, digest


class Checker:
    """Checks outputs, and that every run of one operation gives the same output."""

    def __init__(self, ops, workloads):
        self.ops = ops
        self.check_failed = workloads.CheckFailed
        self.reference: dict[int, str] = {}
        self.memo: dict[tuple[int, str], tuple[str | None, float]] = {}
        self.route_dev_max = 0.0

    def __call__(self, i: int, digest: dict) -> str | None:
        key = json.dumps(digest, sort_keys=True)
        if key != self.reference.setdefault(i, key):
            return f"{self.ops[i].label}: output differs from an earlier run of the same operation"
        if (i, key) not in self.memo:
            if "error" in digest:
                verdict = (digest["error"], 0.0)
            else:
                try:
                    verdict = (None, self.ops[i].check(digest))
                except self.check_failed as err:
                    verdict = (str(err), 0.0)
                except Exception as err:  # a malformed output is a wrong output
                    verdict = (f"{type(err).__name__}: {err}", 0.0)
            self.memo[(i, key)] = verdict
        error, dev = self.memo[(i, key)]
        self.route_dev_max = max(self.route_dev_max, dev)
        return None if error is None else f"{self.ops[i].label}: {error}"


def latency_metrics(durations, pass_len):
    """Latency of each operation of the pass as its median over the passes,
    then the percentiles and throughput of the pass's mix."""
    typical = [statistics.median(durations[i::pass_len]) for i in range(pass_len)]
    return {
        "ops_per_s": pass_len / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_p90_ms": statistics.quantiles(typical, n=10)[8] * 1e3,
    }


def repeat_passes(seconds: float, run_pass) -> int:
    """Run whole passes until one more would overshoot ``seconds`` by over half a pass."""
    passes = 0
    start = time.perf_counter()
    while True:
        run_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 0.5 / passes) >= seconds:
            return passes


def measure_plain(ops, out, seconds, workload):
    """Timed loop; a reference-kernel sample precedes every operation."""
    runs = []  # (op index, duration, digest)
    samples = []

    def run_pass():
        for i, op in enumerate(ops):
            samples.append(reference.sample(workload))
            runs.append((i, *execute(op, out)))

    passes = repeat_passes(seconds, run_pass)
    samples.append(reference.sample(workload))
    return runs, passes, samples


def measure_traced(ops, out, seconds, tracer):
    pairs = []  # (op index, (plain duration, digest), (traced duration, digest))

    def run_pass():
        for i, op in enumerate(ops):
            k = len(pairs)
            if k % 2 == 0:
                plain = execute(op, out)
                traced = execute(op, out, tracer, k)
            else:
                traced = execute(op, out, tracer, k)
                plain = execute(op, out)
            pairs.append((i, plain, traced))

    return pairs, repeat_passes(seconds, run_pass)


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("run without -O: the program's __debug__ cross-checks are part of what is measured")
    root, tmp = Path(args.root), Path(args.tmp)
    import_program(root)
    import workloads
    from tracer import Tracer

    inputs, out = tmp / "inputs", tmp / "out"
    inputs.mkdir(parents=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, inputs, args.fault)
    warm = execute(ops[0], out)
    setup_s = time.monotonic() - args.t_spawn
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    checker = Checker(ops, workloads)
    checker(0, warm[1])
    if args.trace:
        tracer = Tracer()
        pairs, passes = measure_traced(ops, out, args.seconds, tracer)
        executions = [(i, [plain[1], traced[1]]) for i, plain, traced in pairs]
    else:
        for _ in range(3):
            reference.sample(args.workload)
        runs, passes, samples = measure_plain(ops, out, args.seconds, args.workload)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        executions = [(i, [digest]) for i, _, digest in runs]
    rerun = execute(ops[0], out)

    failed_flags, errors = [], []
    for i, digests in executions:
        problems = [e for e in (checker(i, d) for d in digests) if e]
        failed_flags.append(bool(problems))
        errors.extend(problems)
    if checker(0, rerun[1]):
        errors.append(f"{ops[0].label}: a repeat run gave a different output")
        failed_flags = [f or i == 0 for f, (i, _) in zip(failed_flags, executions)]
    attempted, failed = len(executions), sum(failed_flags)

    result.update(attempted=attempted, failed=failed, errors=errors[:5], passes=passes,
                  pass_len=len(ops), env=environment())
    if args.trace:
        first_pass = set(range(len(ops)))
        metrics = tracer.layer_metrics(first_pass, len(pairs))
        plain_s = sum(plain[0] for _, plain, _ in pairs)
        traced_s = sum(traced[0] for _, _, traced in pairs)
        metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
        metrics["engine.route_dev_max"] = checker.route_dev_max
        metrics["cli.bytes_written"] = float(sum(
            traced[1].get("bytes_written", 0) for k, (_, _, traced) in enumerate(pairs) if k in first_pass
        ))
        tracer.write(tmp / "spans.jsonl")
        result["metrics"] = metrics
        result["samples"] = len(pairs)
    else:
        durations = [d for _, d, _ in runs]
        scaled = reference.scale(args.workload, durations, samples)
        result["metrics"] = dict(latency_metrics(scaled, len(ops)), peak_rss_mb=peak_rss_mb,
                                 fail_frac=failed / attempted)
        result["metrics"].update({f"raw_{k}": v for k, v in latency_metrics(durations, len(ops)).items()})
        result["speed"] = reference.speed(args.workload, samples)
        result["samples"] = len(durations)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
