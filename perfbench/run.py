"""evqc benchmark: four seeded workloads, end-to-end metrics and a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each measurement runs in a fresh worker process (perfbench/worker.py), so
imports and peak memory belong to one workload alone.  With --trace 0 a
run starts the worker four extra times, stopping after the warm-up, and
reports the median of the five set-up times.  Lines before the last one
are for people; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide", "search", "signal", "sweep")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a whole run, workers included, must end within this
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Printed for people, not in the result line: fail_frac is 0 whenever the
# program is right, and the raw_ figures are the latencies before scaling
# to the reference machine's speed (reference.py).
SHOWN_ONLY = (("fail_frac", "frac"), ("raw_ops_per_s", "1/s"), ("raw_op_p50_ms", "ms"), ("raw_op_p90_ms", "ms"))


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def _spawn(args, workload: str, tmp: Path, tag: str, extra: list[str], deadline: float) -> dict:
    work = tmp / tag
    result = tmp / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--tmp", str(work), "--result", str(result), *extra]
    if args.plant_fault:
        cmd.append("--fault")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"{workload}: out of time before the {tag} worker")
    cmd += ["--t-spawn", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=_worker_env(), stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: {tag} worker exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(args, workload: str, tmp: Path, deadline: float) -> dict:
    setups = []
    if not args.trace:
        for k in range(SETUP_SAMPLES - 1):
            setups.append(_spawn(args, workload, tmp, f"{workload}-setup{k}", ["--setup-only"], deadline))
    main = _spawn(args, workload, tmp, f"{workload}-main", [], deadline)
    if not args.trace:
        setups.append(main)
        setups = [s["setup_s"] for s in setups]
        main["metrics"]["setup_s"] = statistics.median(setups)
        main["setup_samples"] = setups
    return main


def _report(workload: str, res: dict, units: dict[str, str]) -> dict[str, dict]:
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": res["metrics"][name], "unit": unit}
    for name, unit in list(units.items()) + [u for u in SHOWN_ONLY if u[0] in res["metrics"]]:
        print(f"{workload:<7} {name:<38} {res['metrics'][name]:.6g} {unit}")
    if "setup_samples" in res:
        print(f"{workload:<7} samples: {res['samples']} operations, {res['passes']} passes of "
              f"{res['pass_len']}; set-up samples " + ", ".join(f"{s:.3f}" for s in res["setup_samples"])
              + f" s; machine speed {res['speed']:.3f} of reference")
    else:
        self_times = {k[: -len(".self_s")]: v for k, v in res["metrics"].items()
                      if k.endswith(".self_s") and k != "bench.self_s"}
        top = max(self_times, key=self_times.get)
        print(f"{workload:<7} samples: {res['samples']} traced operations in {res['passes']} passes "
              f"of {res['pass_len']}; largest self time: {top}")
    for err in res["errors"]:
        print(f"{workload:<7} FAILED {err}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--plant-fault", action="store_true",
                   help="check outputs against deliberately wrong values (self-test)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "evqc" / "__init__.py").is_file():
        print(f"error: no evqc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.trace:
        units = _per_layer_units()
    else:
        units = dict(END_TO_END)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(workloads)

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        results = {w: run_workload(args, w, tmp, deadline) for w in workloads}
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("# env " + json.dumps(next(iter(results.values()))["env"], sort_keys=True))
    metrics = {}
    for w, res in results.items():
        for name, value in _report(w, res, units).items():
            metrics[name if len(workloads) == 1 else f"{w}.{name}"] = value
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
