"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench

They plant wrong expected values and require the checks to catch them, and
check the tracer's bookkeeping.  They take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import execute  # noqa: E402

COUNTERS = ("spinops.calls", "spinops.bytes_built", "spinops.builds_per_op", "engine.calls",
            "engine.s_functional.calls", "engine.readouts_per_verdict", "measstruct.evaluations",
            "measstruct.feasible_frac", "adversary.query_sets", "funcspace.calls", "cli.calls",
            "cli.bytes_written", "timedomain.signal.bytes_computed")


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _one_pair_per_kind(pairs):
    # The smallest operation of every kind, so the test stays short.
    chosen = {}
    for good, bad in sorted(pairs, key=lambda p: (getattr(p[0], "n", 0), getattr(p[0], "count", 0))):
        key = (type(good).__name__, getattr(good, "protocol", None), getattr(good, "mode", None))
        chosen.setdefault(key, (good, bad))
    return list(chosen.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_real_output_and_catch_planted_values(name, tmp_path):
    for sub in ("good", "bad"):
        (tmp_path / sub).mkdir()
    good = workloads.WORKLOADS[name](7, tmp_path / "good", False)
    bad = workloads.WORKLOADS[name](7, tmp_path / "bad", True)
    # Same seed, same inputs: the lists differ only in the planted values.
    for op, planted in _one_pair_per_kind(list(zip(good, bad))):
        _, digest = execute(op, tmp_path / "out")
        assert "error" not in digest, digest
        op.check(digest)
        with pytest.raises(workloads.CheckFailed):
            planted.check(digest)


def test_planted_fault_shows_in_fail_frac():
    planted = _run("--workload", "sweep", "--seed", "5", "--seconds", "1", "--plant-fault")
    res = _result(planted)
    assert planted.returncode == 1 and not res["correct"]
    assert 0 < res["failed"] <= res["attempted"]
    assert "sweep   fail_frac" in planted.stdout and "FAILED" in planted.stdout
    clean = _result(_run("--workload", "sweep", "--seed", "5", "--seconds", "1"))
    assert clean["correct"] and clean["failed"] == 0


def test_computed_counters_repeat_exactly():
    for name in ("search", "sweep"):
        first, second = (_result(_run("--workload", name, "--seed", "4", "--seconds", "1", "--trace", "1"))
                         for _ in range(2))
        assert first["failed"] == 0 and second["failed"] == 0
        for key in COUNTERS:
            assert first["metrics"][key] == second["metrics"][key], (name, key)


def test_tracer_attributes_self_time_and_restores_bindings():
    import evqc
    from evqc import cli, engine, funcspace, spinops, states

    original = cli.total_spin
    post_init = vars(funcspace.BoolFunc)["__post_init__"]
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.total_spin is not original and engine.total_spin is cli.total_spin
        with tracer.operation(0):
            engine.cn_decide_thermal(funcspace.canonical_cn(3), states.demo_system(3), engine.Resolution(1e-6))
    finally:
        tracer.uninstall()
    assert cli.total_spin is original and spinops.total_spin is original
    assert vars(evqc.BoolFunc)["__post_init__"] is post_init

    root = tracer.spans[0]
    assert root[:2] == ["op", "bench"]
    # Spans nest, so self times add up to the operation's duration.
    assert sum(tracer.self_times()) == pytest.approx(root[3] - root[2], abs=1e-9)
    names = {(layer, name) for name, layer, *_ in tracer.spans}
    assert {("spinops", "total_spin"), ("spinops", "Operator"), ("engine", "s_functional"),
            ("states", "pulsed_thermal"), ("funcspace", "BoolFunc")} <= names
    metrics = tracer.layer_metrics({0}, 1)
    assert metrics["engine.readouts_per_verdict"] == 3.0
    assert metrics["spinops.spectral_range.calls_per_op"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
