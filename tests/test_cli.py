import ast
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evqc import cli, measstruct
from evqc.cli import main
from evqc.spinops import operator_text, w_projector

THETA = 2e-8


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    record = json.loads(captured.out) if captured.out.strip() else None
    return rc, record, captured.err


def test_classify_balanced_pseudopure(capsys):
    rc, rec, _ = run(
        capsys, "classify", "--protocol", "pseudopure",
        "--class", "balanced", "--n", "2", "--eps", "0.1",
    )
    assert rc == 0
    assert rec["command"] == "classify"
    assert rec["result"]["decided"] == "NotConstant"
    assert rec["result"]["expectation"] == 3.0 / 16
    assert rec["config"]["protocol"] == "pseudopure"
    assert rec["config"]["alpha"] == 1.0
    assert rec["result"]["epsilon"] == 0.1


def test_classify_constant_from_file(capsys, tmp_path):
    fn = tmp_path / "const.fn"
    fn.write_text("n=2\n0000\n")
    rc, rec, _ = run(
        capsys, "classify", "--protocol", "pseudopure",
        "--fn", str(fn), "--eps", "0.1",
    )
    assert rc == 0
    assert rec["result"]["decided"] == "NotBalanced"
    assert rec["result"]["expectation"] == 7.0 / 16
    assert rec["config"]["function"] == "0000"


def test_classify_inconclusive_exit_code(capsys):
    rc, rec, _ = run(
        capsys, "classify", "--protocol", "pseudopure",
        "--class", "balanced", "--n", "2", "--eps", "0.3",
    )
    assert rc == 2
    assert rec["result"]["decided"] == "Inconclusive"


def test_classify_cn_thermal(capsys):
    rc, rec, _ = run(
        capsys, "classify", "--protocol", "cn-thermal",
        "--class", "cn", "--n", "3", "--eps", "1e-6",
    )
    assert rc == 0
    assert rec["result"]["decided"] == "NotConstant"
    assert rec["result"]["expectation"] == 0.0
    assert rec["config"]["system"]["n"] == 3


def test_classify_lifted_embeds_larger_system(capsys):
    rc, rec, _ = run(
        capsys, "classify", "--protocol", "lifted",
        "--class", "balanced", "--n", "2", "--eps", "1e-6",
    )
    assert rc == 0
    assert rec["result"]["decided"] == "NotConstant"
    assert rec["result"]["n"] == 3
    assert rec["config"]["system"]["n"] == 3
    assert rec["result"]["expectation"] == 0.0


def test_classify_out_file_and_dump_op(capsys, tmp_path):
    out = tmp_path / "report.json"
    dump = tmp_path / "op.txt"
    rc, rec, _ = run(
        capsys, "classify", "--protocol", "pseudopure",
        "--class", "constant", "--n", "2", "--eps", "0.1",
        "--out", str(out), "--dump-op", str(dump),
    )
    assert rc == 0
    assert rec is None  # report went to the file, not stdout
    stored = json.loads(out.read_text())
    assert stored["result"]["decided"] == "NotBalanced"
    assert dump.read_text(encoding="ascii") == operator_text(w_projector(2))


def test_classify_usage_errors(capsys, tmp_path):
    rc, _, err = run(
        capsys, "classify", "--protocol", "pseudopure", "--eps", "0.1",
    )
    assert rc == 1
    assert "need either --fn or --class" in err

    fn = tmp_path / "f.fn"
    fn.write_text("n=3\n00000000\n")
    rc, _, _ = run(
        capsys, "classify", "--protocol", "pseudopure",
        "--fn", str(fn), "--n", "2", "--eps", "0.1",
    )
    assert rc == 1

    rc, _, _ = run(
        capsys, "classify", "--protocol", "pseudopure",
        "--fn", str(tmp_path / "absent.fn"), "--eps", "0.1",
    )
    assert rc == 1

    rc, _, _ = run(
        capsys, "classify", "--protocol", "pseudopure",
        "--class", "balanced", "--n", "2",
    )
    assert rc == 1


def test_survey_dj(capsys, tmp_path):
    out = tmp_path / "table.csv"
    rc, rec, _ = run(capsys, "survey", "--mode", "dj", "--n", "2", "--out", str(out))
    assert rc == 0
    assert rec["result"] == {"rows": 16, "square_law_violations": 0}
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "f_hex,imbalance,expectation,class,matches_square_law"
    assert len(lines) == 17
    assert all(ln.endswith(",1") for ln in lines[1:])


def test_survey_cn(capsys, tmp_path):
    out = tmp_path / "cn.csv"
    rc, rec, _ = run(capsys, "survey", "--mode", "cn", "--n", "2", "--out", str(out))
    assert rc == 0
    assert rec["result"] == {"rows": 8}
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 9
    for ln in lines[1:]:
        assert float(ln.split(",")[2]) == 0.0


def test_survey_guards(capsys, tmp_path):
    rc, _, err = run(capsys, "survey", "--n", "5", "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert "n <= 3" in err
    rc, _, _ = run(capsys, "survey", "--mode", "cn", "--n", "1", "--out", str(tmp_path / "y.csv"))
    assert rc == 1
    rc, rec, err = run(capsys, "survey", "--n", "-1", "--out", str(tmp_path / "z.csv"))
    assert_one_line_error(rc, rec, err)
    assert "1 <= n <= 3" in err


def test_search_c_deterministic_reports(capsys, tmp_path):
    args = [
        "search-c", "--n", "1", "--budget", "5000",
        "--seed", "3", "--restarts", "4",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    rc1, _, _ = run(capsys, *args, "--out", str(out1))
    rc2, _, _ = run(capsys, *args, "--out", str(out2))
    assert rc1 == 0 and rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    rec = json.loads(out1.read_text())
    assert rec["result"]["feasible"] is True
    assert abs(rec["result"]["ratio"] - 1.0) < 1e-5


def test_search_c_default_report_is_the_library_record(capsys, tmp_path):
    # The defaults converge at n = 2; every run gives the same bytes, and the
    # report's result is the library's record.
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    rc1, _, _ = run(capsys, "search-c", "--n", "2", "--seed", "7", "--out", str(out1))
    rc2, _, _ = run(capsys, "search-c", "--n", "2", "--seed", "7", "--out", str(out2))
    assert rc1 == rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    rec = json.loads(out1.read_text())
    assert rec["config"] == {"n": 2, "budget": 100_000, "seed": 7, "restarts": 10}
    library = measstruct.search_max_c_ratio(2, seed=7).to_record()
    assert rec["result"] == json.loads(json.dumps(library))
    assert abs(rec["result"]["ratio"] - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-6


def test_adversary_command(capsys):
    rc, rec, _ = run(capsys, "adversary", "--n", "2", "--trials", "5")
    assert rc == 0
    assert rec["result"]["failures"] == []
    assert rec["result"]["exhaustive"] is True
    assert rec["config"]["min_queries"] == 3


def test_signal_writes_trace_and_spectrum(capsys, tmp_path):
    out = tmp_path / "trace.csv"
    rc, rec, _ = run(
        capsys, "signal", "--n", "1", "--dt", "1e-4", "--count", "64",
        "--out", str(out),
    )
    assert rc == 0
    assert out.exists()
    spec_csv = tmp_path / "trace.spectrum.csv"
    assert spec_csv.exists()
    assert rec["config"]["spectrum_csv"] == str(spec_csv)
    omega = 2 * np.pi * 400.0
    assert abs(rec["result"]["first_sample"] + THETA * omega / 4.0) < 1e-12
    assert rec["result"]["peak_count"] == 2
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,t,value"
    assert len(lines) == 65


def test_signal_thermal_is_flat(capsys, tmp_path):
    out = tmp_path / "flat.csv"
    rc, rec, _ = run(
        capsys, "signal", "--n", "2", "--state", "thermal",
        "--dt", "1e-4", "--count", "16", "--out", str(out),
    )
    assert rc == 0
    assert rec["result"]["first_sample"] == 0.0
    assert rec["result"]["peak_count"] == 0


def test_signal_with_oracle_and_single_spin_readout(capsys, tmp_path):
    out = tmp_path / "t.csv"
    rc, rec, _ = run(
        capsys, "signal", "--n", "2", "--measure", "ixj:2",
        "--class", "constant", "--dt", "1e-4", "--count", "8",
        "--out", str(out),
    )
    assert rc == 0
    assert rec["config"]["function"] == "0000"
    assert rec["config"]["measure"] == "ixj:2"


def test_signal_usage_errors(capsys, tmp_path):
    rc, _, err = run(capsys, "signal", "--dt", "1e-4", "--count", "8", "--out", str(tmp_path / "z.csv"))
    assert rc == 1
    assert "--sys or --n" in err
    rc, _, _ = run(
        capsys, "signal", "--n", "1", "--measure", "bogus",
        "--dt", "1e-4", "--count", "8", "--out", str(tmp_path / "w.csv"),
    )
    assert rc == 1


def test_signal_refuses_n_that_disagrees_with_sys(capsys, tmp_path):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps({"n": 3, "omega": [2513.27, 3141.59, 3769.91], "theta": THETA}))
    argv = ("signal", "--sys", str(sys_path), "--dt", "1e-4", "--count", "8",
            "--out", str(tmp_path / "t.csv"))
    rc, rec, err = run(capsys, *argv, "--n", "5")
    assert_one_line_error(rc, rec, err)
    assert "--sys describes 3 spins but 5 are needed" in err
    assert [p.name for p in tmp_path.iterdir()] == ["sys.json"]
    rc, rec, _ = run(capsys, *argv, "--n", "3")
    assert rc == 0 and rec["config"]["system"]["n"] == 3


@pytest.mark.parametrize("argv, repeated", [
    (("classify", "--protocol", "pseudopure", "--class", "balanced", "--n", "2", "--eps", "0.1",
      "--out", "r.json", "--dump-op", "./r.json"), "r.json"),
    (("classify", "--protocol", "cn-thermal", "--class", "cn", "--n", "3", "--eps", "0.1",
      "--out", "r.json", "--dump-op", "{cwd}/r.json"), "r.json"),
    (("signal", "--n", "2", "--dt", "1e-4", "--count", "8", "--out", "t.csv",
      "--dump-op", "t.spectrum.csv"), "t.spectrum.csv"),
    (("signal", "--n", "2", "--dt", "1e-4", "--count", "8", "--out", "t.csv",
      "--dump-op", "t.csv"), "t.csv"),
])
def test_repeated_target_is_refused_before_any_work(capsys, tmp_path, monkeypatch, argv, repeated):
    monkeypatch.chdir(tmp_path)
    rc, rec, err = run(capsys, *(a.format(cwd=tmp_path) for a in argv))
    assert_one_line_error(rc, rec, err)
    assert err.rstrip().endswith(f"two outputs name one file: '{repeated}'")
    assert list(tmp_path.iterdir()) == []


def test_top_level_usage_errors(capsys):
    rc, _, _ = run(capsys)
    assert rc == 1
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 1


def assert_one_line_error(rc, record, err):
    assert rc == 1
    assert record is None
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def test_signal_class_takes_size_from_system(capsys, tmp_path):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps({"n": 3, "omega": [2513.27, 3141.59, 3769.91], "theta": THETA}))
    rc, rec, _ = run(
        capsys, "signal", "--sys", str(sys_path), "--class", "cn", "--seed", "4",
        "--dt", "1e-4", "--count", "8", "--out", str(tmp_path / "t.csv"),
    )
    assert rc == 0
    assert len(rec["config"]["function"]) == 8
    assert rec["config"]["function"].count("1") in (2, 6)


@pytest.mark.parametrize("system", [
    {"n": 2, "omega": [2513.27, "nan"], "theta": THETA},
    {"n": 2, "omega": [2513.27, "inf"], "theta": THETA},
    {"n": 2, "omega": [2513.27, 3769.91], "theta": "nan"},
    {"n": 2, "omega": [2513.27, 3769.91], "theta": "inf"},
    {"n": 2, "omega": [2513.27, 3769.91], "theta": THETA, "couplings": 5},
    {"n": 2, "omega": [2513.27, 3769.91], "theta": THETA, "couplings": [[1, None, 5.0]]},
    {"n": 2.7, "omega": [2513.27, 3769.91], "theta": THETA},
    {"n": 2, "omega": [2513.27, 3769.91], "theta": THETA, "couplings": [[1, 2.5, 5.0]]},
    {"n": 2, "omega": [2513.27, 3769.91], "theta": [THETA]},
    {"n": 2, "omega": {"1": 2513.27}, "theta": THETA},
    {"n": 2, "omega": [2513.27, 10**400], "theta": THETA},
    {"n": 2, "omega": [2513.27, 3769.91], "theta": THETA, "couplings": [[1, 2, 10**400]]},
    [2, [2513.27, 3769.91], THETA],
    {"n": "２", "omega": ["１e3", " 2e3 "], "theta": "2e-8", "couplings": [["1", "2", "5_0"]]},
    {"n": 2, "omega": [2513.27, 3769.91], "theta": THETA, "couplings": [[1, 2, "5_0"]]},
])
def test_classify_rejects_bad_system_in_one_line(capsys, tmp_path, system):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(system))
    rc, rec, err = run(
        capsys, "classify", "--protocol", "cn-thermal", "--class", "cn", "--n", "2",
        "--eps", "1e-6", "--sys", str(sys_path),
    )
    assert_one_line_error(rc, rec, err)


@pytest.mark.parametrize("argv", [
    ("classify", "--protocol", "cn-thermal", "--class", "cn", "--n", "2", "--eps", "0.1"),
    ("classify", "--protocol", "lifted", "--class", "balanced", "--n", "1", "--eps", "0.1"),
    ("survey", "--mode", "cn", "--n", "2", "--out", "s.csv"),
    ("signal", "--n", "2", "--dt", "1e-4", "--count", "8", "--out", "t.csv"),
])
def test_empty_sys_path_is_an_error_not_the_demo_system(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rc, rec, err = run(capsys, *argv, "--sys", "")
    assert_one_line_error(rc, rec, err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, compute", [
    (("classify", "--protocol", "cn-thermal", "--n", "2", "--eps", "0.1", "--out", "r.json"),
     "cn_decide_thermal"),
    (("classify", "--protocol", "pseudopure", "--eps", "0.1", "--out", "r.json"),
     "dj_decide_pseudopure"),
    (("signal", "--n", "2", "--dt", "1e-4", "--count", "4", "--out", "t.csv"), "transverse_signal"),
])
def test_empty_fn_path_is_refused_not_taken_for_no_function(capsys, tmp_path, monkeypatch, argv,
                                                            compute):
    monkeypatch.chdir(tmp_path)
    module = cli.timedomain if compute == "transverse_signal" else cli.engine
    monkeypatch.setattr(module, compute, lambda *a, **k: pytest.fail("computed"))
    rc, rec, err = run(capsys, *argv, "--fn", "")
    assert_one_line_error(rc, rec, err)
    assert err == "error: empty --fn path\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fields, message", [
    ({"n": True, "omega": [3000.0]}, "n needs a whole number, got True"),
    ({"omega": [True, 3000.0]}, "omega[0] needs a number, got True"),
    ({"omega": False}, "omega needs a number, got False"),
    ({"theta": True}, "theta needs a number, got True"),
    ({"couplings": [[True, 2, 7.0]]}, "coupling (True, 2, 7.0) index i needs a whole number, got True"),
    ({"couplings": [[1, True, 7.0]]}, "coupling (1, True, 7.0) index j needs a whole number, got True"),
    ({"couplings": [[1, 2, True]]}, "coupling (1, 2) strength needs a number, got True"),
])
def test_signal_refuses_json_booleans_in_the_system(capsys, tmp_path, fields, message):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps({"n": 2, "omega": [2513.27, 3769.91], "theta": THETA, **fields}))
    out = tmp_path / "o.csv"
    rc, rec, err = run(capsys, "signal", "--sys", str(sys_path), "--dt", "1e-4", "--count", "4",
                       "--out", str(out))
    assert_one_line_error(rc, rec, err)
    assert err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sys.json"]


def test_bad_coupling_index_error_names_the_coupling(capsys, tmp_path):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(
        {"n": 2, "omega": [2513.27, 3769.91], "theta": THETA, "couplings": [[1, None, 5.0]]}
    ))
    rc, rec, err = run(
        capsys, "classify", "--protocol", "cn-thermal", "--class", "cn", "--n", "2",
        "--eps", "1e-6", "--sys", str(sys_path),
    )
    assert_one_line_error(rc, rec, err)
    assert err == "error: coupling (1, None, 5.0) index j needs a whole number, got None\n"


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_classify_rejects_non_finite_resolution(capsys, eps):
    rc, rec, err = run(
        capsys, "classify", "--protocol", "pseudopure", "--class", "balanced", "--n", "2",
        "--eps", eps,
    )
    assert_one_line_error(rc, rec, err)


def test_reports_refuse_nan(capsys, monkeypatch):
    from evqc import engine

    record = engine.verdict_record
    monkeypatch.setattr(
        engine, "verdict_record", lambda *a: {**record(*a), "expectation": float("nan")}
    )
    rc, rec, err = run(
        capsys, "classify", "--protocol", "pseudopure", "--class", "balanced", "--n", "2",
        "--eps", "0.1",
    )
    assert_one_line_error(rc, rec, err)


def test_signal_builds_no_matrix_without_dump_op(monkeypatch, capsys, tmp_path):
    from evqc import cli, spinops, states, timedomain

    def refuse(*args, **kwargs):
        raise AssertionError("a dense operator was built")

    for module in (spinops, states, cli, timedomain):
        for name in ("single_spin", "total_spin", "w_projector", "pulsed_thermal", "hamiltonian"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(spinops.Operator, "__post_init__", refuse)
    base = ["signal", "--n", "6", "--class", "cn", "--dt", "1e-4", "--count", "64",
            "--out", str(tmp_path / "t.csv")]
    for extra in ([], ["--measure", "fy"], ["--measure", "ixj:3"], ["--state", "thermal"]):
        assert cli.main(base + extra) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "signal"
    with pytest.raises(AssertionError, match="dense operator"):
        cli.main(base + ["--dump-op", str(tmp_path / "op.txt")])


def test_signal_thermal_reads_exact_zeros(capsys, tmp_path):
    out = tmp_path / "flat.csv"
    rc, rec, _ = run(
        capsys, "signal", "--n", "3", "--state", "thermal", "--class", "balanced",
        "--measure", "fy", "--dt", "1e-4", "--count", "16", "--out", str(out),
    )
    assert rc == 0
    assert rec["config"]["function"] == "11110000"
    assert [row.split(",")[2] for row in out.read_text().splitlines()[1:]] == ["0"] * 16


@pytest.mark.parametrize("measure", ["fx", "fy", "ixj:2"])
def test_signal_dump_op_is_the_dense_measurement(capsys, tmp_path, measure):
    from evqc.spinops import operator_text, single_spin, total_spin

    dump = tmp_path / "op.txt"
    rc, _, _ = run(
        capsys, "signal", "--n", "3", "--measure", measure, "--dt", "1e-4", "--count", "8",
        "--out", str(tmp_path / "t.csv"), "--dump-op", str(dump),
    )
    assert rc == 0
    expected = single_spin(3, 2, "x") if measure == "ixj:2" else total_spin(3, measure[1])
    assert dump.read_bytes() == operator_text(expected).encode("ascii")


@pytest.mark.parametrize("measure", ["ixj:0", "ixj:4", "ixj:abc", "ixj:", "fz", "ixj:\uff12",
                                     "ixj:-1", "ixj:+2", "ixj: 2", "ixj:2_"])
def test_signal_rejects_bad_measurement_in_one_line(capsys, tmp_path, measure):
    rc, rec, err = run(
        capsys, "signal", "--n", "3", "--measure", measure, "--dt", "1e-4", "--count", "8",
        "--out", str(tmp_path / "t.csv"),
    )
    assert_one_line_error(rc, rec, err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt, count", [
    ("inf", "8"), ("nan", "8"), ("-inf", "8"), ("1e308", "8"), ("0", "8"), ("-1e-4", "8"),
    ("1e-320", "8"), ("1e-4", "0"), ("1e-4", "1"), ("1e-4", "1" + "0" * 400),
])
def test_signal_rejects_unusable_sampling_before_any_work(capsys, tmp_path, monkeypatch, dt, count):
    def refuse(*args, **kwargs):
        raise AssertionError("the trace was sampled")

    monkeypatch.setattr(cli.timedomain, "transverse_signal", refuse)
    rc, rec, err = run(
        capsys, "signal", "--n", "2", f"--dt={dt}", f"--count={count}",
        "--out", str(tmp_path / "t.csv"),
    )
    assert_one_line_error(rc, rec, err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("blocked", ["trace.csv", "trace.spectrum.csv"])
def test_signal_failed_write_leaves_no_temp_file(capsys, tmp_path, blocked):
    (tmp_path / blocked).mkdir()
    rc, rec, err = run(
        capsys, "signal", "--n", "2", "--dt", "1e-4", "--count", "8",
        "--out", str(tmp_path / "trace.csv"),
    )
    assert_one_line_error(rc, rec, err)
    assert {p.name for p in tmp_path.iterdir()} <= {"trace.csv", "trace.spectrum.csv"}


def test_written_files_take_the_umask_mode(capsys, tmp_path):
    import os

    old = os.umask(0o027)
    try:
        rc, _, _ = run(
            capsys, "signal", "--n", "2", "--dt", "1e-4", "--count", "8",
            "--out", str(tmp_path / "trace.csv"),
        )
    finally:
        os.umask(old)
    assert rc == 0
    for name in ("trace.csv", "trace.spectrum.csv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o640


def test_signal_coupled_doublet_peaks(capsys, tmp_path):
    # bin-exact sampling: every expected line sits on an FFT bin
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps({
        "n": 2, "omega": (2 * np.pi * np.array([50.0, 80.0])).tolist(), "theta": THETA,
        "couplings": [[1, 2, 5.0]],
    }))
    rc, rec, _ = run(
        capsys, "signal", "--sys", str(sys_path), "--dt", repr(1.0 / 512), "--count", "1024",
        "--out", str(tmp_path / "t.csv"),
    )
    assert rc == 0
    positive = sorted(w for w, _ in rec["result"]["peaks"] if w > 0)
    np.testing.assert_allclose(positive, 2 * np.pi * np.array([47.5, 52.5, 77.5, 82.5]), atol=1e-9)


def test_signal_rejects_count_above_ceiling(capsys, tmp_path):
    from evqc.timedomain import MAX_SAMPLES

    rc, rec, err = run(
        capsys, "signal", "--n", "2", "--dt", "1e-4", f"--count={MAX_SAMPLES + 1}",
        "--out", str(tmp_path / "t.csv"),
    )
    assert_one_line_error(rc, rec, err)
    assert "ceiling" in err
    assert list(tmp_path.iterdir()) == []


def test_classify_rejects_large_table_file_in_one_line(capsys, tmp_path):
    fn = tmp_path / "f.fn"
    fn.write_text("n=23\n" + "01" * (1 << 22) + "\n")
    rc, rec, err = run(
        capsys, "classify", "--protocol", "pseudopure", "--fn", str(fn), "--eps", "0.1",
    )
    assert_one_line_error(rc, rec, err)
    assert "n=23" in err and "1..22" in err


@pytest.mark.parametrize("protocol, func_class, n", [
    ("cn-thermal", "cn", 20), ("cn-thermal", "cn", 22),
    ("pseudopure", "balanced", 20), ("pseudopure", "balanced", 22),
    ("lifted", "balanced", 20), ("lifted", "balanced", 21),
])
def test_classify_runs_past_dense_cap_in_one_json_line(capsys, protocol, func_class, n):
    # At eps = 1e-6 the pseudopure gap alpha/N is below the margin from
    # n = 20 on, so it reads Inconclusive; the thermal protocols decide.
    rc = main(["classify", "--protocol", protocol, "--class", func_class, "--n", str(n),
               "--eps", "1e-6"])
    captured = capsys.readouterr()
    inconclusive = protocol == "pseudopure"
    assert rc == 2 * inconclusive and captured.err == ""
    assert captured.out.count("\n") == 1
    rec = json.loads(captured.out)
    assert rec["config"]["n_bits"] == n and rec["result"]["n"] == n + (protocol == "lifted")
    assert rec["result"]["decided"] == ("Inconclusive" if inconclusive else "NotConstant")


def test_lifted_past_truth_table_limit_is_one_line(capsys):
    rc, rec, err = run(
        capsys, "classify", "--protocol", "lifted", "--class", "balanced", "--n", "22",
        "--eps", "1e-6",
    )
    assert_one_line_error(rc, rec, err)
    assert "n=23" in err and "1..22" in err


def _stdout(capsys, *argv):
    rc = main(list(argv))
    return f"{rc}\n{capsys.readouterr().out}".encode()


CLASS_ARGS = [("--class", "constant"), ("--class", "balanced"), ("--class", "cn"),
              ("--class", "cn", "--seed", "5")]


# sha256 of the exit codes and report lines for n = 2..10 and every entry of
# CLASS_ARGS, recorded before the bit-flip rule moved into funcspace.
@pytest.mark.parametrize("protocol, digest", [
    ("cn-thermal", "fac6c2da877294c0f87f8879c4a11a3446757a670e47340b372ad2f96703014a"),
    ("lifted", "82117f3457c002d3fd17cabb781958eaf25e285c8ca5b3379f750e4150305c39"),
])
def test_classify_reports_match_golden(capsys, protocol, digest):
    h = hashlib.sha256()
    for n in range(2, 11):
        for cls in CLASS_ARGS:
            h.update(_stdout(capsys, "classify", "--protocol", protocol, "--n", str(n),
                             "--eps", "0.01", *cls))
    assert h.hexdigest() == digest


def _chain_system(n):
    return {"n": n, "omega": [2513.27 + 311.0 * k for k in range(n)], "theta": THETA,
            "couplings": [[k, k + 1, 7.0 + k] for k in range(1, n)]}


# sha256 of the exit codes, report lines and both CSV files of every run
# below, recorded before the bit-flip rule moved into funcspace.
def test_signal_files_match_golden(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for n in (3, 5, 7):
        Path("chain.json").write_text(json.dumps(_chain_system(n)))
        for system in (("--n", str(n)), ("--sys", "chain.json")):
            for measure in ("fx", "fy", "ixj:2"):
                for oracle in ((), ("--class", "balanced"), ("--class", "cn", "--seed", "2")):
                    h.update(_stdout(capsys, "signal", *system, "--measure", measure, *oracle,
                                     "--dt", "1e-4", "--count", "64", "--out", "t.csv"))
                    h.update(Path("t.csv").read_bytes() + Path("t.spectrum.csv").read_bytes())
    assert h.hexdigest() == "0c8a3b30dffca3aed5e07f2447e6835dabe73db90bc51d07d96b5db416669d1d"


def test_survey_cn_matches_golden(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for n in (2, 3):
        h.update(_stdout(capsys, "survey", "--mode", "cn", "--n", str(n), "--out", "cn.csv"))
        h.update(Path("cn.csv").read_bytes())
    assert h.hexdigest() == "30f7126b0c6f818db73197a97b2b1c1b22e172c27e1bab20767295b66942c27d"


def test_survey_dj_matches_golden(capsys, tmp_path, monkeypatch):
    # Recorded while survey read one function per engine call.
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for n in (1, 2, 3):
        h.update(_stdout(capsys, "survey", "--mode", "dj", "--n", str(n), "--out", "dj.csv"))
        h.update(Path("dj.csv").read_bytes())
    assert h.hexdigest() == "8dd6e7c6b669dfc1284473e39de1dcc31cc5fb85d22945ba15c687711b74cf8f"


def test_dump_op_files_match_golden(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for protocol, n in (("pseudopure", 3), ("cn-thermal", 3), ("lifted", 2)):
        _stdout(capsys, "classify", "--protocol", protocol, "--class", "constant", "--n", str(n),
                "--eps", "0.1", "--dump-op", "op.txt")
        h.update(Path("op.txt").read_bytes())
    for measure in ("fx", "fy", "ixj:2"):
        _stdout(capsys, "signal", "--n", "3", "--measure", measure, "--dt", "1e-4",
                "--count", "8", "--out", "t.csv", "--dump-op", "op.txt")
        h.update(Path("op.txt").read_bytes())
    assert h.hexdigest() == "cfc91cffe728a4db6fbba8387fc50b082d3477d546ca56287a97e7ca9272cee0"


@pytest.mark.parametrize("argv", [
    ("classify", "--protocol", "pseudopure", "--eps", "0.1", "--dump-op", "op.txt",
     "--class", "constant", "--n", "2"),
    ("signal", "--n", "2", "--dt", "1e-4", "--count", "8", "--out", "t.csv",
     "--dump-op", "op.txt"),
])
def test_failed_dump_keeps_the_earlier_file_and_no_temp_file(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("op.txt").write_text("earlier\n")

    def refuse(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    rc, rec, err = run(capsys, *argv)
    assert_one_line_error(rc, rec, err)
    assert Path("op.txt").read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["op.txt"]


def test_failed_report_write_leaves_no_dump(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    rc, rec, err = run(
        capsys, "classify", "--protocol", "pseudopure", "--class", "balanced", "--n", "3",
        "--eps", "0.01", "--dump-op", "op.txt", "--out", str(tmp_path / "missing" / "r.json"),
    )
    assert_one_line_error(rc, rec, err)
    assert sorted(tmp_path.iterdir()) == before


def test_signal_blocked_spectrum_leaves_no_trace_or_dump(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("t.spectrum.csv").mkdir()
    before = sorted(tmp_path.iterdir())
    rc, rec, err = run(
        capsys, "signal", "--n", "2", "--dt", "1e-4", "--count", "8", "--out", "t.csv",
        "--dump-op", "sop.txt",
    )
    assert_one_line_error(rc, rec, err)
    assert "t.spectrum.csv" in err
    assert sorted(tmp_path.iterdir()) == before
    assert list(Path("t.spectrum.csv").iterdir()) == []


@pytest.mark.parametrize("header", ["n=28", "n=70", "n=1000000000000"])
def test_classify_rejects_oversized_header_before_building(capsys, tmp_path, header):
    fn = tmp_path / "f.fn"
    fn.write_text(f"{header}\n0x1\n")
    rc, rec, err = run(
        capsys, "classify", "--protocol", "pseudopure", "--fn", str(fn), "--eps", "0.1",
    )
    assert_one_line_error(rc, rec, err)
    assert header in err and "truth-table" in err


@pytest.mark.parametrize("func_class", ["constant", "balanced", "cn"])
def test_classify_rejects_oversized_class_before_building(capsys, func_class):
    rc, rec, err = run(
        capsys, "classify", "--protocol", "pseudopure", "--class", func_class, "--n", "70",
        "--eps", "0.1",
    )
    assert_one_line_error(rc, rec, err)
    assert "n=70" in err


@pytest.mark.parametrize("n", ["100000000", "1000000000000"])
def test_signal_rejects_oversized_demo_system_before_building(capsys, tmp_path, n):
    rc, rec, err = run(
        capsys, "signal", "--n", n, "--dt", "1e-4", "--count", "8",
        "--out", str(tmp_path / "t.csv"),
    )
    assert_one_line_error(rc, rec, err)
    assert f"n={n}" in err and "1..22" in err


@pytest.mark.parametrize("argv", [
    ["--n", "23"], ["--n", "24", "--trials", "1"], ["--n", "40"], ["--n", "4", "--trials", "-5"],
])
def test_adversary_rejects_bad_counts_before_any_work(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a random query set was drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    rc, rec, err = run(capsys, "adversary", *argv)
    assert_one_line_error(rc, rec, err)


_WRITER_CALLS = {"write_text", "write_bytes", "mkstemp", "NamedTemporaryFile", "fdopen",
                 "tofile", "save", "savez", "savetxt", "dump"}


def _opens_for_writing(call) -> bool:
    """Whether a call can open a file for writing; a mode that is not a
    literal counts as writing."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in _WRITER_CALLS:
        return True
    if name != "open":
        return False
    # open(path, mode) as a builtin, path.open(mode) as a method.
    position = 1 if isinstance(func, ast.Name) else 0
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def _writing_sites(node, owner, sites):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _writing_sites(child, child.name, sites)
            continue
        if isinstance(child, ast.Call) and _opens_for_writing(child):
            sites.add(owner)
        _writing_sites(child, owner, sites)
    return sites


def test_only_the_atomic_writer_opens_files_for_writing():
    import evqc

    sites = set()
    for path in sorted(Path(evqc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites |= {f"{path.stem}.{owner}" for owner in _writing_sites(tree, "<module>", set())}
    assert sites == {"cli._write_atomic"}


@pytest.mark.parametrize("strength", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("argv", [
    ("classify", "--protocol", "cn-thermal", "--class", "cn", "--n", "2", "--eps", "1e-6",
     "--out", "report.json", "--dump-op", "op.txt"),
    ("signal", "--dt", "1e-4", "--count", "8", "--out", "t.csv", "--dump-op", "op.txt"),
])
def test_non_finite_coupling_is_rejected_before_any_work(capsys, tmp_path, monkeypatch,
                                                         argv, strength):
    monkeypatch.chdir(tmp_path)
    # json.load accepts these bare names, so the system must refuse them itself.
    Path("sys.json").write_text(
        f'{{"n": 2, "omega": [2513.27, 3769.91], "theta": {THETA}, '
        f'"couplings": [[1, 2, {strength}]]}}'
    )
    rc, rec, err = run(capsys, *argv, "--sys", "sys.json")
    assert_one_line_error(rc, rec, err)
    assert "coupling (1, 2)" in err
    assert [p.name for p in tmp_path.iterdir()] == ["sys.json"]


# One process, one parser: each call below sets values that the calls after
# it leave at their defaults, switches subcommand, or fails on usage.
_IN_PROCESS_SEQUENCE = [
    ("classify", "--protocol", "pseudopure", "--class", "cn", "--n", "3", "--seed", "5",
     "--alpha", "0.5", "--eps", "0.01", "--out", "report.json", "--dump-op", "op.txt"),
    ("classify", "--protocol", "pseudopure", "--class", "cn", "--n", "3", "--eps", "0.01"),
    ("signal", "--n", "2", "--class", "cn", "--dt", "1e-4", "--count", "8", "--out", "t.csv"),
    ("classify", "--protocol", "lifted", "--class", "cn", "--n", "2"),
    ("search-c", "--n", "2", "--budget", "100", "--restarts", "1"),  # infeasible: exit 2
]


def _tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_repeated_main_calls_match_separate_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the same usage wrapping in both
    alone, together = tmp_path / "alone", tmp_path / "together"
    alone.mkdir()
    together.mkdir()
    script = "import sys; from evqc.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    # The runs write distinct files, so they can go side by side.
    procs = [subprocess.Popen([sys.executable, "-c", script, *argv], cwd=alone, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for argv in _IN_PROCESS_SEQUENCE]
    separate = []
    for proc in procs:
        out, err = proc.communicate()
        separate.append((proc.returncode, out, err))

    monkeypatch.chdir(together)
    repeated = []
    for argv in _IN_PROCESS_SEQUENCE:
        rc = main(list(argv))
        captured = capsys.readouterr()
        repeated.append((rc, captured.out, captured.err))

    assert repeated == separate
    assert [rc for rc, _, _ in repeated] == [0, 0, 0, 1, 2]
    assert _tree(together) == _tree(alone)
    assert sorted(_tree(together)) == ["op.txt", "report.json", "t.csv", "t.spectrum.csv"]


def test_usage_error_after_a_successful_call(capsys):
    rc, _, _ = run(capsys, "classify", "--protocol", "pseudopure", "--class", "balanced",
                   "--n", "2", "--eps", "0.1")
    assert rc == 0
    rc, rec, err = run(capsys, "classify", "--protocol", "pseudopure", "--eps", "x")
    assert rc == 1 and rec is None
    *usage, last = err.splitlines()
    assert usage[0].startswith("usage: evqc classify ")
    assert all(line.startswith(" ") for line in usage[1:])
    assert last == "error: argument --eps: invalid float value: 'x'"


def test_main_runs_the_current_command_binding(capsys, monkeypatch):
    argv = ("classify", "--protocol", "lifted", "--class", "balanced", "--n", "2", "--eps", "1e-6")
    rc, rec, _ = run(capsys, *argv)
    assert rc == 0 and rec is not None
    seen = []
    monkeypatch.setattr(cli, "cmd_classify", lambda args: seen.append(args.protocol) or 7)
    rc, rec, _ = run(capsys, *argv)
    assert (rc, rec, seen) == (7, None, ["lifted"])


def test_main_builds_its_parser_at_most_once(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for k in range(20):
        run(capsys, "classify", "--protocol", "pseudopure", "--class", "constant",
            "--n", str(2 + k % 3), "--eps", "0.1")
    # One tree at most: the top-level parser and one per subcommand.
    assert built.count("evqc") <= 1
    assert len(built) <= 6


@pytest.mark.parametrize("argv", [
    ("classify", "--protocol", "pseudopure", "--class", "balanced", "--n", "3", "--eps", "0.01",
     "--dump-op", "op.txt", "--out", "missing/r.json"),
    ("search-c", "--n", "1", "--budget", "200", "--restarts", "1", "--out", "missing/x.json"),
    ("signal", "--n", "2", "--dt", "1e-4", "--count", "8", "--out", "missing/t.csv"),
])
def test_missing_output_directory_names_the_given_path(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rc, rec, err = run(capsys, *argv)
    assert_one_line_error(rc, rec, err)
    assert err.rstrip().endswith(f"'{argv[-1]}'")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("classify", "--protocol", "pseudopure", "--class", "cn", "--n", "3", "--eps", "0.01"),
    ("search-c", "--n", "1", "--budget", "200", "--restarts", "1"),
    ("adversary", "--n", "3", "--trials", "5"),
    ("signal", "--n", "2", "--class", "cn", "--dt", "1e-4", "--count", "8", "--out", "t.csv"),
])
def test_negative_seed_is_a_usage_error_naming_the_option(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rc, rec, err = run(capsys, *argv, "--seed", "-1")
    assert rc == 1 and rec is None
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "error: argument --seed: must be a non-negative integer, got -1"
    assert list(tmp_path.iterdir()) == []
    rc, rec, err = run(capsys, *argv, "--seed", "x")
    assert rc == 1 and err.splitlines()[-1] == "error: argument --seed: invalid int value: 'x'"


def test_search_c_refuses_bad_arguments_and_loads_no_scipy(tmp_path):
    # Run apart, in a process where nothing else can have loaded scipy.
    script = (
        "import sys\n"
        "from evqc.cli import main\n"
        "from evqc.measstruct import search_max_c_ratio\n"
        "bad = [['--n', '9'], ['--n', '2', '--budget', '5'], ['--n', '1', '--restarts', '0']]\n"
        "codes = [main(['search-c', *argv]) for argv in bad]\n"
        "refused = 'scipy.optimize' not in sys.modules\n"
        "search_max_c_ratio(1, budget=100, restarts=1)\n"
        "print(codes, refused, any(m.partition('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[1, 1, 1] True False\n"
    assert proc.stderr.splitlines() == [
        "error: search supports 1 <= n <= 4",
        "error: budget too small to do anything",
        "error: need at least one restart",
    ]


def test_one_run_of_every_command_loads_no_scipy(tmp_path):
    runs = [
        ["classify", "--protocol", "pseudopure", "--class", "balanced", "--n", "2", "--eps", "0.1",
         "--out", "p.json", "--dump-op", "p.op"],
        ["classify", "--protocol", "cn-thermal", "--class", "cn", "--n", "3", "--seed", "1",
         "--eps", "0.001", "--out", "c.json", "--dump-op", "c.op"],
        ["classify", "--protocol", "lifted", "--class", "constant", "--n", "2", "--eps", "0.001",
         "--out", "l.json", "--dump-op", "l.op"],
        ["survey", "--mode", "dj", "--n", "2", "--out", "dj.csv"],
        ["survey", "--mode", "cn", "--n", "2", "--out", "cn.csv"],
        ["search-c", "--n", "2", "--budget", "200", "--restarts", "1", "--out", "s.json"],
        ["adversary", "--n", "3", "--trials", "5", "--out", "a.json"],
        ["signal", "--n", "2", "--class", "cn", "--seed", "2", "--dt", "1e-4", "--count", "16",
         "--out", "t.csv", "--dump-op", "t.op"],
    ]
    script = (
        "import json, sys\n"
        "from evqc.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == []
    # Each command ran to a report (exit 2 is a classify "cannot exclude").
    assert set(codes) <= {0, 2}, proc.stderr
    assert {p.name for p in tmp_path.iterdir()} >= {"p.op", "c.op", "l.op", "t.op", "s.json", "a.json"}


def test_python_dash_m_runs_the_command_line(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ("classify", "--protocol", "pseudopure", "--class", "balanced", "--n", "2", "--eps", "0.1")
    proc = subprocess.run([sys.executable, "-m", "evqc", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["command"] == "classify"
    proc = subprocess.run([sys.executable, "-m", "evqc", "classify", "--protocol", "pseudopure",
                           "--eps", "0.1"], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""


# One run per command, each with the call that does its work; a case
# ending in --dump-op takes the target there, the others after --out.
COMPUTE_CALLS = [
    (("classify", "--protocol", "cn-thermal", "--class", "cn", "--n", "4", "--eps", "0.1"),
     "engine", "cn_decide_thermal"),
    (("classify", "--protocol", "lifted", "--class", "balanced", "--n", "3", "--eps", "0.1",
      "--out", "r.json", "--dump-op"), "engine", "dj_decide_lifted"),
    (("survey", "--n", "2"), "cli", "w_projector"),
    (("survey", "--mode", "cn", "--n", "2"), "cli", "total_spin"),
    (("search-c", "--n", "2"), "measstruct", "search_max_c_ratio"),
    (("adversary", "--n", "12"), "adversary", "verify_adversary"),
    (("signal", "--n", "3", "--dt", "1e-4", "--count", "8"), "timedomain", "transverse_signal"),
    (("signal", "--n", "3", "--dt", "1e-4", "--count", "8", "--out", "t.csv", "--dump-op"),
     "timedomain", "transverse_signal"),
]


def run_without_compute(capsys, monkeypatch, argv, module, compute, target):
    """Run argv with the target as its last output path while the compute
    call raises, so a refusal must come before any work."""
    import importlib

    def refuse(*args, **kwargs):
        raise AssertionError(f"{compute} was reached")

    monkeypatch.setattr(importlib.import_module(f"evqc.{module}"), compute, refuse)
    if argv[-1] != "--dump-op":
        argv += ("--out",)
    return run(capsys, *argv, target)


@pytest.mark.parametrize("argv, module, compute", COMPUTE_CALLS)
@pytest.mark.parametrize("target", ["missing/x.json", "blocked"])
def test_bad_target_is_refused_before_any_work(capsys, tmp_path, monkeypatch, argv, module, compute,
                                               target):
    monkeypatch.chdir(tmp_path)
    Path("blocked").mkdir()
    rc, rec, err = run_without_compute(capsys, monkeypatch, argv, module, compute, target)
    assert_one_line_error(rc, rec, err)
    assert err.rstrip().endswith(f"'{target}'")
    assert [p.name for p in tmp_path.iterdir()] == ["blocked"]


@pytest.mark.parametrize("argv, module, compute", COMPUTE_CALLS)
def test_empty_target_is_refused_before_any_work(capsys, tmp_path, monkeypatch, argv, module, compute):
    # Path("") is ".", the working directory, so an empty path has to be
    # caught as a string before it is ever taken for a target.
    monkeypatch.chdir(tmp_path)
    rc, rec, err = run_without_compute(capsys, monkeypatch, argv, module, compute, "")
    assert_one_line_error(rc, rec, err)
    assert err == "error: empty output path\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, module, compute, message", [
    (("classify", "--protocol", "pseudopure", "--class", "balanced", "--n", "2", "--eps", "0.1"),
     "engine", "dj_decide_pseudopure", "--sys is not read by --protocol pseudopure"),
    (("survey", "--mode", "dj", "--n", "2"), "cli", "w_projector", "--sys is only read by --mode cn"),
])
def test_unread_sys_is_refused_before_any_work(capsys, tmp_path, monkeypatch, argv, module, compute,
                                               message):
    # The file is never opened, so a missing one must not get past the refusal.
    monkeypatch.chdir(tmp_path)
    argv += ("--sys", "missing.json")
    rc, rec, err = run_without_compute(capsys, monkeypatch, argv, module, compute, "r.json")
    assert_one_line_error(rc, rec, err)
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, module, compute, message", [
    (("classify", "--protocol", "pseudopure", "--fn", "missing.fn", "--class", "balanced", "--eps", "0.1"),
     "funcspace", "parse_function", "--class is not read with --fn"),
    (("classify", "--protocol", "pseudopure", "--class", "constant", "--n", "3", "--seed", "4",
      "--eps", "1e-6"), "funcspace", "constant_zero", "--seed is only read by --class cn"),
    (("classify", "--protocol", "cn-thermal", "--fn", "missing.fn", "--seed", "4", "--eps", "0.1"),
     "funcspace", "parse_function", "--seed is only read by --class cn"),
    (("signal", "--n", "3", "--seed", "3", "--dt", "1e-4", "--count", "8"),
     "states", "demo_system", "--seed is only read by --class cn"),
    (("signal", "--n", "2", "--class", "balanced", "--seed", "2", "--dt", "1e-4", "--count", "8"),
     "states", "demo_system", "--seed is only read by --class cn"),
    (("signal", "--n", "2", "--fn", "missing.fn", "--class", "cn", "--dt", "1e-4", "--count", "8"),
     "funcspace", "parse_function", "--class is not read with --fn"),
])
def test_unread_function_options_are_refused_before_any_work(capsys, tmp_path, monkeypatch, argv, module,
                                                             compute, message):
    # The function file is never opened, so a missing one must not get past the refusal.
    monkeypatch.chdir(tmp_path)
    rc, rec, err = run_without_compute(capsys, monkeypatch, argv, module, compute, "r.csv")
    assert_one_line_error(rc, rec, err)
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, module, compute", [
    (("classify", "--protocol", "cn-thermal", "--class", "cn", "--n", "13", "--eps", "0.1",
      "--dump-op"), "engine", "cn_decide_thermal"),
    (("classify", "--protocol", "lifted", "--class", "balanced", "--n", "12", "--eps", "0.1",
      "--dump-op"), "engine", "dj_decide_lifted"),
    (("classify", "--protocol", "pseudopure", "--class", "balanced", "--n", "13", "--eps", "0.1",
      "--dump-op"), "engine", "dj_decide_pseudopure"),
    (("signal", "--n", "13", "--dt", "1e-4", "--count", "8", "--out", "t.csv", "--dump-op"),
     "timedomain", "transverse_signal"),
])
def test_dump_op_past_dense_cap_is_refused_before_any_work(capsys, tmp_path, monkeypatch, argv,
                                                           module, compute):
    monkeypatch.chdir(tmp_path)
    rc, rec, err = run_without_compute(capsys, monkeypatch, argv, module, compute, "op.txt")
    assert_one_line_error(rc, rec, err)
    assert "n=13" in err and "1..12" in err
    assert list(tmp_path.iterdir()) == []


def test_writer_never_touches_the_umask(capsys, tmp_path, monkeypatch):
    calls = []
    real = os.umask
    monkeypatch.setattr(os, "umask", lambda mask: calls.append(mask) or real(mask))
    rc, _, _ = run(
        capsys, "signal", "--n", "2", "--dt", "1e-4", "--count", "8",
        "--out", str(tmp_path / "trace.csv"), "--dump-op", str(tmp_path / "op.txt"),
    )
    assert rc == 0 and calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["op.txt", "trace.csv", "trace.spectrum.csv"]


def test_writer_skips_a_temp_name_that_exists(tmp_path):
    squatter = tmp_path / f"r.json.{os.getpid()}-0.tmp"
    squatter.write_text("someone else's\n")
    cli._write_atomic({tmp_path / "r.json": "report\n"})
    assert squatter.read_text() == "someone else's\n"
    assert (tmp_path / "r.json").read_text() == "report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", squatter.name]


def test_writer_failing_on_the_second_file_leaves_nothing(tmp_path, monkeypatch):
    real = os.write
    calls = []

    def write(fd, data):
        # The first file takes one write; the second one fails.
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(fd, data)

    monkeypatch.setattr(os, "write", write)
    with pytest.raises(OSError, match="No space"):
        cli._write_atomic({tmp_path / "a.txt": "first\n", tmp_path / "b.txt": "second\n"})
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


def test_writer_finishes_short_writes(tmp_path, monkeypatch):
    real = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real(fd, bytes(data[:3])))
    text = "évqc " * 40 + "\n"
    cli._write_atomic({tmp_path / "a.txt": text})
    assert (tmp_path / "a.txt").read_bytes() == text.encode("utf-8")


# Every integer option, with the arguments that make the rest of its command valid.
INTEGER_OPTIONS = [
    (("classify", "--protocol", "pseudopure", "--class", "balanced", "--eps", "0.1"), "--n"),
    (("classify", "--protocol", "pseudopure", "--class", "cn", "--n", "3", "--eps", "0.1"), "--seed"),
    (("survey", "--out", "s.csv"), "--n"),
    (("search-c", "--budget", "200", "--restarts", "1"), "--n"),
    (("search-c", "--n", "1", "--restarts", "1"), "--budget"),
    (("search-c", "--n", "1", "--budget", "200"), "--restarts"),
    (("search-c", "--n", "1", "--budget", "200", "--restarts", "1"), "--seed"),
    (("adversary", "--trials", "5"), "--n"),
    (("adversary", "--n", "3"), "--trials"),
    (("adversary", "--n", "3", "--trials", "5"), "--seed"),
    (("signal", "--dt", "1e-4", "--count", "8", "--out", "t.csv"), "--n"),
    (("signal", "--n", "2", "--dt", "1e-4", "--out", "t.csv"), "--count"),
    (("signal", "--n", "2", "--class", "cn", "--dt", "1e-4", "--count", "8", "--out", "t.csv"), "--seed"),
]


@pytest.mark.parametrize("numeral", ["３", "0_3", "+3", " 3", "3 ", "3.0", ""])
@pytest.mark.parametrize("argv,option", INTEGER_OPTIONS, ids=[f"{a[0]}{o}" for a, o in INTEGER_OPTIONS])
def test_integer_options_take_ascii_digits_only(capsys, tmp_path, monkeypatch, argv, option, numeral):
    monkeypatch.chdir(tmp_path)
    rc, rec, err = run(capsys, *argv, option, numeral)
    assert rc == 1 and rec is None and "Traceback" not in err
    assert err.splitlines()[-1] == f"error: argument {option}: invalid int value: {numeral!r}"
    assert list(tmp_path.iterdir()) == []


# Every float option, with the arguments that make the rest of its command
# valid, and the range check's message for its value {}.
FLOAT_OPTIONS = [
    (("classify", "--protocol", "pseudopure", "--class", "balanced", "--n", "2"), "--eps",
     "epsilon must be positive and finite, got {}"),
    (("classify", "--protocol", "pseudopure", "--class", "balanced", "--n", "2", "--eps", "0.1"), "--alpha",
     "alpha={} outside (0, 1]"),
    (("signal", "--n", "2", "--count", "8", "--out", "t.csv"), "--dt", "dt must be positive and finite, got {}"),
]


@pytest.mark.parametrize("numeral", ["1_0e-7", "１e-6", "０.5", " 1e-6", "1e-6 ", "0x1p-3", "ınf", ""])
@pytest.mark.parametrize("argv,option,_", FLOAT_OPTIONS, ids=[f"{a[0]}{o}" for a, o, _ in FLOAT_OPTIONS])
def test_float_options_take_ascii_numerals_only(capsys, tmp_path, monkeypatch, argv, option, _, numeral):
    monkeypatch.chdir(tmp_path)
    rc, rec, err = run(capsys, *argv, option, numeral)
    assert rc == 1 and rec is None and "Traceback" not in err
    assert err.splitlines()[-1] == f"error: argument {option}: invalid float value: {numeral!r}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,option,message", FLOAT_OPTIONS, ids=[f"{a[0]}{o}" for a, o, _ in FLOAT_OPTIONS])
def test_float_options_pass_inf_and_nan_to_the_range_checks(capsys, tmp_path, monkeypatch, argv, option, message):
    monkeypatch.chdir(tmp_path)
    for numeral, text in (("inf", "inf"), ("Infinity", "inf"), ("NaN", "nan")):
        rc, rec, err = run(capsys, *argv, option, numeral)
        assert (rc, rec) == (1, None)
        assert err.splitlines() == ["error: " + message.format(text)]
    assert list(tmp_path.iterdir()) == []

