import json

import numpy as np
import pytest

from evqc.cli import main
from evqc.spinops import load_operator, w_projector

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
    op = load_operator(dump)
    np.testing.assert_array_equal(op.mat, w_projector(2).mat)


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
])
def test_classify_rejects_bad_system_in_one_line(capsys, tmp_path, system):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(system))
    rc, rec, err = run(
        capsys, "classify", "--protocol", "cn-thermal", "--class", "cn", "--n", "2",
        "--eps", "1e-6", "--sys", str(sys_path),
    )
    assert_one_line_error(rc, rec, err)


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
        for name in ("single_spin", "total_spin", "w_projector", "spectral_range",
                     "pulsed_thermal", "pseudopure", "thermal_state", "hamiltonian"):
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
    from evqc.spinops import dump_operator, single_spin, total_spin

    dump = tmp_path / "op.txt"
    rc, _, _ = run(
        capsys, "signal", "--n", "3", "--measure", measure, "--dt", "1e-4", "--count", "8",
        "--out", str(tmp_path / "t.csv"), "--dump-op", str(dump),
    )
    assert rc == 0
    expected = single_spin(3, 2, "x") if measure == "ixj:2" else total_spin(3, measure[1])
    dump_operator(expected, tmp_path / "expected.txt")
    assert dump.read_bytes() == (tmp_path / "expected.txt").read_bytes()


@pytest.mark.parametrize("measure", ["ixj:0", "ixj:4", "ixj:abc", "ixj:", "fz"])
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
    ("1e-320", "8"), ("1e-4", "0"), ("1e-4", "1" + "0" * 400),
])
def test_signal_rejects_unusable_sampling_before_any_work(capsys, tmp_path, dt, count):
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
