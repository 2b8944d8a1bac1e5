import csv
import io

import numpy as np
import pytest

from conftest import random_boolfunc, random_density, random_hermitian
from evqc import timedomain
from evqc.engine import transverse_readout
from evqc.funcspace import canonical_balanced, constant_one, sample_cn
from evqc.spinops import Operator, single_spin, total_spin
from evqc.states import DensityMatrix, SpinSystem, pulsed_thermal, thermal_state
from evqc.timedomain import (
    Hamiltonian,
    SignalTrace,
    find_peaks,
    hamiltonian,
    heisenberg_dense,
    heisenberg_op,
    signal,
    spectrum,
    spectrum_csv,
    trace_csv,
    transverse_signal,
    write_spectrum_csv,
    write_trace_csv,
)

THETA = 2e-8


def test_hamiltonian_single_spin_diag():
    sys = SpinSystem(n=1, omega=np.array([1000.0]), theta=THETA)
    h = hamiltonian(sys)
    np.testing.assert_allclose(h.diag, [500.0, -500.0], atol=1e-12)


def test_hamiltonian_coupled_pair_diag():
    w1, w2, j = 800.0, 1200.0, 5.0
    sys = SpinSystem(
        n=2, omega=np.array([w1, w2]), theta=THETA, couplings=((1, 2, j),)
    )
    h = hamiltonian(sys)
    split = 2.0 * np.pi * j / 4.0
    expected = [
        (w1 + w2) / 2 + split,
        (w1 - w2) / 2 - split,
        (-w1 + w2) / 2 - split,
        (-w1 - w2) / 2 + split,
    ]
    np.testing.assert_allclose(h.diag, expected, atol=1e-12)


def test_hamiltonian_requires_diagonal_op():
    sys = SpinSystem(n=1, omega=np.array([5.0]), theta=THETA)
    with pytest.raises(ValueError):
        Hamiltonian(op=single_spin(1, 1, "x"), source=sys)
    sys2 = SpinSystem(n=2, omega=np.array([5.0, 6.0]), theta=THETA)
    with pytest.raises(ValueError):
        Hamiltonian(op=hamiltonian(sys).op, source=sys2)


def test_heisenberg_entrywise_phase():
    omega = 750.0
    sys = SpinSystem(n=1, omega=np.array([omega]), theta=THETA)
    h = hamiltonian(sys)
    t = 3.7e-3
    moved = heisenberg_op(single_spin(1, 1, "x"), h, t)
    assert abs(moved.mat[0, 1] - 0.5 * np.exp(1j * omega * t)) < 1e-14
    assert abs(moved.mat[1, 0] - 0.5 * np.exp(-1j * omega * t)) < 1e-14
    assert moved.hermitian


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heisenberg_fast_path_matches_dense(n, rng):
    omega = 2.0 * np.pi * (300.0 + 100.0 * np.arange(n) + 1.0)
    couplings = ((1, 2, 7.0),) if n >= 2 else ()
    sys = SpinSystem(n=n, omega=omega, theta=THETA, couplings=couplings)
    h = hamiltonian(sys)
    m = random_hermitian(1 << n, rng)
    for t in (0.0, 2.1e-4, 1.3e-3):
        fast = heisenberg_op(m, h, t)
        dense = heisenberg_dense(m, h, t)
        np.testing.assert_allclose(fast.mat, dense.mat, atol=1e-11)


def test_heisenberg_preserves_trace_and_spectrum(rng):
    sys = SpinSystem(n=2, omega=np.array([900.0, 1100.0]), theta=THETA)
    h = hamiltonian(sys)
    m = random_hermitian(4, rng)
    moved = heisenberg_op(m, h, 0.42)
    assert abs(moved.trace - m.trace) < 1e-12
    np.testing.assert_allclose(
        np.linalg.eigvalsh(moved.mat), np.linalg.eigvalsh(m.mat), atol=1e-12
    )


def test_signal_single_spin_closed_form():
    omega = 2.0 * np.pi * 500.0
    sys = SpinSystem(n=1, omega=np.array([omega]), theta=THETA)
    rho = pulsed_thermal(sys)
    h = hamiltonian(sys)
    dt = 1e-4
    count = 64
    trace = signal(rho, h, single_spin(1, 1, "x"), dt, count)
    k = np.arange(count)
    predicted = -(THETA * omega / 4.0) * np.cos(omega * k * dt)
    np.testing.assert_allclose(trace.samples, predicted, atol=1e-15)


def test_signal_matches_dense_route():
    omega = 2.0 * np.pi * 430.0
    sys = SpinSystem(n=1, omega=np.array([omega]), theta=THETA)
    rho = pulsed_thermal(sys)
    h = hamiltonian(sys)
    m = single_spin(1, 1, "x")
    dt = 2e-4
    trace = signal(rho, h, m, dt, 16)
    for k in range(16):
        moved = heisenberg_dense(m, h, k * dt)
        direct = float(np.trace(rho.mat @ moved.mat).real)
        assert abs(trace.samples[k] - direct) < 1e-13


def test_thermal_transverse_signal_vanishes():
    sys = SpinSystem(n=2, omega=2 * np.pi * np.array([400.0, 600.0]), theta=THETA)
    trace = signal(thermal_state(sys), hamiltonian(sys), total_spin(2, "x"), 1e-4, 32)
    assert np.all(trace.samples == 0.0)


def test_signal_guards():
    sys = SpinSystem(n=1, omega=np.array([5.0]), theta=THETA)
    h = hamiltonian(sys)
    rho = pulsed_thermal(sys)
    m = single_spin(1, 1, "x")
    with pytest.raises(ValueError):
        signal(rho, h, total_spin(2, "x"), 1e-4, 4)
    with pytest.raises(ValueError):
        signal(rho, h, m, 0.0, 4)
    with pytest.raises(ValueError):
        signal(rho, h, m, 1e-4, 0)


def test_parseval_identity(rng):
    samples = rng.standard_normal(128)
    trace = SignalTrace(t_start=0.0, dt=1e-3, samples=samples)
    spec = spectrum(trace)
    power_freq = sum(mag**2 for _, mag in spec)
    power_time = float(np.sum(samples**2)) * len(samples)
    assert abs(power_freq - power_time) < 1e-12 * power_time


def test_spectrum_is_sorted_and_sized():
    trace = SignalTrace(t_start=0.0, dt=0.5, samples=np.arange(8.0))
    spec = spectrum(trace)
    assert len(spec) == 8
    omegas = [w for w, _ in spec]
    assert omegas == sorted(omegas)
    with pytest.raises(ValueError):
        spectrum(SignalTrace(t_start=0.0, dt=0.5, samples=np.array([1.0])))


def test_coupled_doublet_peak_positions():
    # bin-exact sampling: every expected line sits on an FFT bin
    sys = SpinSystem(
        n=2,
        omega=2 * np.pi * np.array([50.0, 80.0]),
        theta=THETA,
        couplings=((1, 2, 5.0),),
    )
    trace = signal(pulsed_thermal(sys), hamiltonian(sys), total_spin(2, "x"), 1.0 / 512, 1024)
    peaks = find_peaks(spectrum(trace), rel_threshold=0.05)
    positive = sorted(w for w, _ in peaks if w > 0)
    np.testing.assert_allclose(
        positive, 2 * np.pi * np.array([47.5, 52.5, 77.5, 82.5]), atol=1e-9
    )
    negative = sorted(w for w, _ in peaks if w < 0)
    np.testing.assert_allclose(
        negative, -2 * np.pi * np.array([82.5, 77.5, 52.5, 47.5]), atol=1e-9
    )


def test_find_peaks_threshold_and_edges():
    spec = [(0.0, 1.0), (1.0, 0.02), (2.0, 0.5), (3.0, 0.02), (4.0, 1.0)]
    peaks = find_peaks(spec, rel_threshold=0.1)
    assert peaks == [(2.0, 0.5)]
    assert find_peaks([], rel_threshold=0.1) == []
    flat = [(float(w), 1.0) for w in range(5)]
    assert find_peaks(flat) == []


def test_trace_validation():
    with pytest.raises(ValueError):
        SignalTrace(t_start=0.0, dt=0.0, samples=np.array([1.0]))
    with pytest.raises(ValueError):
        SignalTrace(t_start=0.0, dt=1.0, samples=np.array([]))
    with pytest.raises(ValueError):
        SignalTrace(t_start=0.0, dt=1.0, samples=np.array([np.inf]))
    trace = SignalTrace(t_start=1.0, dt=0.5, samples=np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(trace.times, [1.0, 1.5, 2.0])


def test_csv_writers_roundtrip(tmp_path):
    trace = SignalTrace(t_start=0.0, dt=1e-3, samples=np.array([0.25, -0.125, 1.0 / 3.0]))
    tpath = tmp_path / "trace.csv"
    write_trace_csv(trace, tpath)
    with open(tpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "t", "value"]
    assert len(rows) == 4
    assert [float(r[2]) for r in rows[1:]] == [0.25, -0.125, 1.0 / 3.0]

    spec = spectrum(trace)
    spath = tmp_path / "spec.csv"
    write_spectrum_csv(spec, spath)
    with open(spath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "magnitude"]
    assert len(rows) == 4
    assert [float(r[0]) for r in rows[1:]] == [w for w, _ in spec]


def _coupled_system(n, topology, rng):
    omega = 2.0 * np.pi * rng.uniform(400.0, 600.0, n)
    if topology == "chain":
        pairs = [(i, i + 1) for i in range(1, n)]
    elif topology == "all":
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    else:
        pairs = []
    couplings = tuple((i, j, float(rng.uniform(5.0, 15.0))) for i, j in pairs)
    return SpinSystem(n=n, omega=omega, theta=THETA, couplings=couplings)


def _oracle_state(sys, f):
    rho = pulsed_thermal(sys)
    if f is None:
        return rho
    s = f.signs()
    return DensityMatrix(Operator(rho.mat * np.outer(s, s), hermitian=True))


@pytest.mark.parametrize("topology", ["chain", "all", "none"])
@pytest.mark.parametrize("n", range(1, 8))
def test_transverse_signal_matches_dense_signal(n, topology, rng):
    sys = _coupled_system(n, topology, rng)
    h = hamiltonian(sys)
    oracles = [None, constant_one(n), canonical_balanced(n)]
    if n >= 2:
        oracles.append(sample_cn(n, n))
    measures = [(tuple(range(1, n + 1)), "x"), (tuple(range(1, n + 1)), "y")]
    measures += [((i,), "x") for i in range(1, n + 1)]
    dt, count = 1.3e-4, 61
    for f in oracles:
        rho = _oracle_state(sys, f)
        for spins, axis in measures:
            m = total_spin(n, axis) if len(spins) > 1 else single_spin(n, spins[0], axis)
            dense = signal(rho, h, m, dt, count).samples
            fast = transverse_signal(sys, f, spins, axis, dt, count).samples
            scale = THETA * float(sys.omega[list(np.array(spins) - 1)].sum()) / 4.0
            assert np.abs(fast - dense).max() <= 1e-12 * scale, (f, spins, axis)


@pytest.mark.parametrize("n", range(1, 9))
def test_transverse_signal_starts_at_the_readout(n, rng):
    sys = _coupled_system(n, "chain", rng)
    f = random_boolfunc(n, rng)
    for spins in (range(1, n + 1), (1,), (n,)):
        first = transverse_signal(sys, f, spins, "x", 1e-4, 3).samples[0]
        readout = transverse_readout(sys, f, spins)
        assert abs(first - readout) <= 1e-12 * THETA * float(sys.omega.sum()) / 4.0
        # sin(0) = 0: the y order starts from nothing.
        assert transverse_signal(sys, f, spins, "y", 1e-4, 3).samples[0] == 0.0


def test_transverse_signal_groups_lines_per_spin(rng):
    # A chain end has one neighbour, so two lines; the closed form of the
    # coupled pair is the doublet omega_i +- pi J.
    sys = SpinSystem(n=2, omega=np.array([800.0, 1300.0]), theta=THETA, couplings=((1, 2, 5.0),))
    dt, count = 1e-3, 40
    t = dt * np.arange(count)
    trace = transverse_signal(sys, None, (1,), "x", dt, count)
    split = np.pi * 5.0
    predicted = -(THETA * 800.0 / 8.0) * (np.cos((800.0 + split) * t) + np.cos((800.0 - split) * t))
    np.testing.assert_allclose(trace.samples, predicted, rtol=0, atol=1e-12 * THETA * 800.0)


def test_transverse_signal_guards():
    sys = SpinSystem(n=2, omega=np.array([5.0, 6.0]), theta=THETA)
    with pytest.raises(ValueError):
        transverse_signal(sys, canonical_balanced(3), (1,), "x", 1e-4, 4)
    with pytest.raises(ValueError):
        transverse_signal(sys, None, (3,), "x", 1e-4, 4)
    with pytest.raises(ValueError):
        transverse_signal(sys, None, (), "x", 1e-4, 4)
    with pytest.raises(ValueError):
        transverse_signal(sys, None, (1,), "z", 1e-4, 4)
    with pytest.raises(ValueError):
        transverse_signal(sys, None, (1,), "x", float("inf"), 4)
    with pytest.raises(ValueError):
        transverse_signal(sys, None, (1,), "x", 1e-4, 0)


@pytest.mark.parametrize(
    "dt, count",
    [(float("inf"), 4), (float("nan"), 4), (-1e-4, 4), (0.0, 4), (1e308, 3), (1e-320, 4),
     (1e-4, 0), (1.0, 10**400)],
)
def test_check_sampling_rejects_unusable_sampling(dt, count):
    with pytest.raises(ValueError):
        timedomain.check_sampling(dt, count)


def test_phase_overflow_is_rejected():
    sys = SpinSystem(n=1, omega=np.array([5.0]), theta=THETA)
    with pytest.raises(ValueError, match="phase"):
        transverse_signal(sys, None, (1,), "x", 1e308, 2)
    with pytest.raises(ValueError, match="phase"):
        signal(pulsed_thermal(sys), hamiltonian(sys), single_spin(1, 1, "x"), 1e308, 2)


@pytest.mark.parametrize("block", [None, 7])
def test_grouped_dense_signal_matches_matrix_exponential(block, rng, monkeypatch):
    if block is not None:
        monkeypatch.setattr(timedomain, "_BLOCK_ELEMENTS", block)
    sys = _coupled_system(3, "all", rng)
    h = hamiltonian(sys)
    rho = random_density(8, rng)
    m = random_hermitian(8, rng)
    dt, count = 2.1e-4, 23  # 23 is not a multiple of any block
    trace = signal(rho, h, m, dt, count)
    for k in range(count):
        direct = complex(np.trace(rho.mat @ heisenberg_dense(m, h, k * dt).mat))
        assert abs(trace.samples[k] - direct.real) < 1e-12


def test_dense_signal_rejects_a_complex_readout(rng):
    sys = _coupled_system(2, "chain", rng)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(ValueError, match="complex"):
        signal(random_density(4, rng), hamiltonian(sys), Operator(z), 1e-4, 8)


@pytest.mark.parametrize("block", [1, 5])
def test_blocked_transverse_signal_matches_one_block(block, rng, monkeypatch):
    sys = _coupled_system(5, "chain", rng)
    f = random_boolfunc(5, rng)
    whole = transverse_signal(sys, f, range(1, 6), "y", 1e-4, 37).samples
    monkeypatch.setattr(timedomain, "_BLOCK_ELEMENTS", block)
    blocked = transverse_signal(sys, f, range(1, 6), "y", 1e-4, 37).samples
    assert np.abs(blocked - whole).max() <= 1e-13 * THETA * float(sys.omega.sum()) / 4.0


def _csv_module_text(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def test_csv_text_matches_the_csv_module(rng, tmp_path):
    samples = np.concatenate([rng.standard_normal(50) * 1e-7, [0.0, -0.0, 1e-300, -5e-324, 1e300]])
    trace = SignalTrace(t_start=0.0, dt=1.0 / 3.0, samples=samples)
    expected = _csv_module_text(
        ["k", "t", "value"],
        ([k, f"{t:.17g}", f"{v:.17g}"] for k, (t, v) in enumerate(zip(trace.times, trace.samples))),
    )
    assert trace_csv(trace) == expected
    write_trace_csv(trace, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == expected.encode("ascii")

    spec = spectrum(trace)
    expected = _csv_module_text(["omega", "magnitude"], ([f"{w:.17g}", f"{m:.17g}"] for w, m in spec))
    assert spectrum_csv(spec) == expected
    write_spectrum_csv(spec, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == expected.encode("ascii")
