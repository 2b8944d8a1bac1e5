import csv
import io

import numpy as np
import pytest

from conftest import oracle_conjugated, random_boolfunc, random_density, random_hermitian
from evqc import timedomain
from evqc.cli import _write_atomic
from evqc.engine import transverse_readout
from evqc.funcspace import canonical_balanced, constant_one, sample_cn
from evqc.spinops import Operator, single_spin, total_spin
from evqc.states import SpinSystem, pulsed_thermal, thermal_state
from evqc.timedomain import (
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
)

THETA = 2e-8


def test_hamiltonian_single_spin_diag():
    sys = SpinSystem(n=1, omega=np.array([1000.0]), theta=THETA)
    h = hamiltonian(sys)
    np.testing.assert_allclose(h, [500.0, -500.0], atol=1e-12)


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
    np.testing.assert_allclose(h, expected, atol=1e-12)


def test_hamiltonian_requires_diagonal_op():
    # The Hamiltonian is its diagonal, a read-only float vector; a matrix or
    # a vector of the wrong length is refused where it is used.
    sys = SpinSystem(n=1, omega=np.array([5.0]), theta=THETA)
    sys2 = SpinSystem(n=2, omega=np.array([5.0, 6.0]), theta=THETA)
    h = hamiltonian(sys2)
    assert h.shape == (4,) and h.dtype == float
    with pytest.raises(ValueError):
        h[0] = 1.0
    m = single_spin(1, 1, "x")
    for wrong in (hamiltonian(sys2), single_spin(1, 1, "z").mat.real):
        with pytest.raises(ValueError, match="dimensions differ"):
            heisenberg_op(m, wrong, 0.1)
        with pytest.raises(ValueError, match="dimensions differ"):
            signal(pulsed_thermal(sys), wrong, m, 1e-4, 4)


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
        assert fast.hermitian is True and dense.hermitian is True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_heisenberg_routes_refuse_a_non_finite_time(t):
    h = hamiltonian(SpinSystem(n=1, omega=np.array([750.0]), theta=THETA))
    for route in (heisenberg_op, heisenberg_dense):
        with pytest.raises(ValueError, match=f"^t must be finite, got {t!r}$"):
            route(single_spin(1, 1, "x"), h, t)


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
    trace = SignalTrace(dt=1e-3, samples=samples)
    _, mags = spectrum(trace)
    power_freq = sum(mag**2 for mag in mags.tolist())
    power_time = float(np.sum(samples**2)) * len(samples)
    assert abs(power_freq - power_time) < 1e-12 * power_time


def test_spectrum_is_sorted_and_sized():
    trace = SignalTrace(dt=0.5, samples=np.arange(8.0))
    omegas, mags = spectrum(trace)
    assert omegas.shape == mags.shape == (8,)
    assert omegas.tolist() == sorted(omegas.tolist())
    with pytest.raises(ValueError):
        spectrum(SignalTrace(dt=0.5, samples=np.array([1.0])))


def test_coupled_doublet_peak_positions():
    # bin-exact sampling: every expected line sits on an FFT bin
    sys = SpinSystem(
        n=2,
        omega=2 * np.pi * np.array([50.0, 80.0]),
        theta=THETA,
        couplings=((1, 2, 5.0),),
    )
    trace = signal(pulsed_thermal(sys), hamiltonian(sys), total_spin(2, "x"), 1.0 / 512, 1024)
    peaks, _ = find_peaks(spectrum(trace), rel_threshold=0.05)
    positive = sorted(w for w in peaks if w > 0)
    np.testing.assert_allclose(
        positive, 2 * np.pi * np.array([47.5, 52.5, 77.5, 82.5]), atol=1e-9
    )
    negative = sorted(w for w in peaks if w < 0)
    np.testing.assert_allclose(
        negative, -2 * np.pi * np.array([82.5, 77.5, 52.5, 47.5]), atol=1e-9
    )


def _peak_list(peaks):
    return list(zip(*(a.tolist() for a in peaks)))


def test_find_peaks_threshold_and_edges():
    omegas = np.arange(5.0)
    spec = (omegas, np.array([1.0, 0.02, 0.5, 0.02, 1.0]))
    assert _peak_list(find_peaks(spec, rel_threshold=0.1)) == [(2.0, 0.5)]
    assert _peak_list(find_peaks((np.empty(0), np.empty(0)), rel_threshold=0.1)) == []
    assert _peak_list(find_peaks((omegas, np.ones(5)))) == []
    # A peak on the floor is kept.
    spec = (omegas, np.array([0.0, 0.25, 0.0, 5.0, 0.0]))
    assert _peak_list(find_peaks(spec, rel_threshold=0.05)) == [(1.0, 0.25), (3.0, 5.0)]
    assert _peak_list(find_peaks(spec, rel_threshold=0.06)) == [(3.0, 5.0)]


def _find_peaks_by_loop(omegas, mags, rel_threshold):
    """Scalar reference: one comparison pass per interior bin."""
    floor = rel_threshold * max(mags)
    return [
        (omegas[i], mags[i])
        for i in range(1, len(mags) - 1)
        if mags[i] >= floor and mags[i] > mags[i - 1] and mags[i] > mags[i + 1]
    ]


@pytest.mark.parametrize("count", [2, 3, 64, 4096])
def test_spectrum_and_peaks_match_scalar_reference(count, rng):
    trace = SignalTrace(dt=1e-3, samples=rng.standard_normal(count))
    omegas, mags = spectrum(trace)
    # Per-bin route: Python's abs() of each complex bin, sorted by omega.
    bins = sorted(zip((2.0 * np.pi * np.fft.fftfreq(count, d=trace.dt)).tolist(),
                      np.fft.fft(trace.samples).tolist()))
    assert omegas.tolist() == [w for w, _ in bins]
    assert mags.tobytes() == np.array([abs(z) for _, z in bins]).tobytes()
    for threshold in (0.0, 0.05, 0.5):
        assert _peak_list(find_peaks((omegas, mags), threshold)) == _find_peaks_by_loop(
            omegas.tolist(), mags.tolist(), threshold
        )


def test_trace_validation():
    with pytest.raises(ValueError):
        SignalTrace(dt=0.0, samples=np.array([1.0]))
    with pytest.raises(ValueError):
        SignalTrace(dt=1.0, samples=np.array([]))
    with pytest.raises(ValueError):
        SignalTrace(dt=1.0, samples=np.array([np.inf]))
    trace = SignalTrace(dt=0.5, samples=np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(trace.times, [0.0, 0.5, 1.0])


def test_csv_writers_roundtrip():
    trace = SignalTrace(dt=1e-3, samples=np.array([0.25, -0.125, 1.0 / 3.0]))
    rows = list(csv.reader(io.StringIO(trace_csv(trace), newline="")))
    assert rows[0] == ["k", "t", "value"]
    assert len(rows) == 4
    assert [float(r[2]) for r in rows[1:]] == [0.25, -0.125, 1.0 / 3.0]

    spec = spectrum(trace)
    rows = list(csv.reader(io.StringIO(spectrum_csv(spec), newline="")))
    assert rows[0] == ["omega", "magnitude"]
    assert len(rows) == 4
    assert [float(r[0]) for r in rows[1:]] == spec[0].tolist()


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
        rho = pulsed_thermal(sys) if f is None else oracle_conjugated(pulsed_thermal(sys), f)
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
     (1e-4, 0), (1e-4, 1), (1.0, 10**400)],
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
    trace = SignalTrace(dt=1.0 / 3.0, samples=samples)
    expected = _csv_module_text(
        ["k", "t", "value"],
        ([k, f"{t:.17g}", f"{v:.17g}"] for k, (t, v) in enumerate(zip(trace.times, trace.samples))),
    )
    assert trace_csv(trace) == expected
    _write_atomic({tmp_path / "t.csv": trace_csv(trace)})
    assert (tmp_path / "t.csv").read_bytes() == expected.encode("ascii")

    spec = spectrum(trace)
    expected = _csv_module_text(["omega", "magnitude"], ([f"{w:.17g}", f"{m:.17g}"] for w, m in zip(*spec)))
    assert spectrum_csv(spec) == expected
    _write_atomic({tmp_path / "s.csv": spectrum_csv(spec)})
    assert (tmp_path / "s.csv").read_bytes() == expected.encode("ascii")


def test_check_sampling_caps_the_sample_count():
    timedomain.check_sampling(1e-4, timedomain.MAX_SAMPLES)
    with pytest.raises(ValueError, match="ceiling"):
        timedomain.check_sampling(1e-4, timedomain.MAX_SAMPLES + 1)
