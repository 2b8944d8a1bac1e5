"""Free-evolution signals and their spectra.

The internal Hamiltonian is diagonal in the computational basis (weak
coupling, hbar = 1) and is passed around as that diagonal, a float
vector h.  Heisenberg evolution of a measurement multiplies each entry
by a phase, and every readout is a sum of spectral lines.

`transverse_signal` samples the readout of transverse order on the pulsed
thermal state after a phase oracle without building a matrix: each spin
contributes a few lines, split by its couplings, weighted by exact integer
bit-flip correlations counted per neighbour pattern from the one packed
kernel, `funcspace.flip_differences`.  The dense routes are kept
deliberately separate as its oracles: `signal` sums the lines of a state
and a measurement matrix, and `heisenberg_op` moves a measurement by
entrywise phases.  Tests pit them against each other and against a
matrix exponential; do not collapse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from evqc.funcspace import BoolFunc, constant_zero, flip_differences
from evqc.spinops import Operator, _check_function, _check_spins, _float_table, spin_z_column
from evqc.states import DensityMatrix, SpinSystem

# Phase evaluations per block of sample times, so that memory stays
# bounded whatever the sample count.
_BLOCK_ELEMENTS = 1 << 16

# Largest accepted sample count.  The trace, its spectrum and both CSV
# texts are held whole in memory; `signal --n 4` at this count peaks near
# 241 MB (Python 3.11, numpy 2.4, x86-64).
MAX_SAMPLES = 1 << 20


@dataclass(frozen=True, eq=False)
class SignalTrace:
    """Uniformly sampled real readout trace starting at t = 0."""

    dt: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("need at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.samples.size)


def hamiltonian(sys: SpinSystem) -> np.ndarray:
    """Zeeman terms plus scalar couplings: sum_i omega_i Iz_i
    + sum_(i<j) 2 pi J_ij Iz_i Iz_j, as its read-only diagonal."""
    diag = np.zeros(sys.size)
    for i in range(1, sys.n + 1):
        diag += sys.omega[i - 1] * spin_z_column(sys.n, i)
    for i, j, strength in sys.couplings:
        diag += 2.0 * np.pi * strength * spin_z_column(sys.n, i) * spin_z_column(sys.n, j)
    diag.setflags(write=False)
    return diag


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")


def heisenberg_op(m: Operator, h: np.ndarray, t: float) -> Operator:
    """Measurement evolved to time t: exp(iHt) M exp(-iHt).

    With H diagonal this is an entrywise phase: entry (j, k) picks up
    exp(i (h_j - h_k) t).
    """
    _check_time(t)
    if h.shape != (m.dim,):
        raise ValueError("operator and Hamiltonian dimensions differ")
    phases = np.exp(1j * h * t)
    return Operator(phases[:, None] * m.mat * phases.conj()[None, :])


def check_sampling(dt: float, count: int) -> None:
    """Reject sampling that cannot give a finite trace and spectrum."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if count < 2:
        raise ValueError("need at least two samples for a spectrum")
    if count > MAX_SAMPLES:
        raise ValueError(f"count={count} exceeds the ceiling of {MAX_SAMPLES} samples")
    last = dt * (count - 1)
    if not math.isfinite(last):
        raise ValueError(f"last sample time dt * (count - 1) is not finite for dt={dt!r}, count={count}")
    if not math.isfinite(2.0 * math.pi / dt):
        raise ValueError(f"dt={dt!r} is too small for a finite spectrum frequency grid")


def _line_sum(kernel, freqs: np.ndarray, amps: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_l amps_l * kernel(freqs_l * t) at every sample time t."""
    if not math.isfinite(float(np.abs(freqs).max(initial=0.0)) * float(times[-1])):
        raise ValueError("the phase at the last sample time is not finite; shorten dt * count")
    rows = max(1, _BLOCK_ELEMENTS // max(1, freqs.size))
    return np.concatenate(
        [kernel(np.outer(times[k:k + rows], freqs)) @ amps for k in range(0, times.size, rows)]
    )


def signal(rho: DensityMatrix, h: np.ndarray, m: Operator, dt: float, count: int) -> SignalTrace:
    """Sample Tr(rho M(t)) at t = k dt for k = 0..count-1.

    Every nonzero weight rho_ab M_ba oscillates at h_b - h_a; weights at
    the same frequency are summed before any phase is evaluated.
    """
    if rho.dim != m.dim or h.shape != (rho.dim,):
        raise ValueError("state, measurement, and Hamiltonian dimensions differ")
    check_sampling(dt, count)
    weights = (rho.mat * m.mat.T).ravel()  # entry (a, b): rho_ab M_ba
    freq = (h[None, :] - h[:, None]).ravel()  # phase rate per entry
    keep = weights != 0
    w = weights[keep]
    lines, inverse = np.unique(freq[keep], return_inverse=True)
    amps = np.bincount(inverse, w.real, lines.size) + 1j * np.bincount(inverse, w.imag, lines.size)
    values = _line_sum(lambda x: np.exp(1j * x), lines, amps, dt * np.arange(count))
    worst = float(np.abs(values.imag).max(initial=0.0))
    if worst > 1e-10 * max(1.0, float(np.abs(values.real).max(initial=0.0))):
        raise ValueError(f"signal came out complex (residue {worst:g}); inputs are not hermitian")
    return SignalTrace(dt=dt, samples=values.real)


def transverse_signal(
    sys: SpinSystem, f: BoolFunc | None, spins, axis: str, dt: float, count: int
) -> SignalTrace:
    """Sample Tr(rho M(t)) at t = k dt for k = 0..count-1 without building
    a matrix, for M the sum of I^axis_i over the given spins (1-based) and
    rho the pulsed thermal state after the phase oracle of f (none if f is
    None).

    Only the basis pairs a, a XOR 2**(n-i) with bit i of a clear
    contribute, at the line Delta = omega_i + 2 pi sum_j J_ij z_j(a), so
    the signal is -(theta / 2N) sum_i omega_i sum_l c_(i,l) cos(Delta_l t),
    with sin for the y axis.  c_(i,l) is the exact integer sum of
    s_a s_(a XOR 2**(n-i)) over the pairs on line l, with s = (-1)**f.  A
    line depends only on spin i's coupled neighbours, so the pairs that
    `flip_differences` marks are counted per neighbour pattern, and each
    pattern's line is summed from the couplings in one fixed order: at most
    2**(coupling count) lines per spin, equal lines bitwise equal.
    """
    check_sampling(dt, count)
    if axis not in ("x", "y"):
        raise ValueError(f"transverse axis must be x or y, got {axis!r}")
    spins = _check_spins(spins, sys.n)
    n = sys.n
    f = constant_zero(n) if f is None else f
    _check_function(f, n)
    z = spin_z_column(1, 1)
    amps, lines = [], []
    for i in spins:
        coupled = [(b if a == i else a, J) for a, b, J in sys.couplings if i in (a, b)]
        near = sorted(j for j, _ in coupled)
        # Differing pairs per neighbour pattern: the marked arguments, at bit
        # i clear, summed over every other spin's axis but the neighbours'.
        marked = np.take(BoolFunc(n, flip_differences(f, i)).bits().reshape([2] * n), 0, axis=i - 1)
        far = tuple(j - 1 - (j > i) for j in range(1, n + 1) if j != i and j not in near)
        c = (1 << (n - 1 - len(near))) - 2 * marked.sum(axis=far, dtype=np.int64).ravel()
        delta = np.full([2] * len(near), sys.omega[i - 1])
        for j, strength in coupled:
            delta = delta + 2.0 * np.pi * strength * z.reshape([2 if k == j else 1 for k in near])
        line, inverse = np.unique(delta.ravel(), return_inverse=True)
        c = np.bincount(inverse, c, line.size)
        keep = c != 0
        amps.append(sys.omega[i - 1] * c[keep])
        lines.append(line[keep])
    kernel = np.cos if axis == "x" else np.sin
    values = _line_sum(kernel, np.concatenate(lines), np.concatenate(amps), dt * np.arange(count))
    # Adding 0.0 turns the -0.0 of an exact cancellation into 0.0.
    return SignalTrace(dt=dt, samples=-sys.theta / (2.0 * sys.size) * values + 0.0)


def spectrum(trace: SignalTrace) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Fourier transform magnitudes, sorted by angular frequency,
    as the arrays (omegas, magnitudes)."""
    count = trace.samples.size
    check_sampling(trace.dt, count)
    transform = np.fft.fft(trace.samples)
    omegas = 2.0 * np.pi * np.fft.fftfreq(count, d=trace.dt)
    # fftfreq lists 0, the positive and then the negative frequencies, so
    # its shift is ascending.  hypot gives the bits of Python's abs() of
    # each complex bin; np.abs differs in the last place on some bins.
    return np.fft.fftshift(omegas), np.fft.fftshift(np.hypot(transform.real, transform.imag))


def find_peaks(
    spec: tuple[np.ndarray, np.ndarray], rel_threshold: float = 0.05
) -> tuple[np.ndarray, np.ndarray]:
    """Interior local maxima of the magnitude at or above rel_threshold of
    the global maximum, as the arrays (omegas, magnitudes)."""
    omegas, mags = spec
    # Magnitudes are non-negative, so 0 as the start changes no maximum.
    floor = rel_threshold * mags.max(initial=0.0)
    mid = mags[1:-1]
    keep = (mid >= floor) & (mid > mags[:-2]) & (mid > mags[2:])
    return omegas[1:-1][keep], mid[keep]


def trace_csv(trace: SignalTrace) -> str:
    """The trace as CSV text: a k,t,value header, then one row per sample."""
    k = np.arange(trace.samples.size, dtype=float)
    return _float_table("k,t,value\r\n", "%.17g,%.17g,%.17g\r\n", (k, trace.times, trace.samples))


def spectrum_csv(spec: tuple[np.ndarray, np.ndarray]) -> str:
    """The spectrum as CSV text: an omega,magnitude header, then one row per bin."""
    return _float_table("omega,magnitude\r\n", "%.17g,%.17g\r\n", spec)
