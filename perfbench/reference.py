"""Reference kernels: fixed work that does not touch evqc, timed to track
how fast the host runs at the moment.

The benchmark runs on shared machines whose speed drifts by 10-30 % over
seconds to minutes.  The worker times its workload's kernel before every
operation and scales each operation's duration by

    reference_s / (median kernel time over the neighbouring samples)

so latencies read as on the reference machine at its usual speed.  A
change to evqc does not change the kernels, so it shows in full.  Each
workload's kernel is shaped like its hot path: interpreter and big-integer
work for search, plus per-bit unpacking of a large truth table for
sweep, large complex arrays and a dense eigensolve for decide, arrays and
interpreter work for signal.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

HALF_WINDOW = 10  # kernel samples taken on each side of an operation

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((48, 48))
_FREQ = _rng.uniform(-3000.0, 3000.0, 1024)
_WEIGHTS = _rng.standard_normal(1024) + 0j
_TIMES = 1e-4 * np.arange(64)
_HERM = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_HERM = _HERM + _HERM.conj().T
_BIG = (1 << 40000) - 12345
_TABLE = (1 << 65536) // 3  # a 16-bit truth table, as funcspace packs it


def _interpreter() -> None:
    x = 0
    for i in range(3000):
        x = (x * 31 + i) & 0xFFFFF
    for j in range(0, 400, 4):
        x ^= (_BIG >> j) & 0xFF
    float((np.arange(20000, dtype=float) * 1.0001).sum())
    _SMALL @ _SMALL


def _bit_table() -> None:
    # The per-bit unpacking pattern of a large truth table.
    for j in range(0, 65536, 128):
        (_TABLE >> j) & 1


def _arrays() -> None:
    np.exp(1j * np.outer(_TIMES, _FREQ)) @ _WEIGHTS
    np.linalg.eigvalsh(_HERM)


# workload -> (kernels, median time of one sample on the reference machine)
KERNELS = {
    "decide": ((_arrays,), 6.7e-3),
    "search": ((_interpreter,), 6.0e-4),
    "signal": ((_arrays, _interpreter), 7.3e-3),
    "sweep": ((_interpreter, _bit_table), 1.3e-3),
}


def sample(workload: str) -> float:
    """Seconds one run of the workload's kernels takes now."""
    kernels, _ = KERNELS[workload]
    t0 = time.perf_counter()
    for kernel in kernels:
        kernel()
    return time.perf_counter() - t0


def speed(workload: str, samples: list[float]) -> float:
    """How fast the host ran relative to the reference machine (1.0 = same)."""
    return KERNELS[workload][1] / statistics.median(samples)


def scale(workload: str, durations: list[float], samples: list[float]) -> list[float]:
    """Durations as on the reference machine.

    ``samples[k]`` was taken just before operation k, and one more after
    the last, so operation k sits between samples k and k + 1.
    """
    ref = KERNELS[workload][1]
    out = []
    for k, d in enumerate(durations):
        window = samples[max(0, k - HALF_WINDOW + 1): k + HALF_WINDOW + 1]
        out.append(d * ref / statistics.median(window))
    return out
