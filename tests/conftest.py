"""Shared randomized builders for the test suite, and the oracles the
acceptance checks and unit tests hold the package to: the exhaustive
permutation-witness hunt, machine-level distinguishability, the closed-form
satisfiability gap and spectral equivalence, and a comparison of long texts."""

import itertools

import numpy as np
import pytest

from evqc.engine import Resolution, expectations, trace_expectation
from evqc.funcspace import BoolFunc, permute
from evqc.spinops import Operator, eig_multiset, spectral_range
from evqc.states import DensityMatrix


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> Operator:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Operator(scale * 0.5 * (z + z.conj().T), hermitian=True)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p = z @ z.conj().T
    p = p / np.trace(p).real
    return DensityMatrix(Operator(p, hermitian=True))


def oracle_conjugated(rho: DensityMatrix, f: BoolFunc) -> DensityMatrix:
    """rho after the phase oracle of f: entries rho_jk s_j s_k with s = (-1)**f."""
    s = f.signs()
    return DensityMatrix(Operator(rho.mat * np.outer(s, s), hermitian=True))


def find_permutation_witness(
    m: Operator,
    rho: DensityMatrix,
    tol: float | None = None,
) -> tuple[BoolFunc, int, int] | None:
    """Exhaustive hunt for a transposition that shifts some readout.

    Returns (f, l, k) for the first violation in truth-table order, or
    None when every readout is invariant.  Only sensible at small n.
    """
    tol = _invariance_tol(m, rho, tol)
    size = m.dim
    n_bits = (size - 1).bit_length()
    pairs = list(itertools.combinations(range(size), 2))
    for mask in range(1 << size):
        f = BoolFunc(n_bits, mask)
        base, *permuted = expectations(m, rho, [f] + [permute(f, l, k) for l, k in pairs])
        for (l, k), e in zip(pairs, permuted):
            if abs(base - e) > tol:
                return f, l, k
    return None


def _invariance_tol(m: Operator, rho: DensityMatrix, tol: float | None) -> float:
    """Refuse a state outside the pseudopure family, which is what the
    invariance statement covers; return tol, by default 1e-10 * max(1, max|M|)."""
    mat = rho.mat
    off = mat - np.diag(np.diag(mat))
    rows, cols = np.triu_indices(mat.shape[0], 1)
    off_vals = mat[rows, cols]
    diag_vals = np.diag(mat)
    uniform = (
        np.abs(off_vals - off_vals[0]).max(initial=0.0) <= 1e-12
        and np.abs(diag_vals - diag_vals[0]).max() <= 1e-12
        and np.abs(off.imag).max() <= 1e-12
    )
    if not uniform:
        raise ValueError("permutation invariance is only claimed for pseudopure-family states")
    return 1e-10 * max(1.0, float(np.abs(m.mat).max(initial=0.0))) if tol is None else tol


def distinguishable(m: Operator, rho1: DensityMatrix, rho2: DensityMatrix, eps: Resolution) -> bool:
    """Machine-level distinguishability of two states under one measurement.

    True when the readout difference exceeds eps times the spectral range
    of the measurement (strictly).
    """
    lam = spectral_range(m)
    if lam == 0.0:
        raise ValueError("measurement with zero spectral range cannot distinguish anything")
    gap = abs(trace_expectation(m, rho1) - trace_expectation(m, rho2))
    return gap > eps.epsilon * lam


def satisfiability_gap(n: int) -> float:
    """Readout gap between constant and balanced inputs on the pure protocol."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2.0 ** (2 - n) * (1.0 - 2.0 ** (-n))


def unitarily_equivalent(m1: Operator, m2: Operator, tol: float | None = None) -> bool:
    """Whether two hermitian operators share an eigenvalue multiset.

    For hermitian inputs this is exactly unitary equivalence.  The default
    tolerance scales with dimension: 1e-9 * N per eigenvalue.
    """
    if m1.dim != m2.dim:
        raise ValueError(f"dimension mismatch: {m1.dim} vs {m2.dim}")
    if tol is None:
        tol = 1e-9 * m1.dim
    v1 = eig_multiset(m1)
    v2 = eig_multiset(m2)
    return bool(np.abs(v1 - v2).max() <= tol)


def texts_match(got: str, want: str) -> bool:
    """got == want; a mismatch fails with the lengths and the first
    differing line, where pytest's own report would diff the whole texts
    with difflib, which runs for minutes on texts of thousands of lines."""
    if got == want:
        return True
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    k = next((k for k, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
             min(len(got_lines), len(want_lines)))
    first = [lines[k][:200] if k < len(lines) else "<end of text>" for lines in (got_lines, want_lines)]
    raise AssertionError(f"texts of {len(got)} and {len(want)} characters differ first at line {k + 1}: "
                         f"{first[0]!r} != {first[1]!r}")


def random_boolfunc(n: int, rng: np.random.Generator) -> BoolFunc:
    bits = rng.integers(0, 2, size=1 << n)
    mask = 0
    for j, b in enumerate(bits):
        if b:
            mask |= 1 << j
    return BoolFunc(n, mask)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)
