"""Expectation-value readout and the oracle decision protocols.

The three protocols run on the structured route, which builds no matrix:
the pulsed thermal state and the transverse measurements are sums of
bit-flip terms, and the pseudopure state and the projector measurement
are identity plus a rank-one projector, so each readout comes from bit
counts on the packed truth table and each spectral range is known in
closed form.
The bit-flip correlations c_i come from `funcspace.flip_correlation`, the
packed-mask kernel that C_N membership shares; the halves count on the
unpacked table checks it under ``__debug__`` and in the tests, and the XOR
gather on the sign vector is a test oracle only.

Two dense evaluation routes are kept deliberately separate as its
oracles: the direct route conjugates the state by the oracle and
contracts with the measurement, while the functional route sums a
sign-weighted quadratic form over a precomputed coefficient matrix.
Tests pit all three against each other; do not collapse them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from evqc.funcspace import (
    BoolFunc,
    _check_cn_width,
    canonical_balanced,
    canonical_cn,
    constant_one,
    constant_zero,
    flip_correlation,
    lift,
)
from evqc.spinops import Operator, _check_register, require_hermitian, spectral_range
from evqc.states import DensityMatrix, SpinSystem

# Residual imaginary part tolerated before declaring an input non-hermitian.
IMAG_TOL = 1e-10


class Decision(enum.Enum):
    NOT_CONSTANT = "NotConstant"
    NOT_BALANCED = "NotBalanced"
    NOT_IN_CLASS = "NotInClass"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Resolution:
    """Relative readout resolution of the expectation-value machine."""

    epsilon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one protocol run.

    The verdict only ever excludes a class; closeness to a reference value
    within the machine resolution is never read as membership.
    """

    decided: Decision
    expectation: float
    gap_reference: float
    resolution_used: Resolution
    lam: float  # spectral range of the measurement; the margin is epsilon * lam


def _as_real(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_TOL * max(1.0, abs(value)):
        raise ValueError(f"{what} has imaginary residue {value.imag:g}; inputs are not hermitian")
    return float(value.real)


def _check_compatible(m: Operator, rho: DensityMatrix, f: BoolFunc | None = None) -> None:
    if m.dim != rho.dim:
        raise ValueError(f"dimension mismatch: measurement {m.dim}, state {rho.dim}")
    if f is not None and f.size != m.dim:
        raise ValueError(f"function domain {f.size} does not match operator dimension {m.dim}")


def expectation(m: Operator, rho: DensityMatrix, f: BoolFunc) -> float:
    """Expectation read after applying the phase oracle of f to the state.

    Computed as the contraction sum_jk s_j s_k M_jk rho_kj with
    s = (-1)**f, which is the oracle-conjugated trace without forming the
    conjugated matrix.
    """
    require_hermitian(m, "expectation")
    _check_compatible(m, rho, f)
    s = f.signs()
    p = m.mat * rho.mat.T
    value = complex(s @ p @ s)
    return _as_real(value, "expectation")


def b_matrix(rho: DensityMatrix, m: Operator) -> Operator:
    """Coefficient matrix with entries M_jk * rho_kj (no summation)."""
    require_hermitian(m, "b_matrix")
    _check_compatible(m, rho)
    return Operator(m.mat * rho.mat.T)


def s_functional(b: Operator, f: BoolFunc) -> complex:
    """Sign-weighted sum over all entries of b: sum_jk (-1)^(f(j)+f(k)) B_jk.

    Summation is exactly rounded (math.fsum), so cancellations that are
    exact in real arithmetic come out as exact zeros here too.
    """
    if f.size != b.dim:
        raise ValueError(f"function domain {f.size} does not match matrix dimension {b.dim}")
    s = f.signs()
    terms = b.mat * np.outer(s, s)
    flat = terms.ravel()
    nz = flat[flat != 0]
    value = complex(math.fsum(nz.real), math.fsum(nz.imag))
    if __debug__:
        _cross_check_forms(b.mat, s, value)
    return value


def _cross_check_forms(bmat: np.ndarray, s: np.ndarray, value: complex) -> None:
    # Same functional via trace plus symmetrized upper triangle.
    # The strict upper triangle's (row, column) pairs, row by row, read
    # off a boolean mask: no index grid is built.
    upper = np.nonzero(~np.tri(bmat.shape[0], dtype=bool))
    sym = (bmat + bmat.T)[upper]
    other = complex(np.trace(bmat) + np.sum(s[upper[0]] * s[upper[1]] * sym))
    tol = 1e-9 * max(1.0, float(np.abs(bmat).sum()))
    if abs(other - value) > tol:
        raise AssertionError(
            f"the two functional forms disagree: {value} vs {other}"
        )


def transverse_readout(sys: SpinSystem, f: BoolFunc, spins) -> float:
    """Readout of the x order of the given spins (1-based) on the pulsed
    thermal state after the phase oracle of f, without building a matrix.

    Equals -(theta / 4N) * sum_i omega_i c_i with the bit-flip correlation
    c_i = sum_j s_j s_(j XOR 2**(n-i)) and s = (-1)**f.  Every c_i is an
    exact integer and the sum over spins is exactly rounded, so readouts
    that cancel in real arithmetic come out as exact zeros.
    """
    if f.n != sys.n:
        raise ValueError(f"function on {f.n} bits does not match {sys.n} spins")
    spins = _check_spins(spins, sys.n)
    total = math.fsum(float(sys.omega[i - 1]) * flip_correlation(f, i) for i in spins)
    # Adding 0.0 turns the -0.0 of an exact cancellation into 0.0.
    return -sys.theta * total / (4.0 * sys.size) + 0.0


def _check_spins(spins, n: int) -> tuple[int, ...]:
    spins = tuple(spins)
    if not spins or any(not 1 <= i <= n for i in spins):
        raise ValueError(f"spins {spins} must be a nonempty selection from 1..{n}")
    return spins


def projector_readout(n: int, alpha: float, f: BoolFunc) -> float:
    """Readout of the uniform-superposition projector W on the pseudopure
    state after the phase oracle of f, without building a matrix.

    pseudopure(n, alpha) is (1 - alpha/N) I/N + (alpha/N) W, so the readout
    is (1 - alpha/N)/N + (alpha/N) * (sum_j s_j / N)**2.  The mean sign is
    exact, because sum_j s_j = N - 2 * (number of ones).
    """
    if f.n != n:
        raise ValueError(f"function on {f.n} bits does not match {n} spins")
    size = 1 << n
    mean = (size - 2 * f.ones) / size
    return (1.0 - alpha / size) / size + (alpha / size) * mean * mean


def trace_expectation(m: Operator, rho: DensityMatrix) -> float:
    """Plain readout without any oracle applied."""
    require_hermitian(m, "trace_expectation")
    _check_compatible(m, rho)
    return _as_real(complex((m.mat * rho.mat.T).sum()), "expectation")


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


def _decide(
    e: float,
    const_refs: list[float],
    other_ref: float,
    other_exclusion: Decision,
    lam: float,
    eps: Resolution,
) -> Verdict:
    """Map a readout to the exclusion verdict it supports.

    The class whose reference sits farther from the readout than the
    resolution margin is excluded; when both references are within the
    margin the machine cannot tell them apart and the verdict is
    Inconclusive.
    """
    if not all(math.isfinite(v) for v in (e, other_ref, *const_refs)):
        raise ValueError(f"readout {e!r} or a reference is not finite; no verdict is possible")
    margin = eps.epsilon * lam
    d_const = min(abs(e - r) for r in const_refs)
    d_other = abs(e - other_ref)
    if d_const <= margin and d_other <= margin:
        decided = Decision.INCONCLUSIVE
    elif d_const >= d_other:
        decided = Decision.NOT_CONSTANT
    else:
        decided = other_exclusion
    return Verdict(
        decided=decided,
        expectation=e,
        gap_reference=const_refs[0],
        resolution_used=eps,
        lam=lam,
    )


def dj_decide_pseudopure(f: BoolFunc, alpha: float, eps: Resolution) -> Verdict:
    """Constant-vs-balanced decision on a pseudopure register.

    Measures the uniform-superposition projector after the oracle.  Both
    references are produced by running the same readout on representative
    class members, never from closed forms.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha={alpha:g} outside (0, 1]")
    n = f.n
    _check_register(n)
    ref_const = projector_readout(n, alpha, constant_zero(n))
    ref_balanced = projector_readout(n, alpha, canonical_balanced(n))
    e = projector_readout(n, alpha, f)
    # A projector has eigenvalues 0 and 1.
    return _decide(e, [ref_const], ref_balanced, Decision.NOT_BALANCED, 1.0, eps)


def cn_decide_thermal(f: BoolFunc, sys: SpinSystem, eps: Resolution) -> Verdict:
    """Constant-vs-C_N decision on the pulsed thermal state, measuring
    total transverse spin.

    No pseudopure preparation is involved; the whole point of the class
    C_N is that the naturally prepared state already separates it from
    the constants.
    """
    _check_register(f.n)
    if f.n != sys.n:
        raise ValueError(f"function on {f.n} bits does not match {sys.n} spins")
    _check_cn_width(sys.n)
    spins = range(1, sys.n + 1)
    ref_const = transverse_readout(sys, constant_zero(sys.n), spins)
    ref_cn = transverse_readout(sys, canonical_cn(sys.n), spins)
    e = transverse_readout(sys, f, spins)
    # Total x spin of n spin-1/2 nuclei has eigenvalues -n/2 .. n/2.
    return _decide(e, [ref_const], ref_cn, Decision.NOT_IN_CLASS, float(sys.n), eps)


def dj_decide_lifted(f: BoolFunc, sys: SpinSystem, eps: Resolution) -> Verdict:
    """Constant-vs-balanced decision for f on n-1 bits, run on n spins.

    The function is lifted by one argument bit (upper half fixed to 0) and
    the register reads out a single spin.  Lifting breaks complement
    symmetry, so the two constants produce references of opposite sign and
    both are checked.
    """
    if sys.n != f.n + 1:
        raise ValueError(f"lifted protocol needs {f.n + 1} spins for a {f.n}-bit function")
    _check_register(sys.n)
    spin = (1,)
    ref_zero = transverse_readout(sys, lift(constant_zero(f.n)), spin)
    ref_one = transverse_readout(sys, lift(constant_one(f.n)), spin)
    ref_balanced = transverse_readout(sys, lift(canonical_balanced(f.n)), spin)
    e = transverse_readout(sys, lift(f), spin)
    # One spin-1/2 component has eigenvalues -1/2 and 1/2.
    return _decide(e, [ref_zero, ref_one], ref_balanced, Decision.NOT_BALANCED, 1.0, eps)


def verdict_record(v: Verdict, n: int) -> dict:
    """Flat mapping consumed by the report writer; lambda is the spectral
    range the verdict was gated by."""
    return {
        "decided": v.decided.value,
        "expectation": v.expectation,
        "gap_reference": v.gap_reference,
        "epsilon": v.resolution_used.epsilon,
        "lambda": v.lam,
        "n": n,
    }
