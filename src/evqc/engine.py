"""Expectation-value readout and the oracle decision protocols.

The three protocols run on the structured route, which builds no matrix:
the pulsed thermal state and the transverse measurements are sums of
bit-flip terms, and the pseudopure state and the projector measurement
are identity plus a rank-one projector, so each readout comes from bit
counts on the packed truth table and each spectral range is known in
closed form.
The bit-flip correlations c_i come from `funcspace.flip_correlation`, the
packed-mask kernel that C_N membership shares.

Two dense evaluation routes are kept deliberately separate as its
oracles: the direct route conjugates the state by the oracle and
contracts with the measurement, while the functional route sums a
sign-weighted quadratic form over a precomputed coefficient matrix.
Tests pit all three against each other, and the functional route also
against its trace-plus-upper-triangle form, which lives only in the
tests; do not collapse them.
Each dense route takes a batch of functions (`expectations`,
`s_functionals`) and checks its inputs once per batch; `survey` reads a
whole class in one call.
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
from evqc.spinops import (
    Operator,
    _check_function,
    _check_spins,
    require_hermitian,
)
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


def _as_real(values, what: str):
    """Real parts of a complex scalar or array, as a Python float or list
    of floats, refusing any value whose imaginary residue exceeds IMAG_TOL
    relative to max(1, |value|)."""
    values = np.asarray(values)
    bad = np.abs(values.imag) > IMAG_TOL * np.maximum(1.0, np.abs(values))
    if bad.any():
        residue = float(values[bad][0].imag)
        raise ValueError(f"{what} has imaginary residue {residue:g}; inputs are not hermitian")
    return values.real.tolist()


def _weights(m: Operator, rho: DensityMatrix, what: str) -> np.ndarray:
    """M_jk * rho_kj entrywise, for a hermitian m whose dimension rho shares."""
    require_hermitian(m, what)
    if m.dim != rho.dim:
        raise ValueError(f"dimension mismatch: measurement {m.dim}, state {rho.dim}")
    return m.mat * rho.mat.T


def _sign_rows(fs, dim: int, what: str) -> np.ndarray:
    """(-1)**f for each f of the sequence fs, one row each, after checking
    that every f has dim arguments."""
    for f in fs:
        if f.size != dim:
            raise ValueError(f"function domain {f.size} does not match {what} dimension {dim}")
    return np.array([f.signs() for f in fs]).reshape(len(fs), dim)


def expectations(m: Operator, rho: DensityMatrix, fs) -> list[float]:
    """Expectation read after applying the phase oracle of each f of the
    sequence fs to the state, in order.

    Computed as the contraction sum_jk s_j s_k M_jk rho_kj with
    s = (-1)**f, which is the oracle-conjugated trace without forming the
    conjugated matrix.  The checks and M_jk rho_kj are done once for the
    whole batch, and every row of signs is contracted in one product.
    """
    p = _weights(m, rho, "expectation")
    s = _sign_rows(fs, m.dim, "operator")
    return _as_real(((s @ p) * s).sum(axis=1), "expectation")


def b_matrix(rho: DensityMatrix, m: Operator) -> Operator:
    """Coefficient matrix with entries M_jk * rho_kj (no summation)."""
    return Operator(_weights(m, rho, "b_matrix"))


def s_functionals(b: Operator, fs) -> list[complex]:
    """Sign-weighted sum over all entries of b for each f of the sequence
    fs: sum_jk (-1)^(f(j)+f(k)) B_jk.

    Each sum is exactly rounded (math.fsum over that function's nonzero
    terms), so cancellations that are exact in real arithmetic come out
    as exact zeros here too, whatever the batch.
    """
    s = _sign_rows(fs, b.dim, "matrix")
    # The nonzero terms sit where b is nonzero, as signs are +-1.
    rows, cols = np.nonzero(b.mat)
    terms = b.mat[rows, cols] * (s[:, rows] * s[:, cols])
    return [complex(math.fsum(re), math.fsum(im))
            for re, im in zip(terms.real.tolist(), terms.imag.tolist())]


def transverse_readout(sys: SpinSystem, f: BoolFunc, spins) -> float:
    """Readout of the x order of the given spins (1-based) on the pulsed
    thermal state after the phase oracle of f, without building a matrix.

    Equals -(theta / 4N) * sum_i omega_i c_i with the bit-flip correlation
    c_i = sum_j s_j s_(j XOR 2**(n-i)) and s = (-1)**f.  Every c_i is an
    exact integer and the sum over spins is exactly rounded, so readouts
    that cancel in real arithmetic come out as exact zeros.
    """
    _check_function(f, sys.n)
    spins = _check_spins(spins, sys.n)
    total = math.fsum(float(sys.omega[i - 1]) * flip_correlation(f, i) for i in spins)
    # Adding 0.0 turns the -0.0 of an exact cancellation into 0.0.
    return -sys.theta * total / (4.0 * sys.size) + 0.0


def projector_readout(n: int, alpha: float, f: BoolFunc) -> float:
    """Readout of the uniform-superposition projector W on the pseudopure
    state after the phase oracle of f, without building a matrix.

    pseudopure(n, alpha) is (1 - alpha/N) I/N + (alpha/N) W, so the readout
    is (1 - alpha/N)/N + (alpha/N) * (sum_j s_j / N)**2.  The mean sign is
    exact, because sum_j s_j = N - 2 * (number of ones).
    """
    _check_function(f, n)
    size = 1 << n
    mean = (size - 2 * f.ones) / size
    return (1.0 - alpha / size) / size + (alpha / size) * mean * mean


def trace_expectation(m: Operator, rho: DensityMatrix) -> float:
    """Plain readout without any oracle applied."""
    return _as_real(_weights(m, rho, "trace_expectation").sum(), "expectation")


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
    ref_const = projector_readout(f.n, alpha, constant_zero(f.n))
    ref_balanced = projector_readout(f.n, alpha, canonical_balanced(f.n))
    e = projector_readout(f.n, alpha, f)
    # A projector has eigenvalues 0 and 1.
    return _decide(e, [ref_const], ref_balanced, Decision.NOT_BALANCED, 1.0, eps)


def cn_decide_thermal(f: BoolFunc, sys: SpinSystem, eps: Resolution) -> Verdict:
    """Constant-vs-C_N decision on the pulsed thermal state, measuring
    total transverse spin.

    No pseudopure preparation is involved; the whole point of the class
    C_N is that the naturally prepared state already separates it from
    the constants.
    """
    _check_function(f, sys.n)
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
