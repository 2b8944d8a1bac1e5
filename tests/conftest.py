"""Shared randomized builders for the test suite, and the oracles the
acceptance checks and unit tests hold the package to: the dense thermal and
pseudopure states, the dense phase oracle, the numerical spectrum and its
spread, the matrix-exponential Heisenberg map, argument transposition, the
invariant form's decomposition and reconstruction, the exhaustive
permutation-witness hunt, machine-level distinguishability, the closed-form
satisfiability gap and spectral equivalence, and a comparison of long
texts.  No command calls any of them; each is the dense or exhaustive route
a matrix-free one in the package is checked against."""

import itertools
import warnings

import numpy as np
import pytest

from evqc.engine import Resolution, expectations, trace_expectation
from evqc.funcspace import BoolFunc
from evqc.measstruct import InvariantForm
from evqc.spinops import Operator, _check_register, require_hermitian, spin_z_column
from evqc.states import DensityMatrix, SpinSystem
from evqc.timedomain import _check_time

UNIFORM_TOL = 1e-8  # spread allowed among the symmetrized off-diagonal entries


def thermal_state(sys: SpinSystem) -> DensityMatrix:
    """Equilibrium state, linear in theta: (1 - theta * sum_i omega_i Iz_i) / N.

    Diagonal, hence invariant under every phase oracle.
    """
    _check_register(sys.n)
    size = sys.size
    diag = np.full(size, 1.0 / size)
    for i in range(1, sys.n + 1):
        diag = diag - (sys.theta / size) * sys.omega[i - 1] * spin_z_column(sys.n, i)
    return DensityMatrix(Operator(np.diag(diag.astype(complex))))


def pseudopure(n: int, alpha: float) -> DensityMatrix:
    """Mixture of the maximally mixed state with the uniform-superposition projector.

    alpha is the purity weight; physical preparations have 0 < alpha <= 1
    and anything else draws a warning but is still constructed.
    """
    _check_register(n)
    size = 1 << n
    if not 0 < alpha <= 1:
        warnings.warn(f"pseudopure weight alpha={alpha:g} outside (0, 1]", stacklevel=2)
    weight = (alpha / size) * (1.0 / size) + 0.0  # + 0.0: no -0.0 at alpha = -0.0
    mat = np.full((size, size), weight, dtype=complex)
    np.fill_diagonal(mat.real, (1.0 - alpha / size) / size + weight)
    return DensityMatrix(Operator(mat))


def oracle(f: BoolFunc) -> Operator:
    """Diagonal phase oracle with entries (-1)**f(j); self-inverse."""
    _check_register(f.n)
    return Operator(np.diag(f.signs().astype(complex)))


def eig_multiset(m: Operator) -> np.ndarray:
    """Eigenvalues of a hermitian operator as a read-only ascending vector.

    The sum is cross-checked against the trace before returning; a
    mismatch means the eigensolver or the input is broken.
    """
    require_hermitian(m, "eig_multiset")
    values = np.linalg.eigvalsh(m.mat)
    residue = abs(float(values.sum()) - m.trace.real)
    scale = max(1.0, float(np.abs(values).max(initial=0.0)) * m.dim)
    if residue > 1e-9 * scale:
        raise ValueError(f"eigenvalue sum disagrees with trace by {residue:g}")
    values.setflags(write=False)
    return values


def spectral_range(m: Operator) -> float:
    """Spread between the extreme eigenvalues of a hermitian operator."""
    values = eig_multiset(m)
    return float(values[-1] - values[0])


def heisenberg_dense(m: Operator, h: np.ndarray, t: float) -> Operator:
    """exp(iHt) M exp(-iHt) through a dense matrix exponential, the oracle
    for timedomain.heisenberg_op's entrywise phases."""
    _check_time(t)
    from scipy.linalg import expm  # imported here: only the tests that call it need scipy

    u = expm(1j * np.diag(h) * t)
    return Operator(u @ m.mat @ u.conj().T)


def permute(f: BoolFunc, l: int, m: int) -> BoolFunc:
    """Transpose the table values at argument indices l and m."""
    if not (0 <= l < f.size and 0 <= m < f.size):
        raise ValueError("transposition indices outside the domain")
    if l == m or f(l) == f(m):
        return f
    return BoolFunc(f.n, f.mask ^ ((1 << l) | (1 << m)))


class NotInvariantFormError(ValueError):
    """The symmetrized off-diagonal entries are not uniform."""


def assemble(c: float, d: np.ndarray, a_upper: np.ndarray) -> np.ndarray:
    """c * W + diag(d) + A as a new matrix, written through its real and
    imaginary views; the diagonal's imaginary part stays 0."""
    size = d.size
    rows, cols = np.triu_indices(size, 1)
    mat = np.zeros((size, size), dtype=complex)
    re, im = mat.reshape(-1).real, mat.reshape(-1).imag
    w = c / size
    re.fill(w)
    np.add(d, w, out=re[:: size + 1])
    # 0.0 + a and 0.0 - a: a -0.0 in a_upper gives +0.0 on both sides.
    im[rows * size + cols] = 0.0 + a_upper
    im[cols * size + rows] = 0.0 - a_upper
    return mat


def reconstruct(form: InvariantForm) -> Operator:
    """Assemble the hermitian matrix c * W + diag(d) + A."""
    return Operator(assemble(form.c, form.d, form.a_upper))


def decompose_invariant(m: Operator) -> InvariantForm:
    """Split a hermitian operator into the invariant form, or refuse.

    The symmetrized off-diagonal entries must agree within UNIFORM_TOL; their
    common value fixes c, the diagonal fixes D, and what remains is the
    antisymmetric imaginary part.
    """
    mat = m.mat
    size = m.dim
    if size < 2:
        raise ValueError("need dimension >= 2")
    require_hermitian(m, "decompose_invariant")
    rows, cols = np.triu_indices(size, 1)
    sym = (mat + mat.T)[rows, cols]
    # Hermitian input makes these real up to rounding.
    vals = sym.real
    spread = float(vals.max() - vals.min())
    if spread > UNIFORM_TOL:
        lo = int(np.argmin(vals))
        hi = int(np.argmax(vals))
        raise NotInvariantFormError(
            "symmetrized off-diagonal entries are not uniform: "
            f"entry ({rows[lo]},{cols[lo]}) gives {vals[lo]:.6g} but "
            f"({rows[hi]},{cols[hi]}) gives {vals[hi]:.6g} (spread {spread:.3g} > tol {UNIFORM_TOL:g})"
        )
    c = size * float(vals.mean()) / 2.0
    d = np.diag(mat).real - c / size
    a_upper = mat[rows, cols].imag.copy()
    return InvariantForm(c=c, d=d, a_upper=a_upper)


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
