"""Dense operators for n coupled spin-1/2 nuclei.

Spin 1 occupies the most significant bit of the computational index, so
the matrix of a single-spin operator for spin i is nonzero exactly where
row and column indices differ by 2**(n-i).  Everything is stored as a
dense complex matrix; n up to 12 stays within desk-scale memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from evqc.funcspace import BoolFunc

# Spin-1/2 angular momentum components (hbar = 1).
_HALF_SPIN = {
    "x": 0.5 * np.array([[0, 1], [1, 0]], dtype=complex),
    "y": 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": 0.5 * np.array([[1, 0], [0, -1]], dtype=complex),
}

MAX_DENSE_N = 12


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable dense operator with verified structural flags.

    Flags that are set True are checked at construction time; a False flag
    makes no claim either way.
    """

    mat: np.ndarray
    hermitian: bool = False
    diagonal: bool = False
    unitary: bool = False

    def __post_init__(self) -> None:
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
        if self.hermitian and np.abs(mat - mat.conj().T).max() > 1e-10 * scale:
            raise ValueError("hermitian flag set on a non-hermitian matrix")
        if self.diagonal and np.abs(mat - np.diag(np.diag(mat))).max() > 1e-12 * scale:
            raise ValueError("diagonal flag set on a matrix with off-diagonal entries")
        if self.unitary:
            if self.diagonal:
                defect = np.abs(np.abs(np.diag(mat)) - 1.0).max()
            else:
                defect = np.abs(mat @ mat.conj().T - np.eye(mat.shape[0])).max()
            if defect > 1e-10:
                raise ValueError("unitary flag set on a non-unitary matrix")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.mat))


def _check_register(n: int) -> None:
    if not 1 <= n <= MAX_DENSE_N:
        raise ValueError(f"register size n={n} outside dense range 1..{MAX_DENSE_N}")


def spin_z_column(n: int, i: int) -> np.ndarray:
    """Diagonal of Iz for spin i: +1/2 where bit i (counted from the most
    significant) is 0, else -1/2."""
    idx = np.arange(1 << n)
    return 0.5 - ((idx >> (n - i)) & 1).astype(float)


def single_spin(n: int, i: int, axis: str) -> Operator:
    """Angular momentum component of spin i embedded in an n-spin register.

    Spins are numbered 1..n from the most significant bit.
    """
    _check_register(n)
    if not 1 <= i <= n:
        raise ValueError(f"spin index {i} outside 1..{n}")
    if axis not in _HALF_SPIN:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    mat = np.eye(1, dtype=complex)
    for pos in range(1, n + 1):
        factor = _HALF_SPIN[axis] if pos == i else np.eye(2, dtype=complex)
        mat = np.kron(mat, factor)
    return Operator(mat, hermitian=True, diagonal=(axis == "z"))


def total_spin(n: int, axis: str) -> Operator:
    """Transverse total angular momentum, the sum of all single-spin terms."""
    _check_register(n)
    if axis not in ("x", "y"):
        raise ValueError(f"total transverse component is defined for x, y; got {axis!r}")
    mat = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(1, n + 1):
        mat = mat + single_spin(n, i, axis).mat
    return Operator(mat, hermitian=True)


def w_projector(n: int) -> Operator:
    """Projector onto the uniform superposition; every entry is 1/N."""
    _check_register(n)
    size = 1 << n
    return Operator(np.full((size, size), 1.0 / size, dtype=complex), hermitian=True)


def oracle(f: BoolFunc) -> Operator:
    """Diagonal phase oracle with entries (-1)**f(j); self-inverse."""
    _check_register(f.n)
    return Operator(
        np.diag(f.signs().astype(complex)),
        hermitian=True,
        diagonal=True,
        unitary=True,
    )


@dataclass(frozen=True, eq=False)
class EigenSpectrum:
    """Eigenvalue multiset of a hermitian operator, sorted ascending."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("eigenvalue list must be a nonempty vector")
        if np.any(np.diff(values) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.size


def _require_hermitian(m: Operator, what: str) -> None:
    if m.hermitian:
        return
    scale = max(1.0, float(np.abs(m.mat).max(initial=0.0)))
    if np.abs(m.mat - m.mat.conj().T).max() > 1e-10 * scale:
        raise ValueError(f"{what} requires a hermitian operator")


def eig_multiset(m: Operator) -> EigenSpectrum:
    """Sorted eigenvalues of a hermitian operator.

    The sum is cross-checked against the trace before returning; a
    mismatch means the eigensolver or the input is broken.
    """
    _require_hermitian(m, "eig_multiset")
    values = np.linalg.eigvalsh(m.mat)
    residue = abs(float(values.sum()) - m.trace.real)
    scale = max(1.0, float(np.abs(values).max(initial=0.0)) * m.dim)
    if residue > 1e-9 * scale:
        raise ValueError(f"eigenvalue sum disagrees with trace by {residue:g}")
    return EigenSpectrum(values)


def spectral_range(m: Operator) -> float:
    """Spread between the extreme eigenvalues of a hermitian operator."""
    spec = eig_multiset(m)
    return float(spec.values[-1] - spec.values[0])


def unitarily_equivalent(m1: Operator, m2: Operator, tol: float | None = None) -> bool:
    """Whether two hermitian operators share an eigenvalue multiset.

    For hermitian inputs this is exactly unitary equivalence.  The default
    tolerance scales with dimension: 1e-9 * N per eigenvalue.
    """
    if m1.dim != m2.dim:
        raise ValueError(f"dimension mismatch: {m1.dim} vs {m2.dim}")
    if tol is None:
        tol = 1e-9 * m1.dim
    v1 = eig_multiset(m1).values
    v2 = eig_multiset(m2).values
    return bool(np.abs(v1 - v2).max() <= tol)


def dump_operator(m: Operator, path) -> None:
    """Write the dump format: dimension header, then row-major re,im pairs."""
    lines = [str(m.dim)]
    for row in m.mat:
        for entry in row:
            lines.append(f"{entry.real:.17g},{entry.imag:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_operator(path) -> Operator:
    """Read the dump format back; structural flags are re-detected."""
    with open(path, encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty operator dump {path}")
    dim = int(lines[0])
    if len(lines) != 1 + dim * dim:
        raise ValueError(f"operator dump {path} has {len(lines) - 1} entries, expected {dim * dim}")
    flat = np.empty(dim * dim, dtype=complex)
    for idx, ln in enumerate(lines[1:]):
        re_s, im_s = ln.split(",")
        flat[idx] = complex(float(re_s), float(im_s))
    mat = flat.reshape(dim, dim)
    hermitian = bool(np.abs(mat - mat.conj().T).max() <= 1e-10 * max(1.0, np.abs(mat).max(initial=0.0)))
    diagonal = bool(np.abs(mat - np.diag(np.diag(mat))).max() == 0.0)
    return Operator(mat, hermitian=hermitian, diagonal=diagonal)
