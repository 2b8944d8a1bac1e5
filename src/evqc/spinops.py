"""Dense operators for n coupled spin-1/2 nuclei.

One index rule builds every spin operator: spin i (1..n) is bit n-i of the
index, so spin 1 is the most significant.  Iz_i sits on the diagonal, +1/2
where that bit is 0; Ix_i and Iy_i sit only at (a, a XOR 2**(n-i)).  Every
matrix is dense and complex; n up to 12 stays within desk-scale memory.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from evqc.funcspace import BoolFunc, _is_ascii_int

MAX_DENSE_N = 12

# Rows per %-format call in _float_table.
_TABLE_BLOCK_ROWS = 4096

# Dump entry lines as operator_text writes them: two %.17g numerals each.
# float() alone would also take "+", "_", spaces and non-ASCII digits.
_G17 = r"(?:-?(?:inf|[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?)|nan)"
_DUMP_ENTRY = re.compile(f"{_G17},{_G17}")


def _float_table(header: str, row: str, columns) -> str:
    """header, then row %-formatted once per index of the equal-length
    columns.  Each block of rows goes through a single %, and %.17g prints
    a float exactly as f"{x:.17g}" does; %d prints a whole float column
    exactly below 2**53."""
    parts = [header]
    for start in range(0, len(columns[0]), _TABLE_BLOCK_ROWS):
        block = np.column_stack([c[start:start + _TABLE_BLOCK_ROWS] for c in columns])
        parts.append((row * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def is_hermitian(mat: np.ndarray) -> bool:
    """Whether mat equals its conjugate transpose to within
    1e-10 * max(1, max|M|); a non-finite matrix never does."""
    top = float(np.abs(mat).max(initial=0.0))
    if not math.isfinite(top):
        return False
    return bool(np.abs(mat - mat.conj().T).max() <= 1e-10 * max(1.0, top))


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable dense operator.

    Hermiticity is decided here, once: the hermitian field always holds
    is_hermitian(mat), and every consumer reads it.  Passing hermitian=True
    demands it, so a non-hermitian matrix is then refused.
    """

    mat: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ValueError(f"operator matrix must be square and non-empty, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        hermitian = is_hermitian(mat)
        if self.hermitian and not hermitian:
            raise ValueError("hermitian flag set on a non-hermitian matrix")
        object.__setattr__(self, "hermitian", hermitian)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.mat))


def _check_register(n: int) -> None:
    if not 1 <= n <= MAX_DENSE_N:
        raise ValueError(f"register size n={n} outside dense range 1..{MAX_DENSE_N}")


def _check_spins(spins, n: int) -> tuple[int, ...]:
    spins = tuple(spins)
    if not spins or any(not 1 <= i <= n for i in spins):
        raise ValueError(f"spins {spins} must be a nonempty selection from 1..{n}")
    return spins


def spin_z_column(n: int, i: int) -> np.ndarray:
    """Diagonal of Iz for spin i: +1/2 where bit i (counted from the most
    significant) is 0, else -1/2."""
    idx = np.arange(1 << n)
    return 0.5 - ((idx >> (n - i)) & 1).astype(float)


def _transverse_sum(n: int, terms, axis: str) -> np.ndarray:
    """sum_i w_i I^axis_i over the (i, w_i) pairs, axis x or y, in one zeroed
    matrix: entry (a, a XOR 2**(n-i)) gets w_i / 2 as its real part for x, or
    -w_i Iz_i(a) as its imaginary part for y.  No two spins share an entry."""
    mat = np.zeros((1 << n, 1 << n), dtype=complex)
    rows = np.arange(1 << n)
    for i, w in terms:
        part, value = (mat.real, w * 0.5) if axis == "x" else (mat.imag, -w * spin_z_column(n, i))
        part[rows, rows ^ (1 << (n - i))] = value
    return mat


def single_spin(n: int, i: int, axis: str) -> Operator:
    """Angular momentum component of spin i embedded in an n-spin register.

    Spins are numbered 1..n from the most significant bit.
    """
    _check_register(n)
    if not 1 <= i <= n:
        raise ValueError(f"spin index {i} outside 1..{n}")
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    if axis == "z":
        return Operator(np.diag(spin_z_column(n, i)))
    return Operator(_transverse_sum(n, [(i, 1.0)], axis))


def total_spin(n: int, axis: str) -> Operator:
    """Transverse total angular momentum, the sum of all single-spin terms."""
    _check_register(n)
    if axis not in ("x", "y"):
        raise ValueError(f"total transverse component is defined for x, y; got {axis!r}")
    return Operator(_transverse_sum(n, [(i, 1.0) for i in range(1, n + 1)], axis))


def w_projector(n: int) -> Operator:
    """Projector onto the uniform superposition; every entry is 1/N."""
    _check_register(n)
    size = 1 << n
    return Operator(np.full((size, size), 1.0 / size, dtype=complex))


def oracle(f: BoolFunc) -> Operator:
    """Diagonal phase oracle with entries (-1)**f(j); self-inverse."""
    _check_register(f.n)
    return Operator(np.diag(f.signs().astype(complex)))


def require_hermitian(m: Operator, what: str) -> None:
    """Raise unless m is hermitian, as its construction decided."""
    if not m.hermitian:
        raise ValueError(f"{what} requires a hermitian operator")


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


def operator_text(m: Operator) -> str:
    """The dump format: dimension header, then row-major re,im pairs."""
    flat = m.mat.reshape(-1)
    return _float_table(f"{m.dim}\n", "%.17g,%.17g\n", (flat.real, flat.imag))


def load_operator(path) -> Operator:
    """Read the dump format back, taking only the numerals operator_text
    writes; the Operator decides hermiticity."""
    with open(path, encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty operator dump {path}")
    if not _is_ascii_int(lines[0]):
        raise ValueError(f"operator dump {path} has dimension line {lines[0]!r}, expected an integer")
    dim = int(lines[0])
    if dim < 1:
        raise ValueError(f"operator dump {path} has dimension {dim}, expected at least 1")
    if len(lines) != 1 + dim * dim:
        raise ValueError(f"operator dump {path} has {len(lines) - 1} entries, expected {dim * dim}")
    # Each distinct line is checked once, in file order; a dump repeats few values.
    for ln in dict.fromkeys(lines[1:]):
        if not _DUMP_ENTRY.fullmatch(ln):
            idx = lines.index(ln, 1)
            raise ValueError(f"operator dump {path} entry {idx} is {ln!r}, expected two %.17g numerals")
    # Text-mode fromstring rounds each numeral as float() does, without a
    # Python object per numeral.
    values = np.fromstring(",".join(lines[1:]), sep=",")
    return Operator(values.view(complex).reshape(dim, dim))
