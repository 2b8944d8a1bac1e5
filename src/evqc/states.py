"""Spin systems and the density matrices the protocols run on.

Temperatures enter only through theta = hbar / (k_B T); in the
high-temperature regime theta * omega_i is a small dimensionless number
and every state here keeps only the term linear in it.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from evqc.spinops import (
    Operator,
    _check_register,
    _transverse_sum,
    spin_z_column,
    w_projector,
)

# Past this the linear truncation of exp(-H/kT) is no longer trustworthy.
HIGH_TEMPERATURE_LIMIT = 0.1

TRACE_TOL = 1e-12


def _whole(value, what: str) -> int:
    """An integer field; a fractional or non-numeric value is refused, not truncated."""
    try:
        number = int(value)
        whole = number == value or isinstance(value, str)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{what} needs a whole number, got {value!r}")
    return number


@dataclass(frozen=True)
class SpinSystem:
    """Static description of an n-spin register.

    Parameters
    ----------
    n : int
        Number of spins, 1..12.
    omega : array_like
        Angular precession frequency per spin, all positive, length n.
    theta : float
        hbar / (k_B T) for the sample temperature, positive.
    couplings : sequence of (i, j, J)
        Scalar couplings between spins i < j (1-based); used only by the
        time-domain picture.
    """

    n: int
    omega: np.ndarray
    theta: float
    couplings: tuple[tuple[int, int, float], ...] = field(default=())

    def __post_init__(self) -> None:
        n = _whole(self.n, "n")
        _check_register(n)
        object.__setattr__(self, "n", n)
        omega = np.array(self.omega, dtype=float)
        if omega.shape != (self.n,):
            raise ValueError(f"omega must have shape ({self.n},), got {omega.shape}")
        if not np.all(np.isfinite(omega)) or np.any(omega <= 0):
            raise ValueError("all frequencies must be positive and finite")
        omega.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        if not (np.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"theta must be positive and finite, got {self.theta!r}")
        seen = set()
        normalized = []
        for coupling in self.couplings:
            i, j, strength = coupling
            i = _whole(i, f"coupling {tuple(coupling)!r} index i")
            j = _whole(j, f"coupling {tuple(coupling)!r} index j")
            if not (1 <= i < j <= self.n):
                raise ValueError(f"coupling ({i}, {j}) must satisfy 1 <= i < j <= n")
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling ({i}, {j})")
            seen.add((i, j))
            strength = float(strength)
            if not np.isfinite(strength):
                raise ValueError(f"coupling ({i}, {j}) strength must be finite, got {strength!r}")
            normalized.append((i, j, strength))
        object.__setattr__(self, "couplings", tuple(normalized))
        worst = float(self.theta * omega.max())
        if worst > HIGH_TEMPERATURE_LIMIT:
            warnings.warn(
                f"theta*omega reaches {worst:.3g}; the linearized states are "
                "outside their high-temperature regime",
                stacklevel=2,
            )

    @property
    def size(self) -> int:
        return 1 << self.n


def parse_system(data: dict) -> SpinSystem:
    """Build a SpinSystem from the JSON configuration mapping."""
    try:
        n = data["n"]
        omega = np.asarray(data["omega"], dtype=float)
        theta = float(data["theta"])
    except KeyError as missing:
        raise ValueError(f"spin system config lacks key {missing}") from None
    except (TypeError, OverflowError) as err:
        raise ValueError(f"malformed spin system config: {err}") from None
    try:
        couplings = tuple((i, j, float(strength)) for i, j, strength in data.get("couplings", ()))
    except (TypeError, ValueError):
        raise ValueError(
            f"couplings must be a list of [i, j, J] triples, got {data['couplings']!r}"
        ) from None
    return SpinSystem(n=n, omega=omega, theta=theta, couplings=couplings)


def load_system(path) -> SpinSystem:
    with open(path, encoding="utf-8") as fh:
        return parse_system(json.load(fh))


def system_to_dict(sys: SpinSystem) -> dict:
    out = {"n": sys.n, "omega": [float(w) for w in sys.omega], "theta": sys.theta}
    if sys.couplings:
        out["couplings"] = [[i, j, strength] for i, j, strength in sys.couplings]
    return out


def demo_system(n: int) -> SpinSystem:
    """Deterministic demonstration register with spread-out frequencies."""
    _check_register(n)
    omega = 2.0 * np.pi * np.linspace(400.0, 600.0, n)
    return SpinSystem(n=n, omega=omega, theta=2e-8)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace operator.  Positivity is checked on demand only."""

    op: Operator

    def __post_init__(self) -> None:
        if not self.op.hermitian:
            raise ValueError("density matrix must be hermitian")
        trace = self.op.trace
        if abs(trace.real - 1.0) > TRACE_TOL or abs(trace.imag) > TRACE_TOL:
            raise ValueError(f"density matrix trace {trace} is not 1")

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.mat)[0])

    def is_positive_semidefinite(self, tol: float = 0.0) -> bool:
        return self.min_eigenvalue() >= -tol


def thermal_state(sys: SpinSystem) -> DensityMatrix:
    """Equilibrium state, linear in theta: (1 - theta * sum_i omega_i Iz_i) / N.

    Diagonal, hence invariant under every phase oracle.
    """
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


def pure_w(n: int) -> DensityMatrix:
    """The uniform-superposition projector itself as a state."""
    return DensityMatrix(w_projector(n))


def pulsed_thermal(sys: SpinSystem) -> DensityMatrix:
    """Thermal state after an ideal 90-degree y rotation on every spin.

    Obtained by substituting the transverse component for the longitudinal
    one in the linearized equilibrium state; no pulse propagator is
    simulated because the substitution is exact for the truncated form.
    """
    size = sys.size
    terms = [(i, -(sys.theta / size) * sys.omega[i - 1]) for i in range(1, sys.n + 1)]
    mat = _transverse_sum(sys.n, terms, "x")
    np.fill_diagonal(mat.real, 1.0 / size)
    return DensityMatrix(Operator(mat))
