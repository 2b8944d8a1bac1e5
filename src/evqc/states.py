"""Spin systems and the density matrices the protocols run on.

Temperatures enter only through theta = hbar / (k_B T); in the
high-temperature regime theta * omega_i is a small dimensionless number
and every state here keeps only the term linear in it.  The protocols
read the thermal and pseudopure states without building them.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from evqc.funcspace import _check_width, _is_ascii_int
from evqc.spinops import (
    Operator,
    _check_register,
    _transverse_sum,
    w_projector,
)

# Past this the linear truncation of exp(-H/kT) is no longer trustworthy.
HIGH_TEMPERATURE_LIMIT = 0.1

TRACE_TOL = 1e-12


# A float field's text: an ASCII decimal numeral, or inf or nan for the
# range checks to refuse.  float() alone would also take "_", spaces and
# non-ASCII digits.
_NUMERAL = re.compile(r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)", re.I)


def _is_ascii_float(text: str) -> bool:
    """Whether text spells a float as _NUMERAL does, in ASCII only."""
    return text.isascii() and _NUMERAL.fullmatch(text) is not None


# JSON true and false load as Python bools, which int() and float() take
# as 1 and 0; no field reads them.
_BOOLS = (bool, np.bool_)


def _whole(value, what: str) -> int:
    """An integer field; a fractional, boolean or non-numeric value is
    refused, not truncated, and text must be an ASCII integer numeral."""
    try:
        number = int(value)
        whole = number == value or (isinstance(value, str) and _is_ascii_int(value))
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or isinstance(value, _BOOLS):
        raise ValueError(f"{what} needs a whole number, got {value!r}")
    return number


def _numeral(value, what: str, *args):
    """value itself, or the float its text spells if it is a string; a
    boolean, or text other than an ASCII numeral, is refused, naming the
    field what.format(*args)."""
    if isinstance(value, _BOOLS) or (isinstance(value, str) and not _is_ascii_float(value)):
        raise ValueError(f"{what.format(*args)} needs a number, got {value!r}")
    return float(value) if isinstance(value, str) else value


def _malformed_couplings(couplings) -> ValueError:
    return ValueError(f"couplings must be a list of [i, j, J] triples, got {couplings!r}")


@dataclass(frozen=True)
class SpinSystem:
    """Static description of an n-spin register.

    Parameters
    ----------
    n : int
        Number of spins, 1..22.
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
        _check_width(n)
        object.__setattr__(self, "n", n)
        omega = self.omega
        if isinstance(omega, (list, tuple)):
            omega = [_numeral(w, "omega[{}]", k) for k, w in enumerate(omega)]
        try:
            omega = np.array(_numeral(omega, "omega"), dtype=float)
            theta = float(_numeral(self.theta, "theta"))
        except (TypeError, OverflowError) as err:
            raise ValueError(f"malformed spin system config: {err}") from None
        if omega.shape != (n,):
            raise ValueError(f"omega must have shape ({n},), got {omega.shape}")
        if not np.all(np.isfinite(omega)) or np.any(omega <= 0):
            raise ValueError("all frequencies must be positive and finite")
        omega.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        if not (np.isfinite(theta) and theta > 0):
            raise ValueError(f"theta must be positive and finite, got {theta!r}")
        object.__setattr__(self, "theta", theta)
        try:
            triples = [(i, j, strength) for i, j, strength in self.couplings]
        except (TypeError, ValueError):
            raise _malformed_couplings(self.couplings) from None
        try:
            couplings = [(i, j, float(_numeral(strength, "coupling ({!r}, {!r}) strength", i, j)))
                         for i, j, strength in triples]
        except (TypeError, OverflowError):
            raise _malformed_couplings(self.couplings) from None
        seen = set()
        normalized = []
        for coupling in couplings:
            i, j, strength = coupling
            i = _whole(i, f"coupling {coupling!r} index i")
            j = _whole(j, f"coupling {coupling!r} index j")
            if not (1 <= i < j <= n):
                raise ValueError(f"coupling ({i}, {j}) must satisfy 1 <= i < j <= n")
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling ({i}, {j})")
            seen.add((i, j))
            if not np.isfinite(strength):
                raise ValueError(f"coupling ({i}, {j}) strength must be finite, got {strength!r}")
            normalized.append((i, j, strength))
        object.__setattr__(self, "couplings", tuple(normalized))
        worst = float(theta * omega.max())
        if worst > HIGH_TEMPERATURE_LIMIT:
            warnings.warn(
                f"theta*omega reaches {worst:.3g}; the linearized states are "
                "outside their high-temperature regime",
                stacklevel=3,
            )

    @property
    def size(self) -> int:
        return 1 << self.n


def parse_system(data: dict) -> SpinSystem:
    """Build a SpinSystem from the JSON configuration mapping."""
    try:
        n, omega, theta = data["n"], data["omega"], data["theta"]
    except KeyError as missing:
        raise ValueError(f"spin system config lacks key {missing}") from None
    except TypeError as err:
        raise ValueError(f"malformed spin system config: {err}") from None
    return SpinSystem(n=n, omega=omega, theta=theta, couplings=data.get("couplings", ()))


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
    _check_width(n)
    omega = 2.0 * np.pi * np.linspace(400.0, 600.0, n)
    return SpinSystem(n=n, omega=omega, theta=2e-8)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace operator.  Positivity is not checked."""

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


def pure_w(n: int) -> DensityMatrix:
    """The uniform-superposition projector itself as a state."""
    return DensityMatrix(w_projector(n))


def pulsed_thermal(sys: SpinSystem) -> DensityMatrix:
    """Thermal state after an ideal 90-degree y rotation on every spin.

    Obtained by substituting the transverse component for the longitudinal
    one in the linearized equilibrium state; no pulse propagator is
    simulated because the substitution is exact for the truncated form.
    """
    _check_register(sys.n)
    size = sys.size
    terms = [(i, -(sys.theta / size) * sys.omega[i - 1]) for i in range(1, sys.n + 1)]
    mat = _transverse_sum(sys.n, terms, "x")
    np.fill_diagonal(mat.real, 1.0 / size)
    return DensityMatrix(Operator(mat))
