"""Shared randomized builders for the test suite."""

import numpy as np
import pytest

from evqc.funcspace import BoolFunc
from evqc.spinops import Operator
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
