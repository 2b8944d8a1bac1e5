import dataclasses

import numpy as np
import pytest

from conftest import haar_unitary, random_hermitian
from evqc.funcspace import BoolFunc
from evqc.spinops import (
    Operator,
    eig_multiset,
    is_hermitian,
    load_operator,
    operator_text,
    oracle,
    single_spin,
    spectral_range,
    total_spin,
    unitarily_equivalent,
    w_projector,
)

HALF = 0.5


def test_single_spin_one_spin_matrices():
    ix = single_spin(1, 1, "x").mat
    iy = single_spin(1, 1, "y").mat
    iz = single_spin(1, 1, "z").mat
    np.testing.assert_array_equal(ix, [[0, HALF], [HALF, 0]])
    np.testing.assert_array_equal(iy, [[0, -0.5j], [0.5j, 0]])
    np.testing.assert_array_equal(iz, [[HALF, 0], [0, -HALF]])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_single_spin_support_pattern(n, axis):
    # off-diagonal support sits exactly where the argument pair flips spin i alone
    for i in range(1, n + 1):
        op = single_spin(n, i, axis).mat
        flip = 1 << (n - i)
        for l in range(1 << n):
            for m in range(1 << n):
                if l ^ m == flip:
                    assert abs(op[l, m]) == HALF
                else:
                    assert op[l, m] == 0


@pytest.mark.parametrize("n", [2, 3])
def test_single_spin_product_delta(n):
    # sum_{l,m} (Ix_j)_{lm} (Ix_k)_{ml} = (N/4) delta_jk
    size = 1 << n
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            a = single_spin(n, j, "x").mat
            b = single_spin(n, k, "x").mat
            val = np.sum(a * b.T).real
            expected = size / 4 if j == k else 0.0
            assert val == expected


def test_single_spin_validation():
    with pytest.raises(ValueError):
        single_spin(2, 0, "x")
    with pytest.raises(ValueError):
        single_spin(2, 3, "x")
    with pytest.raises(ValueError):
        single_spin(2, 1, "q")


def test_total_spin_frozen_spectrum():
    fx = total_spin(2, "x")
    eigs = eig_multiset(fx)
    np.testing.assert_allclose(eigs, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert fx.trace == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_total_spin_spectral_range_is_n(n):
    assert abs(spectral_range(total_spin(n, "x")) - n) < 1e-10
    assert abs(spectral_range(total_spin(n, "y")) - n) < 1e-10


def test_total_spin_axis_guard():
    with pytest.raises(ValueError):
        total_spin(2, "z")


def test_w_projector_structure():
    w = w_projector(3)
    assert np.all(w.mat == 0.125)
    np.testing.assert_allclose(w.mat @ w.mat, w.mat, atol=1e-15)
    assert abs(w.trace - 1.0) < 1e-15
    eigs = eig_multiset(w)
    np.testing.assert_allclose(eigs[-1], 1.0, atol=1e-12)
    np.testing.assert_allclose(eigs[:-1], 0.0, atol=1e-12)


def test_oracle_diagonal_signs():
    f = BoolFunc(2, 0b0100)
    u = oracle(f)
    np.testing.assert_array_equal(u.mat, np.diag([1, 1, -1, 1]))
    assert u.hermitian
    np.testing.assert_array_equal(u.mat @ u.mat.conj().T, np.eye(4))
    np.testing.assert_array_equal(u.mat @ u.mat, np.eye(4))


def test_projector_rank_vs_traceless_conjugate(rng):
    # a trace-0 observable can never be a unitary conjugate of a projector
    fx = total_spin(3, "x")
    for _ in range(5):
        u = haar_unitary(8, rng)
        conj = u @ fx.mat @ u.conj().T
        assert abs(np.trace(conj)) < 1e-10
    assert not unitarily_equivalent(fx, w_projector(3))


def test_unitary_equivalence():
    assert unitarily_equivalent(total_spin(2, "x"), total_spin(2, "y"))
    assert not unitarily_equivalent(total_spin(2, "x"), single_spin(2, 1, "x"))
    with pytest.raises(ValueError):
        unitarily_equivalent(total_spin(2, "x"), total_spin(3, "x"))


@pytest.mark.parametrize("m", [total_spin(3, "x"), w_projector(2), single_spin(2, 2, "y")])
def test_eig_multiset_is_a_read_only_ascending_vector(m):
    values = eig_multiset(m)
    assert isinstance(values, np.ndarray) and values.dtype == float
    assert values.shape == (m.dim,)
    assert np.all(np.diff(values) >= 0)
    with pytest.raises(ValueError):
        values[0] = 5.0


def test_eig_multiset_requires_hermitian():
    m = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eig_multiset(m)


def test_spectral_range_single_spin():
    for axis in "xyz":
        assert abs(spectral_range(single_spin(2, 1, axis)) - 1.0) < 1e-12


def test_operator_flag_verification():
    with pytest.raises(ValueError):
        Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)
    with pytest.raises(ValueError):
        Operator(np.ones((2, 3)))
    # hermitian is the one flag; a diagonal or unitary matrix is read from .mat
    assert [f.name for f in dataclasses.fields(Operator)] == ["mat", "hermitian"]


def test_operator_is_immutable():
    op = single_spin(1, 1, "x")
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


def test_dump_load_roundtrip(tmp_path, rng):
    m = random_hermitian(8, rng, scale=3.0)
    path = tmp_path / "op.txt"
    path.write_text(operator_text(m), encoding="ascii")
    back = load_operator(path)
    np.testing.assert_array_equal(back.mat, m.mat)
    assert back.hermitian


def test_load_detects_diagonal(tmp_path):
    # The dump keeps a diagonal matrix exactly diagonal; only hermiticity is
    # re-detected as a flag.
    path = tmp_path / "diag.txt"
    path.write_text(operator_text(oracle(BoolFunc(1, 0b10))), encoding="ascii")
    back = load_operator(path)
    np.testing.assert_array_equal(back.mat, np.diag([1, -1]))
    assert back.hermitian


def test_is_hermitian_tolerance_scales_with_largest_entry():
    for big in (1.0, 1e6):
        base = np.array([[big, 1.0], [1.0, 0.0]], dtype=complex)
        inside = base.copy()
        inside[0, 1] += 0.5e-10 * big
        outside = base.copy()
        outside[0, 1] += 2e-10 * big
        assert is_hermitian(base)
        assert is_hermitian(inside)
        assert not is_hermitian(outside)
    assert not is_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_every_hermiticity_check_keeps_its_message(tmp_path):
    from evqc.measstruct import decompose_invariant
    from evqc.states import DensityMatrix

    skew = np.array([[0.5, 1e-6], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="hermitian flag set on a non-hermitian matrix"):
        Operator(skew, hermitian=True)
    with pytest.raises(ValueError, match="eig_multiset requires a hermitian operator"):
        eig_multiset(Operator(skew))
    with pytest.raises(ValueError, match="density matrix must be hermitian"):
        DensityMatrix(Operator(skew))
    with pytest.raises(ValueError, match="decompose_invariant requires a hermitian operator"):
        decompose_invariant(Operator(skew))
    path = tmp_path / "skew.txt"
    path.write_text(operator_text(Operator(skew)), encoding="ascii")
    assert not load_operator(path).hermitian
