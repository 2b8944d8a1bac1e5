import dataclasses
import re
import tracemalloc
import warnings

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
from evqc.states import SpinSystem, demo_system, pseudopure, pulsed_thermal

HALF = 0.5

# Spin-1/2 angular momentum components (hbar = 1), the factors of the kron
# definition the builders are held to.
HALF_SPIN = {
    "x": 0.5 * np.array([[0, 1], [1, 0]], dtype=complex),
    "y": 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": 0.5 * np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_spin(n, i, axis):
    """I^axis_i as the kron chain 1 x ... x I^axis x ... x 1, spin 1 leftmost."""
    mat = np.eye(1, dtype=complex)
    for pos in range(1, n + 1):
        mat = np.kron(mat, HALF_SPIN[axis] if pos == i else np.eye(2, dtype=complex))
    return mat


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


def test_operator_decides_its_own_hermiticity():
    # No claim is needed: the flag is the detection, not the caller's say.
    assert Operator(np.array([[1.0, 2j], [-2j, 0.0]])).hermitian is True
    assert Operator(np.array([[1.0, 2j], [2j, 0.0]])).hermitian is False
    assert Operator(np.array([[np.nan, 0.0], [0.0, 1.0]])).hermitian is False
    assert Operator(np.eye(2), hermitian=True).hermitian is True


def test_load_operator_detects_hermiticity_once(tmp_path, monkeypatch):
    from evqc import spinops

    calls = []

    def counted(mat):
        calls.append(mat.shape)
        return is_hermitian(mat)

    path = tmp_path / "op.txt"
    path.write_text(operator_text(total_spin(2, "y")), encoding="ascii")
    monkeypatch.setattr(spinops, "is_hermitian", counted)
    assert load_operator(path).hermitian is True
    assert calls == [(4, 4)]


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


@pytest.mark.parametrize("n", range(1, 7))
def test_builders_match_the_kron_definition(n):
    # Bit for bit for the transverse terms; the chain leaves some zeros of
    # Iz as -0.0, so z is held equal in value.
    for axis in "xy":
        total = np.zeros((1 << n, 1 << n), dtype=complex)
        for i in range(1, n + 1):
            ref = kron_spin(n, i, axis)
            assert single_spin(n, i, axis).mat.tobytes() == ref.tobytes()
            total = total + ref
        assert total_spin(n, axis).mat.tobytes() == total.tobytes()
    for i in range(1, n + 1):
        np.testing.assert_array_equal(single_spin(n, i, "z").mat, kron_spin(n, i, "z"))


@pytest.mark.parametrize("n", range(1, 9))
def test_states_match_their_summed_definitions(n, rng):
    # pulsed_thermal is I/N - sum_i (theta/N) omega_i Ix_i and pseudopure is
    # ((1 - alpha/N)/N) I + (alpha/N) W, each summed term by term as written.
    size = 1 << n
    systems = [demo_system(n), SpinSystem(n=n, omega=rng.uniform(1.0, 1e4, n), theta=1e-7)]
    for sys in systems:
        ref = (1.0 / size) * np.eye(size, dtype=complex)
        for i in range(1, n + 1):
            ref = ref - (sys.theta / size) * sys.omega[i - 1] * kron_spin(n, i, "x")
        assert pulsed_thermal(sys).mat.tobytes() == ref.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for alpha in (1.0, 0.5, 1e-3, 0.3, 0.0, -0.0, -0.25, 2.0, float(size), 1e4):
            ref = ((1.0 - alpha / size) / size) * np.eye(size, dtype=complex)
            ref = ref + (alpha / size) * w_projector(n).mat
            assert pseudopure(n, alpha).mat.tobytes() == ref.tobytes()


@pytest.mark.parametrize("build", [
    lambda f: single_spin(13, 1, "x"),
    lambda f: single_spin(13, 1, "z"),
    lambda f: total_spin(13, "y"),
    lambda f: w_projector(13),
    lambda f: oracle(f),
    lambda f: pseudopure(13, 0.5),
], ids=["single_spin_x", "single_spin_z", "total_spin", "w_projector", "oracle", "pseudopure"])
def test_dense_builders_refuse_n13_before_allocating(build):
    f = BoolFunc(13, 0b1011)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"1\.\.12"):
            build(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_empty_operators_are_refused(tmp_path):
    with pytest.raises(ValueError, match="must be square and non-empty"):
        Operator(np.zeros((0, 0)))
    for header, body in (("0", ""), ("-1", "1,0\n")):
        path = tmp_path / f"dim{header}.txt"
        path.write_text(f"{header}\n{body}", encoding="ascii")
        message = re.escape(f"operator dump {path} has dimension {header},")
        with pytest.raises(ValueError, match=message):
            load_operator(path)
