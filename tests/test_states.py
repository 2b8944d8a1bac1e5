import json
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle, pseudopure, thermal_state
from evqc.funcspace import BoolFunc
from evqc.spinops import Operator
from evqc.states import (
    DensityMatrix,
    SpinSystem,
    demo_system,
    load_system,
    parse_system,
    pulsed_thermal,
    pure_w,
    system_to_dict,
)

THETA = 2e-8


def make_system(n, couplings=()):
    omega = 2.0 * np.pi * (400.0 + 37.0 * np.arange(n))
    return SpinSystem(n=n, omega=omega, theta=THETA, couplings=couplings)


def brute_thermal_diag(sys):
    """Each basis state weighted by its spin-up/down pattern, built bit by bit."""
    size = 1 << sys.n
    diag = np.empty(size)
    for idx in range(size):
        acc = 1.0
        for i in range(1, sys.n + 1):
            up = ((idx >> (sys.n - i)) & 1) == 0
            acc -= sys.theta * sys.omega[i - 1] * (0.5 if up else -0.5)
        diag[idx] = acc / size
    return diag


def test_spin_system_validation():
    with pytest.raises(ValueError):
        SpinSystem(n=0, omega=np.array([]), theta=THETA)
    with pytest.raises(ValueError, match=r"^n=23 outside 1\.\.22, .*spin counts"):
        SpinSystem(n=23, omega=np.ones(23), theta=THETA)
    with pytest.raises(ValueError):
        SpinSystem(n=2, omega=np.array([1.0]), theta=THETA)
    with pytest.raises(ValueError):
        SpinSystem(n=1, omega=np.array([-5.0]), theta=THETA)
    with pytest.raises(ValueError):
        SpinSystem(n=1, omega=np.array([5.0]), theta=0.0)
    with pytest.raises(ValueError):
        SpinSystem(n=2, omega=np.array([5.0, 6.0]), theta=THETA, couplings=((2, 1, 3.0),))
    with pytest.raises(ValueError):
        SpinSystem(
            n=2, omega=np.array([5.0, 6.0]), theta=THETA,
            couplings=((1, 2, 3.0), (1, 2, 4.0)),
        )
    for strength in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=r"^coupling \(1, 2\) strength must be finite"):
            SpinSystem(n=2, omega=np.array([5.0, 6.0]), theta=THETA, couplings=((1, 2, strength),))


@pytest.mark.parametrize("data, message", [
    ({"n": 2.7, "omega": [5.0, 6.0], "theta": THETA}, "n needs a whole number, got 2.7"),
    ({"n": float("nan"), "omega": [5.0, 6.0], "theta": THETA}, "n needs a whole number, got nan"),
    ({"n": 2, "omega": [5.0, 6.0], "theta": THETA, "couplings": [[1, 2.5, 3.0]]},
     "coupling (1, 2.5, 3.0) index j needs a whole number, got 2.5"),
    ({"n": 2, "omega": [5.0, 6.0], "theta": THETA, "couplings": [[1.5, 2, 3.0]]},
     "coupling (1.5, 2, 3.0) index i needs a whole number, got 1.5"),
    ({"n": 2, "omega": [5.0, 6.0], "theta": THETA, "couplings": [[1, None, 5.0]]},
     "coupling (1, None, 5.0) index j needs a whole number, got None"),
    ({"n": 2, "omega": [5.0, 6.0], "theta": THETA, "couplings": [["a", 2, 1]]},
     "coupling ('a', 2, 1.0) index i needs a whole number, got 'a'"),
    ({"n": 2, "omega": [5.0, 6.0], "theta": THETA, "couplings": [[1, 2, None]]},
     "couplings must be a list of [i, j, J] triples, got [[1, 2, None]]"),
    ({"n": "２", "omega": ["１e3", " 2e3 "], "theta": "2e-8", "couplings": [["1", "2", "5_0"]]},
     "n needs a whole number, got '２'"),
    ({"n": " 2", "omega": [5.0, 6.0], "theta": THETA}, "n needs a whole number, got ' 2'"),
    ({"n": "+2", "omega": [5.0, 6.0], "theta": THETA}, "n needs a whole number, got '+2'"),
    ({"n": 2, "omega": ["１e3", "2e3"], "theta": THETA}, "omega[0] needs a number, got '１e3'"),
    ({"n": 2, "omega": ["1e3", " 2e3 "], "theta": THETA}, "omega[1] needs a number, got ' 2e3 '"),
    ({"n": 2, "omega": [5.0, 6.0], "theta": "2_0e-9"}, "theta needs a number, got '2_0e-9'"),
    ({"n": 2, "omega": [5.0, 6.0], "theta": THETA, "couplings": [["1", "2", "5_0"]]},
     "coupling ('1', '2') strength needs a number, got '5_0'"),
    ({"n": 2, "omega": [5.0, 6.0], "theta": THETA, "couplings": [["１", "2", "50"]]},
     "coupling ('１', '2', 50.0) index i needs a whole number, got '１'"),
])
def test_parse_system_refuses_to_truncate(data, message):
    with pytest.raises(ValueError) as err:
        parse_system(data)
    assert str(err.value) == message


def test_spin_system_refuses_to_truncate():
    omega = np.array([5.0, 6.0])
    with pytest.raises(ValueError, match=r"^n needs a whole number, got 2\.7$"):
        SpinSystem(n=2.7, omega=omega, theta=THETA)
    with pytest.raises(ValueError, match=r"^coupling \(1, 2\.5, 3\.0\) index j needs"):
        SpinSystem(n=2, omega=omega, theta=THETA, couplings=((1, 2.5, 3.0),))
    sys = SpinSystem(n=2.0, omega=omega, theta=THETA, couplings=((1.0, np.int64(2), 3),))
    assert type(sys.n) is int and sys.n == 2
    assert sys.couplings == ((1, 2, 3.0),)
    assert all(type(k) is int for k in sys.couplings[0][:2])


@pytest.mark.parametrize("flag", [np.True_, np.False_])
def test_spin_system_refuses_numpy_booleans(flag):
    omega = np.array([5.0, 6.0])
    with pytest.raises(ValueError, match=r"^n needs a whole number, got "):
        SpinSystem(n=flag, omega=np.array([5.0]), theta=THETA)
    with pytest.raises(ValueError, match=r"^omega\[1\] needs a number, got "):
        SpinSystem(n=2, omega=[5.0, flag], theta=THETA)
    with pytest.raises(ValueError, match=r"^theta needs a number, got "):
        SpinSystem(n=2, omega=omega, theta=flag)
    with pytest.raises(ValueError, match=r"^coupling \(.*\) index i needs a whole number, got "):
        SpinSystem(n=2, omega=omega, theta=THETA, couplings=((flag, 2, 3.0),))
    with pytest.raises(ValueError, match=r"^coupling \(1, 2\) strength needs a number, got "):
        SpinSystem(n=2, omega=omega, theta=THETA, couplings=((1, 2, flag),))


def test_parse_system_takes_integral_floats():
    sys = parse_system({"n": 2.0, "omega": [5.0, 6.0], "theta": THETA,
                        "couplings": [[1.0, 2.0, 3]]})
    assert sys.n == 2 and type(sys.n) is int
    assert sys.couplings == ((1, 2, 3.0),)
    assert system_to_dict(sys)["n"] == 2


@pytest.mark.parametrize("fields, message", [
    ({"theta": "x"}, "theta needs a number, got 'x'"),
    ({"omega": ["x", 2e3]}, "omega[0] needs a number, got 'x'"),
    ({"omega": [1e3, "2e3x"]}, "omega[1] needs a number, got '2e3x'"),
    ({"couplings": [(1, 2, "x")]}, "coupling (1, 2) strength needs a number, got 'x'"),
    ({"theta": [1e-8]}, "malformed spin system config: "),
    ({"omega": {"a": 1}}, "malformed spin system config: "),
    ({"omega": [1e3, 10**400]}, "malformed spin system config: "),
    ({"couplings": [5]}, "couplings must be a list of [i, j, J] triples, got [5]"),
    ({"couplings": [(1, 2)]}, "couplings must be a list of [i, j, J] triples, got [(1, 2)]"),
    ({"couplings": [(1, 2, 10**400)]}, "couplings must be a list of [i, j, J] triples, got "),
], ids=["theta-text", "omega-text", "omega-text-1", "strength-text", "theta-list", "omega-dict",
        "omega-overflow", "coupling-int", "coupling-pair", "strength-overflow"])
def test_spin_system_refuses_malformed_fields_with_value_error(fields, message):
    with pytest.raises(ValueError) as err:
        SpinSystem(**{"n": 2, "omega": [1e3, 2e3], "theta": THETA, **fields})
    assert str(err.value).startswith(message)


def test_parse_system_reads_ascii_numeral_text():
    sys = parse_system({"n": "2", "omega": ["1e3", "2E3"], "theta": "2e-8", "couplings": [["1", "2", "50"]]})
    assert sys.n == 2 and sys.theta == 2e-8 and sys.couplings == ((1, 2, 50.0),)
    np.testing.assert_array_equal(sys.omega, [1e3, 2e3])


def test_spin_system_converts_theta_and_strengths():
    sys = SpinSystem(n=2, omega=[1e3, 2e3], theta=np.float64(2e-8), couplings=[[1, 2, np.int64(5)]])
    assert sys.theta == 2e-8 and type(sys.theta) is float
    assert sys.couplings == ((1, 2, 5.0),)
    np.testing.assert_array_equal(sys.omega, [1e3, 2e3])


def test_spin_system_warns_outside_regime():
    with pytest.warns(UserWarning):
        SpinSystem(n=1, omega=np.array([5.0]), theta=1.0)


def test_high_temperature_warning_names_the_caller():
    with pytest.warns(UserWarning) as caught:
        SpinSystem(n=1, omega=np.array([5.0]), theta=1.0)
    # The code object's own filename, not __file__: bytecode compiled in
    # another checkout keeps that checkout's path.
    here = test_high_temperature_warning_names_the_caller.__code__.co_filename
    assert [w.filename for w in caught] == [here]
    with pytest.warns(UserWarning) as caught:
        parse_system({"n": 1, "omega": [5.0], "theta": 1.0})
    (w,) = caught
    assert "SpinSystem(" in Path(w.filename).read_text(encoding="utf-8").splitlines()[w.lineno - 1]


def test_system_json_roundtrip(tmp_path):
    sys = make_system(3, couplings=((1, 2, 5.0), (2, 3, 7.5)))
    data = system_to_dict(sys)
    back = parse_system(json.loads(json.dumps(data)))
    assert back.n == sys.n
    np.testing.assert_array_equal(back.omega, sys.omega)
    assert back.couplings == sys.couplings
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(data))
    assert load_system(path).couplings == sys.couplings
    with pytest.raises(ValueError):
        parse_system({"n": 2, "theta": THETA})


def test_demo_system_profile():
    sys = demo_system(4)
    assert sys.n == 4
    assert sys.theta == THETA
    assert abs(sys.omega[0] - 2 * np.pi * 400.0) < 1e-9
    assert abs(sys.omega[-1] - 2 * np.pi * 600.0) < 1e-9
    assert np.all(np.diff(sys.omega) > 0)
    assert float(sys.theta * sys.omega.max()) < 0.1


def test_thermal_single_spin_frozen():
    sys = SpinSystem(n=1, omega=np.array([5e5]), theta=2e-8)
    rho = thermal_state(sys)
    np.testing.assert_allclose(np.diag(rho.mat).real, [0.4975, 0.5025], atol=1e-15)
    assert np.abs(rho.mat - np.diag(np.diag(rho.mat))).max() == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_thermal_matches_bitwise_construction(n):
    sys = make_system(n)
    rho = thermal_state(sys)
    np.testing.assert_allclose(np.diag(rho.mat).real, brute_thermal_diag(sys), atol=1e-16)
    assert abs(np.trace(rho.mat) - 1.0) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_thermal_is_oracle_invariant(n):
    sys = make_system(n)
    rho = thermal_state(sys)
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = BoolFunc(n, int(rng.integers(0, 1 << (1 << n))))
        u = oracle(f).mat
        np.testing.assert_array_equal(u @ rho.mat @ u.conj().T, rho.mat)


def test_pseudopure_structure():
    rho = pseudopure(2, 1.0)
    off = 1.0 / 16
    on = 3.0 / 16 + off
    expected = np.full((4, 4), off)
    np.fill_diagonal(expected, on)
    np.testing.assert_allclose(rho.mat.real, expected, atol=1e-16)
    assert abs(np.trace(rho.mat) - 1.0) < 1e-14
    assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-14


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0])
def test_pseudopure_spectrum(alpha):
    n = 3
    size = 8
    rho = pseudopure(n, alpha)
    eigs = np.linalg.eigvalsh(rho.mat)
    base = (1.0 - alpha / size) / size
    np.testing.assert_allclose(eigs[:-1], base, atol=1e-14)
    np.testing.assert_allclose(eigs[-1], base + alpha / size, atol=1e-14)


def test_pseudopure_warns_outside_physical_range():
    with pytest.warns(UserWarning):
        pseudopure(2, 1.5)
    with pytest.warns(UserWarning):
        pseudopure(2, 0.0)


def test_pure_w_is_full_weight_limit():
    n = 2
    rho = pure_w(n)
    with pytest.warns(UserWarning):
        limit = pseudopure(n, float(1 << n))
    np.testing.assert_allclose(rho.mat, limit.mat, atol=1e-15)
    assert np.all(rho.mat == 0.25)


def test_pulsed_single_spin_frozen():
    sys = SpinSystem(n=1, omega=np.array([5e5]), theta=2e-8)
    rho = pulsed_thermal(sys)
    np.testing.assert_allclose(
        rho.mat.real, [[0.5, -0.0025], [-0.0025, 0.5]], atol=1e-17
    )
    assert np.abs(rho.mat.imag).max() == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pulsed_equals_rotated_thermal(n):
    # independent route: conjugate the equilibrium state by an exact
    # 90-degree y pulse on every spin, exp(-i pi/2 Iy) = [[1,-1],[1,1]]/sqrt(2)
    sys = make_system(n)
    single = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    pulse = np.eye(1)
    for _ in range(n):
        pulse = np.kron(pulse, single)
    rotated = pulse @ thermal_state(sys).mat @ pulse.T
    np.testing.assert_allclose(pulsed_thermal(sys).mat, rotated, atol=1e-15)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(Operator(np.eye(2, dtype=complex)))
    with pytest.raises(ValueError):
        DensityMatrix(Operator(np.array([[0.5, 0.5], [0.0, 0.5]])))
    bad = np.array([[1.2, 0.0], [0.0, -0.2]])
    rho = DensityMatrix(Operator(bad, hermitian=True))
    assert np.linalg.eigvalsh(rho.mat)[0] < 0
