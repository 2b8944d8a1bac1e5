import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import oracle_conjugated, random_boolfunc, random_density, random_hermitian
from evqc.engine import (
    Decision,
    Resolution,
    b_matrix,
    cn_decide_thermal,
    dj_decide_lifted,
    dj_decide_pseudopure,
    distinguishable,
    expectation,
    projector_readout,
    s_functional,
    satisfiability_gap,
    trace_expectation,
    transverse_readout,
    verdict_record,
)
from evqc.funcspace import (
    BoolFunc,
    FunctionClass,
    canonical_balanced,
    canonical_cn,
    complement,
    constant_one,
    constant_zero,
    enumerate_class,
    imbalance,
    lift,
    sample_cn,
)
from evqc.spinops import Operator, single_spin, spectral_range, total_spin, w_projector
from evqc.states import SpinSystem, demo_system, pseudopure, pulsed_thermal, pure_w


def conjugation_route(m, rho, f):
    """Independent readout: form the conjugated state, then a matrix trace."""
    u = np.diag(f.signs().astype(complex))
    return float(np.trace(m.mat @ (u @ rho.mat @ u.conj().T)).real)


def test_pure_protocol_frozen_values():
    m = w_projector(2)
    rho = pure_w(2)
    assert expectation(m, rho, constant_zero(2)) == 1.0
    assert expectation(m, rho, constant_one(2)) == 1.0
    assert expectation(m, rho, canonical_balanced(2)) == 0.0
    assert expectation(m, rho, BoolFunc(2, 0b0100)) == 0.25
    assert expectation(w_projector(3), pure_w(3), BoolFunc(3, 0b00000100)) == 0.5625


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pure_protocol_square_law(n):
    m = w_projector(n)
    rho = pure_w(n)
    size = 1 << n
    for mask in range(1 << size):
        f = BoolFunc(n, mask)
        predicted = 4.0 * imbalance(f) ** 2 / size**2
        assert abs(expectation(m, rho, f) - predicted) < 1e-10


def test_expectation_matches_conjugation_route(rng):
    for _ in range(200):
        n = int(rng.integers(1, 4))
        dim = 1 << n
        m = random_hermitian(dim, rng)
        rho = random_density(dim, rng)
        f = random_boolfunc(n, rng)
        assert abs(expectation(m, rho, f) - conjugation_route(m, rho, f)) < 1e-10


def test_expectation_rejects_nonhermitian_inputs():
    rho = pure_w(1)
    readouts = {
        "expectation": lambda m: expectation(m, rho, constant_zero(1)),
        "trace_expectation": lambda m: trace_expectation(m, rho),
        "b_matrix": lambda m: b_matrix(rho, m),
    }
    # A NaN entry would read back as a NaN expectation, and the real
    # [[0, 1], [0, 0]] as 0.5 with no imaginary residue to catch it.
    for mat in ([[0.0, 1j], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]):
        m = Operator(np.array(mat))
        assert m.hermitian is False
        for name, readout in readouts.items():
            with pytest.raises(ValueError, match=f"^{name} requires a hermitian operator$"):
                readout(m)


def test_dimension_guards():
    with pytest.raises(ValueError):
        expectation(w_projector(2), pure_w(1), constant_zero(1))
    with pytest.raises(ValueError):
        expectation(w_projector(2), pure_w(2), constant_zero(1))
    with pytest.raises(ValueError):
        s_functional(w_projector(2), constant_zero(3))


def test_b_matrix_pure_entries():
    b = b_matrix(pure_w(2), w_projector(2))
    assert np.all(b.mat == 1.0 / 16)
    assert b.hermitian


def test_s_functional_frozen_small_case():
    b = Operator(np.array([[1.0, 2.0], [2.0, 1.0]]), hermitian=True)
    f = BoolFunc(1, 0b10)
    assert s_functional(b, f) == complex(-2.0)
    assert s_functional(b, constant_zero(1)) == complex(6.0)
    # Pure-state coefficients (every entry 1/16) give (sum_j s_j)**2 / 16:
    # exactly 0 on every balanced function, 1 and 1/4 off it.
    b = b_matrix(pure_w(2), w_projector(2))
    assert all(s_functional(b, g) == 0 for g in enumerate_class(2, FunctionClass.BALANCED_W))
    assert s_functional(b, constant_zero(2)) == 1.0
    assert s_functional(b, BoolFunc(2, 0b0100)) == 0.25


def test_s_functional_complement_exactness(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        b = random_hermitian(1 << n, rng)
        f = random_boolfunc(n, rng)
        assert s_functional(b, f) == s_functional(b, complement(f))


def test_s_functional_sees_symmetric_part_only(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        dim = 1 << n
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        f = random_boolfunc(n, rng)
        full = s_functional(Operator(z), f)
        sym = s_functional(Operator(0.5 * (z + z.T)), f)
        assert abs(full - sym) < 1e-12 * max(1.0, abs(full))


def test_s_functional_linearity(rng):
    n = 2
    dim = 4
    b1 = random_hermitian(dim, rng)
    b2 = random_hermitian(dim, rng)
    f = random_boolfunc(n, rng)
    combo = Operator(2.5 * b1.mat - 0.75 * b2.mat)
    lhs = s_functional(combo, f)
    rhs = 2.5 * s_functional(b1, f) - 0.75 * s_functional(b2, f)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_functional_cross_check_is_live(monkeypatch, rng):
    from evqc import engine

    b = random_hermitian(8, rng)
    f = random_boolfunc(3, rng)
    s_functional(b, f)
    real_fsum = math.fsum
    monkeypatch.setattr(engine.math, "fsum", lambda values: real_fsum(values) + 1.0)
    with pytest.raises(AssertionError, match="the two functional forms disagree"):
        s_functional(b, f)


@pytest.mark.parametrize("dim", range(1, 17))
def test_cross_check_pairs_are_the_strict_upper_triangle(dim):
    rows, cols = np.nonzero(~np.tri(dim, dtype=bool))
    want_rows, want_cols = np.triu_indices(dim, 1)
    for got, want in ((rows, want_rows), (cols, want_cols)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_trace_expectation_frozen():
    assert trace_expectation(w_projector(2), pure_w(2)) == 1.0
    assert trace_expectation(w_projector(2), pseudopure(2, 1.0)) == 7.0 / 16


def test_satisfiability_gap_frozen():
    assert satisfiability_gap(1) == 1.0
    assert satisfiability_gap(2) == 0.75
    assert satisfiability_gap(3) == 0.4375
    with pytest.raises(ValueError):
        satisfiability_gap(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_satisfiability_gap_matches_engine(n):
    m = w_projector(n)
    rho0 = oracle_conjugated(pure_w(n), constant_zero(n))
    rho1 = oracle_conjugated(pure_w(n), BoolFunc(n, 1))
    direct = trace_expectation(m, rho0) - trace_expectation(m, rho1)
    assert abs(direct - satisfiability_gap(n)) < 1e-12


def test_distinguishable_threshold_behaviour():
    m = w_projector(2)
    rho0 = oracle_conjugated(pure_w(2), constant_zero(2))
    rho1 = oracle_conjugated(pure_w(2), BoolFunc(2, 1))
    # gap is exactly 0.75 here
    assert distinguishable(m, rho0, rho1, Resolution(0.5))
    assert not distinguishable(m, rho0, rho1, Resolution(0.8))
    ident = Operator(np.eye(4, dtype=complex), hermitian=True)
    with pytest.raises(ValueError):
        distinguishable(ident, rho0, rho1, Resolution(0.5))


def test_resolution_validation():
    with pytest.raises(ValueError):
        Resolution(0.0)
    with pytest.raises(ValueError):
        Resolution(-0.1)


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_resolution_rejects_non_finite(eps):
    with pytest.raises(ValueError, match="finite"):
        Resolution(eps)


def test_dj_pseudopure_decides_constant():
    v = dj_decide_pseudopure(constant_one(2), 1.0, Resolution(0.1))
    assert v.decided is Decision.NOT_BALANCED
    assert v.expectation == 7.0 / 16
    assert v.gap_reference == 7.0 / 16


def test_dj_pseudopure_decides_balanced():
    v = dj_decide_pseudopure(canonical_balanced(2), 1.0, Resolution(0.1))
    assert v.decided is Decision.NOT_CONSTANT
    assert v.expectation == 3.0 / 16


def test_dj_pseudopure_inconclusive_at_coarse_resolution():
    v = dj_decide_pseudopure(canonical_balanced(2), 1.0, Resolution(0.3))
    assert v.decided is Decision.INCONCLUSIVE


def test_dj_pseudopure_margin_boundary_uses_exact_lambda():
    # The balanced readout sits exactly eps * lambda = 0.25 from the
    # constant reference; a lambda rounded below 1 would wrongly decide.
    v = dj_decide_pseudopure(canonical_balanced(2), 1.0, Resolution(0.25))
    assert v.lam == 1.0
    assert v.decided is Decision.INCONCLUSIVE


def test_dj_pseudopure_outside_promise_is_honest():
    # a single-one function is neither constant nor balanced; the verdict
    # excludes the class whose reference is farther away
    v = dj_decide_pseudopure(BoolFunc(2, 0b0100), 1.0, Resolution(0.1))
    assert v.decided is Decision.NOT_CONSTANT
    assert v.expectation == 0.25


def test_dj_pseudopure_alpha_guard():
    with pytest.raises(ValueError):
        dj_decide_pseudopure(constant_zero(2), 0.0, Resolution(0.1))
    with pytest.raises(ValueError):
        dj_decide_pseudopure(constant_zero(2), 1.2, Resolution(0.1))


def test_cn_thermal_member_reads_zero():
    sys = demo_system(3)
    eps = Resolution(1e-6)
    for seed in range(5):
        f = sample_cn(3, seed)
        v = cn_decide_thermal(f, sys, eps)
        assert v.decided is Decision.NOT_CONSTANT
        assert v.expectation == 0.0


def test_cn_thermal_constant_reads_reference():
    sys = demo_system(3)
    v = cn_decide_thermal(constant_zero(3), sys, Resolution(1e-6))
    assert v.decided is Decision.NOT_IN_CLASS
    predicted = -sys.theta * float(np.sum(sys.omega)) / 4.0
    assert abs(v.expectation - predicted) < 1e-12 * abs(predicted)
    assert v.gap_reference == v.expectation


def test_cn_thermal_inconclusive_at_unit_resolution():
    v = cn_decide_thermal(canonical_cn(2), demo_system(2), Resolution(1.0))
    assert v.decided is Decision.INCONCLUSIVE


def test_cn_thermal_guards():
    with pytest.raises(ValueError):
        cn_decide_thermal(canonical_cn(2), demo_system(3), Resolution(0.1))
    sys1 = demo_system(1)
    with pytest.raises(ValueError):
        cn_decide_thermal(BoolFunc(1, 0b01), sys1, Resolution(0.1))


def test_lifted_balanced_reads_exact_zero():
    sys = demo_system(3)
    v = dj_decide_lifted(canonical_balanced(2), sys, Resolution(1e-6))
    assert v.decided is Decision.NOT_CONSTANT
    assert v.expectation == 0.0


def test_lifted_constants_split_symmetrically():
    sys = demo_system(3)
    eps = Resolution(1e-6)
    ref = sys.theta * sys.omega[0] / 4.0
    v0 = dj_decide_lifted(constant_zero(2), sys, eps)
    v1 = dj_decide_lifted(constant_one(2), sys, eps)
    assert v0.decided is Decision.NOT_BALANCED
    assert v1.decided is Decision.NOT_BALANCED
    assert abs(v0.expectation + ref) < 1e-12 * ref
    assert abs(v1.expectation - ref) < 1e-12 * ref


def test_lifted_size_guard():
    with pytest.raises(ValueError):
        dj_decide_lifted(canonical_balanced(2), demo_system(2), Resolution(0.1))


def test_verdict_record_shape():
    v = dj_decide_pseudopure(constant_zero(2), 0.5, Resolution(0.1))
    rec = verdict_record(v, 2)
    assert rec == {
        "decided": v.decided.value,
        "expectation": v.expectation,
        "gap_reference": v.gap_reference,
        "epsilon": 0.1,
        "lambda": 1.0,
        "n": 2,
    }


def test_dual_routes_agree(rng):
    for _ in range(200):
        n = int(rng.integers(1, 4))
        dim = 1 << n
        m = random_hermitian(dim, rng)
        rho = random_density(dim, rng)
        f = random_boolfunc(n, rng)
        direct = expectation(m, rho, f)
        functional = s_functional(b_matrix(rho, m), f)
        assert abs(functional.imag) < 1e-10
        assert abs(direct - functional.real) < 1e-10


def random_system(n, rng):
    omega = 2.0 * np.pi * rng.uniform(300.0, 700.0, size=n)
    return SpinSystem(n=n, omega=omega, theta=float(rng.uniform(1e-9, 1e-7)))


@pytest.mark.parametrize("n", range(2, 9))
def test_transverse_readout_matches_dense_routes(n, rng):
    # Every spin selection a protocol uses: all spins (C_N) and one spin
    # (lifted, spin 1), here every single spin.
    selections = [(tuple(range(1, n + 1)), total_spin(n, "x"))]
    selections += [((i,), single_spin(n, i, "x")) for i in range(1, n + 1)]
    for _ in range(2):
        sys = random_system(n, rng)
        rho = pulsed_thermal(sys)
        funcs = [random_boolfunc(n, rng), constant_one(n), sample_cn(n, int(rng.integers(1000)))]
        for spins, m in selections:
            b = b_matrix(rho, m)
            scale = sys.theta * float(sum(sys.omega[i - 1] for i in spins)) / 4.0
            for f in funcs:
                e = transverse_readout(sys, f, spins)
                assert abs(e - expectation(m, rho, f)) <= 1e-12 * scale
                assert abs(e - s_functional(b, f).real) <= 1e-12 * scale


@pytest.mark.parametrize("n", range(2, 9))
def test_projector_readout_matches_dense_routes(n, rng):
    m = w_projector(n)
    for alpha in (float(rng.uniform(0.05, 1.0)), 1.0):
        rho = pseudopure(n, alpha)
        b = b_matrix(rho, m)
        for f in (random_boolfunc(n, rng), constant_zero(n), canonical_balanced(n)):
            e = projector_readout(n, alpha, f)
            assert abs(e - expectation(m, rho, f)) <= 1e-12 * abs(e)
            assert abs(e - s_functional(b, f).real) <= 1e-12 * abs(e)


def test_structured_readouts_reject_mismatched_input():
    sys = demo_system(3)
    with pytest.raises(ValueError):
        transverse_readout(sys, constant_zero(2), (1,))
    with pytest.raises(ValueError):
        transverse_readout(sys, constant_zero(3), (4,))
    with pytest.raises(ValueError):
        transverse_readout(sys, constant_zero(3), ())
    with pytest.raises(ValueError):
        projector_readout(3, 1.0, constant_zero(2))


def _is_positive_zero(x):
    return x == 0.0 and math.copysign(1.0, x) == 1.0


@pytest.mark.parametrize("n", range(2, 9))
def test_structured_cancellations_are_positive_zero(n, rng):
    sys = random_system(n, rng)
    for seed in range(3):
        assert _is_positive_zero(transverse_readout(sys, sample_cn(n, seed), range(1, n + 1)))
    ones = rng.permutation(1 << (n - 1))[: 1 << (n - 2)]
    balanced = BoolFunc(n - 1, sum(1 << int(j) for j in ones))
    assert _is_positive_zero(transverse_readout(sys, lift(balanced), (1,)))
    v = cn_decide_thermal(sample_cn(n, 7), sys, Resolution(1e-6))
    assert _is_positive_zero(v.expectation)
    assert json.dumps(verdict_record(v, n)).count('"expectation": 0.0,') == 1


@pytest.mark.parametrize("n", range(2, 11))
def test_protocol_lambda_matches_dense_spectral_range(n):
    sys = demo_system(n)
    eps = Resolution(1e-6)
    cases = [
        (cn_decide_thermal(constant_zero(n), sys, eps), total_spin(n, "x")),
        (dj_decide_lifted(constant_zero(n - 1), sys, eps), single_spin(n, 1, "x")),
        (dj_decide_pseudopure(constant_zero(n), 1.0, eps), w_projector(n)),
    ]
    for v, m in cases:
        assert abs(v.lam - spectral_range(m)) <= 1e-10
        assert verdict_record(v, n)["lambda"] == v.lam
    assert cases[0][0].lam == float(n)
    assert cases[1][0].lam == cases[2][0].lam == 1.0


def test_protocols_reject_past_dense_cap():
    eps = Resolution(1e-6)
    # SpinSystem itself refuses n = 13, so the protocols see a stand-in.
    sys13 = SimpleNamespace(n=13, omega=np.full(13, 2.0 * np.pi * 500.0), theta=2e-8, size=1 << 13)
    with pytest.raises(ValueError, match="outside"):
        dj_decide_pseudopure(constant_zero(13), 1.0, eps)
    with pytest.raises(ValueError, match="outside"):
        cn_decide_thermal(constant_zero(13), sys13, eps)
    with pytest.raises(ValueError, match="outside"):
        dj_decide_lifted(constant_zero(12), sys13, eps)


def test_decide_refuses_non_finite_readout():
    sys = SimpleNamespace(n=2, omega=np.array([1e308, 1e308]), theta=1e10, size=4)
    with pytest.raises(ValueError, match="not finite"):
        cn_decide_thermal(constant_zero(2), sys, Resolution(1e-6))


@pytest.mark.parametrize("protocol", ["pseudopure", "cn-thermal", "lifted"])
def test_classify_builds_no_matrix_without_dump_op(protocol, monkeypatch, capsys, tmp_path):
    from evqc import cli, spinops, states

    def refuse(*args, **kwargs):
        raise AssertionError("a dense operator was built")

    for module in (spinops, states, cli):
        for name in ("single_spin", "total_spin", "w_projector", "spectral_range",
                     "pulsed_thermal", "pseudopure", "thermal_state"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(spinops.Operator, "__post_init__", refuse)
    argv = ["classify", "--protocol", protocol, "--class", "balanced", "--n", "6", "--eps", "1e-6"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["lambda"] in (1.0, 6.0)
    with pytest.raises(AssertionError, match="dense operator"):
        cli.main(argv + ["--dump-op", str(tmp_path / "op.txt")])
