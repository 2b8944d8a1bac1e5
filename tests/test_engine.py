import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    distinguishable,
    oracle_conjugated,
    pseudopure,
    random_boolfunc,
    random_density,
    random_hermitian,
    satisfiability_gap,
    spectral_range,
)
from evqc.engine import (
    Decision,
    Resolution,
    b_matrix,
    cn_decide_thermal,
    dj_decide_lifted,
    dj_decide_pseudopure,
    expectations,
    projector_readout,
    s_functionals,
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
from evqc.spinops import Operator, single_spin, total_spin, w_projector
from evqc.states import SpinSystem, demo_system, pulsed_thermal, pure_w


def conjugation_route(m, rho, f):
    """Independent readout: form the conjugated state, then a matrix trace."""
    u = np.diag(f.signs().astype(complex))
    return float(np.trace(m.mat @ (u @ rho.mat @ u.conj().T)).real)


def test_pure_protocol_frozen_values():
    m = w_projector(2)
    rho = pure_w(2)
    assert expectations(m, rho, [constant_zero(2)])[0] == 1.0
    assert expectations(m, rho, [constant_one(2)])[0] == 1.0
    assert expectations(m, rho, [canonical_balanced(2)])[0] == 0.0
    assert expectations(m, rho, [BoolFunc(2, 0b0100)])[0] == 0.25
    assert expectations(w_projector(3), pure_w(3), [BoolFunc(3, 0b00000100)])[0] == 0.5625


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pure_protocol_square_law(n):
    m = w_projector(n)
    rho = pure_w(n)
    size = 1 << n
    for mask in range(1 << size):
        f = BoolFunc(n, mask)
        predicted = 4.0 * imbalance(f) ** 2 / size**2
        assert abs(expectations(m, rho, [f])[0] - predicted) < 1e-10


def test_expectation_matches_conjugation_route(rng):
    for _ in range(200):
        n = int(rng.integers(1, 4))
        dim = 1 << n
        m = random_hermitian(dim, rng)
        rho = random_density(dim, rng)
        f = random_boolfunc(n, rng)
        assert abs(expectations(m, rho, [f])[0] - conjugation_route(m, rho, f)) < 1e-10


def test_expectation_rejects_nonhermitian_inputs():
    rho = pure_w(1)
    readouts = {
        "expectation": lambda m: expectations(m, rho, [constant_zero(1)])[0],
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
        expectations(w_projector(2), pure_w(1), [constant_zero(1)])[0]
    with pytest.raises(ValueError):
        expectations(w_projector(2), pure_w(2), [constant_zero(1)])[0]
    with pytest.raises(ValueError):
        s_functionals(w_projector(2), [constant_zero(3)])[0]


def test_b_matrix_pure_entries():
    b = b_matrix(pure_w(2), w_projector(2))
    assert np.all(b.mat == 1.0 / 16)
    assert b.hermitian


def test_s_functional_frozen_small_case():
    b = Operator(np.array([[1.0, 2.0], [2.0, 1.0]]), hermitian=True)
    f = BoolFunc(1, 0b10)
    assert s_functionals(b, [f])[0] == complex(-2.0)
    assert s_functionals(b, [constant_zero(1)])[0] == complex(6.0)
    # Pure-state coefficients (every entry 1/16) give (sum_j s_j)**2 / 16:
    # exactly 0 on every balanced function, 1 and 1/4 off it.
    b = b_matrix(pure_w(2), w_projector(2))
    assert all(s_functionals(b, [g])[0] == 0 for g in enumerate_class(2, FunctionClass.BALANCED_W))
    assert s_functionals(b, [constant_zero(2)])[0] == 1.0
    assert s_functionals(b, [BoolFunc(2, 0b0100)])[0] == 0.25


def test_s_functional_complement_exactness(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        b = random_hermitian(1 << n, rng)
        f = random_boolfunc(n, rng)
        assert s_functionals(b, [f])[0] == s_functionals(b, [complement(f)])[0]


def test_s_functional_sees_symmetric_part_only(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        dim = 1 << n
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        f = random_boolfunc(n, rng)
        full = s_functionals(Operator(z), [f])[0]
        sym = s_functionals(Operator(0.5 * (z + z.T)), [f])[0]
        assert abs(full - sym) < 1e-12 * max(1.0, abs(full))


def test_s_functional_linearity(rng):
    n = 2
    dim = 4
    b1 = random_hermitian(dim, rng)
    b2 = random_hermitian(dim, rng)
    f = random_boolfunc(n, rng)
    combo = Operator(2.5 * b1.mat - 0.75 * b2.mat)
    lhs = s_functionals(combo, [f])[0]
    rhs = 2.5 * s_functionals(b1, [f])[0] - 0.75 * s_functionals(b2, [f])[0]
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def two_form_functionals(b, fs):
    """sum_jk (-1)^(f(j)+f(k)) B_jk for each f of fs as the trace plus the
    symmetrised strict upper triangle: a second form of `s_functionals`,
    kept here as a test oracle only."""
    s = np.array([f.signs() for f in fs])
    rows, cols = np.triu_indices(b.dim, 1)
    return (np.trace(b.mat) + (s[:, rows] * s[:, cols]) @ (b.mat + b.mat.T)[rows, cols]).tolist()


def assert_functional_forms_agree(b, fs):
    tol = 1e-9 * max(1.0, float(np.abs(b.mat).sum()))
    for f, value, other in zip(fs, s_functionals(b, fs), two_form_functionals(b, fs)):
        assert abs(other - value) <= tol, (f, value, other)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_functional_forms_agree_on_every_function_of_the_pure_protocol(n):
    fs = [BoolFunc(n, mask) for mask in range(1 << (1 << n))]
    assert_functional_forms_agree(b_matrix(pure_w(n), w_projector(n)), fs)


@pytest.mark.parametrize("n", [2, 3])
def test_functional_forms_agree_on_every_cn_member_of_the_survey(n):
    # The coefficients `survey --mode cn` forms on the demo system.
    b = b_matrix(pulsed_thermal(demo_system(n)), total_spin(n, "x"))
    assert_functional_forms_agree(b, list(enumerate_class(n, FunctionClass.CLASS_CN)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_functional_forms_agree_on_random_hermitian_coefficients(n, rng):
    for _ in range(8):
        assert_functional_forms_agree(random_hermitian(1 << n, rng),
                                      [random_boolfunc(n, rng) for _ in range(4)])


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
        direct = expectations(m, rho, [f])[0]
        functional = s_functionals(b_matrix(rho, m), [f])[0]
        assert abs(functional.imag) < 1e-10
        assert abs(direct - functional.real) < 1e-10


def batch_functions(n, rng):
    """Random functions, both constants and every balanced function."""
    fs = [random_boolfunc(n, rng) for _ in range(20)]
    return fs + [constant_zero(n), constant_one(n), *enumerate_class(n, FunctionClass.BALANCED_W)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_routes_equal_single_calls(n, rng):
    dim = 1 << n
    for _ in range(5):
        m = random_hermitian(dim, rng)
        rho = random_density(dim, rng)
        b = b_matrix(rho, m)
        fs = batch_functions(n, rng)
        # The functional route keeps one exactly rounded sum per function.
        assert s_functionals(b, fs) == [s_functionals(b, [f])[0] for f in fs]
        scale = float(np.abs(b.mat).sum())
        direct = expectations(m, rho, fs)
        assert len(direct) == len(fs) and all(type(e) is float for e in direct)
        for e, f in zip(direct, fs):
            assert abs(e - expectations(m, rho, [f])[0]) <= 1e-12 * scale
            assert abs(e - conjugation_route(m, rho, f)) <= 1e-12 * scale
    assert expectations(m, rho, []) == [] and s_functionals(b, []) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_routes_are_exact_on_the_pure_protocol(n):
    m, rho = w_projector(n), pure_w(n)
    balanced = list(enumerate_class(n, FunctionClass.BALANCED_W))
    fs = [constant_zero(n), constant_one(n), *balanced]
    want = [1.0, 1.0] + [0.0] * len(balanced)
    for values in (expectations(m, rho, fs), [v.real for v in s_functionals(b_matrix(rho, m), fs)]):
        assert values == want
        assert all(math.copysign(1.0, v) == 1.0 for v in values)


def test_batch_routes_refuse_a_function_of_the_wrong_width():
    fs = [constant_zero(2), canonical_balanced(3)]
    with pytest.raises(ValueError, match="^function domain 8 does not match operator dimension 4$"):
        expectations(w_projector(2), pure_w(2), fs)
    with pytest.raises(ValueError, match="^function domain 8 does not match matrix dimension 4$"):
        s_functionals(b_matrix(pure_w(2), w_projector(2)), fs)


def test_batch_route_refuses_nonhermitian_measurement_before_any_arithmetic():
    class Untouchable:
        size = dim = 2

        def __getattr__(self, name):
            raise AssertionError(f"{name} was read")

    m = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="^expectation requires a hermitian operator$"):
        expectations(m, Untouchable(), [Untouchable(), Untouchable()])


def test_imaginary_residue_rule_covers_the_whole_batch():
    from evqc.engine import _as_real

    assert _as_real(np.array([1.0 + 0j, 1e6 + 1e-5j]), "expectation") == [1.0, 1e6]
    with pytest.raises(ValueError, match="^expectation has imaginary residue 0.001; inputs are not hermitian$"):
        _as_real(np.array([1.0 + 0j, 2.0 + 1e-3j, 3.0 + 1.0j]), "expectation")


@pytest.mark.parametrize("mode", ["dj", "cn"])
def test_survey_weighs_once_per_class(mode, monkeypatch, tmp_path):
    from evqc import cli, engine

    calls = {"_weights": 0, "expectations": 0, "s_functionals": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    rc = cli.main(["survey", "--mode", mode, "--n", "3", "--out", str(tmp_path / "s.csv")])
    rows = (tmp_path / "s.csv").read_text().count("\n") - 1
    assert rc == 0 and rows == (256 if mode == "dj" else 32)
    assert calls["_weights"] == 1
    assert calls["expectations"] + calls["s_functionals"] == 1


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
                assert abs(e - expectations(m, rho, [f])[0]) <= 1e-12 * scale
                assert abs(e - s_functionals(b, [f])[0].real) <= 1e-12 * scale


@pytest.mark.parametrize("n", range(2, 9))
def test_projector_readout_matches_dense_routes(n, rng):
    m = w_projector(n)
    for alpha in (float(rng.uniform(0.05, 1.0)), 1.0):
        rho = pseudopure(n, alpha)
        b = b_matrix(rho, m)
        for f in (random_boolfunc(n, rng), constant_zero(n), canonical_balanced(n)):
            e = projector_readout(n, alpha, f)
            assert abs(e - expectations(m, rho, [f])[0]) <= 1e-12 * abs(e)
            assert abs(e - s_functionals(b, [f])[0].real) <= 1e-12 * abs(e)


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


def _close(a, b):
    return abs(a - b) <= 1e-12 * abs(b)


def test_protocols_match_closed_forms_past_dense_cap(rng):
    # The protocols build no matrix, so they run past the dense cap up to
    # the truth-table limit; each readout against its closed form.
    eps = Resolution(1e-6)
    for n in (13, 18, 22):
        sys = random_system(n, rng)
        member = cn_decide_thermal(sample_cn(n, 3), sys, eps)
        assert member.expectation == 0.0 and member.decided is Decision.NOT_CONSTANT
        constant = cn_decide_thermal(constant_zero(n), sys, eps)
        assert _close(constant.expectation, -sys.theta * math.fsum(sys.omega) / 4.0)
        assert constant.gap_reference == constant.expectation

        gap = sys.theta * sys.omega[0] / 4.0
        zero, one, balanced = (dj_decide_lifted(f(n - 1), sys, eps)
                               for f in (constant_zero, constant_one, canonical_balanced))
        assert balanced.expectation == 0.0
        assert _close(zero.expectation, -gap) and _close(one.expectation, gap)

        alpha, size = 0.5, 1 << n
        f = BoolFunc(n, int.from_bytes(rng.bytes(size // 8), "little"))
        pure = dj_decide_pseudopure(f, alpha, eps)
        mean = (size - 2 * f.mask.bit_count()) / size
        assert _close(pure.expectation, (1.0 - alpha / size) / size + (alpha / size) * mean * mean)
        assert (constant.lam, zero.lam, pure.lam) == (float(n), 1.0, 1.0)


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
        for name in ("single_spin", "total_spin", "w_projector", "pulsed_thermal"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(spinops.Operator, "__post_init__", refuse)
    argv = ["classify", "--protocol", protocol, "--class", "balanced", "--n", "6", "--eps", "1e-6"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["lambda"] in (1.0, 6.0)
    with pytest.raises(AssertionError, match="dense operator"):
        cli.main(argv + ["--dump-op", str(tmp_path / "op.txt")])
