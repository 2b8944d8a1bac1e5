import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from conftest import (
    NotInvariantFormError,
    assemble,
    decompose_invariant,
    find_permutation_witness,
    oracle,
    permute,
    pseudopure,
    reconstruct,
    thermal_state,
    unitarily_equivalent,
)
from evqc import measstruct, spinops
from evqc.engine import expectations
from evqc.funcspace import BoolFunc, imbalance
from evqc.measstruct import FEASIBILITY_TOL, InvariantForm, search_max_c_ratio
from evqc.spinops import Operator, single_spin, total_spin, w_projector
from evqc.states import demo_system


def readout_prediction(form, alpha, f):
    """Closed form from (c, D) and the imbalance; the antisymmetric part drops out."""
    size = form.dim
    tr = form.c + form.d.sum()
    quad = 4.0 * form.c * imbalance(f) ** 2 / size + form.d.sum()
    return (1.0 - alpha / size) * tr / size + (alpha / size**2) * quad


def test_invariant_form_validation():
    with pytest.raises(ValueError):
        InvariantForm(c=1.0, d=np.array([1.0]), a_upper=np.array([]))
    with pytest.raises(ValueError):
        InvariantForm(c=1.0, d=np.array([1.0, 2.0]), a_upper=np.array([0.1, 0.2]))


def test_decompose_frozen_exact():
    d = np.array([0.5, -0.5, 0.25, -0.25])
    a = np.array([0.1, -0.2, 0.3, 0.4, -0.5, 0.6])
    m = reconstruct(InvariantForm(c=2.0, d=d, a_upper=a))
    form = decompose_invariant(m)
    assert form.c == 2.0
    np.testing.assert_array_equal(form.d, d)
    np.testing.assert_array_equal(form.a_upper, a)


def test_decompose_reconstruct_roundtrip(rng):
    for _ in range(30):
        size = int(rng.integers(2, 9))
        form = InvariantForm(
            c=float(rng.standard_normal()) * 3.0,
            d=rng.standard_normal(size),
            a_upper=rng.standard_normal(size * (size - 1) // 2),
        )
        back = decompose_invariant(reconstruct(form))
        assert abs(back.c - form.c) < 1e-12
        np.testing.assert_allclose(back.d, form.d, atol=1e-12)
        np.testing.assert_allclose(back.a_upper, form.a_upper, atol=1e-12)


def test_decompose_rejects_total_spin():
    with pytest.raises(NotInvariantFormError) as err:
        decompose_invariant(total_spin(2, "x"))
    assert "(" in str(err.value) and "spread" in str(err.value)


def test_decompose_rejects_nonhermitian():
    with pytest.raises(ValueError):
        decompose_invariant(Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_decompose_accepts_projector():
    form = decompose_invariant(w_projector(2))
    assert abs(form.c - 1.0) < 1e-15
    np.testing.assert_allclose(form.d, 0.0, atol=1e-15)
    np.testing.assert_allclose(form.a_upper, 0.0, atol=1e-15)


def test_readout_ignores_antisymmetric_part(rng):
    alpha = 0.7
    rho = pseudopure(2, alpha)
    d = rng.standard_normal(4)
    base = InvariantForm(c=1.3, d=d, a_upper=np.zeros(6))
    twisted = InvariantForm(c=1.3, d=d, a_upper=rng.standard_normal(6))
    for mask in range(16):
        f = BoolFunc(2, mask)
        e1 = expectations(reconstruct(base), rho, [f])[0]
        e2 = expectations(reconstruct(twisted), rho, [f])[0]
        assert abs(e1 - e2) < 1e-12
        assert abs(e1 - readout_prediction(base, alpha, f)) < 1e-12


def test_readout_survives_transpositions(rng):
    alpha = 0.4
    rho = pseudopure(2, alpha)
    form = InvariantForm(c=-0.8, d=rng.standard_normal(4), a_upper=rng.standard_normal(6))
    m = reconstruct(form)
    for mask in range(16):
        f = BoolFunc(2, mask)
        for l in range(4):
            for k in range(l + 1, 4):
                e, e_perm = expectations(m, rho, [f, permute(f, l, k)])
                assert abs(e - e_perm) < 1e-12


def test_witness_for_total_spin():
    rho = pseudopure(2, 1.0)
    m = total_spin(2, "x")
    hit = find_permutation_witness(m, rho)
    assert hit is not None
    f, l, k = hit
    e, e_perm = expectations(m, rho, [f, permute(f, l, k)])
    assert abs(e - e_perm) > 1e-10


def test_witness_absent_for_invariant_form(rng):
    for n, c, alpha in ((2, 1.0, 0.5), (3, 2.0, 0.9)):
        size = 1 << n
        form = InvariantForm(c=c, d=rng.standard_normal(size),
                             a_upper=rng.standard_normal(size * (size - 1) // 2))
        assert find_permutation_witness(reconstruct(form), pseudopure(n, alpha)) is None


# (measurement, n, alpha, first witness as (mask, l, k)), recorded while
# every readout was its own engine call.
PERMUTATION_PINS = [
    (lambda: total_spin(2, "x"), 2, 1.0, (3, 0, 2)),
    (lambda: single_spin(2, 1, "x"), 2, 0.5, (3, 0, 3)),
    (lambda: single_spin(3, 2, "x"), 3, 0.8, (3, 0, 3)),
]


@pytest.mark.parametrize("build, n, alpha, witness", PERMUTATION_PINS)
def test_permutation_checks_keep_their_recorded_results(build, n, alpha, witness):
    m, rho = build(), pseudopure(n, alpha)
    f, l, k = find_permutation_witness(m, rho)
    assert (f.n, f.mask, l, k) == (n, *witness)


def first_witness_by_single_readouts(m, rho, tol):
    """The witness hunt with one engine call per readout: truth-table order,
    then transpositions in combinations order."""
    n = (m.dim - 1).bit_length()
    for mask in range(1 << m.dim):
        f = BoolFunc(n, mask)
        for l, k in itertools.combinations(range(m.dim), 2):
            if abs(expectations(m, rho, [f])[0] - expectations(m, rho, [permute(f, l, k)])[0]) > tol:
                return f, l, k
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_witness_is_the_first_in_truth_table_and_pair_order(n, rng):
    for _ in range(3):
        z = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
        m = Operator(0.5 * (z + z.conj().T), hermitian=True)
        rho = pseudopure(n, float(rng.uniform(0.1, 1.0)))
        tol = 1e-10 * float(np.abs(m.mat).max())
        assert find_permutation_witness(m, rho) == first_witness_by_single_readouts(m, rho, tol)


def test_invariance_check_requires_pseudopure_family():
    with pytest.raises(ValueError):
        find_permutation_witness(total_spin(2, "x"), thermal_state(demo_system(2)))


def test_search_single_spin_reaches_unity():
    result = search_max_c_ratio(1, budget=20_000, seed=0, restarts=10)
    assert result.feasible
    assert abs(result.ratio - 1.0) < 1e-6
    assert result.penalty_residual < FEASIBILITY_TOL
    assert unitarily_equivalent(reconstruct(result.form), total_spin(1, "x"), tol=1e-5)


def test_search_is_deterministic():
    a = search_max_c_ratio(1, budget=5_000, seed=11, restarts=4)
    b = search_max_c_ratio(1, budget=5_000, seed=11, restarts=4)
    assert a.to_record() == b.to_record()
    assert a.evaluations == b.evaluations


def test_search_record_shape():
    result = search_max_c_ratio(1, budget=2_000, seed=2, restarts=2)
    rec = result.to_record()
    assert set(rec) == {
        "n", "ratio", "c", "D", "A_upper", "penalty_residual", "budget", "seed", "feasible",
    }
    assert rec["n"] == 1
    assert len(rec["D"]) == 2
    assert len(rec["A_upper"]) == 1


def test_search_guards():
    with pytest.raises(ValueError):
        search_max_c_ratio(4)
    with pytest.raises(ValueError):
        search_max_c_ratio(1, budget=50)
    with pytest.raises(ValueError):
        search_max_c_ratio(1, restarts=0)


# (n, budget, seed, restarts) -> sha256 of json.dumps(to_record()) and the
# evaluation count.  Frozen from the route that built an InvariantForm and a
# validated Operator on every evaluation; the lean evaluation path must
# reproduce every record and count bit for bit.
GOLDEN_SEARCHES = [
    ((1, 500, 0, 1), "f5b7799bc3d72d8f0fc5972c623167d6e930b675b684641c4c17c2563de7aa9e", 464),
    ((1, 2000, 7, 2), "3214136ef49dfe323b91c724416159610f6c3ec17397b3f5b7a4ba74e04fcf97", 1364),
    ((2, 1000, 1, 1), "f367aab9d00c8faaa83c8b6504e485d43a69fbf3b499e84abf573d1470d6c73e", 996),
    ((2, 2000, 2, 1), "d612cb6dabfe91e60b8a0a03b4418298202d6055869d9ead3b526fc7d4dfdfff", 1998),
    ((2, 3000, 5, 2), "0526aba7b1ac7433a0e8e0a6d401b1b143cc051c74e62a9c724023f85e9a4dc4", 3000),
    ((3, 1500, 2, 1), "5d61440436953581df51cc534a6d457f4a8579249671ff007fc5da9e74a09b91", 1500),
]


@pytest.mark.parametrize("config, digest, evaluations", GOLDEN_SEARCHES)
def test_search_matches_golden_records(config, digest, evaluations):
    n, budget, seed, restarts = config
    result = search_max_c_ratio(n, budget=budget, seed=seed, restarts=restarts)
    assert hashlib.sha256(json.dumps(result.to_record()).encode()).hexdigest() == digest
    assert result.evaluations == evaluations


def test_search_validates_once_per_restart_not_per_evaluation(monkeypatch):
    calls = {"Operator": 0, "InvariantForm": 0, "triu_indices": 0, "eigvalsh": 0, "errstate": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        spinops.Operator, "__post_init__", counting("Operator", spinops.Operator.__post_init__)
    )
    monkeypatch.setattr(
        InvariantForm, "__post_init__", counting("InvariantForm", InvariantForm.__post_init__)
    )
    monkeypatch.setattr(measstruct.np, "triu_indices", counting("triu_indices", np.triu_indices))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np, "errstate", counting("errstate", np.errstate))
    n, restarts = 2, 3
    result = search_max_c_ratio(n, budget=3000, seed=5, restarts=restarts)
    # The reference spectrum builds n + 1 operators; each restart's
    # candidate builds one form and one operator.
    assert calls["Operator"] <= n + 1 + restarts
    assert calls["InvariantForm"] <= restarts
    assert calls["triu_indices"] == 1
    # Only the reference spectrum goes through numpy's wrapper; every
    # evaluation calls the gufunc inside the search's one error state.
    assert calls["eigvalsh"] == 1
    assert calls["errstate"] == 1
    assert result.evaluations > 100 * restarts


def _assembled_by_formula(c, d, a_upper):
    """c / size + diag(d) +- 1j * a, written entry by entry into complex storage."""
    size = d.size
    rows, cols = np.triu_indices(size, 1)
    mat = np.full((size, size), c / size, dtype=complex)
    mat[np.diag_indices(size)] += d
    ia = 1j * a_upper
    mat[rows, cols] += ia
    mat[cols, rows] -= ia
    return mat


def _with_signed_zeros(values, rng):
    values = values.copy()
    values[rng.random(values.size) < 0.2] = 0.0
    values[rng.random(values.size) < 0.2] = -0.0
    return values


@pytest.mark.parametrize("size", [2, 4, 8])
def test_assembler_matches_the_complex_formula(size, rng):
    cs = [float(v) for v in rng.standard_normal(40) * 3.0] + [0.0, -0.0]
    for c in cs:
        d = _with_signed_zeros(rng.standard_normal(size), rng)
        a = _with_signed_zeros(rng.standard_normal(size * (size - 1) // 2), rng)
        got = assemble(c, d, a)
        want = _assembled_by_formula(c, d, a)
        if c == 0.0:
            # -0.0 + +0.0 is +0.0 in the formula, so c = -0.0 may leave a
            # differently signed zero; the values must still agree.
            assert np.array_equal(got, want)
        else:
            assert got.tobytes() == want.tobytes(), c


@pytest.mark.parametrize("size", [2, 4, 8])
def test_eigvalsh_gufunc_matches_numpys_wrapper(size, rng):
    for c in rng.standard_normal(40) * 3.0:
        d = _with_signed_zeros(rng.standard_normal(size), rng)
        a = _with_signed_zeros(rng.standard_normal(size * (size - 1) // 2), rng)
        mat = assemble(float(c), d, a)
        want = np.linalg.eigvalsh(mat)
        got = measstruct._eigvalsh(mat)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), c


def _assessed_by_the_full_matrix(x, size, target):
    """The evaluation's oracle: _split_params, assemble and numpy's
    eigvalsh wrapper on the whole hermitian matrix."""
    c, d, a = measstruct._split_params(x, size)
    vals = np.linalg.eigvalsh(assemble(c, d, a))
    r = vals - target
    return float(np.add.reduce(r * r)), abs(c) / max(float(vals[-1] - vals[0]), 1e-12), vals


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluation_matches_the_full_matrix_route_bit_for_bit(n, rng):
    size = 1 << n
    target = spinops.eig_multiset(total_spin(n, "x"))
    assess, _ = measstruct._evaluator(size, target)
    n_params = 1 + size + size * (size - 1) // 2
    for k in range(60):
        x = _with_signed_zeros(rng.standard_normal(n_params) * (0.5 * n), rng)
        if k < 10:
            x[0] = (0.0, -0.0)[k % 2]
        mism, ratio, vals = assess(x)
        want_mism, want_ratio, want_vals = _assessed_by_the_full_matrix(x, size, target)
        assert np.array([mism, ratio]).tobytes() == np.array([want_mism, want_ratio]).tobytes(), k
        assert vals.tobytes() == want_vals.tobytes(), k


# alpha = +-0.0, tiny, huge and negative; 1e200 overflows the mismatch's squares.
LINE_STEPS = [0.0, -0.0, 5e-324, -1e-300, 1e-17, -0.37, 2.5, -3.0e7, 1e200, -1e200]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coordinate_line_matches_the_full_route_bit_for_bit(monkeypatch, n, rng):
    # Every coordinate (c, each d_j, each a_jk) of points holding +0.0 but
    # no -0.0, each line's trials interleaved with full evaluations, which
    # use a buffer of their own.  The matrices LAPACK is handed must agree
    # too, signed zeros included.
    handed = []
    eigvalsh = measstruct._eigvalsh

    def recording(mat):
        handed.append(mat.tobytes())
        return eigvalsh(mat)

    monkeypatch.setattr(measstruct, "_eigvalsh", recording)
    size = 1 << n
    target = spinops.eig_multiset(total_spin(n, "x"))
    assess, line = measstruct._evaluator(size, target)
    n_params = 1 + size + size * (size - 1) // 2
    for k in range(4):
        p = rng.standard_normal(n_params) * (0.5 * n)
        p[rng.random(n_params) < 0.2] = 0.0
        if k == 0:
            p[0] = 0.0
        for i in range(n_params):
            at = line(p, i)
            for alpha in LINE_STEPS + list(rng.standard_normal(3)):
                mism, ratio, vals = at(alpha)
                unit = np.zeros(n_params)
                unit[i] = 1.0
                want_mism, want_ratio, want_vals = assess(p + alpha * unit)
                got = np.array([mism, ratio]).tobytes()
                assert got == np.array([want_mism, want_ratio]).tobytes(), (k, i, alpha)
                assert vals.tobytes() == want_vals.tobytes(), (k, i, alpha)
                assert handed[-2] == handed[-1], (k, i, alpha)


def _line_spied(fun, line, lines):
    """fun carrying line; each line's start and index and the alphas of its
    trials are appended to lines."""
    def spied(x):
        return fun(x)

    def coordinate(p, i):
        at = line(p, i)
        lines.append((p.copy(), i, []))

        def recorded(alpha):
            lines[-1][2].append(alpha)
            return at(alpha)

        return recorded

    spied.line = coordinate
    return spied


def test_a_start_holding_negative_zero_takes_the_full_route(monkeypatch, rng):
    size = 4
    target = spinops.eig_multiset(total_spin(2, "x"))
    assess, line = measstruct._evaluator(size, target)
    penalty = measstruct._penalty(assess, line, 0.1)
    x0 = rng.standard_normal(1 + size + size * (size - 1) // 2)
    x0[[0, 2, 7]] = -0.0
    lines, starts = [], []
    linesearch = measstruct._linesearch_powell

    def watched(func, p, xi, tol, fval):
        starts.append(bool((np.signbit(p) & (p == 0.0)).any()))
        return linesearch(func, p, xi, tol, fval)

    monkeypatch.setattr(measstruct, "_linesearch_powell", watched)
    x, nfev = measstruct._powell(_line_spied(penalty, penalty.line, lines), x0, 400, 1e-10, 1e-12)
    want_x, want_nfev = measstruct._powell(lambda v: penalty(v), x0, 400, 1e-10, 1e-12)
    assert x.tobytes() == want_x.tobytes()
    assert nfev == want_nfev
    assert starts[0] and lines
    assert not any((np.signbit(p) & (p == 0.0)).any() for p, _, _ in lines)


def _descent(x):
    # Unbounded below along both coordinates: the bracket walks alpha to inf
    # and then to nan.
    return float(-x[0] - 0.5 * x[1])


def test_non_finite_steps_take_the_full_route():
    def line(p, i):
        # Right only at finite alpha: at inf, p + inf * e_i is nan off entry i.
        def at(alpha):
            q = p.copy()
            q[i] += alpha
            return _descent(q)

        return at

    lines = []
    with np.errstate(invalid="ignore"):
        x, nfev = measstruct._powell(_line_spied(_descent, line, lines), np.array([1.0, 2.0]), 3000, 1e-4, 1e-4)
        want_x, want_nfev = measstruct._powell(_descent, np.array([1.0, 2.0]), 3000, 1e-4, 1e-4)
    assert x.tobytes() == want_x.tobytes()
    assert nfev == want_nfev
    alphas = [alpha for _, _, steps in lines for alpha in steps]
    assert np.isnan(x).all() and len(alphas) > 100
    assert all(math.isfinite(alpha) for alpha in alphas)


@pytest.mark.parametrize("config", [config for config, _, _ in GOLDEN_SEARCHES])
def test_search_evaluates_almost_every_point_on_a_coordinate_line(monkeypatch, config):
    # A later change that silently drops to the full route fails here.
    calls = {"full": 0, "eigvalsh": 0}
    evaluator, eigvalsh = measstruct._evaluator, measstruct._eigvalsh

    def counting_evaluator(size, target):
        assess, line = evaluator(size, target)

        def counted(x):
            calls["full"] += 1
            return assess(x)

        return counted, line

    def counting_eigvalsh(mat):
        calls["eigvalsh"] += 1
        return eigvalsh(mat)

    monkeypatch.setattr(measstruct, "_evaluator", counting_evaluator)
    monkeypatch.setattr(measstruct, "_eigvalsh", counting_eigvalsh)
    n, budget, seed, restarts = config
    search_max_c_ratio(n, budget=budget, seed=seed, restarts=restarts)
    assert calls["eigvalsh"] - calls["full"] >= 0.95 * calls["eigvalsh"], calls


def _poisoned_eigvalsh(value, where):
    """measstruct._eigvalsh with one entry of every matrix it is handed overwritten."""
    original = measstruct._eigvalsh

    def poisoned(mat):
        mat[where] = value
        return original(mat)

    return poisoned


# (n, value, entry) -> sha256 of json.dumps(to_record()) and the evaluation
# count of a search that ends, or None for one that raises LinAlgError.
# Recorded from the route through numpy's eigvalsh wrapper.
POISONED_SEARCHES = [
    (2, math.inf, (0, 0), None),
    (2, math.nan, (1, 0), None),
    # NaN eigenvalues, so a NaN record.
    (1, math.nan, (1, 0), ("e7f6889ef066540f26d5ffbb5d8056c4fd056a025fc4afec6361cd164ddd081d", 65)),
    # The upper triangle is never read.
    (2, math.nan, (0, 1), ("0cd72bffb40b464b962b8c9c83237e4cb08fa6df04947af9cd8cf3380e0d6395", 360)),
]


@pytest.mark.parametrize("n, value, where, outcome", POISONED_SEARCHES)
def test_search_keeps_numpys_errors_and_restores_the_error_state(monkeypatch, n, value, where, outcome):
    monkeypatch.setattr(measstruct, "_eigvalsh", _poisoned_eigvalsh(value, where))
    before = np.geterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if outcome is None:
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                search_max_c_ratio(n, budget=300, seed=0, restarts=1)
        else:
            result = search_max_c_ratio(n, budget=300, seed=0, restarts=1)
            digest = hashlib.sha256(json.dumps(result.to_record()).encode()).hexdigest()
            assert (digest, result.evaluations) == outcome
    assert caught == []
    assert np.geterr() == before


def _scipy_powell(fun, x0, maxfev, xtol, ftol):
    """The oracle for measstruct._powell: scipy's own unbounded Powell."""
    from scipy.optimize import minimize

    res = minimize(fun, x0, method="Powell", options={"maxfev": maxfev, "xtol": xtol, "ftol": ftol})
    return res.x, res.nfev


def _coupled(x):
    return float((x[0] - 1.0) ** 2 + 10.0 * (x[1] - x[0] ** 2) ** 2
                 + 0.5 * (x[2] + 0.25) ** 2 + 0.3 * x[0] * x[2])


def _signbit(x):
    # -0.0 + 0.0 is +0.0: the first line search moves x without changing it
    # by value, so the extrapolation direction x - x1 is zero.
    return 1.0 if math.copysign(1.0, x[0]) < 0 else 0.0


def _nan_past_a_wall(x):
    return float((x[0] - 3.0) ** 2 + x[1] ** 2) if x[0] < 2.0 else math.nan


def _finite_at_nan(x):
    # The first line search fails on a nan and leaves x all nan with the
    # value nan, though the objective there is 1.0.
    return 1.0 if math.isnan(x[1]) else _nan_past_a_wall(x)


def _spike(x):
    # The bracket's parabolic trial point lands on the spike.
    return (x[0] - 2.4) ** 2 + 5.0 * math.exp(-(((x[0] - 2.4) / 0.05) ** 2)) + x[1] ** 2


def _wavy(x):
    return float(np.sin(3.0 * x[0]) + 0.1 * x[0] ** 2 + np.cos(2.0 * x[1]) * x[1])


# (objective, x0, maxfev, xtol, ftol), each reaching one branch of the port.
POWELL_CASES = {
    "failed-bracket": (lambda x: 2.5, [0.3, -1.0], 100, 1e-4, 1e-4),
    "zero-direction": (_signbit, [-0.0], 100, 1e-4, 1e-4),
    "direction-replacement": (_coupled, [0.0, 0.0, 0.0], 2000, 1e-10, 1e-12),
    "ftol-stop": (_coupled, [0.0, 0.0, 0.0], 100_000, 1e-4, 1e-4),
    "nan-region": (lambda x: math.nan, [1.0, 2.0], 100, 1e-4, 1e-4),
    "nan-past-a-wall": (_nan_past_a_wall, [0.0, 1.0], 500, 1e-4, 1e-4),
    "finite-after-a-failed-line-search": (_finite_at_nan, [0.0, 1.0], 500, 1e-4, 1e-4),
    "bracket-growth": (lambda x: float((x[0] - 700.0) ** 2 + (x[1] + 3.0) ** 4), [0.0, 0.0], 3000, 1e-4, 1e-4),
    "bracket-past-a-bump": (_spike, [0.0, 0.3], 500, 1e-4, 1e-4),
    "bracket-golden-step": (_wavy, [2.0, -2.0], 500, 1e-4, 1e-4),
}


@pytest.mark.parametrize("case", POWELL_CASES.values(), ids=POWELL_CASES.keys())
def test_powell_port_matches_scipy_bit_for_bit(case):
    fun, x0, maxfev, xtol, ftol = case
    x, nfev = measstruct._powell(fun, np.array(x0), maxfev, xtol, ftol)
    want_x, want_nfev = _scipy_powell(fun, np.array(x0), maxfev, xtol, ftol)
    assert x.tobytes() == want_x.tobytes()
    assert nfev == want_nfev


def test_powell_ftol_stop_leaves_budget_unspent():
    _, nfev = measstruct._powell(*POWELL_CASES["ftol-stop"])
    assert nfev < POWELL_CASES["ftol-stop"][2]


@pytest.mark.parametrize("maxfev", range(1, 60))
def test_powell_budget_running_out_keeps_the_last_completed_point(maxfev):
    # Small budgets run out inside a line search, at the extrapolated point
    # or at the end of a sweep; every one must stop where scipy stops.
    x, nfev = measstruct._powell(_coupled, np.zeros(3), maxfev, 1e-4, 1e-4)
    want_x, want_nfev = _scipy_powell(_coupled, np.zeros(3), maxfev, 1e-4, 1e-4)
    assert x.tobytes() == want_x.tobytes()
    assert nfev == want_nfev == maxfev


def _recording(fun, seen):
    def recorded(x):
        seen.append(x.tobytes())
        return fun(x)

    return recorded


def _powell_watching_starts(monkeypatch, fun, x0, maxfev, xtol, ftol):
    """_powell's result, the points it evaluated, and the evaluation counts
    at which a line search starts with p + 0.0 * xi == p to the bit while
    its held value is a number: the starts whose value is known."""
    seen, starts = [], []
    linesearch = measstruct._linesearch_powell

    def watched(func, p, xi, tol, fval):
        # A start past the budget is refused like any other evaluation.
        if (xi.any() and not math.isnan(fval) and (p + 0.0 * xi).tobytes() == p.tobytes()
                and len(seen) + len(starts) < maxfev):
            starts.append(len(seen) + len(starts))
        return linesearch(func, p, xi, tol, fval)

    monkeypatch.setattr(measstruct, "_linesearch_powell", watched)
    x, nfev = measstruct._powell(_recording(fun, seen), np.array(x0, dtype=float), maxfev, xtol, ftol)
    return x, nfev, seen, starts


@pytest.mark.parametrize("case", POWELL_CASES.values(), ids=POWELL_CASES.keys())
def test_powell_evaluates_scipys_points_but_the_known_starts(monkeypatch, case):
    x, nfev, seen, starts = _powell_watching_starts(monkeypatch, *case)
    fun, x0, maxfev, xtol, ftol = case
    scipy_seen = []
    want_x, want_nfev = _scipy_powell(_recording(fun, scipy_seen), np.array(x0), maxfev, xtol, ftol)
    assert x.tobytes() == want_x.tobytes()
    assert nfev == want_nfev == len(scipy_seen)
    assert len(seen) == nfev - len(starts)
    assert seen == [v for k, v in enumerate(scipy_seen) if k not in starts]


def test_powell_evaluates_a_start_that_clears_a_signed_zero():
    # -0.0 + 0.0 * 1.0 is +0.0, which _signbit tells apart from x0 = -0.0,
    # so the first line search evaluates its start.
    seen = []
    measstruct._powell(_recording(_signbit, seen), np.array([-0.0]), 100, 1e-4, 1e-4)
    assert seen[:2] == [np.array([-0.0]).tobytes(), np.array([0.0]).tobytes()]


def test_the_budget_sweep_runs_out_on_known_starts(monkeypatch):
    # maxfev = k ends the search when it reaches a known start after k
    # evaluations, so the budgets of the sweep above include such stops.
    _, _, _, starts = _powell_watching_starts(monkeypatch, _coupled, np.zeros(3), 59, 1e-4, 1e-4)
    assert starts == [1, 10, 18, 27, 36, 44, 52]


def _seeded_search_configs(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (int(rng.integers(1, 4)), int(rng.integers(100, 1000)),
               int(rng.integers(0, 1_000_000)), int(rng.integers(1, 5)))


def _assert_same_records_with(monkeypatch, name, oracle):
    """50 seeded searches give the same records and counts with
    measstruct.<name> replaced by its oracle."""
    configs = list(_seeded_search_configs(50, 2110))
    ours = [search_max_c_ratio(n, budget=b, seed=s, restarts=r) for n, b, s, r in configs]
    monkeypatch.setattr(measstruct, name, oracle)
    for (n, b, s, r), mine in zip(configs, ours):
        theirs = search_max_c_ratio(n, budget=b, seed=s, restarts=r)
        assert json.dumps(mine.to_record()) == json.dumps(theirs.to_record()), (n, b, s, r)
        assert mine.evaluations == theirs.evaluations, (n, b, s, r)


def test_search_with_scipy_powell_gives_the_same_records(monkeypatch):
    _assert_same_records_with(monkeypatch, "_powell", _scipy_powell)


def test_search_with_numpys_eigvalsh_gives_the_same_records(monkeypatch):
    _assert_same_records_with(monkeypatch, "_eigvalsh", np.linalg.eigvalsh)
