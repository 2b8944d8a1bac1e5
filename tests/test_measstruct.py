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
    eig_multiset,
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


@pytest.mark.parametrize("n", [2, 3])
def test_default_search_is_deterministic(n):
    a = search_max_c_ratio(n, seed=4)
    b = search_max_c_ratio(n, seed=4)
    assert json.dumps(a.to_record()) == json.dumps(b.to_record())
    assert a.evaluations == b.evaluations


def test_search_record_shape():
    result = search_max_c_ratio(1, budget=2_000, seed=2, restarts=2)
    rec = result.to_record()
    assert set(rec) == {
        "n", "ratio", "ratio_upper_bound", "c", "D", "A_upper", "penalty_residual", "budget", "seed",
        "feasible",
    }
    assert rec["n"] == 1
    assert rec["ratio_upper_bound"] == 1.0
    assert len(rec["D"]) == 2
    assert len(rec["A_upper"]) == 1


@pytest.mark.parametrize("n, bound", [(1, 1.0), (2, 2 / 3), (3, 4 / 7), (4, 8 / 15)])
def test_ratio_upper_bound_is_n_over_2_n_minus_1(n, bound):
    result = search_max_c_ratio(n, budget=100, restarts=1)
    assert result.ratio_upper_bound == pytest.approx(bound, rel=1e-15)


def test_search_guards():
    with pytest.raises(ValueError):
        search_max_c_ratio(5)
    with pytest.raises(ValueError):
        search_max_c_ratio(0)
    with pytest.raises(ValueError):
        search_max_c_ratio(1, budget=50)
    with pytest.raises(ValueError):
        search_max_c_ratio(1, restarts=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_search_target_is_the_closed_form_spectrum(n):
    target = measstruct._fx_spectrum(n)
    assert target.dtype == np.float64
    np.testing.assert_allclose(target, eig_multiset(total_spin(n, "x")), rtol=0, atol=1e-12)


# (n, budget, seed, restarts) -> sha256 of json.dumps(to_record()) and the
# evaluation count.
GOLDEN_SEARCHES = [
    ((1, 500, 0, 1), "cf29820c35262b97119041bb357e326e86cc69c73d5c627f441d842c20241119", 111),
    ((1, 2000, 7, 2), "538751ff7d1dd269bc6cb6c04f08987bc6bfc90ae93b812b90a639781865d683", 227),
    ((2, 1000, 1, 1), "9c02216bf6652b7b31063044163f21c946c0945e439863f21671440c04f61604", 210),
    ((2, 2000, 2, 1), "b3ad7d5b47b81e9c33ef361d0bdd7e6551e2376b445aef259193079cbb13c996", 220),
    ((2, 3000, 5, 2), "640eef02039c0763f0a3dde0f66ade645f55a69176bf83ff7f7875107570d839", 411),
    ((3, 1500, 2, 1), "5b488ffb66c6ee16bcfe91ad6e1f30820eb71ff523c44121cbede195c11609be", 379),
]


@pytest.mark.parametrize("config, digest, evaluations", GOLDEN_SEARCHES,
                         ids=["-".join(map(str, config)) for config, _, _ in GOLDEN_SEARCHES])
def test_search_matches_golden_records(config, digest, evaluations):
    n, budget, seed, restarts = config
    result = search_max_c_ratio(n, budget=budget, seed=seed, restarts=restarts)
    rec = result.to_record()
    assert hashlib.sha256(json.dumps(rec).encode()).hexdigest() == digest
    assert result.evaluations == evaluations
    assert rec["feasible"] and rec["ratio"] <= rec["ratio_upper_bound"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_search_never_spends_more_than_its_budget(monkeypatch, n):
    calls = [0]
    eigh = measstruct._eigh

    def counted(mat):
        calls[0] += 1
        return eigh(mat)

    monkeypatch.setattr(measstruct, "_eigh", counted)
    for budget, restarts in itertools.product([100, 137, 300, 2000], [1, 2, 4]):
        calls[0] = 0
        result = search_max_c_ratio(n, budget=budget, seed=budget, restarts=restarts)
        assert result.evaluations == calls[0] <= budget, (budget, restarts)


def test_the_budget_sweep_runs_out_on_known_starts(monkeypatch):
    # A budget that leaves one evaluation for a phase spends it on that
    # phase's start, the point and eigenvalues the phase before ended on:
    # the record is the one a budget one smaller gives, but for the budget.
    spent = []
    bfgs = measstruct._bfgs

    def watched(value, gradient, x, maxfev):
        out = bfgs(value, gradient, x, maxfev)
        spent.append((maxfev, out[2]))
        return out

    monkeypatch.setattr(measstruct, "_bfgs", watched)
    for n in (1, 2, 3):
        spent.clear()
        search_max_c_ratio(n, budget=100_000, seed=n, restarts=2)
        phases = len(measstruct._RHO_SCHEDULE)
        ends = np.cumsum([nfev for _, nfev in spent])
        swept = [int(end) for k, end in enumerate(ends) if end >= 100 and (k + 1) % phases]
        assert len(swept) >= 5, (n, swept)
        for end in swept:
            before = search_max_c_ratio(n, budget=end, seed=n, restarts=2).to_record()
            spent.clear()
            after = search_max_c_ratio(n, budget=end + 1, seed=n, restarts=2)
            assert spent[-1] == (1, 1) and after.evaluations == end + 1, (n, end)
            assert json.dumps({**before, "budget": end + 1}) == json.dumps(after.to_record()), (n, end)


def test_search_validates_once_per_restart_not_per_evaluation(monkeypatch):
    calls = {"Operator": 0, "InvariantForm": 0, "triu_indices": 0, "eigh": 0, "errstate": 0}

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
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np, "errstate", counting("errstate", np.errstate))
    restarts = 3
    result = search_max_c_ratio(2, budget=3000, seed=5, restarts=restarts)
    # The target is a closed form, so no operator is built; each restart's
    # candidate builds at most one form.
    assert calls["Operator"] == 0
    assert calls["InvariantForm"] <= restarts
    assert calls["triu_indices"] == 1
    # Every evaluation calls the gufunc inside the search's one error state.
    assert calls["eigh"] == 0
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


@pytest.mark.parametrize("size", [2, 4, 8, 16])
def test_eigh_gufunc_matches_numpys_wrapper(size, rng):
    for c in rng.standard_normal(40) * 3.0:
        d = _with_signed_zeros(rng.standard_normal(size), rng)
        a = _with_signed_zeros(rng.standard_normal(size * (size - 1) // 2), rng)
        mat = assemble(float(c), d, a)
        want_vals, want_vecs = np.linalg.eigh(mat)
        vals, vecs = measstruct._eigh(mat)
        assert (vals.dtype, vecs.dtype) == (want_vals.dtype, want_vecs.dtype)
        assert vals.tobytes() == want_vals.tobytes(), c
        assert vecs.tobytes() == want_vecs.tobytes(), c


@pytest.mark.parametrize("size", [2, 4, 8])
def test_eigvalsh_gufunc_matches_numpys_wrapper(size, rng):
    # The search scores the eigenvalue half of eigh's gufunc, whose LAPACK
    # path also forms eigenvectors; numpy's eigvalsh wrapper, which
    # eig_multiset and any re-check of a reported form go through, gives
    # the same spectrum to rounding, not to the bit.
    for c in rng.standard_normal(40) * 3.0:
        d = _with_signed_zeros(rng.standard_normal(size), rng)
        a = _with_signed_zeros(rng.standard_normal(size * (size - 1) // 2), rng)
        mat = assemble(float(c), d, a)
        want = np.linalg.eigvalsh(mat)
        got = measstruct._eigh(mat)[0]
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.abs(want).max()))


def _evaluated_by_the_full_matrix(x, rho, size, target):
    """The evaluation's oracle: _split_params, assemble and numpy's eigh
    wrapper on the whole hermitian matrix, with the gradient summed one
    eigenvector at a time."""
    c, d, a = measstruct._split_params(x, size)
    vals, vecs = np.linalg.eigh(assemble(c, d, a))
    r = vals - target
    g = sum(2.0 * rho * rk * np.outer(v, v.conj()) for rk, v in zip(r, vecs.T))
    rows, cols = np.triu_indices(size, 1)
    trace = np.trace(g).real
    grad = np.concatenate([[(g.sum().real - trace) / size - 1.0],
                           g.diagonal().real - trace / size, 2.0 * g[rows, cols].imag])
    return rho * float(np.dot(r, r)) - c, grad, vals


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluation_matches_the_full_matrix_route_bit_for_bit(n, rng):
    # The value and the eigenvalues to the bit; the gradient, whose sums
    # run in another order, to rounding.
    size = 1 << n
    target = measstruct._fx_spectrum(n)
    value, gradient = measstruct._evaluator(size, target)
    n_params = 1 + size + size * (size - 1) // 2
    for k in range(60):
        x = _with_signed_zeros(rng.standard_normal(n_params) * (0.5 * n), rng)
        if k < 10:
            x[0] = (0.0, -0.0)[k % 2]
        rho = (1.0, 1e4, 1e8)[k % 3]
        got, vals = value(x, rho)
        grad = gradient()
        want_value, want_grad, want_vals = _evaluated_by_the_full_matrix(x, rho, size, target)
        assert np.float64(got).tobytes() == np.float64(want_value).tobytes(), k
        assert vals.tobytes() == want_vals.tobytes(), k
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12 * max(1.0, np.abs(want_grad).max()))


def _handed_to_eigh(monkeypatch):
    """Copies of the matrices measstruct._eigh is handed, in call order."""
    handed = []
    eigh = measstruct._eigh

    def recording(mat):
        handed.append(mat.copy())
        return eigh(mat)

    monkeypatch.setattr(measstruct, "_eigh", recording)
    return handed


def _full_route_lower(x, size):
    """The lower triangle, diagonal included, of the full route's matrix."""
    return np.tril(assemble(*measstruct._split_params(x, size))).tobytes()


# alpha = +-0.0, tiny, huge and negative; 1e200 overflows the value's squares.
LINE_STEPS = [0.0, -0.0, 5e-324, -1e-300, 1e-17, -0.37, 2.5, -3.0e7, 1e200, -1e200]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coordinate_line_matches_the_full_route_bit_for_bit(monkeypatch, n, rng):
    # Points along every coordinate line (c, each d_j, each a_jk), one after
    # another through one evaluator, so each refill of its reused buffer
    # follows a matrix that differs from it only where one coordinate
    # reaches.  The lower triangle LAPACK reads must be the full route's,
    # signed zeros included, and so must the value and the eigenvalues.
    handed = _handed_to_eigh(monkeypatch)
    size = 1 << n
    target = measstruct._fx_spectrum(n)
    value, gradient = measstruct._evaluator(size, target)
    n_params = 1 + size + size * (size - 1) // 2
    for k, rho in enumerate((1.0, 1e4, 1e8)):
        p = rng.standard_normal(n_params) * (0.5 * n)
        p[rng.random(n_params) < 0.2] = 0.0
        if k == 0:
            p[0] = 0.0
        for i in range(n_params):
            for alpha in LINE_STEPS + list(rng.standard_normal(3)):
                x = p.copy()
                x[i] += alpha
                with np.errstate(over="ignore"):  # as in the search's error state
                    got, vals = value(x, rho)
                    grad = gradient()
                    want_value, want_grad, want_vals = _evaluated_by_the_full_matrix(x, rho, size, target)
                assert np.tril(handed[-1]).tobytes() == _full_route_lower(x, size), (k, i, alpha)
                assert np.float64(got).tobytes() == np.float64(want_value).tobytes(), (k, i, alpha)
                assert vals.tobytes() == want_vals.tobytes(), (k, i, alpha)
                np.testing.assert_allclose(
                    grad, want_grad, rtol=0, atol=1e-12 * max(1.0, np.abs(want_grad).max())
                )


def test_a_start_holding_negative_zero_takes_the_full_route(monkeypatch, rng):
    # -0.0 in c, in a d_j and in an a_jk: c / N and 0.0 - a must hand LAPACK
    # the full route's lower triangle to the bit, and _bfgs must return the
    # start itself when its budget is that one evaluation.
    handed = _handed_to_eigh(monkeypatch)
    size = 4
    target = measstruct._fx_spectrum(2)
    value, gradient = measstruct._evaluator(size, target)
    x0 = rng.standard_normal(1 + size + size * (size - 1) // 2)
    x0[[0, 2, 7]] = -0.0
    x, vals, nfev = measstruct._bfgs(lambda v: value(v, 10.0), gradient, x0, 1)
    _, _, want_vals = _evaluated_by_the_full_matrix(x0, 10.0, size, target)
    assert nfev == len(handed) == 1
    assert x.tobytes() == x0.tobytes()
    assert np.tril(handed[0]).tobytes() == _full_route_lower(x0, size)
    assert vals.tobytes() == want_vals.tobytes()


def _steep_bowl(nan_on_overflow):
    """(value, gradient) of 0.5 * a * x.x with a = 1e150, whose first steps
    overflow: to inf, or to nan (inf - 0.5 * inf) with nan_on_overflow."""
    a = 1e150
    last = [None]

    def value(x):
        last[0] = x
        q = a * float(np.dot(x, x))
        v = q - 0.5 * q if nan_on_overflow else 0.5 * q
        return v, np.array([v])

    return value, lambda: a * last[0]


def test_non_finite_steps_take_the_full_route():
    # A trial whose value is inf or nan fails the Armijo test like any
    # other rejected trial: the step halves, and the run goes on from
    # finite points only, to the bowl's floor.
    for nan_on_overflow in (False, True):
        value, gradient = _steep_bowl(nan_on_overflow)
        values = []

        def recorded(x):
            out = value(x)
            values.append(out[0])
            return out

        x, vals, nfev = measstruct._bfgs(recorded, gradient, np.array([1.0, -2.0]), 3000)
        assert nfev == len(values) < 3000
        assert sum(not math.isfinite(v) for v in values) > 100
        assert all(math.isnan(v) == nan_on_overflow for v in values if not math.isfinite(v))
        assert np.isfinite(x).all() and 0.0 <= vals[0] <= 1e-100 * values[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gradient_matches_central_differences(n, rng):
    size = 1 << n
    value, gradient = measstruct._evaluator(size, measstruct._fx_spectrum(n))
    n_params = 1 + size + size * (size - 1) // 2
    step = 1e-6
    for rho in (1.0, 10.0, 1e3):
        x = rng.standard_normal(n_params) * (0.5 * n)
        value(x, rho)
        grad = gradient()
        central = np.empty(n_params)
        for i in range(n_params):
            e = np.zeros(n_params)
            e[i] = step
            central[i] = (value(x + e, rho)[0] - value(x - e, rho)[0]) / (2.0 * step)
        assert np.abs(central - grad).max() <= 1e-6 * np.abs(grad).max(), rho


def _poisoned_eigh(value, where):
    """measstruct._eigh with one entry of every matrix it is handed overwritten."""
    original = measstruct._eigh

    def poisoned(mat):
        mat[where] = value
        return original(mat)

    return poisoned


# (n, value, entry) -> sha256 of json.dumps(to_record()) and the evaluation
# count of a search that ends, or None for one that raises LinAlgError.
POISONED_SEARCHES = [
    # NaN eigenvalues, so a NaN gradient: every phase stops at its start.
    (2, math.inf, (0, 0), ("f146d79b8ee69f3b6d4993bea96026932d0674e155db3261eb36b813aad7cb60", 7)),
    (2, math.nan, (1, 0), None),
    (1, math.nan, (1, 0), ("7e3a65135998a54f371f882e298328bc6b9a98ca9520f7481833dcce8fd780ff", 7)),
    # The upper triangle is never read.
    (2, math.nan, (0, 1), ("49db38cea1d46839dabe28babd7c265eba0ebc506c67955c02765465a5ce158e", 243)),
]


@pytest.mark.parametrize("n, value, where, outcome", POISONED_SEARCHES)
def test_search_keeps_numpys_errors_and_restores_the_error_state(monkeypatch, n, value, where, outcome):
    monkeypatch.setattr(measstruct, "_eigh", _poisoned_eigh(value, where))
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


def _accepted_steps(bfgs, funs, x, nfev):
    """Trials the Armijo test accepts in one phase, found by replaying it:
    a budget that ends on an accepted trial returns that trial's point, one
    that ends on a rejected trial the point before it."""
    ends = [bfgs(*funs, x, k)[0].tobytes() for k in range(1, nfev + 1)]
    return sum(a != b for a, b in zip(ends, ends[1:]))


@pytest.mark.parametrize("config", [(2, 300, 0, 1), (3, 1500, 2, 1)])
def test_only_phase_starts_and_accepted_trials_form_the_gradient(monkeypatch, config):
    # G, the einsum, is what the gradient costs; a rejected trial needs its
    # value alone, while every evaluation is still one eigensolve.
    calls = {"eigh": 0, "einsum": 0}
    counting = [True]
    eigh, einsum, bfgs = measstruct._eigh, np.einsum, measstruct._bfgs

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += counting[0]
            return original(*args, **kwargs)
        return wrapper

    accepted = []

    def replayed(*args):
        out = bfgs(*args)
        counting[0] = False  # the replay runs while the phase's rho is bound
        accepted.append(_accepted_steps(bfgs, args[:-2], args[-2], out[2]))
        counting[0] = True
        return out

    monkeypatch.setattr(measstruct, "_eigh", counted("eigh", eigh))
    monkeypatch.setattr(np, "einsum", counted("einsum", einsum))
    monkeypatch.setattr(measstruct, "_bfgs", replayed)
    n, budget, seed, restarts = config
    result = search_max_c_ratio(n, budget=budget, seed=seed, restarts=restarts)
    assert calls["eigh"] == result.evaluations
    assert calls["einsum"] == len(accepted) + sum(accepted) < result.evaluations, (calls, accepted)


# A search, the _eigh call (1-based) its recorded run rejects as an Armijo
# trial, and the unpoisoned digest and evaluation count.
POISONED_REJECTED_TRIAL = (
    (2, 300, 0, 1), 120,
    ("49db38cea1d46839dabe28babd7c265eba0ebc506c67955c02765465a5ce158e", 243),
)


def test_a_rejected_trial_forms_no_gradient_that_could_raise(monkeypatch):
    # 1e305 at (0, 0) gives an eigenvalue whose r overflows the value to
    # inf, so the trial is rejected; its 2 rho r would overflow too, and
    # inf times an eigenvector's zero entry is nan, which the search's
    # error state raises as LinAlgError.  Never formed, it changes nothing.
    (n, budget, seed, restarts), call, outcome = POISONED_REJECTED_TRIAL
    spent = []
    bfgs = measstruct._bfgs

    def watched(*args):
        out = bfgs(*args)
        spent.append(out[2])
        return out

    monkeypatch.setattr(measstruct, "_bfgs", watched)
    search_max_c_ratio(n, budget=budget, seed=seed, restarts=restarts)
    monkeypatch.undo()
    starts = np.cumsum([0] + spent) + 1
    assert call not in starts
    before = search_max_c_ratio(n, budget=call - 1, seed=seed, restarts=restarts).to_record()
    ended = search_max_c_ratio(n, budget=call, seed=seed, restarts=restarts).to_record()
    assert json.dumps({**before, "budget": call}) == json.dumps(ended), "not a rejected trial"

    handed = [0]
    eigh = measstruct._eigh

    def poisoned(mat):
        handed[0] += 1
        if handed[0] == call:
            mat[0, 0] = 1e305
        return eigh(mat)

    monkeypatch.setattr(measstruct, "_eigh", poisoned)
    errors = np.geterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = search_max_c_ratio(n, budget=budget, seed=seed, restarts=restarts)
    digest = hashlib.sha256(json.dumps(result.to_record()).encode()).hexdigest()
    assert handed[0] == result.evaluations
    assert (digest, result.evaluations) == outcome
    assert caught == []
    assert np.geterr() == errors


def _scipy_lbfgsb(value, gradient, x, maxfev):
    """The oracle for measstruct._bfgs: scipy's L-BFGS-B on the same
    objective and gradient, to the same relative decrease."""
    from scipy.optimize import minimize

    res = minimize(lambda v: (value(v)[0], gradient()), x, jac=True, method="L-BFGS-B",
                   options={"maxfun": maxfev, "ftol": measstruct._FTOL, "gtol": 0.0})
    return res.x, value(res.x)[1], res.nfev


@pytest.mark.parametrize("n", [2, 3])
def test_search_reaches_scipys_lbfgsb_ratio(monkeypatch, n):
    for seed in (0, 1, 2):
        ours = search_max_c_ratio(n, seed=seed, restarts=2)
        with monkeypatch.context() as m:
            m.setattr(measstruct, "_bfgs", _scipy_lbfgsb)
            theirs = search_max_c_ratio(n, seed=seed, restarts=2)
        assert ours.feasible and theirs.feasible, seed
        assert abs(ours.ratio - theirs.ratio) <= 1e-6, (seed, ours.ratio, theirs.ratio)


def _seeded_search_configs(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (int(rng.integers(1, 4)), int(rng.integers(100, 1000)),
               int(rng.integers(0, 1_000_000)), int(rng.integers(1, 5)))


def test_search_with_numpys_eigh_gives_the_same_records(monkeypatch):
    configs = list(_seeded_search_configs(50, 2110))
    ours = [search_max_c_ratio(n, budget=b, seed=s, restarts=r) for n, b, s, r in configs]
    monkeypatch.setattr(measstruct, "_eigh", np.linalg.eigh)
    for (n, b, s, r), mine in zip(configs, ours):
        theirs = search_max_c_ratio(n, budget=b, seed=s, restarts=r)
        assert json.dumps(mine.to_record()) == json.dumps(theirs.to_record()), (n, b, s, r)
        assert mine.evaluations == theirs.evaluations, (n, b, s, r)
