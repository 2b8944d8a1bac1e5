"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Run under pytest, or directly (python3 tests/test_acceptance.py) for the
plain pass/fail listing.  Every expected number here is either computed
by an independent route inside the check or was frozen from one.
"""

import itertools
import math
import time

import numpy as np

from conftest import (
    distinguishable,
    find_permutation_witness,
    heisenberg_dense,
    oracle_conjugated,
    permute,
    pseudopure,
    reconstruct,
    satisfiability_gap,
    thermal_state,
    unitarily_equivalent,
)
from evqc.engine import (
    Decision,
    Resolution,
    b_matrix,
    cn_decide_thermal,
    dj_decide_lifted,
    expectations,
    s_functionals,
    trace_expectation,
)
from evqc.funcspace import (
    BoolFunc,
    canonical_balanced,
    constant_zero,
    imbalance,
    lift,
)
from evqc.adversary import cn_witness, min_queries, verify_adversary
from evqc.measstruct import (
    FEASIBILITY_TOL,
    InvariantForm,
    search_max_c_ratio,
)
from evqc.spinops import (
    Operator,
    single_spin,
    total_spin,
    w_projector,
)
from evqc.states import (
    DensityMatrix,
    SpinSystem,
    demo_system,
    pulsed_thermal,
    pure_w,
)
from evqc.timedomain import hamiltonian, signal, spectrum

THETA = 2e-8


def _verdict(idx, label, ok, detail):
    print(f"ACCEPTANCE {idx:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance check {idx} failed: {detail}"


def _brute_cn_masks(n):
    # raw class definition, reimplemented here on purpose
    size = 1 << n
    quarter = size // 4
    found = set()
    for mask in range(1 << size):
        table = [(mask >> j) & 1 for j in range(size)]
        for flavor in (table, [1 - b for b in table]):
            support = [j for j, b in enumerate(flavor) if b]
            if len(support) == quarter and all(
                bin(a ^ b).count("1") != 1
                for a, b in itertools.combinations(support, 2)
            ):
                found.add(mask)
                break
    return sorted(found)


def test_acceptance_01_square_law():
    worst = 0.0
    exact_ok = True
    start = time.monotonic()
    for n in (2, 3):
        m = w_projector(n)
        rho = pure_w(n)
        size = 1 << n
        for mask in range(1 << size):
            f = BoolFunc(n, mask)
            e = expectations(m, rho, [f])[0]
            worst = max(worst, abs(e - 4.0 * imbalance(f) ** 2 / size**2))
            if f.ones in (0, size):
                exact_ok = exact_ok and e == 1.0
            elif f.ones == size // 2:
                exact_ok = exact_ok and e == 0.0
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and exact_ok and elapsed < 10.0
    _verdict(
        1, "square law over all functions (n=2,3)", ok,
        f"max deviation {worst:.3g}, exact endpoints {exact_ok}, {elapsed:.2f}s",
    )


def test_acceptance_02_resolution_boundary():
    worst = 0.0
    flips_ok = True
    for n in range(1, 11):
        m = w_projector(n)
        rho_none = oracle_conjugated(pure_w(n), constant_zero(n))
        rho_one = oracle_conjugated(pure_w(n), BoolFunc(n, 1))
        direct = trace_expectation(m, rho_none) - trace_expectation(m, rho_one)
        worst = max(worst, abs(direct - satisfiability_gap(n)))
        for eps in (0.5, 0.1, 0.01):
            got = distinguishable(m, rho_none, rho_one, Resolution(eps))
            want = n < math.log2(4.0 / eps)
            flips_ok = flips_ok and got == want
    ok = worst <= 1e-12 and flips_ok
    _verdict(
        2, "single-solution gap and resolution cutoff (n=1..10)", ok,
        f"max gap deviation {worst:.3g}, cutoff matches {flips_ok}",
    )


def test_acceptance_03_coefficient_matrix_closed_form():
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in range(1, 5):
        size = 1 << n
        for _ in range(5):
            omega = 2.0 * np.pi * rng.uniform(300.0, 700.0, size=n)
            sys = SpinSystem(n=n, omega=omega, theta=THETA)
            b = b_matrix(pulsed_thermal(sys), total_spin(n, "x"))
            predicted = np.zeros((size, size), dtype=complex)
            for i in range(1, n + 1):
                predicted -= (THETA / (2 * size)) * omega[i - 1] * single_spin(n, i, "x").mat
            worst = max(worst, float(np.abs(b.mat - predicted).max()))
    ok = worst <= 1e-12
    _verdict(
        3, "pulsed-state coefficient matrix closed form (n<=4)", ok,
        f"max entry deviation {worst:.3g}",
    )


def test_acceptance_04_cn_class_reads_zero():
    sum_ok = True
    worst = 0.0
    for n in (2, 3):
        spins = [Operator(single_spin(n, j, "x").mat, hermitian=True) for j in range(1, n + 1)]
        for mask in _brute_cn_masks(n):
            f = BoolFunc(n, mask)
            for op in spins:
                val = abs(s_functionals(op, [f])[0])
                worst = max(worst, val)
                sum_ok = sum_ok and val <= 1e-12
    rng = np.random.default_rng(7)
    verdict_ok = True
    for _ in range(10):
        n = int(rng.integers(2, 4))
        omega = 2.0 * np.pi * rng.uniform(300.0, 700.0, size=n)
        sys = SpinSystem(n=n, omega=omega, theta=THETA)
        members = _brute_cn_masks(n)
        mask = members[int(rng.integers(0, len(members)))]
        v = cn_decide_thermal(BoolFunc(n, mask), sys, Resolution(1e-6))
        verdict_ok = verdict_ok and v.decided is Decision.NOT_CONSTANT and v.expectation == 0.0
    ok = sum_ok and verdict_ok
    _verdict(
        4, "every C_N member nulls each spin readout (n=2,3)", ok,
        f"max |sum| {worst:.3g}, verdicts clean {verdict_ok}",
    )


def test_acceptance_05_lifted_gap_size_independent():
    gaps = []
    balanced_exact = True
    brute_worst = 0.0
    for n_sys in range(2, 23):
        sys = demo_system(n_sys)
        bits = n_sys - 1
        v0 = dj_decide_lifted(constant_zero(bits), sys, Resolution(1e-9))
        vb = dj_decide_lifted(canonical_balanced(bits), sys, Resolution(1e-9))
        balanced_exact = balanced_exact and vb.expectation == 0.0
        gaps.append(abs(v0.expectation - vb.expectation))
        if n_sys > 8:
            continue

        # independent route, n_sys <= 8: raw double sum over the coefficient entries
        rho = pulsed_thermal(sys).mat
        mm = single_spin(n_sys, 1, "x").mat
        s = lift(constant_zero(bits)).signs()
        size = 1 << n_sys
        total = 0.0
        for j in range(size):
            for k in range(size):
                total += s[j] * s[k] * (mm[j, k] * rho[k, j]).real
        brute_worst = max(brute_worst, abs(abs(total) - gaps[-1]))
    derived = THETA * 2.0 * np.pi * 400.0 / 4.0
    spread = max(gaps) - min(gaps)
    ok = (
        spread <= 1e-12
        and balanced_exact
        and brute_worst <= 1e-12
        and abs(gaps[0] - derived) <= 1e-12
    )
    _verdict(
        5, "lifted readout gap constant across register sizes (n=2..22)", ok,
        f"gap {gaps[0]:.6g}, spread {spread:.3g}, brute-force deviation {brute_worst:.3g}",
    )


def test_acceptance_06_invariant_form_readout():
    rng = np.random.default_rng(2026)
    worst_pred = 0.0
    worst_perm = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        size = 1 << n
        alpha = float(rng.uniform(0.05, 1.0))
        form = InvariantForm(
            c=float(rng.standard_normal()) * 2.0,
            d=rng.standard_normal(size),
            a_upper=rng.standard_normal(size * (size - 1) // 2),
        )
        m = reconstruct(form)
        rho = pseudopure(n, alpha)
        f = BoolFunc(n, int(rng.integers(0, 1 << size)))
        e = expectations(m, rho, [f])[0]
        tr = form.c + form.d.sum()
        quad = 4.0 * form.c * imbalance(f) ** 2 / size + form.d.sum()
        predicted = (1.0 - alpha / size) * tr / size + (alpha / size**2) * quad
        worst_pred = max(worst_pred, abs(e - predicted))
        l, k = (int(v) for v in rng.choice(size, size=2, replace=False))
        worst_perm = max(worst_perm, abs(e - expectations(m, rho, [permute(f, l, k)])[0]))
    hit = find_permutation_witness(total_spin(2, "x"), pseudopure(2, 1.0))
    witness_ok = hit is not None
    ok = worst_pred <= 1e-10 and worst_perm <= 1e-10 and witness_ok
    _verdict(
        6, "invariant-form readout depends on (c, D, imbalance) only", ok,
        f"max prediction dev {worst_pred:.3g}, max transposition dev {worst_perm:.3g}, "
        f"counterexample for transverse readout found {witness_ok}",
    )


# The converged optimum of |c| / spectral range: (sqrt(5) - 1) / 2 at n = 2,
# and the values a scipy L-BFGS-B search on the same penalty reached at
# n = 3 and 4 from 10 restarts, and from 30 on another seed.
KNOWN_RATIOS = {1: 1.0, 2: (math.sqrt(5.0) - 1.0) / 2.0, 3: 0.556465998, 4: 0.527525232}


def test_acceptance_07_search_recovers_known_ratios():
    start = time.monotonic()
    results = {n: search_max_c_ratio(n) for n in KNOWN_RATIOS}
    elapsed = time.monotonic() - start
    ok = (
        all(
            r.feasible
            and r.penalty_residual < FEASIBILITY_TOL
            and abs(r.ratio - KNOWN_RATIOS[n]) <= 1e-6
            and r.ratio <= r.ratio_upper_bound
            for n, r in results.items()
        )
        and unitarily_equivalent(reconstruct(results[2].form), total_spin(2, "x"), tol=1e-5)
        and elapsed < 300.0
    )
    _verdict(
        7, "projector-weight search hits the known ratios", ok,
        ", ".join(f"n={n} ratio {r.ratio:.9f} (bound {r.ratio_upper_bound:.6f})"
                  for n, r in results.items())
        + f", n=2 residual {results[2].penalty_residual:.2g}, {elapsed:.1f}s",
    )


def test_acceptance_08_classical_lower_bound():
    ok_small = all(
        verify_adversary(n, trials=0, seed=0).failures == () for n in (2, 3)
    )
    big = verify_adversary(8, trials=1000, seed=0)
    table_ok = all(min_queries(n) == (1 << n) // 2 + 1 for n in range(2, 11))
    half_ok = True
    for n in (2, 3, 4):
        size = 1 << n
        w = cn_witness(n, range(size // 2))
        half_ok = half_ok and all(w(q) == 0 for q in range(size // 2))
    ok = ok_small and big.failures == () and table_ok and half_ok
    _verdict(
        8, "consistent witness survives half-domain questioning", ok,
        f"exhaustive n=2,3 clean {ok_small}, n=8 random trials clean "
        f"{big.failures == ()}, query table {table_ok}",
    )


def test_acceptance_09_free_evolution_signal():
    omega = 2.0 * np.pi * 500.0
    sys = SpinSystem(n=1, omega=np.array([omega]), theta=THETA)
    rho = pulsed_thermal(sys)
    h = hamiltonian(sys)
    m = single_spin(1, 1, "x")
    dt = 1e-4
    count = 64
    trace = signal(rho, h, m, dt, count)
    k = np.arange(count)
    closed = -(THETA * omega / 4.0) * np.cos(omega * k * dt)
    worst_closed = float(np.abs(trace.samples - closed).max())
    worst_dense = 0.0
    for kk in range(count):
        moved = heisenberg_dense(m, h, kk * dt)
        direct = float(np.trace(rho.mat @ moved.mat).real)
        worst_dense = max(worst_dense, abs(trace.samples[kk] - direct))
    flat = signal(thermal_state(sys), h, m, dt, count)
    flat_ok = bool(np.all(flat.samples == 0.0))
    _, mags = spectrum(trace)
    power_freq = sum(mag**2 for mag in mags.tolist())
    power_time = float(np.sum(trace.samples**2)) * count
    parseval_rel = abs(power_freq - power_time) / power_time
    ok = (
        worst_closed <= 1e-12
        and worst_dense <= 1e-12
        and flat_ok
        and parseval_rel <= 1e-9
    )
    _verdict(
        9, "free-evolution trace against closed form and dense route", ok,
        f"closed-form dev {worst_closed:.3g}, dense-route dev {worst_dense:.3g}, "
        f"thermal flat {flat_ok}, Parseval rel {parseval_rel:.3g}",
    )


def test_acceptance_10_dual_routes_never_drift():
    rng = np.random.default_rng(10**6 + 7)
    worst = 0.0
    worst_imag = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        size = 1 << n
        z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        m = Operator(0.5 * (z + z.conj().T), hermitian=True)
        zp = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        p = zp @ zp.conj().T
        rho = DensityMatrix(Operator(p / np.trace(p).real, hermitian=True))
        f = BoolFunc(n, int(rng.integers(0, 1 << size)))
        direct = expectations(m, rho, [f])[0]
        functional = s_functionals(b_matrix(rho, m), [f])[0]
        worst = max(worst, abs(direct - functional.real))
        worst_imag = max(worst_imag, abs(functional.imag))
    ok = worst <= 1e-10 and worst_imag <= 1e-10
    _verdict(
        10, "direct and functional routes agree on 1000 random triples", ok,
        f"max real dev {worst:.3g}, max imaginary residue {worst_imag:.3g}",
    )


ALL_CHECKS = [
    test_acceptance_01_square_law,
    test_acceptance_02_resolution_boundary,
    test_acceptance_03_coefficient_matrix_closed_form,
    test_acceptance_04_cn_class_reads_zero,
    test_acceptance_05_lifted_gap_size_independent,
    test_acceptance_06_invariant_form_readout,
    test_acceptance_07_search_recovers_known_ratios,
    test_acceptance_08_classical_lower_bound,
    test_acceptance_09_free_evolution_signal,
    test_acceptance_10_dual_routes_never_drift,
]


if __name__ == "__main__":
    import sys

    failures = 0
    for check in ALL_CHECKS:
        try:
            check()
        except AssertionError as err:
            failures += 1
            print(f"  -> {err}")
    sys.exit(1 if failures else 0)
