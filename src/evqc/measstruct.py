"""Structure of measurements whose readout survives argument relabeling.

A hermitian measurement gives permutation-invariant readouts on the
pseudopure family exactly when it splits as c * W + D + A with W the
uniform-superposition projector, D real diagonal and A pure-imaginary
antisymmetric; only c and D ever reach the readout.  This module
decomposes such operators, spot-checks the invariance, screens
necessary spectral conditions, and searches for the largest attainable
|c| relative to the spectral range under a fixed reference spectrum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from evqc.engine import expectations
from evqc.funcspace import BoolFunc, mask_from_bits, permute
from evqc.spinops import Operator, eig_multiset, require_hermitian, total_spin
from evqc.states import DensityMatrix

FEASIBILITY_TOL = 1e-6  # eigenvalue-match gate for accepted candidates
SEARCH_N_LIMIT = 3

_MU_SCHEDULE = (1.0, 1e-1, 1e-2, 1e-3)


class NotInvariantFormError(ValueError):
    """The symmetrized off-diagonal entries are not uniform."""


@dataclass(frozen=True, eq=False)
class InvariantForm:
    """Parameters (c, D, A) of a permutation-invariant measurement.

    A is stored by the imaginary parts of its strictly upper triangle,
    row-major.
    """

    c: float
    d: np.ndarray
    a_upper: np.ndarray

    def __post_init__(self) -> None:
        d = np.array(self.d, dtype=float)
        if d.ndim != 1 or d.size < 2:
            raise ValueError("diagonal part must be a vector of length >= 2")
        a = np.array(self.a_upper, dtype=float)
        want = d.size * (d.size - 1) // 2
        if a.shape != (want,):
            raise ValueError(f"antisymmetric part needs {want} entries, got {a.shape}")
        d.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a_upper", a)
        object.__setattr__(self, "c", float(self.c))

    @property
    def dim(self) -> int:
        return self.d.size

    def reconstruct(self) -> Operator:
        """Assemble the hermitian matrix c * W + diag(d) + A."""
        return Operator(_assembler(self.dim)(self.c, self.d, self.a_upper))


def _assembler(size: int):
    """assemble(c, d, a_upper) -> c * W + diag(d) + A for one dimension.

    The indices and the complex buffer are made once; every call writes
    the real and imaginary parts of the same buffer through views, with
    no complex temporary and no read-back, and returns it.  The diagonal's
    imaginary part is never written and stays 0.  A caller that keeps the
    matrix past the next call must copy it (Operator and zheevd both do).
    """
    rows, cols = np.triu_indices(size, 1)
    diag = np.arange(size) * (size + 1)
    upper = rows * size + cols
    lower = cols * size + rows
    mat = np.zeros((size, size), dtype=complex)
    flat = mat.reshape(-1)
    re, im = flat.real, flat.imag

    def assemble(c: float, d: np.ndarray, a_upper: np.ndarray) -> np.ndarray:
        w = c / size
        re.fill(w)
        re[diag] = w + d
        # 0.0 + a and 0.0 - a: a -0.0 in a_upper gives +0.0 on both sides.
        im[upper] = 0.0 + a_upper
        im[lower] = 0.0 - a_upper
        return mat

    return assemble


def _eigensolver():
    """eigvalsh(mat) -> ascending eigenvalues of a hermitian matrix.

    Calls LAPACK's zheevd, the routine np.linalg.eigvalsh runs, on the
    lower triangle, without numpy's per-call wrapper; the values are the
    same bits.  scipy.linalg.lapack is imported here, as it comes with
    scipy.optimize, which only the search loads.
    """
    from scipy.linalg.lapack import zheevd

    def eigvalsh(mat: np.ndarray) -> np.ndarray:
        vals, _, info = zheevd(mat, compute_v=0, lower=1)
        if info:
            raise np.linalg.LinAlgError(f"Eigenvalues did not converge (zheevd info={info})")
        return vals

    return eigvalsh


def decompose_invariant(m: Operator, tol: float = 1e-8) -> InvariantForm:
    """Split a hermitian operator into the invariant form, or refuse.

    The symmetrized off-diagonal entries must agree within tol; their
    common value fixes c, the diagonal fixes D, and what remains is the
    antisymmetric imaginary part.
    """
    mat = m.mat
    size = m.dim
    if size < 2:
        raise ValueError("need dimension >= 2")
    require_hermitian(m, "decompose_invariant")
    rows, cols = np.triu_indices(size, 1)
    sym = (mat + mat.T)[rows, cols]
    # Hermitian input makes these real up to rounding.
    vals = sym.real
    spread = float(vals.max() - vals.min())
    if spread > tol:
        lo = int(np.argmin(vals))
        hi = int(np.argmax(vals))
        raise NotInvariantFormError(
            "symmetrized off-diagonal entries are not uniform: "
            f"entry ({rows[lo]},{cols[lo]}) gives {vals[lo]:.6g} but "
            f"({rows[hi]},{cols[hi]}) gives {vals[hi]:.6g} (spread {spread:.3g} > tol {tol:g})"
        )
    c = size * float(vals.mean()) / 2.0
    d = np.diag(mat).real - c / size
    a_upper = mat[rows, cols].imag.copy()
    return InvariantForm(c=c, d=d, a_upper=a_upper)


def check_permutation_invariance(
    m: Operator,
    rho: DensityMatrix,
    trials: int,
    seed: int,
    tol: float | None = None,
) -> bool:
    """Randomized check that readouts ignore argument transpositions.

    Draws random functions and transpositions; returns False on the first
    readout pair that differs beyond tol.  The state must belong to the
    pseudopure family, which is what the invariance statement covers.
    """
    tol = _invariance_tol(m, rho, tol)
    n_bits = (m.dim - 1).bit_length()
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        f = BoolFunc(n_bits, mask_from_bits(rng.integers(0, 2, size=m.dim)))
        l, k = map(int, rng.choice(m.dim, size=2, replace=False))
        e, e_permuted = expectations(m, rho, [f, permute(f, l, k)])
        if abs(e - e_permuted) > tol:
            return False
    return True


def find_permutation_witness(
    m: Operator,
    rho: DensityMatrix,
    tol: float | None = None,
) -> tuple[BoolFunc, int, int] | None:
    """Exhaustive hunt for a transposition that shifts some readout.

    Returns (f, l, k) for the first violation in truth-table order, or
    None when every readout is invariant.  Only sensible at small n.
    """
    tol = _invariance_tol(m, rho, tol)
    size = m.dim
    n_bits = (size - 1).bit_length()
    pairs = list(itertools.combinations(range(size), 2))
    for mask in range(1 << size):
        f = BoolFunc(n_bits, mask)
        base, *permuted = expectations(m, rho, [f] + [permute(f, l, k) for l, k in pairs])
        for (l, k), e in zip(pairs, permuted):
            if abs(base - e) > tol:
                return f, l, k
    return None


def _invariance_tol(m: Operator, rho: DensityMatrix, tol: float | None) -> float:
    """Refuse a state outside the pseudopure family, which is what the
    invariance statement covers; return tol, by default 1e-10 * max(1, max|M|)."""
    mat = rho.mat
    off = mat - np.diag(np.diag(mat))
    rows, cols = np.triu_indices(mat.shape[0], 1)
    off_vals = mat[rows, cols]
    diag_vals = np.diag(mat)
    uniform = (
        np.abs(off_vals - off_vals[0]).max(initial=0.0) <= 1e-12
        and np.abs(diag_vals - diag_vals[0]).max() <= 1e-12
        and np.abs(off.imag).max() <= 1e-12
    )
    if not uniform:
        raise ValueError("permutation invariance is only claimed for pseudopure-family states")
    return 1e-10 * max(1.0, float(np.abs(m.mat).max(initial=0.0))) if tol is None else tol


@dataclass(frozen=True, eq=False)
class NecessaryConditionsReport:
    """Spectral screening of a candidate against a reference operator."""

    trace_value: float
    trace_ok: bool
    det_checks: tuple[tuple[float, float, bool], ...]  # (lambda, |det(M - lambda)|, ok)
    passed: bool


def necessary_conditions(m: Operator, reference: Operator, tol: float) -> NecessaryConditionsReport:
    """Check the trace and the vanishing of det(M - lambda) for each
    reference eigenvalue.

    Necessary but not sufficient for unitary equivalence: multiplicities
    are not compared.
    """
    vals_m = eig_multiset(m)
    vals_ref = eig_multiset(reference)
    trace_value = float(np.trace(m.mat).real)
    trace_ok = abs(trace_value - float(np.trace(reference.mat).real)) <= tol
    checks = []
    for lam in vals_ref:
        det = float(np.prod(vals_m - lam))
        checks.append((float(lam), abs(det), abs(det) <= tol))
    passed = trace_ok and all(ok for _, _, ok in checks)
    return NecessaryConditionsReport(
        trace_value=trace_value,
        trace_ok=trace_ok,
        det_checks=tuple(checks),
        passed=passed,
    )


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best candidate from one search run, feasible or not."""

    n: int
    ratio: float
    form: InvariantForm
    penalty_residual: float  # max abs eigenvalue deviation from the reference
    budget: int
    seed: int
    evaluations: int
    feasible: bool

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "ratio": self.ratio,
            "c": self.form.c,
            "D": [float(v) for v in self.form.d],
            "A_upper": [float(v) for v in self.form.a_upper],
            "penalty_residual": self.penalty_residual,
            "budget": self.budget,
            "seed": self.seed,
            "feasible": self.feasible,
        }


def _split_params(x: np.ndarray, size: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(c, d, a_upper) from the search vector, projected to zero trace."""
    c = float(x[0])
    dx = x[1 : 1 + size]
    # Zero-trace projection: shift the diagonal, leaving c alone.
    return c, dx - (c + dx.sum()) / size, x[1 + size :]


def search_max_c_ratio(
    n: int,
    budget: int = 100_000,
    seed: int = 0,
    restarts: int = 50,
) -> SearchResult:
    """Search for the largest |c| / spectral-range over operators sharing
    the total-transverse-spin spectrum.

    Random-restart derivative-free refinement of a penalty objective
    (eigenvalue mismatch squared minus mu times the ratio) over the
    invariant-form parameters, with a decreasing mu schedule and a final
    feasibility polish.  Same seed, same result, bit for bit.
    """
    if not 1 <= n <= SEARCH_N_LIMIT:
        raise ValueError(f"search supports 1 <= n <= {SEARCH_N_LIMIT}")
    if budget < 100:
        raise ValueError("budget too small to do anything")
    if restarts < 1:
        raise ValueError("need at least one restart")
    # Imported here, after the checks: scipy.optimize takes tens of MB and
    # most of a second to load, and no other evqc command needs it.
    from scipy.optimize import minimize

    size = 1 << n
    target = eig_multiset(total_spin(n, "x"))
    rng = np.random.default_rng(seed)
    n_params = 1 + size + size * (size - 1) // 2
    phase_budget = max(60, budget // (restarts * (len(_MU_SCHEDULE) + 2)))
    polish_budget = 2 * phase_budget

    assemble = _assembler(size)
    eigvalsh = _eigensolver()

    def assess(x: np.ndarray) -> tuple[float, float, np.ndarray]:
        # Runs once per objective evaluation: no InvariantForm, no Operator.
        c, d, a = _split_params(x, size)
        vals = eigvalsh(assemble(c, d, a))
        r = vals - target
        mism = float(np.add.reduce(r * r))
        spread = float(vals[-1] - vals[0])
        return mism, abs(c) / max(spread, 1e-12), vals

    evaluations = 0
    best = None  # (rank, ratio, form, residual) of the preferred candidate

    for restart in range(restarts):
        if evaluations >= budget:
            break
        x = rng.standard_normal(n_params) * (0.5 * n)
        for mu in _MU_SCHEDULE:

            def penalty(v: np.ndarray, weight: float = mu) -> float:
                mism, ratio, _ = assess(v)
                return mism - weight * ratio

            res = minimize(
                penalty,
                x,
                method="Powell",
                options={"maxfev": phase_budget, "xtol": 1e-10, "ftol": 1e-12},
            )
            x = res.x
            evaluations += res.nfev
        res = minimize(
            lambda v: assess(v)[0],
            x,
            method="Powell",
            options={"maxfev": polish_budget, "xtol": 1e-13, "ftol": 1e-15},
        )
        x = res.x
        evaluations += res.nfev

        _, ratio, vals = assess(x)
        residual = float(np.abs(vals - target).max())
        feasible = residual < FEASIBILITY_TOL
        # The best feasible ratio, else the smallest residual; a tie keeps the first.
        rank = (feasible, ratio if feasible else -residual)
        if best is None or rank > best[0]:
            best = rank, ratio, InvariantForm(*_split_params(x, size)), residual

    assert best is not None  # restarts >= 1 always yields a candidate
    (feasible, _), ratio, form, residual = best
    return SearchResult(
        n=n,
        ratio=ratio,
        form=form,
        penalty_residual=residual,
        budget=budget,
        seed=seed,
        evaluations=evaluations,
        feasible=feasible,
    )
