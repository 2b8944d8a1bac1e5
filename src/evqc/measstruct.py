"""Structure of measurements whose readout survives argument relabeling.

A hermitian measurement gives permutation-invariant readouts on the
pseudopure family exactly when it splits as c * W + D + A with W the
uniform-superposition projector, D real diagonal and A pure-imaginary
antisymmetric; only c and D ever reach the readout.  This module holds
that form's parameters and searches for the largest attainable |c|
relative to the spectral range under a fixed reference spectrum; the
decomposition and the dense reconstruction are test oracles.

The search minimises -c + rho * sum_k (lambda_k - t_k)^2 by a dense BFGS
on the exact gradient, for an increasing rho.  Each evaluation
(`_evaluator`) fills only the lower triangle of one reused buffer and
calls `_eigh`, the gufunc behind np.linalg.eigh, in one error state per
search, so a non-convergent eigensolve still raises LinAlgError.  It runs
on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

FEASIBILITY_TOL = 1e-6  # eigenvalue-match gate for accepted candidates
SEARCH_N_LIMIT = 4

_RHO_SCHEDULE = (1.0, 1e1, 1e2, 1e3, 1e4, 1e6, 1e8)  # penalty weight per phase
_FTOL = 1e-15  # a phase ends once a step lowers the objective by no more than this, relatively
_ARMIJO = 1e-4  # sufficient-decrease fraction of the backtracking line search

# np.linalg.eigh's gufunc, UPLO="L", which reads the lower triangle only:
# complex128 picks the same D->dD loop, so the same bits, with no wrapper.
_eigh = _umath_linalg.eigh_lo


def _raise_nonconvergence(err: str, flag: int) -> None:
    """The error np.linalg.eigh raises when LAPACK flags invalid."""
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


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

    @property
    def ratio_upper_bound(self) -> float:
        """N / (2(N - 1)), which no feasible ratio exceeds.

        M and its transpose have the same spectrum, so by Ky Fan's
        inequality the real part cW + D of M = cW + D + A has a spectrum
        majorised by Fx's.  Its top eigenvalue is at least u†(cW + D)u =
        c(N - 1)/N for the uniform vector u, because tr D = -c, and it
        cannot exceed Fx's top eigenvalue n/2.  The spectral range is n,
        so |c|/n <= N/(2(N - 1)).  D = -(c/N) I reaches it for the real
        part alone; the gap to the optimum is the part no imaginary
        antisymmetric A can complete.
        """
        size = 1 << self.n
        return size / (2 * (size - 1))

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "ratio": self.ratio,
            "ratio_upper_bound": self.ratio_upper_bound,
            "c": self.form.c,
            "D": [float(v) for v in self.form.d],
            "A_upper": [float(v) for v in self.form.a_upper],
            "penalty_residual": self.penalty_residual,
            "budget": self.budget,
            "seed": self.seed,
            "feasible": self.feasible,
        }


def _fx_spectrum(n: int) -> np.ndarray:
    """Total x spin of n spin-1/2, ascending: k - n/2 with multiplicity C(n, k)."""
    return np.repeat(np.arange(n + 1) - n / 2, [math.comb(n, k) for k in range(n + 1)])


def _split_params(x: np.ndarray, size: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(c, d, a_upper) from the search vector; the diagonal is shifted to
    zero trace, leaving c alone."""
    c = float(x[0])
    dx = x[1 : 1 + size]
    return c, dx - (c + np.add.reduce(dx)) / size, x[1 + size :]


def _evaluator(size: int, target: np.ndarray):
    """evaluate(x, rho) -> (objective, gradient, eigenvalues) for one
    dimension and reference spectrum.

    The matrix is the one _split_params and the dense c * W + diag(d) + A
    give, written into the lower triangle of one reused buffer.  With
    r = lambda - t and G = sum_k 2 r_k v_k v_k^dagger, the objective
    -c + rho * r.r has the gradient rho * (Re sum G - tr G) / N - 1 in c,
    rho * (G_jj - tr G / N) in d_j and 2 rho * Im G_jk in a_jk (j < k).
    """
    rows, cols = np.triu_indices(size, 1)
    lower, upper = cols * size + rows, rows * size + cols
    mat = np.zeros((size, size), dtype=complex)
    re, im = mat.reshape(-1).real, mat.reshape(-1).imag
    diag = re[:: size + 1]

    def evaluate(x: np.ndarray, rho: float) -> tuple[float, np.ndarray, np.ndarray]:
        c = x.item(0)
        re.fill(c / size)
        dx = x[1 : 1 + size]
        np.add(np.subtract(dx, (c + np.add.reduce(dx)) / size, out=diag), c / size, out=diag)
        im[lower] = 0.0 - x[1 + size :]  # -0.0 in a gives +0.0
        vals, vecs = _eigh(mat)
        r = vals - target
        # einsum's own loops, not BLAS zgemm: nothing else a search runs
        # calls zgemm, whose code adds about 0.3 MB resident.
        g = np.einsum("jk,lk->jl", vecs * (2.0 * rho * r), vecs.conj())
        g_diag = g.real.diagonal()
        trace = g_diag.sum()
        grad = np.empty(x.size)
        grad[0] = (g.real.sum() - trace) / size - 1.0
        grad[1 : 1 + size] = g_diag - trace / size
        grad[1 + size :] = 2.0 * g.imag.reshape(-1)[upper]
        return rho * np.dot(r, r) - c, grad, vals

    return evaluate


def _bfgs(fun, x: np.ndarray, maxfev: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Minimise fun(x) -> (value, gradient, eigenvalues) from x; return
    (x, its eigenvalues, evaluations), never evaluating more than maxfev >= 1.

    A dense inverse Hessian H, scaled to (s.y / y.y) I at its first update
    and left alone when s.y <= 0, gives the direction -H g (-g before the
    first update).  Armijo backtracking halves the step from 1.  The run
    ends when a step lowers the value by no more than _FTOL relatively,
    when the direction does not descend (a zero or nan gradient), or when
    the budget is spent, keeping the last accepted point.
    """
    f, g, vals = fun(x)
    nfev = 1
    h = None
    while nfev < maxfev:
        p = -g if h is None else -(h @ g)
        slope = np.dot(g, p)
        if not slope < 0.0:
            break
        t = 1.0
        while True:
            x_new = x + t * p
            f_new, g_new, vals_new = fun(x_new)
            nfev += 1
            if f_new <= f + _ARMIJO * t * slope:
                break
            if nfev == maxfev:
                return x, vals, nfev  # spent inside the line search
            t *= 0.5
        s, y = x_new - x, g_new - g
        done = f - f_new <= _FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g, vals = x_new, f_new, g_new, vals_new
        if done:
            break
        sy = np.dot(s, y)
        if sy > 0.0:
            if h is None:
                h = np.eye(x.size) * (sy / np.dot(y, y))
            hy = h @ y
            h += ((sy + np.dot(y, hy)) / (sy * sy)) * np.outer(s, s) - (np.outer(hy, s) + np.outer(s, hy)) / sy
    return x, vals, nfev


def search_max_c_ratio(
    n: int,
    budget: int = 100_000,
    seed: int = 0,
    restarts: int = 10,
) -> SearchResult:
    """Search for the largest |c| / spectral-range over operators sharing
    the total-transverse-spin spectrum.

    Each restart draws a seeded start and runs `_bfgs` on the penalty
    objective -c + rho * sum (lambda_k - t_k)^2 over the invariant-form
    parameters, once for each rho of _RHO_SCHEDULE, each phase from where
    the last ended.  Same seed, same result, bit for bit.

    The budget counts every evaluation: no call spends more than budget.
    Restarts run while any is left, and the one it runs out in is scored
    at its last accepted point.

    The restarts run in the error state np.linalg.eigh sets around its
    gufunc: invalid calls `_raise_nonconvergence`, while overflow,
    division by zero and underflow pass silently.
    """
    if not 1 <= n <= SEARCH_N_LIMIT:
        raise ValueError(f"search supports 1 <= n <= {SEARCH_N_LIMIT}")
    if budget < 100:
        raise ValueError("budget too small to do anything")
    if restarts < 1:
        raise ValueError("need at least one restart")

    size = 1 << n
    target = _fx_spectrum(n)
    rng = np.random.default_rng(seed)
    n_params = 1 + size + size * (size - 1) // 2
    evaluate = _evaluator(size, target)  # no InvariantForm, no Operator per evaluation
    evaluations = 0
    best = None  # (rank, ratio, form, residual) of the preferred candidate

    with np.errstate(
        call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        for restart in range(restarts):
            if evaluations >= budget:
                break
            x = rng.standard_normal(n_params) * (0.5 * n)
            for rho in _RHO_SCHEDULE:
                if evaluations >= budget:
                    break
                x, vals, nfev = _bfgs(lambda v: evaluate(v, rho), x, budget - evaluations)
                evaluations += nfev

            c = x.item(0)
            ratio = abs(c) / max(float(vals[-1] - vals[0]), 1e-12)
            residual = float(np.abs(vals - target).max())
            feasible = residual < FEASIBILITY_TOL
            # The best feasible ratio, else the smallest residual; a tie keeps the first.
            rank = (feasible, ratio if feasible else -residual)
            if best is None or rank > best[0]:
                best = rank, ratio, InvariantForm(*_split_params(x, size)), residual

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
