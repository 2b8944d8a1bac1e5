"""Structure of measurements whose readout survives argument relabeling.

A hermitian measurement gives permutation-invariant readouts on the
pseudopure family exactly when it splits as c * W + D + A with W the
uniform-superposition projector, D real diagonal and A pure-imaginary
antisymmetric; only c and D ever reach the readout.  This module holds
that form's parameters and searches for the largest attainable |c|
relative to the spectral range under a fixed reference spectrum; the
decomposition and the dense reconstruction are test oracles.

The search refines with `_powell`, an exact port of scipy 1.17.1's
Powell method, so it runs on numpy alone and its bits no longer depend
on the installed scipy.  Each evaluation (`_evaluator`) fills only the
lower triangle LAPACK reads and calls `_eigvalsh`, the gufunc behind
np.linalg.eigvalsh, in one error state per search, so a non-convergent
eigensolve still raises LinAlgError; each line search writes its trial
points in place and reuses the value at its start.  A line search along
a unit coordinate direction e_i writes its start's matrix once, and each
trial rewrites only what coordinate i moves: for an a_jk its one
imaginary entry 0.0 - (p_i + alpha), for a d_j the zero-trace diagonal,
for c every real part; mismatch sums run in Python floats in numpy's
add.reduce order.  No bit moves: what LAPACK reads takes the same
operations in the same order, every other entry of p + alpha * e_i is
p's own when p holds no -0.0 and alpha is finite (any other trial takes
the full route), and a value is reused only at the point it was
computed for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from evqc.spinops import eig_multiset, total_spin

FEASIBILITY_TOL = 1e-6  # eigenvalue-match gate for accepted candidates
SEARCH_N_LIMIT = 3

_MU_SCHEDULE = (1.0, 1e-1, 1e-2, 1e-3)

# np.linalg.eigvalsh's gufunc, UPLO="L", which reads the lower triangle only:
# complex128 picks the same D->d loop, so the same bits, with no wrapper.
_eigvalsh = _umath_linalg.eigvalsh_lo


def _raise_nonconvergence(err: str, flag: int) -> None:
    """The error np.linalg.eigvalsh raises when LAPACK flags invalid."""
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
    """(c, d, a_upper) from the search vector; the diagonal is shifted to
    zero trace, leaving c alone."""
    c = float(x[0])
    dx = x[1 : 1 + size]
    return c, dx - (c + np.add.reduce(dx)) / size, x[1 + size :]


def _sum(v: list) -> float:
    """np.add.reduce of 2 to 8 float64 entries in Python floats, in numpy's
    order: one after another below 8 entries, pairwise at 8."""
    if len(v) == 8:
        return ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]))
    s = v[0]
    for e in v[1:]:
        s += e
    return s


def _evaluator(size: int, target: np.ndarray):
    """(assess, line) for one dimension and reference spectrum.

    assess(x) -> (mismatch, ratio, eigenvalues) gives the bits _split_params,
    the dense c * W + diag(d) + A and np.linalg.eigvalsh give, writing only
    the lower triangle.
    line(p, i) -> at(alpha) gives assess(p + alpha * e_i) to the bit when p
    holds no -0.0 and alpha is finite.  Then every entry but i is p's, so
    p's matrix is written once, into a buffer of the line's own, and each
    trial rewrites only what coordinate i moves.
    """
    rows, cols = np.triu_indices(size, 1)
    lower = cols * size + rows
    t = target.tolist()
    neg = np.empty(rows.size)

    def buffer():
        mat = np.zeros((size, size), dtype=complex)
        re, im = mat.reshape(-1).real, mat.reshape(-1).imag
        return mat, re, im, re[:: size + 1]

    def write(x: np.ndarray, re: np.ndarray, im: np.ndarray, diag: np.ndarray) -> float:
        """x's lower triangle through a buffer's views; returns c."""
        c = x.item(0)
        re.fill(c / size)
        dx = x[1 : 1 + size]
        np.add(np.subtract(dx, (c + np.add.reduce(dx)) / size, out=diag), c / size, out=diag)
        im[lower] = np.subtract(0.0, x[1 + size :], out=neg)  # -0.0 in a gives +0.0
        return c

    def scored(vals: np.ndarray, c: float) -> tuple[float, float, np.ndarray]:
        v = vals.tolist()
        return _sum([(e - f) * (e - f) for e, f in zip(v, t)]), abs(c) / max(v[-1] - v[0], 1e-12), vals

    mat, *views = buffer()
    line_mat, line_re, line_im, line_diag = buffer()

    def assess(x: np.ndarray) -> tuple[float, float, np.ndarray]:
        c = write(x, *views)
        return scored(_eigvalsh(mat), c)

    def line(p: np.ndarray, i: int):
        c = write(p, line_re, line_im, line_diag)
        start = p.item(i)
        if i > size:  # a_jk: its one imaginary entry below the diagonal
            k = int(lower[i - 1 - size])

            def at(alpha: float) -> tuple[float, float, np.ndarray]:
                line_im[k] = 0.0 - (start + alpha)
                return scored(_eigvalsh(line_mat), c)

        elif i > 0:  # d_j: the zero-trace diagonal
            d, j, w = p[1 : 1 + size].tolist(), i - 1, c / size

            def at(alpha: float) -> tuple[float, float, np.ndarray]:
                d[j] = start + alpha
                shift = (c + _sum(d)) / size
                line_diag[:] = [(e - shift) + w for e in d]
                return scored(_eigvalsh(line_mat), c)

        else:  # c: every real part
            dx = p[1 : 1 + size].copy()
            total = np.add.reduce(dx).item()

            def at(alpha: float) -> tuple[float, float, np.ndarray]:
                c = start + alpha
                line_re.fill(c / size)
                np.add(np.subtract(dx, (c + total) / size, out=line_diag), c / size, out=line_diag)
                return scored(_eigvalsh(line_mat), c)

        return at

    return assess, line


def _penalty(assess, line, weight: float | None):
    """The search objective mismatch - weight * ratio (the mismatch alone for
    weight None) at a vector, carrying its coordinate line for _powell."""

    def score(mism: float, ratio: float, vals: np.ndarray) -> float:
        return mism if weight is None else mism - weight * ratio

    def penalty(x: np.ndarray) -> float:
        return score(*assess(x))

    def coordinate(p: np.ndarray, i: int):
        at = line(p, i)
        return lambda alpha: score(*at(alpha))

    penalty.line = coordinate
    return penalty


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
    feasibility polish.  Each refinement is `_powell`, an exact port of
    scipy 1.17.1's Powell method, so the result depends on numpy alone:
    same seed, same result, bit for bit, whichever scipy is installed.

    The budget is checked only between restarts.  Each of the four mu
    phases may spend max(60, budget // (6 * restarts)) evaluations and the
    polish twice that, so one restart runs up to 6 * max(60, budget //
    (6 * restarts)): n = 2, budget 100 and one restart spend 360.

    The restarts run in the error state np.linalg.eigvalsh sets around
    its gufunc: invalid calls `_raise_nonconvergence`, while overflow,
    division by zero and underflow pass silently.
    """
    if not 1 <= n <= SEARCH_N_LIMIT:
        raise ValueError(f"search supports 1 <= n <= {SEARCH_N_LIMIT}")
    if budget < 100:
        raise ValueError("budget too small to do anything")
    if restarts < 1:
        raise ValueError("need at least one restart")

    size = 1 << n
    target = eig_multiset(total_spin(n, "x"))
    rng = np.random.default_rng(seed)
    n_params = 1 + size + size * (size - 1) // 2
    phase_budget = max(60, budget // (restarts * (len(_MU_SCHEDULE) + 2)))
    polish_budget = 2 * phase_budget

    assess, line = _evaluator(size, target)  # no InvariantForm, no Operator per evaluation
    evaluations = 0
    best = None  # (rank, ratio, form, residual) of the preferred candidate

    with np.errstate(
        call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        for restart in range(restarts):
            if evaluations >= budget:
                break
            x = rng.standard_normal(n_params) * (0.5 * n)
            for mu in _MU_SCHEDULE:
                x, nfev = _powell(_penalty(assess, line, mu), x, phase_budget, xtol=1e-10, ftol=1e-12)
                evaluations += nfev
            x, nfev = _powell(_penalty(assess, line, None), x, polish_budget, xtol=1e-13, ftol=1e-15)
            evaluations += nfev

            _, ratio, vals = assess(x)
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


# Powell's method, ported from scipy 1.17.1 (scipy.optimize._optimize:
# _minimize_powell, _linesearch_powell, _recover_from_bracket_error,
# bracket and Brent.optimize) for the unbounded case with maxfev, xtol and
# ftol set.  The operations and their order are scipy's, so every search
# gives the bits scipy.optimize.minimize(method="Powell") gives; the tests
# hold the port to that oracle.  Scalars are Python floats, which give
# the same IEEE results as scipy's np.float64 scalars for + - * /, abs and
# comparisons.  Only division by zero differs (np.float64 warns, a float
# raises), and it cannot arise: bracket's denominator is at least 2e-21 in
# magnitude, and Brent divides by tmp2 only when p lies strictly between
# tmp2 * (a - x) and tmp2 * (b - x), which is empty when tmp2 == 0.

_GOLD = 1.618034  # bracket's growth factor, (1 + sqrt(5)) / 2
_VERYSMALL = 1e-21
_GROW_LIMIT = 110.0
_BRACKET_MAXITER = 1000
_CG = 0.3819660  # Brent's golden-section fraction, (3 - sqrt(5)) / 2
_MINTOL = 1.0e-11
_BRENT_MAXITER = 500


class _BudgetSpent(Exception):
    """The objective was asked for an evaluation past maxfev."""


def _powell(fun, x0: np.ndarray, maxfev: int, xtol: float, ftol: float) -> tuple[np.ndarray, int]:
    """Minimise fun from x0 by Powell's method; return (x, evaluations).

    scipy's minimize(fun, x0, method="Powell", options={"maxfev": maxfev,
    "xtol": xtol, "ftol": ftol}) with no bounds: iterations are unlimited,
    and a call past maxfev is refused, which ends the search at the last
    completed point.  fun takes a float vector it must neither modify nor
    keep, and returns a float that depends on the vector's bits alone; it
    may carry a coordinate line, fun.line (see _linesearch_powell).
    """
    nfev = 0

    def func(x, known: float | None = None, f=fun) -> float:
        nonlocal nfev  # a known value is counted, not recomputed
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return f(x) if known is None else known

    func.line = getattr(fun, "line", None)  # see _linesearch_powell

    x = np.array(x0, dtype=float)
    direc = np.eye(x.size)
    tol = xtol * 100
    fval = func(x)
    x1 = x.copy()
    try:
        while True:
            fx = fval
            bigind = 0
            delta = 0.0
            for i in range(x.size):
                fx2 = fval
                fval, x, _ = _linesearch_powell(func, x, direc[i], tol, fval)
                if (fx2 - fval) > delta:
                    delta = fx2 - fval
                    bigind = i
            bnd = ftol * (abs(fx) + abs(fval)) + 1e-20
            if 2.0 * (fx - fval) <= bnd:
                break
            if nfev >= maxfev:
                break
            if math.isnan(fx) and math.isnan(fval):
                break  # ended up in a nan region
            # The extrapolated point.
            direc1 = x - x1
            x1 = x.copy()
            x2 = x + direc1
            fx2 = func(x2)
            if fx > fx2:
                t = 2.0 * (fx + fx2 - 2.0 * fval)
                temp = fx - fval - delta
                t *= temp * temp
                temp = fx - fx2
                t -= delta * temp * temp
                if t < 0.0:
                    fval, x, direc1 = _linesearch_powell(func, x, direc1, tol, fval)
                    if direc1.any():
                        direc[bigind] = direc[-1]
                        direc[-1] = direc1
    except _BudgetSpent:
        pass
    return x, nfev


def _linesearch_powell(func, p: np.ndarray, xi: np.ndarray, tol: float, fval: float):
    """(f, p + alpha * xi, alpha * xi) at Brent's minimum along xi; a zero
    direction returns (fval, p, xi) with no evaluation.  Trial points are
    written in place; the first, alpha = 0, takes fval when it is p to the
    bit and fval is p's value (every fval but a failed line search's nan).

    When xi is a unit vector e_i, that start is p to the bit exactly when p
    holds no -0.0, and then so is every entry but i of a trial at finite
    alpha.  An objective with a line, fun.line(p, i) -> at(alpha) giving
    fun(p + alpha * e_i) to the bit there, is evaluated by at, counted by
    func(alpha, None, at); every other trial is evaluated as fun(trial)."""
    if not xi.any():
        return fval, p, xi
    trial = np.add(p, np.multiply(0.0, xi))
    same = trial.tobytes() == p.tobytes()
    known = fval if same and not math.isnan(fval) else None
    at = None
    if same and getattr(func, "line", None) is not None:
        i = int(xi.argmax())
        unit = np.zeros(xi.size)
        unit[i] = 1.0
        if xi.tobytes() == unit.tobytes():
            at = func.line(p, i)

    def along(alpha: float, value: float | None = None) -> float:
        if value is None:
            if at is not None and math.isfinite(alpha):
                return func(alpha, None, at)
            np.add(p, np.multiply(alpha, xi, out=trial), out=trial)
        return func(trial, value)

    alpha, fret = _brent(along, tol, known)
    xi = alpha * xi
    return fret, p + xi, xi


def _brent(func, tol: float, f0: float | None = None) -> tuple[float, float]:
    """(x, f(x)) at Brent's minimum of a scalar function, from the bracket
    that starts at 0 and 1; a failed bracket gives its best point (nan
    when any point or value is nan); f0 is passed on to _bracket."""
    xa, xb, xc, fa, fb, fc = _bracket(func, f0)
    valid = (
        ((fb < fc and fb <= fa) or (fb < fa and fb <= fc))
        and (xa < xb < xc or xc < xb < xa)
        and math.isfinite(xa) and math.isfinite(xb) and math.isfinite(xc)
    )
    if not valid:
        xs, fs = [xa, xb, xc], [fa, fb, fc]
        if any(math.isnan(v) for v in xs + fs):
            return math.nan, math.nan
        imin = int(np.argmin(fs))
        return xs[imin], fs[imin]
    x = w = v = xb
    fw = fv = fx = fb
    if xa < xc:
        a, b = xa, xc
    else:
        a, b = xc, xa
    deltax = 0.0
    # rat is bound before its first use: deltax starts at 0 <= tol1, so the
    # first iteration takes the golden-section step.
    for _ in range(_BRENT_MAXITER):
        tol1 = tol * abs(x) + _MINTOL
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if abs(deltax) <= tol1:
            deltax = a - x if x >= xmid else b - x  # golden-section step
            rat = _CG * deltax
        else:  # parabolic step
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if (p > tmp2 * (a - x)) and (p < tmp2 * (b - x)) and (abs(p) < abs(0.5 * tmp2 * dx_temp)):
                rat = p * 1.0 / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = _CG * deltax
        if abs(rat) < tol1:  # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = func(u)
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if (fu <= fw) or (w == x):
                v, w = w, u
                fv, fw = fw, fu
            elif (fu <= fv) or (v == x) or (v == w):
                v = u
                fv = fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
    return x, fx


def _bracket(func, f0: float | None = None) -> tuple[float, float, float, float, float, float]:
    """(xa, xb, xc, fa, fb, fc): three points walked downhill from 0 and 1
    until f(xc) no longer falls below f(xb).  They need not bracket a
    minimum; past _BRACKET_MAXITER steps the walk raises RuntimeError.
    A known f(0) goes to func as func(0.0, f0)."""
    xa, xb = 0.0, 1.0
    fa = func(xa, f0)
    fb = func(xb)
    if fa < fb:  # switch so fa > fb
        xa, xb = xb, xa
        fa, fb = fb, fa
    xc = xb + _GOLD * (xb - xa)
    fc = func(xc)
    iteration = 0
    while fc < fb:
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        denom = 2.0 * _VERYSMALL if abs(val) < _VERYSMALL else 2.0 * val
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + _GROW_LIMIT * (xc - xb)
        if iteration > _BRACKET_MAXITER:
            raise RuntimeError("no valid bracket was found before the iteration limit was reached")
        iteration += 1
        if (w - xc) * (xb - w) > 0.0:
            fw = func(w)
            if fw < fc:
                xa, xb = xb, w
                fa, fb = fb, fw
                break
            elif fw > fb:
                xc = w
                fc = fw
                break
            w = xc + _GOLD * (xc - xb)
            fw = func(w)
        elif (w - wlim) * (wlim - xc) >= 0.0:
            w = wlim
            fw = func(w)
        elif (w - wlim) * (xc - w) > 0.0:
            fw = func(w)
            if fw < fc:
                xb = xc
                xc = w
                w = xc + _GOLD * (xc - xb)
                fb = fc
                fc = fw
                fw = func(w)
        else:
            w = xc + _GOLD * (xc - xb)
            fw = func(w)
        xa, xb, xc = xb, xc, w
        fa, fb, fc = fb, fc, fw
    return xa, xb, xc, fa, fb, fc
