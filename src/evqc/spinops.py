"""Dense operators for n coupled spin-1/2 nuclei.

One index rule builds every spin operator: spin i (1..n) is bit n-i of the
index, so spin 1 is the most significant.  Iz_i sits on the diagonal, +1/2
where that bit is 0; Ix_i and Iy_i sit only at (a, a XOR 2**(n-i)).  Every
matrix is dense and complex; n up to 12 stays within desk-scale memory.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from evqc.funcspace import BoolFunc

MAX_DENSE_N = 12

# Rows per block in _float_table, and entries per gather in _lay_out:
# together they bound the arrays the formatter holds at once.
_TABLE_BLOCK_ROWS = 4096
_GATHER_ROWS = 256

# Finite %.17g entries in this range take the digit route: every 10**q it
# needs, and both halves of each, stays a normal double.
_DIGIT_MIN, _DIGIT_MAX = 1e-230, 1e250
_POW_LOW, _POW_HIGH = -240, 260
_LOG10_2 = math.log10(2.0)

# Source bytes of one %.17g entry, 8 little-endian uint32 words: the lead
# digit d0 at byte 3 (byte 0 is always "0"), d1..d16 at bytes 4..19, the
# exponent's hundreds, tens and units at 21..23, then "-.e+" and NULs.
_G_ZERO, _G_LEAD, _G_EXP, _G_MINUS, _G_POINT, _G_E, _G_PLUS, _G_NUL = 0, 3, 21, 24, 25, 26, 27, 28
_G_FIXED = np.frombuffer(b"-.e+\0\0\0\0", np.uint32)
_G_WIDTH = 24  # longest %.17g text: "-4.9406564584124654e-324"
_G_BLANK = 25 * 17 * 2  # template rows: exponent slot x last significant digit x sign, then blank
# Texts that need no digits, by kind 2 * isinf + signbit, then nan.
_G_PLAIN = np.frombuffer(b"".join(t.ljust(_G_WIDTH, b"\0") for t in (b"0", b"-0", b"inf", b"-inf", b"nan")),
                         np.uint8).reshape(-1, _G_WIDTH)


class _Tables(NamedTuple):
    quads: np.ndarray  # ASCII digits of 0..9999, one uint32 word each
    zeros: np.ndarray  # trailing zeros of 0..9999, 4 for 0
    is_zero: np.ndarray  # 1 for 0, else 0
    hi: np.ndarray  # the double nearest 10**q, q in _POW_LOW.._POW_HIGH
    hi_hi: np.ndarray  # hi split in halves of 26 bits
    hi_lo: np.ndarray
    lo: np.ndarray  # 10**q - hi, rounded: hi + lo is 10**q to about 2**-106
    at_least: np.ndarray  # the least double >= 10**q
    exp_quads: np.ndarray  # the quads word of |q|
    slots: np.ndarray  # the exponent slot of E = q, as _g_template takes it
    g_rows: np.ndarray  # template rows of %.17g, keyed as in _g17_texts


def _g_template(slot: int, last: int, neg: bool) -> list[int]:
    """Source bytes of the %.17g text with exponent slot (E + 4 for the
    fixed form, -4 <= E <= 16; 21 + 2 * (E < 0) + (|E| >= 100) for the
    e form), last significant digit d_last and the given sign."""
    digit = [_G_LEAD + k for k in range(17)]
    text = [_G_MINUS] if neg else []
    if slot >= 21:
        e_neg, wide = divmod(slot - 21, 2)
        fraction = [_G_POINT, *digit[1:last + 1]] if last else []
        exp = [_G_EXP, _G_EXP + 1, _G_EXP + 2][1 - wide:]
        text += [digit[0], *fraction, _G_E, _G_MINUS if e_neg else _G_PLUS, *exp]
    elif slot < 4:
        text += [_G_ZERO, _G_POINT] + [_G_ZERO] * (3 - slot) + digit[:last + 1]
    else:
        e = slot - 4
        text += digit[:e + 1] + ([_G_POINT, *digit[e + 1:last + 1]] if last > e else [])
    return text


@functools.cache
def _format_tables() -> _Tables:
    """The formatter's tables, built on first use.  Python's int / int is
    correctly rounded, which makes hi and lo exact to the last bit."""
    pairs = [f"{i:02d}" for i in range(100)]
    quads = np.frombuffer("".join(a + b for a in pairs for b in pairs).encode(), np.uint32)
    pair_zeros = [2 - len(pair.rstrip("0")) for pair in pairs]
    zeros = np.array([pair_zeros[b] if b else 2 + pair_zeros[a] for a in range(100) for b in range(100)])
    is_zero = np.zeros(10000, np.int64)
    is_zero[0] = 1
    hi, lo, at_least = [], [], []
    for q in range(_POW_LOW, _POW_HIGH + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        top = num / den
        a, b = top.as_integer_ratio()
        rest = (num * b - a * den) / (den * b)
        hi.append(top)
        lo.append(rest)
        at_least.append(math.nextafter(top, math.inf) if rest > 0 else top)
    hi = np.array(hi)
    g_rows = [_g_template(*key) for key in itertools.product(range(25), range(17), (0, 1))] + [[]]
    g_rows = np.array([row + [_G_NUL] * (_G_WIDTH - len(row)) for row in g_rows], np.uint8)
    exp_quads = quads[[abs(q) for q in range(_POW_LOW, _POW_HIGH + 1)]]
    slots = np.array([q + 4 if -4 <= q <= 16 else 21 + 2 * (q < 0) + (abs(q) >= 100)
                      for q in range(_POW_LOW, _POW_HIGH + 1)])
    return _Tables(quads, zeros, is_zero, hi, *_split(hi), np.array(lo), np.array(at_least), exp_quads,
                   slots, g_rows)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of x into halves of at most 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    high = c - (c - x)
    return high, x - high


def _lay_out(words: np.ndarray, templates: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Row i of the result is the bytes of words[i] that template row
    key[i] picks: one gather per _GATHER_ROWS entries."""
    flat = words.view(np.uint8).ravel()
    out = np.empty((len(key), templates.shape[1]), np.uint8)
    for start in range(0, len(key), _GATHER_ROWS):
        picks = np.take(templates, key[start:start + _GATHER_ROWS], axis=0)
        idx = picks + (words.shape[1] * 4 * np.arange(start, start + len(picks)))[:, None]
        np.take(flat, idx, out=out[start:start + len(idx)], mode="clip")
    return out


def _g17_one(x: float) -> str:
    """One entry the digit route leaves to the per-entry %."""
    return "%.17g" % x


def _exponent10(a: np.ndarray, t: _Tables) -> np.ndarray:
    """floor(log10 a) exactly, for positive a in the table's range."""
    # With a = m * 2**k, 1/2 <= m < 1, log10 a lies in [(k - 1) log10 2,
    # k log10 2), so E is the estimate below or one more; a >= at_least[j]
    # holds exactly when a >= 10**j.
    e = np.floor(np.frexp(a)[1] * _LOG10_2 - _LOG10_2).astype(np.int64)
    return e + (a >= t.at_least[e + 1 - _POW_LOW])


def _decimal17(a: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E = floor(log10 a) and the 17 digits D = round(a * 10**(16 - E)) of
    the magnitudes a, and whether D is sure to be exact and below 10**17."""
    e = _exponent10(a, t)
    # a * 10**(16 - E) lies in [1e16, 1e17).  Dekker's product gives
    # p + err = a * hi exactly, p is an even integer there, and s below is
    # off by under 1e-14, so round(p + s) is exact unless the fraction of s
    # lies within 1e-9 of 1/2.
    q = 16 - e - _POW_LOW
    b_hi, b_lo = t.hi_hi[q], t.hi_lo[q]
    a_hi, a_lo = _split(a)
    p = a * t.hi[q]
    s = a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo) + a * t.lo[q]
    whole = np.floor(s)
    s -= whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (s > 0.5)
    # D reaches 10**17 only from p == 1e17, the even integer next to it.
    return e, d, (np.abs(s - 0.5) > 1e-9) & (p < 1e17)


def _split_digits(v: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """v // unit and v % unit for non-negative int64 v and a power of ten
    unit; v - v % unit is a double exactly for every v the formatter
    splits, so true division gives the quotient."""
    low = v % unit
    return ((v - low) / unit).astype(np.int64), low


def _g17_words(e: np.ndarray, d: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """The source words of each (E, D) and the index of D's last
    significant digit."""
    lead, rest = _split_digits(d, 10**16)
    upper, lower = _split_digits(rest, 10**8)
    groups = [*_split_digits(upper, 10**4), *_split_digits(lower, 10**4)]
    words = np.empty((d.size, 8), np.uint32)
    words[:, 0] = t.quads[lead]
    for col, g in enumerate(groups, 1):
        words[:, col] = t.quads[g]
    words[:, 5] = t.exp_quads[e - _POW_LOW]
    words[:, 6:] = _G_FIXED
    # Trailing zeros of d1..d16: a group's own, plus those after it when
    # it is all zeros.
    zeros = t.zeros[groups[0]]
    for g in groups[1:]:
        zeros = t.zeros[g] + t.is_zero[g] * zeros
    return words, 16 - zeros


def _g17_texts(x: np.ndarray) -> np.ndarray:
    """The %.17g texts of the float vector x, NUL-padded to _G_WIDTH bytes."""
    t = _format_tables()
    out = _G_PLAIN.take(np.where(np.isnan(x), 4, 2 * np.isinf(x) + np.signbit(x)), axis=0)
    ax = np.abs(x)
    sel = np.flatnonzero((ax >= _DIGIT_MIN) & (ax <= _DIGIT_MAX))
    e, d, ok = _decimal17(ax[sel], t)
    words, last = _g17_words(e, d, t)
    key = np.where(ok, (t.slots[e - _POW_LOW] * 17 + last) * 2 + (x[sel] < 0), _G_BLANK)
    out[sel] = _lay_out(words, t.g_rows, key)
    fallback = np.isfinite(x) & (x != 0)
    fallback[sel[ok]] = False
    for j in np.flatnonzero(fallback):
        text = np.frombuffer(_g17_one(float(x[j])).encode("ascii"), np.uint8)
        out[j] = 0
        out[j, :text.size] = text
    return out


def _float_table(header: str, row: str, columns) -> str:
    """header, then row with its %.17g conversions filled in once per
    index of the equal-length float columns: byte for byte the text of
    (row * len) % values.  The trace and spectrum CSVs and the operator
    dump come from here; a whole number below 10**17 gets neither point
    nor exponent.

    Each block of rows lays every field out as NUL-padded text and joins
    the block with one boolean compress.  An entry x with
    1e-230 <= |x| <= 1e250 takes the digit route: E = floor(log10 |x|),
    settled exactly against a table of 10**q, and the 17 digits
    D = round(|x| * 10**(16 - E)) from a double-double product, written
    through 4-digit lookups and placed by one gather from a template row
    keyed by sign, last significant digit and exponent slot.  Signed
    zeros, infinities and nan take their fixed texts from a table, with
    no digit work.  An entry goes to the per-entry "%.17g" % x only when
    it is subnormal, |x| lies outside that range, the fraction of
    |x| * 10**(16 - E) lies within 1e-9 of 1/2 (a decimal tie or
    near-tie), or D rounds up to 10**17."""
    literals = [np.frombuffer(lit.encode("ascii"), np.uint8) for lit in row.split("%.17g")]
    parts = [header]
    for start in range(0, len(columns[0]), _TABLE_BLOCK_ROWS):
        block = [np.asarray(c[start:start + _TABLE_BLOCK_ROWS], dtype=float) for c in columns]
        rows = len(block[0])
        pieces = [np.broadcast_to(literals[0], (rows, literals[0].size))]
        for col, lit in zip(block, literals[1:]):
            pieces += [_g17_texts(col), np.broadcast_to(lit, (rows, lit.size))]
        text = np.concatenate(pieces, axis=1)
        parts.append(str(text[text != 0], "ascii"))
    return "".join(parts)


def is_hermitian(mat: np.ndarray) -> bool:
    """Whether mat equals its conjugate transpose to within
    1e-10 * max(1, max|M|); a non-finite matrix never does."""
    top = float(np.abs(mat).max(initial=0.0))
    if not math.isfinite(top):
        return False
    return bool(np.abs(mat - mat.conj().T).max() <= 1e-10 * max(1.0, top))


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable dense operator.

    Hermiticity is decided here, once: the hermitian field always holds
    is_hermitian(mat), and every consumer reads it.  Passing hermitian=True
    demands it, so a non-hermitian matrix is then refused.
    """

    mat: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ValueError(f"operator matrix must be square and non-empty, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        hermitian = is_hermitian(mat)
        if self.hermitian and not hermitian:
            raise ValueError("hermitian flag set on a non-hermitian matrix")
        object.__setattr__(self, "hermitian", hermitian)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.mat))


def _check_register(n: int) -> None:
    if not 1 <= n <= MAX_DENSE_N:
        raise ValueError(f"register size n={n} outside dense range 1..{MAX_DENSE_N}")


def _check_function(f: BoolFunc, n: int) -> None:
    if f.n != n:
        raise ValueError(f"function on {f.n} bits does not match {n} spins")


def _check_spins(spins, n: int) -> tuple[int, ...]:
    spins = tuple(spins)
    if not spins or any(not 1 <= i <= n for i in spins):
        raise ValueError(f"spins {spins} must be a nonempty selection from 1..{n}")
    return spins


def spin_z_column(n: int, i: int) -> np.ndarray:
    """Diagonal of Iz for spin i: +1/2 where bit i (counted from the most
    significant) is 0, else -1/2."""
    idx = np.arange(1 << n)
    return 0.5 - ((idx >> (n - i)) & 1).astype(float)


def _transverse_sum(n: int, terms, axis: str) -> np.ndarray:
    """sum_i w_i I^axis_i over the (i, w_i) pairs, axis x or y, in one zeroed
    matrix: entry (a, a XOR 2**(n-i)) gets w_i / 2 as its real part for x, or
    -w_i Iz_i(a) as its imaginary part for y.  No two spins share an entry."""
    mat = np.zeros((1 << n, 1 << n), dtype=complex)
    rows = np.arange(1 << n)
    for i, w in terms:
        part, value = (mat.real, w * 0.5) if axis == "x" else (mat.imag, -w * spin_z_column(n, i))
        part[rows, rows ^ (1 << (n - i))] = value
    return mat


def single_spin(n: int, i: int, axis: str) -> Operator:
    """Angular momentum component of spin i embedded in an n-spin register.

    Spins are numbered 1..n from the most significant bit.
    """
    _check_register(n)
    if not 1 <= i <= n:
        raise ValueError(f"spin index {i} outside 1..{n}")
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    if axis == "z":
        return Operator(np.diag(spin_z_column(n, i)))
    return Operator(_transverse_sum(n, [(i, 1.0)], axis))


def total_spin(n: int, axis: str) -> Operator:
    """Transverse total angular momentum, the sum of all single-spin terms."""
    _check_register(n)
    if axis not in ("x", "y"):
        raise ValueError(f"total transverse component is defined for x, y; got {axis!r}")
    return Operator(_transverse_sum(n, [(i, 1.0) for i in range(1, n + 1)], axis))


def w_projector(n: int) -> Operator:
    """Projector onto the uniform superposition; every entry is 1/N."""
    _check_register(n)
    size = 1 << n
    return Operator(np.full((size, size), 1.0 / size, dtype=complex))


def require_hermitian(m: Operator, what: str) -> None:
    """Raise unless m is hermitian, as its construction decided."""
    if not m.hermitian:
        raise ValueError(f"{what} requires a hermitian operator")


def operator_text(m: Operator) -> str:
    """The dump format: dimension header, then row-major re,im pairs."""
    flat = m.mat.reshape(-1)
    return _float_table(f"{m.dim}\n", "%.17g,%.17g\n", (flat.real, flat.imag))

