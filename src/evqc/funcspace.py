"""Boolean functions f: Z_N -> Z_2 and the promise classes built on them.

A function on an n-bit argument is stored as its full truth table, packed
little-endian into a Python integer: bit j of ``mask`` holds f(j).  That
gives O(1) evaluation, cheap complement via bit twiddling, and exact
hashing.  The unpacked table (one byte per argument) is built only
when `BoolFunc.bits` is called, so a function that is only counted,
compared, printed or transformed never pays for it.  All values are
immutable; every operation returns a new instance.

The bit-flip (hypercube-neighbour) rule lives here: argument a pairs with
a XOR 2**(n-i), spin i counted from the most significant bit.  One kernel,
`flip_differences`, finds the pairs that differ on the packed mask for the
whole program.  `flip_correlation` counts them into c_i for C_N
membership, the classifier, the adversary witness and the structured
readouts in `engine`; the matrix-free signal in `timedomain` counts them
per neighbour pattern.  Its test oracles, the halves count and the XOR
gather on the unpacked table, live in the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# Exhaustive class listings walk up to 2^(2^n) truth tables; past n = 4
# that is no longer a desk-scale job.
ENUMERATION_LIMIT = 4

# Widest truth table: 2^22 entries, a 4 MB bit table.  Checked before
# anything of size 2^n is built, so an oversized header costs nothing.
MAX_TABLE_N = 22


class FunctionClass(enum.Enum):
    """Promise classes told apart by the decision protocols."""

    CONSTANT = "Constant"
    BALANCED_W = "BalancedW"
    CLASS_CN = "ClassCN"
    OTHER = "Other"


# Writes a field of a frozen instance; bound once, outside the hot path.
_set = object.__setattr__

# (-1)**bit by lookup: one gather from the unpacked table, exactly +-1.0.
_SIGN_OF_BIT = np.array([1.0, -1.0])


@dataclass(frozen=True)
class BoolFunc:
    """Truth table of a boolean function on n-bit arguments.

    Parameters
    ----------
    n : int
        Number of argument bits; the domain is {0, ..., 2**n - 1}.
    mask : int
        Packed truth table, bit j = f(j).

    Construction checks n and mask only; `bits` and `signs` unpack the
    table on each call.

    Class walks build thousands of these, so the layout is slotted (no
    per-instance dict) and the constructor is written by hand: the one a
    frozen dataclass generates looks up ``object.__setattr__`` afresh for
    every field, where this one calls a module-bound copy.
    `__post_init__` stays the one validation, called on every
    construction.
    """

    __slots__ = ("n", "mask")

    n: int
    mask: int

    def __init__(self, n: int, mask: int) -> None:
        _set(self, "n", n)
        _set(self, "mask", mask)
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_width(self.n)
        if self.mask < 0 or self.mask.bit_length() > 1 << self.n:
            raise ValueError("mask does not fit a %d-entry truth table" % (1 << self.n))

    def __reduce__(self):
        # Rebuild through the constructor: a frozen slotted instance
        # cannot be unpickled by setting its fields.
        return BoolFunc, (self.n, self.mask)

    @property
    def size(self) -> int:
        """Domain size N = 2**n."""
        return 1 << self.n

    @property
    def ones(self) -> int:
        """Number of arguments mapped to 1."""
        return self.mask.bit_count()

    def __call__(self, j: int) -> int:
        if not 0 <= j < self.size:
            raise ValueError(f"argument {j} outside domain of size {self.size}")
        return (self.mask >> j) & 1

    def bits(self) -> np.ndarray:
        """Truth table as a read-only uint8 vector indexed by argument."""
        packed = np.frombuffer(self.mask.to_bytes((self.size + 7) // 8, "little"), dtype=np.uint8)
        table = np.unpackbits(packed, count=self.size, bitorder="little")
        table.setflags(write=False)
        return table

    def signs(self) -> np.ndarray:
        """(-1)**f(j) as a float vector, the diagonal of the oracle."""
        return _SIGN_OF_BIT[self.bits()]

    def __str__(self) -> str:
        # Binary digits print the highest argument first; reversed, f(0) leads.
        return format(self.mask, f"0{self.size}b")[::-1]


def _spelled_in(text: str, alphabet: bytes) -> bool:
    """Whether text is non-empty and uses only the ASCII characters of
    alphabet.  Deleting them must leave nothing; int() alone would also
    take "_", "+", "-" and non-ASCII digits."""
    return text.isascii() and text != "" and not text.encode("ascii").translate(None, alphabet)


def _is_ascii_int(text: str) -> bool:
    """Whether text is an optional "-" followed by ASCII digits."""
    return _spelled_in(text.removeprefix("-"), b"0123456789")


def parse_function(text: str) -> BoolFunc:
    """Parse the two-line truth-table format.

    Line one is ``n=<int>``; line two is either 2**n characters of 0/1
    with index 0 first, or a ``0x`` hex literal packing the table
    little-endian by argument index.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError("expected a header line and a table line")
    header = lines[0].replace(" ", "")
    if not (header.startswith("n=") and _spelled_in(header[2:], b"0123456789")):
        raise ValueError(f"malformed header {lines[0]!r}, expected 'n=<int>'")
    n = int(header[2:])
    _check_width(n)
    body = lines[1]
    size = 1 << n
    if body.lower().startswith("0x"):
        if not _spelled_in(body[2:], b"0123456789abcdefABCDEF"):
            raise ValueError(f"malformed hex table {body!r}")
        return BoolFunc(n, int(body[2:], 16))
    if len(body) != size:
        raise ValueError(f"table line has {len(body)} entries, expected {size}")
    if not _spelled_in(body, b"01"):
        raise ValueError("table line may only contain 0 and 1")
    # Reversed, the line is the mask's binary digits, highest argument first.
    return BoolFunc(n, int(body[::-1], 2))


def _check_width(n: int) -> None:
    """Reject an argument width outside 1..MAX_TABLE_N."""
    if not 1 <= n <= MAX_TABLE_N:
        raise ValueError(f"n={n} outside 1..{MAX_TABLE_N}, the range of truth-table widths and spin counts")


def _check_cn_width(n: int) -> None:
    """Reject a width where C_N is undefined (N/4 not a positive integer)
    or the truth table is too wide."""
    _check_width(n)
    if n < 2:
        raise ValueError(f"class C_N is undefined for n={n}; need n >= 2")


def mask_from_bits(bits) -> int:
    """Pack a 0/1 truth table, argument 0 first, into a mask (bit j = f(j)).

    O(N) through packbits and int.from_bytes; shifting bits one at a time
    into a growing integer would be O(N^2).
    """
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def mask_from_support(size: int, support) -> int:
    """Mask of the size-entry truth table that is 1 exactly on support,
    a sequence (list or array) of arguments."""
    bits = np.zeros(size, dtype=np.uint8)
    bits[np.asarray(support, dtype=np.intp)] = 1
    return mask_from_bits(bits)


def format_function(f: BoolFunc) -> str:
    return f"n={f.n}\n{f}\n"


def imbalance(f: BoolFunc) -> int:
    """Half the excess of ones over zeros: (#ones - #zeros) / 2.

    Always an integer because the domain size is even.  Balanced functions
    score 0, the constants score +-N/2.
    """
    return f.ones - f.size // 2


def complement(f: BoolFunc) -> BoolFunc:
    """Flip every table entry."""
    return BoolFunc(f.n, f.mask ^ ((1 << f.size) - 1))


# Bit k of argument a clear -> bit a of the pattern set: runs of 2**k ones
# and 2**k zeros.  Keyed by k, each pattern is kept at the widest table
# asked for so far, so every pattern serves all narrower tables too (an AND
# of two non-negative ints only walks the shorter one).  At most
# MAX_TABLE_N patterns of at most 2**MAX_TABLE_N bits: one register's worth.
# A pattern depends on k alone, so two threads racing here only build it twice.
_CLEAR_PATTERNS: dict[int, tuple[int, int]] = {}


def _clear_pattern(k: int, size: int) -> int:
    """At least size bits of the mask whose bit a is set exactly when bit k
    of a is clear; built by doubling and cached per k."""
    pattern, width = _CLEAR_PATTERNS.get(k) or ((1 << (1 << k)) - 1, 2 << k)
    while width < size:
        pattern |= pattern << width
        width *= 2
    _CLEAR_PATTERNS[k] = pattern, width
    return pattern


def flip_differences(f: BoolFunc, i: int) -> int:
    """Mask of the arguments a whose bit i (1-based from the most
    significant) is clear and whose neighbour a XOR 2**(n-i) holds the
    other value: (m XOR (m >> 2**(n-i))) AND P, with P the arguments whose
    bit n-i is clear, in one pass over the packed mask."""
    if not 1 <= i <= f.n:
        raise ValueError(f"spin {i} outside 1..{f.n}")
    shift = f.n - i
    return (f.mask ^ (f.mask >> (1 << shift))) & _clear_pattern(shift, f.size)


def flip_correlation(f: BoolFunc, i: int) -> int:
    """c_i = sum_j s_j s_(j XOR 2**(n-i)) for s = (-1)**f, an exact integer.

    Every unordered pair enters c_i twice, +1 when equal and -1 when not,
    so c_i = N - 4 * (pairs that differ).
    """
    return f.size - 4 * flip_differences(f, i).bit_count()


def is_in_cn(f: BoolFunc) -> bool:
    """Membership in the class C_N.

    A function belongs when it, or its complement, maps exactly N/4
    arguments to 1 with no two of those arguments at Hamming distance 1.
    With N/4 ones that holds exactly when every bit-flip correlation c_i
    vanishes: c_i = N - 4 * (pairs along bit i holding a 0 and a 1), and
    each of the N/4 ones sits in such a pair unless its neighbour is a
    one too.  Complementing leaves every c_i unchanged.  Undefined below
    n = 2 (N/4 would not be a positive integer).
    """
    _check_cn_width(f.n)
    if f.ones not in (f.size // 4, 3 * f.size // 4):
        return False
    return all(flip_correlation(f, i) == 0 for i in range(1, f.n + 1))


def classify(f: BoolFunc) -> FunctionClass:
    """Assign the promise class, checking Constant, then BalancedW, then C_N.

    The first two never overlap with C_N (N/4 ones is neither 0, N/2,
    nor N), so the priority order is a formality.
    """
    if f.ones in (0, f.size):
        return FunctionClass.CONSTANT
    if f.ones == f.size // 2:
        return FunctionClass.BALANCED_W
    if f.n >= 2 and is_in_cn(f):
        return FunctionClass.CLASS_CN
    return FunctionClass.OTHER


def lift(f: BoolFunc) -> BoolFunc:
    """Extend f by one argument bit, fixing the new upper half to 0.

    The output g on n+1 bits satisfies g(j) = f(j) for j < 2**n and
    g(j) = 0 above.  In the packed representation the mask is unchanged.
    """
    return BoolFunc(f.n + 1, f.mask)


def enumerate_class(n: int, cls: FunctionClass) -> Iterator[BoolFunc]:
    """Yield every member of a class once, in lexicographic truth-table order.

    Constants enumerate at any n; the other classes walk subsets of the
    domain and are capped at n <= ENUMERATION_LIMIT.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if cls is FunctionClass.CONSTANT:
        yield constant_zero(n)
        yield constant_one(n)
        return
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"exhaustive enumeration of {cls.value} is capped at n={ENUMERATION_LIMIT}"
        )
    size = 1 << n
    if cls is FunctionClass.BALANCED_W:
        # Read with f(0) as the most significant bit, a table is its mask
        # with the size bits reversed, and reversal keeps the number of
        # ones.  So the balanced tables counted upwards (16 bits at most,
        # as n <= ENUMERATION_LIMIT), each reversed, are the members in
        # truth-table order.
        tables = np.arange(1 << size, dtype=np.uint32)
        tables = tables[np.bitwise_count(tables) == size // 2]
        masks = np.zeros_like(tables)
        for j in range(size):
            masks |= ((tables >> j) & 1) << (size - 1 - j)
        for mask in masks.tolist():
            yield BoolFunc(n, mask)
        return
    if cls is FunctionClass.CLASS_CN:
        _check_cn_width(n)
        full = (1 << size) - 1
        members = (BoolFunc(n, m) for q in _spread_quarters(n) for m in (q, full ^ q))
    else:
        members = filter(lambda f: classify(f) is cls, (BoolFunc(n, m) for m in range(1 << size)))
    # str lists f(0), f(1), ... : truth-table order.
    yield from sorted(members, key=str)


def _spread_quarters(n: int) -> Iterator[int]:
    """Masks of every N/4-argument set with no two arguments at Hamming
    distance 1, as a walk that adds argument j only when none of its
    neighbours j ^ 2**b is chosen already."""
    size = 1 << n
    neighbours = [sum(1 << (j ^ (1 << b)) for b in range(n)) for j in range(size)]

    def walk(start: int, chosen: int, blocked: int, left: int) -> Iterator[int]:
        if not left:
            yield chosen
            return
        for j in range(start, size - left + 1):
            if not (blocked >> j) & 1:
                yield from walk(j + 1, chosen | (1 << j), blocked | neighbours[j], left - 1)

    return walk(0, 0, 0, size // 4)


def _even_parity_mask(k: int) -> int:
    """Mask of the arguments below 2**k that have an even number of set bits."""
    # The even-parity arguments below 2^(j+1) are those below 2^j followed
    # by the odd-parity ones shifted up by 2^j, and vice versa.
    even, odd = 1, 0
    for j in range(k):
        even, odd = even | (odd << (1 << j)), odd | (even << (1 << j))
    return even


def sample_cn(n: int, seed: int) -> BoolFunc:
    """Draw a C_N member by choosing N/4 arguments of even bit parity.

    Arguments of equal parity sit at even Hamming distances, so distance 1
    never occurs and membership is guaranteed by construction.  The draw is
    uniform over even-parity subsets and fully determined by the seed.
    """
    _check_cn_width(n)
    size = 1 << n
    rng = np.random.default_rng(seed)
    even = np.flatnonzero(BoolFunc(n, _even_parity_mask(n)).bits().view(bool))
    picked = rng.choice(even, size=size // 4, replace=False)
    return BoolFunc(n, mask_from_support(size, picked))


def constant_zero(n: int) -> BoolFunc:
    return BoolFunc(n, 0)


def constant_one(n: int) -> BoolFunc:
    _check_width(n)
    return BoolFunc(n, (1 << (1 << n)) - 1)


def canonical_balanced(n: int) -> BoolFunc:
    """The balanced representative with ones on the lower half of the domain."""
    _check_width(n)
    return BoolFunc(n, (1 << ((1 << n) // 2)) - 1)


def canonical_cn(n: int) -> BoolFunc:
    """The C_N representative with ones on the first N/4 even-parity
    arguments: the even-parity arguments of the lower half of the domain."""
    _check_cn_width(n)
    return BoolFunc(n, _even_parity_mask(n - 1))
