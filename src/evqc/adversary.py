"""Adversary argument for the classical query lower bound.

A deterministic classical solver that has asked at most half the domain,
and has heard only 0, cannot yet rule out either answer: the all-zero
constant is trivially consistent, and this module constructs a member of
C_N that is consistent too.  Hence 2**(n-1) + 1 queries are required.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from evqc.funcspace import BoolFunc, _check_cn_width, is_in_cn, mask_from_bits, mask_from_support

EXHAUSTIVE_LIMIT = 3  # all query sets of size N/2 are walked up to here


def cn_witness(n: int, queried) -> BoolFunc:
    """A C_N member that answers 0 on every queried argument.

    queried is any iterable of arguments (a set, tuple, list, range or
    numpy integer array); repeats count once.  Works whenever at most
    half the domain has been queried: the unqueried arguments are split
    by Hamming-distance parity from the smallest one; the larger side has
    at least N/4 elements, pairwise at even distance, and the first N/4
    of them carry the ones.
    """
    _check_cn_width(n)
    size = 1 << n
    if not isinstance(queried, np.ndarray):
        queried = np.fromiter(queried, dtype=np.int64)
    queried = queried.astype(np.int64, copy=False)
    if queried.size and (queried.min() < 0 or queried.max() >= size):
        raise ValueError("queried indices outside the domain")
    asked = np.zeros(size, dtype=bool)
    asked[queried] = True
    count = int(np.count_nonzero(asked))
    if count > size // 2:
        raise ValueError(
            f"{count} queries exceed half the domain; no consistent witness is guaranteed"
        )
    unchecked = np.flatnonzero(~asked)
    parity = np.bitwise_count(unchecked ^ unchecked[0]) & 1
    even, odd = unchecked[parity == 0], unchecked[parity == 1]
    side = even if len(even) >= len(odd) else odd
    witness = BoolFunc(n, mask_from_support(size, side[: size // 4]))
    # The construction guarantees both properties.  An explicit raise, not
    # an assert, so that the check still runs under python -O.  The queries
    # are checked by one AND of masks: a shift of the whole table per query
    # would be quadratic in N.
    if not is_in_cn(witness) or witness.mask & mask_from_bits(asked):
        raise AssertionError(
            f"witness for queries {np.flatnonzero(asked).tolist()} is not a consistent C_N member"
        )
    return witness


def min_queries(n: int) -> int:
    """Queries any deterministic classical solver needs in the worst case."""
    _check_cn_width(n)
    return 2 ** (n - 1) + 1


@dataclass(frozen=True)
class AdversaryReport:
    n: int
    trials: int
    failures: tuple
    exhaustive: bool

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "failures": [list(f) for f in self.failures],
            "exhaustive": self.exhaustive,
        }


def verify_adversary(n: int, trials: int, seed: int) -> AdversaryReport:
    """Confirm the witness construction over many query sets.

    Exhausts all query sets of size N/2 for n <= EXHAUSTIVE_LIMIT, then
    adds random sets of random size up to N/2.  A failure records the
    offending query set; an empty list is the expected outcome.
    """
    _check_cn_width(n)
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    size = 1 << n
    failures = []
    exhaustive = n <= EXHAUSTIVE_LIMIT
    if exhaustive:
        for combo in itertools.combinations(range(size), size // 2):
            if not _witness_ok(n, combo):
                failures.append(tuple(combo))
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        count = int(rng.integers(0, size // 2 + 1))
        combo = rng.choice(size, size=count, replace=False)
        if not _witness_ok(n, combo):
            failures.append(tuple(combo.tolist()))
    return AdversaryReport(n=n, trials=trials, failures=tuple(failures), exhaustive=exhaustive)


def _witness_ok(n: int, queried) -> bool:
    """Whether the construction holds for one query set; an error that is
    not the construction's own check propagates."""
    try:
        cn_witness(n, queried)
    except AssertionError:
        return False
    return True
