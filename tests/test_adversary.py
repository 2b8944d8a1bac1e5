import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evqc.adversary import (
    AdversaryReport,
    cn_witness,
    min_queries,
    verify_adversary,
)
from evqc.funcspace import is_in_cn, mask_from_support

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_transcript_validation():
    # cn_witness checks the queries it is handed: the width, the domain,
    # and at most half the domain counting distinct arguments.
    for n in (0, 1, 23):
        with pytest.raises(ValueError):
            cn_witness(n, set())
    for bad in ({4}, {-1}, np.array([0, 4])):
        with pytest.raises(ValueError, match="outside the domain"):
            cn_witness(2, bad)
    with pytest.raises(ValueError, match="3 queries exceed half"):
        cn_witness(2, [0, 1, 2, 2])
    assert tuple(cn_witness(2, [0, 1, 1, 0, 1]).bits()) == (0, 0, 1, 0)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_witness_takes_any_query_form(n):
    draws = np.random.default_rng(n)
    size = 1 << n
    queries = draws.integers(0, size, size=size // 2)  # repeats included
    expected = cn_witness(n, set(queries.tolist()))
    forms = [tuple(queries.tolist()), queries.tolist(), queries, queries.astype(np.int32),
             queries.astype(np.uint16), iter(queries.tolist())]
    for form in forms:
        assert cn_witness(n, form) == expected
    assert cn_witness(n, range(size // 2)) == cn_witness(n, np.arange(size // 2))


def test_witness_frozen_cases():
    assert tuple(cn_witness(2, {0, 1}).bits()) == (0, 0, 1, 0)
    assert tuple(cn_witness(2, {0, 2}).bits()) == (0, 1, 0, 0)
    assert tuple(cn_witness(2, set()).bits()) == (1, 0, 0, 0)
    assert tuple(cn_witness(3, {0, 1, 2, 3}).bits()) == (0, 0, 0, 0, 1, 0, 0, 1)


def test_witness_properties_exhaustive_n2():
    import itertools

    for r in range(3):
        for combo in itertools.combinations(range(4), r):
            w = cn_witness(2, combo)
            assert is_in_cn(w)
            assert all(w(q) == 0 for q in combo)


def list_witness_mask(n, queried):
    """The witness built with Python lists over the whole domain."""
    size = 1 << n
    unchecked = [j for j in range(size) if j not in queried]
    pivot = unchecked[0]
    even = [j for j in unchecked if (j ^ pivot).bit_count() % 2 == 0]
    odd = [j for j in unchecked if (j ^ pivot).bit_count() % 2 == 1]
    side = even if len(even) >= len(odd) else odd
    return mask_from_support(size, side[: size // 4])


@pytest.mark.parametrize("n", range(2, 11))
def test_witness_matches_list_construction(n):
    size = 1 << n
    draws = np.random.default_rng(n)
    sets = [set(), set(range(size // 2)), set(range(size // 2, size)), set(range(0, size, 2))]
    for _ in range(20):
        count = int(draws.integers(0, size // 2 + 1))
        sets.append(set(draws.choice(size, size=count, replace=False).tolist()))
    sets.append(set(draws.choice(size, size=size // 2, replace=False).tolist()))
    for queried in sets:
        assert cn_witness(n, queried).mask == list_witness_mask(n, queried), (n, sorted(queried))
    for bad in ({-1}, {size}, {0, size + 3}):
        with pytest.raises(ValueError):
            cn_witness(n, bad)


def test_witness_refuses_past_half():
    with pytest.raises(ValueError):
        cn_witness(2, {0, 1, 2})
    cn_witness(2, {0, 1})  # exactly half is fine


def test_min_queries_frozen():
    assert min_queries(2) == 3
    assert min_queries(3) == 5
    assert min_queries(4) == 9
    assert min_queries(10) == 513
    with pytest.raises(ValueError):
        min_queries(1)


def test_min_queries_is_just_past_half():
    for n in range(2, 11):
        assert min_queries(n) == (1 << n) // 2 + 1


@pytest.mark.parametrize("n", [2, 3])
def test_verify_exhaustive_small(n):
    report = verify_adversary(n, trials=20, seed=1)
    assert report.exhaustive
    assert report.failures == ()


def test_verify_random_larger():
    report = verify_adversary(5, trials=200, seed=9)
    assert not report.exhaustive
    assert report.failures == ()
    assert report.trials == 200


def test_report_record():
    report = AdversaryReport(n=2, trials=5, failures=((0, 1),), exhaustive=True)
    rec = report.to_record()
    assert rec == {"n": 2, "trials": 5, "failures": [[0, 1]], "exhaustive": True}


def test_witness_check_survives_optimised_mode():
    # The construction's own check must not be an assert, which -O strips.
    # First a witness outside C_N, then one that is 1 on every argument.
    script = (
        "from evqc import adversary\n"
        "adversary.is_in_cn = lambda f: False\n"
        "print(len(adversary.verify_adversary(3, 0, 0).failures))\n"
        "adversary.is_in_cn = lambda f: True\n"
        "adversary.mask_from_support = lambda size, support: (1 << size) - 1\n"
        "print(len(adversary.verify_adversary(3, 0, 0).failures))\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=True,
    ).stdout
    # Every exhaustive query set at n=3 fails both ways.
    assert out.split() == [str(math.comb(8, 4))] * 2
