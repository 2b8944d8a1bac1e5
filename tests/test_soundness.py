"""Exclusion soundness over whole function spaces: no verdict of any
protocol ever excludes the class its function belongs to.

Every function at n = 1..3 goes through the three protocols at every
resolution of a decade grid.  Class membership comes from the definitions
checked by brute force, never from `funcspace.classify`.
"""

import pytest

from evqc.engine import (
    Decision,
    Resolution,
    cn_decide_thermal,
    dj_decide_lifted,
    dj_decide_pseudopure,
)
from evqc.funcspace import BoolFunc
from evqc.states import demo_system
from test_acceptance import _brute_cn_masks

EPSILONS = [10.0 ** k for k in range(-12, -1)]

# The class a decided verdict rules out.
EXCLUDES = {
    Decision.NOT_CONSTANT: "constant",
    Decision.NOT_BALANCED: "balanced",
    Decision.NOT_IN_CLASS: "cn",
}

PROTOCOLS = {
    "pseudopure": (range(1, 4), lambda f, eps: dj_decide_pseudopure(f, 1.0, eps)),
    "lifted": (range(1, 4), lambda f, eps: dj_decide_lifted(f, demo_system(f.n + 1), eps)),
    "cn-thermal": (range(2, 4), lambda f, eps: cn_decide_thermal(f, demo_system(f.n), eps)),
}


def brute_classes(n: int) -> list[set[str]]:
    """The promise classes of every n-bit table, indexed by mask, from the
    definitions: constant (one value everywhere), balanced (N/2 ones) and,
    from n = 2, C_N as acceptance check 04 enumerates it."""
    size = 1 << n
    cn = set(_brute_cn_masks(n)) if n >= 2 else set()
    classes = []
    for mask in range(1 << size):
        table = [(mask >> j) & 1 for j in range(size)]
        own = {"cn"} if mask in cn else set()
        if len(set(table)) == 1:
            own.add("constant")
        if sum(table) == size // 2:
            own.add("balanced")
        classes.append(own)
    return classes


def test_brute_classes_count_the_known_members():
    counts = {n: {"constant": 0, "balanced": 0, "cn": 0} for n in (2, 3)}
    for n in counts:
        for own in brute_classes(n):
            for cls in own:
                counts[n][cls] += 1
    # C_N at n = 2: one 1 anywhere, and the complements.  At n = 3: two
    # ones on the 28 - 12 argument pairs that no cube edge joins, and the
    # complements.
    assert counts[2] == {"constant": 2, "balanced": 6, "cn": 2 * 4}
    assert counts[3] == {"constant": 2, "balanced": 70, "cn": 2 * 16}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_no_verdict_excludes_the_functions_own_class(protocol):
    sizes, decide = PROTOCOLS[protocol]
    unsound, decided, verdicts = [], 0, 0
    for n in sizes:
        for mask, own in enumerate(brute_classes(n)):
            f = BoolFunc(n, mask)
            for eps in EPSILONS:
                outcome = decide(f, Resolution(eps)).decided
                verdicts += 1
                decided += outcome is not Decision.INCONCLUSIVE
                if EXCLUDES.get(outcome) in own:
                    unsound.append((str(f), eps, outcome.value))
    assert unsound == []
    assert verdicts == len(EPSILONS) * sum(1 << (1 << n) for n in sizes)
    # Not vacuous: the fine resolutions do exclude classes.
    assert decided > 0
