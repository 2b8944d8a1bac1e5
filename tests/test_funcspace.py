import copy
import dataclasses
import hashlib
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import permute
from evqc import funcspace
from evqc.funcspace import (
    MAX_TABLE_N,
    BoolFunc,
    FunctionClass,
    canonical_balanced,
    canonical_cn,
    classify,
    complement,
    constant_one,
    constant_zero,
    enumerate_class,
    flip_correlation,
    flip_differences,
    format_function,
    imbalance,
    is_in_cn,
    lift,
    mask_from_bits,
    mask_from_support,
    parse_function,
    sample_cn,
)


def brute_cn_members(n):
    """Filter all truth tables with the raw class definition, no library calls."""
    size = 1 << n
    quarter = size // 4
    members = []
    for mask in range(1 << size):
        table = [(mask >> j) & 1 for j in range(size)]
        for flavor in (table, [1 - b for b in table]):
            support = [j for j, b in enumerate(flavor) if b]
            if len(support) != quarter:
                continue
            if all(
                bin(a ^ b).count("1") != 1
                for i, a in enumerate(support)
                for b in support[i + 1:]
            ):
                members.append(mask)
                break
    return sorted(set(members))


small_funcs = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
).map(lambda t: BoolFunc(*t))


def test_boolfunc_basic():
    f = BoolFunc(2, 0b0100)
    assert f.size == 4
    assert tuple(f.bits()) == (0, 0, 1, 0)
    assert [f(x) for x in range(4)] == [0, 0, 1, 0]
    assert f.ones == 1
    np.testing.assert_array_equal(f.signs(), [1.0, 1.0, -1.0, 1.0])


@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
def test_bit_table_matches_per_bit_reference(nm):
    n, mask = nm
    f = BoolFunc(n, mask)
    reference = [(mask >> j) & 1 for j in range(1 << n)]
    assert f.bits().tolist() == reference
    assert not f.bits().flags.writeable
    assert str(f) == "".join(map(str, reference))


def test_table_is_built_on_first_use(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("bit table built")

    monkeypatch.setattr(np, "unpackbits", refuse)
    f = BoolFunc(4, 0x0F0F)
    assert complement(f).mask == 0xF0F0
    assert lift(f).mask == f.mask
    assert permute(f, 0, 4).mask == 0x0F1E
    assert parse_function("n=4\n0x0f0f\n") == f
    assert classify(constant_one(4)) is FunctionClass.CONSTANT
    assert classify(f) is FunctionClass.BALANCED_W
    assert len(list(enumerate_class(4, FunctionClass.BALANCED_W))) == 12870
    with pytest.raises(RuntimeError):
        f.bits()


def test_cached_table_is_invisible_to_identity():
    read = BoolFunc(3, 0b10110100)
    str(read), read.signs(), read.bits()
    fresh = BoolFunc(3, 0b10110100)
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    for copy in (pickle.loads(pickle.dumps(read)), dataclasses.replace(read)):
        assert copy == read and hash(copy) == hash(read)
        assert not copy.bits().flags.writeable
        np.testing.assert_array_equal(copy.bits(), read.bits())
    assert dataclasses.replace(read, mask=1) == BoolFunc(3, 1)
    # Construction still checks n and mask: test_boolfunc_validation and
    # test_table_width_is_checked_before_any_table_is_built.


def test_boolfunc_contract_under_slots():
    f = BoolFunc(3, 0b10110100)
    assert not hasattr(f, "__dict__")
    for name in ("n", "mask"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, 1)
    before = (f, hash(f), repr(f))
    table = f.bits()
    assert (f, hash(f), repr(f)) == before and repr(f) == "BoolFunc(n=3, mask=180)"
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1
    for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), dataclasses.replace(f)):
        assert type(twin) is BoolFunc and twin == f and hash(twin) == hash(f)
        assert twin.bits().tolist() == table.tolist()
    assert dataclasses.replace(f, n=4) == BoolFunc(4, 180)
    assert dataclasses.asdict(f) == {"n": 3, "mask": 180}
    with pytest.raises(ValueError, match=r"n=0 outside 1\.\.22, .*truth-table widths and spin counts"):
        BoolFunc(0, 0)
    with pytest.raises(ValueError, match="mask does not fit a 2-entry truth table"):
        BoolFunc(1, 4)
    with pytest.raises(ValueError, match="mask does not fit a 4-entry truth table"):
        BoolFunc(2, -1)
    with pytest.raises(ValueError, match="mask does not fit a 8-entry truth table"):
        dataclasses.replace(f, mask=1 << 8)


def test_post_init_runs_once_per_construction(monkeypatch):
    calls = []
    check = vars(BoolFunc)["__post_init__"]
    monkeypatch.setattr(BoolFunc, "__post_init__", lambda self: calls.append(self) or check(self))
    f = BoolFunc(2, 6)
    assert calls == [f]
    routes = (
        lambda: dataclasses.replace(f, mask=9),
        lambda: pickle.loads(pickle.dumps(f)),
        lambda: copy.deepcopy(f),
        lambda: complement(f),
        lambda: parse_function("n=2\n0110\n"),
    )
    for build in routes:
        calls.clear()
        made = build()
        assert len(calls) == 1 and calls[0] is made


def test_boolfunc_validation():
    with pytest.raises(ValueError):
        BoolFunc(0, 0)
    with pytest.raises(ValueError):
        BoolFunc(1, 4)
    with pytest.raises(ValueError):
        BoolFunc(2, -1)
    f = BoolFunc(1, 0)
    with pytest.raises(ValueError):
        f(2)


def test_text_format_roundtrip():
    f = BoolFunc(3, 0b10110100)
    text = format_function(f)
    assert text.splitlines()[0] == "n=3"
    assert parse_function(text) == f
    assert parse_function("n=3\n0xb4\n") == f
    assert parse_function("n = 03\n0X00B4\n") == f


def test_text_format_errors():
    with pytest.raises(ValueError):
        parse_function("n=2\n010\n")
    with pytest.raises(ValueError):
        parse_function("2\n0101\n")
    with pytest.raises(ValueError):
        parse_function("n=2\n")
    with pytest.raises(ValueError):
        parse_function("n=1\n0x10\n")


@pytest.mark.parametrize("bad", ["_", "+", "-", " ", "\uff10", "\u0661", "\U0001d7d9"])
def test_table_line_refuses_anything_but_ascii_0_and_1(bad):
    # int(..., 2) alone would take "_", "+" and "-" (and int() reads the
    # non-ASCII digits as digits), so the 0/1 check must catch them all.
    # The line is stripped, so a space can only sit inside it.
    tables = ["01" + bad + "0"] if bad.isspace() else [bad + "110", "01" + bad + "0", "011" + bad]
    for table in tables:
        with pytest.raises(ValueError, match="^table line may only contain 0 and 1$"):
            parse_function(f"n=2\n{table}\n")


@pytest.mark.parametrize("text, message", [
    ("n=2\n0x1_0\n", "^malformed hex table '0x1_0'$"),
    ("n=2\n0x\uff11\n", "^malformed hex table '0x\uff11'$"),
    ("n=2\n0x+1\n", "^malformed hex table '0x\\+1'$"),
    ("n=2\n0x\n", "^malformed hex table '0x'$"),
    ("n=\uff13\n0x1\n", "^malformed header 'n=\uff13', expected 'n=<int>'$"),
    ("n=0_3\n0x1\n", "^malformed header 'n=0_3', expected 'n=<int>'$"),
    ("n=+3\n0x1\n", "^malformed header 'n=\\+3', expected 'n=<int>'$"),
    ("n=\n0x1\n", "^malformed header 'n=', expected 'n=<int>'$"),
])
def test_header_and_hex_numerals_are_ascii_only(text, message):
    # int() reads "_" and "+" as part of its syntax and fullwidth digits as
    # digits; an empty numeral is refused with the same message.
    with pytest.raises(ValueError, match=message):
        parse_function(text)


def test_imbalance_frozen():
    assert imbalance(constant_zero(3)) == -4
    assert imbalance(constant_one(3)) == 4
    assert imbalance(BoolFunc(2, 0b0100)) == -1
    assert imbalance(canonical_balanced(3)) == 0


@given(small_funcs)
def test_imbalance_is_ones_minus_half(f):
    assert imbalance(f) == f.ones - f.size // 2


@given(small_funcs)
def test_complement_involution(f):
    g = complement(f)
    assert complement(g) == f
    assert imbalance(g) == -imbalance(f)
    assert all(g(x) == 1 - f(x) for x in range(f.size))


@given(small_funcs, st.integers(0, 15), st.integers(0, 15))
def test_permute_swaps_two_values(f, l, m):
    l %= f.size
    m %= f.size
    g = permute(f, l, m)
    assert g(l) == f(m)
    assert g(m) == f(l)
    assert all(g(x) == f(x) for x in range(f.size) if x not in (l, m))
    assert imbalance(g) == imbalance(f)
    assert permute(g, l, m) == f


def test_permute_index_guard():
    with pytest.raises(ValueError):
        permute(BoolFunc(2, 0b0110), 0, 4)


def test_is_in_cn_frozen_cases():
    assert is_in_cn(BoolFunc(2, 0b0100))
    assert is_in_cn(BoolFunc(2, 0b1011))
    assert is_in_cn(BoolFunc(3, mask_from_bits([1, 0, 0, 1, 0, 0, 0, 0])))
    assert not is_in_cn(BoolFunc(3, mask_from_bits([1, 1, 0, 0, 0, 0, 0, 0])))
    assert not is_in_cn(constant_zero(2))
    assert not is_in_cn(canonical_balanced(2))
    with pytest.raises(ValueError):
        is_in_cn(BoolFunc(1, 0b01))


def test_classify_frozen_cases():
    assert classify(constant_zero(3)) is FunctionClass.CONSTANT
    assert classify(constant_one(2)) is FunctionClass.CONSTANT
    assert classify(canonical_balanced(2)) is FunctionClass.BALANCED_W
    assert classify(BoolFunc(2, 0b0100)) is FunctionClass.CLASS_CN
    assert classify(BoolFunc(2, 0b1011)) is FunctionClass.CLASS_CN
    assert classify(BoolFunc(3, mask_from_bits([1, 1, 1, 0, 0, 0, 0, 0]))) is FunctionClass.OTHER
    assert classify(BoolFunc(1, 0b01)) is FunctionClass.BALANCED_W


@pytest.mark.parametrize("n", [2, 3])
def test_cn_enumeration_matches_brute_force(n):
    expected = brute_cn_members(n)
    got = sorted(f.mask for f in enumerate_class(n, FunctionClass.CLASS_CN))
    assert got == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cn_walk_matches_filter(n):
    size = 1 << n
    full = (1 << size) - 1
    quarters = (sum(ones) for ones in itertools.combinations([1 << j for j in range(size)], size // 4))
    filtered = [q for q in quarters if is_in_cn(BoolFunc(n, q))]
    walked = list(funcspace._spread_quarters(n))
    assert sorted(walked) == sorted(filtered)
    assert len(set(walked)) == len(walked)
    got = [f.mask for f in enumerate_class(n, FunctionClass.CLASS_CN)]
    assert sorted(got) == sorted(m for q in filtered for m in (q, full ^ q))


def test_cn_enumeration_counts():
    assert len(list(enumerate_class(2, FunctionClass.CLASS_CN))) == 8
    assert len(list(enumerate_class(3, FunctionClass.CLASS_CN))) == 32


def test_enumerate_constant_and_balanced():
    consts = list(enumerate_class(3, FunctionClass.CONSTANT))
    assert [f.mask for f in consts] == [0, 255]
    bal2 = list(enumerate_class(2, FunctionClass.BALANCED_W))
    assert len(bal2) == 6
    assert all(f.ones == 2 for f in bal2)
    assert len(list(enumerate_class(3, FunctionClass.BALANCED_W))) == 70
    tables = [tuple(f.bits()) for f in bal2]
    assert tables == sorted(tables)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("cls", list(FunctionClass))
def test_enumeration_order_is_the_truth_table_sort(n, cls):
    if cls is FunctionClass.CLASS_CN and n < 2:
        with pytest.raises(ValueError):
            list(enumerate_class(n, cls))
        return
    got = [f.mask for f in enumerate_class(n, cls)]
    by_table = sorted((BoolFunc(n, m) for m in got), key=lambda g: tuple(g.bits()))
    assert got == [g.mask for g in by_table]
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_balanced_enumeration_matches_the_combinations_walk(n):
    # Of two ones-sets of one size, the lexicographically first holds the
    # earliest argument where they differ, so its table is the larger:
    # reversed, the combinations come in truth-table order.
    size = 1 << n
    powers = [1 << j for j in range(size)]
    want = list(reversed([sum(ones) for ones in itertools.combinations(powers, size // 2)]))
    members = list(enumerate_class(n, FunctionClass.BALANCED_W))
    assert [f.mask for f in members] == want
    assert all(type(f.mask) is int and f.n == n for f in members)


def test_every_n2_function_is_covered():
    seen = set()
    for cls in FunctionClass:
        seen |= {f.mask for f in enumerate_class(2, cls)}
    assert seen == set(range(16))
    assert list(enumerate_class(2, FunctionClass.OTHER)) == []


def test_enumerate_refuses_large_n():
    with pytest.raises(ValueError):
        list(enumerate_class(5, FunctionClass.BALANCED_W))
    consts = list(enumerate_class(5, FunctionClass.CONSTANT))
    assert [f.mask for f in consts] == [0, (1 << 32) - 1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lift_preserves_mask_and_shifts_imbalance(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        mask = int(rng.integers(0, 1 << (1 << n)))
        f = BoolFunc(n, mask)
        g = lift(f)
        assert g.n == n + 1
        assert g.mask == f.mask
        assert imbalance(g) == imbalance(f) - f.size // 2
        assert all(g(x) == f(x) for x in range(f.size))
        assert all(g(x) == 0 for x in range(f.size, g.size))


def test_lift_classification():
    assert classify(lift(constant_zero(2))) is FunctionClass.CONSTANT
    assert classify(lift(canonical_balanced(2))) is not FunctionClass.CONSTANT


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sample_cn_is_member(n):
    f = sample_cn(n, 7)
    assert is_in_cn(f)
    assert sample_cn(n, 7) == f
    assert all(x.bit_count() % 2 == 0 for x in range(f.size) if f(x))


def test_sample_cn_varies_with_seed():
    drawn = {sample_cn(3, s).mask for s in range(40)}
    assert len(drawn) > 1


def test_canonical_representatives():
    assert classify(canonical_balanced(3)) is FunctionClass.BALANCED_W
    assert classify(canonical_cn(3)) is FunctionClass.CLASS_CN
    assert canonical_cn(2).ones == 1
    assert tuple(canonical_balanced(2).bits()) == (1, 1, 0, 0)
    with pytest.raises(ValueError):
        canonical_cn(1)


def loop_mask(bits):
    """Reference codec: one shift per set bit."""
    mask = 0
    for j, b in enumerate(bits):
        if b:
            mask |= 1 << j
    return mask


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 64, 1000, 4096])
def test_mask_from_bits_matches_loop(size, rng):
    for _ in range(5):
        bits = rng.integers(0, 2, size=size)
        assert mask_from_bits(bits) == loop_mask(bits)
        assert mask_from_bits(bits.tolist()) == loop_mask(bits)
        support = np.flatnonzero(bits)
        assert mask_from_support(size, support) == loop_mask(bits)
        assert mask_from_support(size, support.tolist()) == loop_mask(bits)
    assert mask_from_bits(np.ones(size, dtype=np.uint8)) == (1 << size) - 1
    assert mask_from_support(size, []) == 0


@pytest.mark.parametrize("n", [1, 3, 6, 11])
def test_table_codecs_round_trip(n, rng):
    f = BoolFunc(n, loop_mask(rng.integers(0, 2, size=1 << n)))
    assert BoolFunc(f.n, mask_from_bits(f.bits())) == f
    assert parse_function(format_function(f)) == f


def test_seeded_masks_frozen():
    """sample_cn, canonical_cn and the adversary witness draw the same
    masks from the same seeds as the per-bit loops they replaced."""
    from evqc.adversary import cn_witness

    masks = [sample_cn(n, seed).mask for n in range(2, 13) for seed in (0, 1, 7)]
    masks += [canonical_cn(n).mask for n in range(2, 13)]
    draws = np.random.default_rng(5)
    for n in range(2, 11):
        size = 1 << n
        queried = draws.choice(size, size=int(draws.integers(0, size // 2 + 1)), replace=False)
        masks.append(cn_witness(n, [int(q) for q in queried]).mask)
    digest = hashlib.sha256(repr(masks).encode()).hexdigest()
    assert digest == "ed207b82594a28c181bc44e844c9859ce15659e175cd48cc0e77ed6861b7cda1"


@pytest.mark.parametrize("n", range(1, 17))
def test_packed_codecs_match_the_unpacking_routes(n, rng):
    """canonical_cn, the 0/1 parser and str work on the mask alone; they
    agree with the table routes they replaced."""
    size = 1 << n
    if n >= 2:
        even = np.flatnonzero(np.bitwise_count(np.arange(size)) % 2 == 0)
        assert canonical_cn(n).mask == mask_from_support(size, even[: size // 4])
    for mask in (0, (1 << size) - 1, mask_from_bits(rng.integers(0, 2, size))):
        f = BoolFunc(n, mask)
        text = (f.bits() + ord("0")).tobytes().decode("ascii")
        assert str(f) == text
        unpacked = np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1")
        assert parse_function(f"n={n}\n{text}\n").mask == mask_from_bits(unpacked) == mask
    # int() would take these; the character check refuses them first.
    for body in ("0_" + "1" * (size - 2), "+" + "0" * (size - 1)):
        with pytest.raises(ValueError, match="only contain 0 and 1"):
            parse_function(f"n={n}\n{body}\n")


def cn_by_pairs(n, mask):
    """The raw class definition: f or its complement has N/4 ones, no two
    of them at Hamming distance 1.  No library calls."""
    size = 1 << n
    for flavor in (mask, mask ^ ((1 << size) - 1)):
        support = [j for j in range(size) if (flavor >> j) & 1]
        if len(support) == size // 4 and all(
            bin(a ^ b).count("1") != 1 for a, b in itertools.combinations(support, 2)
        ):
            return True
    return False


def test_is_in_cn_matches_pairwise_definition():
    draws = np.random.default_rng(11)
    for n in range(2, 11):
        size = 1 << n
        full = (1 << size) - 1
        for seed in range(4):
            member = sample_cn(n, seed).mask
            quarter = mask_from_support(size, draws.choice(size, size // 4, replace=False))
            # Move one one of a member onto a free neighbour of another one.
            support = [j for j in range(size) if (member >> j) & 1]
            crowded = member
            if len(support) > 1:
                crowded = member ^ (1 << support[1]) ^ (1 << (support[0] ^ 1))
            random_table = mask_from_bits(draws.integers(0, 2, size))
            for mask in (member, full ^ member, quarter, full ^ quarter, crowded, random_table):
                assert is_in_cn(BoolFunc(n, mask)) == cn_by_pairs(n, mask), (n, seed, hex(mask))


def halves_correlation(f, i):
    """c_i counted on the unpacked table: the pairs (a, a XOR 2**(n-i)) with
    bit i of a clear that hold a 0 and a 1.  A second route beside the
    packed kernel, kept here as a test oracle only."""
    # Axis 1 splits each block of 2**(n-i+1) arguments on bit n-i.
    halves = f.bits().reshape(-1, 2, 1 << (f.n - i))
    return f.size - 4 * int(np.count_nonzero(halves[:, 0] != halves[:, 1]))


def xor_gather_correlation(f, i):
    """c_i by the XOR gather: the sign vector against itself indexed by
    a XOR 2**(n-i).  A third route beside the packed kernel and the halves
    count, kept here as a test oracle only."""
    s = 1 - 2 * f.bits().astype(np.int64)
    return int(s @ s[np.arange(f.size) ^ (1 << (f.n - i))])


@pytest.mark.parametrize("n", range(1, 11))
def test_flip_correlation_matches_xor_gather(n, rng):
    funcs = [constant_zero(n), constant_one(n), canonical_balanced(n)]
    funcs += [BoolFunc(n, mask_from_bits(rng.integers(0, 2, 1 << n))) for _ in range(8)]
    if n >= 2:
        funcs += [sample_cn(n, n), canonical_cn(n)]
    # Every function where there are few, every C_N member one size up.
    if n <= 3:
        funcs += [BoolFunc(n, mask) for mask in range(1 << (1 << n))]
    if n == 4:
        funcs += list(enumerate_class(n, FunctionClass.CLASS_CN))
    for f in funcs:
        for i in range(1, n + 1):
            c = flip_correlation(f, i)
            assert type(c) is int
            assert c == halves_correlation(f, i) == xor_gather_correlation(f, i), (f, i)


def test_flip_correlation_matches_xor_gather_on_a_wide_table(rng):
    n = 20
    f = BoolFunc(n, mask_from_bits(rng.integers(0, 2, 1 << n)))
    for i in range(1, n + 1):
        assert flip_correlation(f, i) == halves_correlation(f, i) == xor_gather_correlation(f, i)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_clear_pattern_matches_per_bit_reference(n, monkeypatch):
    monkeypatch.setattr(funcspace, "_CLEAR_PATTERNS", {})
    size = 1 << n
    for k in range(n):
        reference = sum(1 << a for a in range(size) if not (a >> k) & 1)
        assert funcspace._clear_pattern(k, size) == reference
        # Kept wider for a larger table, a pattern still serves this one.
        funcspace._clear_pattern(k, 4 * size)
        assert funcspace._clear_pattern(k, size) & ((1 << size) - 1) == reference


@pytest.mark.parametrize("i", [0, -1, 5])
def test_flip_correlation_rejects_a_spin_outside_the_register(i):
    for kernel in (flip_correlation, flip_differences):
        with pytest.raises(ValueError, match="outside 1..4"):
            kernel(canonical_cn(4), i)


@pytest.mark.parametrize("n", range(1, 6))
def test_flip_differences_marks_each_differing_pair_once(n, rng):
    random_table = BoolFunc(n, mask_from_bits(rng.integers(0, 2, 1 << n)))
    for f in (constant_one(n), canonical_balanced(n), random_table):
        for i in range(1, n + 1):
            bit = 1 << (n - i)
            marked = {a for a in range(f.size) if not a & bit and f(a) != f(a ^ bit)}
            assert flip_differences(f, i) == sum(1 << a for a in marked), (f, i)


@pytest.mark.parametrize("n", [0, MAX_TABLE_N + 1, 28, 70])
def test_table_width_is_checked_before_any_table_is_built(n):
    for build in (
        lambda: BoolFunc(n, 1),
        lambda: constant_zero(n),
        lambda: constant_one(n),
        lambda: canonical_balanced(n),
        lambda: canonical_cn(n),
        lambda: sample_cn(n, 0),
        lambda: parse_function(f"n={n}\n0x1\n"),
    ):
        with pytest.raises(ValueError, match=rf"n={n}\b|n < 2|n >= 1"):
            build()


def test_widest_table_is_accepted():
    f = BoolFunc(MAX_TABLE_N, 1)
    assert f.ones == 1 and f.bits().size == 1 << MAX_TABLE_N
    assert BoolFunc(20, 1 << ((1 << 20) - 1)).ones == 1
