"""Core set algebra against an independent frozenset mirror."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfinterp import core
from hfinterp.errors import BudgetExceeded, FormulaSyntaxError, NotAnOrdinal


# --- independent oracle: plain frozensets, no shared code with hfinterp ----

def mirror(n: int) -> frozenset:
    """Decode n into nested frozensets straight from the bit definition."""
    return frozenset(mirror(i) for i in range(n.bit_length()) if (n >> i) & 1)


def code_of_mirror(s: frozenset) -> int:
    return sum(1 << code_of_mirror(c) for c in s)


def to_mirror(x: core.HFSet) -> frozenset:
    return frozenset(to_mirror(c) for c in x.children)


def test_decode_matches_mirror_small_codes():
    for n in range(2048):
        assert to_mirror(core.decode(n)) == mirror(n)


def test_encode_decode_roundtrip():
    for n in range(4096):
        assert core.encode(core.decode(n)) == n


@given(st.integers(min_value=0, max_value=10**9))
def test_encode_decode_roundtrip_sampled(n):
    assert core.encode(core.decode(n)) == n


@given(st.integers(min_value=0, max_value=100000),
       st.integers(min_value=0, max_value=100000))
def test_interning_is_extensional(a, b):
    assert (core.decode(a) is core.decode(b)) == (a == b)


def test_from_children_dedups_and_sorts():
    e = core.empty()
    se = core.decode(1)  # {{}}
    x = core.from_children([se, e, se])
    assert x.children == (e, se)
    assert x is core.decode(3)


def test_from_children_order_independent():
    import random

    rng = random.Random(7)
    pool = [core.decode(i) for i in range(40)]
    for _ in range(50):
        members = rng.sample(pool, rng.randint(0, 12))
        shuffled = members[:]
        rng.shuffle(shuffled)
        assert core.from_children(members) is core.from_children(shuffled)


def test_children_sorted_by_code():
    for n in (0, 1, 6, 11, 100, 2059, 65535):
        codes = [core.encode(c) for c in core.decode(n).children]
        assert codes == sorted(codes)


def test_mem_is_bit_test():
    for y in range(512):
        ydec = core.decode(y)
        for x in range(10):
            assert core.mem(core.decode(x), ydec) == bool((y >> x) & 1)


def test_pair_and_singleton():
    d1, d2 = core.decode(1), core.decode(2)
    assert core.encode(core.pair(d1, d2)) == 6
    assert core.encode(core.pair(d2, d1)) == 6
    assert core.encode(core.pair(d1, d1)) == 2
    assert core.encode(core.singleton(core.empty())) == 1


def test_sumset_is_bitwise_or_of_members():
    for n in range(1024):
        want = 0
        for i in range(n.bit_length()):
            if (n >> i) & 1:
                want |= i
        assert core.encode(core.sumset(core.decode(n))) == want


def test_powerset_is_submask_enumeration():
    for n in (0, 1, 3, 6, 11, 37, 255):
        x = core.decode(n)
        got = sorted(core.encode(c) for c in core.powerset(x).children)
        # independent submask walk
        subs = set()
        s = n
        while True:
            subs.add(s)
            if s == 0:
                break
            s = (s - 1) & n
        assert got == sorted(subs)
        assert len(got) == 1 << len(x.children)


def test_powerset_of_pair_example():
    assert core.powerset(core.decode(3)) is core.decode(15)


def test_powerset_of_level_four_is_level_five():
    v5 = core.powerset(core.materialize_level(4))
    assert v5 is core.materialize_level(5)
    assert [core.encode(c) for c in v5.children] == list(range(1 << 16))


@pytest.mark.parametrize("seed", range(8))
def test_powerset_matches_mask_enumeration(seed):
    rng = random.Random(seed)
    members = rng.sample(range(5000), rng.randint(0, 10))
    x = core.decode(sum(1 << c for c in members))
    cs, k = x.children, len(x.children)
    masks = {core.from_children(cs[i] for i in range(k) if (mask >> i) & 1)
             for mask in range(1 << k)}
    assert set(core.powerset(x).children) == masks


def test_adjoin():
    assert core.adjoin(core.decode(3), core.decode(2)) is core.decode(7)
    assert core.adjoin(core.decode(3), core.decode(1)) is core.decode(3)


def test_separate_ordinals_of_v3():
    v3 = core.materialize_level(3)
    sel = core.separate(v3, core.is_ordinal)
    assert core.encode(sel) == 11


def test_rank_examples():
    assert core.empty().rank == 0
    assert core.decode(1).rank == 1
    assert core.decode(3).rank == 2
    assert core.decode(65535).rank == 4
    assert core.decode(65536).rank == 5


def test_rank_is_one_plus_max_child_rank():
    for n in range(1, 2048):
        x = core.decode(n)
        assert x.rank == 1 + max(c.rank for c in x.children)


def test_level_sizes_and_membership():
    sizes = {1: 1, 2: 2, 3: 4, 4: 16, 5: 65536}
    for m, size in sizes.items():
        vm = core.materialize_level(m)
        assert len(vm.children) == size
        assert core.encode(vm) == (1 << size) - 1
    # level 6 is past any materialization budget
    with pytest.raises(BudgetExceeded):
        core.materialize_level(6)


def test_level_members_are_initial_code_segment():
    vm = core.materialize_level(4)
    assert list(vm.children) == [core.decode(i) for i in range(16)]


def test_level_of_and_is_level():
    x = core.decode(6)
    # the least level holding x as a member is V_{rank(x)+1}
    assert x.rank == 3
    assert core.mem(x, core.materialize_level(x.rank + 1))
    for m in range(5):
        assert core.is_level(core.materialize_level(m))
    assert not core.is_level(core.decode(5))
    assert not core.is_level(core.decode(2))


def test_is_transitive():
    assert core.is_transitive(core.materialize_level(3))
    assert core.is_transitive(core.decode(11))
    assert not core.is_transitive(core.decode(6))


def test_is_ordinal():
    assert core.is_ordinal(core.empty())
    assert core.is_ordinal(core.decode(3))
    assert core.is_ordinal(core.decode(11))
    assert not core.is_ordinal(core.decode(6))
    assert not core.is_ordinal(core.decode(15))


def test_vn_ordinal_codes():
    # codes obey code(n+1) = 2^code(n) + code(n)
    want = [0]
    for _ in range(4):
        want.append((1 << want[-1]) + want[-1])
    got = [core.encode(core.vn_ordinal(n)) for n in range(5)]
    assert got == want  # 0, 1, 3, 11, 2059


def test_ord_arith():
    two, three = core.vn_ordinal(2), core.vn_ordinal(3)
    assert core.ord_add(two, three) is core.vn_ordinal(5)
    assert core.ord_mul(two, three) is core.vn_ordinal(6)
    assert core.ord_exp(two, three) is core.vn_ordinal(8)
    with pytest.raises(NotAnOrdinal):
        core.ord_add(core.decode(6), two)


def test_big_ordinals_stay_structural():
    o9 = core.vn_ordinal(9)
    assert len(o9.children) == 9
    assert core.is_ordinal(o9)
    with pytest.raises(BudgetExceeded):
        core.encode(o9)  # needs ~2^2059 bits


def test_foundation_every_nonempty_has_disjoint_member():
    for n in range(1, 4096):
        x = core.decode(n)
        assert any(not (c.members & x.members) for c in x.children)


def test_budget_gates():
    with pytest.raises(BudgetExceeded):
        core.decode(1 << (1 << 21))
    with pytest.raises(BudgetExceeded):
        core.encode(core.decode(65536), budget=8)
    with pytest.raises(BudgetExceeded):
        core.powerset(core.materialize_level(5))


def test_format_examples():
    assert core.format_set(core.empty()) == "{}"
    assert core.format_set(core.decode(3)) == "{{}, {{}}}"
    assert core.format_set(core.decode(6)) == "{{{}}, {{{}}}}"


def test_parse_format_roundtrip():
    for n in range(512):
        x = core.decode(n)
        assert core.parse_set_literal(core.format_set(x)) is x


def test_parse_hash_literal():
    assert core.parse_set_literal("#11") is core.decode(11)
    assert core.parse_set_literal(" { #1 , {} } ") is core.decode(3)


@pytest.mark.parametrize("bad", ["", "{", "{}}", "#", "{,}", "{{} {}}", "x"])
def test_parse_errors(bad):
    with pytest.raises(FormulaSyntaxError):
        core.parse_set_literal(bad)


def test_tower():
    assert [core.tower(k) for k in range(5)] == [1, 2, 4, 16, 65536]
    with pytest.raises(BudgetExceeded):
        core.tower(6)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=400), max_size=10))
def test_from_children_matches_mirror(codes):
    x = core.from_children([core.decode(c) for c in codes])
    assert to_mirror(x) == frozenset(mirror(c) for c in codes)
    assert core.encode(x) == code_of_mirror(frozenset(mirror(c) for c in codes))


# --- bulk construction against the member-by-member derivation -------------

def test_level_five_members_derive_code_and_rank_from_members():
    for s in core.materialize_level(5).children:
        assert s._code == core._code_of_sorted(s.children)
        assert s.rank == (1 + max(c.rank for c in s.children)
                          if s.children else 0)


def test_powerset_past_the_bit_budget_keeps_codes_unmaterialized():
    wide = core.decode(1 << (1 << 20), budget=(1 << 20) + 1)
    subs = core.powerset(core.from_children([core.empty(), wide])).children
    assert [s._code for s in subs] == [0, 1, None, None]
    assert [s.rank for s in subs] == [0, 1, 7, 7]


@pytest.mark.parametrize("bits,seed", [(20000, 0), (20000, 1),
                                       (70000, 2), (70000, 3)])
def test_wide_decode_children_are_the_set_bits(bits, seed):
    # codes past 65535 (rank 6) are not interned by any level, so the
    # 70000-bit codes take the decode fallback for some children
    n = random.Random(seed).getrandbits(bits) | 1 << (bits - 1)
    x = core.decode(n)
    set_bits = [i for i, b in enumerate(reversed(bin(n)[2:])) if b == "1"]
    assert [core.encode(c) for c in x.children] == set_bits
    assert all(c is core.decode(i) for c, i in zip(x.children, set_bits))
    assert core.encode(x) == n
    assert x is core.from_children([core.decode(i) for i in set_bits])
