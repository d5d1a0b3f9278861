"""Core set algebra against an independent frozenset mirror."""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfinterp import cardinal, core, order
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


def _wide(k: int) -> core.HFSet:
    """A set whose code is past the bit budget: its member is coded
    2^20 + k."""
    return core.from_children([core.decode((1 << 20) + k)])


@pytest.mark.parametrize("seed", range(8))
def test_powerset_doubling_list_is_the_sorted_subsets(seed):
    # powerset interns its mask-ordered list as it stands, so that list
    # must already be the canonical (sorted, duplicate-free) member tuple,
    # also when members have no code and sort by structure
    rng = random.Random(seed)
    pool = [core.decode(c) for c in rng.sample(range(5000), 6)]
    pool += [_wide(k) for k in range(3)]
    pool.append(core.from_children([_wide(0), core.decode(3)]))
    x = core.from_children(rng.sample(pool, rng.randint(0, 8)))
    cs, k = x.children, len(x.children)
    subs = [core.from_children(cs[i] for i in range(k) if (mask >> i) & 1)
            for mask in range(1 << k)]
    rng.shuffle(subs)
    assert core.powerset(x) is core.from_children(subs)


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


@pytest.mark.parametrize("enabled", [True, False])
def test_materialize_level_restores_the_collector_state(monkeypatch, enabled):
    want = core.materialize_level(3)
    monkeypatch.setattr(core, "_LEVELS", {})  # so the levels are rebuilt
    real_powerset = core.powerset
    paused = []

    def spy(x, enum_budget=None):
        paused.append(not gc.isenabled())
        return real_powerset(x, enum_budget)

    def refuse(x, enum_budget=None):
        raise BudgetExceeded("refused")

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        monkeypatch.setattr(core, "powerset", spy)
        assert core.materialize_level(3) is want
        assert paused == [True] * 3
        assert gc.isenabled() is enabled
        monkeypatch.setattr(core, "powerset", refuse)
        with pytest.raises(BudgetExceeded):
            core.materialize_level(4)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_interning_is_weak():
    n = (1 << 300) | (1 << 299) | 5  # coded by no level, made by no test
    x = core.decode(n)
    key = x.children
    assert core._INTERN[key]() is x and core._DECODE[n]() is x
    del x
    gc.collect()
    assert key not in core._INTERN and n not in core._DECODE


# a module still referenced once the interpreter has dropped sys.modules
# (as a test runner's state can hold one) is cleared name by name at exit,
# underscore names first: the tables' callbacks then run while the levels
# in _LEVELS die, after core's other private globals have become None
_INTERN_AT_EXIT = """
import sys
from hfinterp import cardinal, core, order
sys.pinned = core
kept = [core.decode(n) for n in (7, 1 << 70, (1 << 300) | 5)]
space = cardinal.card_exp(core.decode(11), core.decode(5))
levels = order.ack_order(4)
for n in range(2000):
    core.decode(n * 7919)
core.powerset(core.decode((1 << 40) | 6))
"""


def test_interning_is_quiet_at_interpreter_exit():
    p = subprocess.run([sys.executable, "-c", _INTERN_AT_EXIT],
                       capture_output=True, text=True, timeout=120,
                       env=dict(os.environ,
                                PYTHONPATH=os.path.dirname(
                                    os.path.dirname(core.__file__))))
    assert p.returncode == 0
    assert p.stderr == ""


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


# --- narrow codes stored, wide codes worked out on demand -------------------

NARROW_BITS = 4096
PAST_BUDGET = "code of this set exceeds the materializable bit budget"


def _definition_code(x: core.HFSet) -> int:
    """The code from the bit definition alone; only for sets of few bits."""
    return sum(1 << _definition_code(c) for c in x.children)


def _code_bits(x: core.HFSet) -> int:
    """Bits of x's code: one more than its top member's code."""
    return _definition_code(x.children[-1]) + 1 if x.children else 0


def _check_stored_code(s: core.HFSet) -> None:
    bits = _code_bits(s)
    assert (s._code is not None) == (bits <= NARROW_BITS)
    if bits > core.DEFAULT_BIT_BUDGET:
        with pytest.raises(BudgetExceeded, match=PAST_BUDGET):
            core.encode(s)
        assert s._code is None
        return
    want = sum(1 << core.encode(c) for c in s.children)
    assert core.encode(s) == want
    with pytest.raises(BudgetExceeded,
                       match=f"code needs {bits} bits, budget is {bits - 1}"):
        core.encode(s, budget=bits - 1)
    # encode keeps no wide code: the stored one never changes
    assert (s._code is not None) == (bits <= NARROW_BITS)


def _boundary_sets():
    for c in (4095, 4096, (1 << 20) - 1, 1 << 20):
        m = core.decode(c)
        yield from (m, core.singleton(m), core.pair(core.decode(5), m),
                    core.pair(core.decode(c - 1), m))
    positions = [order.ack_enum(i) for i in range(21)]
    for a in positions:
        for b in positions:
            yield cardinal.kpair(a, b)
    for n in (1 << 4095, (1 << 4096) - 1, 1 << 4096, (1 << 4096) + 1,
              (1 << 4097) - 1):
        yield core.decode(n)
    for n in ((1 << 4095) | 3, (1 << 4096) | 5,
              (1 << 4096) | (1 << 4095) | 1):
        p = core.powerset(core.decode(n))
        yield p
        yield from p.children


def test_a_code_is_stored_exactly_when_it_is_narrow():
    for s in _boundary_sets():
        _check_stored_code(s)


def _ordering_pool(seed: int) -> "list[core.HFSet]":
    rng = random.Random(seed)
    narrow = [core.decode(rng.getrandbits(k) | 1 << (k - 1))
              for k in (1, 5, 12, 300, 4095, 4096)]
    wide = [core.decode(rng.getrandbits(k) | 1 << (k - 1))
            for k in (4097, 4097, 5000, 20000)]
    top = core.decode(1 << 4096)
    wide += [core.pair(top, core.decode(5)), core.pair(top, core.decode(6))]
    edge = core.decode(1 << 20)
    past = [core.singleton(edge), core.pair(edge, core.decode(7)),
            core.pair(edge, core.decode(8)), core.pair(wide[0], wide[1]),
            core.singleton(wide[2]), cardinal.kpair(wide[0], narrow[1]),
            cardinal.kpair(core.decode(20), core.decode(0))]
    return narrow + wide + past


def _code_or_none(x: core.HFSet) -> "int | None":
    try:
        return core.encode(x)
    except BudgetExceeded:
        return None


@pytest.mark.parametrize("seed", range(3))
def test_struct_less_and_sort_unique_follow_the_codes(seed):
    pool = _ordering_pool(seed)
    codes = {x: _code_or_none(x) for x in pool}
    assert any(c is None for c in codes.values())
    for a in pool:
        for b in pool:
            ca, cb = codes[a], codes[b]
            if ca is not None and cb is not None:
                assert core._struct_less(a, b) == (ca < cb)
            elif ca is not None or cb is not None:
                assert core._struct_less(a, b) == (ca is not None)
            assert core._struct_less(a, b) == order.ack_less(a, b)
    rng = random.Random(seed)
    for _ in range(8):
        shuffled = pool + rng.sample(pool, 6)
        rng.shuffle(shuffled)
        got = core._sort_unique(shuffled)
        assert set(got) == set(pool) and len(got) == len(set(pool))
        known = [codes[x] for x in got if codes[x] is not None]
        assert known == sorted(set(known))
        assert got[:len(known)] == tuple(x for x in got
                                         if codes[x] is not None)
        assert all(order.ack_less(a, b) for a, b in zip(got, got[1:]))


@pytest.mark.parametrize("seed", range(3))
def test_mem_on_an_uncoded_set_is_the_bit_test(seed):
    pool = _ordering_pool(seed)
    rng = random.Random(seed)
    for y in pool:
        if y._code is not None:
            continue
        cy = _code_or_none(y)
        near = [core.decode(c + 1) for c in map(_code_or_none, y.children[:3])
                if c is not None]
        for x in pool + near + rng.sample(y.children, min(len(y), 40)):
            cx = _code_or_none(x)
            if cx is not None and cy is not None:
                assert core.mem(x, y) == bool(cy >> cx & 1)
            assert core.mem(x, y) == (x in y.children)
        assert y._members is None  # searched in order: no member set kept
