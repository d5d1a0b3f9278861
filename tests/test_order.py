"""Ordering module: literal construction vs recursive comparator."""

from __future__ import annotations

import itertools
import random
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfinterp import core, order
from hfinterp.errors import BudgetExceeded, NotASubset


def O(*codes):  # noqa: E743 - tiny test helper
    return order.LinearOrder(tuple(core.decode(c) for c in codes))


# --- lexicographic rule ----------------------------------------------------

def test_lex_less_base_examples():
    o1 = O(0)
    assert order.lex_less(o1, core.decode(0), core.decode(1))
    assert not order.lex_less(o1, core.decode(1), core.decode(0))
    assert not order.lex_less(o1, core.decode(1), core.decode(1))
    o2 = O(0, 1)
    # {{{}}} comes before {{}, {{}}}: they disagree on {} which y owns
    assert order.lex_less(o2, core.decode(2), core.decode(3))


def test_lex_less_requires_subsets_of_carrier():
    o1 = O(0)
    with pytest.raises(NotASubset):
        order.lex_less(o1, core.decode(2), core.decode(1))


def test_lex_less_is_strict_total_order_on_level4_members():
    carrier = order.ack_order(3)
    sets = [core.decode(i) for i in range(16)]
    for x in sets:
        assert not order.lex_less(carrier, x, x)
    for x, y in itertools.permutations(sets, 2):
        assert order.lex_less(carrier, x, y) != order.lex_less(carrier, y, x)
    for x, y, z in itertools.permutations(sets, 3):
        if order.lex_less(carrier, x, y) and order.lex_less(carrier, y, z):
            assert order.lex_less(carrier, x, z)


# --- literal stage-by-stage ordering ---------------------------------------

def test_ack_order_small_stages():
    assert order.ack_order(0).items == ()
    assert order.ack_order(1).items == (core.decode(0),)
    assert order.ack_order(2).items == (core.decode(0), core.decode(1))
    assert order.ack_order(3).items == tuple(core.decode(i) for i in range(4))
    assert order.ack_order(4).items == tuple(core.decode(i) for i in range(16))


def test_ack_order_end_extension():
    for m in range(1, 5):
        lo, hi = order.ack_order(m), order.ack_order(m + 1)
        assert hi.items[:len(lo.items)] == lo.items


def _comparator_sort(prev, carrier):
    return tuple(sorted(carrier, key=cmp_to_key(
        lambda a, b: -1 if order.lex_less(prev, a, b)
        else (0 if a is b else 1))))


def test_ack_order_matches_a_lex_less_sort():
    # the key sort and the comparator give one order, whatever the input
    # arrangement the comparator starts from
    for k in range(1, 5):
        prev = order.ack_order(k - 1)
        carrier = list(core.materialize_level(k).children)
        shuffled = list(carrier)
        random.Random(k).shuffle(shuffled)
        for start in (carrier[::-1], shuffled):
            assert _comparator_sort(prev, start) == order.ack_order(k).items


def test_ack_order_level5_is_lex_increasing():
    order4, items = order.ack_order(4), order.ack_order(5).items
    assert len(items) == 1 << 16
    for x, y in zip(items, items[1:]):
        assert order.lex_less(order4, x, y)


def test_ack_order_level5_is_the_code_order():
    assert order.ack_order(5).items == tuple(
        core.decode(c) for c in range(1 << 16))


def test_ack_order_rejects_unmaterializable_levels():
    with pytest.raises(BudgetExceeded):
        order.ack_order(6)


# --- recursive comparator ---------------------------------------------------

def test_ack_less_agrees_with_code_order_small():
    sets = [core.decode(i) for i in range(512)]
    for i, x in enumerate(sets):
        for j, y in enumerate(sets):
            if order.ack_less(x, y) != (i < j):
                raise AssertionError(f"disagreement at {i}, {j}")


def test_ack_less_rank_bands():
    assert order.ack_less(core.decode(3), core.decode(4))  # rank 2 vs 3
    assert not order.ack_less(core.decode(4), core.decode(3))


@settings(max_examples=300)
@given(st.integers(0, 5000), st.integers(0, 5000), st.integers(0, 5000))
def test_ack_less_transitive_sampled(a, b, c):
    x, y, z = core.decode(a), core.decode(b), core.decode(c)
    if order.ack_less(x, y) and order.ack_less(y, z):
        assert order.ack_less(x, z)


@settings(max_examples=300)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_ack_less_trichotomy_sampled(a, b):
    x, y = core.decode(a), core.decode(b)
    assert (order.ack_less(x, y), order.ack_less(y, x), x is y).count(True) == 1


# --- position / successor / numerals ---------------------------------------

def test_position_examples():
    assert order.position(core.empty()) == 0
    assert order.position(core.decode(3)) == 3
    assert order.position(core.decode(100)) == 100


def test_position_equals_code():
    for n in range(2048):
        assert order.position(core.decode(n)) == n


def test_successor_advances_code_by_one():
    for n in range(2048):
        assert core.encode(order.successor_a(core.decode(n))) == n + 1


def test_successor_crosses_rank_boundaries():
    for boundary in (1, 3, 15, 65535):  # top set of each small rank band
        x = core.decode(boundary)
        s = order.successor_a(x)
        assert core.encode(s) == boundary + 1
        assert s.rank == x.rank + 1


def test_successor_beyond_materialized_orderings():
    x = core.decode((1 << 16) + 7)  # rank 5: no materialized ordering
    assert core.encode(order.successor_a(x)) == (1 << 16) + 8


def test_ack_enum():
    assert order.ack_enum(0) is core.empty()
    assert order.ack_enum(100) is core.decode(100)
    assert order.ack_enum(65600) is core.decode(65600)
    walked = [z for _, z in itertools.islice(order.ack_enum_iter(65530), 10)]
    assert [core.encode(z) for z in walked] == list(range(65530, 65540))


def test_numeral_example():
    num = order.numeral(core.decode(6))
    assert num.bits == (0, 1, 1, 0, 0, 0, 0)
    assert str(num) == "0110000"


def test_numeral_last_bit_zero_and_value():
    for n in range(1024):
        num = order.numeral(core.decode(n))
        assert num.bits[-1] == 0
        assert len(num) == order.position(core.decode(n)) + 1
        assert order.numeral_value(num) == n
    assert order.numeral_value((0, 1, 1, 0)) == 6


def test_numeral_carry_pattern():
    # successor flips the initial 1-run to 0s, sets the first 0 bit, keeps
    # the tail, and appends a fresh 0 for the new subject position
    for n in range(512):
        bits = order.numeral(core.decode(n)).bits
        k = bits.index(0)
        expected = (0,) * k + (1,) + bits[k + 1:] + (0,)
        assert order.numeral(order.successor_a(core.decode(n))).bits == expected


def test_segment_card():
    # the segment from {{}} to x inclusive has position(x) elements
    assert order.position(core.empty()) == 0
    assert order.position(core.decode(5)) == 5
