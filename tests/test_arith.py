"""Arithmetic on the Ackermann ordering: literal and fast routes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfinterp import arith, cardinal, core
from hfinterp.arith import (
    FAST,
    LITERAL,
    add_a,
    exp_a,
    mul_a,
)
from hfinterp.core import decode, empty, encode, from_children
from hfinterp.order import ack_less, ack_order, successor_a
from hfinterp.errors import BudgetExceeded


def test_zero_and_successor_walk_the_codes():
    assert empty() is decode(0)
    x = empty()
    for i in range(50):
        x = successor_a(x)
        assert x is decode(i + 1)


def test_addition_examples_both_modes():
    one, two = decode(1), decode(2)
    assert add_a(one, two, FAST) is decode(3)
    assert add_a(one, two, LITERAL) is decode(3)
    assert add_a(decode(20), decode(22), FAST) is decode(42)
    assert add_a(decode(20), decode(22), LITERAL) is decode(42)


def test_multiplication_examples_both_modes():
    assert mul_a(decode(2), decode(3), FAST) is decode(6)
    assert mul_a(decode(2), decode(3), LITERAL) is decode(6)
    assert mul_a(decode(5), decode(7), LITERAL) is decode(35)


def test_exponentiation_examples_both_modes():
    assert exp_a(decode(2), decode(3), FAST) is decode(8)
    assert exp_a(decode(2), decode(3), LITERAL) is decode(8)
    assert exp_a(decode(3), decode(3), LITERAL) is decode(27)


def test_successor_is_adding_one():
    for n in (0, 5, 13, 63, 200):
        assert successor_a(decode(n)) is add_a(decode(n), decode(1))


def test_literal_and_fast_agree_on_a_small_grid():
    for a in range(0, 25, 3):
        for b in range(0, 25, 4):
            x, y = decode(a), decode(b)
            assert add_a(x, y, LITERAL) is add_a(x, y, FAST)
    for a in range(0, 13, 2):
        for b in range(0, 13, 3):
            x, y = decode(a), decode(b)
            assert mul_a(x, y, LITERAL) is mul_a(x, y, FAST)
    for a in range(6):
        for b in range(5):
            x, y = decode(a), decode(b)
            assert exp_a(x, y, LITERAL) is exp_a(x, y, FAST)


def test_literal_exponentiation_past_the_materialized_ordering():
    # 5^7 = 78125 lands beyond the largest sorted level, so the literal
    # route has to extend the enumeration by successor steps
    z = exp_a(decode(5), decode(7), LITERAL)
    assert encode(z) == 78125
    assert z is exp_a(decode(5), decode(7), FAST)


def test_exponentiation_edge_cases():
    zero, one = decode(0), decode(1)
    for mode in (FAST, LITERAL):
        assert exp_a(zero, zero, mode) is one
        assert exp_a(decode(9), zero, mode) is one
        assert exp_a(zero, decode(2), mode) is zero
        assert exp_a(one, decode(7), mode) is one


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_fast_route_is_the_code_homomorphism(a, b):
    x, y = decode(a), decode(b)
    assert encode(add_a(x, y)) == a + b
    assert encode(mul_a(x, y)) == a * b
    assert ack_less(x, y) == (a < b)


def test_literal_mode_refuses_large_operands():
    with pytest.raises(BudgetExceeded):
        add_a(decode(100), decode(1), LITERAL)
    assert add_a(decode(100), decode(1), LITERAL, literal_cutoff=128) \
        is decode(101)


def test_fast_exponentiation_refuses_huge_results():
    with pytest.raises(BudgetExceeded):
        exp_a(decode(16), decode(1 << 19), FAST)


def test_literal_mode_respects_the_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        mul_a(decode(63), decode(63), LITERAL, enum_budget=1000)


def test_empty_set_is_the_additive_identity():
    z = empty()
    for n in (0, 1, 7, 200):
        x = decode(n)
        assert add_a(z, x) is x
        assert add_a(x, z) is x
        if n <= 64:
            assert add_a(z, x, LITERAL) is x


def test_repeated_literal_addition_rebuilds_no_tagged_pair(monkeypatch):
    # sets are interned weakly: unless literal addition keeps its tagged
    # pairs alive, a second identical addition builds its 90 Kuratowski
    # pairs (three nodes each) again
    x, y, z = decode(40), decode(50), decode(90)
    assert add_a(x, y, LITERAL) is z
    built = []
    init = core.HFSet.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(core.HFSet, "__init__", counting_init)
    assert add_a(x, y, LITERAL) is z
    # the two segment fields and the tagged union
    assert len(built) <= 3


def test_kept_tagged_pairs_stay_within_the_literal_cutoff(monkeypatch):
    monkeypatch.setattr(arith, "_TAGGED_READ", [])
    for n in range(17):
        assert add_a(decode(n), decode(16 - n), LITERAL,
                     literal_cutoff=16) is decode(16)
    items = ack_order(arith.MAX_MATERIALIZED_LEVEL).items
    segment = from_children(items[1:17])
    kept = list(arith._TAGGED_READ)
    assert len(kept) == 2 * 16
    assert set(kept) == set(cardinal.card_add(segment, segment).children)
    # refused additions keep nothing more: past the cutoff, and past the
    # enumeration budget
    with pytest.raises(BudgetExceeded):
        add_a(decode(17), decode(1), LITERAL, literal_cutoff=16)
    with pytest.raises(BudgetExceeded):
        add_a(decode(30), decode(1), LITERAL, literal_cutoff=32,
              enum_budget=20)
    assert arith._TAGGED_READ == kept
