"""Cardinal constructions against counting and brute-force oracles."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfinterp import cardinal, core
from hfinterp.errors import BudgetExceeded


def nested(x: core.HFSet):
    return frozenset(nested(c) for c in x.children)


def test_kpair_shape():
    a, b = core.decode(1), core.decode(2)
    p = cardinal.kpair(a, b)
    assert nested(p) == frozenset(
        [frozenset([nested(a)]), frozenset([nested(a), nested(b)])])
    assert cardinal.kpair(a, a) is core.singleton(core.singleton(a))


def test_kpair_injective_exhaustive_small():
    seen = {}
    for i in range(16):
        for j in range(16):
            p = cardinal.kpair(core.decode(i), core.decode(j))
            assert p not in seen, f"collision {seen[p]} vs {(i, j)}"
            seen[p] = (i, j)
    assert len(seen) == 256


def test_kpair_parts_roundtrip():
    for i in range(12):
        for j in range(12):
            a, b = core.decode(i), core.decode(j)
            assert cardinal.kpair_parts(cardinal.kpair(a, b)) == (a, b)
    with pytest.raises(ValueError):
        cardinal.kpair_parts(core.decode(3))


def test_product_size_and_members():
    v2, v3 = core.materialize_level(2), core.materialize_level(3)
    prod = cardinal.product(v2, v3)
    assert cardinal.card(prod) == 8
    firsts = set()
    for p in prod.children:
        a, b = cardinal.kpair_parts(p)
        assert a in v2.members and b in v3.members
        firsts.add((a, b))
    assert len(firsts) == 8


def test_product_size_law_small_pool():
    pool = [core.decode(n) for n in (0, 1, 3, 7, 11, 15, 38)]
    for x, y in itertools.product(pool, repeat=2):
        assert cardinal.card(cardinal.product(x, y)) == \
            cardinal.card(x) * cardinal.card(y)


def test_inj_exists_matches_brute_force():
    pool = [core.decode(n) for n in range(64) if len(core.decode(n).children) <= 4]
    for x in pool:
        for y in pool:
            found = cardinal.injection_search(x, y)
            assert cardinal.inj_exists(x, y) == (found is not None)
            if found is not None:
                assert set(found) == set(x.children)
                assert len(set(found.values())) == len(found)
                assert all(v in y.members for v in found.values())


def test_card_eq_is_equivalence():
    pool = [core.decode(n) for n in range(40)]
    for x in pool:
        assert cardinal.card_eq(x, x)
    for x, y in itertools.product(pool, repeat=2):
        assert cardinal.card_eq(x, y) == cardinal.card_eq(y, x)
        assert cardinal.card_eq(x, y) == (cardinal.card(x) == cardinal.card(y))
    for x, y, z in itertools.islice(itertools.product(pool, repeat=3), 8000):
        if cardinal.card_eq(x, y) and cardinal.card_eq(y, z):
            assert cardinal.card_eq(x, z)


def test_card_lt():
    v2, v3 = core.materialize_level(2), core.materialize_level(3)
    assert cardinal.card_lt(v2, v3)
    assert not cardinal.card_lt(v3, v2)
    assert not cardinal.card_lt(v2, v2)


def test_card_add_is_disjoint_union():
    v3 = core.materialize_level(3)
    s = cardinal.card_add(v3, v3)
    assert cardinal.card(s) == 8
    x, y = core.decode(38), core.decode(5)
    s2 = cardinal.card_add(x, y)
    assert cardinal.card(s2) == cardinal.card(x) + cardinal.card(y)
    zero, one = core.empty(), core.singleton(core.empty())
    tags = {cardinal.kpair_parts(p)[1] for p in s2.children}
    assert tags == {zero, one}


def _two_product_card_add(x, y, enum_budget=None):
    """The tagged union as (x X {0}) U (y X {1}): two products and their
    union, the construction `card_add` is checked against."""
    zero = core.empty()
    left = cardinal.product(x, core.singleton(zero), enum_budget)
    right = cardinal.product(y, core.singleton(core.singleton(zero)),
                             enum_budget)
    return core.from_children(list(left.children) + list(right.children))


def _card_add_operands():
    v3 = core.materialize_level(3).children
    yield from itertools.product(v3, repeat=2)
    rng = random.Random(4096)
    for _ in range(40):
        yield tuple(core.decode(rng.randrange(4096)) for _ in "xy")
    # members with no code: a Kuratowski pair of a set coded 20 or more
    # has a code past the bit budget
    wide = [cardinal.kpair(core.decode(c), core.decode(d))
            for c in (20, 23, 1 << 12) for d in (0, 5)]
    assert all(w._code is None for w in wide)
    mixed = [core.from_children(wide[i:i + k] + [core.decode(k)])
             for i in range(0, 6, 2) for k in (1, 3)]
    for x in [core.empty(), core.from_children(wide)] + mixed:
        for y in [core.decode(7), core.from_children(wide[1:4])] + mixed:
            yield x, y


def test_card_add_is_the_union_of_the_two_tagged_products():
    for x, y in _card_add_operands():
        assert cardinal.card_add(x, y) is _two_product_card_add(x, y)


def test_card_add_budget_is_the_two_products_budget():
    for x, y in _card_add_operands():
        n = max(cardinal.card(x), cardinal.card(y))
        messages = []
        for build in (cardinal.card_add, _two_product_card_add):
            with pytest.raises(BudgetExceeded) as exc:
                build(x, y, n - 1)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert cardinal.card_add(x, y, n) is _two_product_card_add(x, y, n)


def test_card_exp_counts_functions():
    v2 = core.materialize_level(2)
    assert cardinal.card(cardinal.card_exp(v2, v2)) == 4
    e = core.empty()
    assert cardinal.card_exp(e, e) is core.singleton(e)  # 0^0 = 1
    assert cardinal.card_exp(v2, e) is core.singleton(e)
    assert cardinal.card_exp(e, v2) is e  # no maps from nonempty to empty


def test_card_exp_members_are_function_graphs():
    x, y = core.decode(11), core.decode(5)  # |x| = 3, |y| = 2
    space = cardinal.card_exp(x, y)
    assert cardinal.card(space) == 9
    for g in space.children:
        assigned = dict(cardinal.kpair_parts(p) for p in g.children)
        assert set(assigned) == set(y.children)
        assert all(v in x.members for v in assigned.values())


def test_card_exp_size_law_small():
    pool = [core.decode(n) for n in (0, 1, 3, 7, 11, 13)]
    for x, y in itertools.product(pool, repeat=2):
        space = cardinal.card_exp(x, y)
        assert cardinal.card(space) == \
            cardinal.card(x) ** cardinal.card(y)
        assert cardinal.count_functions(x, y) == cardinal.card(space)


def _per_graph_card_exp(x: core.HFSet, y: core.HFSet) -> core.HFSet:
    """card_exp with every graph building its own Kuratowski pairs."""
    return core.from_children(
        core.from_children(cardinal.kpair(b, v)
                           for b, v in zip(y.children, choice))
        for choice in itertools.product(x.children, repeat=len(y.children)))


def test_card_exp_is_the_per_graph_construction():
    for nx in range(64):
        for ny in range(16):
            x, y = core.decode(nx), core.decode(ny)
            assert cardinal.card_exp(x, y) is _per_graph_card_exp(x, y)


def test_card_exp_budget():
    v4 = core.materialize_level(4)
    with pytest.raises(BudgetExceeded):
        cardinal.card_exp(v4, v4, enum_budget=1000)
    with pytest.raises(BudgetExceeded):
        cardinal.count_functions(v4, v4, enum_budget=1000)


@settings(max_examples=150)
@given(st.integers(0, 300), st.integers(0, 300))
def test_add_law_sampled(a, b):
    x, y = core.decode(a), core.decode(b)
    assert cardinal.card(cardinal.card_add(x, y)) == \
        cardinal.card(x) + cardinal.card(y)
