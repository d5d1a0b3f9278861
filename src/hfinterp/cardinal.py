"""Cardinal notions: pairs, products, function spaces, size comparisons.

Everything here is constructed inside the set universe itself: ordered
pairs are Kuratowski pairs, sums are tagged disjoint unions, products are
pair sets, and exponentials are sets of total function graphs.  The
constructions stay small as DAGs even when their Ackermann codes would be
astronomically wide, which is exactly why codes are lazy in `core`.
"""

from __future__ import annotations

import itertools

from .core import (
    DEFAULT_ENUM_BUDGET,
    HFSet,
    empty,
    from_children,
    pair,
    singleton,
)
from .errors import BudgetExceeded


def kpair(a: HFSet, b: HFSet) -> HFSet:
    """Kuratowski ordered pair {{a}, {a, b}}."""
    return pair(singleton(a), pair(a, b))


def kpair_parts(p: HFSet) -> "tuple[HFSet, HFSet]":
    """Invert `kpair`; raises ValueError on non-pairs."""
    cs = p.children
    if len(cs) == 1:
        inner = cs[0]
        if len(inner.children) != 1:
            raise ValueError("not a Kuratowski pair")
        a = inner.children[0]
        return a, a
    if len(cs) == 2:
        small = [c for c in cs if len(c.children) == 1]
        big = [c for c in cs if len(c.children) == 2]
        if len(small) != 1 or len(big) != 1:
            raise ValueError("not a Kuratowski pair")
        a = small[0].children[0]
        rest = [m for m in big[0].children if m is not a]
        if len(rest) != 1 or a not in big[0].members:
            raise ValueError("not a Kuratowski pair")
        return a, rest[0]
    raise ValueError("not a Kuratowski pair")


def card(x: HFSet) -> int:
    """Number of members."""
    return len(x.children)


def product(x: HFSet, y: HFSet,
            enum_budget: "int | None" = None) -> HFSet:
    """Cartesian product as a set of Kuratowski pairs."""
    cap = DEFAULT_ENUM_BUDGET if enum_budget is None else enum_budget
    if len(x.children) * len(y.children) > cap:
        raise BudgetExceeded("product exceeds the enumeration budget")
    return from_children(
        kpair(a, b) for a in x.children for b in y.children)


def injection_search(x: HFSet, y: HFSet) -> "dict[HFSet, HFSet] | None":
    """Brute-force search for an injection x -> y (the slow oracle)."""
    xs, ys = x.children, y.children
    used = [False] * len(ys)
    assign: "dict[HFSet, HFSet]" = {}

    def rec(i: int) -> bool:
        if i == len(xs):
            return True
        for j, b in enumerate(ys):
            if not used[j]:
                used[j] = True
                assign[xs[i]] = b
                if rec(i + 1):
                    return True
                used[j] = False
                del assign[xs[i]]
        return False

    return dict(assign) if rec(0) else None


def inj_exists(x: HFSet, y: HFSet) -> bool:
    """Whether an injection x -> y exists.

    Fast path: compare member counts.  `injection_search` is the literal
    oracle this is validated against.
    """
    return len(x.children) <= len(y.children)


def card_eq(x: HFSet, y: HFSet) -> bool:
    """Cardinal equivalence: injections both ways."""
    return inj_exists(x, y) and inj_exists(y, x)


def card_lt(x: HFSet, y: HFSet) -> bool:
    """Strictly smaller: an injection one way and none back."""
    return inj_exists(x, y) and not inj_exists(y, x)


# the tags of `card_add`'s two sides: 0 = {} and 1 = {{}}
_TAG0 = empty()
_TAG1 = singleton(_TAG0)


def card_add(x: HFSet, y: HFSet,
             enum_budget: "int | None" = None) -> HFSet:
    """Tagged disjoint union (x X {0}) U (y X {1}) with set tags, built as
    one union of the pairs (a, 0) and (b, 1).  It refuses what the two
    products would: a side with more members than the enumeration
    budget."""
    cap = DEFAULT_ENUM_BUDGET if enum_budget is None else enum_budget
    if len(x.children) > cap or len(y.children) > cap:
        raise BudgetExceeded("product exceeds the enumeration budget")
    return from_children(
        [kpair(a, _TAG0) for a in x.children]
        + [kpair(b, _TAG1) for b in y.children])


def card_exp(x: HFSet, y: HFSet,
             enum_budget: "int | None" = None) -> HFSet:
    """The set of all total function graphs from y to x.

    The empty function is a graph, so card_exp(0, 0) = {0}: zero to the
    zero is one.
    """
    cap = DEFAULT_ENUM_BUDGET if enum_budget is None else enum_budget
    nx, ny = len(x.children), len(y.children)
    if nx and ny and nx ** ny > cap:
        raise BudgetExceeded("function space exceeds the enumeration budget")
    dom = y.children
    graphs = [
        from_children(kpair(b, v) for b, v in zip(dom, choice))
        for choice in itertools.product(x.children, repeat=ny)
    ]
    return from_children(graphs)


def count_functions(x: HFSet, y: HFSet,
                    enum_budget: "int | None" = None) -> int:
    """|card_exp(x, y)| by enumeration, without building the graphs."""
    cap = DEFAULT_ENUM_BUDGET if enum_budget is None else enum_budget
    nx, ny = len(x.children), len(y.children)
    # refuse upfront when even a log-underestimate of the count is past the
    # cap; everything actually counted is counted by enumeration
    if nx > 1 and ny * (nx.bit_length() - 1) > cap.bit_length():
        raise BudgetExceeded("function count exceeds the enumeration budget")
    n = 0
    for _ in itertools.product(range(nx), repeat=ny):
        n += 1
        if n > cap:
            raise BudgetExceeded(
                "function count exceeds the enumeration budget")
    return n
