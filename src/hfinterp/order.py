"""Orderings of the hereditarily finite sets.

Two independent routes to the same total order:

- the literal route builds, level by level, the lexicographic ordering of
  each cumulative level's members over the previous level's ordering
  (`ack_order`), by actually sorting with the symmetric-difference rule,
  stated as a sort key; `lex_less` states the same rule as a comparator,
  and the tests check the built order against it;
- the recursive route (`ack_less`) compares two sets directly: lower rank
  first, then whichever owns the largest member on which they disagree.

That the resulting order agrees with the numeric order of the Ackermann
codes is a checked theorem here, never an assumption: `position`,
`numeral` and the literal arithmetic all go through the literal route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .core import HFSet, empty, from_children, materialize_level, mem, tower
from .errors import BudgetExceeded, NotASubset

#: levels whose member orderings are small enough to sort literally
MAX_MATERIALIZED_LEVEL = 5


@dataclass(frozen=True)
class LinearOrder:
    """A finite carrier enumerated from least to greatest."""

    items: "tuple[HFSet, ...]"

    @cached_property
    def index(self) -> "dict[HFSet, int]":
        return {x: i for i, x in enumerate(self.items)}

    @cached_property
    def field(self) -> "frozenset[HFSet]":
        return frozenset(self.items)

    def __len__(self) -> int:
        return len(self.items)


def lex_less(order: LinearOrder, x: HFSet, y: HFSet) -> bool:
    """x strictly before y lexicographically over `order`.

    Both arguments must be sets of carrier elements; x < y iff the
    order-greatest element on which they disagree belongs to y.
    """
    if not (x.members <= order.field and y.members <= order.field):
        raise NotASubset("lex_less arguments must be subsets of the carrier")
    return _lex_less(order.index, x, y)


def _lex_less(index: "dict[HFSet, int]", x: HFSet, y: HFSet) -> bool:
    if x is y:
        return False
    diff = x.members ^ y.members
    top = max(diff, key=index.__getitem__)
    return top in y.members


_ACK_ORDERS: "dict[int, LinearOrder]" = {0: LinearOrder(())}


def ack_order(m: int) -> LinearOrder:
    """The ordering of level V_m's members, built literally.

    Stage m+1 sorts all subsets of stage m's carrier with the
    lexicographic rule over stage m, used as a key: the numeral of a
    subset, the sum of 1 << p over the positions p of its members in
    stage m.  Two such sums compare by the greatest position on which
    they differ, and the subset holding it sorts last, which is exactly
    `lex_less`, the comparator the tests check this order against.  No
    code enters the key, and a sum of Python ints has no width limit.
    The input enumeration is shuffled (fixed seed) before sorting so the
    construction order cannot leak into the result; only the key
    determines it.
    """
    built = _ACK_ORDERS.get(m)
    if built is not None:
        return built
    if m < 0:
        raise ValueError("levels are indexed by naturals")
    if m > MAX_MATERIALIZED_LEVEL:
        raise BudgetExceeded(
            f"ordering of level {m} has tower-of-2 size {tower(m - 1)}")
    for k in range(1, m + 1):
        if k in _ACK_ORDERS:
            continue
        weight = {x: 1 << p
                  for p, x in enumerate(_ACK_ORDERS[k - 1].items)}.__getitem__
        subsets = list(materialize_level(k).children)
        random.Random(0xACC0 + k).shuffle(subsets)
        subsets.sort(key=lambda s: sum(map(weight, s.children)))
        _ACK_ORDERS[k] = LinearOrder(tuple(subsets))
    return _ACK_ORDERS[m]


_MEMBER_CMP: "dict[tuple[HFSet, HFSet], bool]" = {}


def ack_less(x: HFSet, y: HFSet) -> bool:
    """x strictly before y in the Ackermann ordering (recursive rule).

    Lower rank comes first; at equal rank the sorted member tuples are
    scanned from their top ends, and the first disagreement decides: x is
    smaller exactly when the larger of the two differing members is y's.
    Member-level comparisons are memoized (top-level pairs are not, so
    exhaustive sweeps cannot flood the table).
    """
    if x is y:
        return False
    if x.rank != y.rank:
        return x.rank < y.rank
    xs, ys = x.children, y.children
    i, j = len(xs) - 1, len(ys) - 1
    memo = _MEMBER_CMP
    while i >= 0 and j >= 0:
        a, b = xs[i], ys[j]
        if a is b:
            i -= 1
            j -= 1
            continue
        key = (a, b)
        r = memo.get(key)
        if r is None:
            r = ack_less(a, b)
            memo[key] = r
        return r
    return j >= 0


def position(x: HFSet) -> int:
    """Index of x in the literal Ackermann ordering of its level.

    Counts exactly the sets strictly before x; that this equals the
    Ackermann code of x is a verified property, not an assumption.
    """
    return ack_order(x.rank + 1).index[x]


def successor_a(x: HFSet) -> HFSet:
    """The set immediately after x in the Ackermann ordering.

    Inside a materialized level ordering this reads off the next item;
    past the last item (x is the previous level itself) and for ranks too
    large to materialize it applies the carry rule: strip from x the
    initial run of enumeration elements it contains and adjoin the first
    one it lacks.
    """
    m = x.rank + 1
    if m <= MAX_MATERIALIZED_LEVEL:
        order = ack_order(m)
        i = order.index[x] + 1
        if i < len(order.items):
            return order.items[i]
    run: "set[HFSet]" = set()
    z = empty()
    while mem(z, x):
        run.add(z)
        z = successor_a(z)
    keep = [c for c in x.children if c not in run]
    keep.append(z)
    return from_children(keep)


# sets past the end of the largest materialized ordering, reached by
# successor steps; grown on demand and shared between reads
_ENUM_EXT: "list[HFSet]" = []


def ack_enum(i: int) -> HFSet:
    """The i-th set of the Ackermann ordering (0-based): read off the
    largest materialized ordering, and past its end reached by successor
    steps (kept, so a repeated deep read does not redo the chain)."""
    items = ack_order(MAX_MATERIALIZED_LEVEL).items
    if i < len(items):
        return items[i]
    while i - len(items) >= len(_ENUM_EXT):
        prev = _ENUM_EXT[-1] if _ENUM_EXT else items[-1]
        _ENUM_EXT.append(successor_a(prev))
    return _ENUM_EXT[i - len(items)]


@dataclass(frozen=True)
class Numeral:
    """Little-endian membership bits of x along the ordering, up to x.

    Bit i says whether the i-th set of the ordering is a member; the last
    bit is the subject's own position and is always 0.
    """

    bits: "tuple[int, ...]"

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)


def numeral(x: HFSet) -> Numeral:
    order = ack_order(x.rank + 1)
    pos = order.index[x]
    ms = x.members
    items = order.items
    return Numeral(tuple(1 if items[i] in ms else 0 for i in range(pos + 1)))


def numeral_value(num: "Numeral | tuple[int, ...]") -> int:
    """The natural number a numeral denotes (little-endian binary)."""
    bits = num.bits if isinstance(num, Numeral) else num
    n = 0
    for i, b in enumerate(bits):
        if b:
            n |= 1 << i
    return n
