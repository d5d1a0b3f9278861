"""Arithmetic carried by the Ackermann ordering of the sets.

Zero is the empty set, successor steps along the ordering, and the binary
operations are fixed by segment cardinalities: x + y is the unique z whose
segment from {{}} is as large as the tagged union of the operands'
segments, with products and function spaces playing the same role for
multiplication and exponentiation.

Every binary operation has two routes that are checked against each other
and must never be collapsed:

- ``literal`` walks the materialized ordering and really builds the
  tagged unions / pair sets / function counts;
- ``fast`` transports the operands to their codes, uses machine
  arithmetic, and decodes the result.

`core` interns sets weakly, so a Kuratowski pair dies with the last set
holding it and the next construction builds it again.  Literal addition
therefore keeps both tagged pairs of every order position it has read
(at most `literal_cutoff` positions, since no operand lies past it): each
later `card_add` finds them interned and builds only its union.
Multiplication and exponentiation keep nothing; their pairs would grow
with the square of the cutoff.
"""

from __future__ import annotations

from . import cardinal
from .core import (
    DEFAULT_BIT_BUDGET,
    DEFAULT_ENUM_BUDGET,
    FAST,
    LITERAL,
    HFSet,
    decode,
    encode,
    from_children,
)
from .errors import BudgetExceeded
from .order import (
    MAX_MATERIALIZED_LEVEL,
    ack_enum_iter,
    ack_order,
    position,
)

DEFAULT_LITERAL_CUTOFF = 64

# function spaces up to this many graphs are materialized in literal mode;
# larger ones are counted by enumeration without building the graphs
_EXP_MATERIALIZE_CAP = 4096

# both tagged pairs, as `cardinal.card_add` builds them, of the order items
# at positions 1..len(_TAGGED_READ) // 2: the positions literal addition
# has read, bounded by the largest literal cutoff used
_TAGGED_READ: "list[HFSet]" = []


def _segment_field(x: HFSet, literal_cutoff: int) -> HFSet:
    """The set of ordering elements from {{}} to x inclusive."""
    pos = position(x)
    if pos > literal_cutoff:
        raise BudgetExceeded(
            f"literal mode needs operand position <= {literal_cutoff}")
    items = ack_order(MAX_MATERIALIZED_LEVEL).items
    return from_children(items[1:pos + 1])


def _segments(x: HFSet, y: HFSet, mode: str,
              literal_cutoff: int) -> "tuple[HFSet, HFSet]":
    """Both operands' segment fields, for the literal route; any mode but
    the two routes is refused rather than taken for the literal one."""
    if mode != LITERAL:
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    return _segment_field(x, literal_cutoff), _segment_field(y, literal_cutoff)


def _scan_to_segment_card(want: int, enum_budget: int) -> HFSet:
    """Walk the ordering to the unique z whose segment has `want` members."""
    if want > enum_budget:
        raise BudgetExceeded(
            f"literal result at position {want} exceeds the budget")
    for i, z in ack_enum_iter():
        if i == want:
            return z
    raise AssertionError("unreachable")


def _keep_tagged_pairs(n: int) -> None:
    """Keep alive both tagged pairs of the order items at positions 1..n."""
    read = len(_TAGGED_READ) // 2
    if n > read:
        items = ack_order(MAX_MATERIALIZED_LEVEL).items
        new = from_children(items[read + 1:n + 1])
        _TAGGED_READ.extend(cardinal.card_add(new, new).children)


def add_a(x: HFSet, y: HFSet, mode: str = FAST, *,
          literal_cutoff: int = DEFAULT_LITERAL_CUTOFF,
          enum_budget: int = DEFAULT_ENUM_BUDGET) -> HFSet:
    """Ordering addition: segment of the result ~ tagged union of segments.

    The literal route keeps the tagged pairs of the positions it has read,
    so a repeated addition finds them interned instead of rebuilding them.
    """
    if mode == FAST:
        return decode(encode(x) + encode(y))
    a, b = _segments(x, y, mode, literal_cutoff)
    target = cardinal.card_add(a, b, enum_budget)
    _keep_tagged_pairs(max(cardinal.card(a), cardinal.card(b)))
    return _scan_to_segment_card(cardinal.card(target), enum_budget)


def mul_a(x: HFSet, y: HFSet, mode: str = FAST, *,
          literal_cutoff: int = DEFAULT_LITERAL_CUTOFF,
          enum_budget: int = DEFAULT_ENUM_BUDGET) -> HFSet:
    """Ordering multiplication: segment of the result ~ segment product."""
    if mode == FAST:
        return decode(encode(x) * encode(y))
    a, b = _segments(x, y, mode, literal_cutoff)
    target = cardinal.product(a, b, enum_budget)
    return _scan_to_segment_card(cardinal.card(target), enum_budget)


def exp_a(x: HFSet, y: HFSet, mode: str = FAST, *,
          literal_cutoff: int = DEFAULT_LITERAL_CUTOFF,
          enum_budget: int = DEFAULT_ENUM_BUDGET,
          code_budget: int = DEFAULT_BIT_BUDGET) -> HFSet:
    """Ordering exponentiation: segment ~ function space of the segments.
    The fast route refuses a result past `code_budget` bits (with the
    64 bits of slack the arithmetic side's exp allows)."""
    if mode == FAST:
        cx, cy = encode(x), encode(y)
        if cx >= 2 and cy * (cx.bit_length()) > code_budget + 64:
            raise BudgetExceeded("exponentiation result exceeds bit budget")
        return decode(cx ** cy)
    a, b = _segments(x, y, mode, literal_cutoff)
    na, nb = cardinal.card(a), cardinal.card(b)
    if 0 < na ** nb <= _EXP_MATERIALIZE_CAP:
        want = cardinal.card(cardinal.card_exp(a, b, enum_budget))
    else:
        want = cardinal.count_functions(a, b, enum_budget)
    return _scan_to_segment_card(want, enum_budget)
