"""Canonical hereditarily finite sets and their Ackermann bit coding.

Every set is an interned node of an immutable DAG, so extensional equality
is object identity and equality tests are O(1).  The code of a set is the
natural number whose binary expansion has bit(code(c)) set for each member
c; it is memoized on the node whenever it fits the default bit budget and
left unmaterialized otherwise (a set of Kuratowski function graphs is a
perfectly small DAG whose code would need astronomically many bits).
"""

from __future__ import annotations

import weakref
from functools import cmp_to_key
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .errors import BudgetExceeded, FormulaSyntaxError, NotAnOrdinal

DEFAULT_BIT_BUDGET = 1 << 20
DEFAULT_ENUM_BUDGET = 1 << 20

#: the two routes of the order arithmetic (see `arith`)
FAST = "fast"
LITERAL = "literal"

# bit positions set in each byte value, used to stream the bits of big codes
_BYTE_BITS = tuple(
    tuple(b for b in range(8) if (v >> b) & 1) for v in range(256)
)


class HFSet:
    """One canonical hereditarily finite set.

    `children` holds the members sorted ascending by code.  Instances are
    only created through the interning constructor below; client code uses
    `empty()`, `from_children()`, `decode()` and the algebraic operations.
    """

    __slots__ = ("children", "rank", "_code", "_members", "__weakref__")

    children: "tuple[HFSet, ...]"
    rank: int

    def __init__(self, children: "tuple[HFSet, ...]", rank: int, code: "int | None"):
        self.children = children
        self.rank = rank
        self._code = code
        self._members: "frozenset[HFSet] | None" = None

    @property
    def members(self) -> "frozenset[HFSet]":
        ms = self._members
        if ms is None:
            ms = self._members = frozenset(self.children)
        return ms

    def __len__(self) -> int:
        return len(self.children)

    def __iter__(self) -> "Iterator[HFSet]":
        return iter(self.children)

    def __contains__(self, x: object) -> bool:
        return x in self.members

    def __repr__(self) -> str:
        if self._code is not None and self._code.bit_length() <= 64:
            return f"<HFSet #{self._code}>"
        return f"<HFSet rank={self.rank} size={len(self.children)}>"

    def __str__(self) -> str:
        return format_set(self)


_INTERN: "weakref.WeakValueDictionary[tuple, HFSet]" = weakref.WeakValueDictionary()
_DECODE: "weakref.WeakValueDictionary[int, HFSet]" = weakref.WeakValueDictionary()
# the tables' own dicts of weak refs, read directly on the bulk paths (a
# dead ref reads None, like a miss); every write goes through the tables
_INTERN_REFS = _INTERN.data
_DECODE_REFS = _DECODE.data


def _code_of_sorted(children: "tuple[HFSet, ...]") -> "int | None":
    """Code of a set with the given (sorted) members, or None if too wide."""
    if not children:
        return 0
    top = children[-1]._code
    if top is None or top >= DEFAULT_BIT_BUDGET:
        return None
    if top < 4096:
        n = 0
        for c in children:
            n |= 1 << c._code  # type: ignore[operator]
        return n
    buf = bytearray(top // 8 + 1)
    for c in children:
        cc = c._code
        buf[cc >> 3] |= 1 << (cc & 7)  # type: ignore[operator]
    return int.from_bytes(buf, "little")


def _intern_sorted(children: "tuple[HFSet, ...]") -> HFSet:
    """Intern a node whose children are already sorted and duplicate-free."""
    ref = _INTERN_REFS.get(children)
    node = None if ref is None else ref()
    if node is None:
        # max() over all children: rank order and code order provably
        # coincide, but rank must not silently assume that here.
        rank = max(map(attrgetter("rank"), children)) + 1 if children else 0
        node = _INTERN[children] = HFSet(children, rank,
                                         _code_of_sorted(children))
    return node


def _extend(t: HFSet, c: HFSet) -> HFSet:
    """t with c adjoined, where c sorts after every member of t.

    Rank and code are what `_intern_sorted` derives from the members,
    computed from t's: c's bit joins t's code, and the code is None when
    either is None or c's bit lies past the default bit budget.
    """
    children = t.children + (c,)
    ref = _INTERN_REFS.get(children)
    node = None if ref is None else ref()
    if node is None:
        tc, cc = t._code, c._code
        code = None if tc is None or cc is None or cc >= DEFAULT_BIT_BUDGET \
            else tc | 1 << cc
        node = _INTERN[children] = HFSet(children, max(t.rank, c.rank + 1),
                                         code)
    return node


def _struct_less(x: HFSet, y: HFSet) -> bool:
    """Code comparison that never materializes codes.

    Distinct sets compare by rank first, then by which of them owns the
    largest member on which they disagree (scanning the sorted member
    tuples from their top ends).
    """
    if x is y:
        return False
    cx, cy = x._code, y._code
    if cx is not None and cy is not None:
        return cx < cy
    if x.rank != y.rank:
        return x.rank < y.rank
    xs, ys = x.children, y.children
    i, j = len(xs) - 1, len(ys) - 1
    while i >= 0 and j >= 0:
        a, b = xs[i], ys[j]
        if a is b:
            i -= 1
            j -= 1
            continue
        return _struct_less(a, b)
    return j >= 0


def _sort_unique(cs: "list[HFSet]") -> "tuple[HFSet, ...]":
    if all(c._code is not None for c in cs):
        cs.sort(key=lambda c: c._code)  # type: ignore[arg-type, return-value]
    else:
        cs.sort(key=cmp_to_key(
            lambda a, b: -1 if _struct_less(a, b) else (0 if a is b else 1)))
    out: "list[HFSet]" = []
    for c in cs:
        if not out or out[-1] is not c:
            out.append(c)
    return tuple(out)


_EMPTY = _intern_sorted(())


def empty() -> HFSet:
    """The empty set."""
    return _EMPTY


def from_children(children: "Iterable[HFSet]") -> HFSet:
    """The set whose members are exactly the given sets (dedup + sort)."""
    return _intern_sorted(_sort_unique(list(children)))


def encode(x: HFSet, budget: "int | None" = None) -> int:
    """Ackermann code of x; raises BudgetExceeded beyond the bit budget."""
    budget = DEFAULT_BIT_BUDGET if budget is None else budget
    code = x._code
    if code is None:
        raise BudgetExceeded(
            "code of this set exceeds the materializable bit budget")
    if code.bit_length() > budget:
        raise BudgetExceeded(
            f"code needs {code.bit_length()} bits, budget is {budget}")
    return code


def _bit_positions(n: int) -> "list[int]":
    data = n.to_bytes((n.bit_length() + 7) // 8, "little")
    return [i << 3 | b for i, byte in enumerate(data) if byte
            for b in _BYTE_BITS[byte]]


def decode(n: int, budget: "int | None" = None) -> HFSet:
    """The set coded by n (bit i set  <->  decode(i) is a member)."""
    if n < 0:
        raise ValueError("codes are non-negative")
    budget = DEFAULT_BIT_BUDGET if budget is None else budget
    if n.bit_length() > budget:
        raise BudgetExceeded(
            f"code needs {n.bit_length()} bits, budget is {budget}")
    ref = _DECODE_REFS.get(n)
    node = None if ref is None else ref()
    if node is None:
        bits = _bit_positions(n)
        get = _DECODE_REFS.get
        kids = [None if (r := get(i)) is None else r() for i in bits]
        children = tuple([decode(i, budget) if c is None else c
                          for i, c in zip(bits, kids)])
        # bit order is code order: presorted; the code is still worked
        # out from the members, never taken from n
        node = _intern_sorted(children)
        _DECODE[n] = node
    return node


def mem(x: HFSet, y: HFSet) -> bool:
    """Membership x in y; agrees with bit code(x) of code(y)."""
    cx, cy = x._code, y._code
    if cx is not None and cy is not None:
        return (cy >> cx) & 1 == 1
    return x in y.members


def pair(x: HFSet, y: HFSet) -> HFSet:
    """The unordered pair {x, y} ({x} when x = y)."""
    if x is y:
        return _intern_sorted((x,))
    if _struct_less(x, y):
        return _intern_sorted((x, y))
    return _intern_sorted((y, x))


def singleton(x: HFSet) -> HFSet:
    return _intern_sorted((x,))


def sumset(x: HFSet) -> HFSet:
    """Union of the members of x."""
    seen: "set[HFSet]" = set()
    for c in x.children:
        seen.update(c.children)
    return from_children(list(seen))


def powerset(x: HFSet, enum_budget: "int | None" = None) -> HFSet:
    """The set of all subsets of x; 2^|x| must fit the enumeration budget."""
    cap = DEFAULT_ENUM_BUDGET if enum_budget is None else enum_budget
    k = len(x.children)
    if (1 << k) > cap:
        raise BudgetExceeded(f"powerset would enumerate 2^{k} subsets")
    # doubling keeps mask order: subs[mask] holds x's member i for each
    # bit i of mask, and each member is adjoined after all smaller ones,
    # so every subset is interned straight from the subset one bit lower
    subs = [_EMPTY]
    for c in x.children:
        subs += [_extend(t, c) for t in subs]
    return from_children(subs)


def adjoin(x: HFSet, z: HFSet) -> HFSet:
    """x with z added as a member: x U {z}."""
    if z in x.members:
        return x
    return from_children(list(x.children) + [z])


def separate(y: HFSet, pred: "Callable[[HFSet], bool]") -> HFSet:
    """Subset of y whose members satisfy pred."""
    return _intern_sorted(tuple(c for c in y.children if pred(c)))


def tower(k: int) -> int:
    """Iterated exponential: tower(0) = 1, tower(k+1) = 2^tower(k)."""
    n = 1
    for _ in range(k):
        if n > 64:  # 2^(2^64) is far past any budget; fail loudly
            raise BudgetExceeded(f"tower({k}) is not materializable")
        n = 1 << n
    return n


_LEVELS: "dict[int, HFSet]" = {}


def materialize_level(m: int, enum_budget: "int | None" = None) -> HFSet:
    """The m-th cumulative level: V_0 = {}, V_{k+1} = powerset(V_k)."""
    if m < 0:
        raise ValueError("levels are indexed by naturals")
    cap = DEFAULT_ENUM_BUDGET if enum_budget is None else enum_budget
    try:
        size = tower(m - 1) if m >= 1 else 0
    except BudgetExceeded:
        raise BudgetExceeded(f"level {m} has tower-of-2 size")
    if size > cap:
        raise BudgetExceeded(f"level {m} has {size} members, budget is {cap}")
    if m not in _LEVELS:
        v = _EMPTY
        for _ in range(m):
            v = powerset(v, enum_budget)
        _LEVELS[m] = v
    return _LEVELS[m]


def is_level(s: HFSet) -> bool:
    """Whether s is some cumulative level V_m."""
    while s.children:
        base = sumset(s)
        if len(base.children) >= 30:
            return False  # powerset(base) would dwarf s anyway
        if powerset(base) is not s:
            return False
        s = base
    return True


def is_transitive(x: HFSet) -> bool:
    """Every member of a member is a member."""
    ms = x.members
    return all(c.members <= ms for c in x.children)


def is_ordinal(x: HFSet) -> bool:
    """Transitive and linearly ordered by membership (von Neumann)."""
    if not is_transitive(x):
        return False
    cs = x.children
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            a, b = cs[i], cs[j]
            if a not in b.members and b not in a.members:
                return False
    return True


_VN_CHAIN: "list[HFSet]" = [_EMPTY]


def vn_ordinal(n: int, enum_budget: "int | None" = None) -> HFSet:
    """The von Neumann ordinal n = {0, 1, ..., n-1}."""
    cap = DEFAULT_ENUM_BUDGET if enum_budget is None else enum_budget
    if n > cap:
        raise BudgetExceeded(f"ordinal {n} exceeds the enumeration budget")
    while len(_VN_CHAIN) <= n:
        prev = _VN_CHAIN[-1]
        _VN_CHAIN.append(_intern_sorted(prev.children + (prev,)))
    return _VN_CHAIN[n]


def ord_len(x: HFSet) -> int:
    """The natural number an ordinal stands for (= its member count)."""
    if not is_ordinal(x):
        raise NotAnOrdinal(f"not an ordinal: {format_set(x, limit=120)}")
    return len(x.children)


def ord_add(x: HFSet, y: HFSet, enum_budget: "int | None" = None) -> HFSet:
    return vn_ordinal(ord_len(x) + ord_len(y), enum_budget)


def ord_mul(x: HFSet, y: HFSet, enum_budget: "int | None" = None) -> HFSet:
    return vn_ordinal(ord_len(x) * ord_len(y), enum_budget)


def ord_exp(x: HFSet, y: HFSet, enum_budget: "int | None" = None) -> HFSet:
    """Ordinal exponentiation by iterated multiplication."""
    cap = DEFAULT_ENUM_BUDGET if enum_budget is None else enum_budget
    base, e = ord_len(x), ord_len(y)
    n = 1
    for _ in range(e):
        n *= base
        if n > cap:
            raise BudgetExceeded("ordinal exponent exceeds enumeration budget")
    return vn_ordinal(n, enum_budget)


# ---------------------------------------------------------------------------
# textual value literals: {} | {a, b} | #n


def format_set(x: HFSet, limit: "int | None" = None) -> str:
    """Canonical brace literal, members in code-ascending order."""
    parts: "list[str]" = []
    _format_into(x, parts, [0], limit)
    return "".join(parts)


def _format_into(x: HFSet, parts: "list[str]", used: "list[int]",
                 limit: "int | None") -> None:
    if limit is not None and used[0] > limit:
        parts.append("...")
        return
    parts.append("{")
    used[0] += 2
    for i, c in enumerate(x.children):
        if i:
            parts.append(", ")
            used[0] += 2
        _format_into(c, parts, used, limit)
    parts.append("}")


def parse_set_literal(text: str) -> HFSet:
    """Parse a value literal: braces or #n, e.g. '{{}, {{}}}' or '#3'."""
    pos, node = _parse_literal(text, _skip_ws(text, 0))
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise FormulaSyntaxError("trailing input after set literal", text, pos)
    return node


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_literal(text: str, pos: int) -> "tuple[int, HFSet]":
    if pos >= len(text):
        raise FormulaSyntaxError("expected a set literal", text, pos)
    ch = text[pos]
    if ch == "#":
        end = pos + 1
        while end < len(text) and text[end].isdigit():
            end += 1
        if end == pos + 1:
            raise FormulaSyntaxError("expected digits after '#'", text, pos)
        try:
            n = int(text[pos + 1:end])
        except ValueError:  # more digits than the interpreter converts
            raise FormulaSyntaxError(
                f"numeral of {end - pos - 1} digits is too long",
                text, pos) from None
        return end, decode(n)
    if ch != "{":
        raise FormulaSyntaxError("expected '{' or '#'", text, pos)
    pos = _skip_ws(text, pos + 1)
    members: "list[HFSet]" = []
    if pos < len(text) and text[pos] == "}":
        return pos + 1, _EMPTY
    while True:
        pos, m = _parse_literal(text, pos)
        members.append(m)
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            raise FormulaSyntaxError("unterminated set literal", text, pos)
        if text[pos] == ",":
            pos = _skip_ws(text, pos + 1)
            continue
        if text[pos] == "}":
            return pos + 1, from_children(members)
        raise FormulaSyntaxError("expected ',' or '}'", text, pos)
