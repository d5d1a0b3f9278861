"""Syntax trees for the two first-order languages.

The *arithmetic* language talks about numbers: equality, order, the
constructors S, +, *, exp, numeric literals, and a family of function
symbols for operations on codes (powerset code, union-of-members code,
and so on) that the set-to-arithmetic translation targets.

The *set* language talks about hereditarily finite sets: membership,
equality, the Ackermann order comparison, equinumerosity atoms, ordinal
graph atoms, and term constructors for pairing, powerset, union, levels,
separation, numeral literals, plus order-arithmetic and cardinal
operations.

Both languages share the connectives and bounded quantifiers.  Nodes are
frozen dataclasses, so formulas hash and compare structurally; printing
is canonical (minimal parentheses) and is inverted by the parser.

Every node class carries one child protocol: `child_fields` names the
fields holding subtrees (a single node, a tuple of nodes, or an absent
bound), and `binder` marks the classes whose `var` is bound in their
`body`.  `free_vars`, `substitute`, `is_bounded`, `children` and
`rebuild` are written once over it.  The walkers loop over the field
names inline, so they take one Python frame per tree level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace


class _Node:
    """Derives the child protocol of each node class from its fields."""

    __slots__ = ()
    child_fields: "tuple[str, ...]"
    binder: bool

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        # names, numbers, operator symbols and bound kinds are the only
        # fields that hold no subtree
        cls.child_fields = tuple(name for name, kind in own.items()
                                 if kind not in ("str", "int"))
        cls.binder = "var" in own


class ArithTerm(_Node):
    """Base class for arithmetic terms."""

    __slots__ = ()


class ArithFormula(_Node):
    """Base class for arithmetic formulas."""

    __slots__ = ()


class SetTerm(_Node):
    """Base class for set terms."""

    __slots__ = ()


class SetFormula(_Node):
    """Base class for set formulas."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# operation registries: symbol -> arity
# ---------------------------------------------------------------------------

#: arithmetic function symbols (beyond literals and variables)
ARITH_OPS = {
    "S": 1, "+": 2, "*": 2, "exp": 2,
    # code operations: images of the set constructors under coding
    "pow": 1,      # code of the powerset of the coded set
    "sumc": 1,     # code of the union of the coded set's members
    "pairc": 2,    # code of the unordered pair of the coded sets
    "rankc": 1,    # code of the level that the coded set belongs to
    "cardc": 1,    # number of members of the coded set (popcount)
    "vnsc": 1,     # code of x adjoined to itself (next von Neumann ordinal)
    "ordaddc": 2,  # codes of von Neumann ordinal arithmetic
    "ordmulc": 2,
    "ordexpc": 2,
    "caddc": 2,    # codes of cardinal (tagged-union / product / function
    "cmulc": 2,    # space) arithmetic on the coded sets
    "cexpc": 2,
}

#: arithmetic relation symbols
ARITH_RELS = {"=": 2, "<": 2, "Dom": 1, "OrdCode": 1}

#: set function symbols (beyond literals, variables, enumerations, sep)
SET_OPS = {
    "pair": 2, "pset": 1, "sum": 1, "rank": 1, "vns": 1,
    "osucc": 1, "oadd": 2, "omul": 2, "oexp": 2,   # Ackermann-order arithmetic
    "cadd": 2, "cmul": 2, "cexp": 2,               # cardinal arithmetic
    "cardof": 1,                     # cardinality, as a set along the order
    "vadd": 2, "vmul": 2, "vexp": 2,  # von Neumann ordinal arithmetic
}

#: set relation symbols
SET_RELS = {
    "in": 2, "=": 2,
    "<a": 2,                       # Ackermann order comparison
    "~c": 2, "<c": 2, "<=c": 2,    # equinumerosity / strict / injective
    "isord": 1, "Dom": 1,
    "ordadd": 3, "ordmul": 3, "ordexp": 3,  # ordinal operation graphs
}

#: quantifier bound kinds in the set language
BOUND_MEMBER = "member"
BOUND_ORDER = "order"


# ---------------------------------------------------------------------------
# arithmetic nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AVar(ArithTerm):
    name: str


@dataclass(frozen=True)
class ALit(ArithTerm):
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("numeric literals are non-negative")


@dataclass(frozen=True)
class AOp(ArithTerm):
    op: str
    args: "tuple[ArithTerm, ...]"

    def __post_init__(self):
        if self.op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic operation {self.op!r}")
        if len(self.args) != ARITH_OPS[self.op]:
            raise ValueError(f"{self.op} takes {ARITH_OPS[self.op]} arguments")


@dataclass(frozen=True)
class ASep(ArithTerm):
    """Bounded separation on codes: the code of {i < bound : body(i)}.

    Only bits of the bound's code are kept, so the value never exceeds
    the bound interpreted as a code.
    """

    var: str
    bound: ArithTerm
    body: "ArithFormula"


@dataclass(frozen=True)
class ARel(ArithFormula):
    op: str
    args: "tuple[ArithTerm, ...]"

    def __post_init__(self):
        if self.op not in ARITH_RELS:
            raise ValueError(f"unknown arithmetic relation {self.op!r}")
        if len(self.args) != ARITH_RELS[self.op]:
            raise ValueError(f"{self.op} takes {ARITH_RELS[self.op]} arguments")


@dataclass(frozen=True)
class ANot(ArithFormula):
    body: ArithFormula


@dataclass(frozen=True)
class AAnd(ArithFormula):
    left: ArithFormula
    right: ArithFormula


@dataclass(frozen=True)
class AOr(ArithFormula):
    left: ArithFormula
    right: ArithFormula


@dataclass(frozen=True)
class AImplies(ArithFormula):
    left: ArithFormula
    right: ArithFormula


@dataclass(frozen=True)
class AForall(ArithFormula):
    var: str
    bound: "ArithTerm | None"
    body: ArithFormula


@dataclass(frozen=True)
class AExists(ArithFormula):
    var: str
    bound: "ArithTerm | None"
    body: ArithFormula


# ---------------------------------------------------------------------------
# set nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SVar(SetTerm):
    name: str


@dataclass(frozen=True)
class SEmpty(SetTerm):
    pass


@dataclass(frozen=True)
class SLit(SetTerm):
    """#n: the n-th set along the Ackermann ordering."""

    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("numeral literals are non-negative")


@dataclass(frozen=True)
class SEnum(SetTerm):
    """A finite enumeration {t1, ..., tk}."""

    elems: "tuple[SetTerm, ...]" = field(default=())


@dataclass(frozen=True)
class SOp(SetTerm):
    op: str
    args: "tuple[SetTerm, ...]"

    def __post_init__(self):
        if self.op not in SET_OPS:
            raise ValueError(f"unknown set operation {self.op!r}")
        if len(self.args) != SET_OPS[self.op]:
            raise ValueError(f"{self.op} takes {SET_OPS[self.op]} arguments")


@dataclass(frozen=True)
class SSep(SetTerm):
    """Separation: {var in dom : body}."""

    var: str
    dom: SetTerm
    body: "SetFormula"


@dataclass(frozen=True)
class SRel(SetFormula):
    op: str
    args: "tuple[SetTerm, ...]"

    def __post_init__(self):
        if self.op not in SET_RELS:
            raise ValueError(f"unknown set relation {self.op!r}")
        if len(self.args) != SET_RELS[self.op]:
            raise ValueError(f"{self.op} takes {SET_RELS[self.op]} arguments")


@dataclass(frozen=True)
class SNot(SetFormula):
    body: SetFormula


@dataclass(frozen=True)
class SAnd(SetFormula):
    left: SetFormula
    right: SetFormula


@dataclass(frozen=True)
class SOr(SetFormula):
    left: SetFormula
    right: SetFormula


@dataclass(frozen=True)
class SImplies(SetFormula):
    left: SetFormula
    right: SetFormula


@dataclass(frozen=True)
class SForall(SetFormula):
    var: str
    bound: "SetTerm | None"
    body: SetFormula
    bound_kind: str = BOUND_MEMBER

    def __post_init__(self):
        _check_bound_kind(self)


@dataclass(frozen=True)
class SExists(SetFormula):
    var: str
    bound: "SetTerm | None"
    body: SetFormula
    bound_kind: str = BOUND_MEMBER

    def __post_init__(self):
        _check_bound_kind(self)


def _check_bound_kind(q) -> None:
    if q.bound_kind not in (BOUND_MEMBER, BOUND_ORDER):
        raise ValueError(f"unknown bound kind {q.bound_kind!r}")
    # an unbounded quantifier has no meaningful bound kind; normalize so
    # structural equality matches semantic equality
    if q.bound is None and q.bound_kind != BOUND_MEMBER:
        object.__setattr__(q, "bound_kind", BOUND_MEMBER)


# connective precedence:  !  >  &  >  |  >  ->   (-> associates right);
# a quantifier body extends as far right as possible.
_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_NOT = 10, 20, 30, 40

#: each connective and quantifier class and its counterpart in the other
#: language, both ways
TWIN = {}
#: spelling and precedence of each connective and quantifier class
_SYNTAX = {}
for _a, _s, _word, _prec in (
        (ANot, SNot, "!", _PREC_NOT), (AAnd, SAnd, "&", _PREC_AND),
        (AOr, SOr, "|", _PREC_OR), (AImplies, SImplies, "->", _PREC_IMPLIES),
        (AForall, SForall, "forall", 0), (AExists, SExists, "exists", 0)):
    TWIN[_a], TWIN[_s] = _s, _a
    _SYNTAX[_a] = _SYNTAX[_s] = (_word, _prec)


# ---------------------------------------------------------------------------
# the child protocol: subtrees, rebuilding, free variables, substitution,
# boundedness
# ---------------------------------------------------------------------------

def children(node) -> tuple:
    """The subtrees of a node in field order, tuples flattened and an
    absent bound left out."""
    out = []
    for name in type(node).child_fields:
        child = getattr(node, name)
        if type(child) is tuple:
            out.extend(child)
        elif child is not None:
            out.append(child)
    return tuple(out)


def rebuild(node, kids):
    """A node like `node` whose subtrees are `kids`, in the order
    `children` lists them."""
    kids = iter(kids)
    changes = {}
    for name in type(node).child_fields:
        child = getattr(node, name)
        if type(child) is tuple:
            changes[name] = tuple(next(kids) for _ in child)
        elif child is not None:
            changes[name] = next(kids)
    return replace(node, **changes) if changes else node


_NO_VARS: "frozenset[str]" = frozenset()


def free_vars(node, known: "dict | None" = None) -> "frozenset[str]":
    """Free variable names of a term or formula (either language).

    With a dict `known`, the answer for every subtree visited is kept in
    it under the subtree's id, so asking again about any part of the
    same tree costs one lookup."""
    cls = type(node)
    if not cls.child_fields:  # a variable or a literal
        return frozenset((node.name,)) if cls is AVar or cls is SVar \
            else _NO_VARS
    if known is not None and id(node) in known:
        return known[id(node)]
    out = _NO_VARS
    for name in cls.child_fields:
        child = getattr(node, name)
        if type(child) is tuple:
            for c in child:
                out = out | free_vars(c, known)
        elif child is not None:
            inner = free_vars(child, known)
            if cls.binder and name == "body":
                inner = inner - {node.var}
            out = out | inner if out else inner
    if known is not None:
        known[id(node)] = out
    return out


def fresh_var(base: str, avoid: "frozenset[str] | set[str]") -> str:
    """A variable name shaped like `base` that is not in `avoid`."""
    if base not in avoid:
        return base
    stem = base.rstrip("0123456789") or "v"
    for i in itertools.count(1):
        name = f"{stem}{i}"
        if name not in avoid:
            return name
    raise AssertionError("unreachable")


def rename_bound(node, avoid):
    """The binder `node` with its variable renamed to a fresh name outside
    `avoid`, in its body as well."""
    var = fresh_var(node.var, avoid)
    ref = AVar(var) if isinstance(node, (ArithFormula, ArithTerm)) \
        else SVar(var)
    return replace(node, var=var,
                   body=substitute(node.body, {node.var: ref}))


def substitute(node, mapping: dict):
    """Replace free variables by terms, renaming binders to avoid capture.

    The mapping sends names to terms of the node's own language.
    """
    if not mapping:
        return node
    cls = type(node)
    if cls is AVar or cls is SVar:
        return mapping.get(node.name, node)
    scoped = mapping
    if cls.binder:
        scoped = {k: v for k, v in mapping.items() if k != node.var}
        if any(node.var in free_vars(t) for t in scoped.values()):
            avoid = set(free_vars(node.body))
            for t in scoped.values():
                avoid |= free_vars(t)
            node = rename_bound(node, avoid)
    kids = []
    for name in cls.child_fields:
        child = getattr(node, name)
        if type(child) is tuple:
            for c in child:
                kids.append(substitute(c, mapping))
        elif child is not None:
            kids.append(substitute(child,
                                   scoped if name == "body" else mapping))
    return rebuild(node, kids)


def is_bounded(node) -> bool:
    """True when every quantifier in the formula carries a bound."""
    for name in type(node).child_fields:
        child = getattr(node, name)
        if child is None:
            return False
        if type(child) is tuple:
            for c in child:
                if not is_bounded(c):
                    return False
        elif not is_bounded(child):
            return False
    return True


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL = 1, 2

#: what separates a quantified variable from its bound, by bound kind
#: (arithmetic quantifiers have none)
_BOUND_WORD = {None: "<", BOUND_MEMBER: "in", BOUND_ORDER: "<a"}

#: infix spellings for set operations printed as s OP t
_SET_INFIX = {"oadd": ("+a", _PREC_ADD), "omul": ("*a", _PREC_MUL),
              "cadd": ("+c", _PREC_ADD), "cmul": ("*c", _PREC_MUL)}
_SET_FUNC = {"pair": "pair", "pset": "P", "sum": "U", "rank": "R",
             "vns": "vns", "osucc": "Sa", "oexp": "expa", "cexp": "expc",
             "cardof": "cardof", "vadd": "vadd", "vmul": "vmul",
             "vexp": "vexp"}


def _paren(text: str, mine: int, context: int) -> str:
    return f"({text})" if mine < context else text


def show_arith_term(t: ArithTerm, context: int = 0) -> str:
    if isinstance(t, AVar):
        return t.name
    if isinstance(t, ALit):
        return str(t.value)
    if isinstance(t, ASep):
        return (f"sepc({t.var} < {show_arith_term(t.bound)}, "
                f"{show_arith(t.body)})")
    if isinstance(t, AOp):
        if t.op in ("+", "*"):
            mine = _PREC_ADD if t.op == "+" else _PREC_MUL
            left = show_arith_term(t.args[0], mine)
            right = show_arith_term(t.args[1], mine + 1)
            return _paren(f"{left} {t.op} {right}", mine, context)
        args = []
        for a in t.args:  # a loop, not a generator: one frame per level
            args.append(show_arith_term(a))
        return f"{t.op}({', '.join(args)})"
    raise TypeError(f"not an arithmetic term: {t!r}")


def show_set_term(t: SetTerm, context: int = 0) -> str:
    if isinstance(t, SVar):
        return t.name
    if isinstance(t, SEmpty):
        return "0e"
    if isinstance(t, SLit):
        return f"#{t.value}"
    if isinstance(t, SEnum):
        elems = []
        for e in t.elems:
            elems.append(show_set_term(e))
        return "{" + ", ".join(elems) + "}"
    if isinstance(t, SSep):
        return f"sep({t.var} in {show_set_term(t.dom)}, {show_set(t.body)})"
    if isinstance(t, SOp):
        if t.op in _SET_INFIX:
            sym, mine = _SET_INFIX[t.op]
            left = show_set_term(t.args[0], mine)
            right = show_set_term(t.args[1], mine + 1)
            return _paren(f"{left} {sym} {right}", mine, context)
        args = []
        for a in t.args:  # a loop, not a generator: one frame per level
            args.append(show_set_term(a))
        return f"{_SET_FUNC[t.op]}({', '.join(args)})"
    raise TypeError(f"not a set term: {t!r}")


def _show(f, context: int, term) -> str:
    """Print a formula of either language; `term` prints its terms."""
    cls = type(f)
    if cls.binder:
        head = f"{_SYNTAX[cls][0]} {f.var}"
        if f.bound is not None:
            word = _BOUND_WORD[getattr(f, "bound_kind", None)]
            head += f" {word} {term(f.bound)}"
        return _paren(f"{head}. {_show(f.body, 0, term)}", 0, context)
    if cls in _SYNTAX:
        sym, mine = _SYNTAX[cls]
        if mine == _PREC_NOT:
            return f"{sym}{_show(f.body, mine, term)}"
        # -> associates right, & and | left
        right_assoc = mine == _PREC_IMPLIES
        left = _show(f.left, mine + 1 if right_assoc else mine, term)
        right = _show(f.right, mine if right_assoc else mine + 1, term)
        return _paren(f"{left} {sym} {right}", mine, context)
    args = [term(a) for a in f.args]
    if len(args) == 2:
        return f"{args[0]} {f.op} {args[1]}"
    return f"{f.op}({', '.join(args)})"


def show_arith(f: ArithFormula, context: int = 0) -> str:
    return _show(f, context, show_arith_term)


def show_set(f: SetFormula, context: int = 0) -> str:
    return _show(f, context, show_set_term)
