"""Evaluation of both languages over their intended models.

Arithmetic formulas are evaluated over the natural numbers with plain
integer arithmetic; the code operations get genuinely numeric
implementations (bit fiddling), so that evaluating a translated formula
never routes back through the set operations it talks about.  Set
formulas are evaluated over the hereditarily finite sets using the core
operations.

Compilation.  `eval_arith`, `eval_set`, `eval_arith_term` and
`eval_set_term` compile a tree into nested closures ``fn(env, ctx)`` the
first time they meet it (closure code generation, after Feeley and
Lapalme, "Using closures for code generation", 1987).  One function,
`_compile`, serves every node class of both languages, and looks the
operations and relations up by the node's class and symbol.  Each node's
closure is stored on the node itself, in the frozen dataclass's
``__dict__`` as `order.LinearOrder.index` stores its index, so a compiled
form lives and dies with its tree and no module-level table is keyed by
formulas.  Compiling and running both take one Python frame per tree
level.

Quantifiers.  Every quantifier of either language runs one loop,
`_quantify`: it asks the quantifier's deciders, then walks its domain
honestly.  The domain is chosen at compile time: the numbers below the
bound, the members of a set bound, or the sets before it in the order
(each raising BudgetExceeded past the enumeration budget); an unbounded
quantifier is truncated to the context's cutoff, which is good enough
for the finite instances this package checks and is reported as such by
the CLI.  One more domain is the member walk: when an arithmetic
quantifier reads `forall v < T. guard -> rest` or `exists v < T. guard &
rest` and its guard is the bit formula of v in T
(`interp.bit_formula_parts`), v ranges over the set bits of T and only
rest is evaluated.  Being a domain, the member walk runs on both solver
routes.

Deciders.  A decider is a function ``decide(env, ctx)`` that returns
True or False when it settles the quantifier and None to fall through;
the chain solver's true answer is its witness, a nonempty dict.  A
quantifier's deciders run only when ``ctx.solver`` is on, in a fixed
order, before the walk.  Each is built by its maker on the first call in
a mode it runs in and kept in the quantifier's closure; one whose maker
finds that it does not apply is dropped:

- the chain solver, for a bounded arithmetic existential chain whose
  matrix is a single linear equation in the chain's variables (the shape
  the membership translation produces): when the coefficients form a
  positional number system the witness is read off by repeated divmod,
  and believed only after an honest evaluation of the matrix;
- the graph witness, for an unbounded set existential whose variable is
  pinned by an ordinal graph atom `ordop(a, b, v)` among the body's
  conjuncts: no other value can satisfy it, so the body is evaluated on
  that one candidate;
- the order transport, in fast mode, for an order-bounded set quantifier
  over a fully bounded body: its `interp.translate_a` image is evaluated
  on the codes;
- the order chain, outside fast mode, for an order-bounded set
  existential chain over order-arithmetic terms: the chain solver runs on
  the codes, and its witness is re-checked with the set operations.

Loop-invariant terms (code motion with Michie's memo functions, 1968).
In the body of each binder (quantifier or separation term), every
maximal costly term that mentions neither the binder's variable nor one
bound inside the body gets a one-entry memo: costly is any set term but
a variable, 0e or a numeral, and any arithmetic term but a variable, a
literal, S, + or *.  The key is the context's identity and the values of
the term's free variables; only values are kept, so a raise repeats,
and nothing is computed before the first call.  The memo is a closure
cell of the closure stored on the term's node, freed with its tree.

Nothing from the context is compiled in: the closures read
`ctx.solver`, `ctx.mode`, the cutoffs, the budgets and
`ctx.literal_cutoff` when they run, so one compiled tree serves every
context.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from operator import itemgetter

from . import cardinal, order
from .arith import add_a, exp_a, mul_a
from .core import (
    DEFAULT_BIT_BUDGET,
    DEFAULT_ENUM_BUDGET,
    FAST,
    HFSet,
    _bit_positions,
    adjoin,
    decode,
    empty,
    encode,
    from_children,
    is_ordinal,
    materialize_level,
    mem,
    ord_add,
    ord_exp,
    ord_mul,
    pair,
    powerset,
    separate,
    sumset,
    tower,
)
from .errors import BudgetExceeded, NotAnOrdinal
from .formulas import (
    ALit,
    AAnd,
    AExists,
    AForall,
    AImplies,
    ANot,
    AOp,
    ARel,
    AOr,
    ASep,
    AVar,
    ArithFormula,
    ArithTerm,
    BOUND_ORDER,
    SAnd,
    SEmpty,
    SEnum,
    SExists,
    SForall,
    SImplies,
    SLit,
    SNot,
    SOp,
    SOr,
    SRel,
    SSep,
    SVar,
    SetFormula,
    SetTerm,
    free_vars,
    is_bounded,
)
from .interp import bit_formula_parts, translate_a

DEFAULT_CUTOFF = 256


@dataclass(frozen=True)
class EvalContext:
    """Budgets and knobs for evaluation."""

    nat_cutoff: int = DEFAULT_CUTOFF     # unbounded number quantifiers
    set_cutoff: int = DEFAULT_CUTOFF     # unbounded set quantifiers
    code_budget: int = DEFAULT_BIT_BUDGET
    enum_budget: int = DEFAULT_ENUM_BUDGET
    literal_cutoff: int = 64
    mode: str = FAST                     # order-arithmetic route
    solver: bool = True                  # the quantifier deciders

    def with_mode(self, mode: str) -> "EvalContext":
        return replace(self, mode=mode)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

#: the attribute a node's compiled closure is stored under
_FN = "_compiled"


def _store(node, fn):
    object.__setattr__(node, _FN, fn)
    return fn


def eval_arith_term(t: ArithTerm, env: "dict[str, int]",
                    ctx: EvalContext) -> int:
    return _compile(t)(env, ctx)


def eval_arith(f: ArithFormula, env: "dict[str, int]",
               ctx: EvalContext) -> bool:
    return _compile(f)(env, ctx)


def eval_set_term(t: SetTerm, env: "dict[str, HFSet]",
                  ctx: EvalContext) -> HFSet:
    return _compile(t)(env, ctx)


def eval_set(f: SetFormula, env: "dict[str, HFSet]",
             ctx: EvalContext) -> bool:
    return _compile(f)(env, ctx)


# ---------------------------------------------------------------------------
# closures shared by both languages
# ---------------------------------------------------------------------------

def _variable(name: str):
    def fn(env, ctx):
        try:
            return env[name]
        except KeyError:
            raise ValueError(f"unbound variable {name!r}") from None
    return fn


def _constant(value):
    return lambda env, ctx: value


def _op(helper):
    """A maker for an operation or relation whose value is
    `helper(*argument values, ctx)`."""
    def make(*args):
        if len(args) == 1:
            (a,) = args
            return lambda env, ctx: helper(a(env, ctx), ctx)
        if len(args) == 2:
            a, b = args
            return lambda env, ctx: helper(a(env, ctx), b(env, ctx), ctx)
        a, b, c = args
        return lambda env, ctx: helper(a(env, ctx), b(env, ctx),
                                       c(env, ctx), ctx)
    return make


def _negation(a):
    return lambda env, ctx: not a(env, ctx)


def _conjunction(a, b):
    return lambda env, ctx: a(env, ctx) and b(env, ctx)


def _disjunction(a, b):
    return lambda env, ctx: a(env, ctx) or b(env, ctx)


def _implication(a, b):
    return lambda env, ctx: (not a(env, ctx)) or b(env, ctx)


#: binary connective class -> closure maker
_BINARY = {AAnd: _conjunction, SAnd: _conjunction,
           AOr: _disjunction, SOr: _disjunction,
           AImplies: _implication, SImplies: _implication}


# ---------------------------------------------------------------------------
# loop-invariant terms, each behind a one-entry memo (module docstring)
# ---------------------------------------------------------------------------

def _inside(scope, var: str):
    """The scope of a binder's body: the variables of the loops around it,
    outermost first and numbered from 1; the bits of the loops still open
    to a memo; the free variables of the tree's terms, by node id."""
    loops, open_, known = scope or ((), 0, {})
    return loops + (var,), open_ | 2 << len(loops), known


#: the classes of the terms that can be costly: variables, literals and
#: 0e never are, and neither are S, + and *
_COSTLY = (ASep, AOp, SEnum, SSep, SOp)


def _hoist(node, scope):
    """(the key variables of node's memo or None; the scope of node's
    subtrees).  A costly term that is invariant in an open loop gets a
    memo and closes that loop and every loop inside it to its own
    subterms, so only maximal terms get one."""
    if scope is None or not scope[1] or type(node) not in _COSTLY or \
            type(node) is AOp and node.op in ("S", "+", "*"):
        return None, scope
    loops, open_, known = scope
    free = free_vars(node, known)
    level = len(loops)  # ends at the innermost loop binding a variable of t
    while level and loops[level - 1] not in free:
        level -= 1
    if open_ >> level <= 1:  # no open loop past that one
        return None, scope
    return tuple(free), (loops, open_ & (2 << level) - 1, known)


def _memo(fn, names: "tuple[str, ...]"):
    """fn behind a one-entry memo keyed on ctx and the values of names."""
    get = itemgetter(*names) if names else lambda env: ()
    last = None  # (ctx, key, value) of the last call that returned

    def memo(env, ctx):
        nonlocal last
        try:
            key = get(env)
        except KeyError:
            return fn(env, ctx)  # raises "unbound variable" as it should
        if last is None or last[0] is not ctx or last[1] != key:
            last = ctx, key, fn(env, ctx)
        return last[2]
    return memo


# ---------------------------------------------------------------------------
# arithmetic terms and relations
# ---------------------------------------------------------------------------

def _pow_code(n: int, budget: int) -> int:
    """Code of the powerset of the set coded by n."""
    if n >= budget:
        raise BudgetExceeded("powerset code exceeds the bit budget")
    out = 1  # the empty subset
    for i in _bit_positions(n):
        # adding element #i pairs every known subset with itself + #i
        out |= out << (1 << i)
    return out


def _sum_code(n: int) -> int:
    """Code of the union of the members of the set coded by n."""
    out = 0
    for i in _bit_positions(n):
        out |= i
    return out


def _rank_of_code(n: int) -> int:
    r = 0
    while n >= tower(r):
        r += 1
    return r


def _rank_code(n: int, budget: int) -> int:
    """Code of the level that the set coded by n belongs to."""
    r = _rank_of_code(n)
    size = tower(r)
    if size > budget:
        raise BudgetExceeded("level code exceeds the bit budget")
    return (1 << size) - 1


def _ord_chain_index(n: int, budget: int) -> "int | None":
    """k when n codes the k-th von Neumann ordinal, else None."""
    o, k = 0, 0
    while o < n:
        if o > (budget << 2):
            return None  # the next ordinal code exceeds any budget
        o |= 1 << o
        k += 1
    return k if o == n else None


def _ord_code_of(k: int, budget: int) -> int:
    o = 0
    for _ in range(k):
        if o > budget:
            raise BudgetExceeded("ordinal code exceeds the bit budget")
        o |= 1 << o
    return o


def _kpair_code(a: int, b: int, budget: int) -> int:
    """Code of the Kuratowski pair of the sets coded by a and b."""
    for c in (a, b):
        if c >= budget:
            raise BudgetExceeded("pair code exceeds the bit budget")
    single = 1 << a
    both = (1 << a) | (1 << b)
    if max(single, both).bit_length() >= budget:
        raise BudgetExceeded("pair code exceeds the bit budget")
    return (1 << single) | (1 << both)


_TAG0_CODE = 0  # left tag: members pair with 0e
_TAG1_CODE = 1  # right tag: members pair with {0e}


def _cadd_code(s: int, t: int, budget: int) -> int:
    out = 0
    for u in _bit_positions(s):
        out |= _shifted_bit(_kpair_code(u, _TAG0_CODE, budget), budget)
    for v in _bit_positions(t):
        out |= _shifted_bit(_kpair_code(v, _TAG1_CODE, budget), budget)
    return out


def _shifted_bit(position: int, budget: int) -> int:
    if position >= budget:
        raise BudgetExceeded("element code exceeds the bit budget")
    return 1 << position


def _cmul_code(s: int, t: int, budget: int) -> int:
    out = 0
    for u in _bit_positions(s):
        for v in _bit_positions(t):
            out |= _shifted_bit(_kpair_code(u, v, budget), budget)
    return out


def _cexp_code(s: int, t: int, ctx) -> int:
    budget = ctx.code_budget
    xs = list(_bit_positions(s))
    ys = list(_bit_positions(t))
    if not ys:
        return 1  # the empty graph is the only function: the code of {0e}
    if xs and len(xs) ** len(ys) > ctx.enum_budget:
        raise BudgetExceeded("function space exceeds the enumeration budget")
    out = 0
    for values in itertools.product(xs, repeat=len(ys)):
        graph = 0
        for y, x in zip(ys, values):
            graph |= _shifted_bit(_kpair_code(y, x, budget), budget)
        out |= _shifted_bit(graph, budget)
    return out


def _succ(a):
    return lambda env, ctx: a(env, ctx) + 1


def _plus(a, b):
    return lambda env, ctx: a(env, ctx) + b(env, ctx)


def _times(a, b):
    return lambda env, ctx: a(env, ctx) * b(env, ctx)


def _power(a, b):
    def fn(env, ctx):
        base = a(env, ctx)
        power = b(env, ctx)
        if base >= 2 and power * base.bit_length() > ctx.code_budget + 64:
            raise BudgetExceeded("exponentiation exceeds the bit budget")
        return base ** power
    return fn


def _ord_code_op(op: str, combine):
    def helper(a: int, b: int, ctx) -> int:
        i = _ord_chain_index(a, ctx.code_budget)
        j = _ord_chain_index(b, ctx.code_budget)
        if i is None or j is None:
            raise NotAnOrdinal(f"{op} needs ordinal codes")
        return _ord_code_of(combine(i, j), ctx.code_budget)
    return _op(helper)


#: arithmetic operation -> closure maker over the compiled arguments
_ARITH_OPS = {
    "S": _succ, "+": _plus, "*": _times, "exp": _power,
    "pow": _op(lambda n, ctx: _pow_code(n, ctx.code_budget)),
    "sumc": _op(lambda n, ctx: _sum_code(n)),
    "pairc": _op(lambda a, b, ctx: _shifted_bit(a, ctx.code_budget)
                 | _shifted_bit(b, ctx.code_budget)),
    "rankc": _op(lambda n, ctx: _rank_code(n, ctx.code_budget)),
    "cardc": _op(lambda n, ctx: n.bit_count()),
    "vnsc": _op(lambda n, ctx: n | _shifted_bit(n, ctx.code_budget)),
    "ordaddc": _ord_code_op("ordaddc", lambda i, j: i + j),
    "ordmulc": _ord_code_op("ordmulc", lambda i, j: i * j),
    "ordexpc": _ord_code_op("ordexpc", lambda i, j: i ** j),
    "caddc": _op(lambda s, t, ctx: _cadd_code(s, t, ctx.code_budget)),
    "cmulc": _op(lambda s, t, ctx: _cmul_code(s, t, ctx.code_budget)),
    "cexpc": _op(_cexp_code),
}


def _arith_sep(var: str, bound, body):
    def fn(env, ctx):
        host = bound(env, ctx)
        out = 0
        inner = dict(env)
        for i in _bit_positions(host):
            inner[var] = i
            if body(inner, ctx):
                out |= 1 << i
        return out
    return fn


def _equal(a, b):
    return lambda env, ctx: a(env, ctx) == b(env, ctx)


def _less(a, b):
    return lambda env, ctx: a(env, ctx) < b(env, ctx)


def _dom(a):
    def fn(env, ctx):
        a(env, ctx)
        return True
    return fn


#: arithmetic relation -> closure maker over the compiled arguments
_ARITH_RELS = {
    "=": _equal, "<": _less, "Dom": _dom,
    "OrdCode": _op(lambda n, ctx:
                   _ord_chain_index(n, ctx.code_budget) is not None),
}


# ---------------------------------------------------------------------------
# set terms and relations
# ---------------------------------------------------------------------------

def _numeral(value: int):
    # the n-th set along the ordering; realized through the coding, which
    # provably enumerates the ordering
    return lambda env, ctx: decode(value, ctx.code_budget)


def _enumeration(elems: tuple):
    def fn(env, ctx):
        members = []
        for e in elems:
            members.append(e(env, ctx))
        return from_children(members)
    return fn


def _set_sep(var: str, dom, body):
    def fn(env, ctx):
        host = dom(env, ctx)
        inner = dict(env)

        def pred(m: HFSet) -> bool:
            inner[var] = m
            return body(inner, ctx)

        return separate(host, pred)
    return fn


def _order_op(combine):
    return _op(lambda x, y, ctx: combine(
        x, y, ctx.mode, literal_cutoff=ctx.literal_cutoff,
        enum_budget=ctx.enum_budget))


def _cardof(x: HFSet, ctx) -> HFSet:
    n = cardinal.card(x)
    if n > ctx.enum_budget:
        raise BudgetExceeded("cardinality exceeds the enumeration budget")
    return order.ack_enum(n)


#: set operation -> closure maker over the compiled arguments
_SET_OPS = {
    "pair": _op(lambda x, y, ctx: pair(x, y)),
    "pset": _op(lambda x, ctx: powerset(x, ctx.enum_budget)),
    "sum": _op(lambda x, ctx: sumset(x)),
    "rank": _op(lambda x, ctx: materialize_level(x.rank + 1,
                                                 ctx.enum_budget)),
    "vns": _op(lambda x, ctx: adjoin(x, x)),
    "osucc": _op(lambda x, ctx: order.successor_a(x)),
    "oadd": _order_op(add_a), "omul": _order_op(mul_a),
    "oexp": _op(lambda x, y, ctx: exp_a(
        x, y, ctx.mode, literal_cutoff=ctx.literal_cutoff,
        enum_budget=ctx.enum_budget, code_budget=ctx.code_budget)),
    "cadd": _op(lambda x, y, ctx: cardinal.card_add(x, y, ctx.enum_budget)),
    "cmul": _op(lambda x, y, ctx: cardinal.product(x, y, ctx.enum_budget)),
    "cexp": _op(lambda x, y, ctx: cardinal.card_exp(x, y, ctx.enum_budget)),
    "cardof": _op(_cardof),
    "vadd": _op(lambda x, y, ctx: ord_add(x, y)),
    "vmul": _op(lambda x, y, ctx: ord_mul(x, y)),
    "vexp": _op(lambda x, y, ctx: ord_exp(x, y, ctx.enum_budget)),
}


def _ord_graph(combine):
    def holds(x: HFSet, y: HFSet, z: HFSet, ctx) -> bool:
        try:
            return combine(x, y) is z
        except NotAnOrdinal:
            return False
    return _op(holds)


def _membership(a, b):
    return lambda env, ctx: mem(a(env, ctx), b(env, ctx))


def _identity(a, b):
    return lambda env, ctx: a(env, ctx) is b(env, ctx)


#: set relation -> closure maker over the compiled arguments
_SET_RELS = {
    "Dom": _dom, "in": _membership, "=": _identity,
    "<a": _op(lambda x, y, ctx: order.ack_less(x, y)),
    "~c": _op(lambda x, y, ctx: cardinal.card_eq(x, y)),
    "<c": _op(lambda x, y, ctx: cardinal.card_lt(x, y)),
    "<=c": _op(lambda x, y, ctx: cardinal.inj_exists(x, y)),
    "isord": _op(lambda x, ctx: is_ordinal(x)),
    "ordadd": _ord_graph(ord_add), "ordmul": _ord_graph(ord_mul),
    "ordexp": _ord_graph(ord_exp),
}


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------

#: node class -> its table of closure makers, by operation or relation
_TABLES = {AOp: _ARITH_OPS, ARel: _ARITH_RELS,
           SOp: _SET_OPS, SRel: _SET_RELS}


def _compile(node, scope=None):
    """The closure of a term or formula of either language, compiled once
    and stored on the node."""
    fn = vars(node).get(_FN)
    if fn is not None:
        return fn
    cls = type(node)
    if cls is AVar or cls is SVar:
        return _store(node, _variable(node.name))
    if cls is ALit:
        return _store(node, _constant(node.value))
    if cls is SEmpty:
        return _store(node, _constant(empty()))
    if cls is SLit:
        return _store(node, _numeral(node.value))
    names, scope = _hoist(node, scope)
    if cls in _TABLES:
        args = []
        for a in node.args:  # a loop, not a comprehension: one frame per level
            args.append(_compile(a, scope))
        fn = _TABLES[cls][node.op](*args)
    elif cls is SEnum:
        elems = []
        for e in node.elems:
            elems.append(_compile(e, scope))
        fn = _enumeration(tuple(elems))
    elif cls is ASep:
        fn = _arith_sep(node.var, _compile(node.bound, scope),
                        _compile(node.body, _inside(scope, node.var)))
    elif cls is SSep:
        fn = _set_sep(node.var, _compile(node.dom, scope),
                      _compile(node.body, _inside(scope, node.var)))
    elif cls is ANot or cls is SNot:
        fn = _negation(_compile(node.body, scope))
    elif cls in _BINARY:
        fn = _BINARY[cls](_compile(node.left, scope),
                          _compile(node.right, scope))
    elif cls is AForall or cls is AExists or cls is SForall or cls is SExists:
        bound = None if node.bound is None else _compile(node.bound, scope)
        rest = _bit_guarded(node)
        body = _compile(node.body if rest is None else rest,
                        _inside(scope, node.var))
        fn = _quantifier(node, bound, body, rest is not None)
    else:
        raise TypeError(f"not a term or formula: {node!r}")
    return _store(node, fn if names is None else _memo(fn, names))


# ---------------------------------------------------------------------------
# quantifiers: one loop, its domains and its deciders
# ---------------------------------------------------------------------------

#: what a decider's slot holds before its maker has run
_UNSEEN = object()


def _quantify(univ: bool, var: str, domain, body, deciders):
    """The one quantifier loop: the deciders, then the walk of
    `domain(env, ctx)` with `body` as the test.

    `deciders` holds (fast, make) pairs in the order they are tried.  A
    decider runs in every mode when fast is None, in fast mode only when
    it is True, and outside fast mode only when it is False.  `make()`
    builds it on the first call in a mode it runs in, and it is kept; when
    make() returns None the decider does not apply, and it is dropped."""
    slots = tuple([fast, make, _UNSEEN] for fast, make in deciders)

    def fn(env, ctx):
        nonlocal slots
        if slots and ctx.solver:
            for slot in slots:
                fast, make, decide = slot
                if fast is not None and fast is not (ctx.mode == FAST):
                    continue
                if decide is _UNSEEN:
                    decide = slot[2] = make()
                    if decide is None:  # the loop goes on over the old tuple
                        slots = tuple(s for s in slots if s is not slot)
                        continue
                verdict = decide(env, ctx)
                if verdict is not None:
                    return bool(verdict)  # a witness is true
        inner = dict(env)
        for x in domain(env, ctx):
            inner[var] = x
            if (not body(inner, ctx)) is univ:  # a counterexample or a witness
                return not univ
        return univ
    return fn


def _quantifier(q, bound, body, walk: bool):
    """The closure of quantifier q, given its compiled bound and body (or,
    on a member walk, its compiled rest).  The closure keeps q's fields,
    not q, so that the node and its closure form no reference cycle."""
    univ = type(q) is AForall or type(q) is SForall
    var = q.var
    if walk:
        return _quantify(univ, var, lambda env, ctx: _bit_positions(
            bound(env, ctx)), body, ())
    if isinstance(q, ArithFormula):
        chain = () if univ or bound is None else (
            (None, partial(_arith_chain, var, q.bound, q.body)),)
        return _quantify(univ, var, partial(_arith_range, bound), body, chain)
    order_bounded = bound is not None and q.bound_kind == BOUND_ORDER
    deciders = []
    if bound is None and not univ:
        deciders.append((None, partial(_graph_witness, var, q.body, body)))
    if order_bounded:
        # q again, rebuilt for the plans made on first use
        same = partial(type(q), var, q.bound, q.body, q.bound_kind)
        deciders.append((True, lambda: _transport(same())))
        if not univ:
            deciders.append((False, lambda: _order_chain(same())))
    return _quantify(univ, var, partial(_set_range, bound, order_bounded),
                     body, deciders)


def _bit_guarded(q) -> "ArithFormula | None":
    """`rest` when q reads `forall v < T. guard -> rest` or
    `exists v < T. guard & rest` and its guard is the bit formula of v in
    T: then v ranges over the members of T, and only rest is evaluated."""
    body = q.body
    if q.bound is not None and \
            type(body) is (AImplies if type(q) is AForall else AAnd) and \
            bit_formula_parts(body.left) == (AVar(q.var), q.bound):
        return body.right
    return None


def _arith_range(bound, env, ctx) -> "range":
    if bound is None:
        return range(ctx.nat_cutoff)
    n = bound(env, ctx)
    if n > ctx.enum_budget:
        raise BudgetExceeded(
            f"quantifier range {n} exceeds the enumeration budget")
    return range(n)


def _set_range(bound, order_bounded: bool, env, ctx):
    if bound is None:
        return map(decode, range(ctx.set_cutoff))
    host = bound(env, ctx)
    if not order_bounded:
        return iter(host.children)
    # order-bounded: everything strictly before `bound`; the coding
    # enumerates the ordering, so walk codes
    n = encode(host, ctx.code_budget)
    if n > ctx.enum_budget:
        raise BudgetExceeded(
            f"order segment of length {n} exceeds the enumeration budget")
    return map(decode, range(n))


# ---------------------------------------------------------------------------
# the chain solver
# ---------------------------------------------------------------------------

def _linear_form(t: ArithTerm, chain: "frozenset[str]") -> "tuple | None":
    """(const, coeffs) with t = sum(const) + the sum over v of
    sum(coeffs[v]) * v, every term in them free of the chain's variables;
    None outside the linear fragment."""
    if not free_vars(t) & chain:
        return (t,), {}
    if isinstance(t, AVar):
        return (), {t.name: (ALit(1),)}
    if not isinstance(t, AOp):
        return None  # a separation term over chain variables: give up
    if t.op == "S":
        inner = _linear_form(t.args[0], chain)
        return None if inner is None else (inner[0] + (ALit(1),), inner[1])
    if t.op == "+":
        left = _linear_form(t.args[0], chain)
        right = _linear_form(t.args[1], chain)
        if left is None or right is None:
            return None
        coeffs = dict(left[1])
        for v, ts in right[1].items():
            coeffs[v] = coeffs.get(v, ()) + ts
        return left[0] + right[0], coeffs
    if t.op == "*":
        scale, body = t.args
        if free_vars(scale) & chain:
            scale, body = body, scale
        if free_vars(scale) & chain:
            return None  # quadratic
        inner = _linear_form(body, chain)
        if inner is None:
            return None
        mul = lambda ts: tuple(AOp("*", (scale, u)) for u in ts)  # noqa: E731
        return mul(inner[0]), {v: mul(ts) for v, ts in inner[1].items()}
    return None  # exp or a code operation over chain variables


@dataclass(frozen=True)
class _ChainPlan:
    """exists v1 < b1. ... exists vk < bk. lhs = rhs, compiled: the net
    coefficient of each variable and the constants as summed terms."""

    vars: "tuple[str, ...]"
    bounds: tuple                  # compiled bound terms
    net: tuple                     # (var, left terms, right terms)
    const: tuple                   # (left terms, right terms)
    atom: object                   # the compiled matrix


def _terms(ts) -> tuple:
    return tuple(_compile(u) for u in ts)


def _chain_plan(names: list, bounds: list,
                atom: ArithFormula) -> "_ChainPlan | None":
    """The plan of `exists v1 < b1. ... exists vk < bk. atom` over the
    variables `names` and the bounds `bounds`; None outside the
    fragment."""
    chain = frozenset(names)
    if len(chain) < len(names) or not isinstance(atom, ARel) \
            or atom.op != "=":
        return None
    for b in bounds:
        if free_vars(b) & chain:
            return None  # a bound refers to a chain variable
    lhs = _linear_form(atom.args[0], chain)
    rhs = _linear_form(atom.args[1], chain)
    if lhs is None or rhs is None:
        return None
    net = tuple((v, _terms(lhs[1].get(v, ())), _terms(rhs[1].get(v, ())))
                for v in names)
    return _ChainPlan(tuple(names), _terms(bounds), net,
                      (_terms(lhs[0]), _terms(rhs[0])), _compile(atom))


def _arith_chain(var: str, bound: ArithTerm, body: ArithFormula):
    """The chain-solver decider of `exists var < bound. body`, or None
    outside its fragment."""
    names, bounds = [var], [bound]
    while isinstance(body, AExists) and body.bound is not None:
        names.append(body.var)
        bounds.append(body.bound)
        body = body.body
    plan = _chain_plan(names, bounds, body)
    return None if plan is None else partial(_solve_chain, plan)


def _total(terms, env, ctx) -> int:
    out = 0
    for u in terms:
        out += u(env, ctx)
    return out


def _solve_chain(plan: _ChainPlan, env: "dict[str, int]",
                 ctx: EvalContext) -> "dict | bool | None":
    """The witness (the environment extended by the chain's variables) or
    False when the cascade decides the chain, None to fall back to
    enumeration."""
    coeffs = {}
    for v, left, right in plan.net:
        coeffs[v] = _total(left, env, ctx) - _total(right, env, ctx)
    target = _total(plan.const[1], env, ctx) - _total(plan.const[0], env, ctx)
    if any(c < 0 for c in coeffs.values()):
        if all(c <= 0 for c in coeffs.values()):
            coeffs = {v: -c for v, c in coeffs.items()}
            target = -target
        else:
            return None  # mixed signs: not a positional system
    if target < 0:
        return False
    limits = {}
    for v, b in zip(plan.vars, plan.bounds):
        limits[v] = b(env, ctx)
        if limits[v] <= 0:
            return False  # an empty range: the chain is false
    # positional condition: each coefficient dominates everything the
    # smaller ones can contribute
    ordered = sorted((c, v) for v, c in coeffs.items() if c > 0)
    room = 0
    for c, v in ordered:
        if c <= room:
            return None
        room += c * (limits[v] - 1)
    witness = dict(env)
    solved = set()
    for _, v in reversed(ordered):
        witness[v], target = divmod(target, coeffs[v])
        solved.add(v)
        if witness[v] >= limits[v]:
            return False
    if target != 0:
        return False
    for v in plan.vars:
        if v not in solved:
            # unconstrained by the equation; 0 is in every nonempty range
            # (and the chain variable shadows any outer binding of v)
            witness[v] = 0
    # the witness came out of arithmetic on the analysis; believe only an
    # honest evaluation of the matrix
    if plan.atom(witness, ctx):
        return witness
    return None


# ---------------------------------------------------------------------------
# the deciders of set quantifiers: graph witness, order transport and
# order chain
# ---------------------------------------------------------------------------

#: ordinal graph relation -> the operation whose graph it is
_ORD_GRAPHS = {"ordadd": ord_add, "ordmul": ord_mul, "ordexp": ord_exp}


def _conjuncts(f: SetFormula):
    while isinstance(f, SAnd):
        yield from _conjuncts(f.left)
        f = f.right
    yield f


def _graph_witness(var: str, f: SetFormula, body):
    """The graph-witness decider of `exists var. f`, whose body compiles
    to `body`; None when no conjunct pins var.

    A conjunct `ordop(a, b, var)` pins var when a and b do not mention
    it.  It may sit underneath further unbounded existentials (the shape
    term flattening builds), as long as it does not mention their
    variables."""
    shadowed: "set[str]" = set()
    while isinstance(f, SExists) and f.bound is None and f.var != var:
        shadowed.add(f.var)
        f = f.body
    pins = []
    for c in _conjuncts(f):
        if not (isinstance(c, SRel) and c.op in _ORD_GRAPHS
                and c.args[2] == SVar(var)):
            continue
        argvars = free_vars(c.args[0]) | free_vars(c.args[1])
        if var in argvars or argvars & shadowed:
            continue
        pins.append((c.op, _compile(c.args[0]), _compile(c.args[1])))
    return partial(_pinned, tuple(pins), var, body) if pins else None


def _pinned(pins: tuple, var: str, body, env, ctx) -> "bool | None":
    """Read the witness off the operation graph: no other value can
    satisfy a pinning conjunct.

    Ordinal codes grow as towers, so enumeration cannot reach these
    witnesses; the extracted candidate is still checked by honestly
    evaluating the whole body.  False when the graph atom is
    unsatisfiable, None when no pin's arguments are in scope yet."""
    for op, a, b in pins:
        try:
            x = a(env, ctx)
            y = b(env, ctx)
        except ValueError:
            continue  # refers to a variable not in scope yet
        try:
            witness = ord_exp(x, y, ctx.enum_budget) if op == "ordexp" \
                else _ORD_GRAPHS[op](x, y)
        except NotAnOrdinal:
            return False
        inner = dict(env)
        inner[var] = witness
        return body(inner, ctx)
    return None


def _transport(f: SetFormula):
    """The order-transport decider of f: the code-side counterpart of f,
    compiled, run on the codes of f's free variables; None when a
    quantifier is unbounded (cutoff semantics would not carry over).  The
    honest walk stays available with the solver off and is what literal
    mode uses."""
    if not is_bounded(f):
        return None
    return partial(_transported, _compile(translate_a(f)),
                   tuple(sorted(free_vars(f))))


def _transported(image, names: "tuple[str, ...]", env, ctx) -> "bool | None":
    try:
        code_env = {v: encode(env[v], ctx.code_budget)
                    for v in names if v in env}
        return image(code_env, ctx)
    except BudgetExceeded:
        return None  # fall back to the honest walk


_ORDER_CODE_OPS = {"oadd": "+", "omul": "*", "oexp": "exp"}


def _order_code_form(t: SetTerm) -> "ArithTerm | None":
    """The code of an order-arithmetic term, as an arithmetic term over
    the codes of its variables; None outside the fragment.

    This is the order isomorphism in term form: the n-th set's successor
    is the (n+1)-th set, and the order operations act as +, *, exp on
    positions, which equal codes.
    """
    if isinstance(t, SVar):
        return AVar(t.name)
    if isinstance(t, SEmpty):
        return ALit(0)
    if isinstance(t, SLit):
        return ALit(t.value)
    if isinstance(t, SOp):
        if t.op == "osucc":
            inner = _order_code_form(t.args[0])
            return None if inner is None else AOp("S", (inner,))
        if t.op in _ORDER_CODE_OPS:
            parts = [_order_code_form(a) for a in t.args]
            if any(p is None for p in parts):
                return None
            return AOp(_ORDER_CODE_OPS[t.op], tuple(parts))
    return None


def _order_chain(f: SExists):
    """The order-chain decider of f: an order-bounded existential chain
    over order-arithmetic terms, transported to a code-side chain plan;
    None outside that fragment."""
    names, bounds = [], []
    body: SetFormula = f
    while isinstance(body, SExists) and body.bound_kind == BOUND_ORDER:
        code_bound = _order_code_form(body.bound)
        if code_bound is None:
            return None
        names.append(body.var)
        bounds.append(code_bound)
        body = body.body
    if not (isinstance(body, SRel) and body.op == "="):
        return None
    lhs = _order_code_form(body.args[0])
    rhs = _order_code_form(body.args[1])
    if lhs is None or rhs is None:
        return None
    plan = _chain_plan(names, bounds, ARel("=", (lhs, rhs)))
    if plan is None:
        return None
    needed = free_vars(body).union(*map(free_vars, bounds)) - set(names)
    return partial(_solve_order_chain, plan, tuple(sorted(needed)), body,
                   _compile(body))


def _solve_order_chain(plan: _ChainPlan, needed: "tuple[str, ...]",
                       matrix: SetFormula, check, env,
                       ctx) -> "bool | None":
    """Decide an order-bounded chain through the coding, re-verifying any
    witness with the set operations themselves (so literal mode still
    exercises the literal route once per decision).  `needed` lists the
    outer variables the plan reads; `check` is the compiled matrix."""
    try:
        code_env = {v: encode(env[v], ctx.code_budget)
                    for v in needed if v in env}
    except BudgetExceeded:
        return None
    witness = _solve_chain(plan, code_env, ctx)
    if not witness:
        return witness  # False, or None to fall back
    inner = dict(env)
    for v in plan.vars:
        inner[v] = decode(witness[v], ctx.code_budget)
    if not check(inner, ctx):
        raise AssertionError(
            "order-chain transport and set evaluation disagree on "
            f"{matrix!r} at {sorted((v, witness[v]) for v in plan.vars)}")
    return True
