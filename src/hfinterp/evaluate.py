"""Evaluation of both languages over their intended models.

Arithmetic formulas are evaluated over the natural numbers with plain
integer arithmetic; the code operations get genuinely numeric
implementations (bit fiddling), so that evaluating a translated formula
never routes back through the set operations it talks about.  Set
formulas are evaluated over the hereditarily finite sets using the core
operations.

Quantifiers: a bounded quantifier enumerates honestly below its bound
(raising BudgetExceeded past the enumeration budget); an unbounded one
is truncated to the context's cutoff, which is good enough for the
finite instances this package checks and is reported as such by the CLI.

The one piece of cleverness is the solver for bounded existential
chains whose matrix is a single linear equation in the quantified
variables (the shape the membership translation produces): when the
coefficients form a positional number system the witness is read off by
repeated divmod and then re-checked by honest evaluation.  Everything
else falls back to enumeration.

Compilation.  `eval_arith`, `eval_set`, `eval_arith_term` and
`eval_set_term` compile a tree into nested closures ``fn(env, ctx)`` the
first time they meet it (closure code generation, after Feeley and
Lapalme, "Using closures for code generation", 1987).  Each node's
closure is stored on the node itself, in the frozen dataclass's
``__dict__`` as `order.LinearOrder.index` stores its index, so a
compiled form lives and dies with its tree and no module-level table
is keyed by formulas.  Resolved when a node is compiled: its class and
operator (one specialised closure each), the bit-guard match of a
bounded arithmetic quantifier and the candidate conjuncts of the
ordinal-graph witness.  Resolved on first use and then kept in the
quantifier's closure: the chain plan of a bounded arithmetic
existential (its coefficient, constant and bound terms compiled), the
order transport of an order-bounded set quantifier (its `translate_a`
image, compiled, with its free variables) and the order-chain plan of
an order-bounded set existential (with the variables it encodes).

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
context.  With ``solver=False`` no shortcut runs; a chain witness is
believed only after an honest evaluation of the compiled atom, and an
order-chain witness is re-checked with the set operations.  Compiling
and running both take one Python frame per tree level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from operator import itemgetter

from . import cardinal, order
from .arith import FAST, add_a, exp_a, mul_a
from .core import (
    DEFAULT_BIT_BUDGET,
    DEFAULT_ENUM_BUDGET,
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
    solver: bool = True                  # linear-chain witness extraction

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
    return _compile_arith_term(t)(env, ctx)


def eval_arith(f: ArithFormula, env: "dict[str, int]",
               ctx: EvalContext) -> bool:
    return _compile_arith(f)(env, ctx)


def eval_set_term(t: SetTerm, env: "dict[str, HFSet]",
                  ctx: EvalContext) -> HFSet:
    return _compile_set_term(t)(env, ctx)


def eval_set(f: SetFormula, env: "dict[str, HFSet]",
             ctx: EvalContext) -> bool:
    return _compile_set(f)(env, ctx)


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


#: what a plan resolved on first use holds before that use
_UNSEEN = object()


# ---------------------------------------------------------------------------
# loop-invariant terms, each behind a one-entry memo (module docstring)
# ---------------------------------------------------------------------------

def _inside(scope, var: str):
    """The scope of a binder's body: the variables of the loops around it,
    outermost first and numbered from 1; the bits of the loops still open
    to a memo; the free variables of the tree's terms, by node id."""
    loops, open_, known = scope or ((), 0, {})
    return loops + (var,), open_ | 2 << len(loops), known


def _hoist(t, scope):
    """(the key variables of t's memo or None; the scope of t's subtrees)
    for a term other than a variable or a literal.  A costly term that is
    invariant in an open loop gets a memo and closes that loop and every
    loop inside it to its own subterms, so only maximal terms get one."""
    if scope is None or not scope[1] or \
            type(t) is AOp and t.op in ("S", "+", "*"):
        return None, scope
    loops, open_, known = scope
    free = free_vars(t, known)
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
# arithmetic terms
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


def _compile_arith_term(t: ArithTerm, scope=None):
    fn = vars(t).get(_FN)
    if fn is not None:
        return fn
    cls = type(t)
    if cls is AVar:
        return _store(t, _variable(t.name))
    if cls is ALit:
        value = t.value
        return _store(t, lambda env, ctx: value)
    names, scope = _hoist(t, scope)
    if cls is ASep:
        fn = _arith_sep(t.var, _compile_arith_term(t.bound, scope),
                        _compile_arith(t.body, _inside(scope, t.var)))
    elif cls is AOp:
        args = []
        for a in t.args:  # a loop, not a comprehension: one frame per level
            args.append(_compile_arith_term(a, scope))
        fn = _ARITH_OPS[t.op](*args)
    else:
        raise TypeError(f"not an arithmetic term: {t!r}")
    return _store(t, fn if names is None else _memo(fn, names))


# ---------------------------------------------------------------------------
# the linear-chain solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _LinearForm:
    """const + sum(coeff * var); coefficients are env-closed terms."""

    const: "tuple[ArithTerm, ...]"            # summed
    coeffs: "dict[str, tuple[ArithTerm, ...]]"  # var -> summed terms


def _closed(t: ArithTerm, chain: "frozenset[str]") -> bool:
    return not (free_vars(t) & chain)


def _linear_form(t: ArithTerm, chain: "frozenset[str]") -> "_LinearForm | None":
    if _closed(t, chain):
        return _LinearForm((t,), {})
    if isinstance(t, AVar):
        return _LinearForm((), {t.name: (ALit(1),)})
    if not isinstance(t, AOp):
        return None  # a separation term over chain variables: give up
    if t.op == "S":
        inner = _linear_form(t.args[0], chain)
        if inner is None:
            return None
        return _LinearForm(inner.const + (ALit(1),), inner.coeffs)
    if t.op == "+":
        left = _linear_form(t.args[0], chain)
        right = _linear_form(t.args[1], chain)
        if left is None or right is None:
            return None
        coeffs = dict(left.coeffs)
        for v, ts in right.coeffs.items():
            coeffs[v] = coeffs.get(v, ()) + ts
        return _LinearForm(left.const + right.const, coeffs)
    if t.op == "*":
        scale, body = t.args
        if not _closed(scale, chain):
            scale, body = body, scale
        if not _closed(scale, chain):
            return None  # quadratic
        inner = _linear_form(body, chain)
        if inner is None:
            return None
        mul = lambda ts: tuple(AOp("*", (scale, u)) for u in ts)  # noqa: E731
        return _LinearForm(mul(inner.const),
                           {v: mul(ts) for v, ts in inner.coeffs.items()})
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
    return tuple(_compile_arith_term(u) for u in ts)


def _chain_plan(var: str, bound: ArithTerm,
                body: ArithFormula) -> "_ChainPlan | None":
    """The plan of `exists var < bound. body`, None outside the fragment."""
    names, bounds = [var], [bound]
    while isinstance(body, AExists):
        if body.bound is None or body.var in names:
            return None
        names.append(body.var)
        bounds.append(body.bound)
        body = body.body
    if not isinstance(body, ARel) or body.op != "=":
        return None
    chain = frozenset(names)
    for b in bounds:
        if not _closed(b, chain):
            return None  # a bound refers to an earlier chain variable
    lhs = _linear_form(body.args[0], chain)
    rhs = _linear_form(body.args[1], chain)
    if lhs is None or rhs is None:
        return None
    net = tuple((v, _terms(lhs.coeffs.get(v, ())),
                 _terms(rhs.coeffs.get(v, ()))) for v in names)
    return _ChainPlan(tuple(names), _terms(bounds), net,
                      (_terms(lhs.const), _terms(rhs.const)),
                      _compile_arith(body))


def _total(terms, env, ctx) -> int:
    out = 0
    for u in terms:
        out += u(env, ctx)
    return out


def _solve_chain(plan: _ChainPlan, env: "dict[str, int]",
                 ctx: EvalContext) -> "tuple[bool | None, dict | None]":
    """(True, witness) / (False, None) when the cascade decides the
    chain, (None, None) to fall back to enumeration."""
    coeffs = {}
    for v, left, right in plan.net:
        coeffs[v] = _total(left, env, ctx) - _total(right, env, ctx)
    target = _total(plan.const[1], env, ctx) - _total(plan.const[0], env, ctx)
    if any(c < 0 for c in coeffs.values()):
        if all(c <= 0 for c in coeffs.values()):
            coeffs = {v: -c for v, c in coeffs.items()}
            target = -target
        else:
            return None, None  # mixed signs: not a positional system
    if target < 0:
        return False, None
    limits = {}
    for v, b in zip(plan.vars, plan.bounds):
        limits[v] = b(env, ctx)
        if limits[v] <= 0:
            return False, None  # an empty range: the chain is false
    # positional condition: each coefficient dominates everything the
    # smaller ones can contribute
    ordered = sorted((c, v) for v, c in coeffs.items() if c > 0)
    room = 0
    for c, v in ordered:
        if c <= room:
            return None, None
        room += c * (limits[v] - 1)
    witness = dict(env)
    solved = set()
    for _, v in reversed(ordered):
        witness[v], target = divmod(target, coeffs[v])
        solved.add(v)
        if witness[v] >= limits[v]:
            return False, None
    if target != 0:
        return False, None
    for v in plan.vars:
        if v not in solved:
            # unconstrained by the equation; 0 is in every nonempty range
            # (and the chain variable shadows any outer binding of v)
            witness[v] = 0
    # the witness came out of arithmetic on the analysis; believe only an
    # honest evaluation of the matrix
    if plan.atom(witness, ctx):
        return True, witness
    return None, None


def _match_bit_guard(f: ArithFormula) -> "tuple[ArithTerm, ArithTerm] | None":
    """Recognize the bit-extraction shape
    exists n < T. exists m < exp(2, S). T = exp(2, S + 1) * n + exp(2, S) + m
    and return (S, T)."""
    if not isinstance(f, AExists) or f.bound is None:
        return None
    outer, inner = f, f.body
    if not isinstance(inner, AExists) or inner.bound is None:
        return None
    host = outer.bound
    low = inner.bound
    if not (isinstance(low, AOp) and low.op == "exp"
            and low.args[0] == ALit(2)):
        return None
    subject = low.args[1]
    atom = inner.body
    if not (isinstance(atom, ARel) and atom.op == "="
            and atom.args[0] == host):
        return None
    n, m = AVar(outer.var), AVar(inner.var)
    high = AOp("exp", (ALit(2), AOp("+", (subject, ALit(1)))))
    want = AOp("+", (AOp("+", (AOp("*", (high, n)), low)), m))
    if atom.args[1] != want:
        return None
    if outer.var == inner.var or outer.var in free_vars(subject) \
            or inner.var in free_vars(subject) or outer.var in free_vars(host):
        return None
    return subject, host


# ---------------------------------------------------------------------------
# arithmetic formulas
# ---------------------------------------------------------------------------

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


def _arith_range(bound, env, ctx) -> "range":
    if bound is None:
        return range(ctx.nat_cutoff)
    n = bound(env, ctx)
    if n > ctx.enum_budget:
        raise BudgetExceeded(
            f"quantifier range {n} exceeds the enumeration budget")
    return range(n)


def _bit_guarded(f) -> "ArithFormula | None":
    """`rest` when f reads `forall v < T. guard -> rest` or
    `exists v < T. guard & rest` and its guard is the bit test of v in T:
    then v ranges over the members of T, and only rest is evaluated."""
    body = f.body
    if f.bound is None or type(body) is not (
            AImplies if type(f) is AForall else AAnd):
        return None
    hit = _match_bit_guard(body.left)
    if hit is not None and hit[0] == AVar(f.var) and hit[1] == f.bound:
        return body.right
    return None


def _member_walk(univ: bool, var: str, bound, rest):
    """v ranges over members: visit just the set bits of the host."""
    if univ:
        def fn(env, ctx):
            host = bound(env, ctx)
            inner = dict(env)
            for i in _bit_positions(host):
                inner[var] = i
                if not rest(inner, ctx):
                    return False
            return True
    else:
        def fn(env, ctx):
            host = bound(env, ctx)
            inner = dict(env)
            for i in _bit_positions(host):
                inner[var] = i
                if rest(inner, ctx):
                    return True
            return False
    return fn


def _arith_forall(var: str, bound, body):
    def fn(env, ctx):
        inner = dict(env)
        for i in _arith_range(bound, env, ctx):
            inner[var] = i
            if not body(inner, ctx):
                return False
        return True
    return fn


def _arith_exists(var: str, bound, body, bound_node, body_node):
    plan = _UNSEEN  # the chain plan, analysed on the solver's first call

    def fn(env, ctx):
        nonlocal plan
        if ctx.solver and bound is not None:
            if plan is _UNSEEN:
                plan = _chain_plan(var, bound_node, body_node)
            if plan is not None:
                decided, _ = _solve_chain(plan, env, ctx)
                if decided is not None:
                    return decided
        inner = dict(env)
        for i in _arith_range(bound, env, ctx):
            inner[var] = i
            if body(inner, ctx):
                return True
        return False
    return fn


def _compile_arith(f: ArithFormula, scope=None):
    fn = vars(f).get(_FN)
    if fn is not None:
        return fn
    cls = type(f)
    if cls is ARel:
        args = []
        for a in f.args:
            args.append(_compile_arith_term(a, scope))
        fn = _ARITH_RELS[f.op](*args)
    elif cls is ANot:
        fn = _negation(_compile_arith(f.body, scope))
    elif cls in _BINARY:
        fn = _BINARY[cls](_compile_arith(f.left, scope),
                          _compile_arith(f.right, scope))
    elif cls is AForall or cls is AExists:
        univ = cls is AForall
        bound = None if f.bound is None \
            else _compile_arith_term(f.bound, scope)
        inner = _inside(scope, f.var)
        rest = _bit_guarded(f)
        if rest is not None:
            fn = _member_walk(univ, f.var, bound, _compile_arith(rest, inner))
        elif univ:
            fn = _arith_forall(f.var, bound, _compile_arith(f.body, inner))
        else:
            fn = _arith_exists(f.var, bound, _compile_arith(f.body, inner),
                               f.bound, f.body)
    else:
        raise TypeError(f"not an arithmetic formula: {f!r}")
    return _store(f, fn)


# ---------------------------------------------------------------------------
# set terms
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
    "oexp": _order_op(exp_a),
    "cadd": _op(lambda x, y, ctx: cardinal.card_add(x, y, ctx.enum_budget)),
    "cmul": _op(lambda x, y, ctx: cardinal.product(x, y, ctx.enum_budget)),
    "cexp": _op(lambda x, y, ctx: cardinal.card_exp(x, y, ctx.enum_budget)),
    "cardof": _op(_cardof),
    "vadd": _op(lambda x, y, ctx: ord_add(x, y)),
    "vmul": _op(lambda x, y, ctx: ord_mul(x, y)),
    "vexp": _op(lambda x, y, ctx: ord_exp(x, y, ctx.enum_budget)),
}


def _compile_set_term(t: SetTerm, scope=None):
    fn = vars(t).get(_FN)
    if fn is not None:
        return fn
    cls = type(t)
    if cls is SVar:
        return _store(t, _variable(t.name))
    if cls is SEmpty:
        return _store(t, lambda env, ctx: empty())
    if cls is SLit:
        return _store(t, _numeral(t.value))
    names, scope = _hoist(t, scope)
    if cls is SEnum:
        elems = []
        for e in t.elems:
            elems.append(_compile_set_term(e, scope))
        fn = _enumeration(tuple(elems))
    elif cls is SSep:
        fn = _set_sep(t.var, _compile_set_term(t.dom, scope),
                      _compile_set(t.body, _inside(scope, t.var)))
    elif cls is SOp:
        args = []
        for a in t.args:  # a loop, not a comprehension: one frame per level
            args.append(_compile_set_term(a, scope))
        fn = _SET_OPS[t.op](*args)
    else:
        raise TypeError(f"not a set term: {t!r}")
    return _store(t, fn if names is None else _memo(fn, names))


# ---------------------------------------------------------------------------
# the shortcuts of set quantifiers: order transport, order chains and
# ordinal-graph witnesses
# ---------------------------------------------------------------------------

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


def _transport(f: SetFormula) -> "tuple | None":
    """The code-side counterpart of a fully bounded set formula, compiled,
    with the free variables to encode; None when a quantifier is
    unbounded (cutoff semantics would not carry over).  Evaluating the
    counterpart on codes is the fast route for order-bounded
    subformulas; the honest walk stays available with the solver off and
    is what literal mode uses."""
    if not is_bounded(f):
        return None
    from .interp import translate_a
    return _compile_arith(translate_a(f)), tuple(sorted(free_vars(f)))


@dataclass(frozen=True)
class _SetChain:
    """An order-bounded existential chain transported to a code-side
    chain plan, with the set-side matrix to re-verify witnesses against."""

    plan: _ChainPlan
    names: "tuple[str, ...]"       # the chain variables
    needed: "tuple[str, ...]"      # outer variables the plan reads
    matrix: SetFormula
    check: object                  # the compiled matrix


def _set_chain(f: SExists) -> "_SetChain | None":
    """Recognize an order-bounded existential chain over order-arithmetic
    terms and transport it to a code-side chain plan; None outside the
    fragment."""
    names, bounds = [], []
    body: SetFormula = f
    while isinstance(body, SExists):
        if body.bound is None or body.bound_kind != BOUND_ORDER:
            return None
        code_bound = _order_code_form(body.bound)
        if code_bound is None or body.var in names:
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
    plan = _chain_plan(names[0], bounds[0], _nest_exists(
        names[1:], bounds[1:], ARel("=", (lhs, rhs))))
    if plan is None:
        return None
    needed = set(free_vars(body))
    for b in bounds:
        needed |= free_vars(b)
    return _SetChain(plan, tuple(names), tuple(sorted(needed - set(names))),
                     body, _compile_set(body))


def _nest_exists(names, bounds, matrix: ArithFormula) -> ArithFormula:
    for v, b in zip(reversed(names), reversed(bounds)):
        matrix = AExists(v, b, matrix)
    return matrix


def _solve_set_chain(chain: _SetChain, env, ctx) -> "bool | None":
    """Decide an order-bounded chain through the coding, re-verifying any
    witness with the set operations themselves (so literal mode still
    exercises the literal route once per decision)."""
    try:
        code_env = {v: encode(env[v], ctx.code_budget)
                    for v in chain.needed if v in env}
    except BudgetExceeded:
        return None
    decided, witness = _solve_chain(chain.plan, code_env, ctx)
    if decided is None:
        return None
    if decided is False:
        return False
    inner = dict(env)
    for v in chain.names:
        inner[v] = decode(witness[v], ctx.code_budget)
    if not chain.check(inner, ctx):
        raise AssertionError(
            "order-chain transport and set evaluation disagree on "
            f"{chain.matrix!r} at "
            f"{sorted((v, witness[v]) for v in chain.names)}")
    return True


#: ordinal graph relation -> the operation whose graph it is
_ORD_GRAPHS = {"ordadd": ord_add, "ordmul": ord_mul, "ordexp": ord_exp}


def _conjuncts(f: SetFormula):
    while isinstance(f, SAnd):
        yield from _conjuncts(f.left)
        f = f.right
    yield f


_NO_WITNESS = object()


def _graph_pins(var: str, body: SetFormula) -> tuple:
    """The conjuncts that pin v in `exists v. ... & ordop(a, b, v) & ...`,
    as (operation, compiled a, compiled b).

    The pinning conjunct may sit underneath further unbounded
    existentials (the shape term flattening builds), as long as it does
    not mention their variables."""
    shadowed: "set[str]" = set()
    while isinstance(body, SExists) and body.bound is None \
            and body.var != var:
        shadowed.add(body.var)
        body = body.body
    pins = []
    for c in _conjuncts(body):
        if not (isinstance(c, SRel) and c.op in _ORD_GRAPHS
                and c.args[2] == SVar(var)):
            continue
        argvars = free_vars(c.args[0]) | free_vars(c.args[1])
        if var in argvars or argvars & shadowed:
            continue
        pins.append((c.op, _compile_set_term(c.args[0]),
                     _compile_set_term(c.args[1])))
    return tuple(pins)


def _graph_witness(pins: tuple, env, ctx):
    """Read the witness off the operation graph: no other value can
    satisfy a pinning conjunct.

    Ordinal codes grow as towers, so enumeration cannot reach these
    witnesses; the extracted candidate is still checked by honestly
    evaluating the whole body.  Returns an HFSet candidate, _NO_WITNESS
    when the graph atom is unsatisfiable, or None when no conjunct pins
    the variable.
    """
    for op, a, b in pins:
        try:
            x = a(env, ctx)
            y = b(env, ctx)
        except ValueError:
            continue  # refers to a variable not in scope yet
        try:
            if op == "ordexp":
                return ord_exp(x, y, ctx.enum_budget)
            return _ORD_GRAPHS[op](x, y)
        except NotAnOrdinal:
            return _NO_WITNESS
    return None


# ---------------------------------------------------------------------------
# set formulas
# ---------------------------------------------------------------------------

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


def _set_quantifier(f, body, bound):
    """The closure of a set quantifier: its shortcuts, each tried only
    with the solver on, then the honest walk.  The closure keeps the
    quantifier's fields, not the node, so that the node and its closure
    form no reference cycle."""
    univ = type(f) is SForall
    var = f.var
    order_bounded = f.bound is not None and f.bound_kind == BOUND_ORDER
    pins = () if univ or f.bound is not None else _graph_pins(var, f.body)
    # the node again, for the plans resolved on first use
    same = partial(type(f), var, f.bound, f.body, f.bound_kind)
    transport = chain = _UNSEEN

    def fn(env, ctx):
        nonlocal transport, chain
        if ctx.solver:
            if pins:
                pinned = _graph_witness(pins, env, ctx)
                if pinned is _NO_WITNESS:
                    return False
                if pinned is not None:
                    inner = dict(env)
                    inner[var] = pinned
                    return body(inner, ctx)
            if order_bounded and ctx.mode == FAST:
                if transport is _UNSEEN:
                    transport = _transport(same())
                if transport is not None:
                    image, names = transport
                    try:
                        code_env = {v: encode(env[v], ctx.code_budget)
                                    for v in names if v in env}
                        return image(code_env, ctx)
                    except BudgetExceeded:
                        pass  # fall back to the honest walk
            elif order_bounded and not univ:
                if chain is _UNSEEN:
                    chain = _set_chain(same())
                if chain is not None:
                    decided = _solve_set_chain(chain, env, ctx)
                    if decided is not None:
                        return decided
        inner = dict(env)
        if univ:
            for x in _set_range(bound, order_bounded, env, ctx):
                inner[var] = x
                if not body(inner, ctx):
                    return False
            return True
        for x in _set_range(bound, order_bounded, env, ctx):
            inner[var] = x
            if body(inner, ctx):
                return True
        return False
    return fn


def _compile_set(f: SetFormula, scope=None):
    fn = vars(f).get(_FN)
    if fn is not None:
        return fn
    cls = type(f)
    if cls is SRel:
        args = []
        for a in f.args:
            args.append(_compile_set_term(a, scope))
        fn = _SET_RELS[f.op](*args)
    elif cls is SNot:
        fn = _negation(_compile_set(f.body, scope))
    elif cls in _BINARY:
        fn = _BINARY[cls](_compile_set(f.left, scope),
                          _compile_set(f.right, scope))
    elif cls is SForall or cls is SExists:
        fn = _set_quantifier(f, _compile_set(f.body, _inside(scope, f.var)),
                             None if f.bound is None
                             else _compile_set_term(f.bound, scope))
    else:
        raise TypeError(f"not a set formula: {f!r}")
    return _store(f, fn)
