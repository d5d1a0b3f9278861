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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

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
    BOUND_MEMBER,
    BOUND_ORDER,
    SEnum,
    SAnd,
    SEmpty,
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


def _lookup(env: dict, name: str):
    try:
        return env[name]
    except KeyError:
        raise ValueError(f"unbound variable {name!r}") from None


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


def _cexp_code(s: int, t: int, budget: int) -> int:
    xs = list(_bit_positions(s))
    ys = list(_bit_positions(t))
    if not ys:
        return 1  # the empty graph is the only function: the code of {0e}
    if xs and len(xs) ** len(ys) > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded("function space exceeds the enumeration budget")
    out = 0
    for values in itertools.product(xs, repeat=len(ys)):
        graph = 0
        for y, x in zip(ys, values):
            graph |= _shifted_bit(_kpair_code(y, x, budget), budget)
        out |= _shifted_bit(graph, budget)
    return out


def eval_arith_term(t: ArithTerm, env: "dict[str, int]",
                    ctx: EvalContext) -> int:
    if isinstance(t, AVar):
        return _lookup(env, t.name)
    if isinstance(t, ALit):
        return t.value
    if isinstance(t, ASep):
        host = eval_arith_term(t.bound, env, ctx)
        out = 0
        inner = dict(env)
        for i in _bit_positions(host):
            inner[t.var] = i
            if eval_arith(t.body, inner, ctx):
                out |= 1 << i
        return out
    if not isinstance(t, AOp):
        raise TypeError(f"not an arithmetic term: {t!r}")
    args = []
    for a in t.args:  # a loop, not a comprehension: one frame per level
        args.append(eval_arith_term(a, env, ctx))
    op = t.op
    if op == "S":
        return args[0] + 1
    if op == "+":
        return args[0] + args[1]
    if op == "*":
        return args[0] * args[1]
    if op == "exp":
        base, power = args
        if base >= 2 and power * base.bit_length() > ctx.code_budget + 64:
            raise BudgetExceeded("exponentiation exceeds the bit budget")
        return base ** power
    if op == "pow":
        return _pow_code(args[0], ctx.code_budget)
    if op == "sumc":
        return _sum_code(args[0])
    if op == "pairc":
        a, b = args
        return _shifted_bit(a, ctx.code_budget) | \
            _shifted_bit(b, ctx.code_budget)
    if op == "rankc":
        return _rank_code(args[0], ctx.code_budget)
    if op == "cardc":
        return args[0].bit_count()
    if op == "vnsc":
        return args[0] | _shifted_bit(args[0], ctx.code_budget)
    if op in ("ordaddc", "ordmulc", "ordexpc"):
        i = _ord_chain_index(args[0], ctx.code_budget)
        j = _ord_chain_index(args[1], ctx.code_budget)
        if i is None or j is None:
            raise NotAnOrdinal(f"{op} needs ordinal codes")
        k = {"ordaddc": i + j, "ordmulc": i * j,
             "ordexpc": i ** j}[op]
        return _ord_code_of(k, ctx.code_budget)
    if op == "caddc":
        return _cadd_code(args[0], args[1], ctx.code_budget)
    if op == "cmulc":
        return _cmul_code(args[0], args[1], ctx.code_budget)
    if op == "cexpc":
        return _cexp_code(args[0], args[1], ctx.code_budget)
    raise TypeError(f"unknown arithmetic operation {op!r}")


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
    """Analysis of exists v1 < b1. ... exists vk < bk. lhs = rhs."""

    vars: "tuple[str, ...]"
    bounds: "tuple[ArithTerm, ...]"
    net: "dict[str, tuple[tuple[ArithTerm, ...], tuple[ArithTerm, ...]]]"
    const: "tuple[tuple[ArithTerm, ...], tuple[ArithTerm, ...]]"
    atom: ArithFormula


_CHAIN_PLANS: "dict[ArithFormula, _ChainPlan | None]" = {}


def _analyze_chain(f: AExists) -> "_ChainPlan | None":
    names, bounds = [], []
    body: ArithFormula = f
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
    net = {v: (lhs.coeffs.get(v, ()), rhs.coeffs.get(v, ()))
           for v in names}
    return _ChainPlan(tuple(names), tuple(bounds), net,
                      (lhs.const, rhs.const), body)


def _solve_chain(plan: _ChainPlan, env: "dict[str, int]",
                 ctx: EvalContext) -> "tuple[bool | None, dict | None]":
    """(True, witness) / (False, None) when the cascade decides the
    chain, (None, None) to fall back to enumeration."""
    def total(terms):
        return sum(eval_arith_term(u, env, ctx) for u in terms)

    coeffs = {}
    for v, (left, right) in plan.net.items():
        coeffs[v] = total(left) - total(right)
    target = total(plan.const[1]) - total(plan.const[0])
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
        limits[v] = eval_arith_term(b, env, ctx)
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
    if eval_arith(plan.atom, witness, ctx):
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

def eval_arith(f: ArithFormula, env: "dict[str, int]",
               ctx: EvalContext) -> bool:
    if isinstance(f, ARel):
        if f.op == "Dom":
            eval_arith_term(f.args[0], env, ctx)
            return True
        if f.op == "OrdCode":
            n = eval_arith_term(f.args[0], env, ctx)
            return _ord_chain_index(n, ctx.code_budget) is not None
        a = eval_arith_term(f.args[0], env, ctx)
        b = eval_arith_term(f.args[1], env, ctx)
        return a == b if f.op == "=" else a < b
    if isinstance(f, ANot):
        return not eval_arith(f.body, env, ctx)
    if isinstance(f, AAnd):
        return eval_arith(f.left, env, ctx) and eval_arith(f.right, env, ctx)
    if isinstance(f, AOr):
        return eval_arith(f.left, env, ctx) or eval_arith(f.right, env, ctx)
    if isinstance(f, AImplies):
        return (not eval_arith(f.left, env, ctx)) \
            or eval_arith(f.right, env, ctx)
    if isinstance(f, AForall):
        return _eval_arith_forall(f, env, ctx)
    if isinstance(f, AExists):
        return _eval_arith_exists(f, env, ctx)
    raise TypeError(f"not an arithmetic formula: {f!r}")


def _arith_range(f, env, ctx) -> "range":
    if f.bound is None:
        return range(ctx.nat_cutoff)
    n = eval_arith_term(f.bound, env, ctx)
    if n > ctx.enum_budget:
        raise BudgetExceeded(
            f"quantifier range {n} exceeds the enumeration budget")
    return range(n)


def _guard_split(body, univ: bool):
    """body as (guard, rest) for `guard -> rest` / `guard & rest`."""
    if univ and isinstance(body, AImplies):
        return body.left, body.right
    if not univ and isinstance(body, AAnd):
        return body.left, body.right
    return None, body


def _eval_arith_forall(f: AForall, env, ctx) -> bool:
    guard, rest = _guard_split(f.body, univ=True)
    if guard is not None and f.bound is not None:
        hit = _match_bit_guard(guard)
        if hit is not None and hit[0] == AVar(f.var) and hit[1] == f.bound:
            # v ranges over members: visit just the set bits of the host
            host = eval_arith_term(f.bound, env, ctx)
            inner = dict(env)
            for i in _bit_positions(host):
                inner[f.var] = i
                if not eval_arith(rest, inner, ctx):
                    return False
            return True
    inner = dict(env)
    for i in _arith_range(f, env, ctx):
        inner[f.var] = i
        if not eval_arith(f.body, inner, ctx):
            return False
    return True


def _eval_arith_exists(f: AExists, env, ctx) -> bool:
    guard, rest = _guard_split(f.body, univ=False)
    if guard is not None and f.bound is not None:
        hit = _match_bit_guard(guard)
        if hit is not None and hit[0] == AVar(f.var) and hit[1] == f.bound:
            host = eval_arith_term(f.bound, env, ctx)
            inner = dict(env)
            for i in _bit_positions(host):
                inner[f.var] = i
                if eval_arith(rest, inner, ctx):
                    return True
            return False
    if ctx.solver and f.bound is not None:
        if f not in _CHAIN_PLANS:
            _CHAIN_PLANS[f] = _analyze_chain(f)
        plan = _CHAIN_PLANS[f]
        if plan is not None:
            decided, _ = _solve_chain(plan, env, ctx)
            if decided is not None:
                return decided
    inner = dict(env)
    for i in _arith_range(f, env, ctx):
        inner[f.var] = i
        if eval_arith(f.body, inner, ctx):
            return True
    return False


# ---------------------------------------------------------------------------
# set terms and formulas
# ---------------------------------------------------------------------------

def eval_set_term(t: SetTerm, env: "dict[str, HFSet]",
                  ctx: EvalContext) -> HFSet:
    if isinstance(t, SVar):
        return _lookup(env, t.name)
    if isinstance(t, SEmpty):
        return empty()
    if isinstance(t, SLit):
        # the n-th set along the ordering; realized through the coding,
        # which provably enumerates the ordering
        return decode(t.value, ctx.code_budget)
    if isinstance(t, SEnum):
        elems = []
        for e in t.elems:
            elems.append(eval_set_term(e, env, ctx))
        return from_children(elems)
    if isinstance(t, SSep):
        dom = eval_set_term(t.dom, env, ctx)
        inner = dict(env)

        def pred(m: HFSet) -> bool:
            inner[t.var] = m
            return eval_set(t.body, inner, ctx)

        return separate(dom, pred)
    if not isinstance(t, SOp):
        raise TypeError(f"not a set term: {t!r}")
    args = []
    for a in t.args:  # a loop, not a comprehension: one frame per level
        args.append(eval_set_term(a, env, ctx))
    op = t.op
    if op == "pair":
        return pair(args[0], args[1])
    if op == "pset":
        return powerset(args[0], ctx.enum_budget)
    if op == "sum":
        return sumset(args[0])
    if op == "rank":
        return materialize_level(args[0].rank + 1, ctx.enum_budget)
    if op == "vns":
        return adjoin(args[0], args[0])
    if op == "osucc":
        return order.successor_a(args[0])
    if op in ("oadd", "omul", "oexp"):
        fn = {"oadd": add_a, "omul": mul_a, "oexp": exp_a}[op]
        return fn(args[0], args[1], ctx.mode,
                  literal_cutoff=ctx.literal_cutoff,
                  enum_budget=ctx.enum_budget)
    if op == "cadd":
        return cardinal.card_add(args[0], args[1], ctx.enum_budget)
    if op == "cmul":
        return cardinal.product(args[0], args[1], ctx.enum_budget)
    if op == "cexp":
        return cardinal.card_exp(args[0], args[1], ctx.enum_budget)
    if op == "cardof":
        n = cardinal.card(args[0])
        if n > ctx.enum_budget:
            raise BudgetExceeded("cardinality exceeds the enumeration budget")
        return order.ack_enum(n)
    if op in ("vadd", "vmul", "vexp"):
        if op == "vadd":
            return ord_add(args[0], args[1])
        if op == "vmul":
            return ord_mul(args[0], args[1])
        return ord_exp(args[0], args[1], ctx.enum_budget)
    raise TypeError(f"unknown set operation {op!r}")


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


_TRANSPORTS: "dict[SetFormula, ArithFormula | None]" = {}


def _transport(f: SetFormula) -> "ArithFormula | None":
    """The code-side counterpart of a fully bounded set formula, None
    when a quantifier is unbounded (cutoff semantics would not carry
    over).  Evaluating the counterpart on codes is the fast route for
    order-bounded subformulas; the honest walk stays available with the
    solver off and is what literal mode uses."""
    if f not in _TRANSPORTS:
        if is_bounded(f):
            from .interp import translate_a
            _TRANSPORTS[f] = translate_a(f)
        else:
            _TRANSPORTS[f] = None
    return _TRANSPORTS[f]


_SET_CHAIN_PLANS: "dict[SetFormula, tuple | None]" = {}


def _analyze_set_chain(f: SExists) -> "tuple | None":
    """Recognize an order-bounded existential chain over order-arithmetic
    terms and transport it to a code-side chain plan.

    Returns (plan, matrix, names) where `matrix` is the set-side matrix
    to re-verify witnesses against, or None when outside the fragment.
    """
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
    chain: ArithFormula = ARel("=", (lhs, rhs))
    for v, b in zip(reversed(names), reversed(bounds)):
        chain = AExists(v, b, chain)
    plan = _analyze_chain(chain)
    if plan is None:
        return None
    return plan, body, tuple(names)


def _solve_set_chain(f: SExists, env, ctx) -> "bool | None":
    """Decide an order-bounded chain through the coding, re-verifying any
    witness with the set operations themselves (so literal mode still
    exercises the literal route once per decision)."""
    if f not in _SET_CHAIN_PLANS:
        _SET_CHAIN_PLANS[f] = _analyze_set_chain(f)
    hit = _SET_CHAIN_PLANS[f]
    if hit is None:
        return None
    plan, matrix, names = hit
    needed = set(free_vars(matrix))
    for b in plan.bounds:
        needed |= free_vars(b)
    try:
        code_env = {v: encode(env[v], ctx.code_budget)
                    for v in needed - set(names) if v in env}
    except BudgetExceeded:
        return None
    decided, witness = _solve_chain(plan, code_env, ctx)
    if decided is None:
        return None
    if decided is False:
        return False
    inner = dict(env)
    for v in names:
        inner[v] = decode(witness[v], ctx.code_budget)
    if not eval_set(matrix, inner, ctx):
        raise AssertionError(
            "order-chain transport and set evaluation disagree on "
            f"{matrix!r} at {sorted((v, witness[v]) for v in names)}")
    return True


def _ord_graph(op: str, args: "list[HFSet]") -> bool:
    x, y, z = args
    try:
        if op == "ordadd":
            return ord_add(x, y) is z
        if op == "ordmul":
            return ord_mul(x, y) is z
        return ord_exp(x, y) is z
    except NotAnOrdinal:
        return False


def _conjuncts(f: SetFormula):
    while isinstance(f, SAnd):
        yield from _conjuncts(f.left)
        f = f.right
    yield f


class _NoWitness:
    pass


_NO_WITNESS = _NoWitness()


def _graph_witness(f: SExists, env, ctx):
    """Read the witness for `exists v. ... & ordop(a, b, v) & ...` off the
    operation graph: no other value can satisfy that conjunct.

    Ordinal codes grow as towers, so enumeration cannot reach these
    witnesses; the extracted candidate is still checked by honestly
    evaluating the whole body.  The pinning conjunct may sit underneath
    further unbounded existentials (the shape term flattening builds), as
    long as it does not mention their variables.  Returns an HFSet
    candidate, _NO_WITNESS when the graph atom is unsatisfiable, or None
    when no conjunct pins the variable.
    """
    ops = {"ordadd": ord_add, "ordmul": ord_mul, "ordexp": ord_exp}
    shadowed: "set[str]" = set()
    body = f.body
    while isinstance(body, SExists) and body.bound is None \
            and body.var != f.var:
        shadowed.add(body.var)
        body = body.body
    for c in _conjuncts(body):
        if not (isinstance(c, SRel) and c.op in ops
                and c.args[2] == SVar(f.var)):
            continue
        argvars = free_vars(c.args[0]) | free_vars(c.args[1])
        if f.var in argvars or argvars & shadowed:
            continue
        try:
            x = eval_set_term(c.args[0], env, ctx)
            y = eval_set_term(c.args[1], env, ctx)
        except ValueError:
            continue  # refers to a variable not in scope yet
        try:
            if c.op == "ordexp":
                return ord_exp(x, y, ctx.enum_budget)
            return ops[c.op](x, y)
        except NotAnOrdinal:
            return _NO_WITNESS
    return None


def eval_set(f: SetFormula, env: "dict[str, HFSet]",
             ctx: EvalContext) -> bool:
    if isinstance(f, SRel):
        if f.op == "Dom":
            eval_set_term(f.args[0], env, ctx)
            return True
        args = [eval_set_term(a, env, ctx) for a in f.args]
        if f.op == "in":
            return mem(args[0], args[1])
        if f.op == "=":
            return args[0] is args[1]
        if f.op == "<a":
            return order.ack_less(args[0], args[1])
        if f.op == "~c":
            return cardinal.card_eq(args[0], args[1])
        if f.op == "<c":
            return cardinal.card_lt(args[0], args[1])
        if f.op == "<=c":
            return cardinal.inj_exists(args[0], args[1])
        if f.op == "isord":
            return is_ordinal(args[0])
        if f.op in ("ordadd", "ordmul", "ordexp"):
            return _ord_graph(f.op, args)
        raise TypeError(f"unknown set relation {f.op!r}")
    if isinstance(f, SNot):
        return not eval_set(f.body, env, ctx)
    if isinstance(f, SAnd):
        return eval_set(f.left, env, ctx) and eval_set(f.right, env, ctx)
    if isinstance(f, SOr):
        return eval_set(f.left, env, ctx) or eval_set(f.right, env, ctx)
    if isinstance(f, SImplies):
        return (not eval_set(f.left, env, ctx)) \
            or eval_set(f.right, env, ctx)
    if isinstance(f, (SForall, SExists)):
        univ = isinstance(f, SForall)
        if not univ and f.bound is None and ctx.solver:
            pinned = _graph_witness(f, env, ctx)
            if pinned is _NO_WITNESS:
                return False
            if pinned is not None:
                inner = dict(env)
                inner[f.var] = pinned
                return eval_set(f.body, inner, ctx)
        if f.bound is not None and f.bound_kind == BOUND_ORDER \
                and ctx.solver:
            if ctx.mode == FAST:
                g = _transport(f)
                if g is not None:
                    try:
                        code_env = {v: encode(env[v], ctx.code_budget)
                                    for v in free_vars(f) if v in env}
                        return eval_arith(g, code_env, ctx)
                    except BudgetExceeded:
                        pass  # fall back to the honest walk
            elif not univ:
                decided = _solve_set_chain(f, env, ctx)
                if decided is not None:
                    return decided
        inner = dict(env)
        for x in _set_range(f, env, ctx):
            inner[f.var] = x
            value = eval_set(f.body, inner, ctx)
            if univ and not value:
                return False
            if not univ and value:
                return True
        return univ
    raise TypeError(f"not a set formula: {f!r}")


def _set_range(f, env, ctx):
    if f.bound is None:
        return (decode(i) for i in range(ctx.set_cutoff))
    bound = eval_set_term(f.bound, env, ctx)
    if f.bound_kind == BOUND_MEMBER:
        return iter(bound.children)
    # order-bounded: everything strictly before `bound`; the coding
    # enumerates the ordering, so walk codes
    n = encode(bound, ctx.code_budget)
    if n > ctx.enum_budget:
        raise BudgetExceeded(
            f"order segment of length {n} exceeds the enumeration budget")
    return (decode(i) for i in range(n))
