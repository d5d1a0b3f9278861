"""The four translations between the two languages.

- ``a`` (set -> arithmetic): reads sets as their codes.  Membership
  becomes the bit-extraction formula, the set constructors become the
  corresponding code operations, and both kinds of bounded set
  quantifier stay bounded (a member's code is smaller than its set's
  code).  Total on the set language.

- ``c`` (arithmetic -> set): reads numbers as cardinalities.  Equality
  becomes equinumerosity, < becomes the strict cardinality comparison,
  S adjoins the set to itself, and +, *, exp become the tagged union,
  pair-set product, and function space.  Covers the core arithmetic
  fragment; code operations are out of scope.  Bounded quantifiers lose
  their bound (there is no single set containing a representative of
  every smaller cardinality), keeping only a cardinality guard.

- ``o`` (arithmetic -> set): reads numbers as von Neumann ordinals,
  relativizing quantifiers to ordinals.  < becomes membership; +, *,
  exp are flattened into operation-graph atoms behind existentials.
  Covers the core fragment.

- ``d`` (arithmetic -> set): reads the n-th number as the n-th set in
  the Ackermann ordering.  < becomes the order comparison, S, +, *, exp
  become the order-arithmetic operations, bounded quantifiers become
  order-bounded, and each code operation becomes the set constructor it
  codes.  Total on the arithmetic language.

Every map carries each connective to its counterpart in the other
language (`formulas.TWIN`), so each map below states only what it does to
atoms, terms and quantifiers.

`compose(outer, inner)` chains two maps when inner's target language is
outer's source language; `get_map` resolves names like "a" or "da"
(rightmost applied first).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import LanguageMismatch
from .formulas import (
    ALit,
    AAnd,
    AExists,
    AForall,
    AImplies,
    ANot,
    AOp,
    ARel,
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
    SOp,
    SRel,
    SSep,
    SVar,
    SetFormula,
    SetTerm,
    TWIN,
    free_vars,
    fresh_var,
    rename_bound,
)

ARITH, SET = "arith", "set"


# ---------------------------------------------------------------------------
# what every map shares
# ---------------------------------------------------------------------------

def _homomorphism(source: type, atom, quantifier):
    """The formula map that sends each connective to its counterpart and
    leaves atoms and quantifiers to the map's own rules.

    `quantifier(q)` returns the quantifier whose body is translated (q, or
    q with its variable renamed) and a function building the image from
    the translated body.  All recursion happens here, one frame per
    level."""
    what = "a set" if source is SetFormula else "an arithmetic"

    def translate(f):
        if not isinstance(f, source):
            raise LanguageMismatch(f"not {what} formula: {f!r}")
        cls = type(f)
        if cls.binder:
            q, build = quantifier(f)
            return build(translate(q.body))
        if cls in TWIN:
            parts = []
            for name in cls.child_fields:
                parts.append(translate(getattr(f, name)))
            return TWIN[cls](*parts)
        return atom(f)

    return translate


#: the connective joining a relativized quantifier's guard to its body
_GUARD_JOIN = {AForall: AImplies, AExists: AAnd,
               SForall: SImplies, SExists: SAnd}


def _guarded(quant: type, var: str, bound, guard, body):
    """forall var. guard -> body, or exists var. guard & body."""
    return quant(var, bound, _GUARD_JOIN[quant](guard, body))


def _apart(q, avoid=frozenset()):
    """Quantifier `q` with its variable renamed when its bound mentions
    it, for maps that repeat the bound inside the quantifier's scope."""
    if q.var not in free_vars(q.bound):
        return q
    return rename_bound(q, free_vars(q.body) | free_vars(q.bound) | avoid)


def _vn_literal(n: int) -> SetTerm:
    """The von Neumann ordinal n: vns applied n times to the empty set."""
    out: SetTerm = SEmpty()
    for _ in range(n):
        out = SOp("vns", (out,))
    return out


#: d: each arithmetic operation and the set operation it becomes
_D_OPS = {"S": "osucc", "+": "oadd", "*": "omul", "exp": "oexp",
          "pow": "pset", "sumc": "sum", "pairc": "pair", "rankc": "rank",
          "cardc": "cardof", "vnsc": "vns", "ordaddc": "vadd",
          "ordmulc": "vmul", "ordexpc": "vexp", "caddc": "cadd",
          "cmulc": "cmul", "cexpc": "cexp"}
#: d: each arithmetic relation and the set relation it becomes
_D_RELS = {"=": "=", "<": "<a", "Dom": "Dom", "OrdCode": "isord"}
#: a inverts d's tables, except that it sends osucc to + 1
_A_OPS = {s: a for a, s in _D_OPS.items() if s != "osucc"}
_A_RELS = {s: a for a, s in _D_RELS.items()}


# ---------------------------------------------------------------------------
# a: set language -> arithmetic language (sets as codes)
# ---------------------------------------------------------------------------

def _bit_shape(s: ArithTerm, t: ArithTerm, n: str, m: str) -> ArithFormula:
    """exists n < t. exists m < 2^s. t = 2^(s+1) * n + 2^s + m."""
    two = ALit(2)
    low = AOp("exp", (two, s))
    high = AOp("exp", (two, AOp("+", (s, ALit(1)))))
    value = AOp("+", (AOp("+", (AOp("*", (high, AVar(n))), low)), AVar(m)))
    return AExists(n, t, AExists(m, low, ARel("=", (t, value))))


def _bit_formula(s: ArithTerm, t: ArithTerm) -> ArithFormula:
    """Bit s of t is set: the bit shape over two fresh variables."""
    avoid = free_vars(s) | free_vars(t)
    n = fresh_var("n", avoid)
    m = fresh_var("m", avoid | {n})
    return _bit_shape(s, t, n, m)


def bit_formula_parts(
        f: ArithFormula) -> "tuple[ArithTerm, ArithTerm] | None":
    """(s, t) when f says that bit s of t is set in the shape map a gives
    it: f is the bit shape of s and t over two distinct variables free in
    neither s nor t.  None for any other formula."""
    if not (isinstance(f, AExists) and f.bound is not None
            and isinstance(f.body, AExists)):
        return None
    low = f.body.bound
    if not (isinstance(low, AOp) and low.op == "exp"):
        return None
    s, t, n, m = low.args[1], f.bound, f.var, f.body.var
    if n == m or {n, m} & (free_vars(s) | free_vars(t)):
        return None
    return (s, t) if f == _bit_shape(s, t, n, m) else None


def translate_a_term(t: SetTerm) -> ArithTerm:
    if isinstance(t, SVar):
        return AVar(t.name)
    if isinstance(t, SEmpty):
        return ALit(0)
    if isinstance(t, SLit):
        return ALit(t.value)
    if isinstance(t, SEnum):
        if not t.elems:
            return ALit(0)
        codes = []
        for e in t.elems:
            codes.append(translate_a_term(e))
        return _enum_code(codes)
    if isinstance(t, SSep):
        return ASep(t.var, translate_a_term(t.dom), translate_a(t.body))
    if isinstance(t, SOp):
        args = []
        for a in t.args:  # a loop, not a generator: one frame per level
            args.append(translate_a_term(a))
        if t.op == "osucc":
            return AOp("+", (args[0], ALit(1)))
        return AOp(_A_OPS[t.op], tuple(args))
    raise LanguageMismatch(f"not a set term: {t!r}")


def _enum_code(codes: "list[ArithTerm]") -> ArithTerm:
    """Code of the set enumerating `codes`, folded through pair codes:
    {a, b, c, d} is the union of the two-element set {{a, b}, {c, d}}."""
    if len(codes) == 1:
        return AOp("pairc", (codes[0], codes[0]))
    if len(codes) == 2:
        return AOp("pairc", (codes[0], codes[1]))
    pairs = [AOp("pairc", (codes[i], codes[min(i + 1, len(codes) - 1)]))
             for i in range(0, len(codes), 2)]
    return AOp("sumc", (_enum_code(pairs),))


def _a_atom(f: SRel) -> ArithFormula:
    args = tuple(translate_a_term(a) for a in f.args)
    if f.op in _A_RELS:
        return ARel(_A_RELS[f.op], args)
    if f.op == "in":
        return _bit_formula(args[0], args[1])
    if f.op in ("ordadd", "ordmul", "ordexp"):
        x, y, z = args
        guard = AAnd(ARel("OrdCode", (x,)), ARel("OrdCode", (y,)))
        return AAnd(guard, ARel("=", (AOp(f.op + "c", (x, y)), z)))
    # the cardinality comparisons compare member counts
    sizes = (AOp("cardc", (args[0],)), AOp("cardc", (args[1],)))
    if f.op == "~c":
        return ARel("=", sizes)
    if f.op == "<c":
        return ARel("<", sizes)
    if f.op == "<=c":
        return ANot(ARel("<", sizes[::-1]))
    raise LanguageMismatch(f"unknown set relation {f.op!r}")


def _a_quantifier(q):
    quant = TWIN[type(q)]
    if q.bound is None:
        return q, partial(quant, q.var, None)
    # a member bound reappears in the guard, inside the new scope
    q = _apart(q)
    bound = translate_a_term(q.bound)
    if q.bound_kind == BOUND_ORDER:
        return q, partial(quant, q.var, bound)
    guard = _bit_formula(AVar(q.var), bound)
    return q, partial(_guarded, quant, q.var, bound, guard)


translate_a = _homomorphism(SetFormula, _a_atom, _a_quantifier)


# ---------------------------------------------------------------------------
# c: arithmetic -> set (numbers as cardinalities)
# ---------------------------------------------------------------------------

_C_OPS = {"S": "vns", "+": "cadd", "*": "cmul", "exp": "cexp"}
_C_RELS = {"=": "~c", "<": "<c", "Dom": "Dom"}


def translate_c_term(t: ArithTerm) -> SetTerm:
    if isinstance(t, AVar):
        return SVar(t.name)
    if isinstance(t, ALit):
        return _vn_literal(t.value)
    if isinstance(t, AOp):
        if t.op in _C_OPS:
            args = []
            for a in t.args:  # a loop, not a generator: one frame per level
                args.append(translate_c_term(a))
            return SOp(_C_OPS[t.op], tuple(args))
        raise LanguageMismatch(
            f"the cardinal interpretation covers 0, S, +, *, exp only, "
            f"not {t.op!r}")
    raise LanguageMismatch(
        f"the cardinal interpretation covers 0, S, +, *, exp only: {t!r}")


def _c_atom(f: ARel) -> SetFormula:
    if f.op not in _C_RELS:
        raise LanguageMismatch(
            f"the cardinal interpretation does not cover {f.op!r}")
    return SRel(_C_RELS[f.op], tuple(translate_c_term(a) for a in f.args))


def _c_quantifier(q):
    quant = TWIN[type(q)]
    if q.bound is None:
        return q, partial(quant, q.var, None)
    # sets of every smaller cardinality occur arbitrarily late in any
    # enumeration, so the translated quantifier cannot stay bounded;
    # keep the comparison as a guard
    q = _apart(q)
    guard = SRel("<c", (SVar(q.var), translate_c_term(q.bound)))
    return q, partial(_guarded, quant, q.var, None, guard)


translate_c = _homomorphism(ArithFormula, _c_atom, _c_quantifier)


# ---------------------------------------------------------------------------
# o: arithmetic -> set (numbers as von Neumann ordinals)
# ---------------------------------------------------------------------------

_O_GRAPHS = {"+": "ordadd", "*": "ordmul", "exp": "ordexp"}
_O_RELS = {"=": "=", "<": "in", "Dom": "isord"}


def _o_flatten(t: ArithTerm, constraints: "list[SetFormula]",
               avoid: "set[str]", fresh: "list[str]") -> SetTerm:
    """Translate a term, pushing +, *, exp into graph atoms on fresh
    variables appended to `constraints` (and recorded in `fresh`)."""
    if isinstance(t, AVar):
        return SVar(t.name)
    if isinstance(t, ALit):
        return _vn_literal(t.value)
    if isinstance(t, AOp):
        if t.op == "S":
            return SOp("vns",
                       (_o_flatten(t.args[0], constraints, avoid, fresh),))
        if t.op in _O_GRAPHS:
            left = _o_flatten(t.args[0], constraints, avoid, fresh)
            right = _o_flatten(t.args[1], constraints, avoid, fresh)
            z = fresh_var(f"t{len(fresh)}", avoid)
            avoid.add(z)
            fresh.append(z)
            constraints.append(
                SRel(_O_GRAPHS[t.op], (left, right, SVar(z))))
            return SVar(z)
        raise LanguageMismatch(
            f"the ordinal interpretation covers 0, S, +, *, exp only, "
            f"not {t.op!r}")
    raise LanguageMismatch(
        f"the ordinal interpretation covers 0, S, +, *, exp only: {t!r}")


def _o_close(atom: SetFormula, constraints: "list[SetFormula]",
             fresh: "list[str]") -> SetFormula:
    out = atom
    for c in reversed(constraints):
        out = SAnd(c, out)
    for name in reversed(fresh):
        out = SExists(name, None, out)
    return out


def _o_atom(f: ARel) -> SetFormula:
    avoid = set()
    for t in f.args:
        avoid |= free_vars(t)
    constraints: "list[SetFormula]" = []
    fresh: "list[str]" = []
    parts = tuple(_o_flatten(t, constraints, avoid, fresh) for t in f.args)
    if f.op not in _O_RELS:
        raise LanguageMismatch(
            f"the ordinal interpretation does not cover {f.op!r}")
    return _o_close(SRel(_O_RELS[f.op], parts), constraints, fresh)


def _o_quantifier(q):
    if q.bound is None:
        guard = SRel("isord", (SVar(q.var),))
        return q, partial(_guarded, TWIN[type(q)], q.var, None, guard)
    return q, partial(_o_bounded, q)


def _o_bounded(q, inner: SetFormula) -> SetFormula:
    """n < bound becomes membership, so the quantifier can range over the
    bound's members; ordinal-hood of members is automatic.  The body is
    translated before the bound, so that its mismatch is the one
    reported."""
    avoid = set(free_vars(q.bound)) | set(free_vars(q.body)) | {q.var}
    constraints: "list[SetFormula]" = []
    fresh: "list[str]" = []
    bound = _o_flatten(q.bound, constraints, avoid, fresh)
    renamed = _apart(q, avoid)
    if renamed is not q:
        inner = translate_o(renamed.body)
    image = TWIN[type(q)](renamed.var, bound, inner, BOUND_MEMBER)
    return _o_close(image, constraints, fresh)


translate_o = _homomorphism(ArithFormula, _o_atom, _o_quantifier)


# ---------------------------------------------------------------------------
# d: arithmetic -> set (numbers as their position along the ordering)
# ---------------------------------------------------------------------------

def translate_d_term(t: ArithTerm) -> SetTerm:
    if isinstance(t, AVar):
        return SVar(t.name)
    if isinstance(t, ALit):
        return SEmpty() if t.value == 0 else SLit(t.value)
    if isinstance(t, AOp):
        args = []
        for a in t.args:  # a loop, not a generator: one frame per level
            args.append(translate_d_term(a))
        return SOp(_D_OPS[t.op], tuple(args))
    if isinstance(t, ASep):
        return SSep(t.var, translate_d_term(t.bound), translate_d(t.body))
    raise LanguageMismatch(f"not an arithmetic term: {t!r}")


def _d_atom(f: ARel) -> SetFormula:
    return SRel(_D_RELS[f.op], tuple(translate_d_term(a) for a in f.args))


def _d_quantifier(q):
    quant = TWIN[type(q)]
    if q.bound is None:
        return q, partial(quant, q.var, None)
    bound = translate_d_term(q.bound)
    return q, partial(quant, q.var, bound, bound_kind=BOUND_ORDER)


translate_d = _homomorphism(ArithFormula, _d_atom, _d_quantifier)


# ---------------------------------------------------------------------------
# the map registry and composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpMap:
    """A named translation between the languages."""

    name: str
    source: str
    target: str
    on_formula: "Callable[..., object]"
    on_term: "Callable[..., object] | None" = None

    def __call__(self, formula):
        return self.on_formula(formula)


MAP_A = InterpMap("a", SET, ARITH, translate_a, translate_a_term)
MAP_C = InterpMap("c", ARITH, SET, translate_c, translate_c_term)
MAP_O = InterpMap("o", ARITH, SET, translate_o, None)
MAP_D = InterpMap("d", ARITH, SET, translate_d, translate_d_term)

MAPS = {"a": MAP_A, "c": MAP_C, "o": MAP_O, "d": MAP_D}


def compose(outer: InterpMap, inner: InterpMap) -> InterpMap:
    """The map applying `inner` first, then `outer`."""
    if inner.target != outer.source:
        raise LanguageMismatch(
            f"cannot compose: {inner.name!r} produces {inner.target} "
            f"formulas but {outer.name!r} consumes {outer.source} formulas")
    on_term = None
    if inner.on_term is not None and outer.on_term is not None:
        term_in, term_out = inner.on_term, outer.on_term
        on_term = lambda t: term_out(term_in(t))  # noqa: E731
    return InterpMap(outer.name + inner.name, inner.source, outer.target,
                     lambda f: outer.on_formula(inner.on_formula(f)),
                     on_term)


def get_map(tag: str) -> InterpMap:
    """Resolve a map name like "a" or a composition like "da"
    (rightmost letter applied first)."""
    if not tag or any(ch not in MAPS for ch in tag):
        known = ", ".join(sorted(MAPS))
        raise LanguageMismatch(f"unknown map {tag!r} (single maps: {known})")
    out = MAPS[tag[-1]]
    for ch in reversed(tag[:-1]):
        out = compose(MAPS[ch], out)
    return out
