"""Verification suites over finite ranges, with replayable reports.

Each ``check_*`` function exercises one family of claims — set-theoretic
axioms, induction along adjunction, membership-as-bit agreement, round
trips between the two languages, and the cardinal reading of arithmetic —
and returns a :class:`Report` whose failing cases carry enough data to be
re-checked independently (see :func:`replay`).

A suite is a sequence of cases.  A case checks one claim, named by its
kind, at each of its points and stops at the first failing one.
`_KINDS` maps each kind to one checker, ``make(ctx, **params)``: a
function of a point's coordinates that returns None where the claim holds
and otherwise a dict of what it observed.  A counterexample is
``{"kind", **params, **point, **observed, "context"}``, and `replay` makes
the same check from it.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from itertools import combinations, islice, product, repeat, starmap
from pathlib import Path

from . import cardinal, interp
from .core import (
    FAST,
    LITERAL,
    HFSet,
    adjoin,
    decode,
    empty,
    encode,
    is_level,
    materialize_level,
    mem,
    pair,
    powerset,
    separate,
    sumset,
)
from .errors import (
    BudgetExceeded,
    CorpusUnreadable,
    LanguageMismatch,
    NotAnOrdinal,
    UsageError,
)
from .evaluate import EvalContext, eval_arith, eval_set
from .formulas import (
    ALit,
    AOp,
    AVar,
    ArithFormula,
    children,
    free_vars,
    rebuild,
)
from .parser import parse_arith, parse_set

PASS, FAIL, BUDGET = "pass", "fail", "budget"

DEFAULT_SEPARATION_CORPUS = "separation.txt"
DEFAULT_OPEI_CORPUS = "opei.txt"
DEFAULT_ARITH_CORPUS = "arith.txt"
DEFAULT_SET_CORPUS = "set.txt"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CaseResult:
    """Outcome of one named check inside a suite."""

    id: str
    verdict: str
    counterexample: "dict | None" = None
    note: str = ""

    def as_dict(self) -> dict:
        out: dict = {"id": self.id, "verdict": self.verdict}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class Report:
    """Suite outcome: context echo, per-case verdicts, and totals."""

    suite: str
    context: dict
    cases: "list[CaseResult]" = field(default_factory=list)

    @property
    def totals(self) -> dict:
        t = {PASS: 0, FAIL: 0, BUDGET: 0}
        for c in self.cases:
            t[c.verdict] += 1
        return t

    @property
    def exit_status(self) -> int:
        t = self.totals
        return 1 if t[FAIL] else 2 if t[BUDGET] else 0

    @property
    def passed(self) -> bool:
        return self.exit_status == 0

    def failures(self) -> "list[CaseResult]":
        return [c for c in self.cases if c.verdict == FAIL]

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "context": self.context,
            "cases": [c.as_dict() for c in self.cases],
            "totals": self.totals,
            "exit_status": self.exit_status,
        }


def _echo(ctx: EvalContext, **params) -> dict:
    """The context's fields, which rebuild it, followed by `params`."""
    return {**asdict(ctx), **params}


# ---------------------------------------------------------------------------
# corpus loading
# ---------------------------------------------------------------------------

def load_corpus(source) -> "list[str]":
    """Formula lines from a packaged corpus name, a file path, or a list.

    Lines whose first non-space character is ``#`` are comments (the
    formula grammar itself uses ``#`` for numerals, so comments are
    full-line only).
    """
    if isinstance(source, (list, tuple)):
        raw = list(source)
    else:
        p = Path(source)
        try:
            if p.exists():
                text = p.read_text()
            else:
                text = (resources.files("hfinterp") / "corpus"
                        / str(source)).read_text()
        except OSError as e:
            raise CorpusUnreadable(
                f"{source}: {e.strerror or e}") from e
        raw = text.splitlines()
    return [s for s in map(str.strip, raw) if s and not s.startswith("#")]


def load_annotated_corpus(source) -> "list[tuple[str | None, str]]":
    """Corpus lines as (annotation, formula); annotation None when absent.

    An annotated line reads  ``tag :: formula``.
    """
    out = []
    for line in load_corpus(source):
        tag, sep, src = line.partition("::")
        out.append((tag.strip(), src.strip()) if sep else (None, line))
    return out


# ---------------------------------------------------------------------------
# the case driver
# ---------------------------------------------------------------------------

class _Decoded:
    """``sets[c]`` is ``decode(c)``, for checkers given no decoded sets."""

    def __getitem__(self, code: int) -> HFSet:
        return decode(code)


_DECODED = _Decoded()


def _case(report: Report, ctx: EvalContext, case_id: str, kind: str,
          points, note="", local: "dict | None" = None, **params) -> None:
    """Check `kind` under `params` at each point of ``points()`` (a fresh
    iterable of coordinate tuples per call) and append the verdict; a
    point that raises `BudgetExceeded` ends the case as ``<kind>-budget``.
    `note` is a string or a function of the number of points checked;
    `local` holds unrecorded checker arguments (decoded `sets`, or a list
    `notes` to which the checker appends what it saw)."""
    check = _KINDS[kind][0](ctx, **params, **(local or {}))
    verdict, count = PASS, 0
    try:
        # starmap calls the check with the point's coordinates from C,
        # as fast as the suites' hand-written loops over the same points
        for count, observed in enumerate(starmap(check, points()), 1):
            if observed is not None:
                verdict = FAIL
                break
    except BudgetExceeded as e:
        verdict, count = BUDGET, count + 1
        observed = {"kind": f"{kind}-budget", "error": str(e)}
    cex = None
    if verdict != PASS:
        # the loop keeps no point, so the failing one is found again
        point = next(islice(points(), count - 1, None))
        cex = {"kind": kind, **params, **dict(zip(_KINDS[kind][2], point)),
               **observed, "context": _echo(ctx)}
    report.cases.append(CaseResult(
        case_id, verdict, cex, note(count) if callable(note) else note))


def _law(holds):
    """The checker of a claim ``holds(ctx, *sets)`` at a point's codes."""
    def make(ctx: EvalContext, sets=_DECODED):
        def point(*codes):
            if not holds(ctx, *[sets[c] for c in codes]):
                return {}
        return point
    return make


def _assignments(names, values):
    """A point (assignment dict,) per assignment of `values` to `names`."""
    return zip(map(dict, map(zip, repeat(names),
                             product(values, repeat=len(names)))))


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------

def _extensionality(ctx, x: HFSet, y: HFSet) -> bool:
    # only members of either side can distinguish the two, so scanning
    # the union of the member lists decides the full quantifier
    return x == y or not (all(mem(u, y) for u in x.children)
                          and all(mem(u, x) for u in y.children))


def _pairing(ctx, x: HFSet, y: HFSet) -> bool:
    w = pair(x, y)
    return mem(x, w) and mem(y, w) \
        and all(c == x or c == y for c in w.children)


def _union(ctx, x: HFSet) -> bool:
    w = sumset(x)
    return all(any(mem(c, d) for d in x.children) for c in w.children) \
        and all(mem(c, w) for d in x.children for c in d.children)


def _power(ctx, x: HFSet) -> bool:
    # members are pairwise distinct by canonical representation, so the
    # count certifies completeness
    w = powerset(x, ctx.enum_budget)
    return all(all(mem(c, x) for c in s.children) for s in w.children) \
        and len(w.children) == 2 ** len(x.children) \
        and mem(x, w) and mem(empty(), w)


def _foundation(ctx, x: HFSet) -> bool:
    return not x.children or any(all(not mem(z, x) for z in m.children)
                                 for m in x.children)


def _separation(ctx: EvalContext, formula: str, sets=_DECODED):
    """The subset of the host that the formula carves out holds exactly
    the host's members satisfying it."""
    f = parse_set(formula)

    def point(cy: int, cp: int):
        y, p = sets[cy], sets[cp]

        def pred(c: HFSet) -> bool:
            return eval_set(f, {"v": c, "p": p}, ctx)

        w = separate(y, pred)
        for c in y.children:
            if mem(c, w) != pred(c):
                return {"member_code": encode(c)}
        if not all(mem(c, y) for c in w.children):
            return {"kind": "separation-subset"}
    return point


def _finiteness(ctx: EvalContext, sets=_DECODED):
    """A one-one map of a host's members to members of the host is onto."""
    def point(host_code: int, images: "list[int]"):
        image = {sets[c] for c in images}
        if len(image) == len(images) \
                and image != set(sets[host_code].children):
            return {}
    return point


def _least_level(ctx: EvalContext, sets=_DECODED):
    """R(x) is a level, contains x, and no earlier level does."""
    # only a handful of levels occur, so the (expensive) shape check
    # runs once per level
    level_shape: "dict[int, bool]" = {}

    def point(cx: int):
        x = sets[cx]
        r = x.rank
        lvl = materialize_level(r + 1, ctx.enum_budget)
        if r + 1 not in level_shape:
            level_shape[r + 1] = is_level(lvl)
        if not (mem(x, lvl) and level_shape[r + 1]
                and all(not mem(x, materialize_level(m, ctx.enum_budget))
                        for m in range(r + 1))):
            return {}
    return point


def check_axioms(ctx: "EvalContext | None" = None,
                 separation_corpus=DEFAULT_SEPARATION_CORPUS) -> Report:
    """Extensionality, pairing, union, power set, separation instances,
    foundation, one-one-implies-onto finiteness, and least-level facts,
    checked over codes below the set cutoff."""
    ctx = ctx or EvalContext()
    n = ctx.set_cutoff
    local = {"sets": [decode(c) for c in range(n)]}
    report = Report("axioms", _echo(ctx, separation_corpus=str(separation_corpus)))

    def case(kind, points, note):
        _case(report, ctx, kind, kind, points, note, local)

    case("extensionality", lambda: combinations(range(n), 2),
         f"all {n}*{n} pairs")
    case("pairing", lambda: ((x, y) for x in range(n) for y in range(x, n)),
         f"all {n}*{n} pairs")
    case("union", lambda: zip(range(n)), f"all {n} sets")
    case("power", lambda: zip(range(n)), f"all {n} sets")

    hosts = range(0, n, 7)       # separation at sampled hosts and params
    params = [c for c in (0, 1, 3, 5, 11, 37, 100, 255) if c < n]
    for i, src in enumerate(load_corpus(separation_corpus)):
        _case(report, ctx, f"separation[{i}]", "separation",
              lambda: product(hosts, params), src, local, formula=src)

    case("foundation", lambda: zip(range(n)), f"all nonempty sets below {n}")

    # Finiteness on hosts of size <= 4, against every self-map of the
    # host's members, injective or not.
    small = [decode(c) for c in range(64)]
    for size in range(5):
        hosts_k = [c for c, x in enumerate(small) if len(x.children) == size]
        _case(report, ctx, f"finiteness[size={size}]", "finiteness",
              lambda: ((c, list(f)) for c in hosts_k for f in product(
                  map(encode, small[c].children), repeat=size)),
              lambda k: f"{len(hosts_k)} hosts, {k} self-maps")

    case("least-level", lambda: zip(range(n)), f"all {n} sets")
    return report


# ---------------------------------------------------------------------------
# induction along adjunction
# ---------------------------------------------------------------------------

def _opei(ctx: EvalContext, formula: str, expected: "str | None" = None,
          step_cutoff: int = 64, notes: "list | None" = None):
    """The observed branch of induction along adjunction is the annotated
    one, and never the conclusion (base and step pass, yet a set below
    the cutoff lacks the property: the principle itself would fail)."""
    f = parse_set(formula)

    def point():
        observed, witness = _opei_branch(
            lambda z: eval_set(f, {"x": z}, ctx), ctx, step_cutoff)
        if notes is not None:
            at = "" if witness is None else f" at {witness}"
            notes.append(f"{observed}{at}: {formula}")
        if observed == "conclusion" or expected not in (None, observed):
            return {"observed": observed, "witness": witness}
    return point


def check_opei(pred_corpus=DEFAULT_OPEI_CORPUS,
               ctx: "EvalContext | None" = None,
               step_cutoff: int = 64) -> Report:
    """For each predicate: either the base fails at the empty set, or the
    step fails at a witnessed (x, z) with the property but x U {z}
    without it, or the property holds for every set below the cutoff.

    Corpus lines may be annotated ``branch :: formula`` with branch one of
    holds/base/step; the observed branch must then match.
    """
    ctx = ctx or EvalContext()
    report = Report("opei", _echo(ctx, step_cutoff=step_cutoff))
    for i, (expected, src) in enumerate(load_annotated_corpus(pred_corpus)):
        notes: list = []
        _case(report, ctx, f"predicate[{i}]", "opei", lambda: [()],
              lambda n: "".join(notes), local={"notes": notes},
              formula=src, expected=expected, step_cutoff=step_cutoff)
    return report


def _opei_branch(phi, ctx: EvalContext,
                 step_cutoff: int) -> "tuple[str, dict | None]":
    if not phi(empty()):
        return "base", None
    holds = {c: phi(decode(c)) for c in range(step_cutoff)}
    seen: "dict[int, bool]" = {}
    for cx in range(step_cutoff):
        if not holds[cx]:
            continue
        x = decode(cx)
        for cz in range(step_cutoff):
            w = adjoin(x, decode(cz))
            wc = encode(w)
            if wc not in seen:
                seen[wc] = holds[wc] if wc in holds else phi(w)
            if not seen[wc]:
                return "step", {"x_code": cx, "z_code": cz,
                                "adjoined_code": wc}
    for c in range(ctx.set_cutoff):
        if not (holds[c] if c in holds else phi(decode(c))):
            return "conclusion", {"code": c}
    return "holds", None


# ---------------------------------------------------------------------------
# membership agreement (the bit formula, read back in the set language)
# ---------------------------------------------------------------------------

def membership_bit_formula(mutation: "str | None" = None) -> ArithFormula:
    """The arithmetic formula asserting that bit x of y is set, optionally
    corrupted for harness self-tests."""
    bit = interp.translate_a(parse_set("x in y"))
    if mutation is None:
        return bit
    if mutation == "successor":
        mutated = _swap_subterm(bit, AOp("+", (AVar("x"), ALit(1))),
                                AVar("x"))
    elif mutation == "bit-formula":
        coef_n = AOp("*", (AOp("exp", (ALit(2), AOp("+", (AVar("x"), ALit(1))))),
                           AVar("n")))
        middle = AOp("exp", (ALit(2), AVar("x")))
        mutated = _swap_subterm(bit, AOp("+", (coef_n, middle)), coef_n)
    else:
        raise ValueError(f"unknown mutation {mutation!r}")
    if mutated == bit:
        raise AssertionError("mutation did not change the formula")
    return mutated


def _swap_subterm(node, old, new):
    if node == old:
        return new
    return rebuild(node, [_swap_subterm(k, old, new) for k in children(node)])


def _theorem6(ctx: EvalContext, leg: "str | None" = None, mode: str = FAST,
              solver: bool = True, mutation: "str | None" = None,
              sets=_DECODED, notes: "list | None" = None):
    """Membership x in y agrees with the set reading of the (possibly
    mutated) bit formula under the leg's mode and solver; fast-exhaustive
    reconstructs the witnesses while the formula keeps its shape."""
    bit = membership_bit_formula(mutation)
    closed = leg == "fast-exhaustive" \
        and interp.bit_formula_parts(bit) == (AVar("x"), AVar("y"))
    if notes is not None:
        notes.append(", reconstructed witnesses" if closed
                     else ", full evaluator")
    if closed:
        # y = 2^(x+1)*n + 2^x + m with m < 2^x pins n and m to the
        # quotient and remainder of y by the powers around bit x
        def point(cx: int, cy: int):
            low = 1 << cx
            n = cy >> (cx + 1)
            got = n < cy and cy == (n << (cx + 1)) + low + (cy & (low - 1))
            if got != mem(sets[cx], sets[cy]):
                return {"mem": not got, "translated": got}   # two bools
        return point
    set_bit = interp.translate_d(bit)
    eval_ctx = replace(ctx, mode=mode, solver=solver)

    def point(cx: int, cy: int):
        x, y = sets[cx], sets[cy]
        oracle = mem(x, y)
        got = eval_set(set_bit, {"x": x, "y": y}, eval_ctx)
        if got != oracle:
            return {"mem": oracle, "translated": got}
    return point


def check_theorem6(ctx: "EvalContext | None" = None, *,
                   max_code: int = 4096,
                   literal_max_code: int = 64,
                   sample_size: int = 2048,
                   honest_max_code: int = 8,
                   literal_honest_max_code: int = 4,
                   seed: int = 7,
                   mutation: "str | None" = None) -> Report:
    """Membership agrees with the set-language reading of the bit formula.

    Legs: exhaustive fast-mode pairs below max_code (witnesses
    reconstructed from the equation when the formula has its canonical
    shape); a seeded sample through the full evaluator; exhaustive
    literal-mode pairs below literal_max_code; and solver-off honest
    walks on small grids in both modes.
    """
    ctx = ctx or EvalContext()
    report = Report("theorem6", _echo(
        ctx, max_code=max_code, literal_max_code=literal_max_code,
        sample_size=sample_size, honest_max_code=honest_max_code,
        literal_honest_max_code=literal_honest_max_code, seed=seed,
        mutation=mutation))

    top = max(max_code, literal_max_code, honest_max_code,
              literal_honest_max_code)
    sets = [decode(c) for c in range(top)]
    rng = random.Random(seed)
    sample = [(rng.randrange(max_code), rng.randrange(max_code))
              for _ in range(sample_size)]

    def grid(k: int):
        return lambda: product(range(k), repeat=2)

    for leg, points, mode, solver in (
            ("fast-exhaustive", grid(max_code), ctx.mode, ctx.solver),
            ("fast-sampled", lambda: sample, ctx.mode, ctx.solver),
            ("literal-exhaustive", grid(literal_max_code), LITERAL,
             ctx.solver),
            ("fast-honest-walk", grid(honest_max_code), ctx.mode, False),
            ("literal-honest-walk", grid(literal_honest_max_code), LITERAL,
             False)):
        notes: list = []
        _case(report, ctx, leg, "theorem6", points,
              lambda n: f"{n} pairs" + "".join(notes),
              local={"sets": sets, "notes": notes},
              leg=leg, mode=mode, solver=solver, mutation=mutation)
    return report


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def translatable_lines(corpus, maps: str) -> "list[str]":
    """Corpus lines inside the composed map's term fragment.

    The ordinal reading covers only the core arithmetic operations, so
    running it over a corpus with code operations needs this filter.
    """
    m = interp.get_map(maps)
    keep = []
    for src in load_corpus(corpus):
        f = parse_arith(src) if m.source == "arith" else parse_set(src)
        try:
            m(f)
        except LanguageMismatch:
            continue
        keep.append(src)
    return keep


def _roundtrip(ctx: EvalContext, maps: str, formula: str):
    """The formula and its image under `maps` agree at an assignment; an
    image refusing a value as no ordinal fails as ``roundtrip-raise``."""
    m = interp.get_map(maps)
    arith_side = m.source == "arith"
    f = parse_arith(formula) if arith_side else parse_set(formula)
    g = m(f)
    evalf = eval_arith if arith_side else eval_set

    def point(assignment: dict):
        env = assignment if arith_side \
            else {v: decode(c) for v, c in assignment.items()}
        try:
            lhs = evalf(f, env, ctx)
            rhs = evalf(g, env, ctx)
        except NotAnOrdinal as e:
            return {"kind": "roundtrip-raise", "error": str(e)}
        if lhs != rhs:
            return {"source_value": lhs, "round_trip_value": rhs}
    return point


def check_roundtrip(corpus=None, maps: str = "ad",
                    ctx: "EvalContext | None" = None,
                    value_cutoff: int = 256) -> Report:
    """Source-side truth is preserved by translating out and back.

    ``maps`` names the composition right-to-left ("ad" = out through the
    set reading, back through the coding).  The composed map must return
    to its source language.  Assignments are exhaustive below the cutoff.
    """
    ctx = ctx or EvalContext()
    m = interp.get_map(maps)
    if m.source != m.target:
        raise LanguageMismatch(
            f"{maps!r} maps {m.source} to {m.target}; a round trip must "
            "return to its source language")
    if corpus is None:
        corpus = DEFAULT_ARITH_CORPUS if m.source == "arith" \
            else DEFAULT_SET_CORPUS
    parse = parse_arith if m.source == "arith" else parse_set
    report = Report(f"roundtrip-{maps}", _echo(
        ctx, maps=maps, corpus=str(corpus), value_cutoff=value_cutoff))

    for i, src in enumerate(load_corpus(corpus)):
        fv = sorted(free_vars(parse(src)))
        _case(report, ctx, f"formula[{i}]", "roundtrip",
              lambda: _assignments(fv, range(value_cutoff)),
              lambda n: f"{n} assignments: {src}", maps=maps, formula=src)
    return report


# ---------------------------------------------------------------------------
# cardinal model
# ---------------------------------------------------------------------------

# Laws of arithmetic read under the cardinal translation.  Entries are
# (formula, size cap for the representative sets); exponent laws use
# smaller operands because the function spaces grow as |x|^|y|.
CARDINAL_LAWS: "tuple[tuple[str, int], ...]" = (
    ("x + y = y + x", 4),
    ("x * y = y * x", 4),
    ("x + 0 = x", 4),
    ("x * 1 = x", 4),
    ("x * 0 = 0", 4),
    ("(x + y) + z = x + (y + z)", 3),
    ("(x * y) * z = x * (y * z)", 2),
    ("x * (y + z) = x * y + x * z", 2),
    ("S(x) = x + 1", 4),
    ("x < S(x)", 4),
    ("x < y | y < x | x = y", 4),
    ("x < y -> S(x) < S(y)", 4),
    ("exp(x, 0) = 1", 4),
    ("exp(x, 1) = x", 3),
    ("exp(x, S(y)) = exp(x, y) * x", 2),
    ("exp(x, y + z) = exp(x, y) * exp(x, z)", 2),
    # bounded induction instances, (phi(0) & step below t) -> phi(t)
    ("(0 + 0 = 0 & forall x < 3. (x + 0 = x -> S(x) + 0 = S(x)))"
     " -> 3 + 0 = 3", 0),
    ("(0 * 2 = 0 + 0 & forall x < 3. (x * 2 = x + x -> S(x) * 2 = S(x) + S(x)))"
     " -> 3 * 2 = 3 + 3", 0),
)

# Representative sets by size: the initial-segment set of each size plus a
# structurally different one, so equivalence (not identity) is exercised.
_REPRESENTATIVE_CODES: "dict[int, tuple[int, ...]]" = {
    0: (0,),
    1: (1, 16),
    2: (3, 40),
    3: (7, 26),
    4: (15, 54),
}


def _injection_oracle(ctx, x: HFSet, y: HFSet) -> bool:
    found = cardinal.injection_search(x, y)
    if cardinal.inj_exists(x, y) != (found is not None):
        return False
    return found is None or (
        len(found) == cardinal.card(x)
        and len(set(found.values())) == len(found)
        and all(mem(a, x) and mem(b, y) for a, b in found.items()))


# Claims about the cardinal operations at a pair of representative sets.
_GRID_LAWS = {
    "size-of-sum": lambda ctx, x, y: cardinal.card(
        cardinal.card_add(x, y, ctx.enum_budget))
        == cardinal.card(x) + cardinal.card(y),
    "size-of-product": lambda ctx, x, y: cardinal.card(
        cardinal.product(x, y, ctx.enum_budget))
        == cardinal.card(x) * cardinal.card(y),
    "size-of-function-space": lambda ctx, x, y: cardinal.card(
        cardinal.card_exp(x, y, ctx.enum_budget))
        == cardinal.card(x) ** cardinal.card(y),
    "function-count": lambda ctx, x, y: cardinal.count_functions(
        x, y, ctx.enum_budget) == cardinal.card(x) ** cardinal.card(y),
    "injection-oracle": _injection_oracle,
}


def _cardinal_law(ctx: EvalContext, formula: str, value: bool = True,
                  sets=_DECODED):
    """The cardinal translation of `formula` takes `value` there."""
    g = interp.translate_c(parse_arith(formula))

    def point(assignment: dict):
        env = {v: sets[c] for v, c in assignment.items()}
        if eval_set(g, env, ctx) != value:
            return {}
    return point


def check_cardinal_model(ctx: "EvalContext | None" = None) -> Report:
    """Sizes of the cardinal operations match arithmetic, the injection
    fast path matches brute-force search, and translated laws hold."""
    ctx = ctx or EvalContext()
    report = Report("cardinal", _echo(ctx))
    codes = [c for cs in _REPRESENTATIVE_CODES.values() for c in cs]
    local = {"sets": {c: decode(c) for c in codes}}
    for kind in _GRID_LAWS:
        _case(report, ctx, kind, kind, lambda: product(codes, repeat=2),
              lambda n: f"{n} pairs", local)

    for i, (law, size_cap) in enumerate(CARDINAL_LAWS):
        pool = [c for size, cs in _REPRESENTATIVE_CODES.items()
                if size <= size_cap for c in cs]
        fv = sorted(free_vars(parse_arith(law)))
        _case(report, ctx, f"law[{i}]", "cardinal-law",
              lambda: _assignments(fv, pool),
              lambda n: f"{n} assignments: {law}", local, formula=law)

    # A falsehood must come out false: one extra element is never nothing.
    _case(report, ctx, "successor-not-zero", "cardinal-falsehood",
          lambda: [({},)], "translated falsehood evaluates false",
          formula="S(0) = 0")
    return report


# ---------------------------------------------------------------------------
# harness self-tests
# ---------------------------------------------------------------------------

_SELFTEST_RANGES = dict(max_code=48, literal_max_code=12, sample_size=64,
                        honest_max_code=8, literal_honest_max_code=2, seed=7)


def _selftest_control(ctx: EvalContext):
    """The uncorrupted membership suite passes at the self-test ranges."""
    def point():
        control = check_theorem6(ctx, **_SELFTEST_RANGES)
        if not control.passed:
            return {"failures": [c.as_dict() for c in control.failures()]}
    return point


def _selftest_mutation(ctx: EvalContext, mutation: str,
                       notes: "list | None" = None):
    """The membership suite catches the mutation on some leg, and each of
    its failures replays from the counterexample alone."""
    def point():
        failures = check_theorem6(
            ctx, mutation=mutation, **_SELFTEST_RANGES).failures()
        replayed = all(replay(c.counterexample) for c in failures)
        if notes is not None:
            notes.append(f"{len(failures)} legs failed and replayed")
        if not (failures and replayed):
            return {"detected": bool(failures), "replayed": replayed}
    return point


def check_selftest(ctx: "EvalContext | None" = None) -> Report:
    """The membership suite must catch deliberately corrupted formulas,
    and its failures must replay; the uncorrupted control must pass."""
    ctx = ctx or EvalContext()
    report = Report("selftest", _echo(ctx))
    _case(report, ctx, "control", "selftest-control", lambda: [()],
          "uncorrupted run passes")
    for mutation in ("successor", "bit-formula"):
        notes: list = []
        _case(report, ctx, f"mutation[{mutation}]", "selftest-mutation",
              lambda: [()], lambda n: "".join(notes),
              local={"notes": notes}, mutation=mutation)
    return report


# ---------------------------------------------------------------------------
# the checker table, replay and the suite registry
# ---------------------------------------------------------------------------

# kind -> (make, the case params it reads, the names of a point's
# coordinates); the checkers of separation and roundtrip report the kind
# of a more specific failure in what they observed
_XY = ("x_code", "y_code")
_KINDS: "dict[str, tuple]" = {
    "extensionality": (_law(_extensionality), (), _XY),
    "pairing": (_law(_pairing), (), _XY),
    "union": (_law(_union), (), ("x_code",)),
    "power": (_law(_power), (), ("x_code",)),
    "separation": (_separation, ("formula",), ("host_code", "param_code")),
    "foundation": (_law(_foundation), (), ("x_code",)),
    "finiteness": (_finiteness, (), ("host_code", "images")),
    "least-level": (_least_level, (), ("x_code",)),
    "opei": (_opei, ("formula", "expected", "step_cutoff"), ()),
    "theorem6": (_theorem6, ("leg", "mode", "solver", "mutation"), _XY),
    "roundtrip": (_roundtrip, ("maps", "formula"), ("assignment",)),
    **{kind: (_law(holds), (), _XY) for kind, holds in _GRID_LAWS.items()},
    "cardinal-law": (_cardinal_law, ("formula",), ("assignment",)),
    "cardinal-falsehood": (
        lambda ctx, formula: _cardinal_law(ctx, formula, False),
        ("formula",), ("assignment",)),
    "selftest-control": (_selftest_control, (), ()),
    "selftest-mutation": (_selftest_mutation, ("mutation",), ()),
}
_KINDS["separation-subset"] = _KINDS["separation"]
_KINDS["roundtrip-raise"] = _KINDS["roundtrip"]


def replay(counterexample: "dict | None",
           ctx: "EvalContext | None" = None) -> bool:
    """Re-check a reported counterexample from its serialized form alone,
    under its recorded context, else `ctx`, else the default; True when
    the same failure (for a ``*-budget`` kind, the same refusal) recurs."""
    if not counterexample:
        return False
    c = counterexample
    kind = c["kind"]
    base = kind.removesuffix("-budget")
    if base not in _KINDS:
        raise ValueError(f"cannot replay counterexample of kind {kind!r}")
    make, params, point = _KINDS[base]
    ctx = EvalContext(**c["context"]) if "context" in c else ctx
    check = make(ctx or EvalContext(), **{p: c[p] for p in params if p in c})
    try:
        observed = check(*[c[p] for p in point])
    except BudgetExceeded as e:
        return kind != base and c.get("error") == str(e)
    return kind == base and observed is not None \
        and all(c.get(k) == v for k, v in observed.items())


def run_suite(name: str, ctx: "EvalContext | None" = None, *,
              max_code: int = 4096, corpus=None) -> "list[Report]":
    """Run a named suite (or ``all``) and return its reports.

    `corpus` overrides one suite's corpus; ``all`` runs every suite on its
    packaged corpus and refuses one.
    """
    if name == "all" and corpus is not None:
        raise UsageError("a corpus names one suite's corpus; "
                         "suite 'all' runs the packaged corpora")
    ctx = ctx or EvalContext()
    suites = {
        "axioms": lambda: check_axioms(
            ctx, corpus or DEFAULT_SEPARATION_CORPUS),
        "opei": lambda: check_opei(corpus or DEFAULT_OPEI_CORPUS, ctx),
        "theorem6": lambda: check_theorem6(ctx, max_code=max_code),
        "roundtrip-ad": lambda: check_roundtrip(corpus, "ad", ctx),
        "roundtrip-da": lambda: check_roundtrip(corpus, "da", ctx),
        "cardinal": lambda: check_cardinal_model(ctx),
        "selftest": lambda: check_selftest(ctx),
    }
    if name == "all":
        return [suite() for suite in suites.values()]
    if name not in suites:
        raise ValueError(f"unknown suite {name!r}")
    return [suites[name]()]
