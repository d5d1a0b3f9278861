"""Verification suites over finite ranges, with replayable reports.

Each ``check_*`` function exercises one family of claims — set-theoretic
axioms, induction along adjunction, membership-as-bit agreement, round
trips between the two languages, and the cardinal reading of arithmetic —
and returns a :class:`Report` whose failing cases carry enough data to be
re-checked independently (see :func:`replay`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from . import cardinal
from .core import (
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
from .interp import (
    bit_formula_parts,
    get_map,
    translate_a,
    translate_c,
    translate_d,
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
        if t[FAIL]:
            return 1
        if t[BUDGET]:
            return 2
        return 0

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
    out = {
        "nat_cutoff": ctx.nat_cutoff,
        "set_cutoff": ctx.set_cutoff,
        "code_budget": ctx.code_budget,
        "enum_budget": ctx.enum_budget,
        "literal_cutoff": ctx.literal_cutoff,
        "mode": ctx.mode,
        "solver": ctx.solver,
    }
    out.update(params)
    return out


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
    out = []
    for line in raw:
        s = line.strip()
        if s and not s.startswith("#"):
            out.append(s)
    return out


def load_annotated_corpus(source) -> "list[tuple[str | None, str]]":
    """Corpus lines as (annotation, formula); annotation None when absent.

    An annotated line reads  ``tag :: formula``.
    """
    out = []
    for line in load_corpus(source):
        if "::" in line:
            tag, src = line.split("::", 1)
            out.append((tag.strip(), src.strip()))
        else:
            out.append((None, line))
    return out


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------

def check_axioms(ctx: "EvalContext | None" = None,
                 separation_corpus=DEFAULT_SEPARATION_CORPUS) -> Report:
    """Extensionality, pairing, union, power set, separation instances,
    foundation, one-one-implies-onto finiteness, and least-level facts,
    checked over codes below the set cutoff."""
    ctx = ctx or EvalContext()
    n = ctx.set_cutoff
    universe = [decode(c) for c in range(n)]
    report = Report("axioms", _echo(ctx, separation_corpus=str(separation_corpus)))
    cases = report.cases

    # Extensionality: sets with the same members are the same set.  Only
    # members of either side can distinguish the two, so scanning the
    # union of the member lists decides the full quantifier.
    bad = None
    for cx, x in enumerate(universe):
        for cy in range(cx + 1, n):
            y = universe[cy]
            if all(mem(u, y) for u in x.children) \
                    and all(mem(u, x) for u in y.children):
                bad = {"kind": "extensionality", "x_code": cx, "y_code": cy}
                break
        if bad:
            break
    cases.append(CaseResult(
        "extensionality", FAIL if bad else PASS, bad,
        note=f"all {n}*{n} pairs"))

    # Pairing: pair(x, y) holds exactly x and y.
    bad = None
    for cx, x in enumerate(universe):
        for cy in range(cx, n):
            y = universe[cy]
            w = pair(x, y)
            if not (mem(x, w) and mem(y, w)
                    and all(c == x or c == y for c in w.children)):
                bad = {"kind": "pairing", "x_code": cx, "y_code": cy}
                break
        if bad:
            break
    cases.append(CaseResult(
        "pairing", FAIL if bad else PASS, bad, note=f"all {n}*{n} pairs"))

    # Union: sumset(x) holds exactly the members of members of x.
    bad = None
    for cx, x in enumerate(universe):
        w = sumset(x)
        ok = all(any(mem(c, d) for d in x.children) for c in w.children) \
            and all(mem(c, w) for d in x.children for c in d.children)
        if not ok:
            bad = {"kind": "union", "x_code": cx}
            break
    cases.append(CaseResult(
        "union", FAIL if bad else PASS, bad, note=f"all {n} sets"))

    # Power set: every member of powerset(x) is a subset, and there are
    # exactly 2^|x| of them (members are pairwise distinct by canonical
    # representation, so the count certifies completeness).
    bad = None
    for cx, x in enumerate(universe):
        try:
            w = powerset(x, ctx.enum_budget)
        except BudgetExceeded:
            bad = {"kind": "power-budget", "x_code": cx}
            break
        ok = all(all(mem(c, x) for c in s.children) for s in w.children) \
            and len(w.children) == 2 ** len(x.children) \
            and mem(x, w) and mem(empty(), w)
        if not ok:
            bad = {"kind": "power", "x_code": cx}
            break
    cases.append(CaseResult(
        "power", FAIL if bad else PASS, bad, note=f"all {n} sets"))

    # Separation instances: for each predicate in the corpus, the filtered
    # subset is a witness — it contains exactly the members of the host
    # satisfying the predicate.
    hosts = list(range(0, n, 7))
    params = [c for c in (0, 1, 3, 5, 11, 37, 100, 255) if c < n]
    for i, src in enumerate(load_corpus(separation_corpus)):
        f = parse_set(src)
        bad = None
        verdict = PASS
        try:
            for cy in hosts:
                y = universe[cy]
                for cp in params:
                    p = universe[cp]

                    def pred(c: HFSet) -> bool:
                        return eval_set(f, {"v": c, "p": p}, ctx)

                    w = separate(y, pred)
                    for c in y.children:
                        if mem(c, w) != pred(c):
                            bad = {"kind": "separation", "formula": src,
                                   "host_code": cy, "param_code": cp,
                                   "member_code": encode(c)}
                            break
                    if bad is None and not all(mem(c, y) for c in w.children):
                        bad = {"kind": "separation-subset", "formula": src,
                               "host_code": cy, "param_code": cp}
                    if bad:
                        break
                if bad:
                    break
            if bad:
                verdict = FAIL
        except BudgetExceeded as e:
            verdict = BUDGET
            bad = {"kind": "separation-budget", "formula": src,
                   "error": str(e)}
        cases.append(CaseResult(
            f"separation[{i}]", verdict, bad,
            note=src if verdict == PASS else ""))

    # Foundation: every nonempty set has a member sharing no member with it.
    bad = None
    for cx, x in enumerate(universe):
        if not x.children:
            continue
        if not any(all(not mem(z, x) for z in m.children)
                   for m in x.children):
            bad = {"kind": "foundation", "x_code": cx}
            break
    cases.append(CaseResult(
        "foundation", FAIL if bad else PASS, bad,
        note=f"all nonempty sets below {n}"))

    # Finiteness: on hosts of size <= 4, every one-one self-map is onto
    # (checked against every self-map, injective or not).
    for size in range(5):
        hosts_k = [x for x in (decode(c) for c in range(64))
                   if len(x.children) == size]
        bad = None
        checked = 0
        for x in hosts_k:
            cs = x.children
            for images in itertools.product(cs, repeat=size):
                checked += 1
                one_one = len(set(images)) == size
                onto = set(images) == set(cs)
                if one_one and not onto:
                    bad = {"kind": "finiteness", "host_code": encode(x),
                           "images": [encode(i) for i in images]}
                    break
            if bad:
                break
        cases.append(CaseResult(
            f"finiteness[size={size}]", FAIL if bad else PASS, bad,
            note=f"{len(hosts_k)} hosts, {checked} self-maps"))

    # Least level: R(x) is a level, contains x, and no earlier level does.
    # Only a handful of distinct levels occur below the cutoff, so the
    # (expensive) level-shape check runs once per level.
    bad = None
    level_shape: "dict[int, bool]" = {}
    for cx, x in enumerate(universe):
        r = x.rank
        lvl = materialize_level(r + 1, ctx.enum_budget)
        if r + 1 not in level_shape:
            level_shape[r + 1] = is_level(lvl)
        ok = mem(x, lvl) and level_shape[r + 1] \
            and all(not mem(x, materialize_level(m, ctx.enum_budget))
                    for m in range(r + 1))
        if not ok:
            bad = {"kind": "least-level", "x_code": cx}
            break
    cases.append(CaseResult(
        "least-level", FAIL if bad else PASS, bad, note=f"all {n} sets"))

    return report


# ---------------------------------------------------------------------------
# induction along adjunction
# ---------------------------------------------------------------------------

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
        f = parse_set(src)

        def phi(z: HFSet) -> bool:
            return eval_set(f, {"x": z}, ctx)

        verdict = PASS
        counterexample = None
        try:
            observed, witness = _opei_branch(phi, ctx, step_cutoff)
        except BudgetExceeded as e:
            report.cases.append(CaseResult(
                f"predicate[{i}]", BUDGET,
                {"kind": "opei-budget", "formula": src, "error": str(e)}))
            continue
        if observed == "conclusion":
            # base and step passed yet a set below the cutoff lacks the
            # property: the induction principle itself would be violated.
            verdict = FAIL
            counterexample = {"kind": "opei", "formula": src,
                              "expected": expected, "observed": observed,
                              "witness": witness}
        elif expected is not None and observed != expected:
            verdict = FAIL
            counterexample = {"kind": "opei", "formula": src,
                              "expected": expected, "observed": observed,
                              "witness": witness}
        note = observed if witness is None \
            else f"{observed} at {witness}"
        report.cases.append(CaseResult(
            f"predicate[{i}]", verdict, counterexample,
            note=f"{note}: {src}"))
    return report


def _opei_branch(phi, ctx: EvalContext,
                 step_cutoff: int) -> "tuple[str, dict | None]":
    if not phi(empty()):
        return "base", None
    holds = {}
    for c in range(step_cutoff):
        holds[c] = phi(decode(c))
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
    bit = translate_a(parse_set("x in y"))
    if mutation is None:
        return bit
    if mutation == "successor":
        mutated = _swap_subterm(
            bit,
            AOp("+", (AVar("x"), ALit(1))),
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
    kids = []
    for kid in children(node):
        kids.append(_swap_subterm(kid, old, new))
    return rebuild(node, kids)


def _bit_closed_form(bit: ArithFormula):
    """A per-pair decision procedure read off the formula's shape, or None
    when the shape is not the canonical one (e.g. after a mutation).

    The equation y = 2^(x+1)*n + 2^x + m with m < 2^x pins n and m to the
    quotient and remainder of y by the powers around bit x, so the two
    existentials can be reconstructed instead of searched.
    """
    if bit_formula_parts(bit) != (AVar("x"), AVar("y")):
        return None

    def closed(cx: int, cy: int) -> bool:
        n = cy >> (cx + 1)
        m = cy & ((1 << cx) - 1)
        return n < cy and cy == (n << (cx + 1)) + (1 << cx) + m

    return closed


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

    bit = membership_bit_formula(mutation)
    set_bit = translate_d(bit)
    top = max(max_code, literal_max_code, honest_max_code,
              literal_honest_max_code)
    sets = [decode(c) for c in range(top)]

    def leg(name: str, pairs, eval_ctx: EvalContext, use_closed: bool):
        closed = _bit_closed_form(bit) if use_closed else None
        bad = None
        verdict = PASS
        count = 0
        try:
            for cx, cy in pairs:
                count += 1
                oracle = mem(sets[cx], sets[cy])
                if closed is not None:
                    got = closed(cx, cy)
                else:
                    got = eval_set(set_bit,
                                   {"x": sets[cx], "y": sets[cy]}, eval_ctx)
                if got != oracle:
                    verdict = FAIL
                    bad = {"kind": "theorem6", "leg": name,
                           "x_code": cx, "y_code": cy,
                           "mem": oracle, "translated": got,
                           "mode": eval_ctx.mode, "solver": eval_ctx.solver,
                           "mutation": mutation}
                    break
        except BudgetExceeded as e:
            verdict = BUDGET
            bad = {"kind": "theorem6-budget", "leg": name, "x_code": cx,
                   "y_code": cy, "error": str(e), "mutation": mutation}
        report.cases.append(CaseResult(
            name, verdict, bad,
            note=f"{count} pairs"
                 + (", reconstructed witnesses" if closed else
                    ", full evaluator")))

    grid = itertools.product(range(max_code), repeat=2)
    leg("fast-exhaustive", grid, ctx, use_closed=True)

    rng = random.Random(seed)
    sample = [(rng.randrange(max_code), rng.randrange(max_code))
              for _ in range(sample_size)]
    leg("fast-sampled", sample, ctx, use_closed=False)

    lit_ctx = ctx.with_mode(LITERAL)
    leg("literal-exhaustive",
        itertools.product(range(literal_max_code), repeat=2),
        lit_ctx, use_closed=False)

    walk_ctx = replace(ctx, solver=False)
    leg("fast-honest-walk",
        itertools.product(range(honest_max_code), repeat=2),
        walk_ctx, use_closed=False)

    lit_walk_ctx = replace(lit_ctx, solver=False)
    leg("literal-honest-walk",
        itertools.product(range(literal_honest_max_code), repeat=2),
        lit_walk_ctx, use_closed=False)

    return report


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def translatable_lines(corpus, maps: str) -> "list[str]":
    """Corpus lines inside the composed map's term fragment.

    The ordinal reading covers only the core arithmetic operations, so
    running it over a corpus with code operations needs this filter.
    """
    m = get_map(maps)
    keep = []
    for src in load_corpus(corpus):
        f = parse_arith(src) if m.source == "arith" else parse_set(src)
        try:
            m(f)
        except LanguageMismatch:
            continue
        keep.append(src)
    return keep


def check_roundtrip(corpus=None, maps: str = "ad",
                    ctx: "EvalContext | None" = None,
                    value_cutoff: int = 256) -> Report:
    """Source-side truth is preserved by translating out and back.

    ``maps`` names the composition right-to-left ("ad" = out through the
    set reading, back through the coding).  The composed map must return
    to its source language.  Assignments are exhaustive below the cutoff.
    """
    ctx = ctx or EvalContext()
    m = get_map(maps)
    if m.source != m.target:
        raise LanguageMismatch(
            f"{maps!r} maps {m.source} to {m.target}; a round trip must "
            "return to its source language")
    if corpus is None:
        corpus = DEFAULT_ARITH_CORPUS if m.source == "arith" \
            else DEFAULT_SET_CORPUS
    arith_side = m.source == "arith"
    evalf = eval_arith if arith_side else eval_set
    report = Report(f"roundtrip-{maps}", _echo(
        ctx, maps=maps, corpus=str(corpus), value_cutoff=value_cutoff))

    for i, src in enumerate(load_corpus(corpus)):
        f = parse_arith(src) if arith_side else parse_set(src)
        g = m(f)
        fv = sorted(free_vars(f))
        verdict = PASS
        bad = None
        count = 0
        try:
            for codes in itertools.product(range(value_cutoff),
                                           repeat=len(fv)):
                count += 1
                if arith_side:
                    env = dict(zip(fv, codes))
                else:
                    env = {v: decode(c) for v, c in zip(fv, codes)}
                lhs = evalf(f, env, ctx)
                rhs = evalf(g, env, ctx)
                if lhs != rhs:
                    verdict = FAIL
                    bad = {"kind": "roundtrip", "maps": maps,
                           "formula": src,
                           "assignment": dict(zip(fv, codes)),
                           "source_value": lhs, "round_trip_value": rhs}
                    break
        except BudgetExceeded as e:
            verdict = BUDGET
            bad = {"kind": "roundtrip-budget", "maps": maps, "formula": src,
                   "assignment": dict(zip(fv, codes)), "error": str(e)}
        except NotAnOrdinal as e:
            verdict = FAIL
            bad = {"kind": "roundtrip-raise", "maps": maps, "formula": src,
                   "assignment": dict(zip(fv, codes)), "error": str(e)}
        report.cases.append(CaseResult(
            f"formula[{i}]", verdict, bad,
            note=f"{count} assignments: {src}"))
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


def check_cardinal_model(ctx: "EvalContext | None" = None) -> Report:
    """Sizes of the cardinal operations match arithmetic, the injection
    fast path matches brute-force search, and translated laws hold."""
    ctx = ctx or EvalContext()
    report = Report("cardinal", _echo(ctx))
    reps = {size: [decode(c) for c in codes]
            for size, codes in _REPRESENTATIVE_CODES.items()}
    all_reps = [x for xs in reps.values() for x in xs]

    def grid_case(name: str, fn) -> None:
        bad = None
        count = 0
        for x in all_reps:
            for y in all_reps:
                count += 1
                if not fn(x, y):
                    bad = {"kind": name, "x_code": encode(x),
                           "y_code": encode(y)}
                    break
            if bad:
                break
        report.cases.append(CaseResult(
            name, FAIL if bad else PASS, bad, note=f"{count} pairs"))

    grid_case("size-of-sum", lambda x, y: cardinal.card(
        cardinal.card_add(x, y, ctx.enum_budget))
        == cardinal.card(x) + cardinal.card(y))
    grid_case("size-of-product", lambda x, y: cardinal.card(
        cardinal.product(x, y, ctx.enum_budget))
        == cardinal.card(x) * cardinal.card(y))
    grid_case("size-of-function-space", lambda x, y: cardinal.card(
        cardinal.card_exp(x, y, ctx.enum_budget))
        == cardinal.card(x) ** cardinal.card(y))
    grid_case("function-count", lambda x, y: cardinal.count_functions(
        x, y, ctx.enum_budget)
        == cardinal.card(x) ** cardinal.card(y))

    def inj_agree(x: HFSet, y: HFSet) -> bool:
        found = cardinal.injection_search(x, y)
        if cardinal.inj_exists(x, y) != (found is not None):
            return False
        if found is not None:
            if len(found) != cardinal.card(x):
                return False
            if len(set(found.values())) != len(found):
                return False
            if not all(mem(a, x) and mem(b, y) for a, b in found.items()):
                return False
        return True

    grid_case("injection-oracle", inj_agree)

    for i, (law, size_cap) in enumerate(CARDINAL_LAWS):
        f = parse_arith(law)
        g = translate_c(f)
        pool = [x for size, xs in reps.items() if size <= size_cap
                for x in xs]
        fv = sorted(free_vars(f))
        bad = None
        verdict = PASS
        count = 0
        try:
            for vals in itertools.product(pool, repeat=len(fv)):
                count += 1
                env = dict(zip(fv, vals))
                if not eval_set(g, env, ctx):
                    verdict = FAIL
                    bad = {"kind": "cardinal-law", "formula": law,
                           "assignment": {v: encode(s)
                                          for v, s in env.items()}}
                    break
        except BudgetExceeded as e:
            verdict = BUDGET
            bad = {"kind": "cardinal-law-budget", "formula": law,
                   "error": str(e)}
        report.cases.append(CaseResult(
            f"law[{i}]", verdict, bad, note=f"{count} assignments: {law}"))

    # A falsehood must come out false: one extra element is never nothing.
    wrong = translate_c(parse_arith("S(0) = 0"))
    got = eval_set(wrong, {}, ctx)
    report.cases.append(CaseResult(
        "successor-not-zero", PASS if not got else FAIL,
        None if not got else {"kind": "cardinal-law", "formula": "S(0) = 0",
                              "assignment": {}},
        note="translated falsehood evaluates false"))
    return report


# ---------------------------------------------------------------------------
# harness self-tests
# ---------------------------------------------------------------------------

def check_selftest(ctx: "EvalContext | None" = None) -> Report:
    """The membership suite must catch deliberately corrupted formulas,
    and its failures must replay; the uncorrupted control must pass."""
    ctx = ctx or EvalContext()
    report = Report("selftest", _echo(ctx))
    small = dict(max_code=48, literal_max_code=12, sample_size=64,
                 honest_max_code=8, literal_honest_max_code=2, seed=7)

    control = check_theorem6(ctx, **small)
    report.cases.append(CaseResult(
        "control", PASS if control.passed else FAIL,
        None if control.passed else
        {"kind": "selftest-control",
         "failures": [c.as_dict() for c in control.failures()]},
        note="uncorrupted run passes"))

    for mutation in ("successor", "bit-formula"):
        mutated = check_theorem6(ctx, mutation=mutation, **small)
        failures = mutated.failures()
        replayed = all(replay(c.counterexample, ctx) for c in failures)
        ok = bool(failures) and replayed
        report.cases.append(CaseResult(
            f"mutation[{mutation}]", PASS if ok else FAIL,
            None if ok else {"kind": "selftest-mutation",
                             "mutation": mutation,
                             "detected": bool(failures),
                             "replayed": replayed},
            note=f"{len(failures)} legs failed and replayed"))
    return report


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def replay(counterexample: "dict | None",
           ctx: "EvalContext | None" = None) -> bool:
    """Re-check a reported counterexample from its serialized form alone;
    True when the failure reproduces."""
    if not counterexample:
        return False
    ctx = ctx or EvalContext()
    kind = counterexample["kind"]

    if kind == "theorem6":
        c = counterexample
        bit = membership_bit_formula(c.get("mutation"))
        set_bit = translate_d(bit)
        env = {"x": decode(c["x_code"]), "y": decode(c["y_code"])}
        eval_ctx = replace(ctx, solver=c["solver"])
        if c["mode"] != eval_ctx.mode:
            eval_ctx = eval_ctx.with_mode(c["mode"])
        got = eval_set(set_bit, env, eval_ctx)
        oracle = mem(env["x"], env["y"])
        return got != oracle

    if kind == "roundtrip":
        c = counterexample
        m = get_map(c["maps"])
        arith_side = m.source == "arith"
        f = parse_arith(c["formula"]) if arith_side \
            else parse_set(c["formula"])
        g = m(f)
        if arith_side:
            env = dict(c["assignment"])
            return eval_arith(f, env, ctx) != eval_arith(g, env, ctx)
        env = {v: decode(code) for v, code in c["assignment"].items()}
        return eval_set(f, env, ctx) != eval_set(g, env, ctx)

    if kind == "opei":
        c = counterexample
        f = parse_set(c["formula"])
        w = c.get("witness") or {}
        if c["observed"] == "base":
            return not eval_set(f, {"x": empty()}, ctx)
        if c["observed"] == "step":
            x = decode(w["x_code"])
            z = decode(w["z_code"])
            return eval_set(f, {"x": x}, ctx) \
                and not eval_set(f, {"x": adjoin(x, z)}, ctx)
        if c["observed"] == "conclusion":
            return not eval_set(f, {"x": decode(w["code"])}, ctx)
        return False

    if kind == "cardinal-law":
        c = counterexample
        g = translate_c(parse_arith(c["formula"]))
        env = {v: decode(code) for v, code in c["assignment"].items()}
        return not eval_set(g, env, ctx)

    if kind == "extensionality":
        x = decode(counterexample["x_code"])
        y = decode(counterexample["y_code"])
        return x != y \
            and all(mem(u, y) for u in x.children) \
            and all(mem(u, x) for u in y.children)

    if kind == "separation":
        c = counterexample
        f = parse_set(c["formula"])
        y = decode(c["host_code"])
        p = decode(c["param_code"])

        def pred(member: HFSet) -> bool:
            return eval_set(f, {"v": member, "p": p}, ctx)

        w = separate(y, pred)
        u = decode(c["member_code"])
        return mem(u, w) != pred(u)

    if kind == "finiteness":
        c = counterexample
        x = decode(c["host_code"])
        images = [decode(code) for code in c["images"]]
        one_one = len(set(images)) == len(images)
        onto = set(images) == set(x.children)
        return one_one and not onto

    raise ValueError(f"cannot replay counterexample of kind {kind!r}")


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

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
    if name == "axioms":
        return [check_axioms(ctx, corpus or DEFAULT_SEPARATION_CORPUS)]
    if name == "opei":
        return [check_opei(corpus or DEFAULT_OPEI_CORPUS, ctx)]
    if name == "theorem6":
        return [check_theorem6(ctx, max_code=max_code)]
    if name == "roundtrip-ad":
        return [check_roundtrip(corpus, "ad", ctx)]
    if name == "roundtrip-da":
        return [check_roundtrip(corpus, "da", ctx)]
    if name == "cardinal":
        return [check_cardinal_model(ctx)]
    if name == "selftest":
        return [check_selftest(ctx)]
    if name == "all":
        out = []
        for sub in ("axioms", "opei", "theorem6", "roundtrip-ad",
                    "roundtrip-da", "cardinal", "selftest"):
            out.extend(run_suite(sub, ctx, max_code=max_code))
        return out
    raise ValueError(f"unknown suite {name!r}")
