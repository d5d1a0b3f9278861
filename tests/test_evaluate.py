"""Evaluation of both languages, and the numeric/set dual route.

Every code operation has two runnable semantic routes: the numeric one
(bit fiddling on codes, used when evaluating arithmetic formulas) and
the set one (actually building the set and encoding it).  The grid
tests here pin them against each other operation by operation; the
random cross-language tests live with the translations.
"""

import gc
import itertools
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfinterp import cardinal, evaluate
from hfinterp.arith import FAST, LITERAL
from hfinterp.core import (
    decode,
    encode,
    materialize_level,
    ord_add,
    ord_exp,
    ord_mul,
    powerset,
    separate,
    sumset,
    vn_ordinal,
)
from hfinterp.errors import BudgetExceeded, NotAnOrdinal
from hfinterp.evaluate import (
    EvalContext,
    eval_arith,
    eval_arith_term,
    eval_set,
    eval_set_term,
)
from hfinterp.formulas import (
    AExists,
    AForall,
    ALit,
    AOp,
    ARel,
    ASep,
    AVar,
    BOUND_ORDER,
    SEmpty,
    SExists,
    SForall,
    SLit,
    SOp,
    SRel,
    SVar,
    children,
    free_vars,
)
from hfinterp.interp import translate_d
from hfinterp.parser import (
    parse_arith,
    parse_arith_term,
    parse_set,
    parse_set_term,
)
from hfinterp.verify import load_annotated_corpus, membership_bit_formula

CTX = EvalContext()


def _arith_value(src, env=None, ctx=CTX):
    return eval_arith_term(parse_arith_term(src), dict(env or {}), ctx)


def _set_value(src, env=None, ctx=CTX):
    return eval_set_term(parse_set_term(src), dict(env or {}), ctx)


# ---------------------------------------------------------------------------
# the dual route, by operation
# ---------------------------------------------------------------------------

def test_power_set_code_matches_construction():
    for n in range(32):
        want = encode(powerset(decode(n)))
        assert _arith_value("pow(x)", {"x": n}) == want


def test_union_code_matches_construction():
    for n in range(256):
        assert _arith_value("sumc(x)", {"x": n}) == encode(sumset(decode(n)))


def test_pair_code_matches_construction():
    for a in range(12):
        for b in range(12):
            got = _arith_value("pairc(x, y)", {"x": a, "y": b})
            assert got == (1 << a) | (1 << b)
            assert got == encode(_set_value("pair(x, y)", {
                "x": decode(a), "y": decode(b)}))


def test_rank_code_matches_level():
    for n in range(40):
        want = encode(materialize_level(decode(n).rank + 1))
        assert _arith_value("rankc(x)", {"x": n}) == want


def test_cardinality_code_is_popcount():
    for n in range(300):
        assert _arith_value("cardc(x)", {"x": n}) == bin(n).count("1")
        assert _arith_value("cardc(x)", {"x": n}) == \
            cardinal.card(decode(n))


def test_vn_successor_code_matches_adjoin():
    for n in range(18):
        got = _arith_value("vnsc(x)", {"x": n})
        assert got == encode(_set_value("vns(x)", {"x": decode(n)}))
        assert got == n | (1 << n)


def test_ordinal_op_codes_match_ordinal_arithmetic():
    codes = {k: encode(vn_ordinal(k), None) for k in range(5)}
    for i in range(4):
        for j in range(4):
            for op, fn in (("ordaddc", lambda a, b: a + b),
                           ("ordmulc", lambda a, b: a * b),
                           ("ordexpc", lambda a, b: a ** b)):
                k = fn(i, j)
                if k >= 5:
                    continue
                got = _arith_value(f"{op}(x, y)",
                                   {"x": codes[i], "y": codes[j]})
                assert got == codes[k], (op, i, j)
    with pytest.raises(NotAnOrdinal):
        _arith_value("ordaddc(x, y)", {"x": 2, "y": 1})


def test_cardinal_op_codes_match_construction():
    for a in range(14):
        for b in range(14):
            env = {"x": a, "y": b}
            set_env = {"x": decode(a), "y": decode(b)}
            assert _arith_value("caddc(x, y)", env) == \
                encode(_set_value("x +c y", set_env))
            assert _arith_value("cmulc(x, y)", env) == \
                encode(_set_value("x *c y", set_env))
    hits = 0
    for a in range(8):
        for b in range(8):
            try:
                got = _arith_value("cexpc(x, y)", {"x": a, "y": b})
            except BudgetExceeded:
                # the function space grows doubly fast; the set route
                # must refuse it too
                with pytest.raises(BudgetExceeded):
                    encode(_set_value("expc(x, y)",
                                      {"x": decode(a), "y": decode(b)}),
                           CTX.code_budget)
                continue
            assert got == encode(_set_value("expc(x, y)", {
                "x": decode(a), "y": decode(b)}))
            hits += 1
    assert hits >= 20


def test_order_arithmetic_routes_agree_under_eval():
    lit = CTX.with_mode(LITERAL)
    for a in range(8):
        for b in range(8):
            env = {"x": decode(a), "y": decode(b)}
            for src in ("x +a y", "x *a y"):
                assert _set_value(src, env) is _set_value(src, env, lit), \
                    (src, a, b)
    for a in range(4):
        for b in range(4):
            env = {"x": decode(a), "y": decode(b)}
            assert _set_value("expa(x, y)", env) is \
                _set_value("expa(x, y)", env, lit)


# ---------------------------------------------------------------------------
# arithmetic evaluation
# ---------------------------------------------------------------------------

def test_arith_basics():
    assert _arith_value("S(S(0)) * (1 + 2) + exp(2, 5)") == 38
    assert eval_arith(parse_arith("exists x < 10. x * x = 49"), {}, CTX)
    assert not eval_arith(parse_arith("exists x < 7. x * x = 49"), {}, CTX)
    assert eval_arith(parse_arith("forall x < 9. x < 9"), {}, CTX)
    assert eval_arith(parse_arith("0 = 1 -> 2 < 1"), {}, CTX)
    assert eval_arith(parse_arith("!(3 < 2) & (2 < 3 | 1 = 0)"), {}, CTX)


def test_arith_relations_dom_and_ordinal_code():
    assert eval_arith(parse_arith("Dom(x + y)"), {"x": 2, "y": 9}, CTX)
    f = ARel("OrdCode", (AVar("x"),))
    hits = [n for n in range(4096) if eval_arith(f, {"x": n}, CTX)]
    assert hits == [0, 1, 3, 11, 2059]


def test_unbounded_arith_quantifier_truncates_at_cutoff():
    small = EvalContext(nat_cutoff=10)
    f = parse_arith("exists x. x = 12")
    assert not eval_arith(f, {}, small)
    assert eval_arith(f, {}, EvalContext(nat_cutoff=13))


def test_bounded_quantifier_past_enum_budget_raises():
    tight = EvalContext(enum_budget=1000)
    # quadratic in x, so the solver declines and enumeration is the only
    # route left
    with pytest.raises(BudgetExceeded):
        eval_arith(parse_arith("exists x < 2000. x * x = 4"), {}, tight)
    # ... while a solvable chain never needs the enumeration at all
    assert eval_arith(parse_arith("exists x < 2000. x = 1999"), {}, tight)


def test_exp_past_bit_budget_raises():
    with pytest.raises(BudgetExceeded):
        _arith_value("exp(2, exp(2, 30))")


def test_separation_term_selects_bits():
    # the even positions of a code
    t = ASep("u", AVar("x"),
             AExists("v", AVar("x"),
                     ARel("=", (AOp("+", (AVar("v"), AVar("v"))),
                                AVar("u")))))
    got = eval_arith_term(t, {"x": 0b11111111}, CTX)
    assert got == 0b01010101
    # cross-check against honest set separation
    want = separate(decode(0b11111111),
                    lambda m: encode(m) % 2 == 0)
    assert got == encode(want)


def test_unbound_variable_raises():
    with pytest.raises(ValueError):
        _arith_value("x + 1")
    with pytest.raises(ValueError):
        _set_value("vns(q)")


# ---------------------------------------------------------------------------
# the chain solver is invisible
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 70), st.integers(0, 3),
       st.integers(2, 9))
def test_solver_agrees_with_enumeration(s, t, pad, base):
    """Random two-variable positional equations: the solved answer always
    equals the honestly enumerated one."""
    f = AExists(
        "n", ALit(t + 1),
        AExists("m", ALit(base),
                ARel("=", (ALit(t),
                           AOp("+", (AOp("+", (AOp("*", (ALit(base * (pad + 2)),
                                                         AVar("n"))),
                                               ALit(s))),
                                     AVar("m")))))))
    on = eval_arith(f, {}, CTX)
    off = eval_arith(f, {}, EvalContext(solver=False))
    assert on == off


def test_solver_handles_shadowed_outer_bindings():
    f = parse_arith("exists n < 6. exists m < 2. 5 = 2 * n + 1 + m")
    for junk in ({}, {"n": 99, "m": 41}):
        assert eval_arith(f, dict(junk), CTX)
        assert eval_arith(f, dict(junk), EvalContext(solver=False))


def test_solver_declines_non_positional_systems():
    # coefficients 3 and 2 with ranges that overlap: 3a + 2b hits 6 twice;
    # both routes must still agree on satisfiability
    f = parse_arith("exists a < 4. exists b < 4. 3 * a + 2 * b = x")
    for x in range(18):
        on = eval_arith(f, {"x": x}, CTX)
        off = eval_arith(f, {"x": x}, EvalContext(solver=False))
        assert on == off, x


# ---------------------------------------------------------------------------
# set evaluation
# ---------------------------------------------------------------------------

def test_set_literals_follow_the_enumeration():
    for n in range(64):
        assert _set_value(f"#{n}") is decode(n)
    assert _set_value("0e") is decode(0)
    assert _set_value("{0e, {0e}}") is decode(3)


def test_set_basics():
    env = {"x": decode(5), "y": decode(7)}
    assert eval_set(parse_set("forall u in x. u in y"), env, CTX)
    assert eval_set(parse_set("x <c y"), env, CTX)
    assert not eval_set(parse_set("y <c x"), env, CTX)
    assert eval_set(parse_set("U({x, y}) = y"), env, CTX)
    assert eval_set(parse_set("exists u in y. vns(u) in y"), env, CTX)


def test_member_bounded_quantifier_visits_children_only():
    seen = []
    host = decode(0b10110)

    class Probe(SRel):
        pass

    f = parse_set("forall u in x. u = u")
    assert eval_set(f, {"x": host}, CTX)
    # a False body shows every child was really visited
    g = parse_set("forall u in x. u in 0e")
    assert not eval_set(g, {"x": host}, CTX)


def test_order_bounded_quantifier_walks_the_segment():
    f = parse_set("exists u <a x. P(u) = x")
    assert eval_set(f, {"x": decode(3)}, CTX)   # P({0e}) = {0e, {0e}}
    assert eval_set(f, {"x": decode(5)}, CTX)   # P({{0e}}) = {0e, {{0e}}}
    # a set without 0e as a member is nobody's power set
    assert not eval_set(f, {"x": decode(6)}, CTX)
    g = parse_set("forall u <a #6. u <a #6")
    assert eval_set(g, {}, CTX)


def test_separation_set_term():
    got = _set_value("sep(u in x, u in y)",
                     {"x": decode(0b1111), "y": decode(0b1010)})
    assert got is decode(0b1010)


def test_graph_atoms_without_quantifiers():
    env = {"x": vn_ordinal(2), "y": vn_ordinal(3), "z": vn_ordinal(5)}
    assert eval_set(parse_set("ordadd(x, y, z)"), env, CTX)
    assert not eval_set(parse_set("ordmul(x, y, z)"), env, CTX)
    assert eval_set(parse_set("ordmul(x, y, z)"),
                    {**env, "z": vn_ordinal(6)}, CTX)
    assert eval_set(parse_set("ordexp(x, y, z)"),
                    {**env, "z": vn_ordinal(8)}, CTX)
    # non-ordinal arguments make the graph empty, not an error
    assert not eval_set(parse_set("ordadd(x, y, z)"),
                        {**env, "x": decode(2)}, CTX)


def test_pinned_witness_is_still_checked_against_the_body():
    # the only candidate for t is x + y = 5; the body then rejects it
    f = parse_set("exists t. ordadd(x, y, t) & t = 0e")
    env = {"x": vn_ordinal(2), "y": vn_ordinal(3)}
    assert not eval_set(f, env, CTX)
    g = parse_set("exists t. ordadd(x, y, t) & isord(t)")
    assert eval_set(g, env, CTX)


def test_witness_extraction_reaches_tower_sized_ordinals():
    # ordinal 7 has a code of astronomically many bits; enumeration can
    # never find it, the graph read-off must
    f = parse_set("exists t. ordadd(x, y, t) & ordadd(y, x, t)")
    env = {"x": vn_ordinal(3), "y": vn_ordinal(4)}
    assert eval_set(f, env, CTX)


def test_unbounded_set_quantifier_truncates_at_cutoff():
    small = EvalContext(set_cutoff=4)
    f = parse_set("exists u. u = x")
    assert eval_set(f, {"x": decode(3)}, small)
    assert not eval_set(f, {"x": decode(9)}, small)


def test_set_quantifier_segment_budget():
    tight = EvalContext(enum_budget=100)
    f = parse_set("forall u <a x. u = u")
    with pytest.raises(BudgetExceeded):
        eval_set(f, {"x": decode(5000)}, tight)


def test_isord_and_cardinality_relations():
    assert eval_set(parse_set("isord(x)"), {"x": vn_ordinal(3)}, CTX)
    assert not eval_set(parse_set("isord(x)"), {"x": decode(5)}, CTX)
    env = {"x": decode(0b111), "y": decode(0b11100)}
    assert eval_set(parse_set("x ~c y"), env, CTX)
    assert eval_set(parse_set("x <=c y"), env, CTX)
    assert not eval_set(parse_set("x <c y"), env, CTX)


def test_cardof_picks_the_canonical_representative():
    # cardof lands on the n-th set of the enumeration, whose position
    # equals the cardinality
    for n in range(6):
        got = _set_value("cardof(x)", {"x": decode(2 ** n - 1)})
        assert got is decode(n)


def test_order_chain_solver_matches_honest_walk():
    """Order-bounded existential chains are decided through the coding;
    the honest walk (solver off) must agree wherever it is feasible."""
    off = EvalContext(solver=False)
    f = parse_set("exists u <a x. exists v <a #4. x = u +a v")
    for n in range(12):
        env = {"x": decode(n)}
        assert eval_set(f, dict(env), CTX) == eval_set(f, dict(env), off), n
    g = parse_set("exists u <a #16. x = u *a #2")
    for n in range(14):
        env = {"x": decode(n)}
        assert eval_set(g, dict(env), CTX) == eval_set(g, dict(env), off), n


def test_order_chain_solver_reaches_infeasible_walks():
    # the inner range spans 2^40 sets; only the transported route can
    # decide it, and it still verifies its witness with real set ops
    f = parse_set("exists m <a expa(#2, #40). x = m +a expa(#2, #40)")
    env = {"x": decode((1 << 40) + 7)}
    assert eval_set(f, env, CTX)
    env = {"x": decode(7)}
    assert not eval_set(f, env, CTX)


def test_order_chain_literal_mode_verifies_with_literal_ops():
    lit = CTX.with_mode(LITERAL)
    f = parse_set("exists u <a #10. exists v <a #6. x = u *a #6 +a v")
    for n in range(40):
        want = eval_set(f, {"x": decode(n)}, CTX)
        assert eval_set(f, {"x": decode(n)}, lit) == want, n
    # a witness too large for the literal route propagates the refusal
    g = parse_set("exists m <a expa(#2, #40). x = m +a expa(#2, #40)")
    with pytest.raises(BudgetExceeded):
        eval_set(g, {"x": decode((1 << 40) + 7)}, lit)


def test_mode_switch_is_visible_on_context():
    lit = CTX.with_mode(LITERAL)
    assert lit.mode == LITERAL and CTX.mode == "fast"
    big = decode(100)
    with pytest.raises(BudgetExceeded):
        eval_set_term(parse_set_term("x +a x"), {"x": big},
                      lit)  # the literal route refuses codes past its cutoff


# ---------------------------------------------------------------------------
# quantifiers take one frame per level
# ---------------------------------------------------------------------------

def _nested(quant, bound, matrix, **kind):
    """800 nested quantifiers over v799 ... v0, each with the same bound
    and one value below it, around a matrix that reads v0."""
    f = matrix
    for i in range(800):
        f = quant(f"v{i}", bound, f, **kind)
    return f


@pytest.mark.parametrize("build, evaluate", [
    (lambda: _nested(AForall, ALit(1), ARel("=", (AVar("v0"), ALit(0)))),
     eval_arith),
    (lambda: _nested(AExists, ALit(1), ARel("=", (AVar("v0"), ALit(0)))),
     eval_arith),
    (lambda: _nested(SForall, SLit(1), SRel("=", (SVar("v0"), SEmpty()))),
     eval_set),
    (lambda: _nested(SExists, SLit(1), SRel("=", (SVar("v0"), SEmpty())),
                     bound_kind=BOUND_ORDER), eval_set),
], ids=["arith-forall", "arith-exists", "set-forall-member",
        "set-exists-order"])
@pytest.mark.parametrize("solver", [True, False], ids=["solver", "walk"])
def test_nested_quantifiers_stay_inside_the_recursion_limit(
        build, evaluate, solver):
    # under the default limit of 1000 frames: compiling, the deciders'
    # plans and the walk each take one frame per quantifier
    assert evaluate(build(), {}, EvalContext(solver=solver)) is True


# ---------------------------------------------------------------------------
# loop-invariant terms: a memo each, exact under every context
# ---------------------------------------------------------------------------

def _memoized(node) -> bool:
    """Whether the compiled closure stored on node is a loop-invariant
    memo."""
    fn = vars(node).get("_compiled")
    return fn is not None and fn.__qualname__.startswith("_memo.")


def _nodes(f) -> list:
    out, todo = [], [f]
    while todo:
        node = todo.pop()
        out.append(node)
        todo.extend(children(node))
    return out


def test_only_maximal_invariant_costly_terms_get_a_memo():
    # exists n <a y. exists m <a expa(#2, x).
    #     y = expa(#2, x +a #1) *a n +a expa(#2, x) +a m
    f = translate_d(membership_bit_formula())
    assert eval_set(f, {"x": decode(1), "y": decode(2)},
                    EvalContext(solver=False))
    inner = f.body
    rhs = inner.body.args[1]
    near = rhs.args[0]  # expa(#2, x +a #1) *a n +a expa(#2, x): not m
    want = {id(inner.bound), id(near), id(near.args[0].args[0]),
            id(near.args[1])}  # and the two expa(...) terms: not n either
    assert {id(t) for t in _nodes(f) if _memoized(t)} == want
    # its source: + and * are cheap, so only the three exp terms
    g = membership_bit_formula()
    assert eval_arith(g, {"x": 1, "y": 2}, EvalContext(solver=False))
    near = g.body.body.args[1].args[0]
    want = {id(g.body.bound), id(near.args[0].args[0]), id(near.args[1])}
    assert {id(t) for t in _nodes(g) if _memoized(t)} == want


@pytest.mark.parametrize("evaluate, text, env", [
    (eval_arith, "forall i < 0. cexpc(x, x) = 0", {"x": 3}),
    (eval_arith, "forall i < 2. i = 9 -> cexpc(x, x) = 0", {"x": 3}),
    (eval_set, "forall u in 0e. expc(x, x) = 0e", {"x": decode(3)}),
    (eval_set, "forall u in y. u = #9 -> expc(x, x) = 0e",
     {"x": decode(3), "y": decode(7)}),
], ids=["arith-empty", "arith-guard", "set-empty", "set-guard"])
def test_memoized_term_is_evaluated_only_when_the_walk_reaches_it(
        evaluate, text, env):
    tight = EvalContext(enum_budget=2)  # 2^2 functions from #3 to #3
    parse, term = (parse_arith, eval_arith_term) if evaluate is eval_arith \
        else (parse_set, eval_set_term)
    f = parse(text)
    for ctx in (tight, tight.with_mode(LITERAL),
                replace(tight, solver=False)):
        assert evaluate(f, env, ctx)
    costly = [t for t in _nodes(f) if _memoized(t)]
    assert len(costly) == 1
    with pytest.raises(BudgetExceeded):
        term(costly[0], env, tight)


@pytest.mark.parametrize("evaluate, text, env", [
    (eval_arith, "forall i < 2. cexpc(x, x) = cexpc(x, x)", {"x": 3}),
    (eval_set, "forall u in y. expc(x, x) = expc(x, x)",
     {"x": decode(3), "y": decode(1)}),
], ids=["arith", "set"])
def test_memo_never_answers_for_a_tighter_budget(evaluate, text, env):
    f = parse_arith(text) if evaluate is eval_arith else parse_set(text)
    roomy, tight = EvalContext(enum_budget=4096), EvalContext(enum_budget=2)
    assert evaluate(f, env, roomy)
    with pytest.raises(BudgetExceeded):
        evaluate(f, env, tight)
    assert evaluate(f, env, roomy)


def test_memo_never_answers_literal_mode_with_a_fast_value(monkeypatch):
    calls = []
    real = cardinal.card_exp
    monkeypatch.setattr(cardinal, "card_exp",
                        lambda *a: calls.append(a) or real(*a))
    f = parse_set("forall u in y. expa(x, #2) = expa(#3, #2)")
    env = {"x": decode(3), "y": decode(1)}
    literal = EvalContext(mode=LITERAL)
    assert eval_set(f, env, CTX) and not calls
    assert eval_set(f, env, literal)
    assert len(calls) == 2  # one per expa term
    assert eval_set(f, env, literal) and len(calls) == 2  # the same context
    assert eval_set(f, env, EvalContext(mode=LITERAL))  # an equal one
    assert len(calls) == 4


@pytest.mark.parametrize("evaluate, text", [
    (eval_arith, "forall i < 3. exp(2, x) = i"),
    (eval_set, "forall u in #3. U(x) = u"),
], ids=["arith", "set"])
def test_memoized_term_with_an_unbound_variable_raises_value_error(
        evaluate, text):
    f = parse_arith(text) if evaluate is eval_arith else parse_set(text)
    for _ in range(2):
        with pytest.raises(ValueError, match="unbound variable 'x'"):
            evaluate(f, {}, CTX)
    assert any(_memoized(t) for t in _nodes(f))


def test_literal_walk_builds_each_invariant_exponential_once(monkeypatch):
    """The honest literal walk of the membership formula builds the two
    `expa` segments once per evaluation, not once per (n, m)."""
    calls = []
    real = cardinal.card_exp
    monkeypatch.setattr(cardinal, "card_exp",
                        lambda *a: calls.append(a) or real(*a))
    ctx = EvalContext(mode=LITERAL, solver=False)
    for cx, cy in itertools.product(range(4), repeat=2):
        f = translate_d(membership_bit_formula())  # no memo filled yet
        del calls[:]
        got = eval_set(f, {"x": decode(cx), "y": decode(cy)}, ctx)
        assert got == bool(cy >> cx & 1)
        assert len(calls) <= 3, (cx, cy, len(calls))


# ---------------------------------------------------------------------------
# bounded memory: compiled forms live on their trees, not in the module
# ---------------------------------------------------------------------------

#: the four routes, with small cutoffs and budgets so every line is quick
ROUTES = tuple(EvalContext(nat_cutoff=8, set_cutoff=8, enum_budget=1 << 12,
                           mode=mode, solver=solver)
               for mode in (FAST, LITERAL) for solver in (True, False))


def _evaluate_everywhere(evaluate, f, env):
    for ctx in ROUTES:
        try:
            evaluate(f, env, ctx)
        except BudgetExceeded:
            pass


@pytest.mark.parametrize("build, evaluate, env", [
    # a linear chain: the solver plans it on first use
    (lambda: parse_arith("exists y < 40. exists z < 4. y = 4 * z + x"),
     eval_arith, {"x": 3}),
    # the membership read back into sets: order transport, order chains
    # and the honest walk all run on it
    (lambda: translate_d(membership_bit_formula()), eval_set,
     {"x": decode(2), "y": decode(5)}),
    # loop-invariant terms behind memos that hold values and a context
    (lambda: parse_set("forall u in y. u in P(x) | "
                       "expc(x, x) = sep(v in P(x), u in v)"), eval_set,
     {"x": decode(3), "y": decode(5)}),
], ids=["arith", "membership", "memo"])
def test_evaluated_formula_is_freed_with_its_tree(build, evaluate, env):
    f = build()
    _evaluate_everywhere(evaluate, f, env)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def _module_containers() -> dict:
    return {name: len(value) for name, value in vars(evaluate).items()
            if isinstance(value, (dict, set, list))
            and not name.startswith("__")}


def test_evaluating_the_corpora_grows_no_module_container():
    before = _module_containers()
    assert before  # the operation tables, at least
    for corpus in ("arith.txt", "set.txt", "opei.txt", "separation.txt"):
        for _, text in load_annotated_corpus(corpus):
            if corpus == "arith.txt":
                f, evaluate = parse_arith(text), eval_arith
                env = {v: 5 for v in free_vars(f)}
            else:
                f, evaluate = parse_set(text), eval_set
                env = {v: decode(5) for v in free_vars(f)}
            _evaluate_everywhere(evaluate, f, env)
    assert _module_containers() == before

