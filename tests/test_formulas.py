"""Syntax layer: ASTs, printing, parsing, substitution."""

import random

import pytest

from hfinterp.errors import FormulaSyntaxError
from hfinterp.formulas import (
    ARITH_OPS,
    ARITH_RELS,
    FUNC,
    INFIX,
    SET_OPS,
    SET_RELS,
    ALit,
    AAnd,
    AExists,
    AForall,
    AImplies,
    ANot,
    AOp,
    AOr,
    ARel,
    ASep,
    AVar,
    BOUND_MEMBER,
    BOUND_ORDER,
    SEnum,
    SEmpty,
    SExists,
    SForall,
    SLit,
    SOp,
    SRel,
    SSep,
    SVar,
    free_vars,
    is_bounded,
    show_arith,
    show_arith_term,
    show_set,
    show_set_term,
    substitute,
)
from hfinterp.parser import (
    parse_arith,
    parse_arith_term,
    parse_set,
    parse_set_term,
)

# ---------------------------------------------------------------------------
# random formula generators (seeded; shared with the evaluator tests)
# ---------------------------------------------------------------------------

_VARS = ("x", "y", "z", "w")


def random_arith_term(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(
            [AVar(rng.choice(_VARS)), ALit(rng.randrange(6))])
    op = rng.choice(["S", "+", "*", "exp", "pow", "sumc", "pairc", "cardc",
                     "vnsc"])
    args = tuple(random_arith_term(rng, depth - 1)
                 for _ in range(2 if op in ("+", "*", "exp", "pairc") else 1))
    return AOp(op, args)


def random_arith(rng, depth):
    if depth <= 0:
        op = rng.choice(["=", "<"])
        return ARel(op, (random_arith_term(rng, 1),
                         random_arith_term(rng, 1)))
    kind = rng.randrange(6)
    if kind == 0:
        return ANot(random_arith(rng, depth - 1))
    if kind in (1, 2):
        node = rng.choice([AAnd, AOr, AImplies])
        return node(random_arith(rng, depth - 1),
                    random_arith(rng, depth - 1))
    if kind == 3:
        node = rng.choice([AForall, AExists])
        bound = random_arith_term(rng, 1) if rng.random() < 0.8 else None
        return node(rng.choice(_VARS), bound, random_arith(rng, depth - 1))
    return ARel(rng.choice(["=", "<"]),
                (random_arith_term(rng, depth),
                 random_arith_term(rng, depth)))


def random_set_term(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(
            [SVar(rng.choice(_VARS)), SEmpty(), SLit(rng.randrange(6))])
    kind = rng.randrange(8)
    if kind == 0:
        return SEnum(tuple(random_set_term(rng, depth - 1)
                           for _ in range(rng.randrange(3))))
    op = rng.choice(["pair", "pset", "sum", "rank", "vns", "osucc", "oadd",
                     "omul", "oexp", "cadd", "cmul", "cexp"])
    from hfinterp.formulas import SET_OPS
    args = tuple(random_set_term(rng, depth - 1)
                 for _ in range(SET_OPS[op]))
    return SOp(op, args)


def random_set(rng, depth):
    if depth <= 0:
        op = rng.choice(["in", "=", "<a", "~c", "<c"])
        return SRel(op, (random_set_term(rng, 1), random_set_term(rng, 1)))
    kind = rng.randrange(6)
    if kind == 0:
        from hfinterp.formulas import SNot
        return SNot(random_set(rng, depth - 1))
    if kind in (1, 2):
        from hfinterp.formulas import SAnd, SImplies, SOr
        node = rng.choice([SAnd, SOr, SImplies])
        return node(random_set(rng, depth - 1), random_set(rng, depth - 1))
    if kind == 3:
        node = rng.choice([SForall, SExists])
        bound = random_set_term(rng, 1) if rng.random() < 0.8 else None
        bk = rng.choice([BOUND_MEMBER, BOUND_ORDER])
        return node(rng.choice(_VARS), bound, random_set(rng, depth - 1), bk)
    if kind == 4:
        op = rng.choice(["isord", "Dom"])
        return SRel(op, (random_set_term(rng, depth),))
    return SRel(rng.choice(["in", "=", "<a", "~c", "<c", "<=c"]),
                (random_set_term(rng, depth), random_set_term(rng, depth)))


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_arith_print_parse_round_trip_generated():
    rng = random.Random(7)
    for _ in range(120):
        f = random_arith(rng, 3)
        assert parse_arith(show_arith(f)) == f


def test_set_print_parse_round_trip_generated():
    rng = random.Random(8)
    for _ in range(120):
        f = random_set(rng, 3)
        assert parse_set(show_set(f)) == f


def test_term_round_trips_generated():
    rng = random.Random(9)
    for _ in range(80):
        t = random_arith_term(rng, 3)
        assert parse_arith_term(show_arith_term(t)) == t
        s = random_set_term(rng, 3)
        assert parse_set_term(show_set_term(s)) == s


def test_precedence_and_associativity():
    f = parse_arith("x = 0 & y = 0 | z = 0 -> w = 0")
    assert isinstance(f, AImplies)
    assert isinstance(f.left, AOr)
    assert isinstance(f.left.left, AAnd)
    # -> associates right
    g = parse_arith("x = 0 -> y = 0 -> z = 0")
    assert isinstance(g.right, AImplies)
    # * over +
    t = parse_arith_term("x + y * z")
    assert t == AOp("+", (AVar("x"), AOp("*", (AVar("y"), AVar("z")))))
    t2 = parse_arith_term("(x + y) * z")
    assert t2.op == "*"


def test_quantifier_body_extends_right():
    f = parse_arith("forall x < 3. x = 0 | x < 3")
    assert isinstance(f, AForall)
    assert isinstance(f.body, AOr)


def test_parenthesized_formula_versus_term():
    f = parse_arith("(x + y) * z = w")
    assert isinstance(f, ARel) and f.op == "="
    g = parse_arith("(x = y) -> z = w")
    assert isinstance(g, AImplies)
    h = parse_set("(x +a y) in z")
    assert isinstance(h, SRel) and h.op == "in"


def test_set_surface_syntax():
    f = parse_set("forall v in P(x). v <=c x")
    assert f == SForall("v", SOp("pset", (SVar("x"),)),
                        SRel("<=c", (SVar("v"), SVar("x"))), BOUND_MEMBER)
    g = parse_set("exists v <a #12. v ~c {0e, {0e}}")
    assert g.bound_kind == BOUND_ORDER
    assert g.bound == SLit(12)
    assert g.body.args[1] == SEnum((SEmpty(), SEnum((SEmpty(),))))


def test_separation_terms_bind():
    t = parse_set_term("sep(v in x, v in y)")
    assert isinstance(t, SSep)
    assert free_vars(t) == {"x", "y"}
    u = parse_arith_term("sepc(i < x, i < y)")
    assert isinstance(u, ASep)
    assert free_vars(u) == {"x", "y"}


def test_free_vars():
    f = parse_arith("forall x < y. x + z = w")
    assert free_vars(f) == {"y", "z", "w"}
    g = parse_set("exists u in x. u in y & forall x in u. x = 0e")
    assert free_vars(g) == {"x", "y"}


def test_substitute_plain():
    f = parse_arith("x + y = z")
    g = substitute(f, {"x": parse_arith_term("S(0)")})
    assert g == parse_arith("S(0) + y = z")


def test_substitute_avoids_capture():
    f = parse_arith("exists y. y = x")
    g = substitute(f, {"x": AVar("y")})
    assert isinstance(g, AExists)
    assert g.var != "y"
    assert g.body == ARel("=", (AVar(g.var), AVar("y")))
    # bound occurrences are left alone
    h = substitute(f, {"y": ALit(0)})
    assert h == f


def test_substitute_set_side_capture():
    f = parse_set("forall v in x. v in w")
    g = substitute(f, {"x": parse_set_term("P(v)")})
    assert g.bound == parse_set_term("P(v)")
    assert g.var != "v"


def test_is_bounded():
    assert is_bounded(parse_arith("forall x < 10. x < 11"))
    assert not is_bounded(parse_arith("forall x. x < 11"))
    assert is_bounded(parse_set("forall v in x. exists u <a v. u in v"))
    assert not is_bounded(parse_set("exists v. v = x"))
    assert is_bounded(parse_set_term("sep(v in x, v in y)"))


# ---------------------------------------------------------------------------
# every symbol of both languages, generated from the symbol tables
# ---------------------------------------------------------------------------

#: per language: operation, relation and variable nodes, the operation and
#: relation arities, and the (parser, printer) pairs of terms and formulas
LANGUAGES = (
    (AOp, ARel, AVar, ARITH_OPS, ARITH_RELS,
     (parse_arith_term, show_arith_term), (parse_arith, show_arith)),
    (SOp, SRel, SVar, SET_OPS, SET_RELS,
     (parse_set_term, show_set_term), (parse_set, show_set)),
)


def _args(var, n):
    return tuple(var(f"x{i}") for i in range(n))


def _symbol_cases():
    """((parser, printer), node) for every operation with variable
    arguments and nested in its first and its last argument, and every
    relation with variable arguments and with an infix term first and
    last."""
    for op, rel, var, ops, rels, terms, formulas in LANGUAGES:
        for name, arity in ops.items():
            flat = op(name, _args(var, arity))
            yield terms, flat
            yield terms, op(name, (flat,) + flat.args[1:])
            yield terms, op(name, flat.args[:-1] + (flat,))
        infix = op(next(o for o in ops if o in INFIX), _args(var, 2))
        for name, arity in rels.items():
            args = _args(var, arity)
            yield formulas, rel(name, args)
            yield formulas, rel(name, (infix,) + args[1:])
            yield formulas, rel(name, args[:-1] + (infix,))


@pytest.mark.parametrize("pair, node", [
    pytest.param(pair, node, id=pair[1](node))
    for pair, node in _symbol_cases()])
def test_every_symbol_prints_and_parses_back(pair, node):
    parse, show = pair
    assert parse(show(node)) == node


def _one_argument_too_many():
    """(parser, text) applying each function symbol and prefix relation to
    one argument more than its arity."""
    for _, _, _, ops, rels, terms, formulas in LANGUAGES:
        for name, arity in ops.items():
            if name not in INFIX:
                names = ", ".join(f"x{i}" for i in range(arity + 1))
                yield terms[0], f"{FUNC.get(name, name)}({names})"
        for name, arity in rels.items():
            if arity != 2:
                names = ", ".join(f"x{i}" for i in range(arity + 1))
                yield formulas[0], f"{name}({names})"


@pytest.mark.parametrize("parse, text", [
    pytest.param(parse, text, id=text)
    for parse, text in _one_argument_too_many()])
def test_one_argument_too_many_is_a_syntax_error_at_the_symbol(parse, text):
    with pytest.raises(FormulaSyntaxError, match="arguments") as err:
        parse(text)
    assert err.value.pos == 0


def test_syntax_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_arith("forall x < . x = 0")
    assert err.value.pos >= 0
    assert "position" in str(err.value)
    with pytest.raises(FormulaSyntaxError):
        parse_arith("x = y = z")
    with pytest.raises(FormulaSyntaxError):
        parse_set("x in")
    with pytest.raises(FormulaSyntaxError):
        parse_set("x < y")  # bare < is not a set relation
    with pytest.raises(FormulaSyntaxError):
        parse_arith_term("pow(x, y)")  # wrong arity
    with pytest.raises(FormulaSyntaxError):
        parse_set("forall in x. x = 0e")


def test_reserved_names_rejected_as_variables():
    with pytest.raises(FormulaSyntaxError):
        parse_arith("forall exp < 3. exp = 0")
    with pytest.raises(FormulaSyntaxError):
        parse_set_term("vns")


def test_node_validation():
    with pytest.raises(ValueError):
        AOp("frobnicate", (ALit(0),))
    with pytest.raises(ValueError):
        SRel("in", (SEmpty(),))
    with pytest.raises(ValueError):
        ALit(-1)
