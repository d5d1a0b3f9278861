"""The four translations: shape, totality, and semantic agreement.

Each agreement test evaluates a source formula in its own language and
its translation in the target language, over matching environments
(codes for the coding map, enumeration positions for the order map,
von Neumann ordinals for the ordinal map, cardinalities for the
cardinal map), and requires identical truth values.  Unbounded
quantifiers truncate at the context cutoff on both sides, so agreement
holds whenever the two cutoffs coincide.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfinterp import evaluate
from hfinterp.core import decode, encode, vn_ordinal
from hfinterp.errors import LanguageMismatch
from hfinterp.evaluate import (
    EvalContext,
    eval_arith,
    eval_arith_term,
    eval_set,
    eval_set_term,
)
from hfinterp.errors import BudgetExceeded, NotAnOrdinal
from hfinterp.formulas import (
    AExists,
    AForall,
    ALit,
    AOp,
    ARel,
    AVar,
    SEmpty,
    SEnum,
    SForall,
    SOp,
    SRel,
    SVar,
    children,
    free_vars,
    is_bounded,
    show_arith,
    show_arith_term,
    show_set,
    show_set_term,
)
from hfinterp.interp import (
    MAP_A,
    MAP_D,
    MAP_O,
    MAPS,
    compose,
    bit_formula_parts,
    get_map,
    translate_a,
    translate_a_term,
    translate_c,
    translate_c_term,
    translate_d,
    translate_d_term,
    translate_o,
)
from hfinterp.parser import parse_arith, parse_set, parse_set_term
from hfinterp.verify import load_annotated_corpus, membership_bit_formula

from test_formulas import LANGUAGES, _args, random_arith, \
    random_arith_term, random_set, random_set_term

SKIP = (BudgetExceeded, NotAnOrdinal)


def _small_ctx(cutoff=24):
    return EvalContext(nat_cutoff=cutoff, set_cutoff=cutoff)


# ---------------------------------------------------------------------------
# a: sets as codes
# ---------------------------------------------------------------------------

def test_a_term_is_code_homomorphism():
    """encode(set evaluation) == arithmetic evaluation of the translation,
    across randomly generated set terms."""
    rng = random.Random(11)
    ctx = EvalContext()
    hits = 0
    for _ in range(400):
        t = random_set_term(rng, rng.randrange(3))
        env = {v: decode(rng.randrange(12)) for v in ("x", "y", "z", "w")}
        code_env = {v: encode(s) for v, s in env.items()}
        try:
            want = encode(eval_set_term(t, env, ctx), ctx.code_budget)
            got = eval_arith_term(translate_a_term(t), code_env, ctx)
        except SKIP:
            continue
        assert got == want, show_arith(ARel("=", (translate_a_term(t),
                                                  ALit(want))))
        hits += 1
    assert hits >= 200


def test_a_membership_is_bit_extraction():
    f = translate_a(parse_set("x in y"))
    ctx = EvalContext()
    pairs = [(x, y) for x in range(16) for y in range(64)]
    pairs += [(s, 2 ** s + 3) for s in range(5, 14)]
    for cx, cy in pairs:
        want = (cy >> cx) & 1 == 1
        assert eval_arith(f, {"x": cx, "y": cy}, ctx) is want


def test_a_membership_solver_matches_enumeration():
    """The witness solver is an optimization, never a semantic change;
    the honest route costs bound * 2^bit per query, so the sample is
    small."""
    f = translate_a(parse_set("x in y"))
    ctx = EvalContext()
    no_solver = EvalContext(solver=False)
    for cx in range(6):
        for cy in range(24):
            env = {"x": cx, "y": cy}
            assert eval_arith(f, env, no_solver) \
                is eval_arith(f, env, ctx) is ((cy >> cx) & 1 == 1)


def _corpus_in_atoms() -> list:
    atoms = []
    for corpus in ("set.txt", "opei.txt", "separation.txt"):
        for _, text in load_annotated_corpus(corpus):
            todo = [parse_set(text)]
            while todo:
                node = todo.pop()
                if isinstance(node, SRel) and node.op == "in":
                    atoms.append(node)
                todo.extend(children(node))
    return atoms


def test_bit_formula_parts_inverts_the_bit_formula():
    atoms = _corpus_in_atoms()
    assert len(atoms) >= 20
    for atom in atoms:
        parts = tuple(translate_a_term(a) for a in atom.args)
        assert bit_formula_parts(translate_a(atom)) == parts, atom


@pytest.mark.parametrize("mutation", ["successor", "bit-formula"])
def test_bit_formula_parts_rejects_the_mutated_bit_formulas(mutation):
    assert bit_formula_parts(membership_bit_formula(mutation)) is None


def test_bit_formula_parts_rejects_an_inner_variable_capturing_the_host():
    shape = ("exists n < y. exists {m} < exp(2, v). "
             "y = exp(2, v + 1) * n + exp(2, v) + {m}")
    assert bit_formula_parts(parse_arith(shape.format(m="m"))) == \
        (AVar("v"), AVar("y"))
    # with the inner variable named y, the y of the equation is the
    # inner one: this says nothing about bit v of the outer y
    assert bit_formula_parts(parse_arith(shape.format(m="y"))) is None


def test_a_formula_agreement_random():
    rng = random.Random(23)
    ctx = _small_ctx()
    hits = 0
    for _ in range(250):
        f = random_set(rng, rng.randrange(3))
        env = {v: decode(rng.randrange(10)) for v in ("x", "y", "z", "w")}
        code_env = {v: encode(s) for v, s in env.items()}
        try:
            want = eval_set(f, env, ctx)
            got = eval_arith(translate_a(f), code_env, ctx)
        except SKIP:
            continue
        assert got == want, show_set(f)
        hits += 1
    assert hits >= 150


def test_a_formula_agreement_hand_picked():
    ctx = _small_ctx()
    cases = [
        ("forall u in x. u in y", {"x": 5, "y": 7}, True),
        ("forall u in x. u in y", {"x": 5, "y": 6}, False),
        ("exists u in x. P(u) = y", {"x": 2, "y": 3}, True),
        ("exists u in x. P(u) = y", {"x": 4, "y": 5}, True),
        ("forall u <a x. u in x | !(u in x)", {"x": 9}, True),
        ("exists u <a x. vns(u) = x", {"x": 3}, True),
        ("x ~c y", {"x": 7, "y": 11}, True),
        ("x <c y", {"x": 3, "y": 7}, True),
        ("isord(x)", {"x": 3}, True),
        ("isord(x)", {"x": 4}, False),
        ("ordadd(x, y, z)", {"x": 1, "y": 3, "z": 11}, True),
        ("ordadd(x, y, z)", {"x": 1, "y": 3, "z": 2059}, False),
        ("U(x) = y", {"x": 6, "y": 3}, True),
        ("{x, y} = z", {"x": 0, "y": 1, "z": 3}, True),
    ]
    for src, codes, want in cases:
        f = parse_set(src)
        env = {v: decode(n) for v, n in codes.items()}
        assert eval_set(f, env, ctx) is want, src
        assert eval_arith(translate_a(f), dict(codes), ctx) is want, src


def test_a_bound_mentioning_quantified_variable_is_renamed():
    f = parse_set("forall x in pair(x, y). x = y")
    g = translate_a(f)
    # the outer x must survive as a free variable of the translation
    assert free_vars(g) == {"x", "y"}
    ctx = _small_ctx()
    for cx in range(8):
        for cy in range(8):
            want = eval_set(f, {"x": decode(cx), "y": decode(cy)}, ctx)
            got = eval_arith(g, {"x": cx, "y": cy}, ctx)
            assert got == want, (cx, cy)


@pytest.mark.parametrize("src", [
    "u in {x, y, z}",
    "u in {x, y, z, v, w}",
    # exact codes: the two folds agree exactly when v and w repeat x, y, z
    "{x, y, z} = {x, y, z, v, w}",
])
def test_a_enumeration_of_three_or_more_elements(src):
    f = parse_set(src)
    g = translate_a(f)
    names = sorted(free_vars(f))
    ctx = _small_ctx()
    for codes in itertools.product(range(4), repeat=len(names)):
        want = eval_set(f, {n: decode(c) for n, c in zip(names, codes)}, ctx)
        got = eval_arith(g, dict(zip(names, codes)), ctx)
        assert got == want, codes


# ---------------------------------------------------------------------------
# c: numbers as cardinalities
# ---------------------------------------------------------------------------

def _card_rep(n, rng=None):
    """A set of cardinality n: canonical, or a random code of popcount n."""
    if rng is None:
        return decode(2 ** n - 1)
    bits = rng.sample(range(8), n)
    return decode(sum(1 << b for b in bits))


def test_c_laws_hold_under_cardinal_reading():
    ctx = EvalContext(set_cutoff=64)
    laws = [
        "forall x < 3. forall y < 3. x + y = y + x",
        "forall x < 3. forall y < 3. x * y = y * x",
        "forall x < 3. forall y < 3. S(x + y) = x + S(y)",
        "forall x < 3. x + 0 = x",
        "forall x < 3. x * 1 = x",
        "forall x < 3. exp(x, 2) = x * x",
        "forall x < 3. forall y < 2. forall z < 2. x * (y + z) = x * y + x * z",
    ]
    for src in laws:
        assert eval_set(translate_c(parse_arith(src)), {}, ctx), src
    wrong = [
        "forall x < 3. forall y < 3. x + y = x * y",
        "forall x < 3. S(x) = x",
        "exists x < 3. x + x < x",
    ]
    for src in wrong:
        assert not eval_set(translate_c(parse_arith(src)), {}, ctx), src


def test_c_agreement_core_fragment():
    """Random core-fragment formulas agree with plain arithmetic when
    variables are read as cardinalities; the representative's shape is
    irrelevant."""
    rng = random.Random(5)
    ctx = EvalContext(set_cutoff=64)

    def core_term(depth):
        if depth <= 0 or rng.random() < 0.5:
            return rng.choice([AVar(rng.choice("xy")),
                               ALit(rng.randrange(3))])
        op = rng.choice(["S", "+", "*"])
        n = 1 if op == "S" else 2
        return AOp(op, tuple(core_term(depth - 1) for _ in range(n)))

    def core_formula(depth):
        if depth <= 0:
            return ARel(rng.choice(["=", "<"]),
                        (core_term(1), core_term(1)))
        kind = rng.randrange(4)
        if kind == 0:
            node = rng.choice([AForall, AExists])
            return node(rng.choice("xy"), ALit(rng.randrange(1, 4)),
                        core_formula(depth - 1))
        return ARel(rng.choice(["=", "<"]),
                    (core_term(depth), core_term(depth)))

    for trial in range(120):
        f = core_formula(rng.randrange(3))
        nums = {v: rng.randrange(4) for v in "xy"}
        env = {v: _card_rep(n, rng if trial % 2 else None)
               for v, n in nums.items()}
        want = eval_arith(f, nums, EvalContext())
        got = eval_set(translate_c(f), env, ctx)
        assert got == want, (show_arith(f), nums)


def test_c_rejects_code_operations():
    for src in ["pow(x) = x", "sumc(x) < y", "x = pairc(x, y)",
                "cardc(x) = x"]:
        with pytest.raises(LanguageMismatch):
            translate_c(parse_arith(src))
    with pytest.raises(LanguageMismatch):
        translate_c(ARel("OrdCode", (AVar("x"),)))


#: unbounded formulas whose truth every cutoff of at least 4 shares
CUTOFF_FREE = ["exists x. x = 0", "forall x. x = x", "forall x. !(x < 0)",
               "exists x. 0 < S(x)"]


@pytest.mark.parametrize("translate", [translate_c, translate_o],
                         ids=["c", "o"])
@pytest.mark.parametrize("src", CUTOFF_FREE)
def test_unbounded_quantifier_images_agree(translate, src):
    f = parse_arith(src)
    g = translate(f)
    assert not is_bounded(g)
    for solver in (True, False):
        ctx = EvalContext(nat_cutoff=8, set_cutoff=8, solver=solver)
        assert eval_set(g, {}, ctx) == eval_arith(f, {}, ctx), solver


def test_c_bounded_quantifier_keeps_cardinality_guard():
    f = translate_c(parse_arith("forall x < y. x < y"))
    assert isinstance(f, SForall) and f.bound is None
    printed = show_set(f)
    assert "<c" in printed


# ---------------------------------------------------------------------------
# o: numbers as von Neumann ordinals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solver", [True, False], ids=["solver", "walk"])
def test_o_laws_hold_under_ordinal_reading(solver):
    ctx = EvalContext(solver=solver)
    laws = [
        "forall x < 4. forall y < 4. (x + y) + 1 = x + (y + 1)",
        "forall x < 3. forall y < 3. forall z < 3. (x + y) + z = x + (y + z)",
        "forall x < 4. forall y < 4. x + y = y + x",
        "forall x < 3. forall y < 3. x * y = y * x",
        "forall x < 3. forall y < 3. forall z < 3. x * (y + z) = x * y + x * z",
        "forall x < 3. exp(x + 1, 2) = (x + 1) * (x + 1)",
        "exp(2, 3) = 8",
        "forall x < 4. x + 1 = S(x)",
    ]
    for src in laws:
        assert eval_set(translate_o(parse_arith(src)), {}, ctx), src
    wrong = [
        "forall x < 3. forall y < 3. x + y = x * y",
        "forall x < 4. (x + 1) + 1 = x + 1",
        "exp(2, 3) = 9",
        "exists x < 4. x < x",
    ]
    for src in wrong:
        assert not eval_set(translate_o(parse_arith(src)), {}, ctx), src


def random_core_term(rng, depth):
    """A term of S, +, * and exp over x, y and literals below 3: the
    terms map o translates."""
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice([AVar(rng.choice("xy")),
                           ALit(rng.randrange(3))])
    op = rng.choice(["S", "+", "*", "exp"])
    n = 1 if op == "S" else 2
    return AOp(op, tuple(random_core_term(rng, depth - 1) for _ in range(n)))


def random_core_formula(rng, depth, unbounded=0.0):
    """An atom over core terms, or a quantifier over one, bounded by a
    literal below 5 or, with probability `unbounded`, by nothing."""
    if depth <= 0:
        return ARel(rng.choice(["=", "<"]),
                    (random_core_term(rng, 1), random_core_term(rng, 1)))
    kind = rng.randrange(4)
    if kind == 0:
        node = rng.choice([AForall, AExists])
        var = rng.choice("xy")
        bound = None if unbounded and rng.random() < unbounded \
            else ALit(rng.randrange(1, 5))
        return node(var, bound, random_core_formula(rng, depth - 1, unbounded))
    return ARel(rng.choice(["=", "<"]),
                (random_core_term(rng, depth), random_core_term(rng, depth)))


def test_o_agreement_bounded_fragment():
    rng = random.Random(17)
    ctx = EvalContext()

    hits = 0
    for _ in range(150):
        f = random_core_formula(rng, rng.randrange(3))
        nums = {v: rng.randrange(4) for v in "xy"}
        env = {v: vn_ordinal(n) for v, n in nums.items()}
        try:
            want = eval_arith(f, nums, ctx)
            got = eval_set(translate_o(f), env, ctx)
        except SKIP:
            continue
        assert got == want, (show_arith(f), nums)
        hits += 1
    assert hits >= 120


def _verdict(f, env, ctx):
    """eval_set's verdict, or the class of what it raised."""
    try:
        return eval_set(f, env, ctx)
    except Exception as e:
        return type(e)


#: the ordinals 0 to 3 and the sets coded below 8, ordinals or not
SMALL_SETS = st.one_of(st.integers(0, 3).map(vn_ordinal),
                       st.integers(0, 7).map(decode))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.integers(0, 2), SMALL_SETS,
       SMALL_SETS)
def test_o_images_give_one_verdict_with_and_without_the_solver(rng, depth,
                                                               x, y):
    g = translate_o(random_core_formula(rng, depth, unbounded=0.3))
    env = {"x": x, "y": y}
    on, off = (_verdict(g, env, EvalContext(nat_cutoff=8, set_cutoff=8,
                                            solver=solver))
               for solver in (True, False))
    assert on == off, show_set(g)


def test_o_non_ordinal_binding_falsifies_graph():
    f = translate_o(parse_arith("x + y = 5"))
    ctx = EvalContext()
    assert eval_set(f, {"x": vn_ordinal(2), "y": vn_ordinal(3)}, ctx)
    assert not eval_set(f, {"x": vn_ordinal(2), "y": vn_ordinal(2)}, ctx)
    # {{{0}}} is not an ordinal, so no sum node exists above it
    assert not eval_set(f, {"x": decode(4), "y": vn_ordinal(3)}, ctx)


def test_o_bounded_quantifier_becomes_membership():
    f = translate_o(parse_arith("forall x < 3. x < 3"))
    assert isinstance(f, SForall)
    three = SOp("vns", (SOp("vns", (SOp("vns", (SEmpty(),)),)),))
    assert f.bound == three


@pytest.mark.parametrize("src", ["exists y < y + 2. 1 < y",
                                 "forall y < y + 1. y < 1"])
def test_o_bound_mentioning_quantified_variable_is_renamed(src):
    f = parse_arith(src)
    g = translate_o(f)
    # the outer y survives, free, in the image's bound
    assert free_vars(g) == {"y"}
    wants = set()
    for solver in (True, False):
        # ordinal 3, the largest bound below, has code 11
        ctx = EvalContext(nat_cutoff=16, set_cutoff=16, solver=solver)
        for y in range(2):
            want = eval_arith(f, {"y": y}, ctx)
            assert eval_set(g, {"y": vn_ordinal(y)}, ctx) == want, (solver, y)
            wants.add(want)
    assert wants == {True, False}


def test_o_rejects_code_operations():
    for src in ["pow(x) = x", "x = pairc(x, y)", "cardc(x) < y"]:
        with pytest.raises(LanguageMismatch):
            translate_o(parse_arith(src))


# ---------------------------------------------------------------------------
# d: numbers as positions along the ordering
# ---------------------------------------------------------------------------

def test_d_is_total_on_generated_formulas():
    rng = random.Random(31)
    for _ in range(300):
        translate_d(random_arith(rng, rng.randrange(4)))


def test_d_term_agreement_random():
    """The dual route: numeric code-operation semantics versus actually
    building the set and encoding it."""
    rng = random.Random(37)
    ctx = EvalContext()
    hits = 0
    for _ in range(400):
        t = random_arith_term(rng, rng.randrange(3))
        nums = {v: rng.randrange(8) for v in ("x", "y", "z", "w")}
        env = {v: decode(n) for v, n in nums.items()}
        try:
            want = eval_arith_term(t, nums, ctx)
            got = encode(eval_set_term(translate_d_term(t), env, ctx),
                         ctx.code_budget)
        except SKIP:
            continue
        assert got == want, show_arith(ARel("=", (t, ALit(want))))
        hits += 1
    assert hits >= 200


def test_d_formula_agreement_random():
    rng = random.Random(41)
    ctx = _small_ctx()
    hits = 0
    for _ in range(250):
        f = random_arith(rng, rng.randrange(3))
        nums = {v: rng.randrange(8) for v in ("x", "y", "z", "w")}
        env = {v: decode(n) for v, n in nums.items()}
        try:
            want = eval_arith(f, nums, ctx)
        except SKIP:
            continue
        try:
            got = eval_set(translate_d(f), env, ctx)
        except SKIP:
            continue
        assert got == want, (show_arith(f), nums)
        hits += 1
    assert hits >= 150


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_round_trip_number_to_set_to_number():
    """Order map then coding map is the identity on truth values."""
    ad = get_map("ad")
    assert (ad.source, ad.target) == ("arith", "arith")
    rng = random.Random(43)
    ctx = _small_ctx()
    hits = 0
    for _ in range(200):
        f = random_arith(rng, rng.randrange(3))
        nums = {v: rng.randrange(8) for v in ("x", "y", "z", "w")}
        try:
            want = eval_arith(f, nums, ctx)
            got = eval_arith(ad(f), nums, ctx)
        except SKIP:
            continue
        assert got == want, show_arith(f)
        hits += 1
    assert hits >= 120


def test_round_trip_set_to_number_to_set():
    """Coding map then order map is the identity on truth values."""
    da = get_map("da")
    assert (da.source, da.target) == ("set", "set")
    ctx = _small_ctx(16)
    cases = [
        ("x in y", {"x": 1, "y": 2}, True),
        ("x in y", {"x": 1, "y": 4}, False),
        ("forall u in x. u in y", {"x": 5, "y": 7}, True),
        ("pair(x, y) = z", {"x": 0, "y": 1, "z": 3}, True),
        ("x <a y", {"x": 4, "y": 9}, True),
        ("x ~c y", {"x": 5, "y": 6}, True),
        ("exists u in y. u = x", {"x": 2, "y": 6}, True),
    ]
    for src, codes, want in cases:
        f = parse_set(src)
        env = {v: decode(n) for v, n in codes.items()}
        assert eval_set(f, env, ctx) is want, src
        assert eval_set(da(f), env, ctx) is want, src


def test_negative_control_ordinals_are_not_codes():
    """Chaining the ordinal map into the coding map changes truth: the
    number 2 is not the code of the ordinal 2."""
    ao = get_map("ao")
    f = parse_arith("x < y")
    env = {"x": 0, "y": 2}
    ctx = EvalContext()
    assert eval_arith(f, env, ctx) is True
    assert eval_arith(ao(f), env, ctx) is False
    # ... while at y = code(ordinal 2) = 3 the translation does hold
    assert eval_arith(ao(f), {"x": 0, "y": 3}, ctx) is True


def test_compose_checks_languages():
    with pytest.raises(LanguageMismatch):
        compose(MAP_O, MAP_D)          # set output into an arith consumer
    with pytest.raises(LanguageMismatch):
        get_map("dd")
    with pytest.raises(LanguageMismatch):
        get_map("q")
    with pytest.raises(LanguageMismatch):
        get_map("")
    assert get_map("da").name == "da"
    assert get_map("a") is MAP_A


def _nest(leaf, wrap, levels=800):
    t = leaf
    for _ in range(levels):
        t = wrap(t)
    return t


def _eval_set_term(t):
    return eval_set_term(t, {}, EvalContext())


def _eval_arith_term(t):
    return eval_arith_term(t, {}, EvalContext())


@pytest.mark.parametrize("walk", [translate_a_term, show_set_term,
                                  _eval_set_term])
@pytest.mark.parametrize("wrap", [lambda t: SEnum((t,)),
                                  lambda t: SOp("sum", (t,))],
                         ids=["enum", "sum"])
def test_set_term_walkers_take_one_frame_per_level(walk, wrap):
    # 800 levels fit the default recursion limit only at one frame a level
    walk(_nest(SEmpty(), wrap))


@pytest.mark.parametrize("walk", [translate_c_term, translate_d_term,
                                  show_arith_term, _eval_arith_term])
def test_arith_term_walkers_take_one_frame_per_level(walk):
    walk(_nest(ALit(0), lambda t: AOp("S", (t,))))


# ---------------------------------------------------------------------------
# every symbol through the evaluator and every map
# ---------------------------------------------------------------------------

def _symbol_formulas():
    """(language, formula) for every symbol of the tables, applied to
    variables: a relation as its own atom, an operation as `op(...) = z`."""
    for op, rel, var, ops, rels, _, _ in LANGUAGES:
        lang = "arith" if op is AOp else "set"
        for name, arity in ops.items():
            yield lang, rel("=", (op(name, _args(var, arity)), var("z")))
        for name, arity in rels.items():
            yield lang, rel(name, _args(var, arity))


@pytest.mark.parametrize("lang, f", [
    pytest.param(lang, f, id=(show_arith if lang == "arith" else show_set)(f))
    for lang, f in _symbol_formulas()])
def test_every_symbol_compiles_and_every_map_takes_it(lang, f):
    assert callable(evaluate._compile(f))
    for m in MAPS.values():
        if m.source != lang:
            continue
        try:
            m(f)
        except LanguageMismatch:
            pass  # outside the map's fragment; a KeyError would be a gap
