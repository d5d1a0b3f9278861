"""Concrete syntax for both languages: one grammar.

Inverts the printers in the formulas module: `parse_arith(show_arith(f))`
is f again, and likewise on the set side.  One recursive-descent parser
reads both languages, each through a grammar record whose spellings come
from the printers' own tables (`SYNTAX`, `BOUND_WORD`, `INFIX`, `FUNC` and
the relation arities, a relation being infix exactly when it is binary).
Only the literal forms (12, #12, 0e, {...}) and the punctuation ( ) , .
are spelled here.  Connective precedence is ! > & > | > -> with ->
associating right; a quantifier body extends as far right as possible;
* binds tighter than +.

Arithmetic:  ``forall x < 10. exists y < x. y + 1 = x | x = 0``
Set:         ``forall x in P(y). x <a vns(y) & !(x ~c {0e})``
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import FormulaSyntaxError
from .formulas import (
    ALit,
    ARITH_OPS,
    ARITH_RELS,
    AImplies,
    AOp,
    ARel,
    AVar,
    ArithFormula,
    ArithTerm,
    BOUND_MEMBER,
    BOUND_ORDER,
    BOUND_WORD,
    FUNC,
    INFIX,
    SEnum,
    SEmpty,
    SET_OPS,
    SET_RELS,
    SImplies,
    SLit,
    SOp,
    SRel,
    SVar,
    SYNTAX,
    SetFormula,
    SetTerm,
)


class _Grammar:
    """One language's symbols by spelling, read off the printers' tables."""

    def __init__(self, lang, nodes, ops, rels, kinds, term_noun,
                 rel_noun=None):
        formula, _ = lang
        self.var, self.lit, self.op, self.rel = nodes
        self.sets = formula is SetFormula  # '#12', '0e' and '{...}'
        self.bounds = {BOUND_WORD[k]: k for k in kinds}  # word -> bound kind
        self.sep_bound = BOUND_WORD[kinds[0]]
        self.quantifiers, self.connectives = {}, {}
        for cls, (word, prec) in SYNTAX.items():
            if not issubclass(cls, lang):
                continue
            if cls.binder:
                if issubclass(cls, formula):
                    self.quantifiers[word] = cls
                else:
                    self.separation = (word, cls)
            elif cls.child_fields == ("body",):
                self.negation = (word, cls)
            else:  # precedence, its right operand's, class, no name
                right = prec if cls is AImplies or cls is SImplies \
                    else prec + 1
                self.connectives[word] = (prec, right, cls, None)
        self.infix = {INFIX[o][0]: (INFIX[o][1], INFIX[o][1] + 1, self.op, o)
                      for o in ops if o in INFIX}
        self.funcs = {FUNC.get(o, o): o for o in ops if o not in INFIX}
        self.binary = [r for r, n in rels.items() if n == 2]
        self.prefix = [r for r, n in rels.items() if n != 2]
        words = [*self.bounds, *self.quantifiers, self.separation[0],
                 self.negation[0], *self.connectives, *self.infix,
                 *self.funcs, *rels]
        self.keywords = frozenset(
            [w for w in words if w[0].isalpha()] + ["0e"] * self.sets)
        # longest first, as a symbol may begin with another; the sort is
        # stable, so the punctuation, most often met, is tried first
        self.punct = sorted(dict.fromkeys(
            w for w in [*"(),." + "{}" * self.sets, *words]
            if not w[0].isalpha()), key=len, reverse=True)
        self.term_noun = term_noun
        self.rel_noun = rel_noun or " or ".join(map(repr, self.binary))


_ARITH = _Grammar((ArithFormula, ArithTerm), (AVar, ALit, AOp, ARel),
                  ARITH_OPS, ARITH_RELS, (None,), "a term")
_SET = _Grammar((SetFormula, SetTerm), (SVar, SLit, SOp, SRel),
                SET_OPS, SET_RELS, (BOUND_MEMBER, BOUND_ORDER), "a set term",
                "a set relation")


class _Token(NamedTuple):
    kind: str  # NAME | NUM | HASH | OP | END
    text: str
    pos: int


def _tokenize(text: str, g: _Grammar) -> "list[_Token]":
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "#" and g.sets:
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise FormulaSyntaxError("expected digits after '#'",
                                         text, i)
            out.append(_Token("HASH", text[i + 1:j], i))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if (g.sets and text[i:j] == "0" and j < n and text[j] == "e"
                    and (j + 1 == n or not text[j + 1].isalnum())):
                out.append(_Token("NAME", "0e", i))
                i = j + 1
                continue
            out.append(_Token("NUM", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        for op in g.punct:
            if text.startswith(op, i):
                out.append(_Token("OP", op, i))
                i += len(op)
                break
        else:
            raise FormulaSyntaxError(f"unexpected character {c!r}", text, i)
    out.append(_Token("END", "", n))
    return out


class _Parser:
    """Recursive descent over one language's grammar record."""

    def __init__(self, text: str, g: _Grammar):
        self.text = text
        self.g = g
        self.toks = _tokenize(text, g)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise FormulaSyntaxError(f"expected {text!r}", self.text, tok.pos)
        return self.take()

    def error(self, message: str) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, self.text, self.peek().pos)

    def done(self) -> None:
        if self.peek().kind != "END":
            raise self.error("trailing input")

    def variable(self) -> str:
        tok = self.peek()
        if tok.kind != "NAME":
            raise self.error("expected 'NAME'")
        if tok.text in self.g.keywords:
            raise self.error(f"{tok.text!r} is reserved")
        return self.take().text

    def args(self) -> tuple:
        self.expect("(")
        if self.peek().text == ")":
            self.take()
            return ()
        out = [self.term()]
        while self.peek().text == ",":
            self.take()
            out.append(self.term())
        self.expect(")")
        return tuple(out)

    def node(self, cls, name: str, args: tuple, pos: int):
        """The operation or relation `name` applied to args; a wrong
        number of them is a syntax error at the symbol."""
        try:
            return cls(name, args)
        except ValueError as exc:
            raise FormulaSyntaxError(str(exc), self.text, pos) from None

    def infix(self, operand, table, least: int = 0):
        """operand (SYMBOL operand)*, grouped by precedence, reading only
        the symbols of precedence at least `least`.

        `table` sends each symbol to (its precedence, the least one its
        right operand reads, its class, its operation name or None for a
        connective).  A chain that groups left is built in a loop."""
        left = operand()
        while True:
            tok = self.peek()
            entry = table.get(tok.text)
            if entry is None or entry[0] < least:
                return left
            self.take()
            _, right_least, cls, name = entry
            right = self.infix(operand, table, right_least)
            left = cls(left, right) if name is None else \
                self.node(cls, name, (left, right), tok.pos)

    # -- formulas ----------------------------------------------------------

    def formula(self):
        return self.infix(self.unary_formula, self.g.connectives)

    def unary_formula(self):
        g, tok = self.g, self.peek()
        if tok.text == g.negation[0]:
            self.take()
            return g.negation[1](self.unary_formula())
        if tok.text in g.quantifiers:
            return self.quantifier()
        if tok.text == "(":
            # a '(' may open a parenthesized formula or a term in an atom;
            # try the atom reading first and fall back
            save = self.i
            try:
                return self.atom()
            except FormulaSyntaxError:
                self.i = save
            self.take()
            body = self.formula()
            self.expect(")")
            return body
        return self.atom()

    def quantifier(self):
        node = self.g.quantifiers[self.take().text]
        var = self.variable()
        bound, kind = None, None
        if self.peek().text in self.g.bounds:
            kind = self.g.bounds[self.take().text]
            bound = self.term()
        self.expect(".")
        body = self.formula()
        return node(var, bound, body) if kind is None \
            else node(var, bound, body, kind)

    def atom(self):
        g, tok = self.g, self.peek()
        if tok.text in g.prefix and self.toks[self.i + 1].text == "(":
            self.take()
            return self.node(g.rel, tok.text, self.args(), tok.pos)
        left = self.term()
        tok = self.peek()
        if tok.text not in g.binary:
            raise self.error(f"expected {g.rel_noun}")
        self.take()
        return self.node(g.rel, tok.text, (left, self.term()), tok.pos)

    # -- terms -------------------------------------------------------------

    def term(self):
        return self.infix(self.primary, self.g.infix)

    def primary(self):
        g, tok = self.g, self.peek()
        if tok.kind == ("HASH" if g.sets else "NUM"):
            self.take()
            try:
                value = int(tok.text)
            except ValueError:  # more digits than the interpreter converts
                raise FormulaSyntaxError(
                    f"numeral of {len(tok.text)} digits is too long",
                    self.text, tok.pos) from None
            return g.lit(value)
        if tok.text == "0e":
            self.take()
            return SEmpty()
        if tok.text == "(":
            self.take()
            inner = self.term()
            self.expect(")")
            return inner
        if tok.text == "{":
            self.take()
            elems = []
            if self.peek().text != "}":
                elems.append(self.term())
                while self.peek().text == ",":
                    self.take()
                    elems.append(self.term())
            self.expect("}")
            return SEnum(tuple(elems))
        if tok.kind != "NAME":
            raise self.error(f"expected {g.term_noun}")
        if tok.text == g.separation[0]:
            self.take()
            self.expect("(")
            var = self.variable()
            self.expect(g.sep_bound)
            dom = self.term()
            self.expect(",")
            body = self.formula()
            self.expect(")")
            return g.separation[1](var, dom, body)
        if tok.text in g.funcs:
            self.take()
            return self.node(g.op, g.funcs[tok.text], self.args(), tok.pos)
        if tok.text in g.keywords:
            raise self.error(f"{tok.text!r} is reserved")
        self.take()
        return g.var(tok.text)


def _parse(g: _Grammar, rule: str, text: str):
    """Run one rule of the grammar `g` over the whole of `text`."""
    p = _Parser(text, g)
    try:
        out = getattr(p, rule)()
    except RecursionError:
        # the descent takes several frames per nesting level; past the
        # interpreter's recursion limit the input is refused, not crashed on
        raise FormulaSyntaxError("formula nested too deeply") from None
    p.done()
    return out


def parse_arith(text: str) -> "AForall | AExists | ARel | ANot | AAnd | AOr | AImplies":
    """Parse an arithmetic formula."""
    return _parse(_ARITH, "formula", text)


def parse_arith_term(text: str):
    """Parse an arithmetic term."""
    return _parse(_ARITH, "term", text)


def parse_set(text: str):
    """Parse a set formula."""
    return _parse(_SET, "formula", text)


def parse_set_term(text: str):
    """Parse a set term."""
    return _parse(_SET, "term", text)
