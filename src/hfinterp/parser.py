"""Concrete syntax for both languages.

Inverts the printers in the formulas module: `parse_arith(show_arith(f))`
is f again, and likewise on the set side.  Connective precedence is
! > & > | > -> with -> associating right; a quantifier body extends as
far right as possible; * binds tighter than +.

Arithmetic:  ``forall x < 10. exists y < x. y + 1 = x | x = 0``
Set:         ``forall x in P(y). x <a vns(y) & !(x ~c {0e})``
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormulaSyntaxError
from .formulas import (
    ALit,
    ARITH_OPS,
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
)

_ARITH_PUNCT = ("->", "(", ")", ",", ".", "=", "<", "!", "&", "|", "+", "*")
_SET_PUNCT = ("<=c", "->", "~c", "<c", "<a", "+a", "+c", "*a", "*c",
              "{", "}", "(", ")", ",", ".", "=", "!", "&", "|")

#: surface spellings of set function symbols -> internal operation names
_SET_FUNC_NAMES = {"pair": "pair", "P": "pset", "U": "sum", "R": "rank",
                   "vns": "vns", "Sa": "osucc", "expa": "oexp",
                   "expc": "cexp", "cardof": "cardof", "vadd": "vadd",
                   "vmul": "vmul", "vexp": "vexp"}

_ARITH_KEYWORDS = (frozenset(op for op in ARITH_OPS if op.isalnum())
                   | frozenset(("forall", "exists", "sepc", "Dom",
                                "OrdCode")))
_SET_KEYWORDS = (frozenset(_SET_FUNC_NAMES)
                 | frozenset(("forall", "exists", "sep", "in", "isord",
                              "Dom", "ordadd", "ordmul", "ordexp", "0e")))


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME | NUM | HASH | OP | END
    text: str
    pos: int


def _tokenize(text: str, punct: "tuple[str, ...]",
              set_lang: bool) -> "list[_Token]":
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "#" and set_lang:
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
            if (set_lang and text[i:j] == "0" and j < n and text[j] == "e"
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
        for op in punct:
            if text.startswith(op, i):
                out.append(_Token("OP", op, i))
                i += len(op)
                break
        else:
            raise FormulaSyntaxError(f"unexpected character {c!r}", text, i)
    out.append(_Token("END", "", n))
    return out


class _Parser:
    """Shared recursive-descent machinery; subclasses fill in the grammar."""

    def __init__(self, text: str, punct, set_lang: bool):
        self.text = text
        self.toks = _tokenize(text, punct, set_lang)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in ops

    def at_name(self, *names: str) -> bool:
        tok = self.peek()
        return tok.kind == "NAME" and tok.text in names

    def expect(self, kind: str, text: "str | None" = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise FormulaSyntaxError(f"expected {want!r}", self.text, tok.pos)
        return self.take()

    def error(self, message: str) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, self.text, self.peek().pos)

    def done(self) -> None:
        if self.peek().kind != "END":
            raise self.error("trailing input")

    def variable(self, keywords) -> str:
        tok = self.expect("NAME")
        if tok.text in keywords:
            raise FormulaSyntaxError(f"{tok.text!r} is reserved",
                                     self.text, tok.pos)
        return tok.text

    def args(self, parse_one) -> tuple:
        self.expect("OP", "(")
        if self.at_op(")"):
            self.take()
            return ()
        out = [parse_one()]
        while self.at_op(","):
            self.take()
            out.append(parse_one())
        self.expect("OP", ")")
        return tuple(out)

    # -- connective layer, shared by both grammars --------------------------

    NOT, AND, OR, IMPLIES = SNot, SAnd, SOr, SImplies  # overridden

    def formula(self):
        left = self.or_formula()
        if self.at_op("->"):
            self.take()
            return self.IMPLIES(left, self.formula())
        return left

    def or_formula(self):
        left = self.and_formula()
        while self.at_op("|"):
            self.take()
            left = self.OR(left, self.and_formula())
        return left

    def and_formula(self):
        left = self.unary_formula()
        while self.at_op("&"):
            self.take()
            left = self.AND(left, self.unary_formula())
        return left

    def unary_formula(self):
        if self.at_op("!"):
            self.take()
            return self.NOT(self.unary_formula())
        if self.at_name("forall", "exists"):
            return self.quantifier()
        if self.at_op("("):
            # a '(' may open a parenthesized formula or a term in an atom;
            # try the atom reading first and fall back
            save = self.i
            try:
                return self.atom()
            except FormulaSyntaxError:
                self.i = save
            self.take()
            body = self.formula()
            self.expect("OP", ")")
            return body
        return self.atom()

    # subclasses: quantifier, atom, term


class _ArithParser(_Parser):
    NOT, AND, OR, IMPLIES = ANot, AAnd, AOr, AImplies

    def __init__(self, text: str):
        super().__init__(text, _ARITH_PUNCT, set_lang=False)

    def quantifier(self):
        word = self.take().text
        var = self.variable(_ARITH_KEYWORDS)
        bound = None
        if self.at_op("<"):
            self.take()
            bound = self.term()
        self.expect("OP", ".")
        body = self.formula()
        node = AForall if word == "forall" else AExists
        return node(var, bound, body)

    def atom(self):
        if self.at_name("Dom", "OrdCode") and \
                self.toks[self.i + 1].text == "(":
            name = self.take().text
            return ARel(name, self.args(self.term))
        left = self.term()
        if self.at_op("=", "<"):
            op = self.take().text
            return ARel(op, (left, self.term()))
        raise self.error("expected '=' or '<'")

    def term(self):
        left = self.mul_term()
        while self.at_op("+"):
            self.take()
            left = AOp("+", (left, self.mul_term()))
        return left

    def mul_term(self):
        left = self.primary()
        while self.at_op("*"):
            self.take()
            left = AOp("*", (left, self.primary()))
        return left

    def primary(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.take()
            return ALit(int(tok.text))
        if self.at_op("("):
            self.take()
            inner = self.term()
            self.expect("OP", ")")
            return inner
        if tok.kind != "NAME":
            raise self.error("expected a term")
        if tok.text == "sepc":
            self.take()
            self.expect("OP", "(")
            var = self.variable(_ARITH_KEYWORDS)
            self.expect("OP", "<")
            bound = self.term()
            self.expect("OP", ",")
            body = self.formula()
            self.expect("OP", ")")
            return ASep(var, bound, body)
        if tok.text in ARITH_OPS:
            self.take()
            try:
                return AOp(tok.text, self.args(self.term))
            except ValueError as exc:
                raise FormulaSyntaxError(str(exc), self.text, tok.pos)
        if tok.text in _ARITH_KEYWORDS:
            raise self.error(f"{tok.text!r} is reserved")
        self.take()
        return AVar(tok.text)


class _SetParser(_Parser):
    NOT, AND, OR, IMPLIES = SNot, SAnd, SOr, SImplies

    def __init__(self, text: str):
        super().__init__(text, _SET_PUNCT, set_lang=True)

    def quantifier(self):
        word = self.take().text
        var = self.variable(_SET_KEYWORDS)
        bound, kind = None, BOUND_MEMBER
        if self.at_name("in"):
            self.take()
            bound = self.term()
        elif self.at_op("<a"):
            self.take()
            bound = self.term()
            kind = BOUND_ORDER
        self.expect("OP", ".")
        body = self.formula()
        node = SForall if word == "forall" else SExists
        return node(var, bound, body, kind)

    def atom(self):
        if self.at_name("isord", "Dom", "ordadd", "ordmul", "ordexp") and \
                self.toks[self.i + 1].text == "(":
            name = self.take().text
            try:
                return SRel(name, self.args(self.term))
            except ValueError as exc:
                raise FormulaSyntaxError(str(exc), self.text, self.peek().pos)
        left = self.term()
        if self.at_op("=", "<a", "~c", "<c", "<=c"):
            op = self.take().text
            return SRel(op, (left, self.term()))
        if self.at_name("in"):
            self.take()
            return SRel("in", (left, self.term()))
        raise self.error("expected a set relation")

    def term(self):
        left = self.mul_term()
        while self.at_op("+a", "+c"):
            op = "oadd" if self.take().text == "+a" else "cadd"
            left = SOp(op, (left, self.mul_term()))
        return left

    def mul_term(self):
        left = self.primary()
        while self.at_op("*a", "*c"):
            op = "omul" if self.take().text == "*a" else "cmul"
            left = SOp(op, (left, self.primary()))
        return left

    def primary(self):
        tok = self.peek()
        if tok.kind == "HASH":
            self.take()
            return SLit(int(tok.text))
        if self.at_name("0e"):
            self.take()
            return SEmpty()
        if self.at_op("{"):
            self.take()
            elems = []
            if not self.at_op("}"):
                elems.append(self.term())
                while self.at_op(","):
                    self.take()
                    elems.append(self.term())
            self.expect("OP", "}")
            return SEnum(tuple(elems))
        if self.at_op("("):
            self.take()
            inner = self.term()
            self.expect("OP", ")")
            return inner
        if tok.kind != "NAME":
            raise self.error("expected a set term")
        if tok.text == "sep":
            self.take()
            self.expect("OP", "(")
            var = self.variable(_SET_KEYWORDS)
            self.expect("NAME", "in")
            dom = self.term()
            self.expect("OP", ",")
            body = self.formula()
            self.expect("OP", ")")
            return SSep(var, dom, body)
        if tok.text in _SET_FUNC_NAMES:
            self.take()
            try:
                return SOp(_SET_FUNC_NAMES[tok.text], self.args(self.term))
            except ValueError as exc:
                raise FormulaSyntaxError(str(exc), self.text, tok.pos)
        if tok.text in _SET_KEYWORDS:
            raise self.error(f"{tok.text!r} is reserved")
        self.take()
        return SVar(tok.text)


def _parse(parser, rule: str, text: str):
    """Run one rule of `parser` over the whole of `text`."""
    p = parser(text)
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
    return _parse(_ArithParser, "formula", text)


def parse_arith_term(text: str):
    """Parse an arithmetic term."""
    return _parse(_ArithParser, "term", text)


def parse_set(text: str):
    """Parse a set formula."""
    return _parse(_SetParser, "formula", text)


def parse_set_term(text: str):
    """Parse a set term."""
    return _parse(_SetParser, "term", text)
