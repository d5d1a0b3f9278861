"""Golden file for the evaluator's verdicts.

Every line of the four packaged corpora, and each of its well-typed
single-map images, is evaluated under the four `mode` x `solver`
contexts on fixed assignments of codes below 8 to its free variables (at
most 64 per formula).  Each verdict is `true`, `false` or the class name
of the exception raised; the lines are compared with
`tests/golden/verdicts.txt`.  The file was written by the tree-walking
evaluator that preceded the compiled one, so it pins the compiler to
the walker's answers on every route.

Regenerate the file, after a deliberate change of the semantics, with

    PYTHONPATH=src python tests/test_verdict_golden.py
"""

import itertools
import random
from pathlib import Path

from hfinterp.core import decode
from hfinterp.errors import LanguageMismatch
from hfinterp.evaluate import EvalContext, eval_arith, eval_set
from hfinterp.formulas import free_vars
from hfinterp.interp import MAPS
from hfinterp.parser import parse_arith, parse_set
from hfinterp.verify import load_annotated_corpus

GOLDEN = Path(__file__).parent / "golden" / "verdicts.txt"

#: corpus file -> language of its formulas
CORPORA = {"arith.txt": "arith", "set.txt": "set", "opei.txt": "set",
           "separation.txt": "set"}

CODES = 8
MAX_ASSIGNMENTS = 64
CUTOFF = 8
ENUM_BUDGET = 1 << 12

#: (label, context) for the four routes
CONTEXTS = tuple(
    (f"{mode}/{'solver' if solver else 'walk'}",
     EvalContext(nat_cutoff=CUTOFF, set_cutoff=CUTOFF,
                 enum_budget=ENUM_BUDGET, mode=mode,
                 solver=solver))
    for mode in ("fast", "literal") for solver in (True, False))


def assignments(names: "list[str]", seed: str) -> "list[tuple[int, ...]]":
    """Codes below CODES for `names`: all of them when there are at most
    MAX_ASSIGNMENTS, else a sample fixed by `seed`."""
    grid = list(itertools.product(range(CODES), repeat=len(names)))
    if len(grid) <= MAX_ASSIGNMENTS:
        return grid
    return sorted(random.Random(seed).sample(grid, MAX_ASSIGNMENTS))


def verdict(evaluate, f, env, ctx) -> str:
    try:
        return "true" if evaluate(f, env, ctx) else "false"
    except Exception as e:  # the class of a raise is part of the verdict
        return type(e).__name__


def formulas():
    """(corpus, tag, text, language, formula): each corpus line as `-`,
    then its image under each well-typed single map."""
    for corpus, lang in CORPORA.items():
        parse = parse_arith if lang == "arith" else parse_set
        for _, text in load_annotated_corpus(corpus):
            f = parse(text)
            yield corpus, "-", text, lang, f
            for tag in sorted(MAPS):
                m = MAPS[tag]
                if m.source != lang:
                    continue
                try:
                    g = m(f)
                except LanguageMismatch:
                    continue
                yield corpus, tag, text, m.target, g


def render_verdicts() -> "list[str]":
    """One line per (formula, context): corpus, map, source, context, one
    character per assignment (T, F, or a letter naming a raise) and the
    exception class names the letters a, b, ... stand for."""
    sets = [decode(c) for c in range(CODES)]
    short = {"true": "T", "false": "F"}
    out = []
    for corpus, tag, text, lang, f in formulas():
        names = sorted(free_vars(f))
        evaluate = eval_arith if lang == "arith" else eval_set
        envs = []
        for codes in assignments(names, f"{corpus}\t{tag}\t{text}"):
            values = codes if lang == "arith" else [sets[c] for c in codes]
            envs.append(dict(zip(names, values)))
        for label, ctx in CONTEXTS:
            got = [verdict(evaluate, f, env, ctx) for env in envs]
            raised = sorted({v for v in got if v not in short})
            letter = {v: chr(ord("a") + i) for i, v in enumerate(raised)}
            cells = "".join(short.get(v) or letter[v] for v in got)
            out.append("\t".join([corpus, tag, text, label, cells,
                                  ",".join(raised)]))
    return out


def test_verdicts_match_golden():
    want = GOLDEN.read_text().splitlines()
    got = render_verdicts()
    for i, (w, g) in enumerate(zip(want, got), 1):
        assert g == w, f"line {i} differs"
    assert len(got) == len(want)


def test_golden_routes_agree():
    """Read from the golden alone: on each assignment, the routes that gave
    a verdict (T or F, not a raise) gave the same one."""
    cells: "dict[tuple[str, str, str], list[str]]" = {}
    for line in GOLDEN.read_text().splitlines():
        corpus, tag, text, _, row, _ = line.split("\t")
        cells.setdefault((corpus, tag, text), []).append(row)
    disagree = {key for key, rows in cells.items()
                if any({"T", "F"} <= set(column) for column in zip(*rows))}
    assert not disagree, sorted(disagree)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(render_verdicts()) + "\n")
