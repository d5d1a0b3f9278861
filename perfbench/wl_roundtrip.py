"""roundtrip: many formula shapes, fewer evaluations of each.

Every line of arith.txt goes through map ``ad`` and every line of set.txt
through map ``da``. Each pass parses and translates every line once, then
evaluates its source and its image on the same number of seeded
assignments below 256. An operation is one assignment; it passes when
source and image agree. Any per-formula compile or cache cost shows here,
and `parser` and `interp` carry some of the load.

Assignments come from one seeded permutation of 0..255 per free variable
of each line, consumed ASSIGNMENTS at a time, so that every PERIOD passes
each variable takes every value once. The cost of an evaluation depends
strongly on the values (``forall u in P(x). ...`` grows as 2^|x|), so a
chunk of the timed window is a whole PERIOD: every chunk then does the
same work.
"""

from __future__ import annotations

import random
from time import perf_counter

from hfinterp.core import decode
from hfinterp.evaluate import EvalContext, eval_arith, eval_set
from hfinterp.formulas import free_vars
from hfinterp.interp import get_map
from hfinterp.parser import parse_arith, parse_set
from hfinterp.verify import load_corpus

from recorder import WINDOW, InProcess

VALUES = 256
ASSIGNMENTS = 32
PERIOD = VALUES // ASSIGNMENTS

# corpus, map, parse, span suffix, evaluator
SIDES = (
    ("arith.txt", "ad", parse_arith, "arith", eval_arith),
    ("set.txt", "da", parse_set, "set", eval_set),
)


class Workload(InProcess):

    chunk_passes = PERIOD

    def __init__(self, seed: int, rec):
        rng = random.Random(seed)
        sets = [decode(c) for c in range(VALUES)]
        self.ctx = EvalContext()
        self.lines = []
        for corpus, maps, parse, lang, evaluate in SIDES:
            m = get_map(maps)
            names = (f"parser.parse_{lang}", f"interp.translate.{maps}",
                     f"evaluate.eval_{lang}.source",
                     f"evaluate.eval_{lang}.image")
            for src in load_corpus(corpus):
                fv = sorted(free_vars(parse(src)))
                perms = []
                for _ in fv:
                    p = list(range(VALUES))
                    rng.shuffle(p)
                    perms.append(p)
                envs = []
                for k in range(VALUES):
                    codes = tuple(p[k] for p in perms)
                    values = codes if lang == "arith" \
                        else [sets[c] for c in codes]
                    envs.append((dict(zip(fv, values)), codes))
                self.lines.append((src, parse, m, evaluate, names, envs))
        self.passes = 0
        self.busy = [0.0] * len(self.lines)

    def run_pass(self, rec) -> None:
        ctx = self.ctx
        lo = (self.passes % PERIOD) * ASSIGNMENTS
        self.passes += 1
        for i, (src, parse, m, evaluate, names, envs) in \
                enumerate(self.lines):
            parse_name, map_name, src_name, img_name = names
            t0 = perf_counter()
            f = parse(src)
            t1 = perf_counter()
            g = m(f)
            t2 = perf_counter()
            rec.aside([(parse_name, t0, t1, 1), (map_name, t1, t2, 1)])
            busy = t2 - t0
            for env, codes in envs[lo:lo + ASSIGNMENTS]:
                t0 = perf_counter()
                try:
                    a = evaluate(f, env, ctx)
                except Exception as e:  # a raise is a failed operation
                    a = e
                t1 = perf_counter()
                try:
                    b = evaluate(g, env, ctx)
                except Exception as e:
                    b = e
                t2 = perf_counter()
                rec.op([(src_name, t0, t1, 1), (img_name, t1, t2, 1)],
                       a == b, (src, codes, a, b))
                busy += t2 - t0
            if rec.phase == WINDOW:
                self.busy[i] += busy

    def extra_metrics(self) -> dict:
        """Share of the timed loop's busy time spent on its costliest line."""
        top = max(range(len(self.lines)), key=self.busy.__getitem__)
        return {"roundtrip.top_formula_share":
                self.busy[top] / sum(self.busy),
                "roundtrip.top_formula": self.lines[top][0]}
