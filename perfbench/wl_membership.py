"""membership: one formula evaluated a very large number of times.

The membership bit formula read back into the set language,
``translate_d(membership_bit_formula())``, is evaluated by `eval_set` on
seeded code pairs. Every pass mixes the four routes the theorem6 suite
keeps independent: fast and literal order arithmetic, each with the
chain solver on and off. Per-evaluation cost in `evaluate` dominates; the
formula is built once, in set-up. Answers are checked against the bit
test on the codes, ``(y >> x) & 1``, and `core.mem` is checked against it
too. The ``fast-exhaustive`` closed form is left out: it bypasses the
evaluator.
"""

from __future__ import annotations

import itertools
import random
from time import perf_counter

from hfinterp.core import decode, mem
from hfinterp.evaluate import EvalContext, eval_set
from hfinterp.interp import translate_d
from hfinterp.verify import membership_bit_formula

from recorder import InProcess

# (span name, mode, solver, codes below, evaluations per pass, working set).
# The counts give each route roughly 20-35% of a pass at the measured cost
# of about 60 us, 140 us, 2.3 ms and 7 ms per evaluation (2-CPU x86-64,
# Python 3.11). A grid no larger than its working set is used whole.
ROUTES = (
    ("evaluate.eval_set.fast_solver", "fast", True, 4096, 160, 1280),
    ("evaluate.eval_set.literal_solver", "literal", True, 64, 64, 256),
    ("evaluate.eval_set.fast_walk", "fast", False, 8, 4, 64),
    ("evaluate.eval_set.literal_walk", "literal", False, 4, 2, 16),
)


class Workload(InProcess):

    # every route's working set cycles in a number of passes dividing 16
    chunk_passes = 16

    def __init__(self, seed: int, rec, mutation: "str | None" = None):
        rng = random.Random(seed)
        t0 = perf_counter()
        self.formula = translate_d(membership_bit_formula(mutation))
        rec.aside([("interp.translate_d", t0, perf_counter(), 1)])
        self.routes = []
        for name, mode, solver, top, per_pass, size in ROUTES:
            if top * top <= size:
                pairs = list(itertools.product(range(top), repeat=2))
                rng.shuffle(pairs)
            else:
                pairs = [(rng.randrange(top), rng.randrange(top))
                         for _ in range(size)]
            work = []
            for cx, cy in pairs:
                x, y = decode(cx), decode(cy)
                want = (cy >> cx) & 1 == 1
                t0 = perf_counter()
                got = mem(x, y)
                t1 = perf_counter()
                rec.op([("core.mem", t0, t1, 1)], got == want,
                       ("core.mem", cx, cy, got))
                work.append(({"x": x, "y": y}, want, cx, cy))
            ctx = EvalContext(mode=mode, solver=solver)
            self.routes.append([name, ctx, work, per_pass, 0])

    def run_pass(self, rec) -> None:
        f = self.formula
        for route in self.routes:
            name, ctx, work, per_pass, at = route
            for i in range(at, at + per_pass):
                env, want, cx, cy = work[i % len(work)]
                t0 = perf_counter()
                try:
                    got = eval_set(f, env, ctx)
                except Exception as e:  # a raise is a failed operation
                    got = e
                t1 = perf_counter()
                rec.op([(name, t0, t1, 1)], got == want,
                       (name, cx, cy, got))
            route[4] = (at + per_pass) % len(work)
