"""model-ops: the model layers carry all the work, the evaluator none.

Calls into `core`, `order`, `arith` and `cardinal` on seeded codes; no
call reaches `evaluate`. Each answer is checked against plain integer
arithmetic on the codes (sizes are popcounts of codes). Calls that take
under about 10 us are grouped into fixed batches so that no timed
operation is too short for the clock.
"""

from __future__ import annotations

import random
from functools import partial
from time import perf_counter

from hfinterp import arith, cardinal, order
from hfinterp.core import decode, encode

from recorder import InProcess

WIDE_BITS = 20000


def _same(got, want) -> bool:
    return got == want


def _code(got, want: int) -> bool:
    return encode(got) == want


def _size(got, want: int) -> bool:
    return len(got.children) == want


def _decoded(got, n: int) -> bool:
    return encode(got) == n and len(got.children) == n.bit_count()


def _bits(got, want: "tuple[int, ...]") -> bool:
    return got.bits == want


def _injection(got, want) -> bool:
    x, y, exists = want
    if got is None:
        return not exists
    return (exists and set(got) == x.members and len(set(got.values()))
            == len(got) and set(got.values()) <= y.members)


def _kinds(rng: random.Random):
    """(span name, function, check, calls per op, ops per pass, cases).

    A case is (arguments, expected); each kind has a multiple of its batch
    size of them. Ops per pass weigh the kinds so that no single one
    dominates a pass; the wide decode is the heaviest, at about 5 ms per
    call.
    """
    def codes(top, k=256):
        return [rng.randrange(top) for _ in range(k)]

    def pairs(top_x, top_y, k=256):
        return list(zip(codes(top_x, k), codes(top_y, k)))

    o4 = order.ack_order(4)
    wide = [rng.getrandbits(WIDE_BITS) | 1 << (WIDE_BITS - 1)
            for _ in range(8)]
    carry = [65535] + [rng.randrange(65536, 1 << 20) for _ in range(255)]

    def arith_cases(op, top_x, top_y, k=256):
        return [((decode(a), decode(b)), op(a, b))
                for a, b in pairs(top_x, top_y, k)]

    def sized(top_x, top_y, law, k=256):
        return [((decode(a), decode(b)), law(a.bit_count(), b.bit_count()))
                for a, b in pairs(top_x, top_y, k)]

    def injections(top, k=256):
        out = []
        for a, b in pairs(top, top, k):
            x, y = decode(a), decode(b)
            out.append(((x, y), (x, y, a.bit_count() <= b.bit_count())))
        return out

    return [
        ("core.decode_hot", decode, _decoded, 16, 8,
         [((c,), c) for c in codes(4096, 512)]),
        ("core.decode_wide", decode, _decoded, 1, 1,
         [((n,), n) for n in wide]),
        ("core.encode", encode, _same, 64, 8,
         [((decode(c),), c) for c in codes(1 << 16, 1024)]),
        ("order.ack_less", order.ack_less, _same, 32, 8,
         [((decode(a), decode(b)), a < b) for a, b in pairs(4096, 4096)]),
        ("order.lex_less", partial(order.lex_less, o4), _same, 8, 8,
         [((decode(a), decode(b)), a < b)
          for a, b in pairs(1 << 16, 1 << 16)]),
        ("order.successor_in_level", order.successor_a, _code, 8, 8,
         [((decode(c),), c + 1) for c in codes(65535)]),
        ("order.successor_carry", order.successor_a, _code, 4, 4,
         [((decode(c),), c + 1) for c in carry]),
        ("order.position", order.position, _same, 16, 8,
         [((decode(c),), c) for c in codes(1 << 16, 1024)]),
        ("order.numeral", order.numeral, _bits, 1, 4,
         [((decode(c),), tuple((c >> i) & 1 for i in range(c + 1)))
          for c in codes(4096, 32)]),
        ("arith.add.fast", arith.add_a, _code, 32, 4,
         arith_cases(int.__add__, 256, 256)),
        ("arith.mul.fast", arith.mul_a, _code, 32, 4,
         arith_cases(int.__mul__, 256, 256)),
        ("arith.exp.fast", arith.exp_a, _code, 32, 4,
         arith_cases(int.__pow__, 16, 4)),
        ("arith.add.literal", partial(arith.add_a, mode=arith.LITERAL),
         _code, 1, 2, arith_cases(int.__add__, 65, 65, 64)),
        ("arith.mul.literal", partial(arith.mul_a, mode=arith.LITERAL),
         _code, 1, 1, arith_cases(int.__mul__, 16, 16, 64)),
        ("arith.exp.literal", partial(arith.exp_a, mode=arith.LITERAL),
         _code, 1, 2, arith_cases(int.__pow__, 6, 4, 64)),
        ("cardinal.card_add", cardinal.card_add, _size, 1, 4,
         sized(256, 256, int.__add__)),
        ("cardinal.product", cardinal.product, _size, 1, 4,
         sized(256, 256, int.__mul__)),
        ("cardinal.card_exp", cardinal.card_exp, _size, 1, 2,
         sized(64, 16, int.__pow__, 64)),
        ("cardinal.count_functions", cardinal.count_functions, _same, 1, 2,
         sized(256, 16, int.__pow__, 64)),
        ("cardinal.inj_exists", cardinal.inj_exists, _same, 128, 4,
         sized(256, 256, int.__le__, 1024)),
        ("cardinal.injection_search", cardinal.injection_search,
         _injection, 1, 4, injections(64)),
    ]


class Workload(InProcess):

    # every kind's working set cycles in a number of passes dividing 64
    chunk_passes = 64

    def __init__(self, seed: int, rec):
        self.kinds = []
        for name, fn, check, batch, per_pass, cases in \
                _kinds(random.Random(seed)):
            batches = [([args for args, _ in cases[i:i + batch]],
                        [want for _, want in cases[i:i + batch]])
                       for i in range(0, len(cases), batch)]
            self.kinds.append([name, fn, check, batch, per_pass, batches, 0])

    def run_pass(self, rec) -> None:
        for kind in self.kinds:
            name, fn, check, batch, per_pass, batches, at = kind
            for i in range(at, at + per_pass):
                args, wants = batches[i % len(batches)]
                t0 = perf_counter()
                try:
                    got = [fn(*a) for a in args]
                except Exception as e:  # a raise is a failed operation
                    got = e
                t1 = perf_counter()
                ok = not isinstance(got, Exception) and all(
                    map(check, got, wants))
                rec.op([(name, t0, t1, batch)], ok, (name, args, got))
            kind[6] = (at + per_pass) % len(batches)
