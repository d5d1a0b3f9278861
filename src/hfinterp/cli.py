"""Command-line interface: encode/decode sets, translate and evaluate
formulas in either language, and run the verification suites.

Exit codes: 0 success (all cases pass / formula true), 1 a case failed or
the formula is false, 2 only budget incompletions, 64 syntax or usage
error, 65 language mismatch, 66 unreadable corpus, 70 internal error,
74 stdout closed before the output was written (``hf ... | head``).

Each command imports only the modules it runs, so `encode` and `decode`
load `core` alone.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial

from .core import FAST, LITERAL, decode, encode, format_set, parse_set_literal
from .errors import (
    BudgetExceeded,
    CorpusUnreadable,
    FormulaSyntaxError,
    LanguageMismatch,
    NotAnOrdinal,
    UsageError,
)

SUITES = ("axioms", "opei", "theorem6", "roundtrip-ad", "roundtrip-da",
          "cardinal", "selftest", "all")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 64, like syntax errors; 2 means budget here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {n}")
        return n
    parse.__name__ = "int"  # a non-integer reads "invalid int value"
    return parse


def _add_context_args(p: argparse.ArgumentParser) -> None:
    # each option's dest is an `EvalContext` field, and an option not
    # given leaves its field at the dataclass default
    add = partial(p.add_argument, default=argparse.SUPPRESS)
    add("--nat-cutoff", type=_at_least(0),
        help="range of unbounded arithmetic quantifiers")
    add("--set-cutoff", type=_at_least(0),
        help="code range of unbounded set quantifiers")
    add("--code-budget", type=_at_least(0),
        help="bit-length cap on computed codes")
    add("--enum-budget", type=_at_least(0),
        help="cap on enumerated collections")
    add("--literal-cutoff", type=_at_least(0),
        help="operand position cap for literal-mode arithmetic")
    add("--mode", choices=(FAST, LITERAL),
        help="route for the order-arithmetic operations")
    add("--no-solver", dest="solver", action="store_false",
        help="turn off the quantifier deciders; walk each domain")


def _context(args: argparse.Namespace):
    from dataclasses import fields

    from .evaluate import EvalContext

    given = vars(args)
    return EvalContext(**{f.name: given[f.name] for f in fields(EvalContext)
                          if f.name in given})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hf",
        description="Hereditarily finite sets, their coding as naturals, "
                    "and interpretations between the two languages.")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="print the code of a set literal")
    enc.add_argument("literal", help="set literal, e.g. '{{}, {{}}}'")

    dec = sub.add_parser("decode", help="print the set literal of a code")
    dec.add_argument("code", type=int)

    tr = sub.add_parser("translate",
                        help="translate a formula through an interpretation")
    tr.add_argument("--map", required=True, dest="map_tag", metavar="TAG",
                    help="map letters, rightmost applied first "
                         "(a, c, o, d, or compositions like da)")
    tr.add_argument("formula")

    ev = sub.add_parser("eval", help="evaluate a formula")
    lang = ev.add_mutually_exclusive_group(required=True)
    lang.add_argument("--arith", action="store_true",
                      help="the formula is arithmetic")
    lang.add_argument("--set", dest="set_lang", action="store_true",
                      help="the formula is set-language")
    ev.add_argument("formula")
    ev.add_argument("-b", "--bind", action="append", default=[],
                    metavar="NAME=TERM",
                    help="bind a free variable to a closed term")
    _add_context_args(ev)

    ve = sub.add_parser("verify", help="run a verification suite")
    ve.add_argument("suite", choices=SUITES)
    ve.add_argument("--max-code", type=_at_least(1), default=4096,
                    help="exhaustive pair range for the membership suite")
    ve.add_argument("--corpus", default=None,
                    help="corpus file overriding the packaged one")
    ve.add_argument("--format", choices=("human", "json"), default="human",
                    dest="fmt")
    ve.add_argument("--no-timestamp", action="store_true",
                    help="omit the timestamp for byte-stable output")
    _add_context_args(ve)

    return parser


def _cmd_encode(args) -> int:
    x = parse_set_literal(args.literal)
    print(encode(x))
    return 0


def _cmd_decode(args) -> int:
    if args.code < 0:
        raise FormulaSyntaxError("codes are naturals")
    print(format_set(decode(args.code)))
    return 0


def _cmd_translate(args) -> int:
    from .formulas import show_arith, show_set
    from .interp import get_map
    from .parser import parse_arith, parse_set

    m = get_map(args.map_tag)
    if m.source == "arith":
        f = parse_arith(args.formula)
    else:
        f = parse_set(args.formula)
    g = m(f)
    print(show_arith(g) if m.target == "arith" else show_set(g))
    return 0


def _parse_bindings(args, ctx, parse_term, evaluate) -> dict:
    from .formulas import free_vars

    env = {}
    for item in args.bind:
        if "=" not in item:
            raise FormulaSyntaxError(
                f"binding {item!r} is not of the form NAME=TERM")
        name, text = item.split("=", 1)
        name = name.strip()
        term = parse_term(text.strip())
        if free_vars(term):
            raise FormulaSyntaxError(
                f"binding for {name} must be a closed term")
        env[name] = evaluate(term, {}, ctx)
    return env


def _cmd_eval(args) -> int:
    from .evaluate import eval_arith, eval_set
    from .formulas import free_vars, is_bounded
    from .parser import parse_arith, parse_arith_term, parse_set, \
        parse_set_term

    ctx = _context(args)
    # eval_set and eval_arith compile and run any tree of their language,
    # term or formula, so one evaluator serves the bindings and the formula
    parse, parse_term, evaluate, cutoff = (
        (parse_set, parse_set_term, eval_set, ctx.set_cutoff)
        if args.set_lang else
        (parse_arith, parse_arith_term, eval_arith, ctx.nat_cutoff))
    env = _parse_bindings(args, ctx, parse_term, evaluate)
    f = parse(args.formula)
    missing = free_vars(f) - set(env)
    if missing:
        raise FormulaSyntaxError(
            f"unbound variables: {', '.join(sorted(missing))} "
            "(bind them with -b NAME=TERM)")
    value = evaluate(f, env, ctx)
    verdict = "true" if value else "false"
    if not is_bounded(f):
        verdict += f" at cutoff {cutoff}"
    print(verdict)
    return 0 if value else 1


def _human_report(rep) -> str:
    import json

    lines = [f"suite: {rep.suite}"]
    ctx_items = ", ".join(f"{k}={v}" for k, v in rep.context.items())
    lines.append(f"  context: {ctx_items}")
    for c in rep.cases:
        line = f"  [{c.verdict}] {c.id}"
        if c.note:
            line += f" — {c.note}"
        lines.append(line)
        if c.counterexample is not None:
            lines.append(f"      counterexample: "
                         f"{json.dumps(c.counterexample, sort_keys=True)}")
    t = rep.totals
    lines.append(f"  totals: {t['pass']} pass, {t['fail']} fail, "
                 f"{t['budget']} budget")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    import json
    from datetime import datetime, timezone

    from .verify import run_suite

    ctx = _context(args)
    t0 = time.perf_counter()
    reports = run_suite(args.suite, ctx, max_code=args.max_code,
                        corpus=args.corpus)
    elapsed = time.perf_counter() - t0
    status = max(r.exit_status for r in reports)
    if args.fmt == "json":
        payload: dict = {"reports": [r.as_dict() for r in reports],
                         "exit_status": status}
        if not args.no_timestamp:
            payload["timestamp"] = datetime.now(timezone.utc).isoformat()
        print(json.dumps(payload, indent=2))
    else:
        for rep in reports:
            print(_human_report(rep))
        print(f"exit: {status}")
        if not args.no_timestamp:
            print(f"finished: {datetime.now(timezone.utc).isoformat()} "
                  f"(elapsed {elapsed:.1f} s)")
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "encode": _cmd_encode,
        "decode": _cmd_decode,
        "translate": _cmd_translate,
        "eval": _cmd_eval,
        "verify": _cmd_verify,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader went away (`hf ... | head`): point stdout at devnull
        # so the interpreter's last flush stays quiet; 74 is EX_IOERR
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 74
    except FormulaSyntaxError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return 64
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    except LanguageMismatch as e:
        print(f"language mismatch: {e}", file=sys.stderr)
        return 65
    except (BudgetExceeded, NotAnOrdinal) as e:
        print(f"budget: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # an input, or a formula's image, nested deeper than the walkers
        # (one frame per level) can follow within the recursion limit
        print("budget: input nested too deeply for the recursion limit",
              file=sys.stderr)
        return 2
    except CorpusUnreadable as e:
        print(f"cannot read corpus: {e}", file=sys.stderr)
        return 66
    except Exception:
        # exit 1 means "a case failed or the formula is false": a defect
        # must never read as a verdict
        import traceback

        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 70


if __name__ == "__main__":
    sys.exit(main())
