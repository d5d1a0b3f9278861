"""cli-oneshot: the ``hf`` command as users run it, one process per call.

Runs ``python -m hfinterp.cli`` as one fresh subprocess at a time over a
fixed list of commands with seeded arguments. This is the only workload
where process start, import and argparse count, and the only one that
reaches `verify` and `cli` through the command users run. Every command's
exit code and stdout are checked against answers the benchmark works out
itself: set literals and bit tests from plain integer arithmetic, and the
documented output of the fixed commands.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

TRANSLATED = ("exists n < y. exists m < exp(2, x). "
              "y = exp(2, x + 1) * n + exp(2, x) + m\n")

#: command -> times per pass. The cheap commands repeat so that the half
#: of two passes that gives the figures has a tail percentile above the
#: median (p75 needs 40 samples).
PASS = {
    "encode": 8, "decode": 8, "translate_a": 4, "eval_set": 8,
    "eval_set_no_solver": 6, "eval_arith": 4,
    # pays for the cold ack_order(5) build: about 4 s
    "eval_literal": 1,
    "verify_cardinal": 1, "verify_selftest": 1,
}


def literal(n: int) -> str:
    """The set literal of code n, members in ascending code order."""
    members = [literal(i) for i in range(n.bit_length()) if (n >> i) & 1]
    return "{" + ", ".join(members) + "}"


def _verdict(value: bool) -> "tuple[int, str]":
    return (0, "true\n") if value else (1, "false\n")


def _suite_passed(rc: int, out: str) -> bool:
    return rc == 0 and out.endswith("exit: 0\n") \
        and " 0 fail, 0 budget" in out


class Workload:

    in_process = False

    def __init__(self, seed: int, rec):
        self.rng = random.Random(seed)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.order = [name for name, k in PASS.items() for _ in range(k)]

    def _command(self, name: str):
        """(argv, check) for one seeded instance of the named command."""
        rng = self.rng
        if name == "encode":
            c = rng.randrange(4096)
            return ["encode", literal(c)], \
                lambda rc, out: (rc, out) == (0, f"{c}\n")
        if name == "decode":
            c = rng.randrange(4096)
            return ["decode", str(c)], \
                lambda rc, out: (rc, out) == (0, literal(c) + "\n")
        if name == "translate_a":
            return ["translate", "--map", "a", "x in y"], \
                lambda rc, out: (rc, out) == (0, TRANSLATED)
        if name in ("eval_set", "eval_set_no_solver"):
            x, y = rng.randrange(12), rng.randrange(4096)
            argv = ["eval", "--set", "x in y", "-b", f"x=#{x}",
                    "-b", f"y=#{y}"]
            if name == "eval_set_no_solver":
                argv.append("--no-solver")
            want = _verdict((y >> x) & 1 == 1)
            return argv, lambda rc, out: (rc, out) == want
        if name == "eval_arith":
            return ["eval", "--arith", "forall x. exists y. x < y"], \
                lambda rc, out: (rc, out) == (1, "false at cutoff 256\n")
        if name == "eval_literal":
            x, y = rng.randrange(32), rng.randrange(32)
            z = x + y + rng.randrange(2)
            want = _verdict(z == x + y)
            return ["eval", "--set", "x +a y = z", "--mode", "literal",
                    "-b", f"x=#{x}", "-b", f"y=#{y}", "-b", f"z=#{z}"], \
                lambda rc, out: (rc, out) == want
        if name in ("verify_cardinal", "verify_selftest"):
            return ["verify", name.split("_")[1], "--no-timestamp"], \
                _suite_passed
        raise ValueError(name)

    def _run(self, rec, span: str, argv, check) -> None:
        t0 = perf_counter()
        try:
            p = subprocess.run(argv, cwd=ROOT, env=self.env,
                               capture_output=True, text=True,
                               timeout=TIMEOUT_S)
            ok = check(p.returncode, p.stdout)
            detail = (argv, p.returncode, p.stdout[-200:], p.stderr[-200:])
        except subprocess.TimeoutExpired as e:
            ok, detail = False, (argv, "timeout", str(e))
        t1 = perf_counter()
        rec.op([(span, t0, t1, 1)], ok, detail)

    def _cli(self, rec, name: str) -> None:
        args, check = self._command(name)
        self._run(rec, f"cli.{name}",
                  [sys.executable, "-m", "hfinterp.cli", *args], check)

    def warm_up(self, rec) -> None:
        """One untimed call, so the first timed one finds the files cached."""
        self._run(rec, "cli.decode",
                  [sys.executable, "-m", "hfinterp.cli", "decode", "0"],
                  lambda rc, out: (rc, out) == (0, "{}\n"))

    def run_pass(self, rec) -> None:
        order = self.order[:]
        self.rng.shuffle(order)
        for name in order:
            self._cli(rec, name)

    def probe(self, rec) -> None:
        """Interpreter start and library import alone, for the trace."""
        for _ in range(5):
            self._run(rec, "cli.python_start", [sys.executable, "-c", "pass"],
                      lambda rc, out: (rc, out) == (0, ""))
            self._run(rec, "cli.import",
                      [sys.executable, "-c", "import hfinterp.cli"],
                      lambda rc, out: (rc, out) == (0, ""))

    def extra_metrics(self) -> dict:
        return {}
