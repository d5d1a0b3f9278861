"""Command-line interface: subcommands, verdict wording, exit codes.

Exit code contract: 0 pass/true, 1 fail/false, 2 budget, 64 syntax or
usage error, 65 language mismatch, 66 unreadable corpus, 70 internal
error.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hfinterp import cli, verify
from hfinterp.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def test_encode_set_literal(capsys):
    rc, out, _ = run(capsys, "encode", "{{}}")
    assert (rc, out) == (0, "1\n")
    rc, out, _ = run(capsys, "encode", "{{}, {{}}}")
    assert (rc, out) == (0, "3\n")
    rc, out, _ = run(capsys, "encode", "#5")
    assert (rc, out) == (0, "5\n")


def test_decode_code(capsys):
    rc, out, _ = run(capsys, "decode", "3")
    assert (rc, out) == (0, "{{}, {{}}}\n")
    rc, out, _ = run(capsys, "decode", "0")
    assert (rc, out) == (0, "{}\n")


def test_encode_decode_round_trip(capsys):
    for code in (0, 1, 7, 100, 255):
        _, literal, _ = run(capsys, "decode", str(code))
        rc, out, _ = run(capsys, "encode", literal.strip())
        assert (rc, out) == (0, f"{code}\n")


def test_bad_literal_and_negative_code_are_syntax_errors(capsys):
    rc, _, err = run(capsys, "encode", "{{,}")
    assert rc == 64 and "syntax error" in err
    rc, _, err = run(capsys, "decode", "-1")
    assert rc == 64 and "syntax error" in err


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------

def test_translate_arith_into_set_language(capsys):
    rc, out, _ = run(capsys, "translate", "--map", "d", "0 = 0")
    assert (rc, out) == (0, "0e = 0e\n")


def test_translate_membership_into_arithmetic(capsys):
    rc, out, _ = run(capsys, "translate", "--map", "a", "x in y")
    assert rc == 0
    assert "exp(2, x + 1)" in out and "exists n < y" in out


def test_translate_composition_round_trip(capsys):
    rc, out, _ = run(capsys, "translate", "--map", "ad", "x < y")
    assert rc == 0 and "x" in out and "y" in out


def test_translate_wrong_language_is_syntax_error(capsys):
    # the source language of map 'a' is the set language
    rc, _, err = run(capsys, "translate", "--map", "a", "0 = 0")
    assert rc == 64 and "syntax error" in err


def test_translate_ill_typed_composition_is_language_mismatch(capsys):
    rc, _, err = run(capsys, "translate", "--map", "dd", "0 = 0")
    assert rc == 65 and "language mismatch" in err
    rc, _, err = run(capsys, "translate", "--map", "q", "0 = 0")
    assert rc == 65


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_set_membership_with_bindings(capsys):
    rc, out, _ = run(capsys, "eval", "--set", "x in y",
                     "-b", "x=#1", "-b", "y=#3")
    assert (rc, out) == (0, "true\n")
    rc, out, _ = run(capsys, "eval", "--set", "x in y",
                     "-b", "x=#2", "-b", "y=#3")
    assert (rc, out) == (1, "false\n")


def test_eval_arith_with_term_bindings(capsys):
    rc, out, _ = run(capsys, "eval", "--arith", "x * x = 9",
                     "-b", "x=S(S(S(0)))")
    assert (rc, out) == (0, "true\n")


def test_eval_bounded_formula_has_plain_verdict(capsys):
    rc, out, _ = run(capsys, "eval", "--arith", "forall x < 10. x < 11")
    assert (rc, out) == (0, "true\n")


def test_eval_unbounded_formula_reports_cutoff(capsys):
    rc, out, _ = run(capsys, "eval", "--arith", "exists y. 0 < y")
    assert (rc, out) == (0, "true at cutoff 256\n")
    # at the cutoff the largest value has no larger witness below it
    rc, out, _ = run(capsys, "eval", "--arith", "forall x. exists y. x < y",
                     "--nat-cutoff", "64")
    assert (rc, out) == (1, "false at cutoff 64\n")


def test_eval_unbound_variable_is_syntax_error(capsys):
    rc, _, err = run(capsys, "eval", "--arith", "x = x")
    assert rc == 64 and "unbound variables: x" in err


def test_eval_binding_must_be_closed(capsys):
    rc, _, err = run(capsys, "eval", "--arith", "x = x", "-b", "x=y+1")
    assert rc == 64 and "closed term" in err


def test_eval_budget_exhaustion(capsys):
    rc, _, err = run(capsys, "eval", "--arith", "exp(2, 70) = exp(2, 70)",
                     "--code-budget", "64")
    assert rc == 2 and "budget" in err


@pytest.mark.parametrize("argv", [
    ("--set", "expc(x, y) = expc(x, y)", "-b", "x=#3", "-b", "y=#3"),
    # the code-side image reads the same budget
    ("--arith", "cexpc(x, y) = cexpc(x, y)", "-b", "x=3", "-b", "y=3"),
], ids=["set", "arith"])
def test_function_space_past_the_enum_budget(capsys, argv):
    # 2^2 functions from a two-member set to itself, against a budget of 2
    rc, out, err = run(capsys, "eval", *argv, "--enum-budget", "2")
    assert (rc, out) == (2, "")
    assert "function space exceeds the enumeration budget" in err


@pytest.mark.parametrize("argv", [
    ("--set", "expa(x, y) = expa(x, y)", "-b", "x=#3", "-b", "y=#100"),
    # its a-image: both sides read the context's code budget
    ("--arith", "exp(x, y) = exp(x, y)", "-b", "x=3", "-b", "y=100"),
], ids=["set", "arith"])
def test_exponentiation_past_the_code_budget(capsys, argv):
    # 3^100 needs 159 bits: past a budget of 64, with its slack of 64
    rc, out, err = run(capsys, "eval", *argv, "--code-budget", "64")
    assert (rc, out) == (2, "")
    assert "budget" in err


#: a bit guard on v and y whose inner variable is y again: the y of its
#: equation is the inner one, so the guard is unsatisfiable, the
#: implication holds for every v, and the members of y must not be walked
CAPTURED_HOST_GUARD = (
    "forall v < y. (exists n < y. exists y < exp(2, v). "
    "y = exp(2, v + 1) * n + exp(2, v) + y) -> 0 = 1")


@pytest.mark.parametrize("solver", [(), ("--no-solver",)],
                         ids=["solver", "no-solver"])
def test_guard_whose_inner_variable_captures_the_host(capsys, solver):
    rc, out, _ = run(capsys, "eval", "--arith", CAPTURED_HOST_GUARD,
                     "-b", "y=5", *solver)
    assert (rc, out) == (0, "true\n")


def test_eval_literal_mode_small_values(capsys):
    rc, out, _ = run(capsys, "eval", "--arith", "2 + 3 = 5",
                     "--mode", "literal")
    assert (rc, out) == (0, "true\n")


def test_eval_no_solver_still_correct(capsys):
    rc, out, _ = run(capsys, "eval", "--set",
                     "forall u in x. u <a x", "-b", "x=#7", "--no-solver")
    assert (rc, out) == (0, "true\n")


@pytest.mark.parametrize("argv", [
    ("eval", "--arith", "0 = 0"),
    ("eval", "--set", "0e = 0e"),
    ("translate", "--map", "a", "x in y"),
    ("translate", "--map", "d", "x < y"),
])
def test_deeply_nested_negations(capsys, argv):
    # the tree walkers spend a bounded number of frames per level, so
    # 900 nested negations stay inside Python's default recursion limit
    *head, formula = argv
    rc, _, _ = run(capsys, *head, "!" * 900 + formula)
    assert rc in (0, 1)


FLAT_SUM = "0 = " + "+".join(["1"] * 600)


def test_flat_sum_evaluates(capsys):
    # the parser builds a 600-term sum in a loop; the term walkers take one
    # frame per level, so evaluating it stays inside the recursion limit
    rc, out, _ = run(capsys, "eval", "--arith", FLAT_SUM)
    assert (rc, out) == (1, "false\n")


def test_flat_sum_translates(capsys):
    rc, out, _ = run(capsys, "translate", "--map", "d", FLAT_SUM)
    assert rc == 0
    assert out == "0e = " + " +a ".join(["#1"] * 600) + "\n"


NESTED_SUCC = "0 = " + "S(" * 250 + "0" + ")" * 250


def test_deeply_nested_term_is_a_syntax_error(capsys):
    # the parser takes several frames per parenthesised application
    rc, out, err = run(capsys, "eval", "--arith", NESTED_SUCC)
    assert (rc, out) == (64, "")
    assert err == "syntax error: formula nested too deeply\n"


@pytest.mark.parametrize("argv", [
    # map o turns each + into an existential and a conjunction, so the
    # image of a 500-term sum is about 1000 formula levels deep
    ("translate", "--map", "o", "0 = " + "+".join(["1"] * 500)),
    ("encode", "{" * 3000 + "}" * 3000),
], ids=["translate-o", "encode"])
def test_too_deep_input_is_a_budget_incompletion(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "budget: input nested too deeply for the recursion limit\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_human_output(capsys):
    rc, out, _ = run(capsys, "verify", "cardinal", "--no-timestamp")
    assert rc == 0
    assert "suite: cardinal" in out
    assert "context:" in out
    assert "[pass]" in out
    assert "0 fail, 0 budget" in out
    assert "exit: 0" in out
    assert "finished:" not in out


def test_verify_human_output_has_timestamp_by_default(capsys):
    rc, out, _ = run(capsys, "verify", "cardinal")
    assert rc == 0 and "finished:" in out
    finished = out.splitlines()[-1]
    assert re.fullmatch(r"finished: \S+ \(elapsed \d+\.\d s\)", finished)


def test_verify_json_output_is_byte_stable(capsys):
    rc1, out1, _ = run(capsys, "verify", "cardinal", "--format", "json",
                       "--no-timestamp")
    rc2, out2, _ = run(capsys, "verify", "cardinal", "--format", "json",
                       "--no-timestamp")
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"reports", "exit_status"}
    assert payload["exit_status"] == 0
    assert payload["reports"][0]["suite"] == "cardinal"
    assert payload["reports"][0]["totals"]["fail"] == 0


def test_verify_json_timestamp_present_by_default(capsys):
    rc, out, _ = run(capsys, "verify", "cardinal", "--format", "json")
    assert rc == 0 and "timestamp" in json.loads(out)


def test_verify_failing_corpus_exits_one(tmp_path, capsys):
    # 'x = x' holds for every set, so the 'base' annotation is wrong
    corpus = tmp_path / "bad.txt"
    corpus.write_text("base :: x = x\n")
    rc, out, _ = run(capsys, "verify", "opei", "--corpus", str(corpus),
                     "--no-timestamp", "--set-cutoff", "16")
    assert rc == 1
    assert "[fail]" in out and "counterexample" in out and "exit: 1" in out


def test_verify_opei_small_cutoffs_pass(capsys):
    rc, out, _ = run(capsys, "verify", "opei", "--no-timestamp",
                     "--set-cutoff", "32")
    assert rc == 0 and "0 fail" in out


@pytest.mark.parametrize("argv,budget_cases", [
    (["axioms", "--set-cutoff", "32", "--enum-budget", "4"],
     ("power", "least-level")),
    (["cardinal", "--enum-budget", "8"],
     ("size-of-product", "size-of-function-space", "function-count")),
])
def test_verify_budget_prints_the_report_and_exits_two(capsys, argv,
                                                       budget_cases):
    # a case that runs out of budget reads as budget, and the others run
    rc, out, err = run(capsys, "verify", *argv, "--no-timestamp")
    assert rc == 2 and err == ""
    assert out.startswith(f"suite: {argv[0]}\n") and "exit: 2" in out
    assert ", 0 fail, " in out and "[pass]" in out
    for case_id in budget_cases:
        assert f"[budget] {case_id} — " in out


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 64


def test_missing_subcommand_rejected(capsys):
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# usage errors, unreadable input, internal errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["verify", "theorem6", "--max-code", "0"],
    ["verify", "theorem6", "--max-code", "-5"],
    ["eval", "--arith", "forall x. x = x", "--nat-cutoff", "-1"],
    ["eval", "--set", "forall x. x = x", "--set-cutoff", "-1"],
    ["eval", "--arith", "0 = 0", "--code-budget", "-1"],
    ["eval", "--arith", "0 = 0", "--enum-budget", "-1"],
    ["eval", "--arith", "0 = 0", "--literal-cutoff", "-1"],
    ["eval", "--arith", "0 = 0", "--nat-cutoff", "ten"],
])
def test_out_of_range_numeric_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "error: argument --" in err and "Traceback" not in err


def test_zero_cutoffs_and_budgets_are_accepted(capsys):
    rc, out, _ = run(capsys, "eval", "--arith", "forall x. x = x",
                     "--nat-cutoff", "0")
    assert (rc, out) == (0, "true at cutoff 0\n")


@pytest.mark.parametrize("corpus", ["dir", "missing.txt"])
def test_unreadable_corpus_exits_66(tmp_path, capsys, corpus):
    rc, out, err = run(capsys, "verify", "opei", "--corpus",
                       str(tmp_path / corpus) if corpus != "dir"
                       else str(tmp_path), "--no-timestamp")
    assert rc == 66 and out == ""
    assert err.startswith("cannot read corpus: ") and err.count("\n") == 1


@pytest.mark.parametrize("corpus", ["missing.txt", "readable.txt"])
def test_verify_all_refuses_a_corpus(tmp_path, capsys, monkeypatch, corpus):
    # 'all' runs every suite on its packaged corpus, so a corpus is a
    # usage error whether or not the file can be read, and nothing runs
    path = tmp_path / corpus
    if corpus == "readable.txt":
        path.write_text("base :: x = x\n")
    monkeypatch.setattr(verify, "check_axioms", None)  # the first to run
    rc, out, err = run(capsys, "verify", "all", "--corpus", str(path),
                       "--no-timestamp")
    assert rc == 64 and out == ""
    assert err.startswith("usage error: a corpus") and err.count("\n") == 1


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_decode", boom)
    rc, out, err = run(capsys, "decode", "3")
    assert rc == 70 and out == ""
    assert err.startswith("internal error:\n")
    assert "Traceback" in err and "RuntimeError: boom" in err


# ---------------------------------------------------------------------------
# each command loads only what it runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,absent", [
    (["decode", "5"], ("evaluate", "formulas", "order", "verify")),
    (["encode", "{{}, #2}"], ("evaluate", "formulas", "order", "verify")),
    (["translate", "--map", "a", "x in y"], ("evaluate", "verify")),
    (["eval", "--set", "x in y", "-b", "x=#1", "-b", "y=#3"], ("verify",)),
])
def test_command_imports_only_what_it_runs(argv, absent):
    # a fresh interpreter per command: this test process has every
    # module loaded already
    script = ("import sys\n"
              "from hfinterp import cli\n"
              f"rc = cli.main({argv!r})\n"
              "print(json.dumps([rc, sorted(sys.modules)]))\n")
    p = subprocess.run([sys.executable, "-c", "import json\n" + script],
                       capture_output=True, text=True, timeout=60,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert p.returncode == 0, p.stderr
    rc, loaded = json.loads(p.stdout.splitlines()[-1])
    assert rc == 0
    assert not {f"hfinterp.{m}" for m in absent} & set(loaded)
