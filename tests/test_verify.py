"""Verification suites: reports, corpus loading, and counterexample replay.

Suites run here at reduced ranges; the full-scale runs with the
documented defaults live in test_acceptance.py.
"""

import json

import pytest

from hfinterp import cardinal, cli, core, evaluate, verify
from hfinterp.errors import LanguageMismatch, NotAnOrdinal
from hfinterp.evaluate import FAST, EvalContext
from hfinterp.formulas import free_vars
from hfinterp.parser import parse_arith, parse_set
from hfinterp.verify import (
    BUDGET,
    FAIL,
    PASS,
    CaseResult,
    Report,
    check_axioms,
    check_cardinal_model,
    check_opei,
    check_roundtrip,
    check_selftest,
    check_theorem6,
    load_annotated_corpus,
    load_corpus,
    membership_bit_formula,
    replay,
    run_suite,
    translatable_lines,
)

SMALL = EvalContext(nat_cutoff=32, set_cutoff=32)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_case_result_as_dict_omits_empty_fields():
    assert CaseResult("a", PASS).as_dict() == {"id": "a", "verdict": PASS}
    full = CaseResult("b", FAIL, {"kind": "x"}, note="n").as_dict()
    assert full == {"id": "b", "verdict": FAIL,
                    "counterexample": {"kind": "x"}, "note": "n"}


def test_report_totals_and_exit_status():
    rep = Report("demo", {"cutoff": 1})
    assert rep.exit_status == 0 and rep.passed

    rep.cases.append(CaseResult("ok", PASS))
    rep.cases.append(CaseResult("slow", BUDGET))
    assert rep.totals == {PASS: 1, FAIL: 0, BUDGET: 1}
    assert rep.exit_status == 2 and not rep.passed

    rep.cases.append(CaseResult("bad", FAIL, {"kind": "demo"}))
    assert rep.exit_status == 1
    assert [c.id for c in rep.failures()] == ["bad"]

    d = rep.as_dict()
    assert d["suite"] == "demo"
    assert d["context"] == {"cutoff": 1}
    assert d["totals"] == {PASS: 1, FAIL: 1, BUDGET: 1}
    assert d["exit_status"] == 1
    assert len(d["cases"]) == 3


# ---------------------------------------------------------------------------
# corpus loading
# ---------------------------------------------------------------------------

def test_load_corpus_list_passthrough_strips_and_drops_comments():
    lines = load_corpus(["# full-line comment", "", "  v = v  ",
                         "0e in #13"])
    # '#' mid-line is the numeral prefix, not a comment
    assert lines == ["v = v", "0e in #13"]


def test_load_corpus_from_file(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# header\nx = x\n\nx in y\n")
    assert load_corpus(p) == ["x = x", "x in y"]
    assert load_corpus(str(p)) == ["x = x", "x in y"]


def test_load_corpus_packaged_names():
    assert len(load_corpus("separation.txt")) == 50
    assert len(load_corpus("arith.txt")) >= 40
    assert len(load_corpus("set.txt")) >= 40


def test_load_annotated_corpus_splits_tags():
    rows = load_annotated_corpus(["holds :: x = x", "x in y"])
    assert rows == [("holds", "x = x"), (None, "x in y")]

    tags = {tag for tag, _ in load_annotated_corpus("opei.txt")}
    assert tags == {"holds", "base", "step"}


def test_packaged_corpora_parse_with_expected_free_variables():
    for line in load_corpus("separation.txt"):
        assert free_vars(parse_set(line)) <= {"v", "p"}
    for _, line in load_annotated_corpus("opei.txt"):
        assert free_vars(parse_set(line)) <= {"x"}
    for line in load_corpus("arith.txt"):
        assert len(free_vars(parse_arith(line))) <= 2
    for line in load_corpus("set.txt"):
        assert len(free_vars(parse_set(line))) <= 2


# ---------------------------------------------------------------------------
# suites at reduced scale
# ---------------------------------------------------------------------------

def test_axioms_suite_passes():
    rep = check_axioms(SMALL)
    assert rep.suite == "axioms" and rep.passed
    families = ("extensionality", "pairing", "union", "power", "separation",
                "foundation", "finiteness", "least-level")
    for fam in families:
        assert any(c.id.startswith(fam) for c in rep.cases), fam
    assert sum(c.id.startswith("separation[") for c in rep.cases) == 50


def test_opei_suite_passes_with_matching_branches():
    rep = check_opei(ctx=SMALL, step_cutoff=16)
    assert rep.suite == "opei" and rep.passed
    notes = " | ".join(c.note for c in rep.cases)
    for branch in ("holds", "base", "step"):
        assert branch in notes


def test_theorem6_small_runs_all_five_legs():
    rep = check_theorem6(SMALL, max_code=128, literal_max_code=16,
                         sample_size=64, honest_max_code=6,
                         literal_honest_max_code=2)
    assert rep.passed
    assert [c.id for c in rep.cases] == [
        "fast-exhaustive", "fast-sampled", "literal-exhaustive",
        "fast-honest-walk", "literal-honest-walk"]
    by_id = {c.id: c for c in rep.cases}
    assert "reconstructed witnesses" in by_id["fast-exhaustive"].note
    assert "full evaluator" in by_id["fast-sampled"].note


@pytest.mark.parametrize("mutation", ["successor", "bit-formula"])
def test_theorem6_mutation_detected_and_replayable(mutation):
    rep = check_theorem6(SMALL, max_code=48, literal_max_code=8,
                         sample_size=32, honest_max_code=4,
                         literal_honest_max_code=2, mutation=mutation)
    failures = rep.failures()
    assert failures
    for c in failures:
        assert replay(c.counterexample, SMALL)


def test_selftest_suite_passes():
    rep = check_selftest(SMALL)
    assert rep.passed
    assert [c.id for c in rep.cases] == [
        "control", "mutation[successor]", "mutation[bit-formula]"]


@pytest.mark.parametrize("maps,count", [("ad", 45), ("da", 44)])
def test_roundtrip_small_passes(maps, count):
    rep = check_roundtrip(maps=maps, ctx=SMALL, value_cutoff=8)
    assert rep.passed
    assert len(rep.cases) == count
    assert all("assignments" in c.note for c in rep.cases)


def test_roundtrip_rejects_open_compositions():
    with pytest.raises(LanguageMismatch):
        check_roundtrip(maps="a", ctx=SMALL)      # set -> arith
    with pytest.raises(LanguageMismatch):
        check_roundtrip(maps="dd", ctx=SMALL)     # ill-typed composition


def test_roundtrip_ordinal_control_fails_and_replays():
    # the ordinal reading is not inverse to the coding, so this
    # composition is a deliberate negative control
    lines = translatable_lines("arith.txt", "ao")
    assert 0 < len(lines) < len(load_corpus("arith.txt"))
    rep = check_roundtrip(lines, "ao", SMALL, value_cutoff=8)
    assert rep.exit_status == 1
    failures = rep.failures()
    assert failures
    for c in failures:
        assert replay(c.counterexample, SMALL)


def test_roundtrip_budget_exhaustion_is_reported():
    tight = EvalContext(nat_cutoff=32, set_cutoff=32, code_budget=64)
    rep = check_roundtrip(["exp(2, x) = exp(2, x)"], "ad", tight,
                          value_cutoff=256)
    assert rep.exit_status == 2
    assert rep.cases[0].verdict == BUDGET
    assert rep.cases[0].counterexample["kind"] == "roundtrip-budget"


def test_cardinal_model_passes():
    rep = check_cardinal_model(SMALL)
    assert rep.passed
    ids = [c.id for c in rep.cases]
    assert "successor-not-zero" in ids
    assert any(i.startswith("law[") for i in ids)
    assert any(i.startswith("injection") for i in ids)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_handles_missing_and_unknown_kinds():
    assert replay(None, SMALL) is False
    with pytest.raises(ValueError):
        replay({"kind": "nonsense"}, SMALL)


@pytest.mark.parametrize("cx,cy", [(0, 0), (3, 5), (5, 3), (100, 255)])
def test_replay_theorem6_does_not_reproduce_on_correct_pairs(cx, cy):
    from hfinterp.core import decode, mem
    c = {"kind": "theorem6", "x_code": cx, "y_code": cy,
         "mem": mem(decode(cx), decode(cy)), "translated": None,
         "mode": FAST, "solver": True, "mutation": None}
    assert replay(c, SMALL) is False


def test_replay_opei_transitivity_step_witness():
    c = {"kind": "opei",
         "formula": "forall u in x. forall v in u. v in x",
         "expected": "holds", "observed": "step",
         "witness": {"x_code": 0, "z_code": 1, "adjoined_code": 2}}
    assert replay(c, SMALL) is True


def test_replay_extensionality_needs_distinct_same_membered_sets():
    assert replay({"kind": "extensionality", "x_code": 3, "y_code": 3},
                  SMALL) is False
    assert replay({"kind": "extensionality", "x_code": 3, "y_code": 5},
                  SMALL) is False


# ---------------------------------------------------------------------------
# harness pieces
# ---------------------------------------------------------------------------

def test_membership_bit_formula_mutations_change_the_formula():
    canonical = membership_bit_formula()
    for mutation in ("successor", "bit-formula"):
        assert membership_bit_formula(mutation) != canonical
    assert membership_bit_formula("successor") \
        != membership_bit_formula("bit-formula")
    with pytest.raises(ValueError):
        membership_bit_formula("nonsense")


def test_run_suite_dispatch():
    with pytest.raises(ValueError):
        run_suite("nonsense", SMALL)
    reports = run_suite("cardinal", SMALL)
    assert [r.suite for r in reports] == ["cardinal"]


def test_run_suite_all_refuses_a_corpus(monkeypatch):
    # 'all' runs each suite on its packaged corpus; a corpus argument must
    # not be dropped silently, and nothing runs before the refusal
    monkeypatch.setattr(verify, "check_axioms", None)
    with pytest.raises(ValueError, match="packaged corpora"):
        run_suite("all", SMALL, corpus="opei.txt")


def test_run_suite_all_runs_each_suite_in_order(monkeypatch):
    calls = []

    def record(name):
        def stub(*args, **kwargs):
            calls.append(name)
            return Report(name, {})
        return stub

    monkeypatch.setattr(verify, "check_axioms", record("axioms"))
    monkeypatch.setattr(verify, "check_opei", record("opei"))
    monkeypatch.setattr(verify, "check_theorem6", record("theorem6"))
    monkeypatch.setattr(verify, "check_cardinal_model", record("cardinal"))
    monkeypatch.setattr(verify, "check_selftest", record("selftest"))

    def roundtrip_stub(corpus, maps, ctx):
        calls.append(f"roundtrip-{maps}")
        return Report(f"roundtrip-{maps}", {})

    monkeypatch.setattr(verify, "check_roundtrip", roundtrip_stub)

    reports = run_suite("all", SMALL)
    expected = ["axioms", "opei", "theorem6", "roundtrip-ad",
                "roundtrip-da", "cardinal", "selftest"]
    assert calls == expected
    assert [r.suite for r in reports] == expected


def test_cli_suite_names_are_run_suite_names(monkeypatch):
    # cli keeps its own tuple so that `hf encode` never imports verify
    def record(name):
        return lambda *args, **kwargs: Report(name, {})

    for check, name in (("check_axioms", "axioms"), ("check_opei", "opei"),
                        ("check_theorem6", "theorem6"),
                        ("check_cardinal_model", "cardinal"),
                        ("check_selftest", "selftest")):
        monkeypatch.setattr(verify, check, record(name))
    monkeypatch.setattr(verify, "check_roundtrip",
                        lambda corpus, maps, ctx: Report(f"roundtrip-{maps}",
                                                         {}))
    names = [r.suite for r in run_suite("all", SMALL)]
    assert cli.SUITES == (*names, "all")
    for name in names:
        assert [r.suite for r in run_suite(name, SMALL)] == [name]


# ---------------------------------------------------------------------------
# budgets: one verdict per case, and the point where the budget ran out
# ---------------------------------------------------------------------------

def _tight(enum_budget: int) -> EvalContext:
    return EvalContext(nat_cutoff=32, set_cutoff=32, enum_budget=enum_budget)


def test_axioms_budget_is_a_budget_verdict_of_its_own_case():
    rep = check_axioms(_tight(4))
    by_id = {c.id: c for c in rep.cases}
    for case_id in ("power", "least-level"):
        assert by_id[case_id].verdict == BUDGET
        assert by_id[case_id].counterexample["kind"] == f"{case_id}-budget"
    assert by_id["power"].counterexample["x_code"] == 7    # 2^3 > 4 subsets
    for case_id in ("extensionality", "pairing", "union", "foundation",
                    "finiteness[size=4]"):
        assert by_id[case_id].verdict == PASS
    assert rep.totals[FAIL] == 0 and rep.exit_status == 2


def test_cardinal_budget_is_a_budget_verdict_of_its_own_case():
    rep = check_cardinal_model(_tight(8))
    by_id = {c.id: c for c in rep.cases}
    for case_id in ("size-of-product", "size-of-function-space",
                    "function-count"):
        assert by_id[case_id].verdict == BUDGET
        assert by_id[case_id].counterexample["kind"] == f"{case_id}-budget"
    for case_id in ("size-of-sum", "injection-oracle", "successor-not-zero"):
        assert by_id[case_id].verdict == PASS
    assert rep.totals[FAIL] == 0 and rep.exit_status == 2


def test_budget_counterexamples_record_their_point_and_replay():
    separation = [c.counterexample for c in check_axioms(_tight(4)).cases
                  if c.id.startswith("separation[") and c.verdict == BUDGET]
    laws = [c.counterexample for c in check_cardinal_model(_tight(8)).cases
            if c.id.startswith("law[") and c.verdict == BUDGET]
    assert separation and laws
    for cex in separation:
        assert cex["kind"] == "separation-budget"
        assert {"formula", "host_code", "param_code", "error"} <= cex.keys()
    for cex in laws:
        assert cex["kind"] == "cardinal-law-budget"
        assert {"formula", "assignment", "error"} <= cex.keys()
    for cex in separation + laws:
        assert replay(cex)
        # a budget large enough for the point does not refuse it again
        assert not replay({**cex, "context": {**cex["context"],
                                              "enum_budget": 1 << 20}})


# ---------------------------------------------------------------------------
# every kind of counterexample replays from its serialized dict alone
# ---------------------------------------------------------------------------

def _theorem6_small(ctx: EvalContext = SMALL, **kwargs):
    return check_theorem6(ctx, max_code=48, literal_max_code=8,
                          sample_size=32, honest_max_code=4,
                          literal_honest_max_code=2, **kwargs)


def _not_an_ordinal(*args):
    raise NotAnOrdinal("forced")


_CANONICAL_BIT = membership_bit_formula
_SOLVE_ORDER_CHAIN = evaluate._solve_order_chain


def _order_chain_off_by_one(solve, names, *rest):
    """The order chain with its code-side witness moved one past the
    solver's, so that the set operations reject it."""
    def shifted(env, ctx):
        witness = solve(env, ctx)
        return witness and {**witness, names[0]: witness[names[0]] + 1}
    return _SOLVE_ORDER_CHAIN(shifted, names, *rest)


# scenario -> (patches, the run, the kinds it must report): each patch
# corrupts one primitive a checker reads; the unpatched runs fail by
# design (mutations, the ordinal control) or run out of budget
FORCED = {
    "mem-always-true": (
        [(verify, "mem", lambda x, y: True)], lambda: check_axioms(SMALL),
        {"extensionality", "separation", "foundation", "least-level"}),
    "pair-empty": (
        [(verify, "pair", lambda x, y: core.empty())],
        lambda: check_axioms(SMALL), {"pairing"}),
    "sumset-empty": (
        [(verify, "sumset", lambda x: core.empty())],
        lambda: check_axioms(SMALL), {"union"}),
    "powerset-empty": (
        [(verify, "powerset", lambda x, budget: core.empty())],
        lambda: check_axioms(SMALL), {"power"}),
    "separate-adds-the-host": (
        [(verify, "separate",
          lambda y, pred: core.adjoin(core.separate(y, pred), y))],
        lambda: check_axioms(SMALL), {"separation-subset"}),
    "decode-one-is-empty": (
        [(verify, "decode", lambda c: core.decode(0 if c == 1 else c))],
        lambda: check_axioms(SMALL), {"finiteness"}),
    "adjoin-drops-the-member": (
        [(verify, "adjoin", lambda x, y: x)],
        lambda: check_axioms(SMALL), {"finiteness"}),
    "no-set-is-a-level": (
        [(verify, "is_level", lambda lvl: False)],
        lambda: check_axioms(SMALL), {"least-level"}),
    "axioms-budget": (
        [], lambda: check_axioms(_tight(4)),
        {"power-budget", "separation-budget", "least-level-budget"}),
    "opei-wrong-annotation": (
        [], lambda: check_opei(["base :: x = x"], SMALL, step_cutoff=8),
        {"opei"}),
    "opei-budget": (
        [], lambda: check_opei(["holds :: P(x) = P(x)"], _tight(4),
                               step_cutoff=8),
        {"opei-budget"}),
    "theorem6-closed-form": (
        [(verify, "mem", lambda x, y: True)], _theorem6_small, {"theorem6"}),
    "theorem6-mutation": (
        [], lambda: _theorem6_small(mutation="successor"), {"theorem6"}),
    "theorem6-disagreement": (
        [(evaluate, "_solve_order_chain", _order_chain_off_by_one)],
        _theorem6_small, {"theorem6-disagreement"}),
    "theorem6-budget": (
        [], lambda: _theorem6_small(
            EvalContext(nat_cutoff=32, set_cutoff=32, code_budget=4)),
        {"theorem6-budget"}),
    "ordinal-control": (
        [], lambda: check_roundtrip(translatable_lines("arith.txt", "ao"),
                                    "ao", SMALL, value_cutoff=8),
        {"roundtrip"}),
    "evaluation-refuses-an-ordinal": (
        [(verify, "eval_arith", _not_an_ordinal)],
        lambda: check_roundtrip(["x = x"], "ad", SMALL, value_cutoff=4),
        {"roundtrip-raise"}),
    "roundtrip-budget": (
        [], lambda: check_roundtrip(
            ["exp(2, x) = exp(2, x)"], "ad",
            EvalContext(nat_cutoff=32, set_cutoff=32, code_budget=64),
            value_cutoff=256),
        {"roundtrip-budget"}),
    "card-add-drops-y": (
        [(cardinal, "card_add", lambda x, y, budget=0: x)],
        lambda: check_cardinal_model(SMALL), {"size-of-sum", "cardinal-law"}),
    "product-drops-y": (
        [(cardinal, "product", lambda x, y, budget=0: x)],
        lambda: check_cardinal_model(SMALL), {"size-of-product"}),
    "card-exp-drops-y": (
        [(cardinal, "card_exp", lambda x, y, budget=0: x)],
        lambda: check_cardinal_model(SMALL), {"size-of-function-space"}),
    "no-functions": (
        [(cardinal, "count_functions", lambda x, y, budget=0: 0)],
        lambda: check_cardinal_model(SMALL), {"function-count"}),
    "no-injections": (
        [(cardinal, "inj_exists", lambda x, y: False)],
        lambda: check_cardinal_model(SMALL), {"injection-oracle"}),
    "all-sets-equinumerous": (
        [(cardinal, "card_eq", lambda x, y: True)],
        lambda: check_cardinal_model(SMALL), {"cardinal-falsehood"}),
    "cardinal-budget": (
        [], lambda: check_cardinal_model(_tight(8)),
        {"size-of-product-budget", "size-of-function-space-budget",
         "function-count-budget", "cardinal-law-budget"}),
    "selftest-broken-membership": (
        [(verify, "mem", lambda x, y: True)], lambda: check_selftest(SMALL),
        {"selftest-control"}),
    "selftest-mutations-ignored": (
        [(verify, "membership_bit_formula",
          lambda mutation=None: _CANONICAL_BIT())],
        lambda: check_selftest(SMALL), {"selftest-mutation"}),
}


@pytest.mark.parametrize("scenario", FORCED)
def test_forced_failure_replays_from_its_serialized_dict(monkeypatch,
                                                         scenario):
    patches, run, kinds = FORCED[scenario]
    for target, name, value in patches:
        monkeypatch.setattr(target, name, value)
    found = {}
    for case in run().cases:
        if case.counterexample is not None:
            found.setdefault(case.counterexample["kind"],
                             json.loads(json.dumps(case.counterexample)))
    assert kinds <= found.keys()
    for kind in kinds:
        assert replay(found[kind]) is True, kind
    if patches:
        # replay checks again: with the primitive mended, nothing recurs
        monkeypatch.undo()
        assert not any(replay(found[kind]) for kind in kinds)


def test_the_forced_kinds_are_the_checker_table():
    forced = set().union(*(kinds for _, _, kinds in FORCED.values()))
    assert {k for k in forced
            if not k.endswith(("-budget", "-disagreement"))} \
        == set(verify._KINDS)


def test_route_disagreement_is_a_failing_verdict(monkeypatch, capsys):
    # the order chain's witness is rejected by the set operations: a fail
    # with a replayable counterexample, not an internal error (exit 70)
    monkeypatch.setattr(evaluate, "_solve_order_chain",
                        _order_chain_off_by_one)
    rc = cli.main(["verify", "theorem6", "--max-code", "64",
                   "--format", "json", "--no-timestamp"])
    assert rc == 1
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    failed = [c for c in report["cases"] if c["verdict"] == FAIL]
    assert failed
    for c in failed:
        assert c["counterexample"]["kind"] == "theorem6-disagreement"
        assert replay(c["counterexample"]) is True


def test_ordinal_control_replays_under_its_recorded_context():
    # the context of test_09's negative control, which replay no longer
    # needs to be handed back
    control_ctx = EvalContext(nat_cutoff=64, set_cutoff=64)
    lines = translatable_lines("arith.txt", "ao")
    failures = check_roundtrip(lines, "ao", control_ctx,
                               value_cutoff=16).failures()
    assert failures
    for c in failures:
        assert EvalContext(**c.counterexample["context"]) == control_ctx
        assert replay(c.counterexample)
