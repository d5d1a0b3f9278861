"""Golden files for the JSON reports of the cheap `hf verify` suites.

Each file under `tests/golden/verify/` is the output of

    hf verify <suite> --format json --no-timestamp

and is compared with a fresh run byte for byte, so a change to the
evaluator, the operations or the suites that moves any verdict, note or
counterexample shows here.  `theorem6` and `roundtrip-da` take about
35 s together and are left to a manual comparison.

Regenerate the files, after a deliberate change of a report, with

    PYTHONPATH=src python tests/test_verify_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from hfinterp.cli import main

GOLDEN = Path(__file__).parent / "golden" / "verify"

SUITES = ("axioms", "opei", "cardinal", "selftest", "roundtrip-ad")


def report(suite: str) -> "tuple[int, str]":
    """The exit code and standard output of the suite's JSON report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["verify", suite, "--format", "json", "--no-timestamp"])
    return rc, out.getvalue()


@pytest.mark.parametrize("suite", SUITES)
def test_verify_report_matches_golden(suite):
    rc, got = report(suite)
    assert rc == 0
    assert got == (GOLDEN / f"{suite}.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in SUITES:
        (GOLDEN / f"{name}.json").write_text(report(name)[1])
