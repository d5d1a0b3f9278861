"""Golden file for the text `hf translate` prints.

Every line of the four packaged corpora goes through each single map
whose source language is the corpus's language; the printed image (or the
`LanguageMismatch` the map raises) is compared with
`tests/golden/translations.txt` line by line.

Regenerate the file, after a deliberate change of the printed form, with

    PYTHONPATH=src python tests/test_translation_golden.py
"""

from pathlib import Path

from hfinterp.errors import LanguageMismatch
from hfinterp.formulas import show_arith, show_set
from hfinterp.interp import MAPS
from hfinterp.parser import parse_arith, parse_set
from hfinterp.verify import load_annotated_corpus

GOLDEN = Path(__file__).parent / "golden" / "translations.txt"

#: corpus file -> language of its formulas
CORPORA = {"arith.txt": "arith", "set.txt": "set", "opei.txt": "set",
           "separation.txt": "set"}


def render_translations() -> "list[str]":
    """One line per (corpus line, map): corpus, map, source, image."""
    out = []
    for corpus, lang in CORPORA.items():
        parse = parse_arith if lang == "arith" else parse_set
        for _, text in load_annotated_corpus(corpus):
            f = parse(text)
            for tag in sorted(MAPS):
                m = MAPS[tag]
                if m.source != lang:
                    continue
                try:
                    g = m(f)
                    image = show_arith(g) if m.target == "arith" \
                        else show_set(g)
                except LanguageMismatch as e:
                    image = f"LanguageMismatch: {e}"
                out.append(f"{corpus}\t{tag}\t{text}\t{image}")
    return out


def test_translations_match_golden():
    want = GOLDEN.read_text().splitlines()
    got = render_translations()
    for i, (w, g) in enumerate(zip(want, got), 1):
        assert g == w, f"line {i} differs"
    assert len(got) == len(want)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(render_translations()) + "\n")
