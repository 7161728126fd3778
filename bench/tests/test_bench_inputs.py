"""The benchmark's input generator is a pure function of the seed."""

import sys
import unicodedata
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402


def _tree(base: Path) -> dict[str, bytes]:
    return {str(p.relative_to(base)): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(inputs.BUILDERS))
def test_same_seed_same_bytes_other_seed_differs(workload, tmp_path):
    trees = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        inputs.build(workload, seed, tmp_path / name, ROOT)
        trees.append(_tree(tmp_path / name))
    assert trees[0] == trees[1]
    assert trees[0].keys() == trees[2].keys()
    assert trees[0] != trees[2]


def test_ia_lines_have_exact_length_and_nfc_graphemes():
    import random

    rng = random.Random(0)
    for length in (20, 57, 200):
        g = inputs.ia_line(rng, length)
        assert len(g) == length
        text = "".join(g)
        assert unicodedata.normalize("NFC", text) == text
        assert g[0] != " " and g[-1] != " "


def test_romanize_words_use_only_table_letters(tmp_path):
    alphabet = inputs.load_scheme("ot_alphabet.json", ROOT)["ot_to_latin"]
    plan = inputs.build("romanize", 1, tmp_path, ROOT)
    words = [w for call in plan["calls"] for w in call["check"]["words"]]
    assert all(ch in alphabet for w in words for ch in w)
    gold = {ot for call in plan["calls"] for ot in call["check"]["gold"]}
    assert {"كلدی", "اولدی", "قهوه", "كتابلر"} <= gold
    assert all(unicodedata.category(ch) != "Mn" for ot, _ in inputs.EXCEPTIONS for ch in ot)


def test_inverse_alphabet_spells_every_lexicon_word():
    inverse = inputs.inverse_alphabet(inputs.load_scheme("ot_alphabet.json", ROOT))
    alphabet = inputs.load_scheme("ot_alphabet.json", ROOT)["ot_to_latin"]
    for word in inputs.STEMS + inputs.SUFFIXED:
        spelled = inputs.spell_ot(word, inverse)
        assert len(spelled) == len(word)
        assert all(mt in alphabet[ot] for ot, mt in zip(spelled, word))
