import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import otkit.scheme
from otkit.graphemes import segment_line
from otkit.scheme import UnknownLetter, convert_scheme, load_table

PACKAGED_SCHEMES = Path(otkit.scheme.__file__).parent / "data" / "schemes"

# frozen copy of the published polyphony chart
POLYPHONY_ROWS = {
    "ا": ("a", "e"),
    "ض": ("d", "z"),
    "ك": ("k", "g", "ğ", "n"),
    "و": ("v", "o", "u", "ö", "ü"),
    "ه": ("h", "e", "a"),
    "ی": ("y", "a", "ı", "i"),
}

MONOPHONIC = "بپتجچدرزژسشصطظفقلمن"

# The loose scheme's letters: the 29-letter Modern Turkish alphabet plus the
# circumflexed long vowels.
LOOSE_LETTERS = frozenset(
    "abcçdefgğhıijklmnoöprsştuüvyz" "ABCÇDEFGĞHIİJKLMNOÖPRSŞTUÜVYZ" "âîûÂÎÛ"
)

IA_TOKENS = (
    list("abc\u00e7de\u011f\u0131io\u00f6u\u00fc\u00e2\u00ee\u00fb ")
    + list("\u1e33\u0121\u00f1\u1e63\u1e6d\u1e0d\u1e93\u1e25\u1e2b\u1e95\u017c\u02bf\u02be")
    + ["s\u0331"]
)
ia_text_strategy = st.lists(st.sampled_from(IA_TOKENS), max_size=25).map("".join)


class TestCandidates:
    @pytest.mark.parametrize("letter,expected", sorted(POLYPHONY_ROWS.items()))
    def test_polyphony_rows_verbatim(self, table, letter, expected):
        assert table.candidates(letter) == expected

    def test_unknown_letter(self, table):
        with pytest.raises(UnknownLetter):
            table.candidates("x")

    def test_polyphonic_letters_have_multiple_alternatives(self, table):
        for letter in POLYPHONY_ROWS:
            assert len(table.candidates(letter)) >= 2

    @pytest.mark.parametrize("letter", sorted(MONOPHONIC))
    def test_monophonic_letters_have_one_alternative(self, table, letter):
        assert len(table.candidates(letter)) == 1

    def test_ayn_is_present_with_vowel_alternatives(self, table):
        # required to read عمله even though it is outside the polyphony chart
        alternatives = table.candidates("ع")
        assert "a" in alternatives and "i" in alternatives

    def test_eight_mt_vowels(self, table):
        assert sorted(table.mt_vowels) == sorted("aeıioöuü")
        assert len(table.mt_vowels) == 8

    def test_vowel_letters(self, table):
        assert table.vowel_letters == frozenset("اوی")


class TestConvertScheme:
    def test_reference_word(self, table):
        assert convert_scheme("gavuruñ", table) == "gavurun"

    def test_strip_diacritic(self, table):
        assert convert_scheme("ḳahve", table) == "kahve"

    def test_long_vowel_is_fixed_point(self, table):
        assert convert_scheme("kitâb", table) == "kitâb"

    def test_ayn_and_hamza_dropped(self, table):
        assert convert_scheme("şaʿatleri", table) == "şaatleri"
        assert convert_scheme("meʾmur", table) == "memur"

    @given(ia_text_strategy)
    def test_idempotent(self, table, s):
        once = convert_scheme(s, table)
        assert convert_scheme(once, table) == once

    @given(ia_text_strategy)
    def test_count_changes_only_by_dropped_carriers(self, table, s):
        out = convert_scheme(s, table)
        dropped = sum(1 for g in segment_line(s) if g in ("ʿ", "ʾ"))
        assert len(segment_line(out)) == len(segment_line(s)) - dropped

    @given(ia_text_strategy)
    def test_loose_output_validates_clean(self, table, s):
        # IA_TOKENS are letters and spaces, so every output grapheme must be
        # a loose-scheme letter or a space.
        out = convert_scheme(s, table)
        assert set(segment_line(out)) <= LOOSE_LETTERS | {" "}


class TestLoadTable:
    def test_scheme_dir_replaces_packaged_tables(self, tmp_path, monkeypatch):
        for name in ("ot_alphabet.json", "ia_to_loose.json"):
            shutil.copy(PACKAGED_SCHEMES / name, tmp_path / name)
        path = tmp_path / "ot_alphabet.json"
        alphabet = json.loads(path.read_text("utf-8"))
        alphabet["ot_to_latin"]["ض"] = ["z", "d"]
        path.write_text(json.dumps(alphabet, ensure_ascii=False), "utf-8")
        monkeypatch.setenv("OTKIT_SCHEME_DIR", str(tmp_path))
        assert load_table().candidates("ض") == ("z", "d")

    def test_empty_scheme_dir_means_packaged_tables(self, monkeypatch):
        monkeypatch.setenv("OTKIT_SCHEME_DIR", "")
        assert load_table().candidates("ض") == ("d", "z")
