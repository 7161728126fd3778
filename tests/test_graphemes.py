import unicodedata

from hypothesis import given, strategies as st

from otkit.graphemes import reverse_line, segment_line

# mixed Latin, Turkish diacritics (precomposed and decomposed, always riding
# a base letter), digits (ASCII and Arabic-Indic), punctuation
TEXT_TOKENS = (
    list("abg\u00fc\u015f\u00e2\u00e7 \u00f11234\u0660\u0661\u0662.,-'")
    + ["n\u0303", "e\u0302", "g\u0303", "s\u0331"]
)

text_strategy = st.lists(st.sampled_from(TEXT_TOKENS), max_size=30).map("".join)

FLAG_COMBINATIONS = [
    {"mirror_brackets": mirror, "preserve_digit_runs": digits}
    for mirror in (False, True)
    for digits in (False, True)
]
bracket_text_strategy = st.lists(
    st.sampled_from(TEXT_TOKENS + list("()[]{}<>")), max_size=30
).map("".join)


def _runs(graphemes: tuple[str, ...]) -> list[tuple[bool, list[str]]]:
    """Maximal runs of digit and non-digit graphemes, found by a plain scan."""
    runs: list[tuple[bool, list[str]]] = []
    for g in graphemes:
        is_digit = g.isdigit()
        if runs and runs[-1][0] == is_digit:
            runs[-1][1].append(g)
        else:
            runs.append((is_digit, [g]))
    return runs


def reversal_oracle(text: str) -> str:
    """Independent route: reverse run order, reversing only non-digit runs."""
    out = []
    for is_digit, run in reversed(_runs(segment_line(text))):
        out.extend(run if is_digit else reversed(run))
    return "".join(out)


class TestSegmentLine:
    def test_empty(self):
        assert len(segment_line("")) == 0

    def test_precomposed_and_decomposed_agree(self):
        precomposed = segment_line("gavuruñ")
        decomposed = segment_line("gavuruñ")
        assert len(precomposed) == 7
        assert precomposed == decomposed
        assert precomposed[-1] == "ñ"

    def test_hand_count(self):
        assert len(segment_line("şa'âtleri")) == 9

    def test_concatenation_reproduces_nfc(self):
        s = "şa'âtleri"
        assert "".join(segment_line(s)) == unicodedata.normalize("NFC", s)


class TestReverseLine:
    def test_reference_examples(self):
        assert reverse_line("gavuruñ") == "ñuruvag"
        assert reverse_line("ğâbil") == "libâğ"

    def test_digit_run_kept_in_order(self):
        assert reverse_line("sayfa 12") == "12 afyas"

    def test_empty(self):
        assert reverse_line("") == ""

    def test_digit_runs_not_preserved_when_disabled(self):
        assert reverse_line("sayfa 12", preserve_digit_runs=False) == "21 afyas"

    def test_mirror_brackets(self):
        assert reverse_line("(ab)", mirror_brackets=True) == "(ba)"
        assert reverse_line("(ab)") == ")ba("

    def test_combining_mark_stays_on_base(self):
        assert reverse_line("añb") == "bña"

    @given(text_strategy)
    def test_matches_oracle(self, s):
        assert reverse_line(s) == reversal_oracle(s)

    @given(text_strategy)
    def test_involution(self, s):
        assert reverse_line(reverse_line(s)) == unicodedata.normalize("NFC", s)

    @given(text_strategy)
    def test_grapheme_count_preserved(self, s):
        assert len(segment_line(reverse_line(s))) == len(segment_line(s))

    @given(text_strategy)
    def test_digit_run_multiset_preserved(self, s):
        def digit_runs(text):
            return sorted("".join(run) for is_digit, run in _runs(segment_line(text)) if is_digit)

        assert digit_runs(reverse_line(s)) == digit_runs(s)

    @given(bracket_text_strategy)
    def test_involution_under_every_flag_combination(self, s):
        for flags in FLAG_COMBINATIONS:
            twice = reverse_line(reverse_line(s, **flags), **flags)
            assert twice == unicodedata.normalize("NFC", s), flags
