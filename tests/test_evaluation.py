import functools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from otkit.evaluation import (
    Alignment,
    DocumentMeta,
    EmptyReference,
    cer,
    corpus_report,
    levenshtein_align,
    wer,
)


def brute_force_distance(ref: str, hyp: str) -> int:
    """Independent oracle: memoized recursion on string suffixes."""

    @functools.cache
    def d(i, j):
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        same = 0 if ref[i] == hyp[j] else 1
        return min(d(i + 1, j + 1) + same, d(i + 1, j) + 1, d(i, j + 1) + 1)

    return d(0, 0)


def matrix_align(ref, hyp) -> Alignment:
    """Reference implementation: the full (n+1) x (m+1) matrix and the same
    traceback, ties broken Match > Substitute > Delete > Insert, counting
    each kind of step."""
    n, m = len(ref), len(hyp)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row, prev = dist[i], dist[i - 1]
        for j in range(1, m + 1):
            same = ref[i - 1] == hyp[j - 1]
            row[j] = min(
                prev[j - 1] + (0 if same else 1),
                prev[j] + 1,
                row[j - 1] + 1,
            )

    i, j = n, m
    s = ins = dele = matches = 0
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and dist[i][j] == dist[i - 1][j - 1]:
            matches += 1
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1:
            s += 1
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            dele += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return Alignment(s, ins, dele, matches)


@st.composite
def small_alphabet_pairs(draw):
    """Sequences over 2-5 symbols, so ties are frequent, up to 80 long, so the
    bit vectors span several machine words."""
    alphabet = draw(st.sampled_from(["ab", "abc", "abcd", "abcde"]))
    seq = st.lists(st.sampled_from(alphabet), max_size=80)
    return draw(seq), draw(seq)


short_strings = st.text(alphabet="abcde", max_size=12)


class TestLevenshteinAlign:
    def test_identity(self):
        align = levenshtein_align(list("abc"), list("abc"))
        assert align.distance == 0
        assert align.matches == 3

    def test_single_substitution(self):
        align = levenshtein_align(list("abc"), list("axc"))
        assert align.distance == 1
        assert align.substitutions == 1
        assert brute_force_distance("abc", "axc") == 1

    def test_empty_reference(self):
        align = levenshtein_align([], list("ab"))
        assert align.insertions == 2
        assert align.distance == 2

    @given(small_alphabet_pairs())
    @example((list("kitap"), list("kitab")))
    def test_counts_tie_to_lengths(self, pair):
        ref, hyp = pair
        align = levenshtein_align(ref, hyp)
        assert align.substitutions + align.deletions + align.matches == len(ref)
        assert align.substitutions + align.insertions + align.matches == len(hyp)

    @given(short_strings, short_strings)
    def test_matches_brute_force(self, a, b):
        assert levenshtein_align(list(a), list(b)).distance == brute_force_distance(a, b)

    @given(short_strings, short_strings)
    def test_symmetry(self, a, b):
        assert (
            levenshtein_align(list(a), list(b)).distance
            == levenshtein_align(list(b), list(a)).distance
        )

    @given(short_strings, short_strings, short_strings)
    def test_triangle_inequality(self, a, b, c):
        ab = levenshtein_align(list(a), list(b)).distance
        bc = levenshtein_align(list(b), list(c)).distance
        ac = levenshtein_align(list(a), list(c)).distance
        assert ac <= ab + bc

    @settings(max_examples=300)
    @given(small_alphabet_pairs())
    @example(([], []))
    @example(([], list("ab" * 40)))
    @example((list("abc" * 26), []))
    @example((list("ab" * 35), list("ba" * 33)))
    def test_equals_matrix_alignment(self, pair):
        ref, hyp = pair
        assert levenshtein_align(ref, hyp) == matrix_align(ref, hyp)

    def test_equals_matrix_alignment_on_a_300_grapheme_line(self):
        rng = random.Random(300)
        letters = ["a", "e", "ı", "i", "k", "ḳ", "l", "r", "s̱", "u", " "]
        ref = [rng.choice(letters) for _ in range(300)]
        swap = {"ı": "i", "i": "ı", "k": "ḳ", "ḳ": "k"}
        hyp = [swap.get(g, g) if n % 7 == 0 else g for n, g in enumerate(ref)]
        del hyp[150:153]
        hyp[40:40] = ["ı", "ḳ"]
        align = levenshtein_align(ref, hyp)
        assert align == matrix_align(ref, hyp)
        assert align.substitutions > 0

    def test_traceback_prefers_match_over_substitute(self):
        assert levenshtein_align(list("ab"), list("ab")) == Alignment(
            substitutions=0, insertions=0, deletions=0, matches=2
        )


class TestCer:
    def test_identity(self):
        assert cer("abc", "abc") == 0.0

    def test_quarter(self):
        assert cer("abcd", "abed") == pytest.approx(0.25, abs=1e-12)

    def test_total_deletion(self):
        assert cer("ab", "") == 1.0

    def test_empty_reference(self):
        with pytest.raises(EmptyReference):
            cer("", "ab")

    def test_diacritic_counts_as_single_error(self):
        # base+combining tilde against plain n: one substitution of one cluster
        assert cer("ñ", "n") == 1.0

    def test_can_exceed_one(self):
        assert cer("a", "abcd") == 3.0


class TestWer:
    def test_identity(self):
        assert wer("a b c", "a b c") == 0.0

    def test_one_of_three(self):
        assert wer("a b c", "a x c") == pytest.approx(1 / 3, abs=1e-12)

    def test_insertion(self):
        assert wer("a", "a b") == 1.0

    def test_empty_reference(self):
        with pytest.raises(EmptyReference):
            wer("  ", "a")


class TestCorpusReport:
    def test_identical_document(self):
        report = corpus_report(
            [(DocumentMeta("ahali", "politics", "1906"), ["abc"], ["abc"])]
        )
        assert len(report.rows) == 1
        assert report.rows[0].cer == 0.0
        assert report.micro_cer == 0.0

    def test_micro_average_arithmetic(self):
        # doc 1: 1 edit in 10 graphemes; doc 2: 3 edits in 10 graphemes
        docs = [
            (DocumentMeta("one"), ["abcdefghij"], ["Xbcdefghij"]),
            (DocumentMeta("two"), ["abcdefghij"], ["XYZdefghij"]),
        ]
        report = corpus_report(docs)
        assert report.rows[0].cer == pytest.approx(0.10, abs=1e-12)
        assert report.rows[1].cer == pytest.approx(0.30, abs=1e-12)
        assert report.micro_cer == pytest.approx(0.20, abs=1e-12)

    def test_mismatched_line_counts_skipped(self):
        docs = [
            (DocumentMeta("good"), ["abc"], ["abc"]),
            (DocumentMeta("bad"), ["abc", "def"], ["abc"]),
        ]
        report = corpus_report(docs)
        assert [r.meta.name for r in report.rows] == ["good"]
        assert report.skipped[0][0].name == "bad"

    def test_table_mirrors_publication_columns(self):
        report = corpus_report(
            [(DocumentMeta("Kadınlar Dünyası", "feminism", "1914"), ["ab"], ["ab"])]
        )
        table = report.render_table()
        assert "Name of publication" in table
        assert "Kadınlar Dünyası" in table and "feminism" in table and "1914" in table

    def test_csv_columns(self):
        report = corpus_report([(DocumentMeta("x", "s", "d"), ["ab"], ["ab"])])
        lines = report.render_csv().splitlines()
        assert lines[0] == "name,subject,date,cer,wer"
        assert lines[1].startswith("x,s,d,0.000000,")
