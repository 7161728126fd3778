import itertools
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from otkit import lm, romanizer
from otkit.romanizer import (
    _ARCHIPHONEMES,
    INSERTION_PENALTY,
    _is_vowel,
    _letter_alternatives,
    Candidate,
    ExceptionLexicon,
    GenerationResult,
    GenLimits,
    Lexicon,
    NoVowelInStem,
    OTWord,
    SUFFIXES,
    apply_harmony,
    check_vowel_harmony,
    generate_candidates,
    romanize,
    strip_affixes,
)
from otkit.scheme import UnknownLetter, load_table

WIDE = GenLimits(max_candidates=5000)
OT_LETTERS = sorted(load_table().ot_to_latin)
STEMS = ["ol", "gel", "üç", "kapı", "göz", "su", "ev", "kitap", "iki", "amele", "hoca", "at",
         "kız", "gül"]
AFFIX_NAMES = list(SUFFIXES)


@pytest.fixture
def lexicon():
    return Lexicon(stems=frozenset({"gel", "ol", "üç", "amele", "hoca"}))


class TestOTWord:
    def test_from_text(self, table):
        word = OTWord.from_text("عمله", table)
        assert word.letters == ("ع", "م", "ل", "ه")
        assert word.text == "عمله"

    def test_unknown_letter(self, table):
        with pytest.raises(UnknownLetter):
            OTWord.from_text("xyz", table)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OTWord(())


def _reference_generate(word, table, limits=GenLimits()):
    """The generator as exhaustive enumeration of every reading that scores at
    least a floor, each at its best score, fully sorted and cut at
    max_candidates. No step raises a score (weights and the insertion penalty
    are at most 1), so a partial reading under the floor has no reading over
    it. The floor halves until more than max_candidates readings reach it, or
    reaches 0 and every reading is in: either way the top ones are exact.
    Enumerating every reading at once would not do: ا + 5 x ك at three
    insertions has some 47 million."""
    max_ins = limits.insertions_for(word)

    def can_insert(surface, used):
        return used < max_ins and surface and not _is_vowel(surface[-1])

    def walk(i, surface, score, used, floor, best):
        if score < floor:
            return
        if i == len(word.letters):
            endings = [("", score)]
            if can_insert(surface, used):
                endings += [(vowel, score * INSERTION_PENALTY) for vowel in table.mt_vowels]
            for ending, final in endings:
                if final >= floor and final > best.get(surface + ending, 0.0):
                    best[surface + ending] = final
            return
        for alt_index, alt in enumerate(_letter_alternatives(word, i, table)):
            weight = 1.0 / (1 + alt_index)
            # epenthesis between two consonant realizations
            if can_insert(surface, used) and alt and not _is_vowel(alt[0]):
                for vowel in table.mt_vowels:
                    walk(i + 1, surface + vowel + alt, score * INSERTION_PENALTY * weight,
                         used + 1, floor, best)
            walk(i + 1, surface + alt, score * weight, used, floor, best)

    floor = 1.0
    while True:
        best: dict[str, float] = {}
        walk(0, "", 1.0, 0, floor, best)
        if len(best) > limits.max_candidates or floor == 0.0:
            break
        floor = floor / 2 if floor > 1e-12 else 0.0
    ordered = sorted(best.items(), key=lambda s: (-s[1], s[0]))
    candidates = tuple(
        Candidate(surface=s, gen_score=score) for s, score in ordered[: limits.max_candidates]
    )
    return GenerationResult(candidates, len(ordered) > limits.max_candidates)


_LIMITS = st.builds(
    GenLimits,
    max_insertions=st.none() | st.integers(0, 3),
    max_candidates=st.integers(1, 8) | st.just(50),
)


class TestGenerateCandidates:
    def test_paper_readings_of_amele(self, table):
        surfaces = generate_candidates(OTWord.from_text("عمله", table), table, WIDE).surfaces()
        assert "imle" in surfaces
        assert "amele" in surfaces

    def test_archaic_oldi(self, table):
        word = OTWord.from_text("الدى", table)
        result = generate_candidates(word, table, GenLimits(max_insertions=0))
        assert "oldi" in result.surfaces()

    def test_single_letter_insertion_enumeration(self, table):
        word = OTWord.from_text("ب", table)
        result = generate_candidates(word, table, GenLimits(max_insertions=1))
        # brute-force oracle: bare consonant plus one final vowel each
        expected = {"b"} | {"b" + v for v in "aeıioöuü"}
        assert set(result.surfaces()) == expected

    @given(text=st.lists(st.sampled_from(OT_LETTERS), min_size=1, max_size=4).map("".join))
    @example(text="عمله")
    def test_character_accuracy(self, table, text):
        # Without insertions, each reading takes one chart alternative per
        # letter, and every such choice is a reading.
        word = OTWord.from_text(text, table)
        rows = [
            table.mt_vowels if i == 0 and letter == "ا" else table.candidates(letter)
            for i, letter in enumerate(word.letters)
        ]
        result = generate_candidates(word, table, replace(WIDE, max_insertions=0))
        assert not result.truncated
        assert set(result.surfaces()) == {"".join(p) for p in itertools.product(*rows)}

    # Word-initial alif reads as any vowel and hamza reads as nothing, so both
    # are drawn at the start of a word as well as anywhere in it.
    @settings(deadline=None)
    @given(
        text=st.tuples(
            st.sampled_from(["", "ا", "ء"]),
            st.lists(st.sampled_from(OT_LETTERS), min_size=1, max_size=8).map("".join),
        ).map("".join),
        limits=_LIMITS,
    )
    @example(text="عمله", limits=GenLimits(max_candidates=4))  # cut inside a tie group
    # All 289 readings, "bovu" among them both as b+(o)v+u at 1/6 and as
    # b+o+v+(u) at 1/4
    @example(text="بوو", limits=GenLimits(max_candidates=500))
    # "bovok" is built twice after four letters, as b+o+v+(o)k and as
    # b+(o)v+o+k: 107 states reach the 107th best score but hold 106 surfaces
    @example(text="بووكع", limits=GenLimits(max_insertions=1, max_candidates=107))
    @example(text="كوكرجين", limits=GenLimits(max_insertions=2))
    @example(text="كوكرجين", limits=GenLimits())
    def test_ranking_matches_full_sort(self, table, text, limits):
        # Same readings in the same order, bit-equal scores, same truncation.
        word = OTWord.from_text(text, table)
        assert generate_candidates(word, table, limits) == _reference_generate(word, table, limits)

    def test_monophonic_no_insertions_is_singleton(self, table):
        word = OTWord.from_text("برد", table)  # b, r, d: one alternative each
        result = generate_candidates(word, table, GenLimits(max_insertions=0))
        assert result.surfaces() == ["brd"]
        assert not result.truncated

    def test_truncation_recorded_not_raised(self, table):
        word = OTWord.from_text("عمله", table)
        result = generate_candidates(word, table, GenLimits(max_candidates=4))
        assert result.truncated
        assert len(result.candidates) == 4

    def test_beam_stays_near_max_candidates_on_ties(self, table, monkeypatch):
        # 15 x b: each inserted vowel gives eight readings at one score, so the
        # beam's tie groups are wide. Record the longest list that is sorted.
        sizes = []
        rank = romanizer._rank

        def recording_rank(states):
            sizes.append(len(states))
            rank(states)

        monkeypatch.setattr(romanizer, "_rank", recording_rank)
        result = generate_candidates(OTWord.from_text("ب" * 15, table), table)
        assert max(sizes) <= 1100
        assert len(result.candidates) == 50
        assert result.truncated

    def test_deterministic(self, table):
        word = OTWord.from_text("عمله", table)
        first = generate_candidates(word, table).surfaces()
        second = generate_candidates(word, table).surfaces()
        assert first == second

    def test_insertion_penalty_in_score(self, table):
        word = OTWord.from_text("ب", table)
        result = generate_candidates(word, table, GenLimits(max_insertions=1))
        by_surface = {c.surface: c for c in result.candidates}
        assert by_surface["ba"].gen_score == pytest.approx(0.5 * by_surface["b"].gen_score)


def _spells(stem, chain, word):
    if not chain:
        return stem == word
    try:
        return apply_harmony(stem, chain) == word
    except NoVowelInStem:
        return False


@st.composite
def _words_and_lexicons(draw):
    """A stem with 0-2 suffixes attached, maybe one suffix letter swapped for
    another of its archiphoneme row, and a lexicon of that stem plus one more."""
    stem = draw(st.sampled_from(STEMS))
    word = apply_harmony(stem, draw(st.lists(st.sampled_from(AFFIX_NAMES), max_size=2)))
    rows = {ch: row for row in _ARCHIPHONEMES.values() for ch in row}
    swappable = [i for i in range(len(stem), len(word)) if word[i] in rows]
    if swappable and draw(st.booleans()):
        i = draw(st.sampled_from(swappable))
        letter = draw(st.sampled_from([ch for ch in rows[word[i]] if ch != word[i]]))
        word = word[:i] + letter + word[i + 1 :]
    return word, Lexicon(frozenset({stem, draw(st.sampled_from(STEMS))}))


class TestStripAffixes:
    @settings(max_examples=200, deadline=None)
    @given(_words_and_lexicons())
    @example(("gazetelar", Lexicon(frozenset({"gazete"}))))
    @example(("geldu", Lexicon(frozenset({"gel"}))))
    @example(("kitaplerdan", Lexicon(frozenset({"kitap"}))))
    @example(("ameleinci", Lexicon(frozenset({"amele"}))))
    @example(("ikiinci", Lexicon(frozenset({"iki"}))))
    def test_matches_brute_force(self, case):
        # Every lexicon prefix of the word with every chain short enough to
        # fit (each suffix adds at least two letters) that harmony spells it as.
        word, lexicon = case
        expected = {
            (word[:end], chain)
            for end in range(len(word) + 1)
            if lexicon.contains(word[:end])
            for n in range((len(word) - end) // 2 + 1)
            for chain in itertools.product(AFFIX_NAMES, repeat=n)
            if _spells(word[:end], chain, word)
        }
        assert strip_affixes(word, lexicon) == expected

    def test_stem_without_vowel_takes_no_suffix(self):
        lexicon = Lexicon(frozenset({"krk"}))
        assert strip_affixes("krk", lexicon) == {("krk", ())}
        assert strip_affixes("krkti", lexicon) == set()

    @given(
        st.sampled_from(["ol", "gel", "üç", "kapı", "göz", "su", "ev", "kitap", "iki", "amele",
                         "hoca", "at", "kız", "gül"]),
        st.lists(st.sampled_from(AFFIX_NAMES), min_size=1, max_size=3),
    )
    def test_strips_what_harmony_attaches(self, stem, chain):
        word = apply_harmony(stem, chain)
        assert (stem, tuple(chain)) in strip_affixes(word, Lexicon(frozenset({stem})))

    def test_two_affixes(self, lexicon):
        assert strip_affixes("geldiler", lexicon) == {("gel", ("-DI", "-lAr"))}

    def test_bare_stem(self, lexicon):
        assert strip_affixes("gel", lexicon) == {("gel", ())}

    def test_unmatchable(self, lexicon):
        assert strip_affixes("xyzzy", lexicon) == set()

    def test_full_form_lookup(self, lexicon):
        assert ("hoca", ()) in strip_affixes("hoca", lexicon)


class TestApplyHarmony:
    @pytest.mark.parametrize(
        "stem,chain,expected",
        [
            ("ol", ["-DI"], "oldu"),
            ("gel", ["-DI"], "geldi"),
            ("üç", ["-(I)ncI"], "üçüncü"),
            ("iki", ["-(I)ncI"], "ikinci"),
            ("ev", ["-lAr", "-DA"], "evlerde"),
            ("kitap", ["-DA"], "kitapta"),
        ],
    )
    def test_harmony(self, stem, chain, expected):
        assert apply_harmony(stem, chain) == expected

    def test_unknown_affix_name(self):
        with pytest.raises(KeyError):
            apply_harmony("gel", ["-bogus"])

    def test_no_vowel_in_stem(self):
        with pytest.raises(NoVowelInStem):
            apply_harmony("krk", ["-DI"])

    @given(
        st.sampled_from(["ol", "gel", "üç", "kapı", "göz", "su", "ev", "kitap"]),
        st.lists(st.sampled_from(AFFIX_NAMES), min_size=1, max_size=3),
    )
    def test_suffix_vowels_satisfy_harmony(self, stem, chain):
        word = apply_harmony(stem, chain)
        suffix = word[len(stem):]
        last_stem_vowel = next(ch for ch in reversed(stem) if ch in "aeıioöuü")
        assert check_vowel_harmony(last_stem_vowel + suffix)


class TestCheckVowelHarmony:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("oldu", True),
            ("oldi", False),  # archaic, harmony-violating
            ("üçünci", False),
            ("üçüncü", True),
            ("geldi", True),
            ("a", True),
            ("brk", True),  # vacuous: no vowels
            ("KIZLAR", True),  # dotless capital I lowercases to ı
        ],
    )
    def test_verdicts(self, word, expected):
        assert check_vowel_harmony(word) is expected


class TestRomanize:
    def test_exception_short_circuits(self, table, lexicon):
        exceptions = ExceptionLexicon({"خواجه": "hoca", "کوکرجین": "güvercin"})
        result = romanize(OTWord.from_text("خواجه", table), table, lexicon, exceptions)
        assert [c.surface for c in result] == ["hoca"]
        result = romanize(OTWord.from_text("کوکرجین", table), table, lexicon, exceptions)
        assert [c.surface for c in result] == ["güvercin"]

    def test_lm_prefers_in_domain_reading(self, table, lexicon):
        model = lm.train(["amele geldi", "amele oldu"], order=1)
        ranked = romanize(
            OTWord.from_text("عمله", table),
            table,
            lexicon,
            ExceptionLexicon(),
            lm_model=model,
            limits=WIDE,
        )
        surfaces = [c.surface for c in ranked]
        assert surfaces[0] == "amele"
        assert "imle" not in surfaces or surfaces.index("imle") > 0

    def test_unfiltered_fallback_when_lexicon_misses(self, table):
        empty = Lexicon(frozenset())
        ranked = romanize(
            OTWord.from_text("برد", table), table, empty, ExceptionLexicon(),
            limits=GenLimits(max_insertions=0),
        )
        assert [c.surface for c in ranked] == ["brd"]

    def test_deterministic(self, table, lexicon):
        word = OTWord.from_text("عمله", table)
        model = lm.train(["amele"], order=1)
        a = romanize(word, table, lexicon, ExceptionLexicon(), model, WIDE)
        b = romanize(word, table, lexicon, ExceptionLexicon(), model, WIDE)
        assert [(c.surface, c.total) for c in a] == [(c.surface, c.total) for c in b]

    def test_ranked_totals_descending(self, table, lexicon):
        model = lm.train(["amele geldi"], order=1)
        ranked = romanize(
            OTWord.from_text("عمله", table), table, Lexicon(frozenset()),
            ExceptionLexicon(), model,
        )
        totals = [c.total for c in ranked]
        assert totals == sorted(totals, reverse=True)


class TestLexiconIO:
    def test_round_trip_files(self, tmp_path):
        lex_file = tmp_path / "lex.txt"
        lex_file.write_text("gel\nhoca\tfull\n# comment\n", "utf-8")
        lex = Lexicon.from_file(lex_file)
        assert "gel" in lex.stems
        assert "hoca" in lex.stems

        exc_file = tmp_path / "exc.tsv"
        exc_file.write_text("خواجه\thoca\n", "utf-8")
        exc = ExceptionLexicon.from_file(exc_file)
        assert exc.entries == {"خواجه": "hoca"}

    def test_vocalized_exception_key_matches(self, tmp_path, table):
        exc_file = tmp_path / "exc.tsv"
        exc_file.write_text("خواجَه\thoca\n", "utf-8")
        exc = ExceptionLexicon.from_file(exc_file)
        for spelling in ("خواجه", "خواجَه"):
            assert exc.lookup(OTWord.from_text(spelling, table)) == "hoca"

    def test_unknown_tag_rejected(self, tmp_path):
        lex_file = tmp_path / "lex.txt"
        lex_file.write_text("hoca\tbogus\n", "utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{lex_file}:1:")):
            Lexicon.from_file(lex_file)

    def test_turkish_capitals_lowercase_to_their_own_letters(self, tmp_path):
        lex_file = tmp_path / "lex.txt"
        lex_file.write_text("Işık\nİstanbul\tfull\n", "utf-8")
        lex = Lexicon.from_file(lex_file)
        assert lex.stems == {"ışık", "istanbul"}
        for word in ("ışık", "IŞIK", "istanbul", "İSTANBUL"):
            assert lex.contains(word)
        assert not lex.contains("işik")
        assert strip_affixes("IŞIKLAR", lex) == {("ışık", ("-lAr",))}
