"""Candidate romanization of Ottoman Turkish words into Modern Turkish.

An OT word underdetermines its MT reading: polyphonic letters fan out into
several Latin realizations and most vowels are only implied by the script.
Candidates are therefore generated by substitution per the correspondence
table plus bounded epenthetic vowel insertion, filtered against a stem/affix
lexicon with vowel-harmony reconstruction, and rescored by a language model.
Conventional-pronunciation exceptions short-circuit the whole pipeline.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional

from .scheme import SchemeTable, UnknownLetter

# Word-initial alif acts as a bare vowel carrier and may open the word with
# any MT vowel, beyond the two alternatives of the correspondence chart.
_INITIAL_ALIF = "ا"

_BACK_VOWELS = frozenset("aıou")
_FRONT_VOWELS = frozenset("eiöü")
_ROUNDED_VOWELS = frozenset("oöuü")
_HIGH_VOWELS = frozenset("ıiuü")
_VOWELS = _BACK_VOWELS | _FRONT_VOWELS | frozenset("âîû")
_VOICELESS_FINALS = frozenset("çfhkpsşt")

_LONG_VOWEL_BASE = {"â": "a", "î": "i", "û": "u"}

# Turkish dotted/dotless capitals, mapped before str.lower(): its default
# turns "I" into "i" and "İ" into "i" plus a combining dot above.
_TURKISH_CAPITALS = str.maketrans({"I": "ı", "İ": "i"})

INSERTION_PENALTY = 0.5


class NoVowelInStem(ValueError):
    """Harmony is undefined for a stem without any vowel."""


def _is_vowel(ch: str) -> bool:
    return ch in _VOWELS


def _last_vowel(word: str) -> Optional[str]:
    for ch in reversed(word):
        base = _LONG_VOWEL_BASE.get(ch, ch)
        if base in _BACK_VOWELS or base in _FRONT_VOWELS:
            return base
    return None


def _lower(text: str) -> str:
    return text.translate(_TURKISH_CAPITALS).lower()


def _strip_marks(text: str) -> str:
    """NFC-normalize and drop vocalization marks, which carry no letter of their own."""
    normalized = unicodedata.normalize("NFC", text)
    return "".join(ch for ch in normalized if unicodedata.category(ch) != "Mn")


@dataclass(frozen=True)
class OTWord:
    """An Arabic-script word in logical (reading) order, NFC-normalized."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("OT word must be non-empty")

    @classmethod
    def from_text(cls, text: str, table: SchemeTable) -> "OTWord":
        letters = tuple(_strip_marks(text))
        for ch in letters:
            if ch not in table.ot_to_latin:
                raise UnknownLetter(ch)
        return cls(letters)

    @property
    def text(self) -> str:
        return "".join(self.letters)


@dataclass(frozen=True)
class Candidate:
    surface: str
    gen_score: float
    total: float = 0.0


@dataclass(frozen=True)
class GenLimits:
    max_insertions: Optional[int] = None  # None: ceil(letters / 2)
    max_candidates: int = 50

    def __post_init__(self):
        if self.max_insertions is not None and self.max_insertions < 0:
            raise ValueError("max_insertions must be non-negative")
        if self.max_candidates <= 0:
            raise ValueError("max candidates must be positive")

    def insertions_for(self, word: OTWord) -> int:
        if self.max_insertions is not None:
            return self.max_insertions
        return math.ceil(len(word.letters) / 2)


@dataclass(frozen=True)
class GenerationResult:
    candidates: tuple[Candidate, ...]
    truncated: bool

    def surfaces(self) -> list[str]:
        return [c.surface for c in self.candidates]


# Each archiphoneme and the letters it surfaces as. _realize picks one by
# index: A by frontness (a, e), I by frontness plus 2 for rounding
# (ı, i, u, ü), D by a voiceless final (d, t).
_ARCHIPHONEMES = {"A": "ae", "I": "ıiuü", "D": "dt"}


# The built-in suffix set, which every lexicon shares, in the order
# strip_affixes tries it. Each suffix name maps to its template in
# archiphoneme notation, split into (optional, body): A/I/D realize by harmony
# and assimilation, and the optional segment is present only after a
# consonant-final base.
SUFFIXES: dict[str, tuple[str, str]] = {
    "-DI": ("", "DI"),
    "-lAr": ("", "lAr"),
    "-(I)ncI": ("I", "ncI"),
    "-In": ("", "In"),
    "-DA": ("", "DA"),
    "-Dan": ("", "DAn"),
}


@dataclass(frozen=True)
class Lexicon:
    stems: frozenset[str]

    @classmethod
    def from_file(cls, path: Path | str) -> "Lexicon":
        """One stem per line; a `word<TAB>full` line is read as the stem `word`."""
        stems = set()
        for lineno, raw in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            word, _, tag = line.partition("\t")
            if tag and tag.strip() != "full":
                raise ValueError(f"{path}:{lineno}: unknown lexicon tag: {tag!r}")
            stems.add(_lower(unicodedata.normalize("NFC", word.strip())))
        return cls(frozenset(stems))

    def contains(self, surface: str) -> bool:
        return _lower(surface) in self.stems


@dataclass(frozen=True)
class ExceptionLexicon:
    """Conventional pronunciations that override character accuracy."""

    entries: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: Path | str) -> "ExceptionLexicon":
        entries = {}
        for lineno, raw in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected OT word<TAB>reading")
            ot, mt = line.split("\t", 1)
            key = _strip_marks(ot.strip())
            entries[key] = unicodedata.normalize("NFC", mt.strip())
        return cls(entries)

    def lookup(self, word: OTWord) -> Optional[str]:
        return self.entries.get(word.text)


def _letter_alternatives(
    word: OTWord, index: int, table: SchemeTable
) -> tuple[str, ...]:
    letter = word.letters[index]
    if index == 0 and letter == _INITIAL_ALIF:
        return table.mt_vowels
    return table.candidates(letter)


def _rank(states: list) -> None:
    """Sort (surface, score, ...) tuples in place: highest score first, equal
    scores by surface, full ties in their current order.

    Two stable C-level sorts give the order of key=(-score, surface) without
    calling a Python key function per item.
    """
    states.sort(key=itemgetter(0))
    states.sort(key=itemgetter(1), reverse=True)


def _extend(parents: list, alternatives: list, vowels: tuple[str, ...], cutoff: float) -> list:
    """The parents' extensions by one step that score at least `cutoff`, one
    per surface at its best score, ranked. Equal surfaces after one letter
    have used equally many insertions (each alternative but hamza's empty one
    is one character), and after the word end none remain to use, so the best
    of them stands for all."""
    states = []
    for surface, score, used, can_insert in parents:
        if score < cutoff:
            break  # weights are at most 1: no later state reaches the cutoff
        for weight, alt, before_consonant in alternatives:
            if can_insert and before_consonant:
                inserted = score * INSERTION_PENALTY * weight
                if inserted >= cutoff:
                    states.extend((surface + v + alt, inserted, used + 1) for v in vowels)
            extended = score * weight
            if extended >= cutoff:
                states.append((surface + alt, extended, used))
    states.sort(key=itemgetter(1))  # worst first: the best of equal surfaces is kept
    states = list(dict(zip(map(itemgetter(0), states), states)).values())
    _rank(states)
    return states


def generate_candidates(
    word: OTWord, table: SchemeTable, limits: GenLimits = GenLimits()
) -> GenerationResult:
    """Enumerate character-accurate MT readings of an OT word.

    Each candidate substitutes every letter with one table alternative and may
    insert epenthetic vowels between adjacent consonant realizations or after a
    word-final consonant, bounded by the insertion budget.

    The search takes a step per letter and a last one that may add a vowel
    after a final consonant. After each step it keeps one state per surface,
    at its best score, down to the highest score that more than
    K = max_candidates of them reach, ties included. No top-K reading is
    lost: first alternatives weigh 1 and a reading may end as it is, so
    K + 1 kept surfaces complete to K + 1 distinct readings at or above the
    cutoff, and a dropped state's readings all score below it. Keeping more
    than K surfaces also shows that more than K readings exist. Extensions
    are counted per score first; only those at the cutoff are built.
    """
    max_ins = limits.insertions_for(word)
    vowels = table.mt_vowels
    truncated = False
    # Per step: (weight, alternative, whether a vowel may be inserted before it)
    steps = [
        [
            (1.0 / (1 + alt_index), alt, bool(alt) and not _is_vowel(alt[0]))
            for alt_index, alt in enumerate(_letter_alternatives(word, i, table))
        ]
        for i in range(len(word.letters))
    ] + [[(1.0, "", True)]]

    # beam state: (surface, score, insertions_used), best first
    beam: list[tuple[str, float, int]] = [("", 1.0, 0)]
    for alternatives in steps:
        # A vowel may be inserted after a consonant while the budget lasts.
        parents = [
            (surface, score, used, used < max_ins and bool(surface) and not _is_vowel(surface[-1]))
            for surface, score, used in beam
        ]
        counts: Counter[float] = Counter()
        for (score, can_insert), n in Counter((p[1], p[3]) for p in parents).items():
            for weight, _, before_consonant in alternatives:
                if can_insert and before_consonant:
                    counts[score * INSERTION_PENALTY * weight] += n * len(vowels)
                counts[score * weight] += n
        # The count of states bounds the count of surfaces, which is known
        # once they are built: one surface can be reached two ways.
        levels = sorted(counts, reverse=True)
        for cutoff, reached in zip(levels, accumulate(counts[level] for level in levels)):
            if reached > limits.max_candidates or cutoff == levels[-1]:
                beam = _extend(parents, alternatives, vowels, cutoff)
                if len(beam) > limits.max_candidates:
                    break
        if len(beam) > limits.max_candidates:
            truncated = True

    candidates = tuple(
        Candidate(surface=s, gen_score=score) for s, score, _ in beam[: limits.max_candidates]
    )
    return GenerationResult(candidates, truncated)


def strip_affixes(surface: str, lexicon: Lexicon) -> set[tuple[str, tuple[str, ...]]]:
    """All (stem, affix chain) segmentations licensed by the lexicon.

    From every prefix of the word that is an attested stem, suffixes are
    attached by harmony (as apply_harmony does); a segmentation counts only
    if the result spells the word. Chains are returned in application order.
    """
    word = _lower(surface)
    results: set[tuple[str, tuple[str, ...]]] = set()

    def walk(stem: str, built: str, chain: tuple[str, ...]) -> None:
        if built == word:
            results.add((stem, chain))
        elif _last_vowel(built) is not None:
            for name in SUFFIXES:
                longer = _attach(built, name)
                if word.startswith(longer):
                    walk(stem, longer, chain + (name,))

    for end in range(len(word) + 1):
        if lexicon.contains(word[:end]):
            walk(word[:end], word[:end], ())
    return results


def apply_harmony(stem: str, chain: Iterable[str]) -> str:
    """Attach archiphonemic suffixes to a stem with MT harmony rules.

    A realizes as a/e (two-fold backness harmony); I as ı/i/u/ü (four-fold
    backness+rounding harmony); D as d/t (voicing assimilation). A leading
    parenthesized segment is used only after a consonant. Each suffix name
    must be one of SUFFIXES; any other name raises KeyError.
    """
    word = stem
    if _last_vowel(word) is None:
        raise NoVowelInStem(stem)
    for name in chain:
        word = _attach(word, name)
    return word


def _attach(word: str, name: str) -> str:
    """Realize the suffix `name` after a word that has a vowel."""
    optional, body = SUFFIXES[name]
    return _realize(word, body if _is_vowel(word[-1]) else optional + body)


def _realize(word: str, template: str) -> str:
    for ch in template:
        if ch == "D":
            index = word[-1] in _VOICELESS_FINALS
        elif ch in _ARCHIPHONEMES:
            last = _last_vowel(word)
            index = last not in _BACK_VOWELS
            if ch == "I":
                index += 2 * (last in _ROUNDED_VOWELS)
        else:
            word += ch
            continue
        word += _ARCHIPHONEMES[ch][index]
    return word


def check_vowel_harmony(word: str) -> bool:
    """True iff consecutive vowels obey two-fold backness harmony, with
    rounding additionally checked for high vowels."""
    vowels = [
        _LONG_VOWEL_BASE.get(ch, ch)
        for ch in _lower(word)
        if _LONG_VOWEL_BASE.get(ch, ch) in _BACK_VOWELS | _FRONT_VOWELS
    ]
    for prev, cur in zip(vowels, vowels[1:]):
        if (cur in _BACK_VOWELS) != (prev in _BACK_VOWELS):
            return False
        if cur in _HIGH_VOWELS and (cur in _ROUNDED_VOWELS) != (prev in _ROUNDED_VOWELS):
            return False
    return True


def romanize(
    word: OTWord,
    table: SchemeTable,
    lexicon: Lexicon,
    exceptions: ExceptionLexicon,
    lm_model=None,
    limits: GenLimits = GenLimits(),
    alpha: float = 0.5,
) -> list[Candidate]:
    """Full romanization pipeline, deterministically ranked best-first.

    Exception entries short-circuit generation entirely. Generated candidates
    are kept when the lexicon attests them (see strip_affixes);
    if none pass, all candidates are kept so the pipeline still yields a
    good-enough reading. Ranking combines generation prior and LM score.
    """
    override = exceptions.lookup(word)
    if override is not None:
        return [Candidate(surface=override, gen_score=1.0, total=0.0)]

    result = generate_candidates(word, table, limits)
    passing = [c for c in result.candidates if strip_affixes(c.surface, lexicon)]
    pool = passing if passing else list(result.candidates)

    if lm_model is not None:
        from .lm import rescore

        return rescore(pool, lm_model, alpha)

    scored = [replace(c, total=math.log(c.gen_score)) for c in pool]
    scored.sort(key=lambda c: (-c.total, c.surface))
    return scored
