"""Transcription schemes: the OT->MT correspondence table and IA/loose conventions.

Two built-in schemes are supported. The IA scheme (Islam Ansiklopedisi) uses
diacritical marks to keep polyphonic letters apart; the loose scheme marks only
long vowels (â/î/û) and uses no other diacritics. The correspondence table and
the IA->loose strip map live in JSON data files so further schemes can be added
without code changes.
"""

from __future__ import annotations

import json
import os
import unicodedata
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .graphemes import segment_line

_DATA_DIR_ENV = "OTKIT_SCHEME_DIR"
_DEFAULT_DATA_DIR = Path(__file__).parent / "data" / "schemes"

# Modern Turkish alphabet (29 letters) plus the long-vowel circumflex forms.
_MT_LOWER = "abcçdefgğhıijklmnoöprsştuüvyz"
_MT_UPPER = "ABCÇDEFGĞHIİJKLMNOÖPRSŞTUÜVYZ"
_LONG_VOWELS = "âîûÂÎÛ"
LOOSE_LETTERS = frozenset(_MT_LOWER + _MT_UPPER + _LONG_VOWELS)


class UnknownLetter(ValueError):
    """Raised for a letter outside the loaded OT alphabet."""

    def __str__(self) -> str:
        return repr(self.args[0])


class UnknownScheme(ValueError):
    """Raised for an unsupported scheme or conversion direction."""


class SchemeId(Enum):
    IA = "ia"
    LOOSE = "loose"

    @classmethod
    def parse(cls, name: str) -> "SchemeId":
        try:
            return cls(name.lower())
        except ValueError:
            raise UnknownScheme(f"unknown scheme: {name!r}") from None


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    grapheme: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.grapheme!r} not in scheme alphabet"


@dataclass(frozen=True)
class SchemeTable:
    """Immutable OT->MT correspondence table plus the IA->loose strip map."""

    ot_to_latin: dict[str, tuple[str, ...]]
    vowel_letters: frozenset[str]
    mt_vowels: tuple[str, ...]
    diacritic_strip: dict[str, str]

    def candidates(self, letter: str) -> tuple[str, ...]:
        """All MT realizations of an OT letter, in generation-priority order."""
        try:
            return self.ot_to_latin[unicodedata.normalize("NFC", letter)]
        except KeyError:
            raise UnknownLetter(letter) from None

    @property
    def ia_letters(self) -> frozenset[str]:
        return LOOSE_LETTERS | frozenset(self.diacritic_strip)


def load_table() -> SchemeTable:
    """Load the tables from `OTKIT_SCHEME_DIR`, or the packaged ones if it is unset or empty."""
    base = Path(os.environ.get(_DATA_DIR_ENV) or _DEFAULT_DATA_DIR)
    alphabet = json.loads((base / "ot_alphabet.json").read_text("utf-8"))
    strip = json.loads((base / "ia_to_loose.json").read_text("utf-8"))
    return SchemeTable(
        ot_to_latin={k: tuple(v) for k, v in alphabet["ot_to_latin"].items()},
        vowel_letters=frozenset(alphabet["vowel_letters"]),
        mt_vowels=tuple(alphabet["mt_vowels"]),
        diacritic_strip=dict(strip["strip"]),
    )


def convert_scheme(
    text: str, from_scheme: SchemeId, to_scheme: SchemeId, table: SchemeTable
) -> str:
    """Convert transcription text between schemes.

    Only IA -> loose is supported (IA is strictly richer, so the reverse would
    have to invent information). The conversion is idempotent: loose text is a
    fixed point.
    """
    if to_scheme is from_scheme:
        return unicodedata.normalize("NFC", text)
    if not (from_scheme is SchemeId.IA and to_scheme is SchemeId.LOOSE):
        raise UnknownScheme(
            f"unsupported conversion: {from_scheme.value} -> {to_scheme.value}"
        )
    strip = table.diacritic_strip
    return "".join(strip.get(g, g) for g in segment_line(text))


def _scheme_letters(scheme: SchemeId, table: SchemeTable) -> frozenset[str]:
    if scheme is SchemeId.LOOSE:
        return LOOSE_LETTERS
    if scheme is SchemeId.IA:
        return table.ia_letters
    raise UnknownScheme(str(scheme))


def _is_alphabetic(grapheme: str) -> bool:
    return any(unicodedata.category(ch).startswith("L") for ch in grapheme)


def validate_scheme_text(text: str, scheme: SchemeId, table: SchemeTable) -> list[Diagnostic]:
    """Flag every alphabetic grapheme outside the scheme's Latin alphabet.

    Digits, punctuation, and whitespace always pass. Lines are numbered from 1
    and columns are 1-based grapheme offsets.
    """
    allowed = _scheme_letters(scheme, table)
    diagnostics = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        for col, g in enumerate(segment_line(raw), start=1):
            if _is_alphabetic(g) and g not in allowed:
                diagnostics.append(Diagnostic(line_no, col, g))
    return diagnostics
