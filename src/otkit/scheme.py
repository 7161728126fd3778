"""Transcription schemes: the OT->MT correspondence table and IA/loose conventions.

The IA scheme (Islam Ansiklopedisi) uses diacritical marks to keep polyphonic
letters apart; the loose scheme marks only long vowels (â/î/û) and uses no
other diacritics. IA text converts to loose, not back. The correspondence
table and the IA->loose strip map live in JSON data files, so a table can be
changed without code changes.
"""

from __future__ import annotations

import json
import os
import unicodedata
from dataclasses import dataclass
from pathlib import Path

from .graphemes import segment_line

_DATA_DIR_ENV = "OTKIT_SCHEME_DIR"
_DEFAULT_DATA_DIR = Path(__file__).parent / "data" / "schemes"


class UnknownLetter(ValueError):
    """Raised for a letter outside the loaded OT alphabet."""

    def __str__(self) -> str:
        return repr(self.args[0])


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


def convert_scheme(text: str, table: SchemeTable) -> str:
    """Convert IA transcription text to the loose scheme.

    IA -> loose is the only direction: IA is strictly richer, so the reverse
    would have to invent information. The conversion is idempotent: loose text
    is a fixed point.
    """
    strip = table.diacritic_strip
    return "".join(strip.get(g, g) for g in segment_line(text))

