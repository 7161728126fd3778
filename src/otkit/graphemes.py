"""Grapheme-level line reversal for pairing LTR transcriptions with RTL page images.

HTR platforms match transcription lines against image lines, so a left-to-right
Latin transcription of a right-to-left page has to be stored in reversed order.
Reversal operates on extended grapheme clusters (never splitting combining
diacritics from their base) and keeps digit runs in their original internal
order, since numerals run LTR even inside RTL text.
"""

from __future__ import annotations

import unicodedata
from itertools import groupby

import regex

_GRAPHEME_RE = regex.compile(r"\X")

# Decimal digits that keep LTR order inside RTL text: ASCII plus Arabic-Indic.
_DIGITS = frozenset("0123456789٠١٢٣٤٥٦٧٨٩")

_BRACKET_MIRROR = str.maketrans("()[]{}<>", ")(][}{><")


def segment_line(text: str) -> tuple[str, ...]:
    """Split `text` into extended grapheme clusters after NFC normalization."""
    return tuple(_GRAPHEME_RE.findall(unicodedata.normalize("NFC", text)))


def reverse_line(
    text: str, *, mirror_brackets: bool = False, preserve_digit_runs: bool = True
) -> str:
    """Reverse a line grapheme by grapheme.

    With `preserve_digit_runs`, every maximal digit run ends up at its reversed
    position but keeps its original internal order ("sayfa 12" -> "12 afyas").
    Applying the function twice returns the NFC form of the input.
    """
    graphemes = segment_line(text)
    if preserve_digit_runs:
        # Digits never share a grapheme cluster with one another, so a digit
        # grapheme is a single code point of _DIGITS.
        runs = [
            "".join(run) if is_digit else "".join(reversed(tuple(run)))
            for is_digit, run in groupby(graphemes, _DIGITS.__contains__)
        ]
        result = "".join(reversed(runs))
    else:
        result = "".join(reversed(graphemes))
    if mirror_brackets:
        result = result.translate(_BRACKET_MIRROR)
    return result
