"""Grapheme-level line reversal for pairing LTR transcriptions with RTL page images.

HTR platforms match transcription lines against image lines, so a left-to-right
Latin transcription of a right-to-left page has to be stored in reversed order.
Reversal operates on extended grapheme clusters (never splitting combining
diacritics from their base) and keeps digit runs in their original internal
order, since numerals run LTR even inside RTL text.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import Iterable

import regex

_GRAPHEME_RE = regex.compile(r"\X")

# Decimal digits that keep LTR order inside RTL text: ASCII plus Arabic-Indic.
_DIGITS = frozenset("0123456789٠١٢٣٤٥٦٧٨٩")

_BRACKET_MIRROR = str.maketrans("()[]{}<>", ")(][}{><")


class RunKind(Enum):
    REVERSIBLE = "reversible"
    DIGIT_RUN = "digit_run"


@dataclass(frozen=True)
class RunSegment:
    """A contiguous [start, end) span of grapheme indices of uniform kind."""

    kind: RunKind
    start: int
    end: int


@dataclass(frozen=True)
class GraphemeLine:
    """A line of text as a sequence of extended grapheme clusters (NFC)."""

    graphemes: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.graphemes)

    @property
    def text(self) -> str:
        return "".join(self.graphemes)


@dataclass(frozen=True)
class ReversalOptions:
    mirror_brackets: bool = False
    preserve_digit_runs: bool = True


def segment_line(text: str) -> GraphemeLine:
    """Split `text` into extended grapheme clusters after NFC normalization."""
    normalized = unicodedata.normalize("NFC", text)
    return GraphemeLine(tuple(_GRAPHEME_RE.findall(normalized)))


def segment_runs(line: GraphemeLine) -> list[RunSegment]:
    """Partition a line into maximal digit runs and reversible spans."""
    runs: list[RunSegment] = []
    start = 0
    # Digits never share a grapheme cluster with one another, so a digit
    # grapheme is a single code point of _DIGITS.
    for is_digit, group in groupby(line.graphemes, _DIGITS.__contains__):
        end = start + sum(1 for _ in group)
        runs.append(RunSegment(RunKind.DIGIT_RUN if is_digit else RunKind.REVERSIBLE, start, end))
        start = end
    return runs


def reverse_line(text: str, opts: ReversalOptions = ReversalOptions()) -> str:
    """Reverse a line grapheme by grapheme.

    With `preserve_digit_runs`, every maximal digit run ends up at its reversed
    position but keeps its original internal order ("sayfa 12" -> "12 afyas").
    Applying the function twice returns the NFC form of the input.
    """
    line = segment_line(text)
    if opts.preserve_digit_runs:
        pieces = []
        for run in reversed(segment_runs(line)):
            piece = line.graphemes[run.start : run.end]
            pieces.extend(piece if run.kind is RunKind.DIGIT_RUN else reversed(piece))
        result = "".join(pieces)
    else:
        result = "".join(reversed(line.graphemes))
    if opts.mirror_brackets:
        result = result.translate(_BRACKET_MIRROR)
    return result


def reverse_document(
    lines: Iterable[str], opts: ReversalOptions = ReversalOptions()
) -> list[str]:
    """Apply reverse_line element-wise; line order is unchanged."""
    return [reverse_line(line, opts) for line in lines]
