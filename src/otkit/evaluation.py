"""Character and word error rates over grapheme-cluster alignments.

CER follows the (S+I+D)/|reference| convention at grapheme-cluster level, so a
diacritic-marked letter counts as a single error rather than two. WER applies
the same edit distance over whitespace tokens. Reports pool edits across lines
and documents (micro averaging) and mirror the publication/subject/date table
layout used for cross-domain comparisons.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

from .graphemes import segment_line


class EmptyReference(ValueError):
    """Error rates are undefined against an empty reference."""


@dataclass(frozen=True)
class Alignment:
    substitutions: int
    insertions: int
    deletions: int
    matches: int

    @property
    def distance(self) -> int:
        return self.substitutions + self.insertions + self.deletions


def levenshtein_align(ref: Sequence[str], hyp: Sequence[str]) -> Alignment:
    """Edit and match counts of a minimal unit-cost alignment, by deterministic traceback.

    The distances come from the bit-parallel edit distance of Myers (1999,
    J. ACM 46(3)) in the global form of Hyyrö (2001): one bit per reference
    position, and for each hypothesis column j the pair (pv, mv) of integers
    whose bits mark the +1 and -1 vertical deltas D[i][j] - D[i-1][j]. Any
    cell is then D[i][j] = j + popcount(pv & low_i) - popcount(mv & low_i),
    with low_i = 2**i - 1, so no matrix is stored. The forward pass costs
    O(len(hyp) * ceil(len(ref) / w)) word operations for a word of w bits,
    the traceback O(len(ref) + len(hyp)).

    Ties are broken preferring Match > Substitute > Delete > Insert.
    """
    n, m = len(ref), len(hyp)
    peq: dict[str, int] = {}
    for i, g in enumerate(ref):
        peq[g] = peq.get(g, 0) | (1 << i)
    full = (1 << n) - 1
    pv, mv = full, 0
    cols = [(pv, mv)]
    for g in hyp:
        eq = peq.get(g, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        # Row 0 is D[0][j] = j, so a +1 horizontal delta enters at the bottom.
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
        cols.append((pv, mv))

    i, j = n, m
    d = m + pv.bit_count() - mv.bit_count()  # D[i][j]; each step but a match lowers it by 1
    s = ins = dele = matches = 0
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            # Equal graphemes always give D[i][j] == D[i-1][j-1].
            if ref[i - 1] == hyp[j - 1]:
                matches += 1
                i, j = i - 1, j - 1
                continue
            # Substitute iff D[i][j] == D[i-1][j-1] + 1, read from column j - 1.
            prev_pv, prev_mv = cols[j - 1]
            low = (1 << (i - 1)) - 1
            if d == j + (prev_pv & low).bit_count() - (prev_mv & low).bit_count():
                s += 1
                i, j, d = i - 1, j - 1, d - 1
                continue
        if i > 0 and cols[j][0] >> (i - 1) & 1:
            dele += 1
            i, d = i - 1, d - 1
        else:
            ins += 1
            j, d = j - 1, d - 1
    return Alignment(s, ins, dele, matches)


def _grapheme_counts(ref: str, hyp: str) -> tuple[int, int]:
    ref_g = segment_line(ref)
    return levenshtein_align(ref_g, segment_line(hyp)).distance, len(ref_g)


def _token_counts(ref: str, hyp: str) -> tuple[int, int]:
    ref_t = ref.split()
    return levenshtein_align(ref_t, hyp.split()).distance, len(ref_t)


def _rate(edits: int, total: int, empty: str) -> float:
    if not total:
        raise EmptyReference(empty)
    return edits / total


def cer(ref: str, hyp: str) -> float:
    """(S+I+D) / reference length, in grapheme clusters. May exceed 1.0."""
    return _rate(*_grapheme_counts(ref, hyp), "reference has no graphemes")


def wer(ref: str, hyp: str) -> float:
    """(S+I+D) / reference length, over whitespace tokens."""
    return _rate(*_token_counts(ref, hyp), "reference has no tokens")


@dataclass(frozen=True)
class DocumentMeta:
    name: str
    subject: str = ""
    date: str = ""


@dataclass(frozen=True)
class DocumentRow:
    meta: DocumentMeta
    cer: float
    wer: float
    char_edits: int
    char_total: int
    word_edits: int
    word_total: int


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[DocumentRow, ...]
    skipped: tuple[tuple[DocumentMeta, str], ...] = ()

    @property
    def micro_cer(self) -> float:
        edits, total = sum(r.char_edits for r in self.rows), sum(r.char_total for r in self.rows)
        return _rate(edits, total, "no reference graphemes in report")

    @property
    def micro_wer(self) -> float:
        edits, total = sum(r.word_edits for r in self.rows), sum(r.word_total for r in self.rows)
        return _rate(edits, total, "no reference tokens in report")

    def render_table(self) -> str:
        headers = ("Name of publication", "Subject", "Date", "CER", "WER")
        body = [
            (r.meta.name, r.meta.subject, r.meta.date, f"{r.cer:.2%}", f"{r.wer:.2%}")
            for r in self.rows
        ]
        if self.rows:
            body.append(("TOTAL", "", "", f"{self.micro_cer:.2%}", f"{self.micro_wer:.2%}"))
        widths = [max(len(row[c]) for row in [headers, *body]) for c in range(5)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in [headers, *body]]
        for meta, reason in self.skipped:
            lines.append(f"# skipped {meta.name}: {reason}")
        return "\n".join(lines)

    def render_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "subject", "date", "cer", "wer"])
        for r in self.rows:
            writer.writerow(
                [r.meta.name, r.meta.subject, r.meta.date, f"{r.cer:.6f}", f"{r.wer:.6f}"]
            )
        if self.rows:
            writer.writerow(
                ["TOTAL", "", "", f"{self.micro_cer:.6f}", f"{self.micro_wer:.6f}"]
            )
        return buf.getvalue()


def document_counts(ref_lines: Sequence[str], hyp_lines: Sequence[str]):
    """Pooled (char_edits, char_total, word_edits, word_total) over line pairs."""
    counts = [_grapheme_counts(r, h) + _token_counts(r, h) for r, h in zip(ref_lines, hyp_lines)]
    return tuple(sum(c[k] for c in counts) for k in range(4))


def corpus_report(
    pairs: Sequence[tuple[DocumentMeta, Sequence[str], Sequence[str] | None]],
) -> EvalReport:
    """Per-document micro CER/WER plus pooled totals.

    Documents with no hypothesis (None), whose line counts differ, or whose
    reference holds nothing but whitespace, are reported as skipped and
    excluded from the totals rather than aborting the run.
    """
    rows = []
    skipped = []
    for meta, ref_lines, hyp_lines in pairs:
        if hyp_lines is None:
            skipped.append((meta, "no hypothesis file"))
            continue
        if len(ref_lines) != len(hyp_lines):
            skipped.append(
                (meta, f"line count mismatch ({len(ref_lines)} vs {len(hyp_lines)})")
            )
            continue
        ce, ct, we, wt = document_counts(ref_lines, hyp_lines)
        # No word tokens means no graphemes or only whitespace ones.
        if wt == 0:
            skipped.append((meta, "empty reference"))
            continue
        rows.append(
            DocumentRow(
                meta=meta,
                cer=ce / ct,
                wer=we / wt,
                char_edits=ce,
                char_total=ct,
                word_edits=we,
                word_total=wt,
            )
        )
    return EvalReport(tuple(rows), tuple(skipped))
