"""Reference computations and output checks for the otkit benchmark.

The references are written here, independently of `otkit`: grapheme-list
reversal, a two-row Levenshtein distance and an add-k n-gram scorer that
follows the model README. Each checker returns the number of failed items of
one `otkit` call, so a wrong line fails that line and never aborts the run.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter, defaultdict
from pathlib import Path
from typing import Sequence

DIGITS = frozenset("0123456789٠١٢٣٤٥٦٧٨٩")


def reverse_graphemes(graphemes: Sequence[str]) -> list[str]:
    """Reverse a grapheme list, keeping each maximal digit run in its order."""
    out: list[str] = []
    run: list[str] = []
    for g in reversed(graphemes):
        if g in DIGITS:
            run.append(g)
            continue
        out.extend(reversed(run))
        run.clear()
        out.append(g)
    out.extend(reversed(run))
    return out


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost edit distance in two rows of length len(b) + 1."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j - 1] + (x != y), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def document_edits(ref: Sequence[Sequence[str]], hyp: Sequence[Sequence[str]],
                   ref_text: Sequence[str], hyp_text: Sequence[str]) -> tuple[int, int, int, int]:
    """(char edits, ref graphemes, word edits, ref tokens) pooled over line pairs."""
    ce = ct = we = wt = 0
    for r, h, rt, ht in zip(ref, hyp, ref_text, hyp_text):
        ce += levenshtein(r, h)
        ct += len(r)
        we += levenshtein(rt.split(), ht.split())
        wt += len(rt.split())
    return ce, ct, we, wt


class RefLM:
    """Add-k word n-grams; unseen words take UNK's share times a backoff
    weight times an add-k character n-gram probability. The constants are
    `lm-train`'s defaults."""

    BOS, UNK = "<s>", "<unk>"
    CHAR_ORDER, K, BACKOFF_WEIGHT = 3, 0.1, 0.5

    def __init__(self, lines: Sequence[str], order: int):
        self.order = order
        self.counts: dict[tuple, Counter] = defaultdict(Counter)
        self.char_counts: dict[tuple, Counter] = defaultdict(Counter)
        tokens: list[str] = []
        for line in lines:
            toks = unicodedata.normalize("NFC", line).split()
            tokens += toks
            padded = [self.BOS] * (order - 1) + toks
            for i in range(order - 1, len(padded)):
                self.counts[tuple(padded[i - order + 1 : i])][padded[i]] += 1
        self.vocab = set(tokens)
        chars: set[str] = set()
        for tok in tokens:
            chars.update(tok)
            seq = ["\x02"] * (self.CHAR_ORDER - 1) + list(tok) + ["\x03"]
            for i in range(self.CHAR_ORDER - 1, len(seq)):
                self.char_counts[tuple(seq[i - self.CHAR_ORDER + 1 : i])][seq[i]] += 1
        self.char_vocab = chars
        self.totals = {h: sum(c.values()) for h, c in self.counts.items()}
        self.char_totals = {h: sum(c.values()) for h, c in self.char_counts.items()}

    def _p(self, history: tuple, word: str) -> float:
        c = self.counts.get(history)
        count = c.get(word, 0) if c else 0
        return (count + self.K) / (self.totals.get(history, 0) + self.K * (len(self.vocab) + 1))

    def _char_logprob(self, word: str) -> float:
        n = self.CHAR_ORDER
        seq = ["\x02"] * (n - 1) + list(word) + ["\x03"]
        total = 0.0
        for i in range(n - 1, len(seq)):
            h = tuple(seq[i - n + 1 : i])
            c = self.char_counts.get(h)
            count = c.get(seq[i], 0) if c else 0
            total += math.log((count + self.K) / (self.char_totals.get(h, 0) + self.K * (len(self.char_vocab) + 1)))
        return total

    def score(self, tokens: Sequence[str]) -> float:
        history = [self.BOS] * (self.order - 1)
        total = 0.0
        for tok in tokens:
            h = tuple(history[len(history) - (self.order - 1):]) if self.order > 1 else ()
            if tok in self.vocab:
                total += math.log(self._p(h, tok))
            else:
                total += math.log(self._p(h, self.UNK)) + math.log(self.BACKOFF_WEIGHT) + self._char_logprob(tok)
            history.append(tok)
        return total

    def perplexity(self, lines: Sequence[str]) -> float:
        total, n = 0.0, 0
        for line in lines:
            toks = unicodedata.normalize("NFC", line).split()
            if toks:
                total += self.score(toks)
                n += len(toks)
        return math.exp(-total / n)


# ---------------------------------------------------------------- checkers
#
# Each checker takes the call's plan entry, its exit code and captured
# stdout/stderr, and returns (failed items, extra), where extra carries the
# counts a report needs (top-1 hits for romanize).

def _file_lines(path: str) -> list[str] | None:
    try:
        text = Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def compare_lines(actual: list[str] | None, expected: Sequence[str]) -> int:
    """Failed lines: all of them if the line count is off, else each mismatch."""
    if actual is None or len(actual) != len(expected):
        return len(expected)
    return sum(a != e for a, e in zip(actual, expected))


def check_lines(spec: dict, code: int, out: str, err: str) -> tuple[int, dict]:
    expected_total = sum(len(v) for v in spec["files"].values())
    if code != 0:
        return expected_total, {}
    return sum(compare_lines(_file_lines(p), exp) for p, exp in spec["files"].items()), {}


def check_romanize(spec: dict, code: int, out: str, err: str) -> tuple[int, dict]:
    """One line per word echoing it, with at least one candidate, and exactly
    the exception reading for exception-lexicon words."""
    words, exceptions, gold = spec["words"], spec["exceptions"], spec["gold"]
    lines = out.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    gold_words = sum(w in gold for w in words)
    if code != 0 or len(lines) != len(words):
        return len(words), {"gold": gold_words, "top1": 0}
    failed = top1 = 0
    for word, line in zip(words, lines):
        fields = line.split("\t")
        ok = fields[0] == word and len(fields) >= 2
        if ok and word in exceptions:
            ok = fields[1:] == [exceptions[word]]
        failed += not ok
        top1 += ok and word in gold and fields[1] == gold[word]
    return failed, {"gold": gold_words, "top1": top1}


def _parse_csv(text: str) -> dict[str, tuple[str, str]]:
    rows = {}
    for line in text.strip().split("\n")[1:]:
        cells = line.split(",")
        if len(cells) == 5:
            rows[cells[0]] = (cells[3], cells[4])
    return rows


def check_eval(spec: dict, code: int, out: str, err: str) -> tuple[int, dict]:
    """Per-document CER/WER (and the pooled TOTAL) against the two-row
    Levenshtein; the mismatched document must be reported as skipped.
    A wrong document fails its lines; a wrong TOTAL fails every line."""
    total_items = sum(r[1] for r in spec["rows"]) + sum(n for _, n in spec["skipped"])
    if code != 0:
        return total_items, {}
    got = _parse_csv(out)
    failed = 0
    ce = ct = we = wt = 0
    for name, lines, c_e, c_t, w_e, w_t in spec["rows"]:
        ce, ct, we, wt = ce + c_e, ct + c_t, we + w_e, wt + w_t
        if got.get(name) != (f"{c_e / c_t:.6f}", f"{w_e / w_t:.6f}"):
            failed += lines
    for name, lines in spec["skipped"]:
        if name in got or f"skipped {name}:" not in err:
            failed += lines
    if got.get("TOTAL") != (f"{ce / ct:.6f}", f"{we / wt:.6f}"):
        failed = total_items
    return failed, {}


def check_lm_model(spec: dict, code: int, out: str, err: str, items: int) -> int:
    """The saved model loads and re-saves byte-identically."""
    if code != 0:
        return items
    from otkit import lm

    path = Path(spec["path"])
    again = path.with_name(path.stem + ".resaved.json")
    try:
        lm.save(lm.load(path), again)
        same = again.read_bytes() == path.read_bytes()
    except (OSError, ValueError, KeyError):
        same = False
    return 0 if same else items


def _close(printed: str, expected: float) -> bool:
    try:
        value = float(printed)
    except ValueError:
        return False
    return math.isfinite(value) and abs(value - expected) <= 2e-6 + 1e-9 * abs(expected)


def check_lm_scores(spec: dict, code: int, out: str, err: str) -> tuple[int, dict]:
    """One finite `score<TAB>line` per held-out line, equal to the reference."""
    lines, scores = spec["lines"], spec["scores"]
    sizes = [len(x.split()) for x in lines]
    got = out.split("\n")
    if got and got[-1] == "":
        got.pop()
    if code != 0 or len(got) != len(lines):
        return sum(sizes), {}
    failed = 0
    for line, expected, size, row in zip(lines, scores, sizes, got):
        value, _, text = row.partition("\t")
        if text != line or not _close(value, expected):
            failed += size
    return failed, {}


def check_lm_perplexity(spec: dict, code: int, out: str, err: str) -> tuple[int, dict]:
    ok = code == 0 and _close(out.strip(), spec["perplexity"])
    return (0 if ok else spec["tokens"]), {}


CHECKERS = {
    "lines": check_lines,
    "romanize": check_romanize,
    "eval": check_eval,
    "lm_scores": check_lm_scores,
    "lm_perplexity": check_lm_perplexity,
}


def check(call: dict, code: int, out: str, err: str) -> tuple[int, dict]:
    """Failed items of one call, and any counts the report needs."""
    spec = call["check"]
    if spec["kind"] == "lm_model":
        return check_lm_model(spec, code, out, err, call["items"]), {}
    return CHECKERS[spec["kind"]](spec, code, out, err)
