"""Word n-gram language model with a character-level backoff for unknown words.

Add-k smoothed word n-grams capture in-domain preferences between competing
readings; out-of-vocabulary words are scored by routing a weighted share of the
UNK probability mass through a character n-gram model, so an unseen inflected
form of a seen stem still scores well above a random string.
"""

from __future__ import annotations

import json
import math
import unicodedata
from itertools import chain
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

BOS = "<s>"
UNK = "<unk>"
_CHAR_BOS = "\x02"
_CHAR_EOS = "\x03"
_KEY_SEP = "\x1f"

FORMAT_VERSION = 1


class EmptyCorpus(ValueError):
    """Raised when training or evaluation input contains no tokens."""


def tokenize(line: str) -> list[str]:
    """NFC-normalize and split on whitespace; punctuation stays attached."""
    return unicodedata.normalize("NFC", line).split()


@dataclass(frozen=True)
class _AddK:
    """Add-k smoothed n-gram counts over words, or over the characters of words.

    P(t | h) = (c(h, t) + k) / (c(h) + k * (|V| + 1)); the history totals c(h)
    are summed once, when the model is built.
    """

    order: int
    counts: dict[tuple[str, ...], dict[str, int]]
    vocab: frozenset[str]
    k: float
    _totals: dict[tuple[str, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("model orders must be >= 1")
        if not 0 < self.k < math.inf:
            raise ValueError("add-k constant must be positive and finite")
        # One C-level pass over every count: a min() per history costs more
        # than the sums below.
        if min(chain.from_iterable(map(dict.values, self.counts.values())), default=0) < 0:
            raise ValueError("n-gram counts must be non-negative")
        totals = {history: sum(counter.values()) for history, counter in self.counts.items()}
        # The least probability the model gives: an unseen token after the
        # most frequent history. At zero, score() would take log(0).
        least = self.k / (max(totals.values(), default=0) + self.k * (len(self.vocab) + 1))
        if not least > 0:
            raise ValueError(f"add-k constant {self.k!r} rounds some probabilities to zero")
        object.__setattr__(self, "_totals", totals)

    def prob(self, history: Sequence[str], token: str) -> float:
        """Add-k probability of a token (or UNK) given the last order-1 symbols of history."""
        h = tuple(history[-(self.order - 1) :]) if self.order > 1 else ()
        counter = self.counts.get(h)
        count = counter.get(token, 0) if counter else 0
        return (count + self.k) / (self._totals.get(h, 0) + self.k * (len(self.vocab) + 1))


@dataclass(frozen=True)
class NgramModel(_AddK):
    char_backoff: _AddK
    backoff_weight: float

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.backoff_weight < 1:
            raise ValueError("backoff weight must be in (0, 1)")

    def token_logprob(self, history: Sequence[str], token: str) -> float:
        if token in self.vocab:
            return math.log(self.prob(history, token))
        return (
            math.log(self.prob(history, UNK))
            + math.log(self.backoff_weight)
            + _spelling_logprob(self.char_backoff, token)
        )


def _spelling_logprob(chars: _AddK, word: str) -> float:
    padded = (_CHAR_BOS,) * (chars.order - 1) + tuple(word) + (_CHAR_EOS,)
    total = 0.0
    for i in range(chars.order - 1, len(padded)):
        total += math.log(chars.prob(padded[:i], padded[i]))
    return total


def _count(
    sequences: Iterable[Sequence[str]], order: int, pad: str
) -> dict[tuple[str, ...], dict[str, int]]:
    """Count every n-gram of each sequence after left-padding it with order-1 `pad`s."""
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    for sequence in sequences:
        padded = (pad,) * (order - 1) + tuple(sequence)
        # One step per symbol, also for an order < 1, which the model then refuses.
        for i, token in enumerate(sequence):
            history = padded[i : i + order - 1]
            # Not setdefault: it would build a throwaway dict for every symbol.
            table = counts.get(history)
            if table is None:
                table = counts[history] = {}
            table[token] = table.get(token, 0) + 1
    return counts


def train(
    corpus: Iterable[str],
    order: int = 2,
    char_order: int = 3,
    k: float = 0.1,
    backoff_weight: float = 0.5,
) -> NgramModel:
    """Train an add-k n-gram model with sentence-boundary padding."""
    lines = [tokens for tokens in map(tokenize, corpus) if tokens]
    if not lines:
        raise EmptyCorpus("no tokens after whitespace tokenization")
    vocab = frozenset(token for tokens in lines for token in tokens)
    words = (token + _CHAR_EOS for tokens in lines for token in tokens)
    return NgramModel(
        order=order,
        counts=_count(lines, order, BOS),
        vocab=vocab,
        k=k,
        char_backoff=_AddK(
            char_order, _count(words, char_order, _CHAR_BOS), frozenset("".join(vocab)), k
        ),
        backoff_weight=backoff_weight,
    )


def score(model: NgramModel, tokens: Sequence[str]) -> float:
    """Log-probability of a token sequence; finite for any input."""
    if not tokens:
        raise ValueError("token sequence must be non-empty")
    history = [BOS] * (model.order - 1)
    total = 0.0
    for token in tokens:
        total += model.token_logprob(history, token)
        history = (history + [token])[-(model.order - 1) :] if model.order > 1 else []
    return total


def perplexity(model: NgramModel, corpus: Iterable[str]) -> float:
    """exp(-mean log P) over all corpus tokens; lower is better."""
    total = 0.0
    n = 0
    for line in corpus:
        tokens = tokenize(line)
        if not tokens:
            continue
        total += score(model, tokens)
        n += len(tokens)
    if n == 0:
        raise EmptyCorpus("no tokens to evaluate")
    return math.exp(-total / n)


def rescore(candidates, model: NgramModel, alpha: float = 0.5):
    """Rank candidates by alpha*log(gen) + (1-alpha)*lm, ties broken by surface."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not candidates:
        raise ValueError("candidate set must be non-empty")
    rescored = []
    for cand in candidates:
        gen_log = math.log(cand.gen_score) if cand.gen_score > 0 else -math.inf
        lm_log = score(model, [cand.surface])
        total = alpha * gen_log + (1.0 - alpha) * lm_log
        rescored.append(replace(cand, total=total))
    rescored.sort(key=lambda c: (-c.total, c.surface))
    return rescored


def _to_json(model: _AddK) -> dict:
    # save() sorts every object's keys; only the vocab list needs sorting here.
    return {
        "order": model.order,
        "k": model.k,
        "vocab": sorted(model.vocab),
        "counts": {_KEY_SEP.join(history): table for history, table in model.counts.items()},
    }


_JSON_TYPES = {"order": int, "k": (int, float), "vocab": list, "counts": dict}


def _from_json(data, cls: type[_AddK] = _AddK, **extra) -> _AddK:
    if not isinstance(data, dict) or any(
        not isinstance(data.get(key), kind) for key, kind in _JSON_TYPES.items()
    ):
        raise ValueError(f"malformed model file: needs {', '.join(_JSON_TYPES)}")
    try:
        counts = {
            tuple(key.split(_KEY_SEP)) if key else (): value
            for key, value in data["counts"].items()
        }
        return cls(data["order"], counts, frozenset(data["vocab"]), data["k"], **extra)
    except (TypeError, ValueError) as exc:
        # Looked for only on this path, so a well-formed file pays nothing.
        tables = data["counts"].items()
        bad = next((key for key, table in tables if not isinstance(table, dict)), None)
        if bad is not None:
            raise ValueError(
                f"malformed model file: count table {bad!r} is not a JSON object"
            ) from exc
        raise ValueError(f"malformed model file: {exc}") from exc


def save(model: NgramModel, path: Path | str) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "backoff_weight": model.backoff_weight,
        **_to_json(model),
        "char_backoff": _to_json(model.char_backoff),
    }
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, sort_keys=True), "utf-8"
    )


def load(path: Path | str) -> NgramModel:
    payload = json.loads(Path(path).read_text("utf-8"))
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {version}")
    weight = payload.get("backoff_weight")
    if not isinstance(weight, float):
        raise ValueError("malformed model file: needs backoff_weight")
    return _from_json(
        payload,
        NgramModel,
        char_backoff=_from_json(payload.get("char_backoff")),
        backoff_weight=weight,
    )
