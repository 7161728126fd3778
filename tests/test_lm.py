import io
import json
import math
import random
import string
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from otkit import lm
from otkit.cli import run
from otkit.lm import EmptyCorpus, UNK
from otkit.romanizer import Candidate


def hand_add_k(count, history_total, vocab_size, k):
    return (count + k) / (history_total + k * (vocab_size + 1))


class TestTrain:
    def test_bigram_hand_computation(self):
        k = 0.1
        model = lm.train(["a b", "a b"], order=2, k=k)
        # |V| = 2; history (a,) seen twice, always followed by b
        assert model.prob(("a",), "b") == pytest.approx(hand_add_k(2, 2, 2, k), abs=1e-12)

    def test_unigram_single_word(self):
        k = 0.1
        model = lm.train(["x"], order=1, k=k)
        assert model.prob((), "x") == pytest.approx(hand_add_k(1, 1, 1, k), abs=1e-12)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            lm.train([], order=2)
        with pytest.raises(EmptyCorpus):
            lm.train(["   ", ""], order=2)

    def test_deterministic(self):
        corpus = ["amele geldi", "hoca oldu", "amele oldu"]
        a, b = lm.train(corpus), lm.train(corpus)
        assert a == b

    def test_order_independent_counts(self):
        corpus = ["a b", "c d", "a d"]
        a = lm.train(corpus)
        b = lm.train(list(reversed(corpus)))
        assert a.counts == b.counts and a.vocab == b.vocab


def naive_counts(sequences, order, pad):
    """One Counter over whole n-grams, each sequence left-padded with order-1 `pad`s,
    then split into {history: {token: count}}."""
    grams = Counter()
    for sequence in sequences:
        padded = [pad] * (order - 1) + list(sequence)
        for i in range(order - 1, len(padded)):
            grams[tuple(padded[i - order + 1 : i + 1])] += 1
    tables = {}
    for gram, n in grams.items():
        tables.setdefault(gram[:-1], {})[gram[-1]] = n
    return tables


def sorting_to_json(model):
    """The model writer as it was when it sorted every table itself."""
    return {
        "order": model.order,
        "k": model.k,
        "vocab": sorted(model.vocab),
        "counts": {
            "\x1f".join(history): dict(sorted(counter.items()))
            for history, counter in sorted(model.counts.items())
        },
    }


# "c" + U+0327 composes to "ç" under NFC; U+0307 has no precomposed form with "ı".
_LINE = st.text(alphabet=["a", "ç", "ı", "c", "\u0327", "\u0307", " ", "\t"], max_size=14)


class TestCountOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        corpus=st.lists(_LINE, min_size=1, max_size=6).filter(lambda c: any(map(str.split, c))),
        order=st.integers(1, 4),
        char_order=st.integers(1, 4),
    )
    def test_counts_match_naive_recount(self, corpus, order, char_order, tmp_path_factory):
        model = lm.train(corpus, order=order, char_order=char_order)
        lines = [t for t in (unicodedata.normalize("NFC", c).split() for c in corpus) if t]
        # Words are padded with <s>; each word's characters with \x02, ended by \x03.
        assert model.counts == naive_counts(lines, order, "<s>")
        spellings = [[*word, "\x03"] for line in lines for word in line]
        assert model.char_backoff.counts == naive_counts(spellings, char_order, "\x02")
        for table in (*model.counts.values(), *model.char_backoff.counts.values()):
            assert all(type(n) is int and n > 0 for n in table.values())

        path = tmp_path_factory.mktemp("model") / "model.json"
        lm.save(model, path)
        payload = {
            "format_version": lm.FORMAT_VERSION,
            "backoff_weight": model.backoff_weight,
            **sorting_to_json(model),
            "char_backoff": sorting_to_json(model.char_backoff),
        }
        expected = json.dumps(payload, ensure_ascii=False, sort_keys=True)
        assert path.read_bytes() == expected.encode("utf-8")


class TestNormalization:
    def test_distributions_sum_to_one(self):
        model = lm.train(["amele geldi", "hoca oldu amele", "gel gel"], order=2)
        for history in model.counts:
            total = sum(model.prob(history, w) for w in model.vocab)
            total += model.prob(history, UNK)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_unseen_history_uniform(self):
        model = lm.train(["a b"], order=2, k=0.1)
        # |V| = 2, so any word gets 1/(|V|+1) against an unseen history
        assert model.prob(("zzz",), "a") == pytest.approx(1 / 3, abs=1e-12)


class TestScore:
    def test_seen_bigram_beats_unseen(self):
        model = lm.train(["a b", "a b", "b a"], order=2)
        assert lm.score(model, ["a", "b"]) > lm.score(model, ["b", "b"])

    def test_in_domain_word_wins(self):
        model = lm.train(["amele geldi", "amele oldu"], order=1)
        assert lm.score(model, ["amele"]) > lm.score(model, ["imle"])

    def test_unseen_inflection_beats_random_string(self):
        corpus = ["amele geldi", "hocalar geldiler", "ameleler yok"]
        model = lm.train(corpus, order=1)
        rng = random.Random(7)
        unseen = "amelelerde"  # seen stem + seen suffix patterns, not in corpus
        assert unseen not in model.vocab
        junk = "".join(rng.choice(string.ascii_lowercase) for _ in unseen)
        assert lm.score(model, [unseen]) > lm.score(model, [junk])

    def test_finite_for_arbitrary_input(self):
        model = lm.train(["a b"], order=2)
        assert math.isfinite(lm.score(model, ["Ωé∂", "б", "a"]))

    def test_bit_exact_repeats(self):
        model = lm.train(["amele geldi"], order=2)
        tokens = ["amele", "qqq", "geldi"]
        assert lm.score(model, tokens) == lm.score(model, tokens)

    def test_unigram_prob_never_decreases_with_evidence(self):
        base = ["a b", "b c"]
        before = lm.train(base, order=1)
        after = lm.train(base + ["a d"], order=1)
        assert after.prob((), "a") >= before.prob((), "a") or math.isclose(
            after.prob((), "a"), before.prob((), "a")
        )


def brute_force_score(corpus, tokens, order, char_order, k, weight):
    """Score `tokens` by recounting every n-gram of the corpus for each probability."""
    lines = [line.split() for line in corpus if line.split()]
    vocab = {t for line in lines for t in line}

    def ngrams(sequence, n, pad):
        padded = [pad] * (n - 1) + list(sequence)
        return [(tuple(padded[i - n + 1 : i]), padded[i]) for i in range(n - 1, len(padded))]

    def add_k(events, history, token, vocab_size):
        seen = [t for h, t in events if h == history]
        return (seen.count(token) + k) / (len(seen) + k * (vocab_size + 1))

    # None pads the start of a sequence; "" ends a word.
    words = [g for line in lines for g in ngrams(line, order, None)]
    chars = [g for line in lines for t in line for g in ngrams([*t, ""], char_order, None)]
    char_vocab = len(set("".join(vocab)))
    total = 0.0
    history = [None] * (order - 1)
    for token in tokens:
        h = tuple(history[len(history) - order + 1 :]) if order > 1 else ()
        if token in vocab:
            total += math.log(add_k(words, h, token, len(vocab)))
        else:
            spelling = 0.0
            for ch_h, ch in ngrams([*token, ""], char_order, None):
                spelling += math.log(add_k(chars, ch_h, ch, char_vocab))
            total += math.log(add_k(words, h, UNK, len(vocab))) + math.log(weight) + spelling
        history.append(token)
    return total


_TOKEN = st.text(alphabet="abç", min_size=1, max_size=4)


class TestAgainstRecount:
    @settings(max_examples=150, deadline=None)
    @given(
        corpus=st.lists(st.lists(_TOKEN, min_size=1, max_size=5).map(" ".join), min_size=1, max_size=6),
        tokens=st.lists(st.text(alphabet="abçd", min_size=1, max_size=4), min_size=1, max_size=5),
        order=st.integers(1, 3),
        char_order=st.integers(1, 3),
        k=st.sampled_from([0.1, 0.5, 2.0]),
    )
    def test_score_matches_brute_force(self, corpus, tokens, order, char_order, k):
        model = lm.train(corpus, order=order, char_order=char_order, k=k, backoff_weight=0.3)
        expected = brute_force_score(corpus, tokens, order, char_order, k, 0.3)
        assert abs(lm.score(model, tokens) - expected) <= 1e-12


class TestPerplexity:
    def test_deterministic_corpus_approaches_one(self):
        model = lm.train(["a a a"], order=1, k=1e-9)
        assert lm.perplexity(model, ["a a a"]) == pytest.approx(1.0, abs=1e-6)

    def test_uniform_model(self):
        words = [f"w{i}" for i in range(5)]
        k = 0.1
        model = lm.train([" ".join(words)], order=1, k=k)
        # every word seen once: P = (1+k)/(5+6k); ppl is its inverse
        expected = (5 + 6 * k) / (1 + k)
        assert lm.perplexity(model, [" ".join(words)]) == pytest.approx(expected, rel=1e-9)

    def test_larger_k_increases_train_perplexity_on_skewed_corpus(self):
        corpus = ["a a a a b"]
        small = lm.train(corpus, order=1, k=0.01)
        large = lm.train(corpus, order=1, k=1.0)
        assert lm.perplexity(large, corpus) > lm.perplexity(small, corpus)

    def test_empty(self):
        model = lm.train(["a"], order=1)
        with pytest.raises(EmptyCorpus):
            lm.perplexity(model, [])


def _cand(surface, gen):
    return Candidate(surface=surface, gen_score=gen)


class TestRescore:
    def test_lm_only_prefers_trained_word(self):
        model = lm.train(["amele geldi"], order=1)
        ranked = lm.rescore(
            [_cand("imle", 0.9), _cand("amele", 0.1)], model, alpha=0.0
        )
        assert [c.surface for c in ranked] == ["amele", "imle"]

    def test_alpha_one_keeps_generation_order(self):
        model = lm.train(["imle"], order=1)
        ranked = lm.rescore(
            [_cand("amele", 0.9), _cand("imle", 0.1)], model, alpha=1.0
        )
        assert [c.surface for c in ranked] == ["amele", "imle"]

    def test_lexicographic_tie_break(self):
        model = lm.train(["x"], order=1)
        ranked = lm.rescore(
            [_cand("bb", 0.5), _cand("aa", 0.5)], model, alpha=1.0
        )
        assert [c.surface for c in ranked] == ["aa", "bb"]

    def test_empty_candidates_rejected(self):
        model = lm.train(["x"], order=1)
        with pytest.raises(ValueError):
            lm.rescore([], model)

    def test_alpha_validated(self):
        model = lm.train(["x"], order=1)
        with pytest.raises(ValueError):
            lm.rescore([_cand("x", 0.5)], model, alpha=1.5)

    def test_nan_alpha_refused(self):
        model = lm.train(["x"], order=1)
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            lm.rescore([_cand("x", 0.5)], model, alpha=math.nan)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = lm.train(["amele geldi", "hoca oldu"], order=2, char_order=3, k=0.3)
        path = tmp_path / "model.json"
        lm.save(model, path)
        loaded = lm.load(path)
        assert loaded == model

    def test_round_trip_bytes_stable(self, tmp_path):
        model = lm.train(["amele geldi"], order=2)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        lm.save(model, first)
        lm.save(lm.load(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("table", [["a", "a", "zz"], "aab"], ids=["list", "string"])
    def test_count_table_must_be_an_object(self, table, tmp_path, monkeypatch, capsys):
        # Read as counts, a list would count its items and a string its characters.
        path = tmp_path / "model.json"
        lm.save(lm.train(["amele geldi"], order=2), path)
        payload = json.loads(path.read_text("utf-8"))
        payload["counts"][next(iter(payload["counts"]))] = table
        path.write_text(json.dumps(payload), "utf-8")
        monkeypatch.setattr(sys, "stdin", io.StringIO("amele zzz\n"))
        assert run(["lm-score", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed model file" in err
        assert "count table '<s>' is not a JSON object" in err
        assert "descriptor" not in err

    @pytest.mark.parametrize("order", [1, 2])
    def test_golden_model_bytes(self, order, tmp_path):
        # The files pin what lm-train wrote (default options) while it still
        # sorted every table itself. Line 8's "çocuk" is decomposed
        # (c + U+0327), and two lines hold no token.
        data = Path(__file__).parent / "data"
        lines = (data / "lm_corpus.txt").read_text("utf-8").splitlines()
        path = tmp_path / "model.json"
        lm.save(lm.train(lines, order=order), path)
        assert path.read_bytes() == (data / f"lm_order{order}.json").read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}', "utf-8")
        with pytest.raises(ValueError):
            lm.load(path)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"order": 0},
            {"char_order": 0},
            {"k": 0.0},
            {"backoff_weight": 0.0},
            {"backoff_weight": 1.0},
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            lm.train(["a b"], **kwargs)
