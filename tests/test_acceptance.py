"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a pass/fail line via the conftest report hook.
"""

import functools
import io
import json
import random
import sys
import time
import unicodedata

from otkit import ingest, lm
from otkit.cli import run as cli_run
from otkit.evaluation import cer, levenshtein_align
from otkit.graphemes import reverse_line, segment_line
from otkit.romanizer import (
    ExceptionLexicon,
    GenLimits,
    Lexicon,
    OTWord,
    apply_harmony,
    check_vowel_harmony,
    romanize,
)
from otkit.scheme import load_table

# diacritics always ride a base letter: precomposed forms plus decomposed
# base+combining-mark pairs (which may or may not NFC-compose)
RANDOM_TOKENS = (
    list("abcdefg\u011fh\u0131ijklmno\u00f6prs\u015ftu\u00fcvyz")
    + list("\u00e2\u00ee\u00fb\u00f1\u1e33\u0121\u1e63")
    + ["n\u0303", "a\u0302", "g\u0303", "s\u0331"]
    + list("0123456789\u0660\u0661\u0662\u0663\u0664\u0665")
    + list(" .,-'")
)


def test_criterion_1_reversal_involution_on_random_strings():
    rng = random.Random(20210901)
    start = time.perf_counter()
    for _ in range(10_000):
        s = "".join(
            rng.choice(RANDOM_TOKENS) for _ in range(rng.randrange(0, 40))
        )
        assert reverse_line(reverse_line(s)) == unicodedata.normalize("NFC", s)
    assert time.perf_counter() - start < 5.0


def test_criterion_2_reversal_fidelity():
    assert reverse_line("gavuruñ") == "ñuruvag"
    assert reverse_line("ğâbil") == "libâğ"

    def oracle(text):
        graphemes = list(reversed(segment_line(text)))
        i = 0
        while i < len(graphemes):
            if graphemes[i].isdigit():
                j = i
                while j < len(graphemes) and graphemes[j].isdigit():
                    j += 1
                graphemes[i:j] = reversed(graphemes[i:j])
                i = j
            else:
                i += 1
        return "".join(graphemes)

    assert reverse_line("sayfa 12") == oracle("sayfa 12") == "12 afyas"


def test_criterion_3_polyphony_chart_rows():
    table = load_table()
    rows = {
        "ا": ("a", "e"),
        "ض": ("d", "z"),
        "ك": ("k", "g", "ğ", "n"),
        "و": ("v", "o", "u", "ö", "ü"),
        "ه": ("h", "e", "a"),
        "ی": ("y", "a", "ı", "i"),
    }
    for letter, expected in rows.items():
        assert table.candidates(letter) == expected


def test_criterion_4_romanization_anchor():
    table = load_table()
    lexicon = Lexicon(stems=frozenset({"amele"}))
    model = lm.train(["amele geldi", "amele oldu"], order=1)
    ranked = romanize(
        OTWord.from_text("عمله", table),
        table,
        lexicon,
        ExceptionLexicon(),
        lm_model=model,
        limits=GenLimits(max_candidates=5000),
    )
    surfaces = [c.surface for c in ranked]
    assert surfaces[0] == "amele"
    assert "imle" not in surfaces or surfaces.index("imle") > surfaces.index("amele")

    exceptions = ExceptionLexicon({"خواجه": "hoca", "کوکرجین": "güvercin"})
    assert [
        c.surface
        for c in romanize(OTWord.from_text("خواجه", table), table, lexicon, exceptions)
    ] == ["hoca"]
    assert [
        c.surface
        for c in romanize(OTWord.from_text("کوکرجین", table), table, lexicon, exceptions)
    ] == ["güvercin"]


def test_criterion_5_harmony_engine():
    assert apply_harmony("ol", ["-DI"]) == "oldu"
    assert apply_harmony("gel", ["-DI"]) == "geldi"
    assert apply_harmony("üç", ["-(I)ncI"]) == "üçüncü"
    assert check_vowel_harmony("oldu")
    assert check_vowel_harmony("geldi")
    assert check_vowel_harmony("üçüncü")
    assert not check_vowel_harmony("oldi")
    assert not check_vowel_harmony("üçünci")


def test_criterion_6_cer_oracle_equivalence():
    def brute_force(a, b):
        @functools.cache
        def d(i, j):
            if i == len(a):
                return len(b) - j
            if j == len(b):
                return len(a) - i
            same = 0 if a[i] == b[j] else 1
            return min(d(i + 1, j + 1) + same, d(i + 1, j) + 1, d(i, j + 1) + 1)

        return d(0, 0)

    rng = random.Random(20220101)
    for _ in range(2000):
        a = "".join(rng.choice("abcde") for _ in range(rng.randrange(0, 13)))
        b = "".join(rng.choice("abcde") for _ in range(rng.randrange(0, 13)))
        assert levenshtein_align(list(a), list(b)).distance == brute_force(a, b)

    assert abs(cer("abcdefghij", "abcdefghiX") - 0.10) < 1e-9
    assert abs(cer("abcdefghij", "XYZdefghij") - 0.30) < 1e-9


FIFTY_WORDS = (
    "amele hoca güvercin kahve kitap defter gazete mecmua sayfa satır "
    "yazı harf kelime cümle dil tarih gün yıl ay hafta "
    "okul talebe hocalar talebeler kitaplar gazeteler günler yıllar geldi gitti "
    "oldu oldular geldiler yazdı okudu okudular başladı bitti devam etti "
    "vardı yoktu büyük küçük yeni eski uzun kısa bir iki"
).split()


def test_criterion_7_lm_normalization_and_unseen_inflection():
    assert len(FIFTY_WORDS) == 50
    model = lm.train([" ".join(FIFTY_WORDS[i : i + 5]) for i in range(0, 50, 5)], order=2)
    for history in model.counts:
        total = sum(model.prob(history, w) for w in model.vocab)
        total += model.prob(history, lm.UNK)
        assert abs(total - 1.0) <= 1e-6

    unseen = "ameleler"  # seen stem "amele" + plural pattern seen on other words
    assert unseen not in model.vocab
    rng = random.Random(99)
    junk = "".join(rng.choice("bcdfgjklmnpqrstvwxz") for _ in unseen)
    assert lm.score(model, [unseen]) > lm.score(model, [junk])


def test_criterion_8_rescoring_reduces_micro_cer():
    from otkit.romanizer import Candidate

    references = ["amele", "geldi", "oldu", "kitap", "hoca", "güvercin"]
    model = lm.train([" ".join(references)], order=1)

    def corrupt(word):
        return word[:-1] + ("x" if word[-1] != "x" else "q")

    candidate_lists = [
        [
            Candidate(surface=corrupt(word), gen_score=0.9),
            Candidate(surface=word, gen_score=0.5),
        ]
        for word in references
    ]

    def micro_cer(hypotheses):
        edits = total = 0
        for ref, hyp in zip(references, hypotheses):
            edits += levenshtein_align(list(ref), list(hyp)).distance
            total += len(ref)
        return edits / total

    without = micro_cer(
        [max(cands, key=lambda c: c.gen_score).surface for cands in candidate_lists]
    )
    with_lm = micro_cer(
        [
            lm.rescore(cands, model, alpha=0.5)[0].surface
            for cands in candidate_lists
        ]
    )
    assert with_lm <= without


PAGE_XML = (
    f'<PcGts xmlns="{ingest.PAGE_NS}"><Page id="p1" imageFilename="a.jpg">'
    '<TextRegion id="r1">'
    '<TextLine id="l1"><Baseline points="1,2 3,4"/>'
    "<TextEquiv><Unicode>gavuruñ bitdi isemrügö</Unicode></TextEquiv></TextLine>"
    '<TextLine id="l2"><TextEquiv><Unicode>sayfa 12</Unicode></TextEquiv></TextLine>'
    "</TextRegion></Page></PcGts>"
)


def test_criterion_9_ingest_round_trips(tmp_path):
    doc = ingest.parse_page_xml(PAGE_XML)
    assert ingest.parse_page_xml(ingest.write_page_xml(doc)) == doc

    transcript = ["gavuruñ bitdi isemrügö", "sayfa 12"]  # "bitdi": preserved typo
    pairs = ingest.pair_ground_truth(doc, transcript)
    assert pairs[0] == unicodedata.normalize("NFC", transcript[0])

    (path,) = ingest.export_training_pairs([("page", pairs)], tmp_path, reverse=True)
    read_back = path.read_text("utf-8").split("\n")[:-1]
    restored = [reverse_line(line) for line in read_back]
    assert restored == [unicodedata.normalize("NFC", t) for t in transcript]


def test_criterion_10_end_to_end_determinism(tmp_path, monkeypatch, capsys):
    (tmp_path / "p1.xml").write_text(PAGE_XML, "utf-8")
    (tmp_path / "t1.txt").write_text("gavuruñ bitdi isemrügö\nsayfa 12\n", "utf-8")
    manifest = {
        "entries": [
            {"page": "p1.xml", "transcript": "t1.txt", "name": "ahali",
             "subject": "politics", "date": "1906"}
        ]
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), "utf-8")

    outputs = []
    for attempt in ("first", "second"):
        out_dir = tmp_path / attempt
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert cli_run(
            ["prepare", "--manifest", str(tmp_path / "manifest.json"),
             "--out", str(out_dir)]
        ) == 0
        assert cli_run(
            ["split", "--manifest", str(tmp_path / "manifest.json"),
             "--seed", "42", "-o", str(out_dir / "split.json")]
        ) == 0
        outputs.append(
            [
                (p.name, p.read_bytes())
                for p in sorted(out_dir.iterdir())
            ]
        )
    capsys.readouterr()
    assert outputs[0] == outputs[1]
