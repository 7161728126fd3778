"""Seeded input generator for the otkit benchmark.

Every workload's files are written into a work directory from a single
`random.Random(seed)`, so one seed always gives byte-identical files. Next to
the files the generator returns a plan: the `otkit` argument lists one pass of
the workload runs, how many items each call handles, and the expected output
of each call, worked out here from the generator's own data (its grapheme
lists, the scheme JSON and the reference models in `checks`). Nothing here
imports `otkit`; the program only ever sees the generated files.

PAGE-XML is written from the template below rather than with
`otkit.ingest.write_page_xml`, which is part of the code under test.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from xml.sax.saxutils import escape

import checks

SCHEME_DIR = Path("src") / "otkit" / "data" / "schemes"

PAGE_NS = "http://schema.primaresearch.org/PAGE/gts/pagecontent/2013-07-15"

# Graphemes of IA-scheme transcriptions. Each entry is one extended grapheme
# cluster in NFC; "s̱" and "S̱" are two code points with no precomposed form.
_MT_LOWER = "abcçdefgğhıijklmnoöprsştuüvyz"
_IA_EXTRA = ["ḳ", "ġ", "ñ", "ṣ", "ṭ", "ḍ", "ẓ", "ḥ", "ḫ", "ẕ", "ż", "s̱", "â", "î", "û"]
_IA_UPPER = ["Ḳ", "Ṣ", "Ṭ", "Ḥ", "S̱", "A", "E", "İ", "O", "M", "K", "Ş"]
_MODIFIERS = ["ʿ", "ʾ"]
ASCII_DIGITS = "0123456789"
ARABIC_DIGITS = "٠١٢٣٤٥٦٧٨٩"
_PUNCT = [".", ",", ":", "-"]
_BRACKETS = [("(", ")"), ("[", "]")]

# Modern Turkish words for the romanize workload. Stems go into the lexicon;
# suffixed forms are attested through the lexicon's affixes.
STEMS = (
    "gel ol git oku kitap kalem defter masa kapı deniz gemi yol şehir köprü "
    "sokak bahçe çiçek orman nehir toprak güneş yıldız hava rüzgar yağmur "
    "bahar balık köpek kedi koyun ekmek peynir şeker kahve elma armut pazar "
    "çarşı mektup gazete haber millet devlet asker kale saray mektep memur "
    "tüccar amele kervan liman vapur"
).split()
SUFFIXED = (
    "kitaplar kalemler gemiler askerler gazeteler mektuplar evler denizde "
    "sarayda köprüde limanda yoldan şehirden kaleden pazardan geldi oldu "
    "okudu gitti"
).split()
# Hand-written gold readings (OT spelling -> MT reading).
GOLD_PAIRS = (
    ("كلدی", "geldi"),
    ("اولدی", "oldu"),
    ("قهوه", "kahve"),
    ("كتابلر", "kitaplar"),
    ("اوقودی", "okudu"),
    ("اوچنجی", "üçüncü"),
    ("عمله", "amele"),
    ("كیتدی", "gitti"),
)
# Conventional readings that bypass generation. Keys carry no harakat.
EXCEPTIONS = (
    ("خواجه", "hoca"),
    ("محمد", "mehmet"),
    ("احمد", "ahmet"),
    ("عثمان", "osman"),
    ("مصطفی", "mustafa"),
    ("افندی", "efendi"),
    ("پاشا", "paşa"),
    ("استانبول", "istanbul"),
    ("بك", "bey"),
    ("اوغلی", "oğlu"),
)


def load_scheme(name: str, root: Path = Path(".")) -> dict:
    return json.loads((root / SCHEME_DIR / name).read_text("utf-8"))


def inverse_alphabet(alphabet: dict) -> dict[str, str]:
    """MT letter -> the OT letter that spells it in the chart.

    Supplementary letters are left out. Among the rest, the letter that lists
    the MT letter earliest wins, then the one with the fewest readings, then
    chart order.
    """
    skip = set(alphabet["supplementary_letters"]["letters"])
    best: dict[str, tuple[tuple[int, int, int], str]] = {}
    for order, (ot, latin) in enumerate(alphabet["ot_to_latin"].items()):
        if ot in skip:
            continue
        for rank, mt in enumerate(latin):
            key = (rank, len(latin), order)
            if mt and (mt not in best or key < best[mt][0]):
                best[mt] = (key, ot)
    return {mt: ot for mt, (_, ot) in best.items()}


def spell_ot(word: str, inverse: dict[str, str]) -> str:
    return "".join(inverse[ch] for ch in word)


def _zipf_cumulative(n: int, s: float = 1.05) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(n)))


def _pseudo_words(rng: random.Random, n: int) -> list[str]:
    onsets = "bcçdfghjklmnprsştvyz"
    vowels = "aeıioöuü"
    words: set[str] = set()
    while len(words) < n:
        syllables = rng.randint(1, 4)
        words.add("".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(syllables))
                  + (rng.choice(onsets) if rng.random() < 0.5 else ""))
    out = sorted(words)
    rng.shuffle(out)
    return out


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, "utf-8")


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """n lengths evenly spaced over [lo, hi]; the seed only decides the order."""
    return [lo + (hi - lo) * i // max(n - 1, 1) for i in range(n)]


# ---------------------------------------------------------------- prep

def _ia_word(rng: random.Random) -> list[str]:
    out = []
    for i in range(rng.randint(2, 9)):
        r = rng.random()
        if r < 0.18:
            out.append(rng.choice(_IA_EXTRA))
        elif r < 0.21 and i == 0:
            out.append(rng.choice(_IA_UPPER))
        elif r < 0.24:
            out.append(rng.choice(_MODIFIERS))
        else:
            out.append(rng.choice(_MT_LOWER))
    return out


def _digit_run(rng: random.Random) -> list[str]:
    digits = ASCII_DIGITS if rng.random() < 0.5 else ARABIC_DIGITS
    return [rng.choice(digits) for _ in range(rng.randint(1, 4))]


def ia_line(rng: random.Random, length: int) -> list[str]:
    """A transcription line of exactly `length` graphemes, as a grapheme list.

    It mixes IA letters (including the two-code-point "s̱"), digit runs in
    ASCII and Arabic-Indic digits, and bracketed spans.
    """
    g: list[str] = []
    while len(g) < length:
        if g:
            g.append(" ")
        r = rng.random()
        if r < 0.12:
            g.extend(_digit_run(rng))
        elif r < 0.2:
            left, right = rng.choice(_BRACKETS)
            g.extend([left, *_ia_word(rng), right])
        else:
            g.extend(_ia_word(rng))
            if rng.random() < 0.15:
                g.append(rng.choice(_PUNCT))
    g = g[:length]
    while g[-1] == " ":
        g[-1] = rng.choice(_MT_LOWER)
    return g


def _page_xml(page_id: str, regions: list[list[str]]) -> str:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<PcGts xmlns="{PAGE_NS}">\n',
        "  <Metadata><Creator>otkit-bench</Creator></Metadata>\n",
        f'  <Page id="{page_id}" imageFilename="{page_id}.jpg" imageWidth="2400" imageHeight="3600">\n',
    ]
    y = 100
    for r, lines in enumerate(regions, start=1):
        parts.append(f'    <TextRegion id="{page_id}_r{r}">\n')
        parts.append(f'      <Coords points="100,{y} 2300,{y} 2300,{y + 60 * len(lines)} 100,{y + 60 * len(lines)}"/>\n')
        for n, text in enumerate(lines, start=1):
            y += 60
            parts.append(
                f'      <TextLine id="{page_id}_r{r}l{n}">\n'
                f'        <Coords points="120,{y - 40} 2280,{y - 40} 2280,{y + 10} 120,{y + 10}"/>\n'
                f'        <Baseline points="120,{y} 1200,{y + 2} 2280,{y}"/>\n'
                f"        <TextEquiv><Unicode>{escape(text)}</Unicode></TextEquiv>\n"
                "      </TextLine>\n"
            )
        parts.append("    </TextRegion>\n")
    parts.append("  </Page>\n</PcGts>\n")
    return "".join(parts)


PAGES = 40
LINES_PER_PAGE = 45


def build_prep(rng: random.Random, work: Path, root: Path) -> dict:
    strip = load_scheme("ia_to_loose.json", root)["strip"]
    lengths = _spread(20, 200, PAGES * LINES_PER_PAGE)
    rng.shuffle(lengths)
    all_lines: list[list[str]] = []
    entries = []
    prepared: dict[str, list[str]] = {}
    for p in range(PAGES):
        page_id = f"p{p + 1:03d}"
        lines = [ia_line(rng, lengths.pop()) for _ in range(LINES_PER_PAGE)]
        all_lines.extend(lines)
        texts = ["".join(g) for g in lines]
        cuts = sorted(rng.sample(range(1, LINES_PER_PAGE), 2))
        regions = [texts[: cuts[0]], texts[cuts[0] : cuts[1]], texts[cuts[1] :]]
        _write(work / "pages" / f"{page_id}.xml", _page_xml(page_id, regions))
        _write(work / "pages" / f"{page_id}.txt", "\n\n".join("\n".join(r) for r in regions) + "\n")
        entries.append({
            "page": f"pages/{page_id}.xml",
            "transcript": f"pages/{page_id}.txt",
            "name": f"gazete-{p + 1}",
            "subject": rng.choice(["politics", "economy", "literature"]),
            "date": str(rng.randint(1870, 1928)),
        })
        prepared[str(work / "prepared" / f"{page_id}.txt")] = [
            "".join(checks.reverse_graphemes(g)) for g in lines
        ]
    _write(work / "manifest.json", json.dumps({"entries": entries}, ensure_ascii=False, indent=1))
    _write(work / "gt_ia.txt", "\n".join("".join(g) for g in all_lines) + "\n")
    reversed_lines = [checks.reverse_graphemes(g) for g in all_lines]
    n = len(all_lines)
    return {
        "calls": [
            {"argv": ["reverse", "-i", str(work / "gt_ia.txt"), "-o", str(work / "gt_rev.txt")],
             "items": n,
             "check": {"kind": "lines", "files": {str(work / "gt_rev.txt"): ["".join(g) for g in reversed_lines]}}},
            {"argv": ["convert", "--from", "ia", "--to", "loose",
                      "-i", str(work / "gt_rev.txt"), "-o", str(work / "gt_rev_loose.txt")],
             "items": n,
             "check": {"kind": "lines", "files": {str(work / "gt_rev_loose.txt"): [
                 "".join(strip.get(x, x) for x in g) for g in reversed_lines]}}},
            {"argv": ["prepare", "--manifest", str(work / "manifest.json"), "--out", str(work / "prepared")],
             "items": n,
             "check": {"kind": "lines", "files": prepared}},
        ],
        "setup": [["load_table", ""], ["load_manifest", str(work / "manifest.json")]],
    }


# ---------------------------------------------------------------- romanize

def reading_peers(alphabet: dict) -> dict[str, list[str]]:
    """OT letter -> the letters whose readings have the same length and the
    same vowel/consonant pattern. Swapping a letter for a peer changes the
    candidate generator's work only through tie order; word-initial alif is
    its own class."""
    vowels = set("aeıioöuüâîû")
    classes: dict[tuple, list[str]] = {}
    for ot, latin in alphabet["ot_to_latin"].items():
        sig = (ot == "ا", tuple("v" if alt[:1] in vowels else "c" if alt else "-" for alt in latin))
        classes.setdefault(sig, []).append(ot)
    return {ot: peers for peers in classes.values() for ot in peers}


# Words of one pass besides the gold pairs: per length 3-9, this many
# lexicon words spelled with the inverse chart and this many OOV words; and
# this many exception-lexicon hits.
ATTESTED_PER_LENGTH = 1
OOV_PER_LENGTH = 1
EXCEPTION_WORDS = 3
# Words per `romanize` call: each call loads the lexicons and the model, and
# takes a tenth of a second or more.
WORDS_PER_CALL = 5


def _attested_words() -> list[str]:
    """The first ATTESTED_PER_LENGTH lexicon words of each length 3-9, a fixed list."""
    words: list[str] = []
    for n in range(3, 10):
        words += [w for w in STEMS + SUFFIXED if len(w) == n][:ATTESTED_PER_LENGTH]
    return words


def build_romanize(rng: random.Random, work: Path, root: Path) -> dict:
    """Gold words (hand-written pairs plus lexicon words spelled with the
    inverse chart), OOV words of 3-9 letters and exception-lexicon hits.

    Candidate generation costs up to a hundred times more for some words of
    one length than for others, so OOV words follow fixed shapes: a fixed
    draw of chart letters per length, in which the seed replaces every letter
    by a random reading peer. Seeds then differ in letters, not in work.
    """
    alphabet = load_scheme("ot_alphabet.json", root)
    inverse = inverse_alphabet(alphabet)
    peers = reading_peers(alphabet)
    letters = list(alphabet["ot_to_latin"])
    shapes = random.Random("romanize-oov-shapes")

    gold = list(GOLD_PAIRS) + [(spell_ot(mt, inverse), mt) for mt in _attested_words()]
    oov = []
    for length in range(3, 10):
        for _ in range(OOV_PER_LENGTH):
            oov.append("".join(rng.choice(peers[shapes.choice(letters)]) for _ in range(length)))
    exc = rng.sample(EXCEPTIONS, EXCEPTION_WORDS)
    words = [ot for ot, _ in gold] + oov + [ot for ot, _ in exc]
    rng.shuffle(words)

    _write(work / "stems.txt", "\n".join(STEMS) + "\n")
    _write(work / "exceptions.txt", "\n".join(f"{ot}\t{mt}" for ot, mt in EXCEPTIONS) + "\n")
    # Training text for the rescoring model: lexicon words among filler.
    filler = _pseudo_words(rng, 1500)
    vocab = STEMS + SUFFIXED + filler
    cum = _zipf_cumulative(len(vocab))
    lm_lines = [" ".join(rng.choices(vocab, cum_weights=cum, k=10)) for _ in range(400)]
    _write(work / "lm_corpus.txt", "\n".join(lm_lines) + "\n")
    model = str(work / "romanize_lm.json")
    calls = []
    for start in range(0, len(words), WORDS_PER_CALL):
        chunk = words[start : start + WORDS_PER_CALL]
        stdin = work / f"words{start // WORDS_PER_CALL + 1:02d}.txt"
        _write(stdin, "\n".join(chunk) + "\n")
        calls.append(
            {"argv": ["romanize", "--lexicon", str(work / "stems.txt"),
                      "--exceptions", str(work / "exceptions.txt"), "--model", model],
             "stdin": str(stdin),
             "items": len(chunk),
             "check": {"kind": "romanize", "words": chunk,
                       "exceptions": {ot: mt for ot, mt in EXCEPTIONS if ot in chunk},
                       "gold": {ot: mt for ot, mt in gold if ot in chunk}}})
    return {
        "prepare": [["lm-train", str(work / "lm_corpus.txt"), "-o", model, "--order", "2"]],
        "calls": calls,
        "setup": [["load_table", ""], ["Lexicon.from_file", str(work / "stems.txt")],
                  ["ExceptionLexicon.from_file", str(work / "exceptions.txt")], ["lm.load", model]],
    }


# ---------------------------------------------------------------- eval

_SWAPS = {"ı": "i", "i": "ı", "k": "ḳ", "ḳ": "k"}


def plant_errors(rng: random.Random, ref: list[str], rate: float = 0.06) -> list[str]:
    """Copy `ref` with substitutions (ı<->i, k<->ḳ, or any letter), insertions
    and deletions planted at about `rate` per grapheme."""
    hyp: list[str] = []
    for g in ref:
        r = rng.random()
        if r < rate * 0.5:
            hyp.append(_SWAPS.get(g, rng.choice(_MT_LOWER)))
        elif r < rate * 0.75:
            hyp.extend([g, rng.choice(_MT_LOWER)])
        elif r < rate:
            continue
        else:
            hyp.append(g)
    return hyp


def build_eval(rng: random.Random, work: Path, root: Path, docs: int = 5, lines_per_doc: int = 14) -> dict:
    """`docs` scored documents whose line lengths are a fixed even spread
    over 8-300 graphemes (the seed decides content and order), plus one short
    document with a line-count mismatch that the CLI skips. Each scored
    document is one `eval` call over its own pair of directories; the last
    call holds the skipped document as well."""
    lengths = _spread(8, 300, docs * lines_per_doc)
    rng.shuffle(lengths)
    calls = []
    for d in range(docs + 1):
        name = f"doc{d + 1:02d}"
        skipped = d == docs
        call_dir = work / f"call{min(d, docs - 1) + 1:02d}"
        ref = [ia_line(rng, n) for n in ((20, 40, 60) if skipped else
                                         [lengths.pop() for _ in range(lines_per_doc)])]
        hyp = [plant_errors(rng, g) for g in ref]
        ref_text = ["".join(g) for g in ref]
        hyp_text = ["".join(g) for g in hyp]
        if skipped:
            hyp_text.append(hyp_text[-1])
            calls[-1]["items"] += len(ref)
            calls[-1]["check"]["skipped"].append([name, len(ref)])
        else:
            calls.append(
                {"argv": ["eval", "--ref", str(call_dir / "ref"), "--hyp", str(call_dir / "hyp"),
                          "--report", "csv"],
                 "items": len(ref),
                 "check": {"kind": "eval", "skipped": [],
                           "rows": [[name, len(ref), *checks.document_edits(ref, hyp, ref_text, hyp_text)]]}})
        _write(call_dir / "ref" / f"{name}.txt", "\n".join(ref_text) + "\n")
        _write(call_dir / "hyp" / f"{name}.txt", "\n".join(hyp_text) + "\n")
    return {"calls": calls, "setup": []}


# ---------------------------------------------------------------- lm

VOCAB_SIZE = 6000
TRAIN_LINES = 1500
HELD_LINES = 300
OOV_SHARE = 0.1


def build_lm(rng: random.Random, work: Path, root: Path) -> dict:
    """A Zipfian training corpus and held-out text in which exactly
    OOV_SHARE of the tokens are unseen words. Tokens per line are a fixed
    even spread over 6-18 (the seed decides the order)."""
    vocab = _pseudo_words(rng, VOCAB_SIZE + 2000)
    seen, unseen = vocab[:VOCAB_SIZE], vocab[VOCAB_SIZE:]
    cum = _zipf_cumulative(VOCAB_SIZE)

    def lines(n: int) -> list[list[str]]:
        sizes = _spread(6, 18, n)
        rng.shuffle(sizes)
        return [rng.choices(seen, cum_weights=cum, k=size) for size in sizes]

    train = [" ".join(t) for t in lines(TRAIN_LINES)]
    held_tokens = lines(HELD_LINES)
    slots = [(i, j) for i, t in enumerate(held_tokens) for j in range(len(t))]
    for i, j in rng.sample(slots, round(OOV_SHARE * len(slots))):
        held_tokens[i][j] = rng.choice(unseen)
    held = [" ".join(t) for t in held_tokens]
    _write(work / "corpus.txt", "\n".join(train) + "\n")
    _write(work / "heldout.txt", "\n".join(held) + "\n")
    train_tokens = sum(len(x.split()) for x in train)
    held_count = len(slots)
    m2, m1 = str(work / "lm_order2.json"), str(work / "lm_order1.json")
    ref2, ref1 = checks.RefLM(train, order=2), checks.RefLM(train, order=1)
    return {
        "prepare": [["lm-train", str(work / "corpus.txt"), "-o", m2, "--order", "2"]],
        "calls": [
            {"argv": ["lm-train", str(work / "corpus.txt"), "-o", m2, "--order", "2"],
             "items": train_tokens, "check": {"kind": "lm_model", "path": m2}},
            {"argv": ["lm-score", "--model", m2, "-i", str(work / "heldout.txt")],
             "items": held_count,
             "check": {"kind": "lm_scores", "lines": held,
                       "scores": [ref2.score(x.split()) for x in held]}},
            {"argv": ["lm-train", str(work / "corpus.txt"), "-o", m1, "--order", "1"],
             "items": train_tokens, "check": {"kind": "lm_model", "path": m1}},
            {"argv": ["lm-score", "--model", m1, "--perplexity", "-i", str(work / "heldout.txt")],
             "items": held_count,
             "check": {"kind": "lm_perplexity", "tokens": held_count,
                       "perplexity": ref1.perplexity(held)}},
        ],
        "setup": [["lm.load", m2]],
    }


BUILDERS = {"prep": build_prep, "romanize": build_romanize, "eval": build_eval, "lm": build_lm}


def build(workload: str, seed: int, work: Path, root: Path = Path(".")) -> dict:
    """Write the workload's inputs for `seed` under `work` and return its plan."""
    rng = random.Random(f"{workload}:{seed}")
    plan = BUILDERS[workload](rng, work, root)
    plan.setdefault("prepare", [])
    plan["workload"] = workload
    plan["seed"] = seed
    return plan
