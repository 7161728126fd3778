"""Each output check rejects a planted wrong output."""

import functools
import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import inputs  # noqa: E402


@functools.lru_cache(maxsize=None)
def _brute(a: str, b: str) -> int:
    if not a or not b:
        return len(a) + len(b)
    return min(_brute(a[1:], b[1:]) + (a[0] != b[0]), _brute(a[1:], b) + 1, _brute(a, b[1:]) + 1)


def test_levenshtein_matches_brute_force():
    words = ["".join(p) for n in range(5) for p in itertools.product("abı", repeat=n)]
    rng = random.Random(7)
    for a, b in [(rng.choice(words), rng.choice(words)) for _ in range(3000)]:
        assert checks.levenshtein(a, b) == _brute(a, b)
    assert checks.levenshtein(["s̱", "a"], ["s", "a"]) == 1


def test_reverse_graphemes_keeps_digit_runs():
    assert checks.reverse_graphemes(list("sayfa 12")) == list("12 afyas")
    assert checks.reverse_graphemes(["ḳ", "٣", "٤", " ", "s̱"]) == ["s̱", " ", "٣", "٤", "ḳ"]


def _lines_check(tmp_path, expected, written):
    path = tmp_path / "out.txt"
    path.write_text("\n".join(written) + "\n", "utf-8")
    return checks.check({"items": len(expected), "check": {"kind": "lines", "files": {str(path): expected}}},
                        0, "", "")[0]


def test_lines_check_rejects_digit_run_reversed_in_place(tmp_path):
    g = list("ḳalem 1906 ve") + ["s̱"]
    good = "".join(checks.reverse_graphemes(g))
    bad = good.replace("1906", "6091")
    assert _lines_check(tmp_path, [good, good], [good, good]) == 0
    assert _lines_check(tmp_path, [good, good], [good, bad]) == 1
    assert _lines_check(tmp_path, [good, good], [good]) == 2


def test_eval_check_rejects_cer_off_by_one_edit(tmp_path):
    rng = random.Random(1)
    plan = inputs.build_eval(rng, tmp_path, ROOT, docs=2, lines_per_doc=4)
    # One call per scored document; checked together as one `eval` over both.
    call = {"items": sum(c["items"] for c in plan["calls"]),
            "check": {"kind": "eval", "rows": [r for c in plan["calls"] for r in c["check"]["rows"]],
                      "skipped": [x for c in plan["calls"] for x in c["check"]["skipped"]]}}
    rows = call["check"]["rows"]

    def csv(rows, total_delta=0):
        out = ["name,subject,date,cer,wer"]
        ce = ct = we = wt = 0
        for name, _, c_e, c_t, w_e, w_t in rows:
            out.append(f"{name},,,{c_e / c_t:.6f},{w_e / w_t:.6f}")
            ce, ct, we, wt = ce + c_e, ct + c_t, we + w_e, wt + w_t
        out.append(f"TOTAL,,,{(ce + total_delta) / ct:.6f},{we / wt:.6f}")
        return "\n".join(out) + "\n"

    err = "skipped doc03: line count mismatch (3 vs 4)\n"
    assert call["items"] == 11
    assert checks.check(call, 0, csv(rows), err) == (0, {})
    off = [list(rows[0])] + rows[1:]
    off[0][2] += 1  # one more character edit in doc01
    assert checks.check(call, 0, csv(off), err)[0] == 11  # doc01 and TOTAL wrong
    assert checks.check(call, 0, csv(off)[: csv(off).index("TOTAL")] + csv(rows).split("\n")[-2] + "\n",
                        err)[0] == 4  # only doc01 wrong
    assert checks.check(call, 0, csv(rows), "")[0] == 3  # skip not reported
    assert checks.check(call, 2, csv(rows), err)[0] == 11


def test_romanize_check_counts_top1_and_rejects_wrong_exception():
    spec = {"kind": "romanize", "words": ["كلدی", "خواجه", "بب"],
            "exceptions": {"خواجه": "hoca"}, "gold": {"كلدی": "geldi"}}
    call = {"items": 3, "check": spec}
    good = "كلدی\tgeldi\tkldy\nخواجه\thoca\nبب\tbb\n"
    assert checks.check(call, 0, good, "") == (0, {"gold": 1, "top1": 1})
    assert checks.check(call, 0, good.replace("hoca", "hvaca"), "")[0] == 1
    assert checks.check(call, 0, good.replace("\tbb", ""), "")[0] == 1  # no candidate
    assert checks.check(call, 0, "كلدی\tkldy\tgeldi\n", "")[0] == 3  # lines missing
    assert checks.check(call, 0, good.replace("geldi\tkldy", "kldy\tgeldi"), "") == (0, {"gold": 1, "top1": 0})


def test_lm_checks_reject_wrong_scores_and_models(tmp_path):
    train = ["a b c a", "b c d", "a a b"]
    held = ["a b", "c zz a"]
    ref2, ref1 = checks.RefLM(train, order=2), checks.RefLM(train, order=1)
    scores = [ref2.score(x.split()) for x in held]
    call = {"items": 5, "check": {"kind": "lm_scores", "lines": held, "scores": scores}}
    good = "".join(f"{s:.6f}\t{x}\n" for s, x in zip(scores, held))
    assert checks.check(call, 0, good, "")[0] == 0
    off = f"{scores[0] + 0.01:.6f}\t{held[0]}\n{scores[1]:.6f}\t{held[1]}\n"
    assert checks.check(call, 0, off, "")[0] == 2
    assert checks.check(call, 0, f"nan\t{held[0]}\n{scores[1]:.6f}\t{held[1]}\n", "")[0] == 2

    ppl = {"items": 5, "check": {"kind": "lm_perplexity", "tokens": 5, "perplexity": ref1.perplexity(held)}}
    assert checks.check(ppl, 0, f"{ref1.perplexity(held):.6f}\n", "")[0] == 0
    assert checks.check(ppl, 0, f"{ref1.perplexity(held) * 1.001:.6f}\n", "")[0] == 5

    sys.path.insert(0, str(ROOT / "src"))
    from otkit import lm

    path = tmp_path / "m.json"
    lm.save(lm.train(train, order=2), path)
    model_call = {"items": 10, "check": {"kind": "lm_model", "path": str(path)}}
    assert checks.check(model_call, 0, "", "")[0] == 0
    path.write_text(json.dumps(json.loads(path.read_text("utf-8")), indent=1), "utf-8")
    assert checks.check(model_call, 0, "", "")[0] == 10


def test_reference_lm_matches_otkit_scores():
    sys.path.insert(0, str(ROOT / "src"))
    from otkit import lm

    train = ["kalem kitap defter", "kitap okudu", "defter kalem kitap okudu"]
    for order in (1, 2, 3):
        model, ref = lm.train(train, order=order), checks.RefLM(train, order=order)
        for line in ("kitap kalem", "okudu bilinmeyen kitap"):
            assert abs(lm.score(model, line.split()) - ref.score(line.split())) < 1e-9
