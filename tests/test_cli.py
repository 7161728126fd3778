import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from otkit import ingest
from otkit.cli import run

PAGE = (
    f'<PcGts xmlns="{ingest.PAGE_NS}"><Page id="p1">'
    "<TextRegion id=\"r1\">"
    "<TextLine id=\"l1\"><TextEquiv><Unicode>gavuruñ</Unicode></TextEquiv></TextLine>"
    "<TextLine id=\"l2\"><TextEquiv><Unicode>sayfa 12</Unicode></TextEquiv></TextLine>"
    "</TextRegion></Page></PcGts>"
)


def invoke(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReverse:
    def test_stdin_stdout(self, monkeypatch, capsys):
        code, out, _ = invoke(monkeypatch, capsys, ["reverse"], stdin="gavuruñ")
        assert code == 0
        assert out == "ñuruvag"

    def test_double_reverse_is_identity(self, monkeypatch, capsys):
        text = "gavuruñ bitdi\nsayfa 12"
        _, once, _ = invoke(monkeypatch, capsys, ["reverse"], stdin=text)
        code, twice, _ = invoke(monkeypatch, capsys, ["reverse"], stdin=once)
        assert code == 0
        assert twice == text

    def test_files(self, tmp_path, monkeypatch, capsys):
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text("ğâbil\n", "utf-8")
        code, out, _ = invoke(monkeypatch, capsys, ["reverse", "-i", str(src), "-o", str(dst)])
        assert code == 0
        assert out == ""
        assert dst.read_text("utf-8") == "libâğ\n"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_stdin_newlines_read_like_a_file(self, newline, monkeypatch, capsys):
        text = f"sayfa 12{newline}gavuruñ{newline}"
        code, out, _ = invoke(monkeypatch, capsys, ["reverse"], stdin=text)
        assert code == 0
        assert out == "12 afyas\nñuruvag\n"


class TestUsageErrors:
    def test_unknown_flag(self, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, ["reverse", "--bogus"])
        assert code == 1
        assert out == ""
        assert err != ""

    def test_missing_command(self, monkeypatch, capsys):
        code, _, err = invoke(monkeypatch, capsys, [])
        assert code == 1
        assert err != ""


class TestDataErrors:
    def test_model_without_char_backoff(self, tmp_path, monkeypatch, capsys):
        corpus, model = tmp_path / "corpus.txt", tmp_path / "model.json"
        corpus.write_text("amele geldi\n", "utf-8")
        invoke(monkeypatch, capsys, ["lm-train", str(corpus), "-o", str(model)])
        payload = json.loads(model.read_text("utf-8"))
        del payload["char_backoff"]
        model.write_text(json.dumps(payload), "utf-8")
        code, out, err = invoke(
            monkeypatch, capsys, ["lm-score", "--model", str(model)], stdin="amele\n"
        )
        assert code == 2
        assert out == ""
        assert "malformed model file" in err

    @pytest.mark.parametrize("k", ["nan", "inf", "1e308", "5e-324"])
    def test_non_finite_add_k_is_refused(self, k, tmp_path, monkeypatch, capsys):
        corpus, model = tmp_path / "corpus.txt", tmp_path / "model.json"
        corpus.write_text("amele geldi\n", "utf-8")
        argv = ["lm-train", str(corpus), "-o", str(model), "--add-k", k]
        code, _, err = invoke(monkeypatch, capsys, argv)
        assert code == 2
        assert "add-k constant" in err
        assert not model.exists()

    @pytest.mark.parametrize(
        "key,value",
        [("k", math.nan), ("k", math.inf), ("order", 0),
         ("backoff_weight", 1.5), ("backoff_weight", 0.0), ("backoff_weight", math.nan)],
        ids=["k-nan", "k-inf", "order-0", "weight-above-1", "weight-0", "weight-nan"],
    )
    def test_out_of_range_model_value_is_malformed(self, key, value, tmp_path, monkeypatch, capsys):
        corpus, model = tmp_path / "corpus.txt", tmp_path / "model.json"
        corpus.write_text("amele geldi\n", "utf-8")
        invoke(monkeypatch, capsys, ["lm-train", str(corpus), "-o", str(model)])
        payload = json.loads(model.read_text("utf-8"))
        payload[key] = value
        model.write_text(json.dumps(payload), "utf-8")
        code, out, err = invoke(
            monkeypatch, capsys, ["lm-score", "--model", str(model)], stdin="amele zzz\n"
        )
        assert code == 2
        assert out == ""
        assert "malformed model file" in err

    @pytest.mark.parametrize("section", ["words", "chars"])
    def test_negative_count_is_malformed(self, section, tmp_path, monkeypatch, capsys):
        corpus, model = tmp_path / "corpus.txt", tmp_path / "model.json"
        corpus.write_text("amele geldi\n", "utf-8")
        invoke(monkeypatch, capsys, ["lm-train", str(corpus), "-o", str(model)])
        payload = json.loads(model.read_text("utf-8"))
        counts = payload["counts"] if section == "words" else payload["char_backoff"]["counts"]
        counter = next(iter(counts.values()))
        counter[next(iter(counter))] = -50
        model.write_text(json.dumps(payload), "utf-8")
        code, out, err = invoke(
            monkeypatch, capsys, ["lm-score", "--model", str(model)], stdin="amele zzz\n"
        )
        assert code == 2
        assert out == ""
        assert "malformed model file" in err

    def test_directory_as_input(self, tmp_path, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, ["reverse", "-i", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("otkit: ")


class TestConvert:
    def test_ia_to_loose(self, monkeypatch, capsys):
        code, out, _ = invoke(
            monkeypatch, capsys, ["convert", "--from", "ia", "--to", "loose"],
            stdin="ḳahveñiñ",
        )
        assert code == 0
        assert out == "kahvenin"

    @pytest.mark.parametrize(
        "from_scheme,to_scheme", [("loose", "ia"), ("ia", "ia"), ("loose", "loose")]
    )
    def test_only_ia_to_loose_is_offered(self, from_scheme, to_scheme, monkeypatch, capsys):
        code, out, err = invoke(
            monkeypatch, capsys, ["convert", "--from", from_scheme, "--to", to_scheme],
            stdin="kahve",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("otkit: error: argument --")


class TestEval:
    def test_identical_files(self, tmp_path, monkeypatch, capsys):
        ref = tmp_path / "a.txt"
        ref.write_text("gavuruñ\n", "utf-8")
        code, out, _ = invoke(
            monkeypatch, capsys, ["eval", "--ref", str(ref), "--hyp", str(ref)]
        )
        assert code == 0
        assert "0.00%" in out

    def test_csv_report(self, tmp_path, monkeypatch, capsys):
        ref, hyp = tmp_path / "r.txt", tmp_path / "h.txt"
        ref.write_text("abcd\n", "utf-8")
        hyp.write_text("abed\n", "utf-8")
        code, out, _ = invoke(
            monkeypatch, capsys,
            ["eval", "--ref", str(ref), "--hyp", str(hyp), "--report", "csv"],
        )
        assert code == 0
        assert out.splitlines()[0] == "name,subject,date,cer,wer"
        assert "0.250000" in out

    def test_missing_file_is_data_error(self, tmp_path, monkeypatch, capsys):
        code, _, err = invoke(
            monkeypatch, capsys,
            ["eval", "--ref", str(tmp_path / "no.txt"), "--hyp", str(tmp_path / "no.txt")],
        )
        assert code == 2
        assert err != ""

    def _write_docs(self, tmp_path, docs):
        for side in ("ref", "hyp"):
            (tmp_path / side).mkdir()
            for name, text in docs.items():
                (tmp_path / side / f"{name}.txt").write_text(text, "utf-8")
        return ["eval", "--ref", str(tmp_path / "ref"), "--hyp", str(tmp_path / "hyp")]

    def test_whitespace_only_reference_is_skipped(self, tmp_path, monkeypatch, capsys):
        argv = self._write_docs(tmp_path, {"blank": "  \n\t\n", "text": "gavuruñ\n"})
        code, out, err = invoke(monkeypatch, capsys, argv)
        assert code == 0
        assert "text" in out
        assert "skipped blank: empty reference" in err

    def test_whitespace_only_reference_alone_is_data_error(self, tmp_path, monkeypatch, capsys):
        argv = self._write_docs(tmp_path, {"blank": "  \n\t\n"})
        code, _, err = invoke(monkeypatch, capsys, argv)
        assert code == 2
        assert err.splitlines() == ["skipped blank: empty reference"]

    def test_missing_hypothesis_is_skipped(self, tmp_path, monkeypatch, capsys):
        argv = self._write_docs(tmp_path, {"a": "abcd\n", "b": "gavuruñ\n"})
        (tmp_path / "hyp" / "b.txt").unlink()
        code, out, err = invoke(monkeypatch, capsys, argv + ["--report", "csv"])
        assert code == 0
        assert out.splitlines()[1:] == ["a,,,0.000000,0.000000", "TOTAL,,,0.000000,0.000000"]
        assert err.splitlines() == ["skipped b: no hypothesis file"]
        code, out, _ = invoke(monkeypatch, capsys, argv)
        assert code == 0
        assert out.splitlines()[-1] == "# skipped b: no hypothesis file"

    def test_empty_reference_directory_is_data_error(self, tmp_path, monkeypatch, capsys):
        argv = self._write_docs(tmp_path, {})
        code, out, err = invoke(monkeypatch, capsys, argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert str(tmp_path / "ref") in err


class TestLmRoundTrip:
    def test_train_then_score(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("amele geldi\namele oldu\n", "utf-8")
        model = tmp_path / "model.json"
        code, _, _ = invoke(
            monkeypatch, capsys, ["lm-train", str(corpus), "-o", str(model)]
        )
        assert code == 0
        code, out, _ = invoke(
            monkeypatch, capsys,
            ["lm-score", "--model", str(model)], stdin="amele geldi\n",
        )
        assert code == 0
        assert out.startswith("-")

    def test_train_reports_lines_with_tokens(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("amele geldi\n\n   \namele oldu ,\n", "utf-8")
        code, _, err = invoke(
            monkeypatch, capsys,
            ["lm-train", str(corpus), "-o", str(tmp_path / "model.json"), "--order", "1"],
        )
        assert code == 0
        assert err == "trained order-1 model on 2 lines, 5 tokens\n"


class TestRomanizeCommand:
    def test_exception_entry(self, tmp_path, monkeypatch, capsys):
        exceptions = tmp_path / "exc.tsv"
        exceptions.write_text("خواجه\thoca\n", "utf-8")
        code, out, _ = invoke(
            monkeypatch, capsys,
            ["romanize", "--exceptions", str(exceptions)], stdin="خواجه\n",
        )
        assert code == 0
        assert out.split("\n")[0].split("\t") == ["خواجه", "hoca"]

    def test_exception_line_without_tab_names_file_and_line(self, tmp_path, monkeypatch, capsys):
        exceptions = tmp_path / "exc.tsv"
        exceptions.write_text("خواجه hoca\n", "utf-8")
        code, _, err = invoke(
            monkeypatch, capsys,
            ["romanize", "--exceptions", str(exceptions)], stdin="خواجه\n",
        )
        assert code == 2
        assert f"{exceptions}:1:" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--top", "0"],
            ["--top", "-1"],
            ["--alpha", "1.5"],
            ["--alpha", "-0.1"],
            ["--alpha", "nan"],
            ["--max-candidates", "0"],
            ["--max-insertions", "-1"],
        ],
        ids=["top-0", "top-negative", "alpha-above-1", "alpha-negative", "alpha-nan",
             "max-candidates-0", "max-insertions-negative"],
    )
    def test_out_of_range_option_is_usage_error(self, flags, tmp_path, monkeypatch, capsys):
        # A model file that does not exist shows the check comes before any input is read.
        argv = ["romanize", "--model", str(tmp_path / "missing.json"), *flags]
        code, out, err = invoke(monkeypatch, capsys, argv, stdin="خواجه\n")
        assert code == 1
        assert out == ""
        assert err.startswith("otkit: error: ")

    def test_beam_is_not_an_option(self, monkeypatch, capsys):
        # 500 was --beam's default; --max-candidates now sets the beam.
        code, out, err = invoke(monkeypatch, capsys, ["romanize", "--beam", "500"], stdin="عمله\n")
        assert code == 1
        assert out == ""
        assert err.startswith("otkit: error: unrecognized arguments: --beam")

    def test_unknown_letter_fails_only_its_word(self, monkeypatch, capsys):
        code, out, err = invoke(
            monkeypatch, capsys, ["romanize", "--top", "1"], stdin="كلدی abc خواجه\n"
        )
        assert code == 2
        assert [line.split("\t")[0] for line in out.splitlines()] == ["كلدی", "خواجه"]
        assert err.splitlines() == ["otkit: abc: UnknownLetter: 'a'"]


class TestPrepareAndSplit:
    def _write_corpus(self, tmp_path):
        (tmp_path / "p1.xml").write_text(PAGE, "utf-8")
        (tmp_path / "t1.txt").write_text("gavuruñ\nsayfa 12\n", "utf-8")
        manifest = {
            "entries": [
                {"page": "p1.xml", "transcript": "t1.txt", "name": "ahali",
                 "subject": "politics", "date": "1906"}
            ]
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), "utf-8")

    def test_prepare_reverses(self, tmp_path, monkeypatch, capsys):
        self._write_corpus(tmp_path)
        out_dir = tmp_path / "out"
        code, _, _ = invoke(
            monkeypatch, capsys,
            ["prepare", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out_dir)],
        )
        assert code == 0
        assert (out_dir / "p1.txt").read_text("utf-8") == "ñuruvag\n12 afyas\n"

    def test_shared_page_stem_is_refused(self, tmp_path, monkeypatch, capsys):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "p1.xml").write_text(PAGE, "utf-8")
            (tmp_path / sub / "t1.txt").write_text("gavuruñ\nsayfa 12\n", "utf-8")
        manifest = {"entries": [{"page": f"{sub}/p1.xml", "transcript": f"{sub}/t1.txt"}
                                for sub in ("a", "b")]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        out_dir = tmp_path / "out"
        code, _, err = invoke(
            monkeypatch, capsys,
            ["prepare", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out_dir)],
        )
        assert code == 2
        assert "p1" in err
        assert not out_dir.exists()

    def test_mismatch_is_data_error(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "p1.xml").write_text(PAGE, "utf-8")
        (tmp_path / "t1.txt").write_text("only one line\n", "utf-8")
        code, _, err = invoke(
            monkeypatch, capsys,
            ["prepare", "--page", str(tmp_path / "p1.xml"),
             "--transcript", str(tmp_path / "t1.txt"), "--out", str(tmp_path / "out")],
        )
        assert code == 2
        assert "line" in err.lower()

    @pytest.mark.parametrize(
        "page,error",
        [
            (PAGE.replace('<TextLine id="l2"><TextEquiv><Unicode>sayfa 12</Unicode>'
                          "</TextEquiv></TextLine>", ""),
             "LineCountMismatch: document has 1 lines, transcript has 2"),
            ("<PcGts", "MalformedXml: "),
        ],
        ids=["extra-transcript-line", "broken-xml"],
    )
    def test_failing_page_is_named(self, page, error, tmp_path, monkeypatch, capsys):
        self._write_corpus(tmp_path)
        (tmp_path / "p2.xml").write_text(page, "utf-8")
        (tmp_path / "t2.txt").write_text("gavuruñ\nsayfa 12\n", "utf-8")
        manifest = json.loads((tmp_path / "manifest.json").read_text("utf-8"))
        manifest["entries"].append({"page": "p2.xml", "transcript": "t2.txt"})
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        code, _, err = invoke(
            monkeypatch, capsys,
            ["prepare", "--manifest", str(tmp_path / "manifest.json"),
             "--out", str(tmp_path / "out")],
        )
        assert code == 2
        assert err.startswith(f"otkit: {tmp_path / 'p2.xml'}: {error}")

    def test_bad_page_does_not_stop_the_batch(self, tmp_path, monkeypatch, capsys):
        entries = []
        for n in (1, 2, 3):
            page = "<PcGts" if n == 2 else PAGE
            (tmp_path / f"p{n}.xml").write_text(page, "utf-8")
            (tmp_path / f"t{n}.txt").write_text("gavuruñ\nsayfa 12\n", "utf-8")
            entries.append({"page": f"p{n}.xml", "transcript": f"t{n}.txt"})
        (tmp_path / "manifest.json").write_text(json.dumps({"entries": entries}), "utf-8")
        out_dir = tmp_path / "out"
        code, _, err = invoke(
            monkeypatch, capsys,
            ["prepare", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out_dir)],
        )
        assert code == 2
        assert sorted(p.name for p in out_dir.iterdir()) == ["p1.txt", "p3.txt"]
        assert (out_dir / "p3.txt").read_text("utf-8") == "ñuruvag\n12 afyas\n"
        assert [line.split(": ")[1] for line in err.splitlines()] == [str(tmp_path / "p2.xml")]

    def test_missing_transcript_does_not_stop_the_batch(self, tmp_path, monkeypatch, capsys):
        self._write_corpus(tmp_path)
        (tmp_path / "p2.xml").write_text(PAGE, "utf-8")
        manifest = json.loads((tmp_path / "manifest.json").read_text("utf-8"))
        manifest["entries"].insert(0, {"page": "p2.xml", "transcript": "missing.txt"})
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        out_dir = tmp_path / "out"
        code, _, err = invoke(
            monkeypatch, capsys,
            ["prepare", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out_dir)],
        )
        assert code == 2
        assert err.startswith(f"otkit: {tmp_path / 'p2.xml'}: FileNotFoundError: ")
        assert "missing.txt" in err
        assert len(err.splitlines()) == 1
        assert [p.name for p in out_dir.iterdir()] == ["p1.txt"]
        assert (out_dir / "p1.txt").read_text("utf-8") == "ñuruvag\n12 afyas\n"

    def test_split_does_not_open_the_files(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": [{"page": "nope.xml", "transcript": "nope.txt"}]}),
                        "utf-8")
        code, _, _ = invoke(monkeypatch, capsys, ["split", "--manifest", str(path),
                                                  "-o", str(tmp_path / "split.json")])
        assert code == 0
        entries = json.loads((tmp_path / "split.json").read_text("utf-8"))["entries"]
        assert [e["split"] for e in entries] == ["train"]

    @pytest.mark.parametrize(
        "manifest",
        [
            {"entries": [{"transcript": "t1.txt"}]},
            [{"page": "p1.xml", "transcript": "t1.txt"}],
            {"entries": ["p1.xml"]},
            {"entries": [{"page": "p1.xml", "transcript": "t1.txt", "scheme": 7}]},
            {"entries": [{"page": "p1.xml", "transcript": "t1.txt", "scheme": "IA"}]},
            {"entries": [{"page": "p1.xml", "transcript": "t1.txt", "date": 1906}]},
            {"entries": [{"page": "p1.xml", "transcript": "t1.txt", "split": ["train"]}]},
        ],
        ids=["entry-without-page", "top-level-list", "string-entry", "numeric-scheme",
             "unknown-scheme", "numeric-date", "list-split"],
    )
    def test_malformed_manifest_is_data_error(self, manifest, tmp_path, monkeypatch, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), "utf-8")
        for argv in (
            ["split", "--manifest", str(path), "-o", str(tmp_path / "split.json")],
            ["prepare", "--manifest", str(path), "--out", str(tmp_path / "out")],
        ):
            code, _, err = invoke(monkeypatch, capsys, argv)
            assert code == 2
            assert f"{path}: malformed manifest" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("ratios", ["nan,0.5,0.5", "0.4,0.6,nan", "nan,nan,nan"])
    def test_nan_ratio_is_refused(self, ratios, tmp_path, monkeypatch, capsys):
        self._write_corpus(tmp_path)
        argv = ["split", "--manifest", str(tmp_path / "manifest.json"), "--ratios", ratios,
                "-o", str(tmp_path / "split.json")]
        code, _, err = invoke(monkeypatch, capsys, argv)
        assert code == 2
        assert "ratios must be non-negative and sum to 1" in err

    def test_split_deterministic(self, tmp_path, monkeypatch, capsys):
        self._write_corpus(tmp_path)
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        for out in (out1, out2):
            code, _, _ = invoke(
                monkeypatch, capsys,
                ["split", "--manifest", str(tmp_path / "manifest.json"),
                 "--seed", "42", "-o", str(out)],
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()


def run_quietly(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# Orders stay small: every line is padded with order - 1 symbols.
_INTS = st.integers(-2, 6).map(str) | st.sampled_from(["nan", "inf", "1.5"])
_FLOATS = (st.floats() | st.floats(0, 1)).map(str)
_SCHEMES = st.sampled_from(["ia", "loose", "IA", ""]) | st.text(max_size=6)


@settings(max_examples=60, deadline=None)
@given(order=_INTS, char_order=_INTS, k=_FLOATS, weight=_FLOATS,
       ratios=st.lists(_FLOATS, min_size=3, max_size=3), alpha=_FLOATS, top=_INTS,
       max_candidates=_INTS, max_insertions=_INTS, from_scheme=_SCHEMES, to_scheme=_SCHEMES)
def test_numeric_options_keep_the_exit_contract(order, char_order, k, weight, ratios, alpha, top,
                                                max_candidates, max_insertions, from_scheme,
                                                to_scheme):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus, model, manifest = work / "corpus.txt", work / "model.json", work / "manifest.json"
        corpus.write_text("amele geldi\namele oldu\n", "utf-8")
        entries = [{"page": f"p{i}.xml", "transcript": f"t{i}.txt"} for i in range(4)]
        manifest.write_text(json.dumps({"entries": entries}), "utf-8")
        codes = []
        for argv in (
            ["lm-train", str(corpus), "-o", str(model), "--order", order,
             "--char-order", char_order, "--add-k", k, "--backoff-weight", weight],
            ["split", "--manifest", str(manifest), "--ratios", ",".join(ratios),
             "-o", str(work / "split.json")],
            ["romanize", "--alpha", alpha, "--top", top, "--max-candidates", max_candidates,
             "--max-insertions", max_insertions],
            ["convert", "--from", from_scheme, "--to", to_scheme],
        ):
            code, _, err = run_quietly(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            codes.append(code)
        if codes[0] == 0:
            code, out, _ = run_quietly(["lm-score", "--model", str(model)], stdin="amele zzqx\n")
            assert code == 0
            assert math.isfinite(float(out.split("\t")[0]))
