"""Command-line entry point for the toolkit.

Subcommands mirror the ground-truth pipeline: reverse, convert, romanize,
lm-train, lm-score, eval, prepare, split. Data goes to stdout, diagnostics to
stderr. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import Counter
from pathlib import Path

from . import evaluation, ingest, lm
from .graphemes import reverse_line
from .romanizer import (
    ExceptionLexicon,
    GenLimits,
    Lexicon,
    OTWord,
    romanize,
)
from .scheme import convert_scheme, load_table


class _UsageError(Exception):
    pass


# Every data error otkit raises is a ValueError.
_DATA_ERRORS = (OSError, ValueError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_lines(path: str | None) -> list[str]:
    """The lines of a file or of stdin; CRLF and CR end a line on both, as
    Path.read_text reads them."""
    if path is None or path == "-":
        return io.StringIO(sys.stdin.read(), newline=None).read().split("\n")
    return Path(path).read_text("utf-8").split("\n")


def _write_lines(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, "utf-8")


def build_parser() -> _Parser:
    parser = _Parser(prog="otkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reverse", help="reverse transcription lines grapheme-wise")
    p.add_argument("--input", "-i", default=None, help="input file (default stdin)")
    p.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    p.add_argument("--mirror-brackets", action="store_true")
    p.add_argument(
        "--no-digit-runs",
        action="store_true",
        help="reverse digits along with everything else",
    )

    p = sub.add_parser("convert", help="convert IA transcription to the loose scheme")
    p.add_argument("--from", default="ia", choices=["ia"])
    p.add_argument("--to", default="loose", choices=["loose"])
    p.add_argument("--input", "-i", default=None)
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("romanize", help="rank MT readings for OT words from stdin")
    p.add_argument("--lexicon", default=None)
    p.add_argument("--exceptions", default=None)
    p.add_argument("--model", default=None, help="trained LM file")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--max-insertions", type=int, default=None)
    p.add_argument("--max-candidates", type=int, default=50)
    p.add_argument("--top", type=int, default=5, help="candidates printed per word")

    p = sub.add_parser("lm-train", help="train an n-gram model on a text corpus")
    p.add_argument("corpus", nargs="+", help="UTF-8 text files")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--char-order", type=int, default=3)
    p.add_argument("--add-k", type=float, default=0.1)
    p.add_argument("--backoff-weight", type=float, default=0.5)
    p.add_argument("--output", "-o", required=True)

    p = sub.add_parser("lm-score", help="score lines with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", "-i", default=None)
    p.add_argument("--perplexity", action="store_true", help="print corpus perplexity only")

    p = sub.add_parser("eval", help="CER/WER of hypothesis against reference")
    p.add_argument("--ref", required=True, help="reference file or directory")
    p.add_argument("--hyp", required=True, help="hypothesis file or directory")
    p.add_argument("--report", choices=["table", "csv"], default="table")

    p = sub.add_parser("prepare", help="pair PAGE-XML with transcripts and export")
    p.add_argument("--manifest", default=None, help="corpus manifest JSON")
    p.add_argument("--page", default=None, help="single PAGE-XML file")
    p.add_argument("--transcript", default=None, help="single transcript file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-reverse", action="store_true")

    p = sub.add_parser("split", help="assign train/val/test labels in a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", required=True)

    return parser


def _cmd_reverse(args) -> int:
    mirror, keep_digits = args.mirror_brackets, not args.no_digit_runs
    _write_lines(
        [
            reverse_line(line, mirror_brackets=mirror, preserve_digit_runs=keep_digits)
            for line in _read_lines(args.input)
        ],
        args.output,
    )
    return 0


def _cmd_convert(args) -> int:
    table = load_table()
    _write_lines(
        [convert_scheme(line, table) for line in _read_lines(args.input)], args.output
    )
    return 0


def _cmd_romanize(args) -> int:
    if args.top < 1:
        raise _UsageError(f"--top must be at least 1, got {args.top}")
    if not 0.0 <= args.alpha <= 1.0:
        raise _UsageError(f"--alpha must lie in [0, 1], got {args.alpha}")
    try:
        limits = GenLimits(
            max_insertions=args.max_insertions,
            max_candidates=args.max_candidates,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    table = load_table()
    lexicon = (
        Lexicon.from_file(args.lexicon) if args.lexicon else Lexicon(frozenset())
    )
    exceptions = (
        ExceptionLexicon.from_file(args.exceptions)
        if args.exceptions
        else ExceptionLexicon()
    )
    model = lm.load(args.model) if args.model else None
    out = []
    failed = False
    for raw in sys.stdin.read().split():
        try:
            word = OTWord.from_text(raw, table)
            ranked = romanize(
                word, table, lexicon, exceptions, model, limits, alpha=args.alpha
            )
        except ValueError as exc:
            print(f"otkit: {raw}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed = True
            continue
        out.append("\t".join([raw, *[c.surface for c in ranked[: args.top]]]))
    sys.stdout.write("\n".join(out) + ("\n" if out else ""))
    return 2 if failed else 0


def _cmd_lm_train(args) -> int:
    lines = []
    for path in args.corpus:
        lines.extend(Path(path).read_text("utf-8").splitlines())
    model = lm.train(
        lines,
        order=args.order,
        char_order=args.char_order,
        k=args.add_k,
        backoff_weight=args.backoff_weight,
    )
    lm.save(model, args.output)
    # train skips lines without tokens, so they are not reported either.
    sizes = [len(lm.tokenize(line)) for line in lines]
    print(
        f"trained order-{args.order} model on {len(sizes) - sizes.count(0)} lines, "
        f"{sum(sizes)} tokens",
        file=sys.stderr,
    )
    return 0


def _cmd_lm_score(args) -> int:
    model = lm.load(args.model)
    lines = [line for line in _read_lines(args.input) if line.strip()]
    if args.perplexity:
        print(f"{lm.perplexity(model, lines):.6f}")
        return 0
    for line in lines:
        print(f"{lm.score(model, lm.tokenize(line)):.6f}\t{line}")
    return 0


def _doc_lines(path: Path) -> list[str]:
    return path.read_text("utf-8").splitlines()


def _collect_eval_pairs(ref: Path, hyp: Path):
    """(meta, ref_lines, hyp_lines) per document; hyp_lines is None where a
    directory holds no hypothesis for a reference."""
    if ref.is_dir() != hyp.is_dir():
        raise ValueError("--ref and --hyp must both be files or both directories")
    if not ref.is_dir():
        return [(evaluation.DocumentMeta(name=ref.stem), _doc_lines(ref), _doc_lines(hyp))]
    pairs = []
    for ref_file in sorted(ref.glob("*.txt")):
        hyp_file = hyp / ref_file.name
        pairs.append(
            (
                evaluation.DocumentMeta(name=ref_file.stem),
                _doc_lines(ref_file),
                _doc_lines(hyp_file) if hyp_file.exists() else None,
            )
        )
    if not pairs:
        raise ValueError(f"no *.txt documents to score in {ref}")
    return pairs


def _cmd_eval(args) -> int:
    pairs = _collect_eval_pairs(Path(args.ref), Path(args.hyp))
    report = evaluation.corpus_report(pairs)
    if args.report == "csv":
        sys.stdout.write(report.render_csv())
    else:
        sys.stdout.write(report.render_table() + "\n")
    for meta, reason in report.skipped:
        print(f"skipped {meta.name}: {reason}", file=sys.stderr)
    return 0 if report.rows else 2


def _prepare_one(
    page_path: Path, transcript_path: Path, out_dir: Path, reverse: bool
) -> bool:
    """Export one page; on a data error, report it under the page's path."""
    try:
        doc = ingest.parse_page_xml(page_path.read_bytes())
        transcript = ingest.load_transcript(transcript_path)
        pairs = ingest.pair_ground_truth(doc, transcript)
        ingest.export_training_pairs([(page_path.stem, pairs)], out_dir, reverse=reverse)
    except _DATA_ERRORS as exc:
        print(f"otkit: {page_path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_prepare(args) -> int:
    out_dir = Path(args.out)
    reverse = not args.no_reverse
    if args.manifest:
        manifest = ingest.load_manifest(args.manifest)
        stems = Counter(Path(entry.page_file).stem for entry in manifest.entries)
        shared = sorted(stem for stem, n in stems.items() if n > 1)
        if shared:
            raise ValueError(f"pages share an output name: {', '.join(shared)}")
        base = Path(args.manifest).parent
        prepared = [
            _prepare_one(
                base / entry.page_file, base / entry.transcript_file, out_dir, reverse
            )
            for entry in manifest.entries
        ]
        if not all(prepared):
            return 2
        print(f"prepared {len(prepared)} pages", file=sys.stderr)
        return 0
    if not (args.page and args.transcript):
        raise _UsageError("prepare needs --manifest or both --page and --transcript")
    return 0 if _prepare_one(Path(args.page), Path(args.transcript), out_dir, reverse) else 2


def _cmd_split(args) -> int:
    try:
        ratios = tuple(float(x) for x in args.ratios.split(","))
    except ValueError:
        raise _UsageError(f"bad --ratios value: {args.ratios!r}") from None
    if len(ratios) != 3:
        raise _UsageError("--ratios needs three comma-separated numbers")
    manifest = ingest.load_manifest(args.manifest)
    result = ingest.split_corpus(manifest, ratios, seed=args.seed)
    ingest.save_manifest(result, args.output)
    return 0


_COMMANDS = {
    "reverse": _cmd_reverse,
    "convert": _cmd_convert,
    "romanize": _cmd_romanize,
    "lm-train": _cmd_lm_train,
    "lm-score": _cmd_lm_score,
    "eval": _cmd_eval,
    "prepare": _cmd_prepare,
    "split": _cmd_split,
}

def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"otkit: error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"otkit: error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"otkit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
