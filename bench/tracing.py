"""Span tracing of otkit from outside the package.

`Tracer.install` replaces every public function of the otkit modules, and
every public classmethod of their classes, with a wrapper that records a span
(id, parent id, name, start, end) while the tracer is enabled. It patches each
binding site, so names that `otkit.cli`, `otkit.ingest`, `otkit.evaluation`
and `otkit.scheme` imported into themselves are traced as well. Instance
methods (`Lexicon.contains`, `NgramModel.prob`, ...) are not wrapped: their
time counts as self time of the function that calls them. In `otkit.cli` only
`run` is wrapped, so argument parsing, whole-input reads, joins and writes
are `cli.run` self time.

Spans stay in memory until `write_spans`. Hooks record counts at the same
boundaries: beam truncation from the returned `GenerationResult`, lexicon
and exception hits per romanized word, LM out-of-vocabulary tokens, DP cells
of each alignment and bytes parsed and written by `ingest`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

MODULES = ("graphemes", "scheme", "romanizer", "lm", "evaluation", "ingest")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._next_id = 1
        self._originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, name, t0, t1))
            if hook is not None:
                hook(self, args, result, t1 - t0)
            return result

        return wrapper

    def install(self) -> None:
        import otkit.cli as cli

        modules = {short: importlib.import_module(f"otkit.{short}") for short in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    self._originals[name] = obj
                    wrapped[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not meth.startswith("_"):
                            name = f"{short}.{attr}.{meth}"
                            self._originals[name] = raw
                            self._set(obj, meth, classmethod(self._wrap(name, raw.__func__)))
        self._originals["cli.run"] = cli.run
        wrapped[id(cli.run)] = self._wrap("cli.run", cli.run)
        # Rebind at every site that holds one of the originals, including
        # names imported with `from .module import name`.
        for mod in [cli, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def original(self, name: str):
        return self._originals[name]

    # ------------------------------------------------------------ results

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0][3] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{t0 - base}\t{t1 - base}\n")

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_ns and self_ns (duration minus the time
        covered by its child spans)."""
        child_ns: Counter = Counter()
        for _, parent, _, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        agg: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for sid, _, name, t0, t1 in self.spans:
            a = agg[name]
            a["calls"] += 1
            a["total_ns"] += t1 - t0
            a["self_ns"] += t1 - t0 - child_ns[sid]
        return agg


# ---------------------------------------------------------------- hooks

def _generate(tr: Tracer, args, result, ns: int) -> None:
    tr.counts["romanizer.truncated"] += bool(result.truncated)
    tr.samples["romanizer.generate_candidates"].append(ns / 1e6)
    tr.samples[f"romanizer.generate_candidates.len{len(args[0].letters)}"].append(ns / 1e6)


def _romanize(tr: Tracer, args, result, ns: int) -> None:
    word, _table, lexicon, exceptions = args[:4]
    if exceptions.lookup(word) is not None:
        tr.counts["romanizer.exception_hits"] += 1
        return
    top = result[0].surface if result else ""
    strip = tr.original("romanizer.strip_affixes")
    if top and (lexicon.contains(top) or strip(top, lexicon)):
        tr.counts["romanizer.lexicon_hits"] += 1


def _score(tr: Tracer, args, result, ns: int) -> None:
    model, tokens = args[:2]
    tr.counts["lm.tokens"] += len(tokens)
    tr.counts["lm.oov_tokens"] += sum(t not in model.vocab for t in tokens)
    tr.counts[f"lm.order{model.order}.tokens"] += len(tokens)
    tr.counts[f"lm.order{model.order}.ns"] += ns


def _align(tr: Tracer, args, result, ns: int) -> None:
    tr.counts["evaluation.dp_cells"] += (len(args[0]) + 1) * (len(args[1]) + 1)


def _parse(tr: Tracer, args, result, ns: int) -> None:
    data = args[0]
    tr.counts["ingest.parse_bytes"] += len(data.encode("utf-8") if isinstance(data, str) else data)


def _export(tr: Tracer, args, result, ns: int) -> None:
    tr.counts["ingest.bytes_written"] += sum(Path(p).stat().st_size for p in result)


_HOOKS = {
    "romanizer.generate_candidates": _generate,
    "romanizer.romanize": _romanize,
    "lm.score": _score,
    "evaluation.levenshtein_align": _align,
    "ingest.parse_page_xml": _parse,
    "ingest.export_training_pairs": _export,
}


# ---------------------------------------------------------------- metrics

def p90(samples: list[float]) -> float:
    """The 90th percentile by nearest rank; 0 without samples.

    A fixed percentile, so that a speed-up, which puts more samples into the
    traced window, does not move the metric to a higher one. A traced window
    of `romanize` holds a few hundred calls, enough for ten beyond p90 but
    not beyond p99."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.9 * len(ordered)) - 1] if ordered else 0.0


def layer_metrics(tracer: Tracer, passes: int, wall_s: float, top1: tuple[int, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced window of `passes` passes.

    Times and counts are per pass; ratios pool the whole window."""
    agg = tracer.aggregate()
    c = tracer.counts
    per = max(passes, 1)

    def calls(name):
        return agg[name]["calls"] / per if name in agg else 0.0

    def self_s(name):
        return agg[name]["self_ns"] / 1e9 / per if name in agg else 0.0

    def module_self(short):
        return sum(a["self_ns"] for n, a in agg.items() if n.startswith(short + ".")) / 1e9 / per

    def median_ms(key):
        s = tracer.samples.get(key)
        return statistics.median(s) if s else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["cli.run.calls"] = (calls("cli.run"), "count")
    m["cli.run.self_s"] = (self_s("cli.run"), "s")
    for short in MODULES:
        m[f"{short}.self_s"] = (module_self(short), "s")
    for name in ("graphemes.segment_line", "graphemes.reverse_line", "scheme.convert_scheme",
                 "scheme.load_table", "romanizer.generate_candidates", "romanizer.strip_affixes",
                 "lm.train", "lm.save", "lm.load", "lm.score", "evaluation.levenshtein_align",
                 "ingest.parse_page_xml", "ingest.pair_ground_truth", "ingest.export_training_pairs"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    rev = agg.get("graphemes.reverse_line")
    m["graphemes.reverse_line.us_per_call"] = (rev["total_ns"] / rev["calls"] / 1e3 if rev else 0.0, "us")
    m["evaluation.corpus_report.total_s"] = (
        agg["evaluation.corpus_report"]["total_ns"] / 1e9 / per if "evaluation.corpus_report" in agg else 0.0, "s")

    romanized = agg["romanizer.romanize"]["calls"] if "romanizer.romanize" in agg else 0
    generated = romanized - c["romanizer.exception_hits"]
    m["romanizer.romanize.calls"] = (romanized / per, "count")
    m["romanizer.generate_candidates.median_ms"] = (median_ms("romanizer.generate_candidates"), "ms")
    m["romanizer.generate_candidates.p90_ms"] = (p90(tracer.samples.get("romanizer.generate_candidates", [])), "ms")
    for n in range(3, 10):
        m[f"romanizer.generate_candidates.len{n}.median_ms"] = (
            median_ms(f"romanizer.generate_candidates.len{n}"), "ms")
    m["romanizer.truncated_ratio"] = (
        ratio(c["romanizer.truncated"], len(tracer.samples.get("romanizer.generate_candidates", []))), "ratio")
    m["romanizer.lexicon_hit_ratio"] = (ratio(c["romanizer.lexicon_hits"], generated), "ratio")
    m["romanizer.exception_hit_ratio"] = (ratio(c["romanizer.exception_hits"], romanized), "ratio")
    m["romanizer.top1_acc"] = (ratio(*top1), "ratio")

    m["lm.score.tokens"] = (c["lm.tokens"] / per, "count")
    m["lm.oov_ratio"] = (ratio(c["lm.oov_tokens"], c["lm.tokens"]), "ratio")
    for order in (1, 2):
        m[f"lm.score.order{order}.us_per_token"] = (
            ratio(c[f"lm.order{order}.ns"], c[f"lm.order{order}.tokens"]) / 1e3, "us")

    m["evaluation.dp_cells"] = (c["evaluation.dp_cells"] / per, "count")
    align = agg.get("evaluation.levenshtein_align")
    m["evaluation.levenshtein_align.ns_per_cell"] = (
        ratio(align["total_ns"], c["evaluation.dp_cells"]) if align else 0.0, "ns")
    m["ingest.parse_page_xml.bytes"] = (c["ingest.parse_bytes"] / per, "B")
    m["ingest.bytes_written"] = (c["ingest.bytes_written"] / per, "B")

    accounted = sum(a["self_ns"] for a in agg.values()) / 1e9
    m["trace.passes"] = (passes, "count")
    m["trace.spans"] = (len(tracer.spans) / per, "count")
    m["trace.wall_s"] = (wall_s / per, "s")
    m["trace.accounted_ratio"] = (ratio(accounted, wall_s), "ratio")
    return m
