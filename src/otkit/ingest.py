"""PAGE-XML and plain-text ground-truth handling.

Covers the subset of the PAGE schema an HTR ground-truth workflow touches:
TextRegion, TextLine, Baseline, and TextEquiv/Unicode. Transcripts are UTF-8
plain text, one line per text line, with a blank line between regions. Pairing
never mutates transcription text beyond NFC normalization, so spelling
mistakes and typos in the source stay in the training data.
"""

from __future__ import annotations

import json
import random
import unicodedata
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .graphemes import reverse_line

PAGE_NS = "http://schema.primaresearch.org/PAGE/gts/pagecontent/2013-07-15"


class MalformedXml(ValueError):
    pass


class UnsupportedSchema(ValueError):
    pass


class LineCountMismatch(ValueError):
    def __init__(self, expected: int, actual: int):
        super().__init__(f"document has {expected} lines, transcript has {actual}")
        self.expected = expected
        self.actual = actual


class EmptyManifest(ValueError):
    pass


@dataclass(frozen=True)
class TextLine:
    line_id: str
    text: str = ""
    baseline: Optional[tuple[tuple[int, int], ...]] = None


@dataclass(frozen=True)
class TextRegion:
    region_id: str
    lines: tuple[TextLine, ...] = ()


@dataclass(frozen=True)
class PageDocument:
    page_id: str
    image_filename: str = ""
    regions: tuple[TextRegion, ...] = ()

    def all_lines(self) -> list[TextLine]:
        return [line for region in self.regions for line in region.lines]


def _tag(element: ET.Element) -> str:
    return element.tag.rsplit("}", 1)[-1]


def _parse_points(points: str) -> tuple[tuple[int, int], ...]:
    coords = []
    for pair in points.split():
        x, _, y = pair.partition(",")
        coords.append((int(x), int(y)))
    return tuple(coords)


def parse_page_xml(data: bytes | str) -> PageDocument:
    """Parse the TextRegion/TextLine/TextEquiv-Unicode subset of PAGE-XML."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from exc
    if _tag(root) != "PcGts" or "PAGE" not in root.tag:
        raise UnsupportedSchema(f"not a PAGE document: root element {root.tag!r}")

    page = next((el for el in root if _tag(el) == "Page"), None)
    if page is None:
        raise UnsupportedSchema("missing Page element")

    regions = []
    for region_el in page:
        if _tag(region_el) != "TextRegion":
            continue
        lines = []
        for line_el in region_el:
            if _tag(line_el) != "TextLine":
                continue
            baseline = None
            text = ""
            for child in line_el:
                if _tag(child) == "Baseline":
                    baseline = _parse_points(child.get("points", ""))
                elif _tag(child) == "TextEquiv":
                    unicode_el = next(
                        (el for el in child if _tag(el) == "Unicode"), None
                    )
                    if unicode_el is not None and unicode_el.text:
                        text = unicode_el.text
            lines.append(
                TextLine(line_el.get("id", ""), text=text, baseline=baseline)
            )
        regions.append(TextRegion(region_el.get("id", ""), tuple(lines)))
    return PageDocument(
        page_id=page.get("id", ""),
        image_filename=page.get("imageFilename", ""),
        regions=tuple(regions),
    )


def write_page_xml(doc: PageDocument) -> bytes:
    """Serialize a PageDocument; parse(write(d)) == d on the supported subset."""
    ET.register_namespace("", PAGE_NS)
    root = ET.Element(f"{{{PAGE_NS}}}PcGts")
    page = ET.SubElement(root, f"{{{PAGE_NS}}}Page")
    if doc.page_id:
        page.set("id", doc.page_id)
    if doc.image_filename:
        page.set("imageFilename", doc.image_filename)
    for region in doc.regions:
        region_el = ET.SubElement(page, f"{{{PAGE_NS}}}TextRegion")
        if region.region_id:
            region_el.set("id", region.region_id)
        for line in region.lines:
            line_el = ET.SubElement(region_el, f"{{{PAGE_NS}}}TextLine")
            if line.line_id:
                line_el.set("id", line.line_id)
            if line.baseline is not None:
                baseline_el = ET.SubElement(line_el, f"{{{PAGE_NS}}}Baseline")
                baseline_el.set(
                    "points", " ".join(f"{x},{y}" for x, y in line.baseline)
                )
            equiv = ET.SubElement(line_el, f"{{{PAGE_NS}}}TextEquiv")
            unicode_el = ET.SubElement(equiv, f"{{{PAGE_NS}}}Unicode")
            unicode_el.text = line.text
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def load_transcript(path: Path | str) -> list[str]:
    """Read a transcript file; blank lines are region separators, not lines."""
    text = Path(path).read_text("utf-8")
    return [line for line in text.split("\n") if line.strip() != ""]


def pair_ground_truth(doc: PageDocument, transcript: Sequence[str]) -> list[str]:
    """Pair document lines with transcript lines in reading order.

    Returns the transcript lines, one per document line (the i-th belongs to
    doc.all_lines()[i]). The text passes through verbatim (modulo NFC); typos
    stay typos.
    """
    expected = sum(len(region.lines) for region in doc.regions)
    if expected != len(transcript):
        raise LineCountMismatch(expected, len(transcript))
    return [unicodedata.normalize("NFC", text) for text in transcript]


def export_training_pairs(
    documents: Sequence[tuple[str, Sequence[str]]],
    out_dir: Path | str,
    reverse: bool = True,
) -> list[Path]:
    """Write one transcript file per page, optionally reversing each line.

    reverse=True prepares RTL training text; reverse=False re-exports
    recognized text back in LTR reading order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, lines in documents:
        path = out / f"{name}.txt"
        if reverse:
            lines = [reverse_line(line) for line in lines]
        try:
            path.write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        written.append(path)
    return written


@dataclass(frozen=True)
class ManifestEntry:
    page_file: str
    transcript_file: str
    scheme: str = "loose"  # a label: prepare exports the text as it is
    name: str = ""
    subject: str = ""
    date: str = ""
    split: Optional[str] = None


@dataclass(frozen=True)
class CorpusManifest:
    entries: tuple[ManifestEntry, ...]
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "entries": [
                {
                    "page": e.page_file,
                    "transcript": e.transcript_file,
                    "scheme": e.scheme,
                    "name": e.name,
                    "subject": e.subject,
                    "date": e.date,
                    **({"split": e.split} if e.split else {}),
                }
                for e in self.entries
            ],
        }


def load_manifest(path: Path | str) -> CorpusManifest:
    """Read a manifest; its page and transcript files are not opened here.

    A "seed" key is ignored: only split_corpus records the seed it used.
    """
    data = json.loads(Path(path).read_text("utf-8"))
    raws = data.get("entries", []) if isinstance(data, dict) else None
    if not isinstance(raws, list):
        raise ValueError(
            f'{path}: malformed manifest: expected an object with an "entries" list'
        )
    entries = []
    for i, raw in enumerate(raws):
        if not isinstance(raw, dict) or not all(
            isinstance(raw.get(key), str) for key in ("page", "transcript")
        ):
            raise ValueError(
                f'{path}: malformed manifest: entry {i} needs "page" and "transcript" strings'
            )
        if raw.get("scheme", "loose") not in ("ia", "loose"):
            raise ValueError(
                f'{path}: malformed manifest: entry {i}: "scheme" must be "ia" or "loose"'
            )
        for key in ("name", "subject", "date", "split"):
            if not isinstance(raw.get(key, ""), str):
                raise ValueError(
                    f'{path}: malformed manifest: entry {i}: "{key}" must be a string'
                )
        entries.append(
            ManifestEntry(
                page_file=raw["page"],
                transcript_file=raw["transcript"],
                scheme=raw.get("scheme", "loose"),
                name=raw.get("name", ""),
                subject=raw.get("subject", ""),
                date=raw.get("date", ""),
                split=raw.get("split"),
            )
        )
    return CorpusManifest(tuple(entries))


def save_manifest(manifest: CorpusManifest, path: Path | str) -> None:
    Path(path).write_text(
        json.dumps(manifest.to_dict(), ensure_ascii=False, indent=2) + "\n", "utf-8"
    )


def split_corpus(
    manifest: CorpusManifest,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> CorpusManifest:
    """Assign train/val/test labels deterministically from the seed.

    Counts follow the largest-remainder method, so every proportion is within
    one entry of exact.
    """
    if not all(r >= 0 for r in ratios) or not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ValueError(f"ratios must be non-negative and sum to 1: {ratios}")
    n = len(manifest.entries)
    if n == 0:
        raise EmptyManifest("manifest has no entries")

    labels = ("train", "val", "test")
    exact = [n * r for r in ratios]
    counts = [int(x) for x in exact]
    remainders = sorted(
        range(3), key=lambda i: (-(exact[i] - counts[i]), -ratios[i], i)
    )
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1

    order = list(range(n))
    random.Random(seed).shuffle(order)
    assignment = {}
    cursor = 0
    for label, count in zip(labels, counts):
        for idx in order[cursor : cursor + count]:
            assignment[idx] = label
        cursor += count

    entries = tuple(
        replace(entry, split=assignment[i]) for i, entry in enumerate(manifest.entries)
    )
    return CorpusManifest(entries, seed=seed)
