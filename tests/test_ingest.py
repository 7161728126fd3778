import unicodedata

import pytest

from otkit import ingest
from otkit.graphemes import reverse_line
from otkit.ingest import (
    CorpusManifest,
    EmptyManifest,
    LineCountMismatch,
    MalformedXml,
    ManifestEntry,
    PageDocument,
    TextLine,
    TextRegion,
    UnsupportedSchema,
    export_training_pairs,
    load_manifest,
    load_transcript,
    pair_ground_truth,
    parse_page_xml,
    save_manifest,
    split_corpus,
    write_page_xml,
)

PAGE_FIXTURE = f"""<?xml version="1.0" encoding="UTF-8"?>
<PcGts xmlns="{ingest.PAGE_NS}">
  <Page id="p1" imageFilename="ahali_001.jpg">
    <TextRegion id="r1">
      <TextLine id="l1"><Baseline points="10,20 30,20"/><TextEquiv><Unicode>gavuruñ bitdi</Unicode></TextEquiv></TextLine>
      <TextLine id="l2"><TextEquiv><Unicode>sayfa 12</Unicode></TextEquiv></TextLine>
      <TextLine id="l3"><TextEquiv><Unicode/></TextEquiv></TextLine>
    </TextRegion>
    <TextRegion id="r2">
      <TextLine id="l4"><TextEquiv><Unicode>ğâbil degil</Unicode></TextEquiv></TextLine>
      <TextLine id="l5"><TextEquiv><Unicode>hyats bir tipo</Unicode></TextEquiv></TextLine>
      <TextLine id="l6"><TextEquiv><Unicode>son satır</Unicode></TextEquiv></TextLine>
    </TextRegion>
  </Page>
</PcGts>
"""


@pytest.fixture
def doc():
    return parse_page_xml(PAGE_FIXTURE)


class TestParsePageXml:
    def test_lines_in_order(self, doc):
        assert [l.line_id for l in doc.all_lines()] == ["l1", "l2", "l3", "l4", "l5", "l6"]
        assert doc.page_id == "p1"
        assert doc.image_filename == "ahali_001.jpg"

    def test_missing_text_is_empty_string(self, doc):
        assert doc.all_lines()[2].text == ""

    def test_baseline_coordinates(self, doc):
        assert doc.all_lines()[0].baseline == ((10, 20), (30, 20))

    def test_empty_page(self):
        xml = f'<PcGts xmlns="{ingest.PAGE_NS}"><Page id="p"/></PcGts>'
        assert parse_page_xml(xml).regions == ()

    def test_truncated_file(self):
        with pytest.raises(MalformedXml):
            parse_page_xml(PAGE_FIXTURE[:100])

    def test_non_page_schema(self):
        with pytest.raises(UnsupportedSchema):
            parse_page_xml("<html><body/></html>")


class TestWritePageXml:
    def test_round_trip(self, doc):
        assert parse_page_xml(write_page_xml(doc)) == doc

    def test_empty_document(self):
        empty = PageDocument("p")
        assert parse_page_xml(write_page_xml(empty)) == empty

    def test_baselines_lossless(self):
        document = PageDocument(
            "p",
            regions=(
                TextRegion(
                    "r",
                    (TextLine("l", "x", baseline=((0, 1), (2000, 1234), (5, 5))),),
                ),
            ),
        )
        again = parse_page_xml(write_page_xml(document))
        assert again.all_lines()[0].baseline == ((0, 1), (2000, 1234), (5, 5))


class TestPairGroundTruth:
    TRANSCRIPT = ["gavuruñ bitdi", "sayfa 12", "", "ğâbil degil", "hyats bir tipo", "son satır"]

    def test_pairing(self, doc):
        pairs = pair_ground_truth(doc, self.TRANSCRIPT)
        assert pairs == [unicodedata.normalize("NFC", t) for t in self.TRANSCRIPT]

    def test_mismatch(self, doc):
        with pytest.raises(LineCountMismatch) as exc:
            pair_ground_truth(doc, self.TRANSCRIPT[:-1])
        assert exc.value.expected == 6
        assert exc.value.actual == 5

    def test_typo_preserved_verbatim(self, doc):
        # "hyats" and "bitdi" are transcriber-preserved source typos
        pairs = pair_ground_truth(doc, self.TRANSCRIPT)
        assert pairs[4] == "hyats bir tipo"
        assert pairs[0] == "gavuruñ bitdi"


class TestExport:
    def test_reverse_export(self, doc, tmp_path):
        pairs = pair_ground_truth(doc, TestPairGroundTruth.TRANSCRIPT)
        (path,) = export_training_pairs([("page1", pairs)], tmp_path, reverse=True)
        lines = path.read_text("utf-8").split("\n")[:-1]
        assert lines[0] == "idtib ñuruvag"
        assert lines[1] == "12 afyas"

    def test_identity_export(self, doc, tmp_path):
        pairs = pair_ground_truth(doc, TestPairGroundTruth.TRANSCRIPT)
        (path,) = export_training_pairs([("page1", pairs)], tmp_path, reverse=False)
        lines = path.read_text("utf-8").split("\n")[:-1]
        assert lines == [unicodedata.normalize("NFC", t) for t in TestPairGroundTruth.TRANSCRIPT]

    def test_double_reversal_is_identity(self, doc, tmp_path):
        pairs = pair_ground_truth(doc, TestPairGroundTruth.TRANSCRIPT)
        (path,) = export_training_pairs([("page1", pairs)], tmp_path / "a", reverse=True)
        read_back = path.read_text("utf-8").split("\n")[:-1]
        restored = [reverse_line(line) for line in read_back]
        assert restored == [unicodedata.normalize("NFC", t) for t in TestPairGroundTruth.TRANSCRIPT]


class TestTranscriptLoading:
    def test_blank_lines_are_region_separators(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("line one\nline two\n\nline three\n", "utf-8")
        assert load_transcript(path) == ["line one", "line two", "line three"]


def _manifest(n, tmp_path):
    entries = []
    for i in range(n):
        page = tmp_path / f"p{i}.xml"
        transcript = tmp_path / f"t{i}.txt"
        page.write_text(f'<PcGts xmlns="{ingest.PAGE_NS}"><Page id="p{i}"/></PcGts>', "utf-8")
        transcript.write_text("", "utf-8")
        entries.append(ManifestEntry(page.name, transcript.name, name=f"doc{i}"))
    return CorpusManifest(tuple(entries))


class TestSplitCorpus:
    def test_deterministic_eight_one_one(self, tmp_path):
        manifest = _manifest(10, tmp_path)
        first = split_corpus(manifest, (0.8, 0.1, 0.1), seed=42)
        second = split_corpus(manifest, (0.8, 0.1, 0.1), seed=42)
        assert first == second
        labels = [e.split for e in first.entries]
        assert labels.count("train") == 8
        assert labels.count("val") == 1
        assert labels.count("test") == 1

    def test_single_entry_goes_to_largest_ratio(self, tmp_path):
        manifest = _manifest(1, tmp_path)
        result = split_corpus(manifest, (0.8, 0.1, 0.1), seed=0)
        assert result.entries[0].split == "train"

    def test_bad_ratios(self, tmp_path):
        manifest = _manifest(2, tmp_path)
        with pytest.raises(ValueError):
            split_corpus(manifest, (0.5, 0.5, 0.1), seed=0)

    def test_empty_manifest(self):
        with pytest.raises(EmptyManifest):
            split_corpus(CorpusManifest(()), (0.8, 0.1, 0.1), seed=0)

    def test_proportions_within_one(self, tmp_path):
        manifest = _manifest(7, tmp_path)
        result = split_corpus(manifest, (0.6, 0.2, 0.2), seed=3)
        labels = [e.split for e in result.entries]
        for label, ratio in zip(("train", "val", "test"), (0.6, 0.2, 0.2)):
            assert abs(labels.count(label) - 7 * ratio) <= 1


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        manifest = _manifest(3, tmp_path)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.entries == manifest.entries

    def test_input_seed_is_ignored(self, tmp_path):
        # No command reads a manifest's seed: split records its own --seed.
        path = tmp_path / "manifest.json"
        path.write_text('{"seed": [1, "x"], "entries": [{"page": "p.xml", "transcript": "t.txt"}]}',
                        "utf-8")
        assert load_manifest(path).seed is None
