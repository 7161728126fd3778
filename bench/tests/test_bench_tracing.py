"""The tracer wraps every binding site, nests spans and restores otkit."""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402


def test_spans_nest_and_self_times_cover_the_root(tmp_path, monkeypatch):
    from otkit import cli, evaluation, graphemes

    original = graphemes.segment_line
    ref, hyp = tmp_path / "r.txt", tmp_path / "h.txt"
    ref.write_text("ḳalem 12\nsayfa\n", "utf-8")
    hyp.write_text("kalem 12\nsayfa\n", "utf-8")

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert evaluation.segment_line is not original  # imported name is wrapped too
        tracer.enabled = True
        with redirect_stdout(io.StringIO()):
            assert cli.run(["eval", "--ref", str(ref), "--hyp", str(hyp), "--report", "csv"]) == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO("sayfa 12"))
        with redirect_stdout(io.StringIO()) as out:
            cli.run(["reverse"])
        assert out.getvalue() == "12 afyas"
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert graphemes.segment_line is original and evaluation.segment_line is original

    ids = {s[0] for s in tracer.spans}
    roots = [s for s in tracer.spans if s[1] == 0]
    assert [s[2] for s in roots] == ["cli.run", "cli.run"]
    assert all(parent in ids for _, parent, *_ in tracer.spans if parent)
    agg = tracer.aggregate()
    assert agg["evaluation.levenshtein_align"]["calls"] == 4
    assert agg["graphemes.reverse_line"]["calls"] == 1
    total_self = sum(a["self_ns"] for a in agg.values())
    assert total_self == sum(t1 - t0 for _, _, _, t0, t1 in roots)
    assert tracer.counts["evaluation.dp_cells"] == (9 * 9 + 6 * 6) + (3 * 3 + 2 * 2)

    metrics = tracing.layer_metrics(tracer, 1, total_self / 1e9, (0, 0))
    assert metrics["romanizer.generate_candidates.calls"] == (0.0, "count")
    assert abs(metrics["trace.accounted_ratio"][0] - 1.0) < 1e-9


def test_p90_is_a_fixed_nearest_rank_percentile():
    assert tracing.p90([]) == 0.0
    assert tracing.p90([5.0]) == 5.0
    assert tracing.p90([float(i) for i in range(100, 0, -1)]) == 90.0
    assert tracing.p90([float(i) for i in range(1, 1001)]) == 900.0
