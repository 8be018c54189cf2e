"""Tests of the benchmark's own code: quality metrics, self times, checks.

    python3 -m pytest benchmark/test_benchmark_code.py
"""

import json

import numpy as np
import pytest

from checks import Ledger, check_embed_outputs, check_verify_report, knn_recall, label_purity
from spans import Recorder, Span, self_times, top_level
from workloads import CLAIM_IDS


class TestQualityMetrics:
    def test_identical_embedding_has_full_recall(self):
        pts = np.random.default_rng(0).standard_normal((40, 3))
        assert knn_recall(pts, pts, k=5) == 1.0

    def test_recall_counts_shared_neighbours(self):
        # nearest neighbours (k=1) on the input line: 0->1, 1->0, 2->3, 3->2
        line = np.array([[0.0], [1.0], [3.0], [4.0]])
        # embedding at (0, 4, 3, 1): 0->3, 1->2, 2->1, 3->0, none shared
        assert knn_recall(line, line[[0, 3, 2, 1]], k=1) == 0.0
        # embedding at (0, 1, 1.6, 10): 0->1, 1->2, 2->1, 3->2, rows 0 and 3 shared
        assert knn_recall(line, np.array([[0.0], [1.0], [1.6], [10.0]]), k=1) == 0.5

    def test_purity_of_separated_and_mixed_clusters(self):
        emb = np.array([[0.0, 0], [0, 1], [0, 2], [100, 0], [100, 1], [100, 2]])
        assert label_purity(np.array([0, 0, 0, 1, 1, 1]), emb, k=2) == 1.0
        # each cluster holds labels (0, 1, 0): the middle point's two
        # neighbours disagree with it, each end point agrees with one of two
        mixed = np.array([0, 1, 0, 1, 0, 1])
        assert label_purity(mixed, emb, k=2) == pytest.approx((0.5 + 0 + 0.5) * 2 / 6)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            Span("run", 0.0, 10.0, None, "r"),
            Span("a", 1.0, 4.0, 0, "r"),
            Span("a.child", 2.0, 3.0, 1, "r"),
            Span("b", 5.0, 9.0, 0, "r"),
            Span("b.x", 5.5, 7.0, 3, "r"),
            Span("b.y", 6.5, 8.0, 3, "r"),  # overlaps b.x: the union is 2.5 s
        ]
        assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 1.5])
        assert [s.name for s in top_level(spans, "run")] == ["a", "b"]

    def test_child_outside_parent_is_clipped(self):
        spans = [Span("p", 0.0, 2.0, None, "r"), Span("c", 1.5, 3.0, 0, "r")]
        assert self_times(spans)[0] == pytest.approx(1.5)

    def test_recorder_nests_and_writes(self, tmp_path):
        rec = Recorder("run-1")
        with rec.span("run"):
            with rec.span("step"):
                pass
        path = tmp_path / "spans.json"
        rec.write(path, {"k": 1})
        body = json.loads(path.read_text())
        assert [s["parent"] for s in body["spans"]] == [None, 0]
        assert {s["run_id"] for s in body["spans"]} == {"run-1"}
        assert all(s["end"] >= s["start"] for s in body["spans"])
        assert body["values"] == {"k": 1}


def _write_embed_outputs(out, coords, n, nnz):
    out.mkdir()
    lines = ["y0,y1,label"] + [f"{a!r},{b!r},0" for a, b in coords]
    (out / "embedding.csv").write_text("\n".join(lines) + "\n")
    (out / "run.json").write_text(json.dumps({"n": n, "graph_nnz": nnz}))


class TestChecks:
    def test_good_embed_passes(self, tmp_path):
        _write_embed_outputs(tmp_path / "o", [(0.0, 1.0), (2.0, 3.0)], 2, 2)
        problems, coords, _ = check_embed_outputs(0, tmp_path / "o", 2, 2)
        assert problems == [] and coords.shape == (2, 2)

    @pytest.mark.parametrize(
        "rc, coords, nnz, expected",
        [
            (1, [(0.0, 1.0), (2.0, 3.0)], 2, "exited 1"),
            (0, [(0.0, float("nan")), (2.0, 3.0)], 2, "finite rows"),
            (0, [(0.0, 1.0)], 2, "finite rows"),
            (0, [(0.0, 1.0), (2.0, 3.0)], 4, "graph_nnz"),
        ],
    )
    def test_failed_check_lowers_pass_frac(self, tmp_path, rc, coords, nnz, expected):
        _write_embed_outputs(tmp_path / "o", coords, len(coords), nnz)
        ledger = Ledger()
        ledger.record([])
        problems, _, _ = check_embed_outputs(rc, tmp_path / "o", 2, 2)
        ledger.record(problems)
        assert any(expected in p for p in problems)
        assert (ledger.attempted, ledger.failed, ledger.pass_frac) == (2, 1, 0.5)

    def test_verify_report_counts_claims(self, tmp_path):
        reports = [{"claim": c, "passed": c != "lemmaA1"} for c in CLAIM_IDS[1:]]
        (tmp_path / "report.json").write_text(json.dumps({"reports": reports}))
        problems, ops, failed = check_verify_report(1, tmp_path)
        # thm3.1a is missing and lemmaA1 failed: two failed operations
        assert (ops, failed) == (len(CLAIM_IDS), 2)
        assert len(problems) == 2

    def test_unreadable_verify_report_fails_every_claim(self, tmp_path):
        problems, ops, failed = check_verify_report(-9, tmp_path)
        assert ops == failed == len(CLAIM_IDS) and problems
