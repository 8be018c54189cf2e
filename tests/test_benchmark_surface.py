"""The package surface that ``benchmark/traced.py`` calls.

The traced benchmark run calls the package's public functions directly
(``svg_scatter``, ``Embedding``, ``optimize(track_loss=False)``,
``EdgeSampler.weights``, ``directed_weights``/``symmetrize``,
``SimilarityGraph.matrix``, ``run_suite``), so a change to any of them
must fail here rather than in a benchmark run.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import spectramap as sm

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "benchmark" / "traced.py"


def run_traced(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACED), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def load_spans(path):
    body = json.loads(path.read_text())
    return {s["name"] for s in body["spans"]}, body["values"]


def test_traced_embed(tmp_path):
    data = tmp_path / "in.csv"
    sm.save_csv(sm.gen_blobs(100, [(0.0, 0.0, 0.0), (6.0, 0.0, 0.0)], 1.0, 5), data)
    out = tmp_path / "spans.json"
    run_traced(
        "embed", "--input", data, "--has-labels", "--k", 10, "--dim", 2,
        "--min-dist", 0.1, "--init", "spectral", "--epochs", 2, "--seed", 3,
        "--out-dir", tmp_path / "run", "--trace-calls", 2, "--out", out,
    )
    names, values = load_spans(out)
    assert {"run", "knn.search", "fuzzy.symmetrize", "spectra.init", "optim.sgd",
            "losses.trace", "svgplot.scatter", "optim.alias", "probe"} <= names
    assert values["n"] == 200
    assert values["knn.mismatch_rows"] in (0, -1)
    assert values["spectra.eig_residual"] <= 1e-8
    assert (tmp_path / "run" / "scatter.svg").exists()


def test_traced_verify(tmp_path):
    # every claim, in the order the benchmark runs them
    claims = runpy.run_path(str(ROOT / "benchmark" / "workloads.py"))["CLAIM_IDS"]
    out = tmp_path / "spans.json"
    run_traced("verify", "--claims", ",".join(claims), "--seed", 42, "--draws", 2000,
               "--out", out)
    body = json.loads(out.read_text())
    spans = [s["name"] for s in body["spans"] if s["name"].startswith("equivalence.")]
    assert spans == [f"equivalence.{c}" for c in claims]
    assert body["values"]["claims"] == sorted(claims)
    assert body["values"]["equivalence.reports_failed"] == 0
