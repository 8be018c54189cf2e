"""Traced run: the CLI's work, one span around each call into a layer.

    python3 benchmark/traced.py embed <spectramap embed flags> --trace-calls 2 --out spans.json
    python3 benchmark/traced.py verify --claims lemmaA1,... --seed 42 --draws 200000 --out spans.json

``embed`` calls the package's public functions in the order ``spectramap
embed`` uses them; ``verify`` runs the claim suite one claim at a time. The
spans under the ``run`` root are the pipeline and add up to the CLI's work.
Measurements the CLI does not make (alias table on its own, one loss
evaluation with its memory, k-NN and eigenvector checks) run afterwards
under a ``probe`` root.
Spans and values are written to ``--out`` when the run ends. The package is
imported from ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import sys
import uuid
from pathlib import Path

from spans import Recorder


def embed(args, rec: Recorder) -> dict:
    with rec.span("run"):
        with rec.span("cli.import"):
            import numpy as np

            from spectramap import datasets, fuzzy, kernels, knn, losses, optim, spectra, svgplot
        with rec.span("datasets.load_csv"):
            ds = datasets.load_csv(args.input, has_labels=True)
        with rec.span("knn.search"):
            graph = knn.knn_search(ds.data, args.k)
        with rec.span("fuzzy.calibrate"):
            params = fuzzy.smooth_knn_params(graph)
        with rec.span("fuzzy.directed"):
            directed = fuzzy.directed_weights(graph, params)
        with rec.span("fuzzy.symmetrize"):
            V = fuzzy.symmetrize(directed)
        with rec.span("kernels.fit_ab"):
            fit = kernels.fit_ab(args.min_dist)
            kernel = kernels.KernelParams.cauchy(fit.fitted_a, fit.fitted_b)
        with rec.span("spectra.init"):
            sol = spectra.spectral_init(V, args.dim)
            Y0 = optim.Embedding(sol.vectors * (10.0 / np.abs(sol.vectors).max()), "spectral")
        cfg = optim.OptimizerConfig(
            n_epochs=args.epochs, seed=args.seed, samples_per_epoch=args.samples_per_epoch
        )
        with rec.span("optim.sgd"):
            result = optim.optimize(V, Y0, kernel, cfg, track_loss=False)
        Y = result.embedding.coords
        # the loss evaluations the CLI run made (its trace.jsonl lines with a
        # loss): the first on the starting layout, the rest on later states
        with rec.span("losses.trace_total"):
            for call in range(args.trace_calls):
                with rec.span("losses.trace"):
                    losses.cross_entropy_loss(V, Y0.coords if call == 0 else Y, kernel)
        with rec.span("svgplot.scatter"):
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
            svgplot.svg_scatter(Y, ds.labels, Path(args.out_dir) / "scatter.svg")

    with rec.span("probe"):
        import tracemalloc

        from scipy.sparse.csgraph import connected_components
        from scipy.spatial import cKDTree

        with rec.span("optim.alias"):
            sampler = optim.EdgeSampler(V)
        # one loss evaluation, timed and measured even when the CLI made none
        tracemalloc.start()
        with rec.span("losses.trace_one"):
            losses.cross_entropy_loss(V, Y, kernel)
        trace_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        # k-NN against an independent tree search; the input must be tie-free
        # for the comparison to be exact
        n = ds.data.n
        dist, idx = cKDTree(ds.data.points).query(ds.data.points, k=args.k + 2)
        self_first = bool(np.array_equal(idx[:, 0], np.arange(n)))
        tie_free = bool(np.all(np.diff(dist[:, 1:], axis=1) > 0))
        knn_mismatch = int(np.sum(np.any(idx[:, 1 : args.k + 1] != graph.indices, axis=1)))

        # eigen-residual of the returned pairs under a Laplacian built here
        W = V.matrix
        deg = np.asarray(W.sum(axis=1)).ravel()
        inv_sqrt = 1.0 / np.sqrt(deg)
        Lv = sol.vectors - inv_sqrt[:, None] * (W @ (inv_sqrt[:, None] * sol.vectors))
        eig_residual = float(np.linalg.norm(Lv - sol.vectors * sol.values, axis=0).max())

    samples = sampler.weights.size if args.samples_per_epoch is None else args.samples_per_epoch
    return {
        "n": n,
        "knn.dist_evals": n * n,
        "knn.mismatch_rows": knn_mismatch if self_first and tie_free else -1,
        "fuzzy.flagged_rows": int(params.flagged.sum()),
        "fuzzy.max_residual": float(params.residual.max()),
        "fuzzy.nnz": int(V.nnz),
        "fuzzy.components": int(connected_components(W, directed=False)[0]),
        "spectra.n_null": int(sol.n_null),
        "spectra.eig_residual": eig_residual,
        "optim.samples": samples * args.epochs,
        "optim.self_collisions": int(result.self_collisions),
        "optim.negative_draws": samples * args.epochs * cfg.n_neg,
        "losses.trace_calls": args.trace_calls,
        "losses.trace_peak_mb": trace_peak / 2**20,
        "losses.pair_evals": n * n * args.trace_calls,
    }


def verify(args, rec: Recorder) -> dict:
    with rec.span("run"):
        with rec.span("cli.import"):
            from spectramap import equivalence
        reports = []
        for claim in args.claims.split(","):
            with rec.span(f"equivalence.{claim}"):
                suite = equivalence.run_suite(
                    master_seed=args.seed, claims=[claim], n_draws=args.draws
                )
            reports += suite.reports
    return {
        "claims": sorted({r.claim for r in reports}),
        "equivalence.reports": len(reports),
        "equivalence.reports_failed": sum(not r.passed for r in reports),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    e = sub.add_parser("embed", help="the flags of `spectramap embed` this benchmark uses")
    e.add_argument("--input", required=True)
    e.add_argument("--has-labels", action="store_true", required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--dim", type=int, required=True)
    e.add_argument("--min-dist", type=float, required=True)
    e.add_argument("--init", choices=["spectral"], required=True)
    e.add_argument("--epochs", type=int, required=True)
    e.add_argument("--samples-per-epoch", type=int)
    e.add_argument("--seed", type=int, required=True)
    e.add_argument("--out-dir", required=True)
    e.add_argument("--trace-calls", type=int, required=True,
                   help="loss evaluations the CLI made on this input")
    e.add_argument("--out", required=True)
    v = sub.add_parser("verify")
    v.add_argument("--claims", required=True)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--draws", type=int, required=True)
    v.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    rec = Recorder(uuid.uuid4().hex)
    values = (embed if args.mode == "embed" else verify)(args, rec)
    rec.write(args.out, values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
