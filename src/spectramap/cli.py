"""Command-line front end: data generation, embedding, verification, kernel fit.

Flag values override an optional key=value config file (--config) whose keys
are the subcommand's flag names; every effective value is echoed into the
run's JSON report so results reproduce from the report alone.

Every JSON output (trace.jsonl, timing.json, run.json, report.json) is
strict JSON, written by ``_write_json`` alone: a non-finite float becomes
the string "inf", "-inf" or "nan".

Exit codes: 0 when the command is done, 1 when ``verify`` finds a failed
claim (eq13_montecarlo, a 3-standard-error test, fails so for about 0.27%
of master seeds on correct code, ``--seed 347`` among them), 2 for a named
error: one of ``NAMED_ERRORS`` in a ``_stage``, or an OSError reading an
input or writing an output. ``main`` prints that as one line,
``error [stage]: …``; any other exception is a bug and ends in a
traceback. Outputs are written only once every stage has returned, so a run
that fails in a stage leaves no output directory or file behind.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import equivalence
from .datasets import (DataMatrix, LabeledDataset, gen_blobs, gen_two_moons, load_csv,
                       read_utf8, save_csv)
from .errors import NAMED_ERRORS, ConfigurationError, require_addressable
from .fuzzy import directed_weights, smooth_knn_params, symmetrize
from .kernels import DEFAULT_MIN_DIST, MIN_DIST_MAX, KernelParams, fit_ab
from .knn import knn_search
from .optim import OptimizerConfig, optimize, random_embedding, spectral_embedding
from .spectra import spectral_init
from .svgplot import svg_scatter

_MIN_DIST_HELP = (f"plateau of the target curve that (a, b) is fitted to, in "
                  f"[0, {MIN_DIST_MAX:g}] (default %(default)s)")


class _Failed(Exception):
    """A stage's failure, already worded as the ``error [stage]: …`` line."""


@contextmanager
def _stage(tag: str, kinds: tuple[type[BaseException], ...] = NAMED_ERRORS):
    """Turn an exception of ``kinds`` raised in the block into ``_Failed``."""
    try:
        yield
    except kinds as exc:
        raise _Failed(f"error [{tag}]: {exc}") from exc


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file; flags take precedence")
    p.add_argument("--seed", type=int, default=42)


def _add_data_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="CSV of points (optional final label column)")
    p.add_argument("--has-labels", action="store_true")
    p.add_argument("--gen", choices=["blobs", "moons"], help="synthetic source")
    p.add_argument("--n", type=int, default=100, help="total points to generate")
    p.add_argument("--std", type=float, default=0.5, help="blob standard deviation")
    p.add_argument("--noise", type=float, default=0.05, help="moons noise level")
    p.add_argument("--clusters", type=int, default=2, help="blob count")
    p.add_argument("--data-dim", type=int, default=2, help="ambient dimension (blobs)")


class _ConfigParser(argparse.ArgumentParser):
    """Parser for a command line with --config values folded in: since the
    command line alone already parsed, any error comes from the file."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="spectramap",
        description="Fuzzy k-NN graph embedding and its spectral test bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic labeled dataset")
    _add_common(g)
    _add_data_source(g)
    g.add_argument("--out", required=True, help="output CSV path")

    e = sub.add_parser("embed", help="run the full embedding pipeline")
    _add_common(e)
    _add_data_source(e)
    e.add_argument("--k", type=int, default=15)
    e.add_argument("--dim", type=int, default=2)
    e.add_argument("--min-dist", type=float, default=DEFAULT_MIN_DIST, help=_MIN_DIST_HELP)
    e.add_argument("--kernel", choices=["cauchy", "gaussian"], default="cauchy")
    e.add_argument("--tau", type=float, default=1.0)
    e.add_argument("--a", type=float, help="override the fitted kernel a")
    e.add_argument("--b", type=float, help="override the fitted kernel b")
    e.add_argument("--epochs", type=int, default=200)
    e.add_argument("--neg", type=int, default=OptimizerConfig.n_neg)
    e.add_argument("--lr", type=float, default=OptimizerConfig.initial_lr)
    e.add_argument("--clip", type=float, default=OptimizerConfig.clip)
    e.add_argument("--eps", type=float, default=OptimizerConfig.eps)
    e.add_argument("--init", choices=["spectral", "random"], default="spectral")
    e.add_argument("--move-other", action="store_true")
    e.add_argument("--samples-per-epoch", type=int)
    e.add_argument("--dump-graph", action="store_true",
                   help="write graph.txt: the vertex count, then one 'i j w' line "
                        "per undirected edge, with i < j and w in .17g")
    e.add_argument("--out-dir", required=True)

    v = sub.add_parser("verify", help="run the spectral-equivalence claim suite")
    _add_common(v)
    v.add_argument("--claims", help="comma-separated claim ids to run, of "
                                     + ", ".join(equivalence.CLAIM_IDS) + " (in run order)")
    v.add_argument("--draws", type=int, default=200_000)
    v.add_argument("--out-dir", required=True)

    f = sub.add_parser("fit-ab", help="fit kernel (a, b) from min-dist")
    _add_common(f)
    f.add_argument("--min-dist", type=float, default=DEFAULT_MIN_DIST, help=_MIN_DIST_HELP)

    return parser


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> argparse.Namespace:
    """Parse argv again with the `key=value` lines of --config placed before
    the command line's own flags, so the flags still win. A file that is not
    UTF-8 text is a ``ParseError``."""
    try:
        text = read_utf8(args.config)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {args.config}: {exc.strerror}") from exc
    tokens = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        where = f"{args.config} line {line_no}"
        if not sep:
            raise ConfigurationError(f"{where}: not key=value: {line!r}")
        if dest in ("command", "config") or not hasattr(args, dest):
            raise ConfigurationError(f"{where}: {args.command} has no setting {key.strip()!r}")
        flag, value = "--" + dest.replace("_", "-"), value.strip()
        if not isinstance(getattr(args, dest), bool):
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            tokens.append(flag)
        elif value.lower() not in ("0", "false", "no"):
            raise ConfigurationError(f"{where}: {key.strip()} takes true or false, got {value!r}")
    return build_parser(_ConfigParser).parse_args(argv[:1] + tokens + argv[1:])


def _make_dataset(args) -> LabeledDataset:
    if args.input:
        return load_csv(args.input, has_labels=args.has_labels)
    dim = 2 if args.gen == "moons" else args.data_dim
    require_addressable(args.n * dim, f"--n ({args.n}) points in {dim} dims")
    if args.gen == "moons":
        return gen_two_moons(args.n, args.noise, args.seed)
    if args.gen == "blobs":
        if args.clusters < 1 or args.data_dim < 1:
            raise ConfigurationError("--clusters and --data-dim must be >= 1")
        if args.n < args.clusters or args.n % args.clusters:
            raise ConfigurationError(
                f"--n ({args.n}) must be a positive multiple of --clusters ({args.clusters})"
            )
        per = args.n // args.clusters
        centers = np.zeros((args.clusters, args.data_dim))
        centers[:, 0] = 10.0 * np.arange(args.clusters)
        return gen_blobs(per, centers, args.std, args.seed)
    raise ConfigurationError("provide --input or --gen {blobs,moons}")


def _effective_config(args) -> dict:
    """Every setting as run.json echoes it. Every float setting must be a
    number, also one the chosen path never reads, so that run.json never
    echoes a NaN setting."""
    nan = [k for k, v in sorted(vars(args).items()) if isinstance(v, float) and math.isnan(v)]
    if nan:
        flags = ", ".join("--" + k.replace("_", "-") for k in nan)
        raise ConfigurationError(f"{flags} must not be NaN")
    return {k: v for k, v in sorted(vars(args).items()) if k != "command"}


def _finite(value):
    """``value`` with each non-finite float in it replaced by its str()."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path: Path, *bodies, indent: int | None = None) -> None:
    """Write each body to ``path`` as strict JSON followed by a newline."""
    path.write_text("".join(json.dumps(_finite(body), indent=indent, allow_nan=False) + "\n"
                            for body in bodies))


def cmd_gen_data(args) -> int:
    with _stage("datasets", NAMED_ERRORS + (OSError,)):
        ds = _make_dataset(args)
    save_csv(ds, args.out)
    print(f"wrote {ds.data.n} points x {ds.data.dim} dims to {args.out}")
    return 0


def _resolve_kernel(args) -> tuple[KernelParams, dict]:
    info = {}
    if args.kernel == "gaussian":
        return KernelParams.gaussian(args.tau), info
    if args.a is not None and args.b is not None:
        return KernelParams.cauchy(args.a, args.b), info
    fit = fit_ab(args.min_dist)
    info = {"fitted_a": fit.fitted_a, "fitted_b": fit.fitted_b,
            "fit_rmse": fit.fit_rmse}
    a = args.a if args.a is not None else fit.fitted_a
    b = args.b if args.b is not None else fit.fitted_b
    return KernelParams.cauchy(a, b), info


def cmd_embed(args) -> int:
    with _stage("datasets", NAMED_ERRORS + (OSError,)):
        ds = _make_dataset(args)
    with _stage("kernel"):
        kernel, fit_info = _resolve_kernel(args)
    with _stage("optimizer"):
        cfg = OptimizerConfig(
            n_epochs=args.epochs,
            n_neg=args.neg,
            initial_lr=args.lr,
            clip=args.clip,
            eps=args.eps,
            seed=args.seed,
            move_other=args.move_other,
            samples_per_epoch=args.samples_per_epoch,
        )
    with _stage("config"):
        config = _effective_config(args)
    with _stage(f"graph, k={args.k}"):
        knn = knn_search(ds.data, args.k)
        calibration = smooth_knn_params(knn)
        V = symmetrize(directed_weights(knn, calibration))
    sol = None
    with _stage(f"optimizer, init={args.init}"):
        if args.init == "spectral":
            sol = spectral_init(V, args.dim)
            Y0 = spectral_embedding(sol)
        else:
            Y0 = random_embedding(V.n, args.dim, args.seed)
        result = optimize(V, Y0, kernel, cfg)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    coords = result.embedding.coords
    save_csv(LabeledDataset(DataMatrix(coords), ds.labels), out_dir / "embedding.csv",
             prefix="y")
    # wall times differ run to run, so they stay out of the reproducible outputs
    trace = ({"epoch": rec.epoch, "alpha": rec.alpha,
              **(asdict(rec.loss) if rec.loss is not None else {}),
              **(asdict(rec.stats) if rec.stats is not None else {})} for rec in result.trace)
    _write_json(out_dir / "trace.jsonl", *trace)
    _write_json(out_dir / "timing.json", {"epoch_wall_s": [r.wall_s for r in result.trace[1:]]})
    svg_scatter(coords, ds.labels, out_dir / "scatter.svg")
    if args.dump_graph:
        V.save_edge_list(out_dir / "graph.txt")

    deg = V.degrees()
    report = {
        "config": config,
        "kernel": {"family": kernel.family, "a": kernel.a, "b": kernel.b,
                   "tau": kernel.tau, **fit_info},
        "n": ds.data.n,
        "graph_nnz": V.nnz,
        "graph": {"components": V.components[0],
                  "degree_min": float(deg.min()), "degree_max": float(deg.max())},
        "knn": {"exact_evals": knn.exact_evals},
        "calibration": {"flagged_rows": int(calibration.flagged.sum()),
                        "max_residual": float(calibration.residual.max())},
        "self_collisions": result.self_collisions,
        "initial_total": result.trace[0].loss.total,
        "initial_total_se": result.trace[0].loss.repel_se,
        "final_total": result.trace[-1].loss.total,
        "final_total_se": result.trace[-1].loss.repel_se,
    }
    if sol is not None:
        report["spectral"] = {"values": sol.values.tolist(), "n_null": sol.n_null,
                              "residual": sol.residual, "rounds": sol.rounds,
                              "matvecs": sol.matvecs, "block_width": sol.block_width}
    _write_json(out_dir / "run.json", report, indent=2)
    print(f"embedded {ds.data.n} points into {coords.shape[1]} dims; "
          f"outputs in {out_dir}")
    return 0


def cmd_verify(args) -> int:
    claims = None if args.claims is None else args.claims.split(",")
    with _stage("verify"):
        result = equivalence.run_suite(
            master_seed=args.seed,
            claims=claims,
            n_draws=args.draws,
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = [{"claim": r.claim, "residual": r.residual, "tolerance": r.tolerance,
                "passed": r.passed, "context": r.context} for r in result.reports]
    _write_json(out_dir / "report.json", {"all_passed": result.all_passed, "reports": reports},
                indent=2)
    table = equivalence.format_table(result)
    (out_dir / "report.txt").write_text(table + "\n")
    # as for embed, wall times stay out of the reproducible reports
    _write_json(out_dir / "timing.json", {"import_s": result.import_s,
                                          "claim_wall_s": result.claim_wall_s})
    print(table)
    if not result.all_passed:
        failed = [r.claim for r in result.reports if not r.passed]
        print(f"FAILED claims: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_fit_ab(args) -> int:
    with _stage("kernel"):
        fit = fit_ab(args.min_dist)
    print(f"min_dist={fit.min_dist} a={fit.fitted_a:.6f} b={fit.fitted_b:.6f} "
          f"rmse={fit.fit_rmse:.6e}")
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "embed": cmd_embed,
    "verify": cmd_verify,
    "fit-ab": cmd_fit_ab,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        with _stage("config"):
            if args.config:
                args = _apply_config_file(args, argv)
            if args.seed < 0:
                # numpy's generators take only non-negative seeds
                raise ConfigurationError("--seed must be >= 0")
        # every input is read inside a command's own stage, so an OSError
        # that reaches here came from writing an output
        with _stage("output", (OSError,)):
            return COMMANDS[args.command](args)
    except _Failed as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
