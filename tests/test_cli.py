import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import spectramap as sm
from spectramap import equivalence, losses
from spectramap.cli import build_parser, main
from spectramap.errors import EigensolverError
from spectramap.kernels import DEFAULT_MIN_DIST
from spectramap.spectra import BLOCK_EXTRA, FILTER_DEGREE

from conftest import negated_laplacian_quadratic, read_edge_list


def run_cli(*args):
    return main([str(a) for a in args])


def run_child(code, *options, **env):
    """Run ``python *options -c code`` against this package in a fresh
    process, with the variables ``env`` added to its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(sm.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, *options, "-c", code], capture_output=True,
                          text=True, env=env)


def strict_json(text):
    """``json.loads(text)``, failing on the non-JSON constants ``NaN``,
    ``Infinity`` and ``-Infinity``."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def run_main_child(args, *options, **env):
    """``cli.main(args)`` in a fresh process, its return value the exit code."""
    args = [str(a) for a in args]
    return run_child(f"import sys, spectramap.cli; sys.exit(spectramap.cli.main({args!r}))",
                     *options, **env)


class TestGenData:
    def test_blobs_round_trip(self, tmp_path):
        out = tmp_path / "blobs.csv"
        assert run_cli("gen-data", "--gen", "blobs", "--n", 40, "--out", out) == 0
        ds = sm.load_csv(out, has_labels=True)
        assert ds.data.n == 40
        assert set(ds.labels.tolist()) == {0, 1}

    def test_moons(self, tmp_path):
        out = tmp_path / "moons.csv"
        assert run_cli("gen-data", "--gen", "moons", "--n", 30, "--out", out) == 0
        ds = sm.load_csv(out, has_labels=True)
        assert ds.data.n == 30

    @pytest.mark.parametrize("flags", [
        ("--gen", "blobs", "--std", -1),
        (),
        ("--gen", "blobs", "--clusters", 0),
        ("--gen", "blobs", "--data-dim", 0),
        ("--gen", "blobs", "--n", 3, "--clusters", 4),
        ("--gen", "blobs", "--n", -5),
        ("--gen", "moons", "--noise", "nan"),
        ("--gen", "blobs", "--std", "nan"),
        ("--gen", "blobs", "--n", 41, "--clusters", 2),
    ])
    def test_bad_source_is_a_named_error(self, tmp_path, capsys, flags):
        out = tmp_path / "data.csv"
        assert run_cli("gen-data", *flags, "--out", out) == 2
        assert "error [datasets]" in capsys.readouterr().err
        assert not out.exists()

    def test_uneven_blob_count_names_both_values(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("embed", "--gen", "blobs", "--n", 41, "--clusters", 2,
                       "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert "error [datasets]" in err and "41" in err and "2" in err
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("command", [["gen-data", "--out", "{out}"],
                                         ["embed", "--has-labels", "--out-dir", "{out}"]])
    def test_undecodable_csv_names_the_file(self, tmp_path, command):
        csv = tmp_path / "latin1.csv"
        csv.write_bytes(b"x0,label\n1.0,0\n2.0,1\n3.0,0\xff\n")
        out = tmp_path / "out"
        child = run_main_child([command[0], "--input", csv,
                                *(str(a).format(out=out) for a in command[1:])])
        assert child.returncode == 2
        assert child.stderr == f"error [datasets]: {csv}: not UTF-8 text: byte 0xff at offset 26\n"
        assert not out.exists()

    def test_missing_output_directory_is_a_named_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run_cli("gen-data", "--gen", "moons", "--out", out) == 2
        assert "error [output]" in capsys.readouterr().err


class TestEmbed:
    def _embed(self, tmp_path, *extra):
        out = tmp_path / "run"
        code = run_cli(
            "embed", "--gen", "blobs", "--n", 60, "--k", 8, "--epochs", 20,
            "--out-dir", out, *extra,
        )
        return code, out

    def test_outputs_and_shapes(self, tmp_path):
        code, out = self._embed(tmp_path)
        assert code == 0
        emb = sm.load_csv(out / "embedding.csv", has_labels=True)
        assert emb.data.n == 60 and emb.data.dim == 2
        assert (out / "trace.jsonl").exists()
        assert (out / "run.json").exists()
        report = json.loads((out / "run.json").read_text())
        assert report["final_total"] < report["initial_total"]
        graph = report["graph"]
        assert graph["components"] >= 1
        assert 0.0 < graph["degree_min"] <= graph["degree_max"]
        spectral = report["spectral"]
        assert len(spectral["values"]) == 2
        assert spectral["values"] == sorted(spectral["values"])
        assert spectral["n_null"] == graph["components"]
        assert 0.0 <= spectral["residual"] <= 1e-8
        # no eigenvalue repeats, so the block keeps its width; each round
        # makes one product, and each but the last FILTER_DEGREE - 1 more
        assert spectral["block_width"] == 2 + BLOCK_EXTRA
        assert spectral["matvecs"] == 1 + (spectral["rounds"] - 1) * FILTER_DEGREE

    def test_svg_well_formed_one_marker_per_point(self, tmp_path):
        code, out = self._embed(tmp_path)
        assert code == 0
        tree = ET.parse(out / "scatter.svg")
        circles = tree.getroot().findall(
            ".//{http://www.w3.org/2000/svg}circle"
        )
        assert len(circles) == 60

    def test_one_dimensional_layout(self, tmp_path):
        code, out = self._embed(tmp_path, "--dim", 1)
        assert code == 0
        assert json.loads((out / "run.json").read_text())["n"] == 60
        circles = ET.parse(out / "scatter.svg").getroot().findall(
            ".//{http://www.w3.org/2000/svg}circle"
        )
        # drawn along the x axis: every point at y = 0, the frame's bottom edge
        assert {c.get("cy") for c in circles} == {"440.00"}

    def test_run_json_explains_graph_stage(self, tmp_path):
        data = tmp_path / "blobs.csv"
        assert run_cli("gen-data", "--gen", "blobs", "--n", 80, "--data-dim", 3,
                       "--out", data) == 0
        out = tmp_path / "run"
        assert run_cli("embed", "--input", data, "--has-labels", "--k", 9,
                       "--epochs", 2, "--out-dir", out) == 0
        report = json.loads((out / "run.json").read_text())
        knn = sm.knn_search(sm.load_csv(data, has_labels=True).data, 9)
        params = sm.smooth_knn_params(knn)
        assert report["knn"] == {"exact_evals": knn.exact_evals}
        assert 80 * 9 <= knn.exact_evals < 80 * 79
        assert report["calibration"] == {
            "flagged_rows": int(params.flagged.sum()),
            "max_residual": float(params.residual.max()),
        }

    def test_random_init_runs_identical(self, tmp_path):
        out = tmp_path / "run"
        args = (
            "embed", "--gen", "blobs", "--n", 40, "--k", 6, "--epochs", 5,
            "--init", "random", "--seed", 7, "--out-dir", out,
        )
        assert run_cli(*args) == 0
        assert "spectral" not in json.loads((out / "run.json").read_text())
        names = ("embedding.csv", "trace.jsonl", "scatter.svg", "run.json")
        first = {name: (out / name).read_bytes() for name in names}
        assert run_cli(*args) == 0
        for name in names:
            assert (out / name).read_bytes() == first[name]

    def test_sgd_defaults_are_the_optimizer_config(self):
        args = build_parser().parse_args(["embed", "--gen", "moons", "--out-dir", "x"])
        cfg = sm.OptimizerConfig(args.epochs)
        assert (args.neg, args.lr, args.clip, args.eps) == (
            cfg.n_neg, cfg.initial_lr, cfg.clip, cfg.eps)

    def test_min_dist_default_is_the_kernel_default(self):
        """``embed``, ``fit-ab`` and verify's fitted kernel share one min-dist."""
        embed = build_parser().parse_args(["embed", "--gen", "moons", "--out-dir", "x"])
        fit = build_parser().parse_args(["fit-ab"])
        assert embed.min_dist == fit.min_dist == DEFAULT_MIN_DIST == 0.1

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="with one usable CPU, BLAS runs one thread and splits no sum")
    def test_losses_independent_of_blas_threads(self, tmp_path):
        # 17,802 stored edges: a BLAS ddot splits a sum this long across its
        # threads, in a thread-count-dependent order
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            args = ["embed", "--gen", "moons", "--n", 1000, "--epochs", 1, "--seed", 3,
                    "--out-dir", out]
            assert run_main_child(args, OPENBLAS_NUM_THREADS=threads).returncode == 0
            report = json.loads((out / "run.json").read_text())
            del report["config"]["out_dir"]
            outputs.append(((out / "trace.jsonl").read_bytes(), report))
        assert outputs[0] == outputs[1]

    def test_gaussian_trace_matches_quadratic_form(self, tmp_path):
        code, out = self._embed(
            tmp_path, "--kernel", "gaussian", "--tau", "1.0", "--n", 50,
        )
        assert code == 0
        records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        # the full loss is evaluated on the first and the final layout only
        assert ["total" in rec for rec in records] == [True] + [False] * (len(records) - 2) + [True]
        for rec in (records[0], records[-1]):
            assert rec["laplacian_form"] == pytest.approx(
                rec["attract"], rel=1e-10
            )

    def test_no_all_pairs_sum(self, tmp_path, monkeypatch):
        """``embed`` sums no n^2 pairs: with the all-pairs row sums broken
        it still runs, and its endpoint totals carry a sampling error."""
        def all_pairs(*args):
            raise AssertionError("embed summed all pairs")

        monkeypatch.setattr(losses, "repel_row_sums", all_pairs)
        code, out = self._embed(tmp_path)
        assert code == 0
        report = json.loads((out / "run.json").read_text())
        assert report["initial_total_se"] > 0.0 and report["final_total_se"] > 0.0

    def test_dump_graph(self, tmp_path):
        code, out = self._embed(tmp_path, "--dump-graph")
        assert code == 0
        # the run's own graph: 60 points of two blobs, k = 8, the default seed
        data = sm.gen_blobs(30, [(0, 0), (10, 0)], 0.5, 42).data
        V = sm.build_similarity_graph(data, 8)
        n, *edges = read_edge_list(out / "graph.txt")
        assert n == V.n == 60
        for got, want in zip(edges, V.edges()):
            assert np.array_equal(got, want)

    def test_csv_input(self, tmp_path):
        data = tmp_path / "in.csv"
        ds = sm.gen_blobs(20, [(0, 0), (8, 0)], 0.5, 3)
        sm.save_csv(ds, data)
        out = tmp_path / "run"
        code = run_cli(
            "embed", "--input", data, "--has-labels", "--k", 5,
            "--epochs", 5, "--out-dir", out,
        )
        assert code == 0
        emb = sm.load_csv(out / "embedding.csv", has_labels=True)
        assert np.array_equal(emb.labels, ds.labels)

    def test_epoch_stats_and_timing(self, tmp_path):
        code, out = self._embed(tmp_path)
        assert code == 0
        records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        assert len(records) == 21
        # the endpoints carry the full loss, every later line its epoch's
        # stats, and no line a wall time
        loss_keys = ["total", "attract", "repel", "laplacian_form", "taylor_bound", "repel_se"]
        stats_keys = ["waves", "self_collisions", "clip_frac", "step_loss_mean", "step_loss_se"]
        assert list(records[0]) == ["epoch", "alpha", *loss_keys]
        assert all(list(rec) == ["epoch", "alpha", *stats_keys] for rec in records[1:-1])
        assert list(records[-1]) == ["epoch", "alpha", *loss_keys, *stats_keys]
        assert [rec["epoch"] for rec in records] == list(range(21))
        for rec in records[1:]:
            assert rec["waves"] >= 1
            assert 0.0 <= rec["clip_frac"] <= 1.0
            assert rec["step_loss_se"] > 0.0 and np.isfinite(rec["step_loss_mean"])
        report = json.loads((out / "run.json").read_text())
        assert sum(rec["self_collisions"] for rec in records[1:]) == report["self_collisions"]
        timing = json.loads((out / "timing.json").read_text())
        assert len(timing["epoch_wall_s"]) == 20
        assert all(t > 0.0 for t in timing["epoch_wall_s"])

    @pytest.mark.parametrize("flags, module", [
        (("--min-dist", 5), "kernel"),
        (("--kernel", "gaussian", "--tau", -1), "kernel"),
        (("--epochs", 0), "optimizer"),
        (("--lr", 0), "optimizer"),
        (("--lr", "nan"), "optimizer"),
        (("--lr", "inf"), "optimizer"),
        (("--clip", "nan"), "optimizer"),
        (("--eps", "nan"), "optimizer"),
        (("--a", "nan"), "kernel"),
        (("--a", "inf", "--b", 1), "kernel"),
        (("--b", "nan"), "kernel"),
        (("--kernel", "gaussian", "--tau", "nan"), "kernel"),
        (("--kernel", "gaussian", "--tau", "inf"), "kernel"),
        # NaN settings the chosen path never reads
        (("--tau", "nan"), "config"),
        (("--kernel", "gaussian", "--a", "nan"), "config"),
        (("--kernel", "gaussian", "--b", "nan"), "config"),
        (("--kernel", "gaussian", "--min-dist", "nan"), "config"),
        (("--min-dist", "nan", "--a", 1, "--b", 1), "config"),
        (("--noise", "nan"), "config"),
        (("--gen", "moons", "--std", "nan"), "config"),
        # at eps = inf every repulsive step would become an attractive one
        (("--eps", "inf"), "optimizer"),
    ])
    def test_bad_setting_is_a_named_error(self, tmp_path, capsys, flags, module):
        code, out = self._embed(tmp_path, *flags)
        assert code == 2
        assert f"error [{module}]" in capsys.readouterr().err
        assert not (out / "run.json").exists()

    def test_rejected_run_leaves_no_out_dir(self, tmp_path):
        code, out = self._embed(tmp_path, "--lr", "nan")
        assert code == 2
        assert not out.exists()

    def test_unbounded_clip_cuts_nothing(self, tmp_path):
        code, out = self._embed(tmp_path, "--clip", "inf", "--epochs", 2)
        assert code == 0
        records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        assert [rec["clip_frac"] for rec in records[1:]] == [0.0, 0.0]

    @pytest.mark.parametrize("flags, key, value", [
        (("--clip", "inf", "--epochs", 2), "clip", "inf"),
        # the cauchy kernel never reads tau
        (("--tau", "inf", "--epochs", 2), "tau", "inf"),
    ])
    def test_infinite_setting_is_strict_json(self, tmp_path, flags, key, value):
        code, out = self._embed(tmp_path, *flags)
        assert code == 0
        report = strict_json((out / "run.json").read_text())
        assert report["config"][key] == value

    def test_infinite_bound_is_strict_json(self, tmp_path):
        # at a = 1e300 the curvature bound on the first-order gap overflows
        out = tmp_path / "run"
        assert run_cli("embed", "--gen", "moons", "--n", 30, "--k", 5, "--epochs", 1,
                       "--a", 1e300, "--b", 1, "--out-dir", out) == 0
        records = [strict_json(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        assert [rec["taylor_bound"] for rec in records] == ["inf", "inf"]
        assert strict_json((out / "run.json").read_text())["config"]["a"] == 1e300
        assert len(strict_json((out / "timing.json").read_text())["epoch_wall_s"]) == 1

    @pytest.mark.parametrize("flags", [
        # finite coordinates whose squared distances overflow
        ("--lr", "1e300"),
        # finite step losses whose standard error overflows
        ("--kernel", "gaussian", "--tau", "1e-300"),
    ])
    def test_non_finite_loss_is_an_optimizer_error(self, tmp_path, flags):
        # a fresh process: in this one numpy's overflow warning is an error,
        # which would hide a run that exits 0
        args = ["embed", "--gen", "moons", "--n", "40", "--k", "5", "--epochs", "3",
                *flags, "--out-dir", str(tmp_path)]
        out = run_child(f"import sys, spectramap.cli; sys.exit(spectramap.cli.main({args!r}))")
        assert out.returncode == 2
        # the named error alone: the overflow it reports prints no numpy warning
        assert re.fullmatch(r"error \[optimizer, init=spectral\]: non-finite .* at epoch \d+\n",
                            out.stderr)
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("flags", [
        ("--tau", "0.01"),
        ("--tau", "0.001"),
        ("--tau", "0.01", "--init", "random"),
    ])
    def test_far_gaussian_pairs_warn_nothing(self, tmp_path, flags):
        # with tau this small most negative pairs overflow expm1 in the
        # repulsive gradient, whose limit there is exactly 0
        out = run_main_child(["embed", "--gen", "blobs", "--n", 60, "--k", 5, "--kernel",
                              "gaussian", *flags, "--epochs", 3, "--out-dir", tmp_path],
                             "-W", "error")
        assert out.returncode == 0
        assert out.stderr == ""

    def test_out_dir_that_is_a_file_is_a_named_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli("embed", "--gen", "blobs", "--n", 20, "--k", 5,
                       "--out-dir", taken) == 2
        assert "error [output]" in capsys.readouterr().err
        assert taken.read_text() == ""

    def test_bad_k_reports_module(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            "embed", "--gen", "blobs", "--n", 10, "--k", 10, "--out-dir", out
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "graph" in err and "k=10" in err


class TestVerify:
    def test_default_claims_pass(self, tmp_path):
        out = tmp_path / "verify"
        code = run_cli("verify", "--draws", 20000, "--out-dir", out)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert (out / "report.txt").exists()

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="with one usable CPU, BLAS runs one thread and splits no sum")
    def test_reports_independent_of_blas_threads(self, tmp_path):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert run_main_child(["verify", "--out-dir", out],
                                  OPENBLAS_NUM_THREADS=threads).returncode == 0
            outputs.append([(out / name).read_bytes() for name in ("report.json", "report.txt")])
        assert outputs[0] == outputs[1]

    def test_claim_filter_runs_single_claim(self, tmp_path):
        out = tmp_path / "verify"
        code = run_cli("verify", "--claims", "lemmaA1", "--out-dir", out)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert {r["claim"] for r in report["reports"]} == {"lemmaA1"}

    def test_timing_holds_each_claim_run(self, tmp_path):
        out = tmp_path / "verify"
        claims = ["thm3.1a", "lemmaA1"]
        assert run_cli("verify", "--claims", ",".join(claims), "--out-dir", out) == 0
        wall = json.loads((out / "timing.json").read_text())["claim_wall_s"]
        assert sorted(wall) == sorted(claims)
        assert all(t > 0.0 for t in wall.values())
        assert "wall" not in (out / "report.json").read_text()

    def test_scipy_imports_precede_each_claims_clock(self, tmp_path):
        """``run_suite`` imports a claim's scipy modules before its clock
        starts and ``timing.json`` books that time as ``import_s``: holding
        the first import, thm3.1a read 0.14-0.27 s and a3_relaxation
        0.06-0.18 s, against 7-9 and 23-49 ms without it.
        ``scipy.linalg`` waits for a3_relaxation, so its ~8 MB stay out of
        eq13_montecarlo's peak."""
        out = tmp_path / "verify"
        child = run_child(
            "import sys\nfrom spectramap import cli, equivalence\n"
            "def probe(claim, run):\n"
            "    def first(rng, n_draws):\n"
            "        print(claim, [m for m in ('scipy.sparse', 'scipy.linalg') "
            "if m in sys.modules])\n"
            "        return run(rng, n_draws)\n"
            "    return first\n"
            "equivalence.CLAIM_REGISTRY = tuple((claim, key, probe(claim, run)) "
            "for claim, key, run in equivalence.CLAIM_REGISTRY)\n"
            f"sys.exit(cli.main(['verify', '--draws', '2000', '--out-dir', {str(out)!r}]))")
        assert child.returncode == 0
        claims = list(equivalence.CLAIM_IDS)
        loaded = {claim: ["scipy.sparse"] for claim in claims}
        loaded["a3_relaxation"].append("scipy.linalg")
        assert child.stdout.splitlines()[:len(claims)] == [f"{c} {loaded[c]}" for c in claims]
        timing = strict_json((out / "timing.json").read_text())
        assert list(timing) == ["import_s", "claim_wall_s"]
        assert timing["import_s"] > 0.0 and list(timing["claim_wall_s"]) == claims

    def test_non_finite_residual_is_strict_json(self, tmp_path, capsys, monkeypatch):
        """A claim whose measurement is not finite fails as a claim, and its
        report still parses as strict JSON."""
        monkeypatch.setattr(equivalence, "step_losses",
                            lambda Y, anchors, *rest: np.full(anchors.size, np.inf))
        out = tmp_path / "verify"
        with np.errstate(invalid="ignore"):  # inf - inf in the spread of the draws
            code = run_cli("verify", "--claims", "eq13_montecarlo", "--draws", 1000,
                           "--out-dir", out)
        assert code == 1
        assert "FAILED claims: eq13_montecarlo" in capsys.readouterr().err
        report = strict_json((out / "report.json").read_text())
        [claim] = report["reports"]
        assert (claim["residual"], claim["passed"]) == ("nan", False)
        assert claim["context"]["monte_carlo"] == "inf"
        strict_json((out / "timing.json").read_text())

    def test_biased_step_losses_fail_eq13(self, tmp_path, capsys, monkeypatch):
        """eq13_montecarlo catches step losses biased by 1% at ``--seed 42``
        and the default 200,000 draws: residual 10.1 against the tolerance 3.
        The draws' relative standard error is 9.0e-4, and the unbiased mean
        sits 0.89 of one below the closed form, so the smallest bias caught
        here is about 4 standard errors: +0.35% passes (residual 2.98), +0.4%
        fails (3.53)."""
        step_losses = equivalence.step_losses
        monkeypatch.setattr(equivalence, "step_losses",
                            lambda *args: step_losses(*args) * 1.01)
        out = tmp_path / "verify"
        code = run_cli("verify", "--claims", "eq13_montecarlo", "--seed", 42,
                       "--out-dir", out)
        assert code == 1
        assert "FAILED claims: eq13_montecarlo" in capsys.readouterr().err
        [claim] = json.loads((out / "report.json").read_text())["reports"]
        assert claim["context"]["n_draws"] == 200_000
        assert claim["residual"] > claim["tolerance"] == 3.0

    def test_sabotage_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(losses, "laplacian_quadratic", negated_laplacian_quadratic)
        out = tmp_path / "verify"
        code = run_cli("verify", "--claims", "thm3.1a", "--out-dir", out)
        assert code == 1
        assert "thm3.1a" in capsys.readouterr().err

    def test_unknown_claim_leaves_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "verify"
        assert run_cli("verify", "--claims", "nope", "--out-dir", out) == 2
        assert "error [verify]" in capsys.readouterr().err
        assert not out.exists()
        # an empty selection is no selection: it neither passes nor runs all
        assert run_cli("verify", "--claims", "", "--out-dir", out) == 2
        assert "error [verify]: unknown claim ids: ['']" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_claim_lists_the_valid_ids_in_run_order(self, tmp_path, capsys):
        assert run_cli("verify", "--claims", "lemmaA1,lemmaB2", "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err == (
            "error [verify]: unknown claim ids: ['lemmaB2']; valid ids: "
            + ", ".join(equivalence.CLAIM_IDS) + "\n")
        with pytest.raises(SystemExit):
            run_cli("verify", "--help")
        assert ", ".join(equivalence.CLAIM_IDS) in " ".join(capsys.readouterr().out.split())

    def test_single_draw_is_a_named_error(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = run_cli(
            "verify", "--claims", "eq13_montecarlo", "--draws", 1, "--out-dir", out,
        )
        assert code == 2
        assert "error [verify]" in capsys.readouterr().err

    def test_verify_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("verify", "--draws", 20000, "--out-dir", out) == 0
            outs.append(out)
        assert (outs[0] / "report.json").read_bytes() == (
            outs[1] / "report.json"
        ).read_bytes()


class TestFitAb:
    def test_prints_values(self, capsys):
        assert run_cli("fit-ab", "--min-dist", "0.1") == 0
        out = capsys.readouterr().out
        assert "a=1.57" in out and "b=0.89" in out and "rmse=" in out

    def test_out_of_range_is_a_named_error(self, capsys):
        assert run_cli("fit-ab", "--min-dist", "5") == 2
        assert "error [kernel]" in capsys.readouterr().err

    def test_zero_min_dist(self, capsys):
        assert run_cli("fit-ab", "--min-dist", "0.0") == 0
        out = capsys.readouterr().out
        assert "a=1.93" in out


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min-dist=0.5\n")
        assert run_cli("fit-ab", "--config", cfg) == 0
        out1 = capsys.readouterr().out
        assert "min_dist=0.5" in out1
        # explicit flag beats the file
        assert run_cli("fit-ab", "--config", cfg, "--min-dist", "0.1") == 0
        out2 = capsys.readouterr().out
        assert "min_dist=0.1" in out2

    def test_config_applies_to_embed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=3\nk=6\n")
        out = tmp_path / "run"
        code = run_cli(
            "embed", "--gen", "blobs", "--n", 40, "--config", cfg,
            "--out-dir", out,
        )
        assert code == 0
        report = json.loads((out / "run.json").read_text())
        assert report["config"]["epochs"] == 3
        assert report["config"]["k"] == 6

    @pytest.mark.parametrize("text", ["k=abc\n", "epochs 3\n", "bogus_key=1\n",
                                      "move-other=maybe\n", None])
    def test_bad_config_is_a_named_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "run"
        code = run_cli("embed", "--gen", "blobs", "--n", 40, "--config", cfg,
                       "--out-dir", out)
        assert code == 2
        assert "error [config]" in capsys.readouterr().err
        assert not out.exists()

    def test_switch_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nmove-other=yes\nn=50\nepochs=2\n")
        out = tmp_path / "run"
        code = run_cli("embed", "--gen", "blobs", "--config", cfg, "--n", 40,
                       "--out-dir", out)
        assert code == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config["move_other"] is True
        assert config["n"] == 40 and config["epochs"] == 2


class TestCsvOutput:
    @pytest.mark.parametrize("command, prefix", [("gen-data", "x"), ("embed", "y")])
    def test_format(self, tmp_path, command, prefix):
        """Both CSV outputs come from one writer: a ``{prefix}0,...,label``
        header, Unix line endings, and every float as its shortest repr."""
        if command == "gen-data":
            path = tmp_path / "data.csv"
            args = ("--data-dim", 3, "--out", path)
        else:
            path = tmp_path / "embedding.csv"
            args = ("--k", 5, "--epochs", 2, "--dim", 3, "--out-dir", tmp_path)
        assert run_cli(command, "--gen", "blobs", "--n", 20, *args) == 0
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        header, *rows = raw.decode().split("\n")[:-1]
        assert header == f"{prefix}0,{prefix}1,{prefix}2,label"
        assert len(rows) == 20
        for row in rows:
            *floats, label = row.split(",")
            assert len(floats) == 3
            assert all(repr(float(cell)) == cell for cell in floats)
            assert label in ("0", "1")


@pytest.mark.parametrize("command", [
    ["verify", "--out-dir", "{out}"],
    ["gen-data", "--gen", "moons", "--n", 20, "--out", "{out}"],
    ["embed", "--gen", "moons", "--n", 40, "--k", 5, "--out-dir", "{out}"],
    ["embed", "--input", "{csv}", "--k", 5, "--epochs", 2, "--out-dir", "{out}"],
    ["embed", "--config", "{config}", "--gen", "moons", "--n", 40, "--k", 5,
     "--out-dir", "{out}"],
])
def test_negative_seed_is_a_config_error(tmp_path, command):
    csv = tmp_path / "points.csv"
    sm.save_csv(sm.gen_two_moons(40, 0.05, 0), csv)
    config = tmp_path / "seed.conf"
    config.write_text("seed=-1\n")
    out = tmp_path / "out"
    args = [str(a).format(out=out, csv=csv, config=config) for a in command]
    if "--config" not in args:
        args += ["--seed", "-1"]
    child = run_main_child(args)
    assert child.returncode == 2
    assert "error [config]: --seed must be >= 0" in child.stderr
    assert "Traceback" not in child.stderr
    assert not out.exists()


MOONS = ["--gen", "moons", "--n", 40]
EMBED_ONE_EPOCH = ["--gen", "moons", "--n", 60, "--k", 5, "--epochs", 1]


@pytest.mark.parametrize("command, tag", [
    (["embed", *MOONS, "--config", "{config}", "--out-dir", "{out}"], "config"),
    (["fit-ab", "--config", "{csv}"], "config"),
    (["gen-data", "--input", "{csv}", "--out", "{out}"], "datasets"),
    (["fit-ab", "--min-dist", 5], "kernel"),
    (["embed", *MOONS, "--k", 1, "--out-dir", "{out}"], "graph, k=1"),
    (["embed", *MOONS, "--dim", 500, "--out-dir", "{out}"], "optimizer, init=spectral"),
    (["embed", *MOONS, "--k", 5, "--epochs", 3, "--lr", "1e300", "--out-dir", "{out}"],
     "optimizer, init=spectral"),
    (["verify", "--claims", "nope", "--out-dir", "{out}"], "verify"),
    (["embed", *MOONS, "--k", 5, "--epochs", 2, "--out-dir", "{taken}"], "output"),
], ids=["bad-setting", "config-not-utf8", "csv-not-utf8", "min-dist", "k", "dim", "lr",
        "claim", "out-dir-is-file"])
def test_one_failure_route(tmp_path, command, tag):
    """Every stage fails the same way: exit 2, ``error [tag]: …`` as the last
    line of stderr, no traceback or warning, and no output path created."""
    csv = tmp_path / "latin1.csv"
    csv.write_bytes(b"x0,x1\n1.0,2.0\n3.0,4.0\n5.0,\xff6.0\n")
    config = tmp_path / "bad.conf"
    config.write_text("k=abc\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    out = tmp_path / "out"
    child = run_main_child([str(a).format(out=out, csv=csv, config=config, taken=taken)
                            for a in command])
    assert child.returncode == 2
    assert child.stderr.splitlines()[-1].startswith(f"error [{tag}]: ")
    assert "Traceback" not in child.stderr and "Warning" not in child.stderr
    assert not out.exists()
    assert taken.is_file() and taken.read_text() == ""


def test_cli_import_loads_no_scipy_solvers(tmp_path):
    """``scipy.linalg`` and the sparse solver modules cost about 0.2 s per
    process to import; neither importing the CLI nor a small ``embed``, whose
    spectral start takes the same block solver as a large one, loads them."""
    heavy = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")
    embed = ["embed", "--gen", "blobs", "--n", "60", "--k", "5", "--epochs", "2",
             "--out-dir", str(tmp_path)]
    for run in ("", f"assert spectramap.cli.main({embed!r}) == 0; "):
        out = run_child(f"import spectramap.cli, sys; {run}"
                        f"print([m for m in {heavy!r} if m in sys.modules])")
        assert out.returncode == 0 and out.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("run", [
    "import spectramap",
    "import spectramap.cli",
    "import spectramap.cli; assert spectramap.cli.main(['fit-ab']) == 0",
    "import spectramap.cli; assert spectramap.cli.main(['gen-data', '--gen', 'moons', "
    "'--n', '40', '--out', 'moons.csv']) == 0",
], ids=["package", "cli", "fit-ab", "gen-data"])
def test_graphless_runs_load_no_scipy(tmp_path, monkeypatch, run):
    """``scipy.sparse`` costs about 0.2 s per process to import, so the
    package imports it only where it first builds a sparse matrix: a process
    that builds no graph loads no scipy module."""
    monkeypatch.chdir(tmp_path)
    out = run_child(f"import sys; {run}; "
                    "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert out.returncode == 0 and out.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("run, loaded", [
    ("import spectramap", []),
    # the benchmark's setup line for an embed workload
    ("import spectramap; spectramap.load_csv('moons.csv', has_labels=True); "
     "spectramap.fit_ab(0.1)",
     ["numpy", "spectramap.datasets", "spectramap.errors", "spectramap.kernels"]),
], ids=["package", "setup-line"])
def test_entry_point_import_footprint(tmp_path, monkeypatch, run, loaded):
    """The package imports a module when one of its names is first read:
    ``import spectramap`` loads no numpy and no submodule, and reading
    ``load_csv`` and ``fit_ab`` loads their modules and ``errors``, with no
    graph, solver, SGD, claim or plot module and no scipy."""
    monkeypatch.chdir(tmp_path)
    sm.save_csv(sm.gen_two_moons(40, 0.05, 0), "moons.csv")
    out = run_child(f"import sys; {run}; print(sorted("
                    "{m if m.startswith('spectramap.') else m.split('.')[0] for m in sys.modules "
                    "if m.startswith('spectramap.') or m.split('.')[0] in ('numpy', 'scipy')}))")
    assert out.returncode == 0 and out.stdout.splitlines()[-1] == repr(loaded)


def test_export_table():
    """Each name in ``__all__`` is the object of the module the export table
    names, so a misspelt entry fails here rather than at a caller's first
    read; star import binds every name, and a bare ``import spectramap``
    reaches every submodule as an attribute."""
    for module, names in sm._EXPORTS.items():
        for name in names:
            assert getattr(sm, name) is getattr(getattr(sm, module), name)
    assert set(sm.__all__) | set(sm._EXPORTS) <= set(dir(sm))
    star = {}
    exec("from spectramap import *", star)
    assert set(sm.__all__) <= set(star)
    with pytest.raises(AttributeError, match="has no attribute 'fit_abc'"):
        sm.fit_abc
    submodules = sorted(sm._EXPORTS)
    out = run_child("import spectramap; "
                    f"print([getattr(spectramap, m).__name__ for m in {submodules!r}])")
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == repr([f"spectramap.{m}" for m in submodules])


@pytest.mark.parametrize("command", ["gen-data", "embed"])
def test_oversized_csv_field_is_a_parse_error(tmp_path, command):
    """A field longer than ``csv.field_size_limit()`` ends as ``error
    [datasets]:`` naming the file and line, with no traceback."""
    path = tmp_path / "long.csv"
    path.write_text("x0,x1\n1.0,2.0\n3.0," + "4" * 200_000 + "\n")
    out = tmp_path / "out"
    child = run_main_child([command, "--input", path,
                            "--out" if command == "gen-data" else "--out-dir", out])
    assert child.returncode == 2
    assert child.stderr.splitlines()[-1].startswith(f"error [datasets]: {path}: line 3: ")
    assert "Traceback" not in child.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", [["gen-data", "--out"], ["embed", "--out-dir"]],
                         ids=["gen-data", "embed"])
def test_non_finite_csv_cell_is_a_parse_error(tmp_path, capsys, command):
    """A cell that parses to nan or an infinity is placed by file, row and
    column, as every other bad cell is."""
    path = tmp_path / "nan.csv"
    path.write_text("x0,x1\n1.0,2.0\n3.0,nan\n5.0,6.0\n")
    out = tmp_path / "out"
    assert run_cli(command[0], "--input", path, command[1], out) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error [datasets]: {path}: row 3, column 2: not a finite number: 'nan'"]
    assert not out.exists()


def test_unallocatable_dataset_is_a_named_error(tmp_path):
    """An array too large to allocate ends as ``error [datasets]:``, as in
    ``embed``, with no traceback."""
    out = tmp_path / "x.csv"
    child = run_main_child(["gen-data", "--gen", "moons", "--n", 10**12, "--out", out])
    assert child.returncode == 2
    assert child.stderr.startswith("error [datasets]: Unable to allocate")
    assert "Traceback" not in child.stderr
    assert not out.exists()


def test_unallocatable_draws_are_a_named_error(tmp_path, capsys):
    """``verify --draws`` past the memory fails in its stage with exit 2, not
    with a traceback and the exit code of a failed claim; numpy refuses the
    72.8 TiB request before allocating anything."""
    out = tmp_path / "out"
    code = run_cli("verify", "--claims", "eq13_montecarlo", "--draws", 10**13, "--out-dir", out)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error [verify]: Unable to allocate")
    assert not out.exists()


@pytest.mark.parametrize("command", [["gen-data", "--out"], ["embed", "--out-dir"]])
@pytest.mark.parametrize("flags", [
    ["--gen", "moons", "--n", 10**19],
    ["--gen", "blobs", "--n", 10**10, "--clusters", 10**10, "--data-dim", 10**10],
], ids=["moons", "blobs"])
def test_dataset_past_the_address_space_is_a_named_error(tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    assert run_cli(command[0], *flags, command[1], out) == 2
    assert "error [datasets]: --n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["embed", *EMBED_ONE_EPOCH, "--samples-per-epoch", 2**62],
    ["embed", *EMBED_ONE_EPOCH, "--neg", 2**62, "--samples-per-epoch", 10],
    ["embed", *EMBED_ONE_EPOCH, "--init", "random", "--dim", 2**62],
    ["verify", "--claims", "eq13_montecarlo", "--draws", 2**60],
], ids=["samples", "neg", "random-dim", "draws"])
def test_setting_past_the_address_space_is_a_named_error(tmp_path, capsys, args):
    """Numpy rejects an array past the address space with a bare ValueError;
    the sampler and the random start name the setting instead."""
    out = tmp_path / "out"
    assert run_cli(*args, "--out-dir", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error [")
    assert err[0].endswith("exceed the address space")
    assert not out.exists()


def test_solver_error_in_a_claim_is_not_a_failed_claim(tmp_path, capsys, monkeypatch):
    """``verify`` exits 1 only for a failed claim: a named error raised
    inside a claim ends the run in its stage, with exit 2."""
    def broken(*args):
        raise EigensolverError("solver gave up")

    monkeypatch.setattr(equivalence, "spectral_init", broken)
    out = tmp_path / "out"
    assert run_cli("verify", "--claims", "thm3.1c", "--out-dir", out) == 2
    assert capsys.readouterr().err.splitlines() == ["error [verify]: solver gave up"]
    assert not out.exists()


def test_unnamed_error_propagates(tmp_path, monkeypatch):
    """A stage reports only the package's named errors (and, reading input
    files, ``OSError``); any other is a bug and leaves ``main`` as it is."""
    def broken(*args):
        raise RuntimeError("not a named error")

    monkeypatch.setattr("spectramap.cli.knn_search", broken)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="not a named error"):
        run_cli("embed", *MOONS, "--k", 5, "--out-dir", out)
    assert not out.exists()
