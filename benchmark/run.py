"""Benchmark of the spectramap CLI on three workloads.

    python3 benchmark/run.py --workload blobs-hd --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each operation is a fresh ``spectramap embed`` or ``spectramap
verify`` process, one at a time, with BLAS threads limited to the number of
usable CPUs. Operations repeat until ``--seconds`` have passed (and each
input variant has run once); times are medians over the operations.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates the
same CLI process with a traced run (benchmark/traced.py) and prints the
per-layer metrics, the share of run_s per module and each span's self time.
The last line of stdout is the JSON result; the lines before it record the
environment and, when tracing, the layer split.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans
from checks import Ledger
from workloads import CLAIM_IDS, WORKLOADS, Input, Workload, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # every run ends within 180 s
SETUP_REPS = 5
MIN_VERIFY_OPS = 3
MIN_TRACED_PAIRS = 2
VERIFY_SEED, VERIFY_DRAWS = 42, 200_000  # the CLI's defaults
EIG_RESIDUAL_TOL = 1e-8
MODULES = ("datasets", "kernels", "knn", "fuzzy", "spectra", "optim", "losses",
           "svgplot", "equivalence", "cli")

COMPUTED_COUNTS = ("knn.dist_evals", "optim.samples", "losses.pair_evals")

SETUP_EMBED = (
    "import sys, spectramap; "
    "spectramap.load_csv(sys.argv[1], has_labels=True); spectramap.fit_ab(0.1)"
)
SETUP_VERIFY = "import spectramap"


@dataclass
class Proc:
    wall: float
    rss_mb: float
    rc: int


class Runner:
    """Starts one child process at a time and reaps it with wait4."""

    def __init__(self, work: Path, start: float):
        self.work = work
        self.deadline = start + DEADLINE_S
        self.threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep),
            OPENBLAS_NUM_THREADS=self.threads,
            OMP_NUM_THREADS=self.threads,
            MKL_NUM_THREADS=self.threads,
            PYTHONHASHSEED="0",
        )

    def run(self, argv: list[str]) -> Proc:
        with open(self.work / "stderr.txt", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable] + argv, cwd=ROOT, env=self.env,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(max(1.0, self.deadline - time.perf_counter()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode)

    def stderr_text(self) -> str:
        path = self.work / "stderr.txt"
        return path.read_text(errors="replace") if path.exists() else ""

    def cli(self, args: list[str]) -> Proc:
        return self.run(["-m", "spectramap.cli"] + args)


def environment(threads: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(threads), "commit": commit, "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def mean(values: list[float]) -> float:
    return float(statistics.fmean(values)) if values else float("nan")


def embed_op(runner: Runner, w: Workload, inp: Input, out: Path, ledger: Ledger) -> tuple[Proc, np.ndarray | None, dict]:
    proc = runner.cli(w.embed.cli_args(inp.path, out, inp.seed))
    problems, coords, report = checks.check_embed_outputs(
        proc.rc, out, len(inp.labels), checks.fuzzy_graph_nnz(inp.points)
    )
    ledger.record(problems)
    return proc, coords, report


def verify_op(runner: Runner, ledger: Ledger) -> Proc:
    out = runner.work / "verify"
    proc = runner.cli(["verify", "--out-dir", str(out)])
    problems, ops, failed = checks.check_verify_report(proc.rc, out)
    ledger.record(problems, ops, failed)
    return proc


def untraced(w: Workload, inputs: list[Input], seconds: float, runner: Runner, ledger: Ledger) -> dict:
    """End-to-end metrics with tracing off."""
    setup_argv = ["-c", SETUP_VERIFY] if w.main == "verify" else ["-c", SETUP_EMBED, str(inputs[0].path)]
    runner.run(setup_argv)  # compiles bytecode and warms the file cache; not counted
    setup = []
    for _ in range(SETUP_REPS):
        proc = runner.run(setup_argv)
        ledger.record([] if proc.rc == 0 else [f"setup exited {proc.rc}"])
        setup.append(proc.wall)

    embedded: dict[int, np.ndarray] = {}  # variant -> embedding of its first run
    procs: list[Proc] = []
    t_end = time.perf_counter() + seconds
    if w.main == "embed":
        while len(procs) < len(inputs) or time.perf_counter() < t_end:
            v = len(procs) % len(inputs)
            proc, coords, _ = embed_op(runner, w, inputs[v], runner.work / f"out-{v}", ledger)
            procs.append(proc)
            if coords is not None:
                embedded.setdefault(v, coords)
    else:
        while len(procs) < MIN_VERIFY_OPS or time.perf_counter() < t_end:
            procs.append(verify_op(runner, ledger))
        for v, inp in enumerate(inputs):
            _, coords, _ = embed_op(runner, w, inp, runner.work / f"probe-{v}", ledger)
            if coords is not None:
                embedded[v] = coords

    recall = [checks.knn_recall(inputs[v].points, c) for v, c in embedded.items()]
    purity = [checks.label_purity(inputs[v].labels, c) for v, c in embedded.items()]
    print(f"operations: {len(procs)} timed processes, run_s samples "
          f"{[round(p.wall, 4) for p in procs]}")
    return {
        "run_s": median([p.wall for p in procs]),
        "setup_s": median(setup),
        "peak_rss_mb": median([p.rss_mb for p in procs]),
        "knn_recall": mean(recall),
        "label_purity": mean(purity),
        "pass_frac": ledger.pass_frac,
    }


@dataclass
class Traced:
    """One traced run, reduced to what the per-layer metrics need."""

    layer: dict[str, float]  # per-layer values of this run
    top: dict[str, float]  # pipeline steps (children of the root span) -> seconds
    self_s: dict[str, float]  # span name -> self time
    wall: float  # traced process wall time without its probe section
    run_s: float  # wall time of the untraced CLI run it is paired with


def traced_run(runner: Runner, argv: list[str], tag: str, run_s: float, ledger: Ledger,
               problems_of) -> Traced | None:
    out = runner.work / f"spans-{tag}.json"
    proc = runner.run([str(BENCH / "traced.py")] + argv + ["--out", str(out)])
    if proc.rc != 0:
        ledger.record([f"traced run exited {proc.rc}"])
        return None
    recorded, values = spans.load(out)
    ledger.record(problems_of(values))

    durations: dict[str, list[float]] = {}
    for s in recorded:
        durations.setdefault(s.name, []).append(s.end - s.start)
    layer = {f"{name}_s": sum(d) for name, d in durations.items() if name not in ("run", "probe")}
    if "losses.trace_one_s" in layer:
        layer["losses.trace_s"] = layer.pop("losses.trace_one_s")
    layer.update({k: v for k, v in values.items() if "." in k and isinstance(v, (int, float))})
    if "optim.samples" in layer:
        layer["optim.samples_per_s"] = layer["optim.samples"] / layer["optim.sgd_s"]
        layer["optim.collision_frac"] = layer["optim.self_collisions"] / layer.pop("optim.negative_draws")

    self_s: dict[str, float] = {}
    for s, t in zip(recorded, spans.self_times(recorded)):
        self_s[s.name] = self_s.get(s.name, 0.0) + t
    probe = sum(durations.get("probe", []))
    top = {s.name: s.end - s.start for s in spans.top_level(recorded, "run")}
    return Traced(layer, top, self_s, proc.wall - probe, run_s)


def embed_problems(w: Workload, report: dict):
    def problems(values: dict) -> list[str]:
        found = []
        if values["knn.mismatch_rows"] != 0:
            found.append("knn_search differs from cKDTree" if values["knn.mismatch_rows"] > 0
                         else "input is not tie-free")
        if not values["spectra.eig_residual"] <= EIG_RESIDUAL_TOL:
            found.append(f"spectra.eig_residual {values['spectra.eig_residual']:.3e} > {EIG_RESIDUAL_TOL:g}")
        if w.require_connected and values["fuzzy.components"] != 1:
            found.append(f"fuzzy graph has {values['fuzzy.components']} components, expected 1")
        for key, traced_key in (("n", "n"), ("graph_nnz", "fuzzy.nnz")):
            if report.get(key) != values[traced_key]:
                found.append(f"run.json {key}={report.get(key)}, traced run {values[traced_key]}")
        return found
    return problems


def verify_problems(values: dict) -> list[str]:
    found = [f"claim {c} missing from traced suite" for c in CLAIM_IDS if c not in values["claims"]]
    if values["equivalence.reports_failed"]:
        found.append(f"{values['equivalence.reports_failed']} traced claim reports failed")
    return found


def traced_embed_argv(w: Workload, inp: Input, out: Path, runner: Runner) -> list[str]:
    """The CLI run's own flags plus the number of loss evaluations it made."""
    return w.embed.cli_args(inp.path, runner.work / "traced", inp.seed) + [
        "--trace-calls", str(loss_evaluations(out))]


TRACED_VERIFY_ARGV = ["verify", "--claims", ",".join(CLAIM_IDS),
                      "--seed", str(VERIFY_SEED), "--draws", str(VERIFY_DRAWS)]


def loss_evaluations(out: Path) -> int:
    """Loss evaluations the CLI run made: its trace.jsonl lines carrying a loss."""
    with (out / "trace.jsonl").open() as fh:
        return sum("total" in json.loads(line) for line in fh)


def traced(w: Workload, inputs: list[Input], seconds: float, runner: Runner, ledger: Ledger) -> dict:
    """Per-layer metrics: each untraced CLI run is followed by a traced run of
    the same input. The workload's other kind of operation is traced once as
    a companion, so that every layer has a measurement on every workload."""
    runs: list[Traced] = []
    t_end = time.perf_counter() + seconds
    while len(runs) < MIN_TRACED_PAIRS or time.perf_counter() < t_end:
        i = len(runs)
        if w.main == "embed":
            inp = inputs[i % len(inputs)]
            out = runner.work / f"out-{i % len(inputs)}"
            proc, _, report = embed_op(runner, w, inp, out, ledger)
            if proc.rc != 0:
                break
            t = traced_run(runner, traced_embed_argv(w, inp, out, runner), str(i),
                           proc.wall, ledger, embed_problems(w, report))
        else:
            proc = verify_op(runner, ledger)
            t = traced_run(runner, TRACED_VERIFY_ARGV, str(i), proc.wall, ledger, verify_problems)
        if t is None:
            break
        runs.append(t)

    if w.main == "embed":
        companion = traced_run(runner, TRACED_VERIFY_ARGV, "companion", float("nan"), ledger,
                               verify_problems)
    else:
        out = runner.work / "probe"
        proc, _, report = embed_op(runner, w, inputs[0], out, ledger)
        companion = None
        if proc.rc == 0:
            companion = traced_run(runner, traced_embed_argv(w, inputs[0], out, runner),
                                   "companion", proc.wall, ledger, embed_problems(w, report))

    layer: dict[str, float] = {}
    for key in {k for t in runs for k in t.layer}:
        layer[key] = median([t.layer[key] for t in runs if key in t.layer])
    for key, value in (companion.layer if companion else {}).items():
        layer.setdefault(key, value)
    layer["cli.unattributed_s"] = median([t.run_s - sum(t.top.values()) for t in runs])
    layer["trace.overhead_s"] = median([t.wall - t.run_s for t in runs])
    split = {m: median([module_share(t, m) for t in runs]) for m in MODULES}
    layer.update({f"split.{m}": share for m, share in split.items()})

    print(f"layer split ({w.name}, share of run_s {median([t.run_s for t in runs]):.4f} s, "
          f"{len(runs)} traced runs): " + json.dumps({m: round(v, 4) for m, v in split.items()}))
    print("computed counts, derived from input sizes and configuration: " + ", ".join(COMPUTED_COUNTS))
    for name in sorted({n for t in runs for n in t.self_s}):
        vals = [t.self_s[name] for t in runs if name in t.self_s]
        print(f"  self {name:<28} {median(vals):10.5f} s")
    return layer


def module_share(t: Traced, module: str) -> float:
    """Share of the untraced run's wall time spent in one module's steps; the
    cli share includes the time no step accounts for."""
    busy = sum(d for name, d in t.top.items() if name.split(".")[0] == module)
    if module == "cli":
        busy += t.run_s - sum(t.top.values())
    return busy / t.run_s


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spectramap" / "cli.py").is_file():
        print(f"error: no spectramap sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    w = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, time.perf_counter())
        print("environment: " + json.dumps(environment(runner.threads)))
        inputs = write_inputs(w, args.seed, work)
        ledger = Ledger()
        measure = traced if args.trace else untraced
        values = measure(w, inputs, args.seconds, runner, ledger)
        stderr_tail = "\n".join(runner.stderr_text().splitlines()[-20:])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    metrics = {}
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        value = values.get(m["name"], float("nan"))
        if not math.isfinite(value):
            ledger.record([f"{m['name']} was not measured"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for problem in ledger.problems:
        print(f"check failed: {problem}")
    if ledger.problems and stderr_tail:
        print("stderr of the child processes ends with:\n" + stderr_tail)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
