"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 benchmark/prove.py --workloads blobs-hd,moons-sgd --seeds 1-10 [--trace 1] [--out F]

For every workload it runs ``benchmark/run.py`` once per seed, one run at a
time, and prints each metric's median, quartiles (``statistics.quantiles``
with n=4) and spread: the distance between the quartiles as a share of the
median, which is what the bound of an end-to-end metric is compared with.
``--out`` writes the table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    table = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in seeds_of(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(declared["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                  f"correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items() if "." not in k),
                  flush=True)
        table[workload] = {name: summary(v) for name, v in values.items()}
        table[workload]["_failed_ops"] = failed
        for name, s in table[workload].items():
            if name.startswith("_") or "." in name:
                continue
            print(f"  {workload:<13} {name:<14} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
