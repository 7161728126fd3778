"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --seeds 1-10 [--out FILE]

Runs `bench/run.py` once per workload of BENCHMARK.json and seed, one run at
a time and for BENCHMARK.json's `run_seconds`, echoes each run's report
(every metric with its unit and sample count), and prints for each metric
the median and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, beside the
metric's bound. With `--out` it also writes every run's values as JSON.
`--seeds 1` runs every workload once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text("utf-8"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    worst = 0.0
    for workload in [w["name"] for w in bench["workloads"]]:
        runs[workload] = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            runs[workload].append({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                                   **{k: v["value"] for k, v in result["metrics"].items()}})
            print("\n".join(proc.stdout.strip().split("\n")[:-1]), flush=True)
        for name, bound in bounds.items():
            values = [r[name] for r in runs[workload]]
            share = spread(values)
            worst = max(worst, share / bound)
            print(f"  {workload:<9} {name:<12} median {statistics.median(values):12.4f}  "
                  f"IQR/median {share:.4f}  bound {bound}  ({len(values)} runs)", flush=True)
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
