"""otkit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload prep|romanize|eval|lm --seed N --seconds S --trace 0|1

Run it from the repository root. It writes the workload's inputs from the
seed under `.bench_work/` and starts one fresh worker process that runs the
workload's `otkit.cli.run` calls closed-loop, one thread, for S seconds and
checks every output (see worker.py). Before and after the worker it times a
cold `import otkit.cli` plus the workload's loaders in fresh interpreters
(setup_probe.py). With `--trace 1` it reports the per-layer metrics of a
traced run instead, and writes the spans to `.bench_out/`.

Both timings are read in reference seconds (see speed.py): every timed call
and every set-up sits between two runs of a fixed speed probe, and its CPU
time is divided by theirs and multiplied by the probe's CPU time at full
speed. On the machine the benchmark was built on, the cores slow down by up
to 2x as a neighbour on the host comes and goes, for seconds to minutes at
a time, and a run may never see full speed; the rescaled times move far less
with it, and their medians are reported.

It prints each metric with its unit and sample count, then, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 10  # before the worker, and as many again after it
TIMEOUT_S = 150


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _python(script: str, args: list[str]) -> str:
    """Run a script of the benchmark in a fresh interpreter; return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        capture_output=True, text=True, env=_env(), timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().split("\n")[-1]


def _prepare(plan: dict) -> None:
    """Build model files the workload reads, with the documented `lm-train`."""
    if not plan["prepare"]:
        return
    sys.path.insert(0, "src")
    from otkit import cli

    for argv in plan["prepare"]:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        if code != 0:
            raise RuntimeError(f"cannot prepare inputs: otkit {' '.join(argv)}")


def setup_seconds(plan: dict) -> list[tuple[float, float]]:
    """Reference and CPU seconds of a cold set-up, once per fresh interpreter."""
    args = [x for pair in plan["setup"] for x in pair]
    _python("setup_probe.py", args)  # untimed: leaves byte-compiled modules behind, as an install would
    samples = []
    for _ in range(SETUP_SAMPLES):
        ref, cpu = _python("setup_probe.py", args).split()
        samples.append((float(ref), float(cpu)))
    return samples


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "otkit" / "cli.py").is_file():
        print("bench: no src/otkit in the current directory; run from the repository root",
              file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = inputs.build(args.workload, args.seed, work.relative_to(root), root)
        _prepare(plan)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan, ensure_ascii=False), "utf-8")
        setup = [] if args.trace else setup_seconds(plan)
        worker_args = ["--plan", str(plan_path), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            worker_args += ["--spans", str(root / ".bench_out" / f"spans-{args.workload}.tsv")]
        result = json.loads(_python("worker.py", worker_args))
        setup += [] if args.trace else setup_seconds(plan)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted, failed = result["attempted"], result["failed"]
    top1, gold = result["top1"]
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 process, 1 thread, "
          f"{result['items_per_pass']} items per pass")
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(result["layers"].items())}
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    else:
        rates = result["rates"]
        setup_ref = statistics.median(ref for ref, _ in setup)
        setup_cpu = [cpu for _, cpu in setup]
        metrics = {
            "items_per_s": {"value": result["rate"], "unit": "1/s"},
            "setup_s": {"value": setup_ref, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  items_per_s   {result['rate']:12.2f} 1/s  sum over {result['calls_per_pass']} calls of the median "
              f"of {len(rates)} timed passes after 1 warm-up, reference seconds (raw CPU time: each call's "
              f"fastest {result['items_per_pass'] / result['fastest_s']:.2f}, median whole pass "
              f"{statistics.median(rates):.2f})")
        print(f"  setup_s       {setup_ref:12.4f} s    median of {len(setup)} cold interpreters, reference seconds "
              f"(raw CPU time: fastest {min(setup_cpu):.4f}, median {statistics.median(setup_cpu):.4f})")
        print(f"  peak_rss_mb   {result['peak_rss_mb']:12.1f} MB   1 worker process")
    print(f"  error_rate    {failed / attempted:12.4f}      {failed} of {attempted} items failed")
    if gold:
        print(f"  top1_acc      {top1 / gold:12.4f}      {top1} of {gold} gold words")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
