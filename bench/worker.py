"""One benchmark process: runs a workload's `otkit.cli.run` calls in a loop.

    python3 bench/worker.py --plan PLAN.json --seconds S --trace 0|1

It is started fresh for every run, so its peak RSS is the workload's own.
It makes one warm-up pass, then closed-loop passes (one thread, each call
after the previous one returns) until the timed calls add up to S seconds.
Every pass's outputs are checked item by item. With `--trace 1` it measures
S/2 seconds untraced and S/2 traced and reports the per-layer metrics. It
prints one JSON object.

Each call's CPU time (`time.process_time`) is read between two speed
probes (`speed.py`) and rescaled to the reference speed. The run's figure is
the items of one pass over the sum, across the calls, of each call's median
rescaled time: on a shared host whose cores slow down by up to 2x for
seconds to minutes at a time, a call and the probes beside it slow down
together, so the median does not depend on how much of the run was slow.
Passes alternate between the cores the process may use.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import speed

# Passes alternate between the cores this process may run on, so a run
# samples every core: on the host the benchmark was built on they slow down
# largely independently of each other.
CPUS = sorted(os.sched_getaffinity(0))


class Runner:
    """Runs passes over the plan's calls and checks every output."""

    def __init__(self, plan: dict):
        from otkit import cli

        self.cli = cli
        self.calls = plan["calls"]
        self.stdin = [Path(c["stdin"]).read_text("utf-8") if "stdin" in c else "" for c in self.calls]
        self.items_per_pass = sum(c["items"] for c in self.calls)
        self.attempted = self.failed = 0
        self.top1 = [0, 0]
        self._verified: dict[int, tuple[bytes, int]] = {}

    def _invoke(self, argv: list[str], stdin: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(stdin)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.run(argv)
            except Exception as exc:  # a traceback fails the call's items, not the run
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, tracer=None) -> tuple[float, list[float], list[float]]:
        """One pass; returns the wall seconds spent inside cli.run, and per
        call its CPU seconds and the same in reference seconds. The wall
        time only decides how long a run lasts."""
        wall = 0.0
        cpu: list[float] = []
        ref: list[float] = []
        results = []
        before = speed.probe()
        for call, stdin in zip(self.calls, self.stdin):
            if tracer is not None:
                tracer.enabled = True
            w0, c0 = time.perf_counter(), time.process_time()
            result = self._invoke(call["argv"], stdin)
            cpu.append(time.process_time() - c0)
            wall += time.perf_counter() - w0
            if tracer is not None:
                tracer.enabled = False
            after = speed.probe()
            ref.append(speed.in_reference_seconds(cpu[-1], before, after))
            before = after
            results.append(result)
        for i, (call, (code, out, err)) in enumerate(zip(self.calls, results)):
            failed, extra = self._check(i, call, code, out, err)
            self.attempted += call["items"]
            self.failed += failed
            if "gold" in extra:
                self.top1[0] += extra["top1"]
                self.top1[1] += extra["gold"]
        return wall, cpu, ref

    def _check(self, i: int, call: dict, code: int, out: str, err: str) -> tuple[int, dict]:
        if call["check"]["kind"] != "lm_model":
            return checks.check(call, code, out, err)
        # The load/re-save round trip is slow; repeat it only if the file changed.
        data = Path(call["check"]["path"]).read_bytes() if code == 0 else b""
        cached = self._verified.get(i)
        if cached is None or cached[0] != data:
            cached = (data, checks.check(call, code, out, err)[0])
            self._verified[i] = cached
        return cached[1], {}

    def measure(self, seconds: float, tracer=None) -> dict:
        """Passes until the timed calls add up to `seconds` of wall time (at
        least three, unless that takes four times as long). `rate` is the
        items of a pass over the sum of each call's median time in reference
        seconds; `rates` are whole-pass rates on raw CPU time and `fastest_s`
        the sum of each call's least raw CPU time, both only printed."""
        cpu_passes: list[list[float]] = []
        ref_passes: list[list[float]] = []
        total = 0.0
        start = time.perf_counter()
        while total < seconds or (len(cpu_passes) < 3 and time.perf_counter() - start < 4 * seconds):
            os.sched_setaffinity(0, {CPUS[len(cpu_passes) % len(CPUS)]})
            wall, cpu, ref = self.run_pass(tracer)
            total += wall
            cpu_passes.append(cpu)
            ref_passes.append(ref)
        os.sched_setaffinity(0, CPUS)
        ref_s = sum(statistics.median(column) for column in zip(*ref_passes))
        return {"rate": self.items_per_pass / max(ref_s, 1e-9),
                "fastest_s": sum(min(column) for column in zip(*cpu_passes)),
                "rates": [self.items_per_pass / max(sum(cpu), 1e-9) for cpu in cpu_passes],
                "total_s": total}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", default=None, help="where to write the traced spans")
    args = ap.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text("utf-8"))

    runner = Runner(plan)
    runner.run_pass()  # warm-up
    window = args.seconds / 2 if args.trace else args.seconds
    report = {"items_per_pass": runner.items_per_pass, "calls_per_pass": len(runner.calls),
              **runner.measure(window)}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        top1_before = list(runner.top1)
        traced = runner.measure(window, tracer)
        tracer.uninstall()
        if args.spans:
            tracer.write_spans(Path(args.spans))
        top1 = (runner.top1[0] - top1_before[0], runner.top1[1] - top1_before[1])
        layers = tracing.layer_metrics(tracer, len(traced["rates"]), traced["total_s"], top1)
        layers["trace.overhead_ratio"] = (1 - traced["rate"] / report["rate"], "ratio")
        report["layers"] = layers
    report.update(
        attempted=runner.attempted,
        failed=runner.failed,
        top1=runner.top1,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, "src")
    sys.exit(main(sys.argv[1:]))
