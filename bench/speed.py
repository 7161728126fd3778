"""The host's current speed, read from a fixed piece of interpreter work.

On a shared host a core runs the same Python code up to 2x slower while a
neighbour is busy, for seconds to minutes at a time, and CPU time grows with
it. `probe()` times a fixed loop of dict, string and list operations. The
benchmark runs it right before and right after every timed `otkit` call and
reads each call in probe units: its CPU time over the mean of the two probes
beside it. A reading in probe units times `PROBE_S` is a time in reference
seconds, at the speed at which one probe takes `PROBE_S`.

This module imports only `time`, so the set-up probe can load it before its
clock starts without loading anything `otkit` needs.
"""

import time

# CPU seconds of one probe at full speed on the machine the benchmark was
# built on (2 vCPUs, Intel Xeon at 2.1 GHz, Python 3.11.7): the 1st
# percentile of 3768 probes, 3.41 ms, rounded. Only a scale: comparisons
# between two versions of otkit on one host do not depend on it.
PROBE_S = 0.0034


def probe() -> float:
    """CPU seconds of one fixed loop of interpreter work."""
    t0 = time.process_time()
    counts: dict[str, int] = {}
    parts = []
    for i in range(12000):
        key = "k%d" % (i % 300)
        counts[key] = counts.get(key, 0) + 1
        parts.append(key.upper())
    "".join(parts)
    return time.process_time() - t0


def in_reference_seconds(cpu_s: float, before_s: float, after_s: float) -> float:
    """A CPU time read between two probes, rescaled to the reference speed."""
    return cpu_s / ((before_s + after_s) / 2) * PROBE_S
