"""One cold set-up: `import otkit.cli` plus the loaders a workload's commands call.

    python3 bench/setup_probe.py [LOADER PATH ...]

Start it in a fresh interpreter with `src` on the path. It imports nothing
but `sys`, `time` and the benchmark's `speed` (which imports only `time`)
before the clock starts, so every module otkit pulls in is counted. LOADER
is one of `load_table`, `load_manifest`, `Lexicon.from_file`,
`ExceptionLexicon.from_file` and `lm.load`; PATH is the file it reads
(ignored by `load_table`). Prints the set-up time in reference seconds
(`speed.py`: rescaled by a speed probe run right before and right after it)
and in CPU seconds.
"""

import sys
import time

import speed

before = speed.probe()
t0 = time.process_time()
import otkit.cli  # noqa: E402,F401
from otkit import ingest, lm, romanizer, scheme  # noqa: E402

LOADERS = {
    "load_table": lambda _: scheme.load_table(),
    "load_manifest": ingest.load_manifest,
    "Lexicon.from_file": romanizer.Lexicon.from_file,
    "ExceptionLexicon.from_file": romanizer.ExceptionLexicon.from_file,
    "lm.load": lm.load,
}
args = sys.argv[1:]
for loader, path in zip(args[::2], args[1::2]):
    LOADERS[loader](path)
cpu = time.process_time() - t0
print(f"{speed.in_reference_seconds(cpu, before, speed.probe()):.9f} {cpu:.9f}")
