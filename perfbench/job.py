"""One gridwlp CLI job in a fresh interpreter, as the benchmark spawns it.

    python3 perfbench/job.py STAMPS [SPANS] -- [CLI ARGS...]

Imports gridwlp from the checkout's ``src/`` (never from an installed copy),
notes the CLOCK_MONOTONIC time at which the interpreter is ready to run the
command, runs ``gridwlp.cli.main`` and exits with its code. The times go to
the JSON file STAMPS. With SPANS, the public functions of every layer are
traced, the spans are written to SPANS after the command, and a float64
matmul rate is measured last, so that it costs the command nothing. With no
CLI arguments the job stops once it is ready: a set-up probe.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _clock():
    # system-wide clock, comparable with the spawning process
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def dgemm_gflops(n=1024, reps=9):
    """Median float64 matmul rate in GFlop/s over `reps` n x n products."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, y = rng.random((n, n)), rng.random((n, n))
    x @ y
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        x @ y
        rates.append(2.0 * n**3 / (time.perf_counter() - t0) / 1e9)
    return sorted(rates)[reps // 2]


def main(argv):
    sep = argv.index("--")
    stamps_path, spans_path = (argv[:sep] + [None])[:2]
    cli_args = argv[sep + 1:]

    sys.path.insert(0, SRC)
    import gridwlp.cli

    if not os.path.abspath(gridwlp.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gridwlp imported from {gridwlp.cli.__file__}, not from {SRC}")
    recorder = None
    if spans_path:
        import tracer

        recorder = tracer.Tracer()
        tracer.install(recorder)
    stamps = {"ready": _clock()}
    code = 0
    if cli_args:
        code = gridwlp.cli.main(cli_args)
        sys.stdout.flush()
        stamps["main_end"] = _clock()
    if recorder is not None:
        recorder.dump(spans_path)
        t0 = _clock()
        stamps["dgemm_gflops"] = dgemm_gflops()
        stamps["dgemm_s"] = _clock() - t0
    with open(stamps_path, "w") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
