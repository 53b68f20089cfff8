"""gridwlp benchmark: time to an exact, checked verdict from the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client. Each job is a fresh interpreter
running one ``gridwlp`` command (``perfbench/job.py``), so the package's
module-level caches start cold, as in every real CLI call; the next job
starts when the previous one has exited. BLAS keeps its default thread
count, which the run record notes. The workload seed reaches the program only
as ``--seed``.

With ``--trace 0`` jobs run back to back for about S seconds (at least one),
and the end-to-end metrics are the medians over the jobs: ``wall_s`` (spawn
to exit), ``setup_s`` (spawn until gridwlp is imported and the command can
start; also sampled by set-up probes), ``cpu_s`` (user + system time of the
job) and ``peak_rss_mb`` (the job's ru_maxrss). With ``--trace 1`` one
untraced and one traced job run, and the per-layer metrics come from the
traced job's spans (see ``layers.py``).

Every job's output is checked against ``reference/<workload>.json``; a
mismatch, crash, unexpected exit code or timeout counts as failed, is
reported on stderr and makes the command exit 1. The last line of standard
output is the JSON result; a summary with quartiles, the error rate and the
run record precede it, and ``results/`` keeps the full record of the run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from layers import COMPUTED, layer_metrics
from workloads import WORKLOADS, check_output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PKG = os.path.join(ROOT, "src", "gridwlp")
JOB = os.path.join(HERE, "job.py")
RESULTS = os.path.join(HERE, "results")

SETUP_PROBES_EACH_SIDE = 8  # before and after the jobs
JOB_TIMEOUT_S = 120.0
POLL_S = 0.005
CLOSURE_TOLERANCE_S = 0.01

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Job:
    """One finished job: its measurements and the outcome of its check."""

    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stamps: dict
    error: str | None


def spawn(argv, tmp, tag, workload=None, spans_path=None) -> Job:
    """Run one job.py process to its end; `argv` empty makes a set-up probe."""
    stamps_path = os.path.join(tmp, f"{tag}.stamps.json")
    out_path = os.path.join(tmp, f"{tag}.out")
    cmd = [sys.executable, JOB, stamps_path] + ([spans_path] if spans_path else []) + ["--"] + argv
    with open(out_path, "w") as out, open(os.path.join(tmp, f"{tag}.err"), "w") as err:
        t0 = _clock()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT)
        deadline = t0 + JOB_TIMEOUT_S
        timed_out = False
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if _clock() > deadline and not timed_out:
                    proc.kill()
                    timed_out = True
                time.sleep(POLL_S)
        finally:
            if not pid:  # interrupted: leave no job behind
                proc.kill()
                os.wait4(proc.pid, 0)
        wall = _clock() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stamps = {}
    if os.path.exists(stamps_path):
        with open(stamps_path) as fh:
            stamps = json.load(fh)
    if timed_out:
        error = f"timed out after {JOB_TIMEOUT_S:.0f} s"
    elif not stamps:
        error = f"exited with code {code} before it was ready"
    elif workload is None:
        error = None if code == 0 else f"set-up probe exited with code {code}"
    else:
        with open(out_path) as fh:
            error = check_output(workload, code, fh.read())
    setup = stamps["ready"] - t0 if stamps else float("nan")
    cpu = usage.ru_utime + usage.ru_stime
    return Job(wall, setup, cpu, usage.ru_maxrss / 1024.0, code, stamps, error)


def run_job(workload, seed, tmp, tag, spans_path=None) -> Job:
    argv = list(workload.argv) + ["--seed", str(seed)]
    job = spawn(argv, tmp, tag, workload, spans_path)
    if job.error:
        with open(os.path.join(tmp, f"{tag}.err")) as fh:
            stderr_tail = fh.read()[-2000:]
        sys.stderr.write(
            f"FAILED job {tag} of {workload.name}: {job.error}\n"
            f"  command: gridwlp {' '.join(argv)}\n{stderr_tail}"
        )
    return job


def summary(values):
    """Median and quartiles of a sample; a single value is all three."""
    vals = sorted(values)
    if len(vals) < 2:
        return {"median": vals[0], "q1": vals[0], "q3": vals[0], "n": len(vals)}
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def _blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_commit():
    """Commit of the checkout read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC_PKG, "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def run_record(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "load_model": "closed loop, 1 client, fresh interpreter per job",
    }


def run_probes(tmp, tag):
    probes = [spawn([], tmp, f"probe-{tag}{k}") for k in range(SETUP_PROBES_EACH_SIDE)]
    bad = [p.error for p in probes if p.error]
    if bad:
        raise SystemExit(f"set-up probe failed: {bad[0]}")
    return probes


def measure(workload, seed, seconds, tmp):
    """Untraced jobs back to back for about `seconds`, at least one, with
    set-up probes before and after them."""
    probes = run_probes(tmp, "before")
    jobs = []
    t_start = _clock()
    while True:
        jobs.append(run_job(workload, seed, tmp, f"job{len(jobs)}"))
        elapsed = _clock() - t_start
        mean_wall = elapsed / len(jobs)
        if elapsed + mean_wall > seconds:
            break
    probes += run_probes(tmp, "after")
    ok = [j for j in jobs if not j.error]
    stats = {}
    if ok:
        stats = {
            "wall_s": summary([j.wall_s for j in ok]),
            "setup_s": summary([p.setup_s for p in probes] + [j.setup_s for j in ok]),
            "cpu_s": summary([j.cpu_s for j in ok]),
            "peak_rss_mb": summary([j.peak_rss_mb for j in ok]),
        }
    metrics = {k: {"value": v["median"], "unit": END_TO_END_UNITS[k]} for k, v in stats.items()}
    return jobs, stats, metrics, {"probes": [asdict(p) for p in probes]}


def measure_traced(workload, seed, tmp, units):
    """One untraced job, then one traced job; per-layer metrics."""
    plain = run_job(workload, seed, tmp, "plain")
    if plain.error:
        return [plain], {}, {}, {}
    spans_path = os.path.join(tmp, "spans.json")
    traced = run_job(workload, seed, tmp, "traced", spans_path)
    jobs = [plain, traced]
    if traced.error:
        return jobs, {}, {}, {}
    with open(spans_path) as fh:
        spans = json.load(fh)
    layer = layer_metrics(spans, traced.stamps["dgemm_gflops"])
    # the matmul rate is measured after the command; it is not tracing cost
    traced_wall = traced.wall_s - traced.stamps["dgemm_s"]
    layer["trace.overhead_s"] = traced_wall - plain.wall_s
    # traced wall = set-up + command + teardown (span dump, interpreter exit);
    # the command's time must be covered by the layers' self times
    self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    command_s = traced.stamps["main_end"] - traced.stamps["ready"]
    residual = command_s - self_total
    closure = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain.wall_s,
        "setup_s": traced.setup_s,
        "self_total_s": self_total,
        "teardown_s": traced_wall - traced.setup_s - command_s,
        "residual_s": residual,
        "holds": abs(residual) <= CLOSURE_TOLERANCE_S,
        "spans": len(spans),
    }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    return jobs, {}, metrics, {"closure": closure}


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None, workloads=WORKLOADS):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so that the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isdir(SRC_PKG):
        raise SystemExit(f"no gridwlp sources at {SRC_PKG}; run from a checkout of the repository")

    workload = workloads[args.workload]
    record = run_record(args)
    os.makedirs(RESULTS, exist_ok=True)
    tmp = os.path.join(RESULTS, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        # the first interpreter in a fresh checkout writes the bytecode cache
        warm = spawn([], tmp, "warmup")
        if warm.error:
            raise SystemExit(f"cannot start a gridwlp job: {warm.error}")
        if args.trace:
            jobs, stats, metrics, extra = measure_traced(workload, args.seed, tmp, per_layer_units())
        else:
            jobs, stats, metrics, extra = measure(workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for j in jobs if j.error)
    correct = failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    full = dict(result, record=record, summary=stats, jobs=[asdict(j) for j in jobs], **extra)
    out_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(full, fh, indent=1)

    print(f"gridwlp benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("record  " + " ".join(f"{k}={v}" for k, v in record.items() if k != "src_sha256"))
    for name, s in stats.items():
        print(f"{name:14s} {s['median']:12.4f} {END_TO_END_UNITS[name]:3s}"
              f"  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
    if args.trace:
        for name, m in metrics.items():
            note = "  (computed from array shapes)" if name in COMPUTED else ""
            print(f"{name:42s} {m['value']:16.6g} {m['unit']}{note}")
        if "closure" in extra:
            c = extra["closure"]
            print(f"traced wall {c['traced_wall_s']:.3f} s = set-up {c['setup_s']:.3f} s"
                  f" + layer self times {c['self_total_s']:.3f} s"
                  f" + teardown {c['teardown_s']:.3f} s + residual {c['residual_s']:.4f} s"
                  f" -> {'holds' if c['holds'] else 'VIOLATED'}")
    print(f"error_rate     {failed / len(jobs):12.4f} 1    ({failed}/{len(jobs)} jobs failed)")
    print(f"results written to {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
