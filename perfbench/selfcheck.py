"""Self-check of the benchmark harness at trivial sizes (a few seconds).

    python3 perfbench/selfcheck.py

Runs the harness on trivial inputs of the three benchmarked commands, with
and without tracing, and asserts that every metric BENCHMARK.json names is
printed with its unit, that every per-layer metric has a pairing in
pairings.json, and that the output check rejects corrupted outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import run
from workloads import TINY, check_output

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _printed(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, workloads=TINY)
    text = buf.getvalue()
    assert code == 0, f"harness failed on {argv}:\n{text}"
    return text, json.loads(text.strip().splitlines()[-1])


def check_metrics_printed():
    for name in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            text, result = _printed(
                ["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            )
            assert result["correct"] and result["failed"] == 0, result
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))}"
            lines = text.splitlines()
            for metric, unit in want.items():
                assert any(
                    line.split()[:1] == [metric] and unit in line.split()[1:] for line in lines
                ), f"{metric} [{unit}] not printed for {name} trace={trace}"
            assert any(line.startswith("error_rate") for line in lines)


def check_pairings():
    with open(os.path.join(run.HERE, "pairings.json")) as fh:
        pairings = json.load(fh)["pairings"]
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    assert set(pairings) == per_layer, sorted(set(pairings) ^ per_layer)
    workloads = {w["name"] for w in BENCH["workloads"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for name, pairing in pairings.items():
        for entry in pairing["moves"] + pairing["unchanged"]:
            workload, metric = entry.split()
            assert workload in workloads and metric in e2e, (name, entry)


def _corruptions(command, stdout, code):
    """(label, exit code, stdout) variants that a correct check must reject."""
    lines = stdout.strip().splitlines()
    payload = json.loads(lines[-1])
    out = [("exit code", code + 1, stdout)]
    if command == "wlp":
        payload["verdict"] = not payload["verdict"]
        out.append(("flipped verdict", code, json.dumps(payload)))
    elif command == "bx":
        bits = payload["bits"]
        payload["bits"] = bits[:-1] + ("1" if bits[-1] == "0" else "0")
        out.append(("flipped bit", code, json.dumps(payload)))
    else:
        payload["checks"][0]["passed"] = not payload["checks"][0]["passed"]
        out.append(("flipped check outcome", code, json.dumps(payload)))
    out.append(("truncated output", code, stdout[: len(stdout) // 2]))
    return out


def check_verifier_rejects_corruption():
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        for workload in TINY.values():
            job = run.spawn(list(workload.argv) + ["--seed", "5"], tmp, workload.name)
            with open(os.path.join(tmp, workload.name + ".out")) as fh:
                stdout = fh.read()
            assert check_output(workload, job.exit_code, stdout) is None
            for label, code, text in _corruptions(workload.command, stdout, job.exit_code):
                assert check_output(workload, code, text) is not None, (workload.name, label)


def main():
    os.makedirs(run.RESULTS, exist_ok=True)
    check_pairings()
    check_verifier_rejects_corruption()
    check_metrics_printed()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
