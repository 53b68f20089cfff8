"""Benchmark workloads and the check of each job's output against a reference.

A reference holds the part of a command's output that does not depend on
the seed: per-degree tables and verdicts, bit strings, check outcomes and
their details, and the exit code. Random grid parameters (``u``/``v``) and
timings are left out, so one reference serves every workload seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# verify-paper checks 2, 8 and 10 fail by design: each reference value is
# contradicted by independent routes. Their FAIL is the expected outcome.
VERIFY_FAILS_BY_DESIGN = (2, 8, 10)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # CLI arguments; the workload seed is appended as --seed

    @property
    def command(self) -> str:
        return self.argv[0]

    def reference(self) -> dict:
        with open(os.path.join(REFERENCE_DIR, self.name + ".json")) as fh:
            return json.load(fh)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wlp-5x5-d10",
            ("wlp", "--a", "5", "--b", "5", "--d", "10", "--format", "json"),
        ),
        Workload(
            "bx-3x6-d8",
            ("bx", "--a", "3", "--b", "6", "--dmax", "8", "--format", "json"),
        ),
        Workload(
            "verify-a3",
            ("verify-paper", "--a-max", "3", "--format", "json"),
        ),
    )
}

# Trivial inputs of the same three commands, for the harness self-check.
TINY = {
    w.name: w
    for w in (
        Workload("tiny-wlp", ("wlp", "--a", "3", "--b", "3", "--d", "4", "--format", "json")),
        Workload("tiny-bx", ("bx", "--a", "3", "--b", "4", "--dmax", "3", "--format", "json")),
        Workload("tiny-verify", ("verify-paper", "--rational", "--format", "json")),
    )
}


def project(command: str, exit_code: int, stdout: str) -> dict:
    """The seed-independent part of one job's result."""
    lines = stdout.strip().splitlines()
    payload = json.loads(lines[-1]) if lines else {}
    if command == "wlp":
        out = {k: payload[k] for k in ("d", "prime", "trials", "degrees", "verdict", "failing")}
        out["grid"] = {k: payload["grid"][k] for k in ("a", "b")}
    elif command == "bx":
        out = {k: payload[k] for k in ("a", "b", "dmax", "bits", "conjectural_d")}
    elif command == "verify-paper":
        out = {
            "passed": payload["passed"],
            "checks": [
                {k: c[k] for k in ("index", "name", "passed", "details")}
                for c in payload["checks"]
            ],
        }
    else:
        raise ValueError(f"no projection for command {command!r}")
    out["exit"] = exit_code
    return out


def check_output(workload: Workload, exit_code: int, stdout: str):
    """None when the job's output matches the reference, else the reason."""
    try:
        got = project(workload.command, exit_code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output ({type(exc).__name__}: {exc})"
    want = workload.reference()
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"output differs from the reference in {diff}"
    if workload.command == "verify-paper" and "--rational" not in workload.argv:
        fails = tuple(c["index"] for c in got["checks"] if not c["passed"])
        if fails != VERIFY_FAILS_BY_DESIGN:
            return f"failing checks {fails}, expected exactly {VERIFY_FAILS_BY_DESIGN}"
    return None
