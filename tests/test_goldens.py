"""Byte-for-byte goldens of the CLI on explicit grid parameters.

Each case runs one command in-process and compares its output with the file
of the same name in tests/data/. The files were written by an earlier version
of the package, so a change in how a map or a Hilbert function is measured
must leave every byte of these outputs as it was. The verify-paper cases
compare everything but the timings: each check's seconds and the total.

To rewrite the files after an intended change of output:

    PYTHONPATH=src python tests/test_goldens.py
"""

from pathlib import Path

import json
import re

import pytest

from gridwlp.cli import main

DATA = Path(__file__).resolve().parent / "data"

P33 = ("--a", "3", "--b", "3", "--params", "u=1,2,3;v=1,2,3")
P34 = ("--a", "3", "--b", "4", "--params", "u=1,2,3;v=1,2,3,4")
P44 = ("--a", "4", "--b", "4", "--params", "u=1,2,3,4;v=1,2,3,5")
P55 = ("--a", "5", "--b", "5", "--params", "u=1,2,3,4,5;v=1,2,3,4,6")

CASES = {
    "wlp-3x3-d3.json": ("wlp", *P33, "--d", "3", "--format", "json"),
    "wlp-3x4-d4.json": ("wlp", *P34, "--d", "4", "--format", "json"),
    "wlp-4x4-d6.json": ("wlp", *P44, "--d", "6", "--format", "json"),
    "wlp-5x5-d8.json": ("wlp", *P55, "--d", "8", "--format", "json"),
    "wlp-3x3-d3-rational.json": ("wlp", *P33, "--d", "3", "--rational", "--format", "json"),
    "wlp-3x4-d3-p10007.csv": ("wlp", *P34, "--d", "3", "--prime", "10007", "--format", "csv"),
    "nll-3x3-d4-chord.json": ("nll", *P33, "--d", "4", "--locus", "chord:1,2;2,1", "--format", "json"),
    "nll-3x3-d4-ruling.json": ("nll", *P33, "--d", "4", "--locus", "ruling:lambda,1", "--format", "json"),
    "nll-3x3-d6-plane.json": ("nll", *P33, "--d", "6", "--locus", "plane:1,1", "--format", "json"),
    "coker-3x3-d4-t5.json": ("coker", *P33, "--d", "4", "--t", "5", "--format", "json"),
    "coker-4x4-d3-t4.json": ("coker", *P44, "--d", "3", "--t", "4", "--format", "json"),
    "bx-3x4-dmax5.json": ("bx", *P34, "--dmax", "5", "--format", "json"),
    "hf-4x4-d6.csv": ("hf", *P44, "--d", "6", "--format", "csv"),
    "hf-5x5-d8.json": ("hf", *P55, "--d", "8", "--format", "json"),
    "hf-3x4-d4.txt": ("hf", *P34, "--d", "4"),
    "hf-3x4-d3-tmax20.txt": ("hf", *P34, "--d", "3", "--tmax", "20"),
    "hf-3x3-d1-tmax6.csv": ("hf", *P33, "--d", "1", "--tmax", "6", "--format", "csv"),
    "hf-3x3-d3-rational.json": ("hf", *P33, "--d", "3", "--rational", "--format", "json"),
    "hf-3x4-d4-rational.txt": ("hf", *P34, "--d", "4", "--rational"),
}

# name -> (argv, exit code); checks 2, 8 and 10 fail by design
VERIFY_CASES = {
    "verify-a3.txt": (("verify-paper", "--a-max", "3", "--format", "json"), 2),
    "verify-rational.txt": (("verify-paper", "--rational", "--format", "json"), 0),
}


def _untimed(out):
    """verify-paper output without the seconds of each check and the total."""
    lines = []
    for line in out.splitlines():
        if line.startswith("{"):
            payload = json.loads(line)
            for check in payload["checks"]:
                del check["seconds"]
            line = json.dumps(payload)
        else:
            line = re.sub(r" +\((total )?[ 0-9.]+s\)$", "", line)
        lines.append(line + "\n")
    return "".join(lines)


def _run(argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert _run(CASES[name], capsys) == (DATA / name).read_text()


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_paper_matches_golden(name, capsys):
    argv, code = VERIFY_CASES[name]
    assert main(list(argv)) == code
    assert _untimed(capsys.readouterr().out) == (DATA / name).read_text()


if __name__ == "__main__":
    import contextlib
    import io

    DATA.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0, argv
        (DATA / name).write_text(buf.getvalue())
        print(f"wrote {DATA / name}")
    for name, (argv, code) in sorted(VERIFY_CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == code, argv
        (DATA / name).write_text(_untimed(buf.getvalue()))
        print(f"wrote {DATA / name}")
