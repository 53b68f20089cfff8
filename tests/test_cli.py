import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridwlp import cli
from gridwlp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_wlp_true_case(capsys):
    code, out, _ = run_cli(capsys, "wlp", "--a", "3", "--b", "3", "--d", "4")
    assert code == 0
    assert "WLP holds" in out


def test_wlp_false_case_json(capsys):
    code, out, _ = run_cli(
        capsys, "wlp", "--a", "3", "--b", "3", "--d", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is False
    assert data["failing"] == [3]


def test_wlp_nonsquare_failure(capsys):
    code, out, _ = run_cli(
        capsys, "wlp", "--a", "3", "--b", "6", "--d", "5", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is False and 6 in data["failing"]


def test_hf_csv_has_delta_minus_11(capsys):
    code, out, _ = run_cli(
        capsys, "hf", "--a", "3", "--b", "6", "--d", "5", "--format", "csv"
    )
    assert code == 0
    assert "6,27,-11" in out.splitlines()


def test_hf_small_power_table(capsys):
    code, out, _ = run_cli(
        capsys, "hf", "--a", "3", "--b", "3", "--d", "2", "--format", "csv"
    )
    rows = [line.split(",") for line in out.splitlines()[1:]]
    dims = [int(r[1]) for r in rows]
    assert dims[:4] == [1, 4, 1, 0]


def test_hf_d4_deltas(capsys):
    code, out, _ = run_cli(
        capsys, "hf", "--a", "3", "--b", "3", "--d", "4", "--format", "json"
    )
    data = json.loads(out)
    delta = {row["t"]: row["delta"] for row in data["rows"]}
    assert delta[4] == 6 and delta[5] == -6


def test_coker_measured_vs_predicted(capsys):
    for a, b, d, t, expected in (
        (3, 3, 3, 3, 2),
        (3, 6, 5, 6, 1),
        (3, 3, 4, 5, 0),
    ):
        code, out, _ = run_cli(
            capsys,
            "coker", "--a", str(a), "--b", str(b), "--d", str(d), "--t", str(t),
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["measured_coker"] == expected
        assert data["predicted_coker"] == expected
        assert data["agree"] is True


def test_nll_probe_output(capsys):
    code, out, _ = run_cli(
        capsys, "nll", "--a", "3", "--b", "3", "--d", "4", "--locus", "plane:1,1"
    )
    assert code == 0
    assert "member of non-Lefschetz locus: no" in out
    code, out, _ = run_cli(
        capsys, "nll", "--a", "3", "--b", "3", "--d", "4", "--locus", "chord:1,2;2,1"
    )
    assert code == 0
    assert "member of non-Lefschetz locus: yes" in out


def test_bx_bitstrings(capsys):
    code, out, _ = run_cli(capsys, "bx", "--a", "3", "--b", "3", "--dmax", "6")
    assert code == 0
    assert "110101" in out
    code, out, _ = run_cli(capsys, "bx", "--a", "3", "--b", "4", "--dmax", "4")
    assert code == 0
    assert "1100" in out
    assert "conjectural region" in out


def test_params_override_deterministic(capsys):
    args = (
        "hf", "--a", "3", "--b", "3", "--d", "2",
        "--params", "u=1,2,3;v=1,2,3", "--format", "json",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_formats_agree(capsys):
    base = ("hf", "--a", "3", "--b", "3", "--d", "3")
    _, table_out, _ = run_cli(capsys, *base)
    _, csv_out, _ = run_cli(capsys, *base, "--format", "csv")
    _, json_out, _ = run_cli(capsys, *base, "--format", "json")
    rows = json.loads(json_out)["rows"]
    for row, csv_line in zip(rows, csv_out.splitlines()[1:]):
        assert csv_line == f"{row['t']},{row['dim']},{row['delta']}"
        assert f"t={row['t']:2d}  dim {row['dim']:5d}" in table_out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["wlp", "--a", "3"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("coker", "--a", "3", "--b", "3", "--d", "3", "--t", "3"),
        ("nll", "--a", "3", "--b", "3", "--d", "4", "--locus", "plane:1,1"),
    ],
    ids=["coker", "nll"],
)
def test_zero_trials_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--trials", "0")
    assert code == 1
    assert err == "error: trials must be >= 1\n"
    assert "Traceback" not in err and out == ""


def test_coker_below_degree_one_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "coker", "--a", "3", "--b", "3", "--d", "3", "--t", "0")
    assert code == 1
    assert err == "error: degree t must be >= 1\n"
    assert out == ""


def test_generic_draw_on_a_grid_point_is_redrawn(capsys):
    # over F_7 a first draw of seed 8 is dual to a grid point of the 3x4 grid
    code, out, err = run_cli(
        capsys, "wlp", "--a", "3", "--b", "4", "--d", "1", "--prime", "7", "--seed", "8"
    )
    assert code == 0 and err == ""
    assert "WLP holds" in out


def test_chord_draw_on_a_grid_point_is_redrawn(capsys):
    # over F_7 a first draw of seed 3 on this chord is dual to a grid point
    code, out, err = run_cli(
        capsys, "nll", "--a", "3", "--b", "3", "--d", "2", "--locus", "chord:1,1;2,1",
        "--prime", "7", "--seed", "3",
    )
    assert code == 0 and err == ""
    assert "member of non-Lefschetz locus: no" in out


@pytest.mark.parametrize(
    "spec", ["plane:1", "plane:a,b", "plane:1,2,3", "chord:1,2", "ruling:lambda"]
)
def test_malformed_locus_is_named(capsys, spec):
    code, out, err = run_cli(capsys, "nll", "--a", "3", "--b", "3", "--d", "4", "--locus", spec)
    assert code == 1
    assert err == f"error: cannot parse locus {spec!r}\n" and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("wlp", "--a", "3", "--b", "3"),
        ("coker", "--a", "3", "--b", "3", "--t", "3"),
        ("nll", "--a", "3", "--b", "3", "--locus", "generic"),
    ],
    ids=["wlp", "coker", "nll"],
)
def test_zero_power_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--d", "0")
    assert code == 1
    assert err == "error: power d must be >= 1\n"
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("nll", "--a", "3", "--b", "3", "--d", "4", "--locus", "generic", "--format", "csv"),
         "argument --format: invalid choice: 'csv'"),
        (("verify-paper", "--a-max", "3", "--format", "csv"),
         "argument --format: invalid choice: 'csv'"),
        (("verify-paper", "--a-max", "3", "--params", "u=1,2,3;v=1,2,3"),
         "unrecognized arguments: --params"),
        (("hf", "--a", "3", "--b", "3", "--d", "2", "--trials", "2"),
         "unrecognized arguments: --trials"),
    ],
    ids=["nll-csv", "verify-paper-csv", "verify-paper-params", "hf-trials"],
)
def test_flag_the_command_does_not_read_is_a_usage_error(capsys, argv, message):
    # each command is given only the flags it reads, so none is ignored
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert message in out.err and out.out == ""


def test_module_entry_point(capsys):
    argv = ("wlp", "--a", "3", "--b", "3", "--d", "2", "--format", "json")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "gridwlp", *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and proc.stdout == out
    assert json.loads(out)["verdict"] is True


def test_prime_guard_exit_code(capsys):
    code = main(["verify-paper", "--prime", "101"])
    assert code == 3
    code = main(["hf", "--a", "3", "--b", "3", "--d", "2", "--prime", "91"])
    assert code == 3


def test_rational_mode_subset(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--rational", "--a-max", "3")
    assert code == 0
    assert "PASS" in out


def test_verify_paper_json_stdout_is_one_json_object(capsys):
    # the progress and summary lines go to stderr, so stdout parses whole
    code, out, err = run_cli(capsys, "verify-paper", "--rational", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and len(payload["checks"]) == 1
    assert "PASS" in err and "ALL CHECKS PASS" in err


def test_random_grid_prime_guard_exit_code(capsys):
    # F_3 has two nonzero residues, too few for a ruling of 4 lines: refused
    # before any parameter is drawn
    code, out, err = run_cli(capsys, "wlp", "--a", "3", "--b", "4", "--d", "2", "--prime", "3")
    assert code == 3
    assert err.startswith("error: prime 3 too small") and out == ""


def test_rational_mode_keeps_the_prime_guard(capsys):
    # --rational compares F_p with Q, so a prime below the bound is refused
    code, out, err = run_cli(capsys, "verify-paper", "--rational", "--prime", "101")
    assert code == 3
    assert err.startswith("error: prime too small") and "Traceback" not in err and out == ""


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "wlp", "--a", "3", "--b", "3", "--d", "2", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    data = json.loads(target.read_text())
    assert data["verdict"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("wlp", "--a", "3", "--b", "3", "--d", "2", "--format", "json"),
        ("hf", "--a", "3", "--b", "3", "--d", "2", "--tmax", "3"),
        ("verify-paper", "--rational"),
    ],
    ids=["wlp", "hf", "verify-paper"],
)
def test_unwritable_output_file_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report.json"
    code, _, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 1
    assert err.startswith(f"error: cannot write --out {target}") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("missing", [True, False], ids=["missing-dir", "directory"])
def test_unwritable_output_file_is_refused_before_any_check(tmp_path, capsys, monkeypatch, missing):
    def no_checks(**kwargs):
        raise AssertionError("a check ran before --out was checked")

    monkeypatch.setattr(cli, "run_suite", no_checks)
    target = tmp_path / "missing" / "report.json" if missing else tmp_path
    reason = "No such file or directory" if missing else "Is a directory"
    code, out, err = run_cli(capsys, "verify-paper", "--a-max", "3", "--out", str(target))
    assert code == 1 and out == ""
    assert err == f"error: cannot write --out {target}: {reason}\n"
