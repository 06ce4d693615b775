import json

import numpy as np
import pytest

from pnpstab.cli import main
from pnpstab.matrices import write_matrix


@pytest.fixture
def matrix_files(tmp_path):
    w_path = tmp_path / "w.txt"
    b_path = tmp_path / "b.txt"
    write_matrix(w_path, np.array([[7.0, 3.0], [6.0, 4.0]]) / 10)
    write_matrix(b_path, np.array([[34.0, -65.0], [-65.0, 126.0]]) / 10)
    return str(w_path), str(b_path)


@pytest.fixture
def blur_files(tmp_path):
    w_path = tmp_path / "wb.txt"
    b_path = tmp_path / "bb.txt"
    h = np.array([[0.913, 0.087], [0.087, 0.913]])
    write_matrix(w_path, np.array([[0.3, 0.7], [0.6, 0.4]]))
    write_matrix(b_path, h.T @ h)
    return str(w_path), str(b_path)


def test_profile_command_writes_csv(blur_files, tmp_path):
    w, b = blur_files
    out = tmp_path / "profile.csv"
    code = main(["profile", "--w", w, "--b", b, "--tmin", "0", "--tmax", "3", "--steps", "31", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,rho_P,rho_R"
    assert len(lines) == 32


def test_threshold_command_reports_unstable_from_start(matrix_files, tmp_path):
    w, b = matrix_files
    out = tmp_path / "threshold.json"
    code = main(["threshold", "--w", w, "--b", b, "--which", "P", "--scan-max", "0.4", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["classification"] == "unstable_from_start"
    assert report["T_star"] is None


def test_threshold_command_locates_blur_crossing(blur_files, tmp_path):
    w, b = blur_files
    out = tmp_path / "threshold.json"
    code = main(["threshold", "--w", w, "--b", b, "--which", "P", "--scan-max", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["classification"] == "stable_then_unstable"
    assert abs(report["T_star"] - 2.0) <= 1e-3


def test_threshold_command_rejects_nan_bisect_tol(blur_files, tmp_path):
    w, b = blur_files
    out = tmp_path / "threshold.json"
    code = main(["threshold", "--w", w, "--b", b, "--which", "P", "--scan-max", "3", "--bisect-tol", "nan", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_unknown_flag_exits_2(matrix_files, tmp_path):
    w, b = matrix_files
    code = main(["threshold", "--w", w, "--b", b, "--which", "P", "--scan-max", "1", "--out", str(tmp_path / "x"), "--bogus"])
    assert code == 2


def test_missing_matrix_file_exits_2(tmp_path):
    code = main(
        ["profile", "--w", str(tmp_path / "missing.txt"), "--b", str(tmp_path / "missing.txt"),
         "--tmin", "0", "--tmax", "1", "--steps", "5", "--out", str(tmp_path / "out.csv")]
    )
    assert code == 2


def test_malformed_matrix_file_exits_2(tmp_path, capsys):
    w_path = tmp_path / "w.txt"
    w_path.write_text("2 2\n0.5 0.5\n1\n")
    code = main(
        ["profile", "--w", str(w_path), "--b", str(w_path),
         "--tmin", "0", "--tmax", "1", "--steps", "5", "--out", str(tmp_path / "out.csv")]
    )
    assert code == 2
    assert str(w_path) in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_invalid_stochastic_file_exits_2(tmp_path):
    w_path = tmp_path / "w.txt"
    write_matrix(w_path, np.array([[0.5, 0.6], [0.5, 0.4]]))
    code = main(
        ["profile", "--w", str(w_path), "--b", str(w_path),
         "--tmin", "0", "--tmax", "1", "--steps", "5", "--out", str(tmp_path / "out.csv")]
    )
    assert code == 2


def test_check_command_writes_jsonl(tmp_path):
    out = tmp_path / "suite.jsonl"
    code = main(["check", "--suite", "inpainting", "--trials", "5", "--n", "5", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(lines) == 6
    assert all(rec["record"] == "instance" and rec["passed"] for rec in lines[:-1])
    assert lines[-1]["record"] == "summary"
    assert lines[-1]["failed"] == 0


def test_check_command_rejects_n_below_two(tmp_path, capsys):
    out = tmp_path / "suite.jsonl"
    code = main(["check", "--suite", "inpainting", "--trials", "3", "--n", "1", "--out", str(out)])
    assert code == 2
    assert "need n_max >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_fuzz_command_roundtrip(tmp_path):
    out = tmp_path / "fuzz.jsonl"
    code = main(
        ["fuzz", "--trials", "6", "--n-min", "2", "--n-max", "4",
         "--generator", "imaging", "--seed", "11", "--out", str(out)]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(lines) == 7
    assert lines[-1]["record"] == "summary"
    assert lines[-1]["violations"] == 0
    seeds = [rec["seed"] for rec in lines[:-1]]
    assert seeds == list(range(11, 17))


def test_fuzz_command_worker_invariance(tmp_path):
    out1 = tmp_path / "fuzz1.jsonl"
    out2 = tmp_path / "fuzz2.jsonl"
    base = ["fuzz", "--trials", "8", "--n-min", "2", "--n-max", "4", "--generator", "general_psd", "--seed", "5"]
    assert main(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(base + ["--workers", "3", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_pnp_command_converges(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["pnp", "--kind", "inpainting", "--n", "8", "--t", "1.0", "--seed", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,error_norm,loss"
    assert len(lines) > 2


def test_pnp_command_supports_all_kinds(tmp_path):
    for kind in ("deblur", "superres"):
        out = tmp_path / f"{kind}.csv"
        code = main(["pnp", "--kind", kind, "--n", "6", "--t", "0.8", "--seed", "2", "--out", str(out)])
        assert code == 0


def test_repro_single_example(tmp_path, capsys):
    code = main(["repro", "--example", "remark_1_6", "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "[PASS] remark_1_6: piTBe" in printed
    report = json.loads((tmp_path / "remark_1_6_report.json").read_text())
    assert report["overall_pass"]
    assert (tmp_path / "remark_1_6_profile.csv").exists()


def test_repro_all_examples_pass(tmp_path, capsys):
    code = main(["repro", "--example", "all", "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.strip().endswith("overall: PASS")
    assert "[FAIL]" not in printed
    reports = sorted(tmp_path.glob("*_report.json"))
    assert len(reports) == 7


def test_repro_rejects_unknown_example(tmp_path):
    assert main(["repro", "--example", "nonsense", "--out", str(tmp_path)]) == 2


def test_records_keep_their_key_order(blur_files, tmp_path):
    w, b = blur_files
    hypotheses = ["w_primitive", "b_psd", "be_bounded_by_rho", "pibe_positive", "pibe", "margin"]
    assert main(["threshold", "--w", w, "--b", b, "--which", "P", "--scan-max", "3", "--out", str(tmp_path / "t.json")]) == 0
    threshold = json.loads((tmp_path / "t.json").read_text())
    assert list(threshold) == ["which", "classification", "T_star", "bracket", "bisect_tol", "scan_max", "grid_step", "eps0"]
    assert main(["fuzz", "--trials", "2", "--seed", "3", "--out", str(tmp_path / "f.jsonl")]) == 0
    trial, summary = [json.loads(line) for line in (tmp_path / "f.jsonl").read_text().splitlines()[1:]]
    assert list(trial) == ["record", "seed", "n", "generator", "hypotheses", "verdict", "certificate"]
    assert list(trial["hypotheses"]) == hypotheses
    assert list(summary) == ["record", "trials", "passes", "violations", "hypotheses_unmet", "certificates"]
    assert main(["check", "--suite", "inpainting", "--trials", "1", "--out", str(tmp_path / "c.jsonl")]) == 0
    instance = json.loads((tmp_path / "c.jsonl").read_text().splitlines()[0])
    assert list(instance) == ["record", "suite", "seed", "n", "passed", "which_failed", "violation"]
    assert main(["repro", "--example", "remark_1_6", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "remark_1_6_report.json").read_text())
    assert list(report) == ["example", "overall_pass", "checks", "artifacts"]
    assert list(report["checks"][0]) == ["name", "expected", "computed", "tolerance", "pass"]
