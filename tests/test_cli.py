import json
import warnings

import numpy as np
import pytest

from pnpstab import repro, stability
from pnpstab.cli import main
from pnpstab.matrices import validate_stochastic, write_matrix
from pnpstab.operators import make_family


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
    # Non-finite entries also name the file: nan in W for profile, inf in B for threshold.
    w_path.write_text("2 2\n0.5 nan\n0.5 0.5\n")
    code = main(
        ["profile", "--w", str(w_path), "--b", str(w_path),
         "--tmin", "0", "--tmax", "1", "--steps", "5", "--out", str(tmp_path / "out.csv")]
    )
    assert code == 2
    assert str(w_path) in capsys.readouterr().err
    w_path.write_text("2 2\n0.5 0.5\n0.5 0.5\n")
    b_path = tmp_path / "b.txt"
    b_path.write_text("2 2\n1 0\ninf 1\n")
    code = main(["threshold", "--w", str(w_path), "--b", str(b_path), "--which", "P", "--scan-max", "1",
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert str(b_path) in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_invalid_stochastic_file_exits_2(tmp_path):
    w_path = tmp_path / "w.txt"
    write_matrix(w_path, np.array([[0.5, 0.6], [0.5, 0.4]]))
    code = main(
        ["profile", "--w", str(w_path), "--b", str(w_path),
         "--tmin", "0", "--tmax", "1", "--steps", "5", "--out", str(tmp_path / "out.csv")]
    )
    assert code == 2


BLUR_W = "2 2\n0.3 0.7\n0.6 0.4\n"
BLUR_B = "2 2\n0.841138 0.158862\n0.158862 0.841138\n"


@pytest.mark.parametrize(
    "w_text, b_text, flags, message",
    [
        ("2 3\n0.3 0.7 0\n0.6 0.4 0\n", BLUR_B, [], "expected a square matrix, got shape (2, 3)"),
        ("2 2\n1.3 -0.3\n0.6 0.4\n", BLUR_B, [], "entry (0, 1) = -0.3 is negative beyond tolerance"),
        ("2 2\n0.3 0.8\n0.6 0.4\n", BLUR_B, [], "row 0 sums to 1.1, not 1 within tolerance"),
        ("2 2\n1 0\n0 1\n", BLUR_B, [], "nonzero pattern is not strongly connected"),
        (BLUR_W, "3 3\n1 0 0\n0 1 0\n0 0 1\n", [], "W is 2x2 but B is 3x3"),
        (
            BLUR_W,
            BLUR_B,
            ["--eps0", "0.5"],
            "need 0 < eps0 (0.5) < grid_step (0.00146484375) < scan_max (3.0) < inf, 0 < bisect_tol < inf",
        ),
        (None, None, [], "B = 0"),
        ("2 2\n1 1e-20\n1 0\n", BLUR_B, [], "left Perron vector rejected: residual 1e-20, smallest entry 0.0"),
    ],
    ids=["non_square", "negative_entry", "row_sum", "reducible", "size_mismatch", "bad_grid", "hypotheses", "perron"],
)
def test_a_failure_exits_2_with_one_stderr_line(monkeypatch, tmp_path, capsys, w_text, b_text, flags, message):
    # A numerical failure (the Perron rejection) used to end in a traceback and exit 1, the violation code.
    out = tmp_path / "out"
    if w_text is None:
        # No suite draws an instance that fails its hypotheses; B = 0 fails the inpainting suite's.
        def zero_b(suite, seed, n):
            return make_family(validate_stochastic(np.full((n, n), 1.0 / n)), np.zeros((n, n)))

        monkeypatch.setattr(stability, "suite_family", zero_b)
        argv = ["check", "--suite", "inpainting", "--trials", "1"]
    else:
        (tmp_path / "w.txt").write_text(w_text)
        (tmp_path / "b.txt").write_text(b_text)
        argv = ["threshold", "--w", str(tmp_path / "w.txt"), "--b", str(tmp_path / "b.txt"), "--which", "P", "--scan-max", "3"]
    assert main([*argv, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"pnpstab: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_fuzz_command_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    # Both ran the trials serially and exited 0.
    out = tmp_path / "fuzz.jsonl"
    assert main(["fuzz", "--trials", "2", "--workers", workers, "--out", str(out)]) == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["fuzz", "--trials", "2"],
        ["check", "--suite", "inpainting", "--trials", "2"],
        ["pnp", "--kind", "inpainting", "--n", "8", "--t", "1.0"],
    ],
    ids=["fuzz", "check", "pnp"],
)
def test_a_negative_seed_is_rejected_by_name(tmp_path, capsys, command):
    # numpy's "expected non-negative integer" was the whole message; it named no flag.
    out = tmp_path / "out.txt"
    assert main([*command, "--seed", "-1", "--out", str(out)]) == 2
    assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


def test_fuzz_command_exits_1_on_a_violation(tmp_path, capsys):
    # Seed 523 meets the four encoded conjecture hypotheses and violates the bound.
    out = tmp_path / "fuzz_523.jsonl"
    args = ["fuzz", "--trials", "1", "--n-min", "3", "--n-max", "3", "--generator", "general_psd"]
    assert main(args + ["--seed", "523", "--out", str(out)]) == 1
    assert "VIOLATION seed=523" in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "flag, value", [("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1e-10"), ("--max-iter", "-1")]
)
def test_pnp_command_rejects_bad_stopping_rules(tmp_path, capsys, flag, value):
    # --tol nan ran all 2000 iterations and reported converged=False.
    out = tmp_path / "trace.csv"
    args = ["pnp", "--kind", "inpainting", "--n", "8", "--t", "1.0", "--seed", "4", "--out", str(out)]
    assert main(args + [f"{flag}={value}"]) == 2
    assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["inpainting", "deblur", "superres"])
def test_pnp_command_reports_a_diverging_run(tmp_path, capsys, kind):
    # At t = 50 the iterate overflowed; the run printed converged=True and exited 0.
    args = ["pnp", "--kind", kind, "--n", "12", "--t", "50", "--seed", "3", "--out", str(tmp_path / "trace.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 1
    out, err = capsys.readouterr()
    assert "converged=False" in out
    assert err == ""


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


@pytest.mark.parametrize(
    "name, example, check",
    [
        ("stability_threshold", "remark_1_7", "T_star_P"),  # a value check
        ("rho_on_grid", "remark_1_6", "rho_P>1_on_(0,0.5)"),  # a bool check
        ("P_of", "remark_1_3_P", "eig_P@t=0.1"),  # an eigenvalue check
        ("stability_threshold", "example_1_14_B1", "T_star>2/rho_B"),  # a check sharing a cached value
    ],
)
def test_repro_reports_a_failed_computation_as_a_failed_check(monkeypatch, tmp_path, capsys, name, example, check):
    def fails(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(repro, name, fails)
    assert main(["repro", "--example", "all", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.strip().endswith("overall: FAIL")
    report = json.loads((tmp_path / f"{example}_report.json").read_text())
    computed = {c["name"]: (c["computed"], c["pass"]) for c in report["checks"]}
    assert computed[check] == ("error: injected failure", False)
    assert not report["overall_pass"]
    # Only the checks that use the failed computation fail: 2/rho_B still passes next to T_star_R.
    assert all(result == ("error: injected failure", False) or result[1] for result in computed.values())


def test_every_example_has_checks_and_an_unchecked_id_raises(monkeypatch, tmp_path):
    for example in repro.EXAMPLE_IDS:
        assert repro._checks_for(example, repro.example_family(example))
    # An example without checks would pass vacuously, since all([]) is True.
    monkeypatch.setitem(repro._EXAMPLES, "unchecked", repro._EXAMPLES["remark_1_6"])
    with pytest.raises(ValueError, match="unchecked"):
        repro.repro("unchecked", tmp_path)


def test_repro_all_runs_each_threshold_once(monkeypatch, tmp_path):
    calls = []
    threshold = repro.stability_threshold

    def counted(*args, **kwargs):
        calls.append(args[1])
        return threshold(*args, **kwargs)

    monkeypatch.setattr(repro, "stability_threshold", counted)
    assert all(report.overall_pass for report in repro.repro_all(tmp_path))
    assert calls == ["P", "R", "R"]  # remark_1_7, then one shared by the two checks of each example_1_14


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
