import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import halfstrip.classify
import halfstrip.cli
import halfstrip.markov
import halfstrip.sim
from halfstrip.cli import main

CRW_NULL = {"type": "crw", "q": 0.6, "c_plus": 0.2, "c_minus": 0.2}
DRIFTING = {
    "type": "tabular",
    "labels": [0],
    "boundary": "clip",
    "lines": {"0": [
        {"jump": 1, "next": 0, "prob": 0.65},
        {"jump": -1, "next": 0, "prob": 0.35},
    ]},
}
# one line with drift 1/(2x) and unit variance: U = V = 1, the boundary case
BOUNDARY_COEFFS = {
    "type": "coefficients", "labels": [0], "d": [0.0], "e": [0.5], "t2": [1.0],
    "d_cross": [[0.0]], "gamma": [[0.0]], "Q": [[1.0]],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestAnalyze:
    def test_crw_golden_report(self, tmp_path, capsys):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        assert main(["analyze", "--model", spec, "--refined"]) == 0
        report = json.loads(capsys.readouterr().out)
        cls = report["classification"]
        assert cls["verdict"] == "NullRecurrent"
        assert abs(cls["U"] - 0.5) < 1e-10
        assert abs(cls["V"] - 1.5) < 1e-10
        assert abs(report["moments"]["theta_star"] - 1 / 3) < 1e-10
        assert report["regime"] == "GeneralizedLamperti"
        assert abs(report["transform"]["a"]["1"] - 0.5) < 1e-10
        assert report["input"]["sha256"]

    def test_transient_and_positive(self, tmp_path, capsys):
        for c, verdict in ((1.5, "Transient"), (-1.0, "PositiveRecurrent")):
            spec = write(tmp_path, f"crw{c}.json", {**CRW_NULL, "c_plus": c, "c_minus": c})
            assert main(["analyze", "--model", spec]) == 0
            assert json.loads(capsys.readouterr().out)["classification"]["verdict"] == verdict

    def test_constant_drift_route(self, tmp_path, capsys):
        spec = write(tmp_path, "drift.json", DRIFTING)
        assert main(["analyze", "--model", spec]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "ConstantDrift"
        assert report["classification"]["verdict"] == "Transient"
        assert report["moments"] is None

    def test_coefficients_input_bypasses_fit(self, tmp_path, capsys):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        out = str(tmp_path / "coeffs.json")
        assert main(["fit", "--model", spec, "--out", out]) == 0
        coeffs = json.loads(open(out).read())
        coeffs.pop("input")
        coeffs.pop("fit_grid")
        cpath = write(tmp_path, "direct.json", coeffs)
        assert main(["analyze", "--model", cpath, "--refined"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["input"]["kind"] == "coefficients"
        assert report["classification"]["verdict"] == "NullRecurrent"

    def test_malformed_json_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["analyze", "--model", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_unknown_key_fails(self, tmp_path, capsys):
        spec = write(tmp_path, "bad.json", {**CRW_NULL, "surprise": 1})
        assert main(["analyze", "--model", spec]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_report_deterministic(self, tmp_path):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        main(["analyze", "--model", spec, "--out", out1])
        main(["analyze", "--model", spec, "--out", out2])
        assert open(out1, "rb").read() == open(out2, "rb").read()


class TestMalformedSpecs:
    INF_JUMP = (
        '{"type": "tabular", "labels": [0], "lines": {"0": ['
        '{"jump": 1e400, "next": 0, "prob": 0.5}, {"jump": -1, "next": 0, "prob": 0.5}]}}'
    )
    HUGE_JUMP = INF_JUMP.replace("1e400", "1e160")
    COEFFS = {
        "type": "coefficients", "d": [0.2, -0.2], "e": [0.2, 0.2], "t2": [1.0, 1.0],
        "d_cross": [[0.6, -0.4], [0.4, -0.6]], "gamma": [[0.1, -0.1], [0.1, -0.1]],
        "Q": [[0.6, 0.4], [0.4, 0.6]],
    }

    @pytest.mark.parametrize(
        "text,flags",
        [
            (INF_JUMP, []),
            (INF_JUMP, ["--refined"]),
            (HUGE_JUMP, []),
            ('{"type": "crw", "q": null}', []),
            ('{"type": "crw", "q": [0.5]}', []),
            ("[" + json.dumps(CRW_NULL) + "]", []),
            (json.dumps({**DRIFTING, "labels": [[0]], "lines": {"[0]": []}}), []),
            (json.dumps({**COEFFS, "labels": [[1], [-1]]}), []),
            (json.dumps(CRW_NULL), ["--tol", "nan"]),
            (json.dumps(CRW_NULL), ["--tol", "-1"]),
            (json.dumps(CRW_NULL), ["--tol", "inf"]),
            (json.dumps(CRW_NULL), ["--tol", "-1e-3"]),
            (json.dumps(CRW_NULL), ["--p-cap", "nan"]),
            (json.dumps(CRW_NULL), ["--p-cap", "0"]),
            (json.dumps({**BOUNDARY_COEFFS, "refined_rates_hold": "no"}), []),
            (json.dumps({**BOUNDARY_COEFFS, "fit_residuals": {"mu": math.nan}}), []),
            (json.dumps({**BOUNDARY_COEFFS, "warnings": [1]}), []),
        ],
        ids=["inf-jump", "inf-jump-refined", "huge-jump", "q-null", "q-list", "top-level-array",
             "tabular-list-labels", "coefficients-list-labels", "tol-nan", "tol-negative",
             "tol-inf", "tol-negative-exponent", "p-cap-nan", "p-cap-zero",
             "refined-rates-hold-string", "fit-residual-nan", "warning-not-a-string"],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, text, flags):
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert main(["analyze", "--model", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    # the line's inv_x terms sum to 5e-10, inside the spec's renormalization
    # tolerance, so the probabilities sum to 1 + 5e-12 at x = 100
    SUM_DEFECT = {"type": "tabular", "labels": [0], "lines": {"0": [
        {"jump": 1, "next": 0, "prob": {"const": 0.5, "inv_x": 2.5e-10}},
        {"jump": -1, "next": 0, "prob": {"const": 0.5, "inv_x": 2.5e-10}}]}}

    @pytest.mark.parametrize("command", ["analyze", "fit"])
    @pytest.mark.parametrize("text,message", [
        (HUGE_JUMP, "the step's second moment at (100.0, 0) is not finite"),
        (json.dumps(SUM_DEFECT), "atom probabilities sum to 1.000000000005"),
    ], ids=["huge-jump", "sum-defect"])
    def test_fit_names_the_first_bad_state(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert main([command, "--model", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("refined,verdict", [(False, "Indeterminate"),
                                                 (True, "BoundaryNullRecurrent")])
    def test_refined_rates_hold_is_read_as_given(self, tmp_path, capsys, refined, verdict):
        spec = write(tmp_path, "c.json", {**BOUNDARY_COEFFS, "refined_rates_hold": refined})
        assert main(["analyze", "--model", spec]) == 0
        assert json.loads(capsys.readouterr().out)["classification"]["verdict"] == verdict

    @pytest.mark.parametrize("extra", [{}, {"pi": [0.5, 0.5]}], ids=["no-pi", "with-pi"])
    def test_reducible_q_says_so_with_or_without_pi(self, tmp_path, capsys, extra):
        spec = write(tmp_path, "c.json", {**self.COEFFS, "labels": [1, -1],
                                          "Q": [[1.0, 0.0], [0.0, 1.0]], **extra})
        assert main(["analyze", "--model", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix is reducible; no unique stationary distribution\n"

    @staticmethod
    def assert_one_line_exit_2(capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_verify_nan_tol(self, tmp_path, capsys):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        self.assert_one_line_exit_2(capsys, ["verify", "--model", spec, "--tol", "nan"])

    @pytest.mark.parametrize("flags", [["--start", "nan,1"], ["--start", "inf,1"],
                                       ["--level", "nan"], ["--n", "0"], ["--n", "-3"],
                                       ["--cap", "0"], ["--threads", "0"],
                                       ["--threads", "-2"]],
                             ids=["start-nan", "start-inf", "level-nan", "n-zero",
                                  "n-negative", "cap-zero", "threads-zero",
                                  "threads-negative"])
    def test_verify_bad_start_or_level_before_any_check(self, tmp_path, capsys, flags):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        report = tmp_path / "report.json"
        self.assert_one_line_exit_2(
            capsys, ["verify", "--model", spec, *flags, "--report", str(report)])
        assert not report.exists()

    @pytest.mark.parametrize("start,level", [("nan,1", "10"), ("inf,1", "10"), ("50,1", "nan")],
                             ids=["start-nan", "start-inf", "level-nan"])
    def test_simulate_non_finite_start_or_level(self, tmp_path, capsys, start, level):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        out = tmp_path / "tau.csv"
        self.assert_one_line_exit_2(capsys, [
            "simulate", "--model", spec, "--start", start, "--level", level,
            "--cap", "100", "--n", "5", "--out", str(out), "--summary", str(tmp_path / "s.json"),
        ])
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_simulate_threads_below_one(self, tmp_path, capsys, threads):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        out = tmp_path / "tau.csv"
        self.assert_one_line_exit_2(capsys, [
            "simulate", "--model", spec, "--start", "50,1", "--level", "10",
            "--cap", "100", "--n", "5", "--threads", threads, "--out", str(out),
        ])
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "crw.json", "--start", "abc", "--level", "10"],
        ["simulate", "--model", "crw.json", "--start", "50,7", "--level", "10"],
        ["simulate", "--model", "nope.json", "--start", "50,1", "--level", "10"],
        ["analyze", "--model", "truncated.json"],
        ["verify", "--model", "crw.json", "--coefficients", "nope.json", "--n", "10"],
    ], ids=["start-not-a-pair", "start-unknown-label", "simulate-missing-model",
            "analyze-truncated-json", "verify-missing-coefficients"])
    def test_unreadable_inputs(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "crw.json", CRW_NULL)
        (tmp_path / "truncated.json").write_text("[1")
        self.assert_one_line_exit_2(capsys, argv)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "crw.json", "--out", "{missing}"],
        ["fit", "--model", "crw.json", "--out", "{missing}"],
        ["simulate", "--model", "crw.json", "--start", "50,1", "--level", "10", "--cap", "100",
         "--n", "5", "--out", "{missing}"],
        ["simulate", "--model", "crw.json", "--start", "50,1", "--level", "10", "--cap", "100",
         "--n", "5", "--out", "tau.csv", "--summary", "{missing}"],
        ["verify", "--model", "crw.json", "--cap", "200", "--n", "20", "--report", "{missing}"],
        ["verify", "--model", "crw.json", "--cap", "200", "--n", "20", "--lyapunov",
         "--out", "{missing}"],
    ], ids=["analyze-out", "fit-out", "simulate-out", "simulate-summary", "verify-report",
            "verify-out"])
    def test_unwritable_output(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "crw.json", CRW_NULL)
        missing = str(tmp_path / "no-such-dir" / "out")
        assert main([a.format(missing=missing) for a in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {missing}: No such file or directory\n")
        assert not (tmp_path / "no-such-dir").exists()

    def test_fit_grid_point_not_positive(self, tmp_path, capsys):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_one_line_exit_2(
                capsys, ["fit", "--model", spec, "--grid", "0,100,1000,10000,100000"]
            )

    @pytest.mark.parametrize("jump", ["1e80", "1e160"])
    def test_verify_huge_jump_ends_in_a_report_or_one_line(self, tmp_path, capsys, jump):
        path = tmp_path / "spec.json"
        path.write_text(self.INF_JUMP.replace("1e400", jump))
        code = main(["verify", "--model", str(path), "--n", "50", "--cap", "200"])
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1


class TestOnePipeline:
    """``analyze`` and ``verify`` share one routing pass and one set of samples."""

    @staticmethod
    def count_calls(monkeypatch, name, modules):
        calls = []
        original = getattr(modules[0], name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
        return calls

    def test_verify_samples_passage_times_once(self, tmp_path, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, "sample_passage_times",
                                 (halfstrip.sim, halfstrip.cli))
        spec = write(tmp_path, "crw.json", CRW_NULL)
        assert main([
            "verify", "--model", spec, "--start", "50,1", "--level", "10",
            "--cap", "20000", "--n", "300", "--seed", "5", "--lyapunov",
        ]) == 0
        assert "tail-exponent" in capsys.readouterr().out
        assert len(calls) == 1

    def test_analyze_solves_the_centered_system_once(self, tmp_path, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, "solve_poisson",
                                 (halfstrip.markov, halfstrip.classify))
        spec = write(tmp_path, "crw.json", CRW_NULL)
        assert main(["analyze", "--model", spec]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "GeneralizedLamperti"
        assert report["transform"] is not None
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "spec,start",
        [
            (CRW_NULL, "50,1"),
            ({**CRW_NULL, "c_plus": 1.5, "c_minus": 1.5}, "50,1"),
            ({**CRW_NULL, "c_plus": -1.0, "c_minus": -1.0}, "50,1"),
            (DRIFTING, "50,0"),
        ],
        ids=["null", "transient", "positive", "constant-drift"],
    )
    def test_verify_reports_the_analyze_verdict(self, tmp_path, capsys, spec, start):
        model = write(tmp_path, "model.json", spec)
        report_path = str(tmp_path / "verify.json")
        assert main(["analyze", "--model", model]) == 0
        analyzed = json.loads(capsys.readouterr().out)["classification"]
        assert main([
            "verify", "--model", model, "--start", start, "--level", "10",
            "--cap", "4000", "--n", "100", "--seed", "3", "--report", report_path,
        ]) == 0
        capsys.readouterr()
        assert json.loads(open(report_path).read())["verdict"] == analyzed


class TestFit:
    def test_matches_closed_forms(self, tmp_path, capsys):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        assert main(["fit", "--model", spec]) == 0
        payload = json.loads(capsys.readouterr().out)
        labels = payload["labels"]
        d = dict(zip(labels, payload["d"]))
        e = dict(zip(labels, payload["e"]))
        assert abs(d[1] - 0.2) < 1e-10 and abs(d[-1] + 0.2) < 1e-10
        assert abs(e[1] - 0.2) < 1e-10 and abs(e[-1] - 0.2) < 1e-10


class TestSimulate:
    def test_empty_run_writes_header_only(self, tmp_path):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        out = str(tmp_path / "empty.csv")
        assert main([
            "simulate", "--model", spec, "--start", "50,1", "--level", "10",
            "--cap", "1000", "--n", "0", "--seed", "1", "--out", out,
        ]) == 0
        assert open(out).read() == "tau,censored,steps\n"

    def test_byte_identical_reruns_and_threads(self, tmp_path, capsys):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        outs = []
        for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
            out = str(tmp_path / name)
            assert main([
                "simulate", "--model", spec, "--start", "30,1", "--level", "5",
                "--cap", "20000", "--n", "200", "--seed", "11",
                "--threads", threads, "--out", out,
            ]) == 0
            outs.append(open(out, "rb").read())
        capsys.readouterr()
        assert outs[0] == outs[1] == outs[2]
        assert outs[0].startswith(b"tau,censored,steps\n")


class TestVerify:
    def test_null_recurrent_checks_pass(self, tmp_path, capsys):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        report_path = str(tmp_path / "verify.json")
        assert main([
            "verify", "--model", spec, "--start", "50,1", "--level", "10",
            "--cap", "60000", "--n", "1500", "--seed", "5",
            "--report", report_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS model-validity" in out
        assert "PASS verdict-vs-simulation" in out
        report = json.loads(open(report_path).read())
        assert all(c["passed"] for c in report["checks"]), report["checks"]

    def test_misasserted_coefficients_fail_loudly(self, tmp_path, capsys):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        out = str(tmp_path / "coeffs.json")
        main(["fit", "--model", spec, "--out", out])
        coeffs = json.loads(open(out).read())
        coeffs.pop("input"); coeffs.pop("fit_grid")
        # self-consistent but wrong: d not centered, rows shifted to match
        new_d = [0.4, -0.1]
        for row, (old, new) in enumerate(zip(coeffs["d"], new_d)):
            gap = (new - old) / len(new_d)
            coeffs["d_cross"][row] = [v + gap for v in coeffs["d_cross"][row]]
        coeffs["d"] = new_d
        bad = write(tmp_path, "bad_coeffs.json", coeffs)
        assert main([
            "verify", "--model", spec, "--coefficients", bad,
            "--start", "50,1", "--level", "10", "--cap", "20000", "--n", "300",
            "--seed", "5",
        ]) == 0
        out_text = capsys.readouterr().out
        assert "FAIL asserted-coefficients" in out_text

    @pytest.mark.parametrize("d_cross,verdict", [
        ([[0.6, -0.4], [0.4, -0.6]], "PASS"),
        ([[5.6, -5.4], [0.4, -0.6]], "FAIL"),   # rows still sum to d; V moves to 4.0
    ])
    def test_asserted_cross_drifts_are_compared(self, tmp_path, capsys, d_cross, verdict):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        coeffs = write(tmp_path, "coeffs.json", {**TestMalformedSpecs.COEFFS,
                                                 "labels": [1, -1], "d_cross": d_cross})
        assert main([
            "verify", "--model", spec, "--coefficients", coeffs,
            "--start", "50,1", "--level", "10", "--cap", "2000", "--n", "50", "--seed", "5",
        ]) == 0
        assert f"{verdict} asserted-coefficients" in capsys.readouterr().out

    def test_lyapunov_table_emitted(self, tmp_path, capsys):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        csv_path = str(tmp_path / "ratios.csv")
        assert main([
            "verify", "--model", spec, "--start", "50,1", "--level", "10",
            "--cap", "20000", "--n", "300", "--seed", "5",
            "--lyapunov", "--out", csv_path,
        ]) == 0
        out_text = capsys.readouterr().out
        assert "PASS lyapunov-ratio-nu-1" in out_text
        assert "PASS lyapunov-ratio-nu-2" in out_text
        header = open(csv_path).readline()
        assert header == "nu,x,label,increment,leading,ratio\n"


class TestOutputFiles:
    """Output files are written in place and cut to length: the bytes on disk
    are always those of a fresh write."""

    @staticmethod
    def run_twice(tmp_path, first, second):
        """Run ``first`` then ``second`` into one path and ``second`` alone into
        a fresh one; return both files' bytes."""
        kept, fresh = tmp_path / "kept", tmp_path / "fresh"
        for argv, out in ((first, kept), (second, kept), (second, fresh)):
            assert main([*argv, "--out", str(out)]) == 0
        return kept.read_bytes(), fresh.read_bytes()

    def test_shorter_csv_over_longer(self, tmp_path, capsys):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        argv = ["simulate", "--model", spec, "--start", "30,1", "--level", "5",
                "--cap", "2000", "--seed", "3", "--n"]
        kept, fresh = self.run_twice(tmp_path, [*argv, "300"], [*argv, "5"])
        assert kept == fresh and kept.count(b"\n") == 6

    def test_shorter_report_over_longer(self, tmp_path, capsys):
        model = write(tmp_path, "crw.json", CRW_NULL)
        coeffs = write(tmp_path, "coeffs.json", BOUNDARY_COEFFS)
        kept, fresh = self.run_twice(tmp_path, ["analyze", "--model", model],
                                     ["analyze", "--model", coeffs])
        assert kept == fresh
        assert json.loads(kept)["input"]["kind"] == "coefficients"

    def test_same_report_twice(self, tmp_path, capsys):
        argv = ["analyze", "--model", write(tmp_path, "crw.json", CRW_NULL)]
        kept, fresh = self.run_twice(tmp_path, argv, argv)
        assert kept == fresh

    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "crw.json"],
        ["simulate", "--model", "crw.json", "--start", "50,1", "--level", "10", "--cap", "100",
         "--n", "5"],
    ], ids=["analyze", "simulate"])
    def test_dev_null(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "crw.json", CRW_NULL)
        assert main([*argv, "--out", os.devnull]) == 0
        assert capsys.readouterr().err == ""

    def test_new_file_mode_follows_umask(self, tmp_path, capsys):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        out = tmp_path / "report.json"
        old = os.umask(0o027)
        try:
            assert main(["analyze", "--model", spec, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o640


class TestOneParser:
    """``main`` builds its parser on the first call and only parses after."""

    CALLS = (
        ["analyze", "--model", "crw.json", "--refined"],
        ["analyze", "--model", "crw.json"],
        ["simulate", "--model", "crw.json", "--start", "30,1", "--level", "5", "--cap", "500",
         "--n", "50", "--seed", "3", "--out", "a.csv", "--summary", "a.json"],
        ["simulate", "--model", "crw.json", "--start", "30,1", "--level", "5", "--cap", "500",
         "--n", "50", "--seed", "3", "--out", "b.csv"],
    )
    HELP = (["--help"], ["analyze", "--help"], ["fit", "--help"], ["simulate", "--help"],
            ["verify", "--help"])

    def help_texts(self, capsys):
        texts = []
        for argv in self.HELP:
            with pytest.raises(SystemExit):
                main(argv)
            texts.append(capsys.readouterr().out)
        return texts

    def test_built_once_and_stateless(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "crw.json", CRW_NULL)
        halfstrip.cli._build_parser.cache_clear()
        first_help = self.help_texts(capsys)
        in_process = []
        for argv in self.CALLS:
            assert main(argv) == 0
            in_process.append(capsys.readouterr().out)
        assert self.help_texts(capsys) == first_help
        assert halfstrip.cli._build_parser.cache_info().misses == 1

        files = [(tmp_path / name).read_bytes() for name in ("a.csv", "a.json", "b.csv")]
        src = str(Path(halfstrip.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for argv, stdout in zip(self.CALLS, in_process):
            fresh = subprocess.run([sys.executable, "-m", "halfstrip.cli", *argv], cwd=tmp_path,
                                   env=env, capture_output=True, check=True)
            assert fresh.stdout == stdout.encode()
        assert [(tmp_path / name).read_bytes()
                for name in ("a.csv", "a.json", "b.csv")] == files


class TestHelp:
    def test_unknown_flag_is_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--nonsense"])

    def test_centering_tolerance_is_not_a_flag(self, tmp_path, capsys):
        # the centered solve's tolerance follows --tol (classify.centering_tolerance)
        spec = write(tmp_path, "crw.json", CRW_NULL)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--model", spec, "--centering-tol", "1e-3"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for sub in ("analyze", "fit", "simulate", "verify"):
            assert sub in out

    @pytest.mark.parametrize(
        "sub,flags",
        [
            ("analyze", ("--model", "--tol", "--refined", "--p-cap", "--out")),
            ("fit", ("--model", "--grid", "--refined", "--out")),
            ("simulate", ("--model", "--start", "--level", "--cap", "--n",
                          "--seed", "--threads", "--out", "--summary")),
            ("verify", ("--model", "--coefficients", "--start", "--level", "--cap",
                        "--n", "--seed", "--threads", "--tol", "--refined",
                        "--lyapunov", "--out", "--report")),
        ],
    )
    def test_subcommand_help_documents_flags(self, capsys, sub, flags):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out
