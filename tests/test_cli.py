import json
import warnings

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
        with pytest.raises(SystemExit):
            main(["analyze", "--model", str(bad)])

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
            (json.dumps(CRW_NULL), ["--centering-tol", "nan"]),
            (json.dumps(CRW_NULL), ["--centering-tol", "-0.5"]),
            (json.dumps(CRW_NULL), ["--p-cap", "nan"]),
            (json.dumps(CRW_NULL), ["--p-cap", "0"]),
        ],
        ids=["inf-jump", "inf-jump-refined", "huge-jump", "q-null", "q-list", "top-level-array",
             "tabular-list-labels", "coefficients-list-labels", "tol-nan", "tol-negative",
             "tol-inf", "centering-tol-nan", "centering-tol-negative", "p-cap-nan", "p-cap-zero"],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, text, flags):
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert main(["analyze", "--model", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @staticmethod
    def assert_one_line_exit_2(capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_verify_nan_tol(self, tmp_path, capsys):
        spec = write(tmp_path, "crw.json", CRW_NULL)
        self.assert_one_line_exit_2(capsys, ["verify", "--model", spec, "--tol", "nan"])

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


class TestHelp:
    def test_unknown_flag_is_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--nonsense"])

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for sub in ("analyze", "fit", "simulate", "verify"):
            assert sub in out

    @pytest.mark.parametrize(
        "sub,flags",
        [
            ("analyze", ("--model", "--tol", "--centering-tol", "--refined", "--p-cap", "--out")),
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
