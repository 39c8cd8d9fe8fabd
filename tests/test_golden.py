"""Golden digests: the exact bytes of small ``simulate``, ``verify --lyapunov``,
``analyze`` and ``fit`` runs, so that byte identity across versions is checked
by the suite.

The ``simulate`` and ``verify`` digests were recorded with commit 0be5c78, the
``analyze`` digests with commit 3a79728 and the ``fit`` digests with commit
210c17c, when every fit read its series state by state through
``point_moments``. The ``fit`` cases take the kernel tables on the default
grid and fall back to ``point_moments`` on a grid that starts below the floor
and on a model with an override state on the grid. Outputs are pure functions
of (inputs, seed, version); a change that moves any of these bytes changes the
program's output and must say so where it re-records the digest.
"""

import hashlib
import json

import pytest
from test_label_order import THREE_LABELS

from halfstrip.cli import main

CRW_NULL = {"type": "crw", "q": 0.6, "c_plus": 0.2, "c_minus": 0.2}

SIMULATE_CSV = "0f595c5d5b3e369dea2aaacb30633e28ac51a252f8f948d5d0991ccc8b41fad4"
SIMULATE_SUMMARY = "0a4abd4d959279e6761e678f0d0a6487030c08c7efd40535857facce5631be59"
VERIFY_STDOUT = "abc9883a5ab33946cb797a6f5c05fcb8977440fed3a13a3e24cd688e16c4e9c8"
VERIFY_RATIOS = "8471de52429177bdffbacd42ef11092d47452f21cd017801364830b9d56c156f"

# analyze inputs: a generalized Lamperti tabular model (its report carries the
# centered solution a by label), the CRW with an o(1/x) remainder, and a
# coefficients document that supplies pi
ANALYZE_SPECS = {
    "three-label-reset": {**THREE_LABELS, "labels": ["a", "b", "c"]},
    "remainder-crw": {"type": "crw", "q": 0.6, "c_plus": 0.55, "c_minus": 0.55,
                      "delta": 0.5, "amp": 0.3},
    "coefficients-with-pi": {
        "type": "coefficients", "labels": ["u", "v"],
        "d": [0.2, -0.1], "e": [0.1, -0.2], "t2": [1.0, 0.5],
        "d_cross": [[0.3, -0.1], [0.1, -0.2]], "gamma": [[0.1, -0.1], [-0.05, 0.05]],
        "Q": [[0.6, 0.4], [0.2, 0.8]], "pi": [0.3333333333333333, 0.6666666666666666],
    },
}
ANALYZE_REPORTS = {
    ("three-label-reset", ""):
        "f460b2ee422d320a01555a3b8fce573d8ddeab4d0d6875378d17a9e466b5a445",
    ("three-label-reset", "--refined"):
        "dae3ce2dc1f16f3ea347d2fbe36d5d2977a0ddcdabc572ae5701a5973296eed2",
    ("remainder-crw", ""):
        "2358576c48f934061df628148d66914dcb342bee47953eef9b8ecbe6785eb979",
    ("remainder-crw", "--refined"):
        "34dde7b04a944f79d337be7611143153ebfeb6d02ac6bbc963a9467d5a1f48fd",
    ("coefficients-with-pi", ""):
        "c1871536f100fc630ae7564ac705cb324b4c169290da1522f7f9ddfce68c0ece",
    ("coefficients-with-pi", "--refined"):
        "4f676603e4854e17b60225e53b6d170b4500b03b1178fad1a4e62b55647f0482",
}

# fit inputs: the default grid on the tables, a grid from 2 (below the
# three-label model's floor 3) and an override state at 1000, a grid point
THREE_LABELS_ABC = ANALYZE_SPECS["three-label-reset"]
FIT_CASES = {
    "crw-default-grid": (CRW_NULL, []),
    "three-label-low-grid": (THREE_LABELS_ABC, ["--grid", "2,10,100,1000,1e5"]),
    "three-label-override": ({**THREE_LABELS_ABC, "states": [{"x": 1000, "label": "b", "atoms": [
        {"jump": 1, "next": "a", "prob": 0.5}, {"jump": -2, "next": "c", "prob": 0.5}]}]}, []),
}
FIT_REPORTS = {
    "crw-default-grid": "450b0011626d9c7dc72aa7b0fbf12a1ae8f5631c55b5076d64a27a0a3ad8fd46",
    "three-label-low-grid": "9dd47785034b105e1d606dd313c3baf05d037b7ccb8084cf3912cd62b70325d5",
    "three-label-override": "0794e425305eff5fe94dbc60e9cc7bdd6a968d36ef1481247f3b0bedf0ecd36e",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_simulate_csv_and_summary(tmp_path):
    spec = tmp_path / "crw.json"
    spec.write_text(json.dumps(CRW_NULL))
    csv, summary = tmp_path / "tau.csv", tmp_path / "summary.json"
    assert main([
        "simulate", "--model", str(spec), "--start", "50,1", "--level", "10",
        "--cap", "5000", "--n", "300", "--seed", "7",
        "--out", str(csv), "--summary", str(summary),
    ]) == 0
    # 128 of the 300 walks are censored, so both row forms are pinned
    assert csv.read_bytes().count(b",1,5000\n") == 128
    assert sha256(csv.read_bytes()) == SIMULATE_CSV
    assert sha256(summary.read_bytes()) == SIMULATE_SUMMARY


def test_verify_lyapunov_stdout_and_ratios(tmp_path, capsys):
    spec = tmp_path / "crw.json"
    spec.write_text(json.dumps(CRW_NULL))
    ratios = tmp_path / "ratios.csv"
    assert main([
        "verify", "--model", str(spec), "--start", "50,1", "--level", "10",
        "--cap", "20000", "--n", "400", "--seed", "7", "--lyapunov", "--out", str(ratios),
    ]) == 0
    out = capsys.readouterr().out
    assert "PASS tail-exponent" in out  # the Kaplan-Meier fit ran on these samples
    assert sha256(out.encode()) == VERIFY_STDOUT
    assert sha256(ratios.read_bytes()) == VERIFY_RATIOS


@pytest.mark.parametrize("name,flag", sorted(ANALYZE_REPORTS),
                         ids=[f"{n}{f}" for n, f in sorted(ANALYZE_REPORTS)])
def test_analyze_report(tmp_path, monkeypatch, name, flag):
    monkeypatch.chdir(tmp_path)  # the report records the model path as given
    (tmp_path / "model.json").write_text(json.dumps(ANALYZE_SPECS[name]))
    argv = ["analyze", "--model", "model.json", "--out", "report.json"]
    assert main(argv + ([flag] if flag else [])) == 0
    assert sha256((tmp_path / "report.json").read_bytes()) == ANALYZE_REPORTS[name, flag]


@pytest.mark.parametrize("name", sorted(FIT_REPORTS))
def test_fit_report(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # the report records the model path as given
    spec, flags = FIT_CASES[name]
    (tmp_path / "model.json").write_text(json.dumps(spec))
    assert main(["fit", "--model", "model.json", "--out", "fit.json", *flags]) == 0
    assert sha256((tmp_path / "fit.json").read_bytes()) == FIT_REPORTS[name]
