"""Golden digests: the exact bytes of small ``simulate`` and ``verify --lyapunov``
runs, so that byte identity across versions is checked by the suite.

The digests were recorded with commit 0be5c78. Outputs are pure functions of
(inputs, seed, version); a change that moves any of these bytes changes the
program's output and must say so where it re-records the digest.
"""

import hashlib
import json

from halfstrip.cli import main

CRW_NULL = {"type": "crw", "q": 0.6, "c_plus": 0.2, "c_minus": 0.2}

SIMULATE_CSV = "0f595c5d5b3e369dea2aaacb30633e28ac51a252f8f948d5d0991ccc8b41fad4"
SIMULATE_SUMMARY = "0a4abd4d959279e6761e678f0d0a6487030c08c7efd40535857facce5631be59"
VERIFY_STDOUT = "abc9883a5ab33946cb797a6f5c05fcb8977440fed3a13a3e24cd688e16c4e9c8"
VERIFY_RATIOS = "8471de52429177bdffbacd42ef11092d47452f21cd017801364830b9d56c156f"


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
