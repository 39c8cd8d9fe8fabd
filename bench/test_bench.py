"""Tests of the benchmark's own oracle, checkers and tracing.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import CrwSurvival, crw_closed_form  # noqa: E402

cli = run._import_program()


def _reflection_survival(k: int, t: int) -> float:
    """P(tau > t) for the simple symmetric walk started k above the level:
    by the reflection principle, P(-k <= S_t <= k - 1)."""
    return sum(math.comb(t, b) for b in range(t + 1) if -k <= 2 * b - t <= k - 1) / 2**t


@pytest.mark.parametrize("start", [11, 12, 17])
def test_oracle_matches_reflection_principle(start):
    level, t_max = 10, 200
    oracle = CrwSurvival(0.5, 0.0, 0.0, start, -1, level, t_max, x_max=start + t_max)
    for t in range(t_max + 1):
        alive, escaped = oracle.survival(t)
        assert escaped == 0.0
        assert alive == pytest.approx(_reflection_survival(start - level, t), abs=1e-12)


def test_oracle_truncation_brackets_the_full_lattice():
    full = CrwSurvival(0.6, 0.2, 0.2, 30, 1, 10, 3000)
    cut = CrwSurvival(0.6, 0.2, 0.2, 30, 1, 10, 3000, x_max=90)
    for t in (100, 1000, 3000):
        exact, _ = full.survival(t)
        alive, escaped = cut.survival(t)
        assert escaped > 0.0
        assert alive - 1e-12 <= exact <= alive + escaped + 1e-12


def _analyze(tmp_path, spec):
    model, out = tmp_path / "m.json", tmp_path / "r.json"
    model.write_text(json.dumps(spec))
    assert cli.main(["analyze", "--model", str(model), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_closed_form_checker_rejects_a_moved_u(tmp_path):
    spec = workloads._crw(0.62, 0.45)
    report = _analyze(tmp_path, spec)
    assert workloads.check_analysis(report, spec) == []
    report["classification"]["U"] += 1e-6
    assert any(b.startswith("U ") for b in workloads.check_analysis(report, spec))


def test_remainder_cell_fails_the_checker(tmp_path):
    q, c, delta, amp = workloads.REMAINDER_CELLS[0]
    spec = workloads._crw(q, c, delta, amp)
    assert crw_closed_form(q, c, c)["verdict"] == "NullRecurrent"
    bad = workloads.check_analysis(_analyze(tmp_path, spec), spec)
    assert "verdict Transient != NullRecurrent" in bad


def _small_simulate(name, q, c, start, cap, n, times):
    return workloads._simulate(name, 3, q=q, c=c, start=start, level=10, cap=cap, n=n,
                               times=times)


@pytest.mark.parametrize("wl", [
    _small_simulate("simulate-return", 0.6, -1.0, 12, 100_000, 3000, (2, 8, 32, 128)),
    _small_simulate("simulate-dense", 0.6, 1.5, 50, 600, 600, (40, 100, 600)),
])
def test_traced_run_keeps_bytes_and_counts_every_step(wl, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, spec in wl.specs.items():
        Path(name).write_text(json.dumps(spec))
    _, stdout, codes = run.run_unit(cli, wl)
    assert codes == [0]
    outcome = wl.check(tmp_path, stdout)
    assert outcome.problems == []
    plain = run._snapshot(wl, stdout)

    tracer = layers.Tracer()
    with layers.installed(tracer):
        _, stdout, codes = run.run_unit(cli, wl)
    assert codes == [0]
    assert run._snapshot(wl, stdout) == plain
    stepped = tracer.counts["live_rows"] + tracer.calls["model.step_scalar"]
    csv_steps = sum(int(row.rsplit(b",", 1)[1]) for row in plain[0].splitlines()[1:])
    assert stepped == csv_steps == outcome.ops
    metrics = layers.per_layer_metrics(tracer)
    assert metrics["sim.rng.streams"][0] == len(plain[0].splitlines()) - 1
    assert 0 < metrics["sim.uniform_use_ratio"][0] <= 1


def test_wrappers_are_removed_on_exit():
    import halfstrip.model
    import numpy as np

    before = (cli.main, halfstrip.model.ChainModel.step_batch, np.random.Generator)
    with layers.installed(layers.Tracer()):
        assert cli.main is not before[0]
    assert (cli.main, halfstrip.model.ChainModel.step_batch, np.random.Generator) == before


def test_survival_check_flags_a_biased_sample():
    oracle = CrwSurvival(0.6, -1.0, -1.0, 12, 1, 10, 64)
    rows = ["tau,censored,steps"] + ["2,0,2"] * 1000  # every walk returns at once
    problems, total, censored = workloads.check_passage_csv(
        "\n".join(rows) + "\n", 1000, 12, 10, 100, oracle, (2, 8))
    assert total == 2000 and censored == 0
    assert any(p.startswith("P(tau > 2)") for p in problems)
