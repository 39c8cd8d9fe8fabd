"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Master seeds are frozen so every number here is reproducible.
The heavy Monte Carlo criteria (5-7) take a few minutes combined.
"""

import json
import time

import numpy as np
import pytest

from halfstrip import (
    PassageSample,
    State,
    Verdict,
    classify_generalized,
    classify_lamperti,
    compute_uv,
    empirical_moment,
    fit_asymptotics,
    lyapunov_spec,
    make_crw,
    make_tabular,
    sample_passage_times,
    shift_model,
    solve_poisson,
    stationary_distribution,
    tail_exponent,
    transform_generalized,
    verify_drift_estimate,
)
from halfstrip.cli import main
from halfstrip.sim import _horizon_chunk
from conftest import centered_vector, random_generalized_coefficients, random_irreducible

SEED = 202408

REFLECTED_WALK = {
    "type": "tabular",
    "labels": [0],
    "boundary": "clip",
    "lines": {"0": [
        {"jump": 1, "next": 0, "prob": 0.5},
        {"jump": -1, "next": 0, "prob": 0.5},
    ]},
}


def _report(criterion, elapsed, detail):
    print(f"\nCRITERION {criterion} PASS ({elapsed:.2f}s): {detail}")


def _censor_at(samples, cap):
    out = []
    for s in samples:
        if s.tau is not None and s.tau <= cap:
            out.append(PassageSample(s.tau, False, cap, s.start, s.level, s.tau))
        else:
            out.append(PassageSample(None, True, cap, s.start, s.level, cap))
    return out


@pytest.fixture(scope="session")
def crw_null_samples():
    model = make_crw(0.6, 0.2, 0.2)
    return sample_passage_times(
        model, State(50.0, 1), 10.0, cap=1_000_000, n=10_000,
        master_seed=SEED, workers=2,
    )


def test_criterion_1_phase_diagram():
    t0 = time.perf_counter()
    mismatches = []
    excluded = 0
    for q in np.linspace(0.1, 0.9, 21):
        for c in np.linspace(-1.5, 1.5, 21):
            if abs(abs(c) - q) < 1e-9:
                excluded += 1
                continue
            coeffs = fit_asymptotics(make_crw(float(q), float(c), float(c)))
            got = classify_generalized(coeffs, refined=True, tol=1e-6).verdict
            want = (
                Verdict.POSITIVE_RECURRENT if c < -q
                else Verdict.TRANSIENT if c > q
                else Verdict.NULL_RECURRENT
            )
            if got is not want:
                mismatches.append((float(q), float(c), got.value, want.value))
    elapsed = time.perf_counter() - t0
    assert not mismatches, mismatches
    assert elapsed < 1.0, f"phase diagram took {elapsed:.2f}s (required < 1s)"
    _report(1, elapsed, f"441-cell phase diagram, {excluded} boundary cells excluded, 0 mismatches")


def test_criterion_2_golden_numbers():
    t0 = time.perf_counter()
    coeffs = fit_asymptotics(make_crw(0.6, 0.2, 0.2))
    assert coeffs.pi[1] == pytest.approx(0.5, abs=1e-10)
    assert coeffs.pi[-1] == pytest.approx(0.5, abs=1e-10)
    lc, a = transform_generalized(coeffs)
    assert a[1] == pytest.approx(0.5, abs=1e-10)    # (2q-1)/(1-q) at q=0.6
    assert a[-1] == pytest.approx(0.0, abs=1e-10)
    U, V = compute_uv(coeffs, a)
    assert U == pytest.approx(0.5, abs=1e-10)       # (c_+ + c_-)/(2(1-q))
    assert V == pytest.approx(1.5, abs=1e-10)       # q/(1-q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, elapsed, f"pi=(1/2,1/2), a=(0.5,0), U={U:.12f}, V={V:.12f}")


def test_criterion_3_translation_invariance_and_residuals():
    t0 = time.perf_counter()
    coeffs = fit_asymptotics(make_crw(0.6, 0.2, 0.2))
    _, a = transform_generalized(coeffs)
    U0, V0 = compute_uv(coeffs, a)
    rng = np.random.default_rng(SEED)
    for shift in rng.uniform(-50, 50, size=20):
        U, V = compute_uv(coeffs, a.values + shift)
        assert abs(U - U0) <= 1e-10
        assert abs(V - V0) <= 1e-10
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        Q = random_irreducible(rng, n)
        pi = stationary_distribution(Q)
        sol = solve_poisson(Q, centered_vector(rng, pi), pi=pi)
        worst = max(worst, sol.residual)
    assert worst <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, elapsed, f"20 shifts exact to 1e-10; worst residual over 100 systems {worst:.2e}")


def test_criterion_4_transform_direct_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 4)
    for _ in range(200):
        coeffs = random_generalized_coefficients(rng)
        lc, a = transform_generalized(coeffs)
        direct = classify_generalized(coeffs, refined=True)
        via = classify_lamperti(lc, refined=True)
        assert direct.verdict is via.verdict
        assert abs(direct.U - via.U) <= 1e-10 * max(1.0, abs(via.U))
        assert abs(direct.V - via.V) <= 1e-10 * max(1.0, abs(via.V))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(4, elapsed, "200 randomized coefficient sets: verdicts equal, (U,V) match to 1e-10")


def test_criterion_5_classical_passage_tail():
    t0 = time.perf_counter()
    walk = make_tabular(REFLECTED_WALK)
    samples = sample_passage_times(
        walk, State(20.0, 0), 0.0, cap=1_000_000, n=10_000,
        master_seed=SEED, workers=2,
    )
    est = tail_exponent(samples)
    elapsed = time.perf_counter() - t0
    assert 0.40 <= est.exponent <= 0.60, est
    assert elapsed < 180.0
    _report(5, elapsed, f"reflected-walk tail exponent {est.exponent:.4f} in [0.40, 0.60] (truth 0.5)")


def test_criterion_6_predicted_tail_and_moments(crw_null_samples):
    t0 = time.perf_counter()
    samples = crw_null_samples
    est = tail_exponent(samples)
    assert 0.21 <= est.exponent <= 0.45, est

    details = [f"tail exponent {est.exponent:.4f} in [0.21, 0.45] (theta*=1/3)"]
    for s, lo_ratio, hi_ratio in ((0.2, 0.95, 1.05), (0.6, 1.20, np.inf)):
        m_q, _ = empirical_moment(_censor_at(samples, 250_000), s)
        m_h, _ = empirical_moment(_censor_at(samples, 500_000), s)
        m_f, _ = empirical_moment(samples, s)
        for ratio in (m_h / m_q, m_f / m_h):
            assert lo_ratio <= ratio <= hi_ratio, (s, ratio)
        details.append(f"E[min(tau,C)^{s}] doubling ratios {m_h/m_q:.4f}, {m_f/m_h:.4f}")
    elapsed = time.perf_counter() - t0
    _report(6, elapsed, "; ".join(details))


def test_criterion_7_transient_endpoint():
    t0 = time.perf_counter()
    model = make_crw(0.6, 1.5, 1.5)
    samples = sample_passage_times(
        model, State(50.0, 1), 10.0, cap=1_000_000, n=4_000,
        master_seed=SEED, workers=2,
    )
    censored = sum(s.censored for s in samples) / len(samples)
    assert censored > 0.5, censored
    # escape is diffusive in scale: the squared position doubles per
    # horizon doubling (linear median growth of X^2)
    snaps = _horizon_chunk(model, 50.0, 0, (100_000, 200_000), SEED, 0, 4000)
    sq_ratio = float(np.median(snaps[200_000] ** 2) / np.median(snaps[100_000] ** 2))
    elapsed = time.perf_counter() - t0
    assert 1.8 <= sq_ratio <= 2.2, sq_ratio
    assert elapsed < 180.0
    _report(
        7, elapsed,
        f"transient: censored fraction {censored:.4f} > 0.5, "
        f"median squared-position doubling ratio {sq_ratio:.4f} in [1.8, 2.2]",
    )


def test_criterion_7_positive_recurrent_endpoint():
    t0 = time.perf_counter()
    model = make_crw(0.6, -1.0, -1.0)
    samples = sample_passage_times(
        model, State(50.0, 1), 10.0, cap=1_000_000, n=10_000,
        master_seed=SEED, workers=2,
    )
    censored = sum(s.censored for s in samples) / len(samples)
    assert censored < 0.001, censored
    steps = np.array([s.steps for s in samples], dtype=float)
    ratio = float(np.mean(np.minimum(steps, 1_000_000)) / np.mean(np.minimum(steps, 500_000)))
    elapsed = time.perf_counter() - t0
    assert 0.9 <= ratio <= 1.1, ratio
    assert elapsed < 180.0
    _report(
        7, elapsed,
        f"positive-recurrent: censored fraction {censored:.6f} < 0.1%, "
        f"mean return time cap-doubling ratio {ratio:.4f} in [0.9, 1.1]",
    )


def test_criterion_8_increment_estimate_ratios():
    t0 = time.perf_counter()
    model = make_crw(0.6, 0.2, 0.2)
    lc, a = transform_generalized(fit_asymptotics(model))
    shifted = shift_model(model, a.as_dict())
    details = []
    for nu, b in (
        (2.0 / 3.0, {1: 1.0, -1: 0.0}),   # constant b has zero bracket at 2*theta*
        (1.0, {1: 0.0, -1: 0.0}),
        (2.0, {1: 0.0, -1: 0.0}),
    ):
        rep = verify_drift_estimate(shifted, lc, lyapunov_spec(nu, b))
        errors = [err for _, err in rep.worst_error_by_x]
        assert rep.passed, (nu, rep.notes)
        assert errors[-1] <= 0.05
        assert all(errors[k + 1] < errors[k] for k in range(len(errors) - 1)), (nu, errors)
        details.append(f"nu={nu:.3g}: |ratio-1| {errors[0]:.2e} -> {errors[-1]:.2e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(8, elapsed, "; ".join(details))


def test_criterion_9_byte_reproducibility(tmp_path):
    t0 = time.perf_counter()
    spec = tmp_path / "crw.json"
    spec.write_text(json.dumps({"type": "crw", "q": 0.6, "c_plus": 0.2, "c_minus": 0.2}))
    outputs = []
    for name, threads in (("run1.csv", "1"), ("run2.csv", "1"), ("run8.csv", "8")):
        out = tmp_path / name
        code = main([
            "simulate", "--model", str(spec), "--start", "50,1", "--level", "10",
            "--cap", "50000", "--n", "600", "--seed", str(SEED),
            "--threads", threads, "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    assert outputs[0] == outputs[1], "re-run with identical seed changed the CSV"
    assert outputs[0] == outputs[2], "thread count changed the CSV"
    _report(9, elapsed, f"CSV byte-identical across two runs and --threads 1 vs 8 ({len(outputs[0])} bytes)")
