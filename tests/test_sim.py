import io
import math

import numpy as np
import pytest

import halfstrip.sim as sim
from halfstrip import (
    EstimationError,
    PassageSample,
    State,
    empirical_moment,
    make_crw,
    make_tabular,
    recurrence_diagnostic,
    sample_passage_times,
    simulate,
    step_frequencies,
    tail_exponent,
    write_samples_csv,
)

CRW = make_crw(0.6, 0.2, 0.2)

REFLECTED = make_tabular({
    "type": "tabular",
    "labels": [0],
    "boundary": "clip",
    "lines": {"0": [
        {"jump": 1, "next": 0, "prob": 0.5},
        {"jump": -1, "next": 0, "prob": 0.5},
    ]},
})


def synthetic_samples(values, cap=10**9):
    return [
        PassageSample(tau=int(v), censored=False, cap=cap, start=State(1.0, 0),
                      level=0.0, steps=int(v))
        for v in values
    ]


class TestSimulate:
    def test_zero_horizon(self):
        tr = simulate(CRW, State(10.0, 1), 0, seed=1)
        assert len(tr) == 1
        assert tr.state(0) == State(10.0, 1)

    def test_reproducible(self):
        a = simulate(CRW, State(10.0, 1), 5000, seed=42)
        b = simulate(CRW, State(10.0, 1), 5000, seed=42)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.label_indices, b.label_indices)

    def test_deterministic_kernel_ignores_seed(self):
        conveyor = make_tabular({
            "type": "tabular",
            "labels": [0],
            "boundary": "clip",
            "lines": {"0": [{"jump": 1, "next": 0, "prob": 1.0}]},
        })
        a = simulate(conveyor, State(0.0, 0), 100, seed=1)
        b = simulate(conveyor, State(0.0, 0), 100, seed=999)
        assert np.array_equal(a.positions, b.positions)
        assert a.positions[-1] == 100.0

    def test_steps_connected_by_kernel_atoms(self):
        tr = simulate(CRW, State(10.0, 1), 500, seed=3)
        for n in range(500):
            x, lab = tr.state(n)
            atoms = CRW.distribution(x, lab).atoms
            nxt = tr.state(n + 1)
            assert any(
                nxt.position == x + a.jump and nxt.label == a.next_label
                for a in atoms
            )

    def test_crw_jump_frequency_along_trajectory(self):
        # fraction of up-moves from label +1 near x = 100 concentrates at
        # q + c/(2x) ~ 0.601; the window is wide because the walk is
        # null-recurrent and wanders
        tr = simulate(CRW, State(100.0, 1), 1_000_000, seed=11)
        ups = total = 0
        for n in range(len(tr) - 1):
            x, lab = tr.positions[n], tr.label_indices[n]
            if lab == 0 and 80.0 <= x <= 120.0:  # label index 0 is +1
                total += 1
                ups += tr.positions[n + 1] > x
        assert total > 3_000
        p = 0.6 + 0.2 / (2 * 100.0)
        sd = math.sqrt(p * (1 - p) / total)
        # extra 0.0005 covers the drift of p(x) across the window
        assert abs(ups / total - p) < 4 * sd + 0.0005


class TestStepFrequencies:
    def test_matches_kernel_within_four_sigma(self):
        for x0, lab in ((100.0, 1), (10.0, -1), (2.0, 1)):
            dist = CRW.distribution(x0, lab)
            n = 1_000_000
            counts = step_frequencies(CRW, State(x0, lab), n, seed=5)
            assert sum(counts.values()) == n
            for a in dist.atoms:
                emp = counts.get((a.jump, a.next_label), 0) / n
                sd = math.sqrt(a.prob * (1 - a.prob) / n)
                assert abs(emp - a.prob) <= 4 * sd


class TestPassageSampling:
    def test_already_below_level(self):
        samples = sample_passage_times(CRW, State(5.0, 1), 10.0, cap=100, n=7, master_seed=1)
        assert all(s.tau == 0 and not s.censored for s in samples)

    def test_reproducible_across_everything(self):
        base = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=20_000, n=300, master_seed=9)
        for kwargs in (
            {"workers": 2},
            {"block": 256},
            {"batch_size": 64},
            {"workers": 2, "block": 512, "batch_size": 37},
        ):
            other = sample_passage_times(
                CRW, State(30.0, 1), 5.0, cap=20_000, n=300, master_seed=9, **kwargs
            )
            assert [(s.tau, s.censored, s.steps) for s in other] == [
                (s.tau, s.censored, s.steps) for s in base
            ]

    def test_scalar_tail_matches_vector(self, monkeypatch):
        ref = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=50_000, n=40, master_seed=4)
        monkeypatch.setattr(sim, "SCALAR_TAIL", 0)
        vec = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=50_000, n=40, master_seed=4)
        assert [(s.tau, s.censored) for s in ref] == [(s.tau, s.censored) for s in vec]

    def test_tau_definition_on_replayed_streams(self):
        # tau = min{n : X_n <= level}: replay each trajectory one uniform per
        # step from its own stream and find its first hit independently
        cap = 50_000
        samples = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=cap, n=25, master_seed=2)
        for k, s in enumerate(samples):
            u = sim._stream(2, sim._DOMAIN_PASSAGE, k).random(cap)
            x, li, first_hit = 30.0, CRW.label_index(1), None
            for t in range(cap):
                x, li = CRW.step_scalar(x, li, float(u[t]))
                if x <= 5.0:
                    first_hit = t + 1
                    break
            assert s.tau == first_hit
            assert s.censored == (first_hit is None)

    def test_censoring_flags(self):
        samples = sample_passage_times(CRW, State(200.0, 1), 1.0, cap=50, n=20, master_seed=3)
        assert all(s.censored and s.tau is None and s.steps == 50 for s in samples)


class TestEmpiricalMoment:
    def test_zeroth_moment_is_one(self):
        samples = synthetic_samples([1, 5, 9])
        est, flag = empirical_moment(samples, 0.0)
        assert est == 1.0 and not flag

    def test_lower_bound_flag(self):
        samples = synthetic_samples([4, 4]) + [
            PassageSample(tau=None, censored=True, cap=10, start=State(1.0, 0),
                          level=0.0, steps=10)
        ]
        est, flag = empirical_moment(samples, 1.0)
        assert flag
        assert est == pytest.approx((4 + 4 + 10) / 3)


class TestTailExponent:
    def test_pareto_synthetic(self, rng):
        # P(tau > t) = t^(-0.5): inverse-CDF draws
        u = rng.random(20_000)
        taus = np.ceil(u ** (-2.0)).astype(int)
        est = tail_exponent(synthetic_samples(taus))
        assert est.power_law_ok
        assert abs(est.exponent - 0.5) < 0.05

    def test_hill_cross_check(self, rng):
        u = rng.random(20_000)
        taus = np.ceil(u ** (-1.25)).astype(int)   # exponent 0.8
        est = tail_exponent(synthetic_samples(taus), method="hill")
        assert est.method == "hill"
        assert abs(est.exponent - 0.8) < 0.1

    def test_geometric_flagged_as_non_power_law(self, rng):
        taus = rng.geometric(0.001, size=20_000)
        est = tail_exponent(synthetic_samples(taus))
        assert not est.power_law_ok
        assert "power law" in est.note

    def test_needs_uncensored_mass(self):
        with pytest.raises(EstimationError):
            tail_exponent(synthetic_samples([3, 4, 5]))

    def test_censored_enter_survival_as_censored(self, rng):
        u = rng.random(30_000)
        taus = np.ceil(u ** (-2.0)).astype(int)
        cap = 2000
        censored = [
            PassageSample(
                tau=int(t) if t <= cap else None,
                censored=t > cap,
                cap=cap,
                start=State(1.0, 0),
                level=0.0,
                steps=int(min(t, cap)),
            )
            for t in taus
        ]
        est = tail_exponent(censored, window=(0.5, 0.995))
        assert est.censored_fraction > 0.01
        assert abs(est.exponent - 0.5) < 0.06


class TestRecurrenceDiagnostic:
    def test_positive_recurrent_call(self):
        model = make_crw(0.6, -1.0, -1.0)
        rep = recurrence_diagnostic(
            model, State(50.0, 1), 10.0,
            cap=20_000, horizon=5_000, n_passage=400, n_paths=100, master_seed=1,
        )
        assert rep.empirical_call == "returning-with-stable-mean"
        # return times have a polynomial tail with exponent 4/3 here, so a
        # percent-level censored fraction at this small cap is expected
        assert rep.censored_fraction < 0.03
        assert 0.9 <= rep.mean_return_ratio <= 1.1

    def test_transient_call(self):
        model = make_crw(0.6, 1.5, 1.5)
        rep = recurrence_diagnostic(
            model, State(50.0, 1), 10.0,
            cap=20_000, horizon=5_000, n_passage=400, n_paths=100, master_seed=1,
        )
        assert rep.empirical_call == "escaping"
        assert rep.censored_fraction > 0.5

    def test_null_recurrent_call(self):
        rep = recurrence_diagnostic(
            CRW, State(50.0, 1), 10.0,
            cap=40_000, horizon=5_000, n_passage=500, n_paths=100, master_seed=1,
        )
        assert rep.empirical_call == "returning-with-diverging-mean"
        assert rep.mean_return_ratio > 1.1


class TestCsv:
    def test_format_and_blank_tau_for_censored(self):
        samples = synthetic_samples([3]) + [
            PassageSample(tau=None, censored=True, cap=9, start=State(1.0, 0),
                          level=0.0, steps=9)
        ]
        buf = io.StringIO()
        write_samples_csv(samples, buf)
        assert buf.getvalue() == "tau,censored,steps\n3,0,3\n,1,9\n"
