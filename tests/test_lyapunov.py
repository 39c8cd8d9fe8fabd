import math

import numpy as np
import pytest

from halfstrip import (
    LampertiCoefficients,
    State,
    StochasticMatrix,
    WrongSignError,
    choose_b,
    expected_f_increment,
    f_nu,
    fit_asymptotics,
    lyapunov_spec,
    make_crw,
    make_tabular,
    shift_model,
    stationary_distribution,
    transform_generalized,
    verify_drift_estimate,
)

GRID = tuple(float(x) for x in np.logspace(2, 5, 7))

SYMMETRIC_WALK = make_tabular({
    "type": "tabular",
    "labels": [0],
    "boundary": "clip",
    "lines": {"0": [
        {"jump": 1, "next": 0, "prob": 0.5},
        {"jump": -1, "next": 0, "prob": 0.5},
    ]},
})
SINGLE = StochasticMatrix((0,), [[1.0]])
PI_SINGLE = stationary_distribution(SINGLE)
WALK_LC = LampertiCoefficients((0,), [0.0], [1.0], SINGLE, PI_SINGLE)

CRW = make_crw(0.6, 0.2, 0.2)
CRW_LC, CRW_A = transform_generalized(fit_asymptotics(CRW))
CRW_SHIFTED = shift_model(CRW, CRW_A.as_dict())


def drift_model(c):
    """Single line with drift exactly c/x and unit jumps."""
    return make_tabular({
        "type": "tabular",
        "labels": [0],
        "boundary": "clip",
        "lines": {"0": [
            {"jump": 1, "next": 0, "prob": {"const": 0.5, "inv_x": c / 2}},
            {"jump": -1, "next": 0, "prob": {"const": 0.5, "inv_x": -c / 2}},
        ]},
    })


class TestFNu:
    def test_zero_b_is_pure_power(self):
        spec = lyapunov_spec(0.7, {0: 0.0})
        assert spec.x0 == 1.0
        for x in (1.0, 2.5, 100.0):
            assert f_nu(spec, State(x, 0)) == pytest.approx(x**0.7, abs=1e-15)

    def test_reference_value(self):
        spec = lyapunov_spec(2.0, {0: 1.0, 1: 1.0})
        assert spec.x0 == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-15)
        assert f_nu(spec, State(4.0, 0)) == pytest.approx(17.0, abs=1e-12)

    def test_frozen_below_x0(self):
        spec = lyapunov_spec(2.0, {0: 1.0})
        below = f_nu(spec, State(0.5, 0))
        assert below == f_nu(spec, State(spec.x0, 0))

    def test_envelope_bounds(self):
        # k1 (1+x)^nu <= f <= k2 (1+x)^nu with positive finite constants
        for nu in (-0.5, 0.5, 2.0):
            spec = lyapunov_spec(nu, {0: 0.8, 1: -0.6})
            xs = np.concatenate([np.linspace(0, 5, 101), np.logspace(1, 5, 41)])
            ratios = np.array(
                [f_nu(spec, State(float(x), lab)) / (1 + x) ** nu
                 for x in xs for lab in (0, 1)]
            )
            k1, k2 = ratios.min(), ratios.max()
            assert 0.0 < k1 <= k2 < math.inf
            assert np.all(ratios >= k1) and np.all(ratios <= k2)


class TestChooseB:
    def test_single_line_uniform(self):
        lc = LampertiCoefficients((0,), [-1.0], [1.0], SINGLE, PI_SINGLE)
        b = choose_b(lc, nu=1.0, direction="negative")
        assert b[0] == pytest.approx(0.0, abs=1e-12)

    def test_transformed_crw_uniform_bracket(self):
        # u_i = 2(0.25) + (nu-1)(1.5) = -0.25 at nu = 0.5, both lines
        b = choose_b(CRW_LC, nu=0.5, direction="negative")
        assert b[1] == pytest.approx(0.0, abs=1e-9)
        assert b[-1] == pytest.approx(0.0, abs=1e-9)

    def test_wrong_sign_at_critical_exponent(self):
        # c = 0.25, s2 = 1 puts the critical exponent at nu = 1/2, where
        # u = 2c + (nu - 1) s2 is exactly zero: no strict b exists
        Q = StochasticMatrix((0, 1), [[0.5, 0.5], [0.5, 0.5]])
        lc = LampertiCoefficients(
            (0, 1), [0.25, 0.25], [1.0, 1.0], Q, stationary_distribution(Q),
        )
        with pytest.raises(WrongSignError):
            choose_b(lc, nu=0.5, direction="negative")

    def test_nonuniform_checked_by_substitution(self):
        Q = StochasticMatrix((0, 1), [[0.6, 0.4], [0.4, 0.6]])
        pi = stationary_distribution(Q)
        lc = LampertiCoefficients((0, 1), [0.5, -1.0], [0.0, 1.0], Q, pi)
        b = choose_b(lc, nu=1.0, direction="negative")
        bvec = np.array([b[k] for k in lc.labels])
        slack = 2 * lc.c + 0.0 * lc.s2 + ((bvec - bvec[:, None]) * Q.entries).sum(axis=1)
        assert (slack < 0).all()


class TestExpectedIncrement:
    def test_second_difference_identity(self):
        spec = lyapunov_spec(2.0, {0: 0.0})
        # E[(x +/- 1)^2 - x^2] = 1 for the symmetric walk
        assert expected_f_increment(SYMMETRIC_WALK, spec, State(100.0, 0)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_zero_drift_first_power(self):
        spec = lyapunov_spec(1.0, {0: 0.0})
        assert expected_f_increment(SYMMETRIC_WALK, spec, State(100.0, 0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_drift_times_x_converges_to_c(self):
        c = -0.8
        model = drift_model(c)
        spec = lyapunov_spec(1.0, {0: 0.0})
        for x in (1e3, 1e4, 1e5):
            inc = expected_f_increment(model, spec, State(x, 0))
            assert inc * x == pytest.approx(c, rel=1e-9)

    def test_crw_increment_matches_leading_term(self):
        spec = lyapunov_spec(2.0, {1: 0.0, -1: 0.0})
        x = 1e4
        inc = expected_f_increment(CRW_SHIFTED, spec, State(x, 1))
        up = CRW_LC.labels.index(1)
        bracket = 2 * CRW_LC.c[up] + 1.0 * CRW_LC.s2[up]
        assert inc == pytest.approx(bracket, rel=2e-3)


class TestVerifyDriftEstimate:
    def test_symmetric_walk_exact_ratio(self):
        spec = lyapunov_spec(2.0, {0: 0.0})
        rep = verify_drift_estimate(SYMMETRIC_WALK, WALK_LC, spec, grid=GRID)
        assert rep.passed
        # exact up to square-difference cancellation noise
        for _, err in rep.worst_error_by_x:
            assert err <= 1e-6

    @pytest.mark.parametrize("nu,b", [
        (1.0, {1: 0.0, -1: 0.0}),
        (2.0, {1: 0.0, -1: 0.0}),
        (2.0 / 3.0, {1: 1.0, -1: 0.0}),
    ])
    def test_transformed_crw_ratios(self, nu, b):
        rep = verify_drift_estimate(CRW_SHIFTED, CRW_LC, lyapunov_spec(nu, b), grid=GRID)
        assert rep.passed, rep.notes
        assert rep.final_error() <= 0.05

    def test_degenerate_bracket_reported_not_failed(self):
        # at nu = 2 theta* with constant b every bracket vanishes
        spec = lyapunov_spec(2.0 / 3.0, {1: 0.0, -1: 0.0})
        rep = verify_drift_estimate(CRW_SHIFTED, CRW_LC, spec, grid=GRID)
        assert not rep.passed
        assert set(rep.degenerate_labels) == {1, -1}
        assert "undefined" in rep.notes

    def test_convergence_order_one_over_x(self):
        # kernels exactly affine in 1/x: |ratio - 1| shrinks by ~sqrt(10)
        # per half-decade grid step
        rep = verify_drift_estimate(
            CRW_SHIFTED, CRW_LC, lyapunov_spec(1.0, {1: 0.0, -1: 0.0}), grid=GRID
        )
        errors = [err for _, err in rep.worst_error_by_x]
        for k in range(len(errors) - 1):
            assert 2.2 <= errors[k] / errors[k + 1] <= 4.5

    def test_supermartingale_property_below_critical(self):
        # nu = p ^ 2 theta with theta < theta*: increments are negative at
        # every large-x grid state with the constructed b
        nu = 0.6
        b = choose_b(CRW_LC, nu=nu, direction="negative")
        spec = lyapunov_spec(nu, b)
        for x in np.logspace(2, 5, 7):
            for lab in (1, -1):
                assert expected_f_increment(CRW_SHIFTED, spec, State(float(x), lab)) < 0.0
