import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfstrip import (
    AsymptoticCoefficients,
    RegimeTag,
    ShiftedChainModel,
    check_regime,
    fit_asymptotics,
    make_crw,
    make_tabular,
    point_moments,
)
from halfstrip import drift
from test_lanes import POW_REPRO, _centered

CRW = make_crw(0.6, 0.2, 0.2)

SYMMETRIC_WALK = make_tabular({
    "type": "tabular",
    "labels": [0],
    "boundary": "clip",
    "lines": {"0": [
        {"jump": 1, "next": 0, "prob": 0.5},
        {"jump": -1, "next": 0, "prob": 0.5},
    ]},
})


def at(co, *labels):
    """Index of ``labels`` in ``co``'s arrays; CRW labels are (1, -1), so a raw
    ``co.d[-1]`` would silently read position 1."""
    return tuple(co.labels.index(k) for k in labels)


class TestPointMoments:
    def test_crw_reference_state(self):
        pm = point_moments(CRW, 10.0)
        up, down = at(CRW, 1, -1)
        # (2q - 1) + c_+/x = 0.2 + 0.02
        assert pm.mu[up] == pytest.approx(0.22, abs=1e-15)
        assert pm.sigma2[up] == pytest.approx(1.0, abs=1e-15)
        assert pm.mu_cross[up, up] == pytest.approx(0.61, abs=1e-15)
        assert pm.mu_cross[up, down] == pytest.approx(-0.39, abs=1e-15)
        assert pm.q[up, up] == pytest.approx(0.61, abs=1e-15)

    def test_row_identities(self):
        pm = point_moments(CRW, 314.0)
        assert pm.mu.shape == pm.sigma2.shape == (2,)
        assert pm.mu_cross.shape == pm.q.shape == (2, 2)
        assert np.allclose(pm.q.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(pm.mu_cross.sum(axis=1), pm.mu, atol=1e-12)
        assert (pm.sigma2 >= 0.0).all()

    def test_non_finite_moment_rejected(self):
        huge = make_tabular({
            "type": "tabular", "labels": [0],
            "lines": {"0": [{"jump": 1e160, "next": 0, "prob": 0.5},
                            {"jump": -1, "next": 0, "prob": 0.5}]},
        })
        with pytest.raises(ValueError, match="second moment .* is not finite"):
            point_moments(huge, 100.0)


class TestFitAsymptotics:
    def test_crw_closed_forms(self):
        co = fit_asymptotics(CRW)
        up, down = at(co, 1, -1)
        # d_i = i(2q-1), e_i = c_i, t2_i = 1, gamma_ij = j c_i / 2
        assert co.d[up] == pytest.approx(0.2, abs=1e-10)
        assert co.d[down] == pytest.approx(-0.2, abs=1e-10)
        assert co.e[up] == pytest.approx(0.2, abs=1e-10)
        assert co.e[down] == pytest.approx(0.2, abs=1e-10)
        assert co.t2[up] == pytest.approx(1.0, abs=1e-10)
        assert co.gamma[up, up] == pytest.approx(0.1, abs=1e-10)
        assert co.gamma[up, down] == pytest.approx(-0.1, abs=1e-10)
        assert np.allclose(co.Q_limit, [[0.6, 0.4], [0.4, 0.6]], atol=1e-10)
        assert co.pi[up] == pytest.approx(0.5, abs=1e-10)
        assert not co.warnings

    def test_crw_asymmetric_closed_forms(self):
        q, cp, cm = 0.7, 0.3, -0.1
        co = fit_asymptotics(make_crw(q, cp, cm))
        for i, c_i in ((1, cp), (-1, cm)):
            (a,) = at(co, i)
            assert co.d[a] == pytest.approx(i * (2 * q - 1), abs=1e-10)
            assert co.e[a] == pytest.approx(c_i, abs=1e-10)
            for j in (1, -1):
                (b,) = at(co, j)
                assert co.gamma[a, b] == pytest.approx(j * c_i / 2, abs=1e-10)
                # cross-drift limits are j * q_ij
                qij = q if j == i else 1 - q
                assert co.d_cross[a, b] == pytest.approx(j * qij, abs=1e-10)

    def test_symmetric_walk_trivial(self):
        co = fit_asymptotics(SYMMETRIC_WALK)
        assert co.d.tolist() == pytest.approx([0.0], abs=1e-12)
        assert co.e.tolist() == pytest.approx([0.0], abs=1e-12)
        assert co.t2.tolist() == pytest.approx([1.0], abs=1e-12)
        assert co.gamma.tolist() == [pytest.approx([0.0], abs=1e-12)]

    def test_one_least_squares_solve(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        fit_asymptotics(CRW)
        assert len(calls) == 1

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="4 points"):
            fit_asymptotics(CRW, grid=(1e2, 1e3, 1e4))
        with pytest.raises(ValueError, match="two decades"):
            fit_asymptotics(CRW, grid=(1e2, 2e2, 3e2, 4e2))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_grid_points_finite_and_positive(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and positive"):
                fit_asymptotics(CRW, grid=(bad, 1e2, 1e3, 1e4, 1e5))

    def test_power_correction_decays_like_sqrt_ten_per_decade(self):
        # with an extra amp * x^(-1.5) term the fitted coefficients move by
        # O(grid_min^-0.5); pushing the grid up one decade shrinks the gap
        # by about sqrt(10)
        gaps = []
        for lo, hi in ((2, 5), (3, 6)):
            grid = np.logspace(lo, hi, 7)
            plain = fit_asymptotics(make_crw(0.6, 0.2, 0.2), grid=grid)
            bumped = fit_asymptotics(
                make_crw(0.6, 0.2, 0.2, delta=0.5, correction_amplitude=1.0),
                grid=grid,
            )
            gaps.append(float(np.max(np.abs(plain.e - bumped.e))))
        ratio = gaps[0] / gaps[1]
        assert 2.0 <= ratio <= 5.0

    def test_warning_when_expansion_violated(self):
        bumped = fit_asymptotics(
            make_crw(0.6, 0.2, 0.2, delta=0.5, correction_amplitude=1.0)
        )
        assert any("looks violated" in w for w in bumped.warnings)


@st.composite
def tabular_fits(draw):
    """A tabular model (1-9 atoms per line, non-integer jumps, ``inv_x`` and
    ``pow`` terms, clip, reflect or reset, override states) and a fit grid
    that starts below or above the model's bounded-x rules."""
    n = draw(st.integers(1, 3))
    labels = list(range(n))
    lines = {}
    for li in labels:
        count = draw(st.integers(1, 9))
        weights = draw(st.lists(st.integers(1, 5), min_size=count, max_size=count))
        coeff = st.floats(-0.05, 0.05)
        invs = _centered(draw(st.lists(coeff, min_size=count, max_size=count)))
        pows = _centered(draw(st.lists(coeff, min_size=count, max_size=count)))
        lines[str(li)] = [
            {"jump": draw(st.floats(-4.0, 4.0)),
             # the first atom of each line moves to the next label: all reachable
             "next": (li + 1) % n if k == 0 else draw(st.sampled_from(labels)),
             "prob": {"const": weights[k] / sum(weights), "inv_x": invs[k], "pow": pows[k]}}
            for k in range(count)
        ]
    boundary = draw(st.sampled_from(["clip", "reflect", "reset"]))
    if boundary == "reset":
        boundary = {"rule": "reset", "jump": draw(st.floats(0.0, 3.0)),
                    "label": draw(st.sampled_from(labels))}
    states = [
        {"x": draw(st.one_of(st.floats(0.0, 50.0), st.sampled_from([100.0, 1000.0]))),
         "label": draw(st.sampled_from(labels)),
         "atoms": [{"jump": draw(st.floats(0.0, 3.0)), "next": draw(st.sampled_from(labels)),
                    "prob": 1.0}]}
        for _ in range(draw(st.integers(0, 2)))
    ]
    # constant parts are at least 1/41 and the |inv_x| and |pow| terms stay
    # below 0.011 from x = 16 on, so every probability stays in [0, 1]
    model = make_tabular({
        "type": "tabular", "labels": labels, "lines": lines, "boundary": boundary,
        "delta": draw(st.floats(0.1, 2.0)), "floor": draw(st.floats(16.0, 40.0)),
        "states": states,
    })
    # at, past, just below and far below the least position of the tables;
    # a grid from 1 reaches the override states at 100 and 1000
    top = model._rules_top
    start = draw(st.one_of(st.sampled_from([top, math.nextafter(top, 0.0), top / 2, 1.0]),
                           st.floats(top, 50.0 * top)))
    grid = start * np.logspace(0, draw(st.sampled_from([2, 3, 4])), draw(st.integers(4, 7)))
    return model, grid


def stacked_point_moments(model, grid) -> np.ndarray:
    """The fit's series built state by state: the reference for the tables."""
    return np.array([
        np.concatenate([m.mu, m.sigma2, m.mu_cross.ravel(), m.q.ravel()])
        for m in (point_moments(model, x) for x in grid)
    ])


class TestTableSeries:
    """``fit_asymptotics`` sums its series from the kernel tables when the grid
    lies past every bounded-x rule; the sums are ``point_moments``' bit for bit."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(case=tabular_fits())
    def test_bit_identical_to_point_moments(self, case):
        model, grid = case
        got = drift._table_series(model, grid)
        if grid[0] < model._rules_top:
            assert got is None
        else:
            want = stacked_point_moments(model, grid)
            assert got is not None and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_pow_terms_from_libm(self):
        # numpy's vectorised power and libm's pow() differ in the last bit at
        # the first grid point, so its series would too
        model = make_tabular(POW_REPRO)
        grid = 21.799996820181047 * np.logspace(0, 2, 4)
        want = stacked_point_moments(model, grid)
        assert drift._table_series(model, grid).tobytes() == want.tobytes()

    def test_default_grid_reads_no_state_law(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("point_moments called")

        monkeypatch.setattr(drift, "point_moments", refuse)
        co = fit_asymptotics(CRW)
        assert co.d.tolist() == pytest.approx([0.2, -0.2], abs=1e-10)

    def test_shifted_model_falls_back(self):
        shifted = ShiftedChainModel(CRW, [0.5, 0.0])
        grid = np.array(drift.DEFAULT_GRID)
        assert drift._table_series(shifted, grid) is None
        assert fit_asymptotics(shifted).labels == CRW.labels

    @pytest.mark.parametrize("inv_sum,fast", [(4e-11, True), (8e-11, False)])
    def test_sum_defect_near_the_tolerance(self, inv_sum, fast):
        # the defect at x = 100 is inv_sum / 100, under PROB_SUM_TOL either
        # way; from half of it up the tables defer to point_moments
        model = make_tabular({
            "type": "tabular", "labels": [0],
            "lines": {"0": [
                {"jump": 1, "next": 0, "prob": {"const": 0.5, "inv_x": inv_sum / 2}},
                {"jump": -1, "next": 0, "prob": {"const": 0.5, "inv_x": inv_sum / 2}}]},
        })
        grid = np.array(drift.DEFAULT_GRID)
        got = drift._table_series(model, grid)
        assert (got is not None) == fast
        if fast:
            assert got.tobytes() == stacked_point_moments(model, grid).tobytes()
        assert not fit_asymptotics(model).warnings


class TestCoefficientsType:
    def test_row_identity_enforced(self):
        co = fit_asymptotics(CRW)
        bad_gamma = co.gamma.copy()
        bad_gamma[0, 0] += 1e-3
        with pytest.raises(ValueError, match="gamma row"):
            AsymptoticCoefficients(
                labels=co.labels, d=co.d, e=co.e, t2=co.t2,
                d_cross=co.d_cross, gamma=bad_gamma,
                Q_limit=co.Q_limit, pi=co.pi,
            )

    def test_arrays_are_read_only_and_shape_checked(self):
        co = fit_asymptotics(CRW)
        for name in ("d", "e", "t2", "d_cross", "gamma", "Q_limit", "pi"):
            with pytest.raises(ValueError):
                getattr(co, name)[0] = 1.0
        with pytest.raises(ValueError, match="shape"):
            AsymptoticCoefficients(
                labels=co.labels, d=co.d, e=co.e, t2=co.t2,
                d_cross=co.d_cross, gamma=co.gamma[:1],
                Q_limit=co.Q_limit, pi=co.pi,
            )

    def test_json_round_trip(self):
        co = fit_asymptotics(CRW)
        other = AsymptoticCoefficients.from_dict(co.to_dict())
        for name in ("d", "e", "t2", "d_cross", "gamma"):
            assert np.array_equal(getattr(other, name), getattr(co, name))
        assert np.array_equal(other.Q_limit, co.Q_limit)
        assert np.array_equal(other.pi, co.pi)

    @pytest.mark.parametrize("Q,pi,match", [
        ([[0.7, 0.2], [0.4, 0.6]], [0.5, 0.5], "sum to 1"),
        ([[1.2, -0.2], [0.4, 0.6]], [0.5, 0.5], "negative"),
        ([[0.6, 0.4, 0.0], [0.4, 0.6, 0.0]], [0.5, 0.5], "2x2"),
        ([[0.6, 0.4], [0.4, 0.6]], [1.0, 0.0], "strictly positive"),
        ([[0.6, 0.4], [0.4, 0.6]], [0.5, 0.6], "sum to 1"),
        ([[0.6, 0.4], [0.4, 0.6]], [1.0], "stationary weights"),
    ])
    def test_label_chain_checked_at_construction(self, Q, pi, match):
        co = fit_asymptotics(CRW)
        with pytest.raises(ValueError, match=match):
            AsymptoticCoefficients(
                labels=co.labels, d=co.d, e=co.e, t2=co.t2,
                d_cross=co.d_cross, gamma=co.gamma, Q_limit=Q, pi=pi,
            )

    def test_unknown_keys_rejected(self):
        payload = fit_asymptotics(CRW).to_dict()
        payload["bogus"] = 1
        with pytest.raises(ValueError, match="unknown keys"):
            AsymptoticCoefficients.from_dict(payload)

    def test_non_stationary_pi_rejected(self):
        payload = fit_asymptotics(CRW).to_dict()
        payload["pi"] = [0.9, 0.1]
        with pytest.raises(ValueError, match="not stationary"):
            AsymptoticCoefficients.from_dict(payload)

    @pytest.mark.parametrize("with_pi", [False, True])
    def test_reducible_q_rejected_with_or_without_pi(self, with_pi):
        payload = fit_asymptotics(CRW).to_dict()
        payload["Q"] = [[1.0, 0.0], [0.0, 1.0]]
        payload["pi"] = [0.5, 0.5]
        if not with_pi:
            del payload["pi"]
        with pytest.raises(ValueError, match="matrix is reducible"):
            AsymptoticCoefficients.from_dict(payload)

    @pytest.mark.parametrize("key,value,match", [
        ("refined_rates_hold", "no", "refined_rates_hold must be true or false"),
        ("refined_rates_hold", 1, "refined_rates_hold must be true or false"),
        ("fit_residuals", [], "fit_residuals must be an object"),
        ("fit_residuals", {"mu": float("nan")}, "fit_residuals 'mu': expected a finite"),
        ("fit_residuals", {"mu": "0.1"}, "fit_residuals 'mu': expected a number"),
        ("warnings", "none", "warnings must be a list of strings"),
        ("warnings", ["ok", 3], "warnings must be a list of strings"),
    ])
    def test_optional_fields_type_checked(self, key, value, match):
        payload = fit_asymptotics(CRW).to_dict()
        payload[key] = value
        with pytest.raises(ValueError, match=match):
            AsymptoticCoefficients.from_dict(payload)

    def test_optional_fields_echoed_as_given(self):
        payload = fit_asymptotics(CRW).to_dict()
        payload.update(fit_residuals={"mu": 0, "q": 2.5e-7}, warnings=["noted"],
                       refined_rates_hold=True)
        back = AsymptoticCoefficients.from_dict(payload).to_dict()
        assert back["fit_residuals"] == {"mu": 0, "q": 2.5e-7}
        assert type(back["fit_residuals"]["mu"]) is int
        assert back["warnings"] == ["noted"] and back["refined_rates_hold"] is True


class TestCheckRegime:
    def test_crw_is_generalized(self):
        assert check_regime(fit_asymptotics(CRW)) is RegimeTag.GENERALIZED_LAMPERTI

    def test_no_persistence_bias_is_lamperti(self):
        co = fit_asymptotics(make_crw(0.5, 0.2, 0.2))
        assert check_regime(co) is RegimeTag.LAMPERTI

    def test_uncentered_is_constant_drift(self):
        spec = {
            "type": "tabular",
            "labels": [0],
            "boundary": "clip",
            "lines": {"0": [
                {"jump": 1, "next": 0, "prob": 0.65},
                {"jump": -1, "next": 0, "prob": 0.35},
            ]},
        }
        co = fit_asymptotics(make_tabular(spec))
        assert check_regime(co) is RegimeTag.CONSTANT_DRIFT
