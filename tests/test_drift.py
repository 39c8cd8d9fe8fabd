import warnings

import numpy as np
import pytest

from halfstrip import (
    AsymptoticCoefficients,
    RegimeTag,
    check_regime,
    fit_asymptotics,
    make_crw,
    make_tabular,
    point_moments,
)

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
