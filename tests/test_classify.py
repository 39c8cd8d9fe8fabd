import numpy as np
import pytest

from halfstrip import (
    DegenerateVarianceError,
    LampertiCoefficients,
    NonCenteredError,
    StochasticMatrix,
    Verdict,
    WrongRegimeError,
    classify_constant,
    classify_generalized,
    classify_lamperti,
    compute_uv,
    fit_asymptotics,
    make_crw,
    moment_threshold,
    stationary_distribution,
    transform_generalized,
)
from conftest import random_generalized_coefficients

CRW_COEFFS = fit_asymptotics(make_crw(0.6, 0.2, 0.2))

SINGLE = StochasticMatrix((0,), [[1.0]])
SYM = StochasticMatrix((1, -1), [[0.6, 0.4], [0.4, 0.6]])
PI_SINGLE = stationary_distribution(SINGLE)
PI_SYM = stationary_distribution(SYM)


def lamperti(c, s2, Q=SYM, pi=PI_SYM):
    labels = Q.labels
    return LampertiCoefficients(labels, c, s2, Q, pi)


class TestClassifyConstant:
    def test_positive_mean_is_transient(self):
        co = _with_d(CRW_COEFFS, (0.3, 0.3))
        cls = classify_constant(co)
        assert cls.verdict is Verdict.TRANSIENT

    def test_weighted_negative_mean(self):
        Q = StochasticMatrix((0, 1), [[0.75, 0.25], [0.5, 0.5]])  # pi = (2/3, 1/3)
        pi = stationary_distribution(Q)
        co = _generic_coeffs(Q, pi, d=(-1.0, 1.0))
        cls = classify_constant(co)
        assert cls.verdict is Verdict.POSITIVE_RECURRENT
        assert cls.U == pytest.approx(-1 / 3, abs=1e-12)

    def test_centered_is_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            classify_constant(CRW_COEFFS)


class TestClassifyLamperti:
    def test_single_line_null(self):
        lc = LampertiCoefficients((0,), [0.0], [1.0], SINGLE, PI_SINGLE)
        cls = classify_lamperti(lc)
        assert cls.verdict is Verdict.NULL_RECURRENT
        assert (cls.U, cls.V) == (0.0, 1.0)

    def test_transient(self):
        cls = classify_lamperti(lamperti((1.0, 1.0), (1.0, 1.0)))
        assert cls.verdict is Verdict.TRANSIENT
        assert cls.U == pytest.approx(2.0)

    def test_boundary_needs_refined(self):
        lc = lamperti((-1.0, 0.0), (1.0, 1.0))
        assert classify_lamperti(lc, refined=True).verdict is Verdict.BOUNDARY_NULL_RECURRENT
        assert classify_lamperti(lc, refined=False).verdict is Verdict.INDETERMINATE

    def test_positive_recurrent(self):
        cls = classify_lamperti(lamperti((-1.0, -1.0), (1.0, 1.0)))
        assert cls.verdict is Verdict.POSITIVE_RECURRENT

    @pytest.mark.parametrize("refined", [False, True])
    def test_non_finite_never_becomes_a_verdict(self, refined):
        # NaN fails every comparison and would fall through to the boundary verdict
        with pytest.raises(ValueError, match="finite"):
            classify_lamperti(lamperti((np.nan, np.nan), (1.0, 1.0)), refined=refined)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            LampertiCoefficients((0,), [0.0], [0.0], SINGLE, PI_SINGLE)


class TestTransform:
    def test_crw_transformed_coefficients(self):
        lc, a = transform_generalized(CRW_COEFFS)
        assert a[1] == pytest.approx(0.5, abs=1e-10)
        assert a[-1] == pytest.approx(0.0, abs=1e-12)
        assert lc.c.tolist() == pytest.approx([0.25, 0.25], abs=1e-10)
        assert lc.s2.tolist() == pytest.approx([1.5, 1.5], abs=1e-10)
        # pi-weighted transformed variance equals q/(1-q)
        assert lc.pi.mean(lc.s2) == pytest.approx(1.5, abs=1e-10)

    def test_lamperti_input_degenerates_to_identity(self):
        co = fit_asymptotics(make_crw(0.5, 0.2, 0.3))
        lc, a = transform_generalized(co)
        assert np.allclose(a.values, 0.0, atol=1e-10)
        assert np.allclose(lc.c, co.e, atol=1e-9)
        assert np.allclose(lc.s2, co.t2, atol=1e-9)

    def test_uncentered_raises(self):
        co = _with_d(CRW_COEFFS, (0.3, 0.3))
        with pytest.raises(NonCenteredError):
            transform_generalized(co)


class TestComputeUV:
    def test_crw_values(self):
        _, a = transform_generalized(CRW_COEFFS)
        U, V = compute_uv(CRW_COEFFS, a)
        assert U == pytest.approx(0.5, abs=1e-10)   # (c_+ + c_-)/(2(1-q))
        assert V == pytest.approx(1.5, abs=1e-10)   # q/(1-q)

    def test_translation_invariance(self):
        _, a = transform_generalized(CRW_COEFFS)
        U0, V0 = compute_uv(CRW_COEFFS, a)
        U1, V1 = compute_uv(CRW_COEFFS, a.values + 7.0)
        assert U1 == pytest.approx(U0, abs=1e-10)
        assert V1 == pytest.approx(V0, abs=1e-10)


class TestClassifyGeneralized:
    @pytest.mark.parametrize(
        "c,expected",
        [
            (0.2, Verdict.NULL_RECURRENT),      # |c| <= q
            (1.5, Verdict.TRANSIENT),           # c > q
            (-1.0, Verdict.POSITIVE_RECURRENT), # c < -q
        ],
    )
    def test_three_phases(self, c, expected):
        co = fit_asymptotics(make_crw(0.6, c, c))
        assert classify_generalized(co, refined=True, tol=1e-6).verdict is expected

    @pytest.mark.parametrize(
        "c,expected",
        [
            (-0.8, Verdict.POSITIVE_RECURRENT),
            (-0.3, Verdict.NULL_RECURRENT),
            (0.3, Verdict.NULL_RECURRENT),
            (0.8, Verdict.TRANSIENT),
        ],
    )
    def test_no_persistence_special_case(self, c, expected):
        # q = 1/2 removes the constant drift parts entirely; the same
        # phase rule applies with threshold |c| vs 1/2
        co = fit_asymptotics(make_crw(0.5, c, c))
        assert classify_generalized(co, refined=True, tol=1e-6).verdict is expected

    def test_fitted_remainder_noise_is_tolerated(self):
        # a genuine o(1/x) remainder leaves ~1e-6 noise in the fitted d; the
        # centered solve must accept what the regime check accepted
        co = fit_asymptotics(make_crw(0.6, 0.2, 0.2, delta=0.5, correction_amplitude=1.0))
        assert co.warnings  # the fit knows the expansion is only approximate
        cls = classify_generalized(co, refined=True, tol=1e-4)
        assert cls.verdict is Verdict.NULL_RECURRENT

    def test_matches_lamperti_of_transform(self, rng):
        for _ in range(30):
            co = random_generalized_coefficients(rng)
            lc, a = transform_generalized(co)
            direct = classify_generalized(co, refined=True)
            via = classify_lamperti(lc, refined=True)
            assert direct.verdict is via.verdict
            assert direct.U == pytest.approx(via.U, abs=1e-10)
            assert direct.V == pytest.approx(via.V, abs=1e-10)

    def test_monotone_in_u(self):
        verdict_rank = {
            Verdict.POSITIVE_RECURRENT: 0,
            Verdict.BOUNDARY_NULL_RECURRENT: 1,
            Verdict.NULL_RECURRENT: 1,
            Verdict.TRANSIENT: 2,
        }
        last = 0
        for U in np.linspace(-3, 3, 61):
            lc = lamperti((U / 2, U / 2), (1.0, 1.0))
            rank = verdict_rank[classify_lamperti(lc, refined=True).verdict]
            assert rank >= last
            last = rank


class TestMomentThreshold:
    def test_simple_walk_exponent(self):
        rep = moment_threshold(0.0, 1.0)
        assert rep.theta_star == pytest.approx(0.5, abs=1e-15)

    def test_crw_exponent(self):
        rep = moment_threshold(0.5, 1.5)
        assert rep.theta_star == pytest.approx(1 / 3, abs=1e-12)
        assert rep.finite_sup == pytest.approx(1 / 3, abs=1e-12)
        assert rep.infinite_from == pytest.approx(1 / 3, abs=1e-12)
        assert "not decided" in rep.gap_note

    def test_positive_recurrent_side(self):
        rep = moment_threshold(-1.5, 1.5)
        assert rep.theta_star == pytest.approx(1.0, abs=1e-12)

    def test_p_cap_binds(self):
        rep = moment_threshold(-1.5, 1.5, p_cap=0.75)
        assert rep.finite_sup == 0.75
        assert rep.finite_closed_at_sup
        assert rep.infinite_from is None

    def test_degenerate_v(self):
        with pytest.raises(DegenerateVarianceError):
            moment_threshold(0.0, 0.0)

    @pytest.mark.parametrize("U,V", [(np.nan, 1.0), (0.0, np.nan), (np.inf, 1.0), (0.0, np.inf)])
    def test_non_finite_is_refused(self, U, V):
        with pytest.raises(ValueError, match="finite"):
            moment_threshold(U, V)

    def test_lamperti_reduction(self, rng):
        # theta* computed from (U, V) matches the single-regime expression
        for _ in range(10):
            c = rng.normal(size=2)
            s2 = rng.uniform(0.5, 2.0, size=2)
            lc = lamperti(c, s2)
            U, V = lc.uv()
            rep = moment_threshold(U, V)
            expected = (V - U) / (2 * V)
            direct = (
                PI_SYM.mean(list(s2)) - PI_SYM.mean(list(2 * c))
            ) / (2 * PI_SYM.mean(list(s2)))
            assert rep.theta_star == pytest.approx(expected, abs=1e-12)
            assert rep.theta_star == pytest.approx(direct, abs=1e-12)


def _with_d(co, new_d):
    """Coefficient set with replaced constant drift parts (d_cross shifted to match)."""
    from halfstrip import AsymptoticCoefficients

    new_d = np.asarray(new_d, dtype=float)
    gap = new_d - co.d_cross.sum(axis=1)
    return AsymptoticCoefficients(
        labels=co.labels, d=new_d, e=co.e, t2=co.t2,
        d_cross=co.d_cross + gap[:, None] / len(co.labels), gamma=co.gamma,
        Q_limit=co.Q_limit, pi=co.pi,
    )


def _generic_coeffs(Q, pi, d):
    from halfstrip import AsymptoticCoefficients

    n = Q.size
    return AsymptoticCoefficients(
        labels=Q.labels,
        d=d,
        e=np.zeros(n),
        t2=np.ones(n),
        d_cross=np.repeat(np.asarray(d, dtype=float)[:, None] / n, n, axis=1),
        gamma=np.zeros((n, n)),
        Q_limit=Q,
        pi=pi,
    )
