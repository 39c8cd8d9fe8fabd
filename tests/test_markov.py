import numpy as np
import pytest

from halfstrip import (
    NonCenteredError,
    ReducibleMatrixError,
    WrongSignError,
    is_irreducible,
    positive_distribution,
    require_irreducible,
    solve_poisson,
    solve_strict_drift,
    stationary_distribution,
    stochastic_matrix,
)
from conftest import centered_vector, random_irreducible

SYM = stochastic_matrix([[0.6, 0.4], [0.4, 0.6]], 2)  # labels (1, -1)
ASYM = stochastic_matrix([[0.9, 0.1], [0.2, 0.8]], 2)


class TestStochasticMatrix:
    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError, match="sum to 1"):
            stochastic_matrix([[0.7, 0.2], [0.5, 0.5]], 2)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            stochastic_matrix([[1.2, -0.2], [0.5, 0.5]], 2)

    def test_clips_rounding_below_zero(self):
        Q = stochastic_matrix([[1.0 + 1e-16, -1e-16], [0.5, 0.5]], 2)
        assert Q[0, 1] == 0.0

    @pytest.mark.parametrize("entries,n", [([[1.0]], 2), ([1.0, 0.0], 2),
                                           ([[0.5, 0.5]], 2), (np.eye(3), 2)])
    def test_rejects_wrong_shape(self, entries, n):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            stochastic_matrix(entries, n)

    def test_entries_frozen(self):
        with pytest.raises(ValueError):
            SYM[0, 0] = 0.0

    def test_copies_its_input(self):
        raw = np.array([[0.6, 0.4], [0.4, 0.6]])
        Q = stochastic_matrix(raw, 2)
        raw[0, 0] = 0.0
        assert Q[0, 0] == 0.6


class TestPositiveDistribution:
    def test_accepts_a_probability_vector(self):
        pi = positive_distribution([0.25, 0.75], 2)
        assert pi.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            pi[0] = 0.5

    @pytest.mark.parametrize("weights,match", [
        ([0.5, 0.5, 0.0], "expected 2 stationary weights"),
        ([1.0, 0.0], "strictly positive"),
        ([1.5, -0.5], "strictly positive"),
        ([0.5, 0.6], "sum to 1"),
    ])
    def test_rejects(self, weights, match):
        with pytest.raises(ValueError, match=match):
            positive_distribution(weights, 2)


class TestIrreducibility:
    def test_identity_reducible(self):
        assert not is_irreducible(stochastic_matrix(np.eye(2), 2))
        with pytest.raises(ReducibleMatrixError, match="reducible"):
            require_irreducible(stochastic_matrix(np.eye(2), 2))

    def test_swap_irreducible(self):
        assert is_irreducible(stochastic_matrix([[0.0, 1.0], [1.0, 0.0]], 2))

    def test_three_cycle(self):
        Q = stochastic_matrix([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]], 3)
        assert is_irreducible(Q)
        require_irreducible(Q)

    def test_block_reducible(self):
        Q = stochastic_matrix([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]], 3)
        assert not is_irreducible(Q)

    @staticmethod
    def closure_irreducible(Q, tol):
        """Reference: the boolean transitive closure of the support is all true."""
        reach = np.eye(len(Q), dtype=bool) | (Q > tol)
        for _ in range(len(Q)):
            reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
        return bool(reach.all())

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_closure_on_random_supports(self, rng, n):
        for density in (0.1, 0.3, 0.6):
            for _ in range(40):
                support = rng.random((n, n)) < density
                # entries at or below the tolerance are not edges
                Q = np.where(support, rng.random((n, n)) + 1e-12, rng.choice([0.0, 1e-12], (n, n)))
                for tol in (1e-12, 1e-9):
                    assert is_irreducible(Q, tol) == self.closure_irreducible(Q, tol)

    @pytest.mark.parametrize("cut", [None, 0, 150, 299])
    def test_long_cycle(self, cut):
        # 300 labels on one directed cycle: every label must be reached, and
        # removing any one edge breaks it
        n = 300
        Q = np.zeros((n, n))
        Q[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        if cut is not None:
            Q[cut, (cut + 1) % n] = 0.0
        assert is_irreducible(Q) == (cut is None)

    def test_dense_300(self, rng):
        Q = rng.random((300, 300)) + 0.01
        assert is_irreducible(Q)
        Q[:, 7] = 0.0  # nothing enters label 7
        assert not is_irreducible(Q)


class TestStationary:
    def test_symmetric_two_state(self):
        pi = stationary_distribution(SYM)
        assert pi.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_doubly_stochastic_is_uniform(self):
        Q = stochastic_matrix([[0.2, 0.3, 0.5], [0.5, 0.2, 0.3], [0.3, 0.5, 0.2]], 3)
        pi = stationary_distribution(Q)
        assert np.allclose(pi, 1 / 3, atol=1e-12)

    def test_asymmetric_two_state(self):
        # pi = (2/3, 1/3): check by substitution into pi Q = pi
        pi = stationary_distribution(ASYM)
        assert pi[0] == pytest.approx(2 / 3, abs=1e-12)
        assert np.allclose(pi @ ASYM, pi, atol=1e-12)

    def test_is_a_frozen_positive_distribution(self):
        pi = stationary_distribution(ASYM)
        assert np.array_equal(positive_distribution(pi, 2), pi)
        with pytest.raises(ValueError):
            pi[0] = 0.5

    def test_reducible_raises(self):
        with pytest.raises(ReducibleMatrixError):
            stationary_distribution(stochastic_matrix(np.eye(2), 2))

    def test_against_power_iteration_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            Q = random_irreducible(rng, n)
            pi = stationary_distribution(Q)
            v = np.full(n, 1.0 / n)
            for _ in range(6):
                v = v @ np.linalg.matrix_power(Q, 64)
            v /= v.sum()
            assert np.max(np.abs(v - pi)) < 1e-8


class TestPoisson:
    def test_symmetric_example(self):
        # a = ((2q-1)/(1-q), 0) at q = 0.6
        a, residual = solve_poisson(SYM, np.array([0.2, -0.2]))
        assert a[0] == pytest.approx(0.5, abs=1e-12)
        assert a[1] == 0.0
        assert residual <= 1e-10
        with pytest.raises(ValueError):
            a[0] = 0.0

    def test_zero_d_gives_zero(self):
        a, residual = solve_poisson(SYM, np.zeros(2))
        assert np.all(a == 0.0) and residual == 0.0

    def test_asymmetric_example(self):
        # row by row: 1 + (a2 - a1) * 0.1 = 0 -> a = (10, 0)
        a, _ = solve_poisson(ASYM, np.array([1.0, -2.0]))
        assert a[0] == pytest.approx(10.0, abs=1e-10)
        assert a[1] == pytest.approx(0.0, abs=1e-10)

    def test_non_centered_rejected(self):
        with pytest.raises(NonCenteredError):
            solve_poisson(SYM, np.array([1.0, -0.5]))

    def test_random_centered_systems(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            Q = random_irreducible(rng, n)
            pi = stationary_distribution(Q)
            d = centered_vector(rng, pi)
            a, residual = solve_poisson(Q, d, pi=pi)
            assert residual <= 1e-10
            assert a.min() == 0.0

    def test_translation_property(self, rng):
        # a + const solves the same system; the module returns the min-zero one
        Q = random_irreducible(rng, 4)
        pi = stationary_distribution(Q)
        d = centered_vector(rng, pi)
        a, _ = solve_poisson(Q, d, pi=pi)
        shifted = a + 3.7
        defect = d + Q @ shifted - shifted
        assert np.max(np.abs(defect)) <= 1e-9


class TestStrictDrift:
    def test_uniform_u_needs_no_correction(self):
        b = solve_strict_drift(SYM, np.array([-1.0, -1.0]), "negative")
        assert b.tolist() == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_mixed_sign_example(self):
        u = [1.0, -2.0]
        b = solve_strict_drift(SYM, np.array(u), "negative")
        for i in range(2):
            slack = u[i] + sum((b[j] - b[i]) * SYM[i, j] for j in range(2))
            assert slack < 0.0

    def test_margin_matches_construction(self, rng):
        # slack_i = -eps/(|S| pi_i), so min margin >= eps/(2 |S| max pi)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            Q = random_irreducible(rng, n)
            pi = stationary_distribution(Q)
            u = centered_vector(rng, pi) - 0.5
            eps = -float(pi @ u)
            assert eps > 0
            b = solve_strict_drift(Q, u, "negative", pi=pi)
            slack = u + Q @ b - b
            floor = eps / (2 * n * pi.max())
            assert np.all(slack < 0)
            assert np.min(-slack) >= floor - 1e-12

    def test_wrong_sign_rejected(self):
        with pytest.raises(WrongSignError):
            solve_strict_drift(SYM, np.array([1.0, -2.0]), "positive")

    def test_positive_direction(self):
        u = [-1.0, 2.0]
        b = solve_strict_drift(SYM, np.array(u), "positive")
        for i in range(2):
            slack = u[i] + sum((b[j] - b[i]) * SYM[i, j] for j in range(2))
            assert slack > 0.0
