import numpy as np
import pytest

from halfstrip import AsymptoticCoefficients, stationary_distribution, stochastic_matrix


def random_irreducible(rng, n):
    """Strictly positive random stochastic matrix (hence irreducible)."""
    entries = rng.random((n, n)) + 0.05
    entries /= entries.sum(axis=1, keepdims=True)
    return stochastic_matrix(entries, n)


def centered_vector(rng, pi, scale=1.0):
    raw = rng.normal(size=len(pi)) * scale
    return raw - float(pi @ raw)


def random_generalized_coefficients(rng, max_labels=5):
    """Random coefficient set in the centered-with-nonzero-constant-parts regime,
    resampled until the effective variance is safely positive."""
    for _ in range(200):
        n = int(rng.integers(2, max_labels + 1))
        labels = tuple(range(n))
        Q = random_irreducible(rng, n)
        pi = stationary_distribution(Q)
        d = centered_vector(rng, pi)
        if np.max(np.abs(d)) < 1e-3:
            continue
        e = rng.normal(size=n)
        t2 = rng.uniform(0.2, 2.0, size=n)
        d_cross = rng.normal(size=(n, n), scale=0.5)
        d_cross += (d - d_cross.sum(axis=1))[:, None] / n
        gamma = rng.normal(size=(n, n), scale=0.5)
        gamma -= gamma.sum(axis=1, keepdims=True) / n
        coeffs = AsymptoticCoefficients(
            labels=labels,
            d=d,
            e=e,
            t2=t2,
            d_cross=d_cross,
            gamma=gamma,
            Q_limit=Q,
            pi=pi,
        )
        from halfstrip import compute_uv, solve_poisson

        a, _ = solve_poisson(Q, coeffs.d, pi=pi)
        _, V = compute_uv(coeffs, a)
        if V > 0.05:
            return coeffs
    raise AssertionError("could not draw a usable coefficient set")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
