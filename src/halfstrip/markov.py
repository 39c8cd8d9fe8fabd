"""Linear algebra on the limiting label chain.

Everything here operates on a finite, irreducible, row-stochastic matrix Q,
a read-only (S, S) float array indexed by label position like the
coefficient arrays of ``drift``: the stationary distribution pi, the centered
linear system

    d_i + sum_j (a_j - a_i) q_ij = 0,

whose solution (unique up to adding a constant) drives the drift-eliminating
change of coordinates, and the strict-inequality variant used to tune
Lyapunov corrections. pi, a and b are read-only (S,) arrays in the same
order; the labels themselves live on the model and the coefficients.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

ROW_SUM_TOL = 1e-12
CENTERING_TOL = 1e-9


class ReducibleMatrixError(ValueError):
    """The support digraph of the matrix is not strongly connected."""


class NonCenteredError(ValueError):
    """The pi-weighted mean of d is too far from zero; the linear system
    d + (Q - I) a = 0 has no solution."""


class WrongSignError(ValueError):
    """The pi-weighted mean of u does not have the sign the strict-drift
    construction requires."""


def stochastic_matrix(entries, n: int) -> np.ndarray:
    """``entries`` as a read-only (n, n) float array, checked row-stochastic:
    no entry below -1e-15 (rounding above it is clipped to 0) and every row
    sum within ROW_SUM_TOL of 1. Irreducibility is *not* enforced (use
    :func:`is_irreducible`); operations that require it check it themselves.
    """
    Q = np.array(entries, dtype=float)
    if Q.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {Q.shape}")
    if Q.min() < -1e-15:
        raise ValueError(f"negative entry {Q.min()!r}")
    Q = np.clip(Q, 0.0, None)
    row_err = np.max(np.abs(Q.sum(axis=1) - 1.0))
    if row_err > ROW_SUM_TOL:
        raise ValueError(f"rows must sum to 1 (max defect {row_err:.3e})")
    Q.flags.writeable = False
    return Q


def positive_distribution(weights, n: int) -> np.ndarray:
    """``weights`` as a read-only (n,) float array of strictly positive
    weights summing to 1 within ROW_SUM_TOL, the form of a stationary pi."""
    pi = np.array(weights, dtype=float)
    if pi.shape != (n,):
        raise ValueError(f"expected {n} stationary weights, got shape {pi.shape}")
    if pi.min() <= 0.0:
        raise ValueError("stationary weights must be strictly positive")
    if abs(pi.sum() - 1.0) > ROW_SUM_TOL:
        raise ValueError("stationary weights must sum to 1")
    pi.flags.writeable = False
    return pi


def is_irreducible(Q: np.ndarray, support_tol: float = 1e-12) -> bool:
    """True iff the digraph of entries > support_tol is strongly connected:
    label 0 reaches every label along its edges and against them. The search
    runs on Python lists and stops once every label is reached, which for a
    dense support is after the first row."""
    adj = (Q > support_tol).tolist()

    def reaches_all(rows: list) -> bool:
        labels = range(len(rows))
        seen = [False] * len(rows)
        seen[0] = True
        stack, unseen = [0], len(rows) - 1
        while stack and unseen:
            for j in compress(labels, rows[stack.pop()]):
                if not seen[j]:
                    seen[j] = True
                    unseen -= 1
                    stack.append(j)
        return not unseen

    return reaches_all(adj) and reaches_all(list(zip(*adj)))


def require_irreducible(Q: np.ndarray) -> None:
    """Raise :class:`ReducibleMatrixError` unless Q is irreducible."""
    if not is_irreducible(Q):
        raise ReducibleMatrixError("matrix is reducible; no unique stationary distribution")


def stationary_distribution(Q: np.ndarray) -> np.ndarray:
    """Unique stationary distribution pi of an irreducible stochastic matrix.

    Solves the singular system (Q^T - I) pi = 0 directly, with one equation
    replaced by the normalization sum_i pi_i = 1. No iteration is involved;
    the power-iteration route exists only as a test oracle.
    """
    require_irreducible(Q)
    n = len(Q)
    system = Q.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    if pi.min() <= 0.0:
        raise ArithmeticError("solver returned a non-positive stationary weight")
    pi /= pi.sum()
    defect = float(np.max(np.abs(pi @ Q - pi)))
    if defect > 1e-10:
        raise ArithmeticError(f"stationary defect {defect:.3e} exceeds 1e-10")
    pi.flags.writeable = False
    return pi


def solve_poisson(
    Q: np.ndarray,
    d,
    tol: float = CENTERING_TOL,
    pi: np.ndarray | None = None,
) -> tuple:
    """Solve d + (Q - I) a = 0 for the representative with min_i a_i = 0.

    Returns ``(a, residual)``: ``a`` a read-only array by label position and
    ``residual`` the worst row defect max_i |d_i + sum_j (a_j - a_i) q_ij|.

    Solvability requires sum_i pi_i d_i = 0; inputs whose pi-weighted mean
    exceeds ``tol`` in absolute value raise :class:`NonCenteredError` (the
    model then sits in the constant-drift regime, not the centered one).

    The singular solve replaces the row with the largest pi weight (the one
    best implied by the others) by the pin a_k = 0, then shifts to the
    min-zero representative.
    """
    if pi is None:
        pi = stationary_distribution(Q)
    d = np.asarray(d, dtype=float)
    mean = float(pi @ d)
    if abs(mean) > tol:
        raise NonCenteredError(
            f"pi-weighted mean of d is {mean:.6e} (tolerance {tol:.1e}); "
            "the centered system is not solvable"
        )
    n = len(Q)
    pinned = int(np.argmax(pi))
    system = Q - np.eye(n)
    system[pinned, :] = 0.0
    system[pinned, pinned] = 1.0
    rhs = -d
    rhs[pinned] = 0.0
    a = np.linalg.solve(system, rhs)
    a -= a.min()
    residual = float(np.max(np.abs(d + Q @ a - a)))
    a.flags.writeable = False
    return a, residual


def solve_strict_drift(
    Q: np.ndarray,
    u,
    direction: str,
    pi: np.ndarray | None = None,
) -> np.ndarray:
    """Find b with u_i + sum_j (b_j - b_i) q_ij < 0 for every i (direction
    ``"negative"``), or > 0 for every i (``"positive"``).

    Construction: with eps = |sum_i pi_i u_i| and eps_i = eps / (|S| pi_i),
    the shifted vector u_i (+/-) eps_i is exactly centered, and the solution
    of the centered system realizes each inequality with margin eps_i.
    """
    if direction not in ("negative", "positive"):
        raise ValueError("direction must be 'negative' or 'positive'")
    if pi is None:
        pi = stationary_distribution(Q)
    u = np.asarray(u, dtype=float)
    mean = float(pi @ u)
    if direction == "negative" and not mean < 0.0:
        raise WrongSignError(f"need sum pi_i u_i < 0, got {mean:.6e}")
    if direction == "positive" and not mean > 0.0:
        raise WrongSignError(f"need sum pi_i u_i > 0, got {mean:.6e}")
    eps = abs(mean)
    eps_vec = eps / (len(Q) * pi)
    shift = eps_vec if direction == "negative" else -eps_vec
    scale = max(1.0, float(np.max(np.abs(u))))
    b, _ = solve_poisson(Q, u + shift, tol=1e-9 * scale, pi=pi)
    slack = u + Q @ b - b
    if direction == "negative" and not np.all(slack < 0.0):
        raise ArithmeticError(f"strict inequality not achieved: slack {slack}")
    if direction == "positive" and not np.all(slack > 0.0):
        raise ArithmeticError(f"strict inequality not achieved: slack {slack}")
    return b
