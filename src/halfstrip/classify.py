"""Recurrence classification and passage-time moment thresholds.

Three regimes, three entry points:

- constant drift: the sign of sum_i pi_i d_i decides transient vs
  positive-recurrent outright;
- centered per-line drift of order 1/x: the pair U = sum_i 2 c_i pi_i,
  V = sum_i s2_i pi_i decides the verdict by comparing U against +/-V;
- centered constant parts with 1/x corrections and label correlations: the
  linear system d + (Q - I) a = 0 supplies a change of coordinates that
  eliminates the constant parts, after which the previous case applies with

      c_i  = e_i + sum_j a_j gamma_ij,
      s2_i = t2_i + 2 sum_j a_j d_ij + sum_j (a_j^2 - a_i^2) q_ij,

  and U, V can equivalently be computed directly from the raw coefficients.

Coefficients, Q, pi and a are arrays indexed by label position (see ``drift``
and ``markov``), so each of these sums is one array expression.

The passage-time moment boundary is theta* = (V - U) / (2V): E[tau^s] is
finite for s < theta* (capped by p/2 when only p moments of the jumps are
bounded) and infinite for s above it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .drift import AsymptoticCoefficients, RegimeTag, frozen_array
from .markov import positive_distribution, solve_poisson, stochastic_matrix

ANALYTIC_TOL = 1e-9
FITTED_TOL = 1e-4
UV_CONSISTENCY_TOL = 1e-10


class WrongRegimeError(ValueError):
    """The coefficients are not in the regime this classifier handles."""


class DegenerateVarianceError(ValueError):
    """Effective variance V is not positive; the classification does not apply."""


class Verdict(str, enum.Enum):
    TRANSIENT = "Transient"
    NULL_RECURRENT = "NullRecurrent"
    POSITIVE_RECURRENT = "PositiveRecurrent"
    BOUNDARY_NULL_RECURRENT = "BoundaryNullRecurrent"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class LampertiCoefficients:
    """Per-line drift c_i/x and limiting second moments s2_i, with the limiting
    label chain's Q_limit and pi, as read-only arrays indexed by label
    position (checked as in ``AsymptoticCoefficients``)."""

    labels: tuple
    c: np.ndarray
    s2: np.ndarray
    Q_limit: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        for name in ("c", "s2"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), (n,), name))
        object.__setattr__(self, "Q_limit", stochastic_matrix(self.Q_limit, n))
        object.__setattr__(self, "pi", positive_distribution(self.pi, n))
        if self.s2.max() <= 0.0:
            raise DegenerateVarianceError("at least one s2 must be positive")
        if self.pi @ self.s2 <= 0.0:
            raise DegenerateVarianceError("pi-weighted s2 must be positive")

    def uv(self) -> tuple:
        return float(self.pi @ (2.0 * self.c)), float(self.pi @ self.s2)


@dataclass(frozen=True)
class Classification:
    """``transform`` is ``transform_generalized``'s (LampertiCoefficients, a,
    residual) from the generalized classifier, for reuse; else None."""

    verdict: Verdict
    U: float
    V: float
    margin: float
    regime: RegimeTag
    notes: str = ""
    transform: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MomentReport:
    """Which moments E[tau^s] the classification settles.

    ``finite_sup`` is min(theta*, p_cap); s in [0, finite_sup) is finite, and
    the endpoint itself is attained exactly when the cap binds (p_cap <
    theta*). ``infinite_from`` is theta* when theta* <= p_cap, else None: above
    the moment cap nothing is settled. Whether E[tau^s] is finite at
    s = theta* exactly is not decided; see ``gap_note``.
    """

    theta_star: float
    p_cap: float
    finite_sup: float
    finite_closed_at_sup: bool
    infinite_from: float | None
    gap_note: str

    def finite_range(self) -> tuple:
        return (0.0, self.finite_sup)

    def infinite_range(self) -> tuple | None:
        return None if self.infinite_from is None else (self.infinite_from, math.inf)


def _require_finite(U: float, V: float) -> None:
    if not (math.isfinite(U) and math.isfinite(V)):
        raise ValueError(f"U={U!r} and V={V!r} must be finite to reach a verdict")


def _decide(U: float, V: float, refined: bool, tol: float, regime: RegimeTag, extra: str = "") -> Classification:
    _require_finite(U, V)
    margin = abs(abs(U) - V)
    if U - V > tol:
        verdict = Verdict.TRANSIENT
    elif U + V < -tol:
        verdict = Verdict.POSITIVE_RECURRENT
    elif abs(U) < V - tol:
        verdict = Verdict.NULL_RECURRENT
    elif refined:
        verdict = Verdict.BOUNDARY_NULL_RECURRENT
    else:
        verdict = Verdict.INDETERMINATE
    notes = extra
    if verdict in (Verdict.BOUNDARY_NULL_RECURRENT, Verdict.INDETERMINATE):
        boundary_note = (
            f"|U| is within tol={tol:.1e} of V; "
            + (
                "refined remainder rates asserted, so the boundary case is null-recurrent"
                if refined
                else "boundary case needs the refined remainder-rate assertion (--refined)"
            )
        )
        notes = f"{extra} {boundary_note}".strip()
    return Classification(verdict, float(U), float(V), float(margin), regime, notes)


def classify_constant(coeffs: AsymptoticCoefficients, tol: float = ANALYTIC_TOL) -> Classification:
    """Classification when the pi-weighted mean drift does not vanish."""
    mean_d = coeffs.pi_weighted_d()
    if abs(mean_d) <= tol:
        raise WrongRegimeError(
            f"pi-weighted mean drift {mean_d:.3e} is centered; not the constant-drift regime"
        )
    verdict = Verdict.TRANSIENT if mean_d > 0 else Verdict.POSITIVE_RECURRENT
    return Classification(
        verdict,
        U=float(mean_d),
        V=0.0,
        margin=abs(float(mean_d)),
        regime=RegimeTag.CONSTANT_DRIFT,
        notes="constant-drift regime: U carries the pi-weighted mean drift; V is unused",
    )


def classify_lamperti(
    lc: LampertiCoefficients, refined: bool = False, tol: float = ANALYTIC_TOL
) -> Classification:
    """Decision table on (U, V) = (sum 2 c pi, sum s2 pi)."""
    U, V = lc.uv()
    if V <= 0.0:
        raise DegenerateVarianceError(f"effective variance V={V!r} must be positive")
    return _decide(U, V, refined, tol, RegimeTag.LAMPERTI)


def transform_generalized(
    coeffs: AsymptoticCoefficients,
    centering_tol: float = 1e-9,
) -> tuple:
    """Eliminate the constant drift parts via the centered linear system.

    Returns (LampertiCoefficients, a, residual) with a and residual as from
    ``solve_poisson``. The solution a is the min-zero representative, so all
    a_i >= 0 as the coordinate change requires. Raises NonCenteredError (from
    the solve) when the pi-weighted mean of d exceeds ``centering_tol``, i.e.
    the model is in the constant-drift regime. Fitted d carry numerical noise, so the tolerance
    is a declared numerical parameter, not part of the classification.
    """
    a, residual = solve_poisson(coeffs.Q_limit, coeffs.d, tol=centering_tol, pi=coeffs.pi)
    sq = a * a
    # row sums as elementwise products: a matrix product would reassociate them
    c = coeffs.e + (coeffs.gamma * a).sum(axis=1)
    s2 = (
        coeffs.t2
        + 2.0 * (coeffs.d_cross * a).sum(axis=1)
        + ((sq - sq[:, None]) * coeffs.Q_limit).sum(axis=1)
    )
    return LampertiCoefficients(coeffs.labels, c, s2, coeffs.Q_limit, coeffs.pi), a, residual


def compute_uv(coeffs: AsymptoticCoefficients, a: np.ndarray) -> tuple:
    """U and V straight from the raw coefficients and a solution a.

    U = sum_i (2 e_i + 2 sum_j a_j gamma_ij) pi_i and
    V = sum_i (t2_i + 2 sum_j a_j d_ij) pi_i. These equal the transformed
    chain's (sum 2 c pi, sum s2 pi): the quadratic (a_j^2 - a_i^2) terms
    cancel under the stationary average. ``a`` is by label position.
    """
    U = float(coeffs.pi @ (2.0 * coeffs.e + 2.0 * (coeffs.gamma * a).sum(axis=1)))
    V = float(coeffs.pi @ (coeffs.t2 + 2.0 * (coeffs.d_cross * a).sum(axis=1)))
    return U, V


def centering_tolerance(tol: float) -> float:
    """Tolerance of the centered linear solve at boundary tolerance ``tol``:
    ``tol`` itself, floored at 1e-9. Coefficients the regime check accepts as
    centered at ``tol`` must also be accepted by the solve, otherwise fitted
    models with genuine o(.) remainders could never be classified."""
    return max(tol, 1e-9)


def classify_generalized(
    coeffs: AsymptoticCoefficients,
    refined: bool = False,
    tol: float = ANALYTIC_TOL,
) -> Classification:
    """Classification for centered constant drift parts with 1/x corrections;
    the centered solve runs at ``centering_tolerance(tol)``."""
    lc, a, residual = transform_generalized(coeffs, centering_tol=centering_tolerance(tol))
    U, V = compute_uv(coeffs, a)
    if V <= tol:
        raise DegenerateVarianceError(
            f"effective variance V={V!r} is not positive beyond tol={tol!r}; "
            "the model leaves the classification's hypotheses"
        )
    U2, V2 = lc.uv()
    gap = max(abs(U - U2), abs(V - V2))
    if gap > UV_CONSISTENCY_TOL * max(1.0, abs(U), abs(V)):
        raise ArithmeticError(
            f"direct and transformed (U, V) disagree by {gap:.3e}"
        )
    cls = _decide(
        U, V, refined, tol, RegimeTag.GENERALIZED_LAMPERTI,
        extra=f"a={dict(zip(coeffs.labels, a.tolist()))!r} residual={residual:.2e}",
    )
    return replace(cls, transform=(lc, a, residual))


def moment_threshold(U: float, V: float, p_cap: float = math.inf) -> MomentReport:
    """Critical passage-time moment exponent theta* = (V - U) / (2V).

    E[tau^s] is finite for s in [0, min(theta*, p_cap)) -- closed at the cap
    when the cap binds -- and infinite for s >= theta* provided theta* <=
    p_cap; beyond the cap nothing is settled. Finiteness at s = theta*
    exactly is undetermined.
    """
    _require_finite(U, V)
    if V <= 0.0:
        raise DegenerateVarianceError(f"V={V!r} must be positive")
    if not p_cap > 0.0:
        raise ValueError("p_cap must be positive")
    theta = (V - U) / (2.0 * V)
    cap_binds = p_cap < theta
    finite_sup = min(theta, p_cap)
    infinite_from = min(max(theta, 0.0), p_cap) if theta <= p_cap else None
    notes = ["finiteness of E[tau^s] at s = theta* exactly is not decided"]
    if theta <= 0.0:
        notes.append(
            "theta* <= 0: every positive moment is infinite (transient side); "
            "s = 0 is trivially finite"
        )
    if cap_binds:
        notes.append(
            "the jump-moment cap binds: s = p/2 itself is attained, and the "
            "moment ranges say nothing above the cap"
        )
    return MomentReport(
        theta_star=float(theta),
        p_cap=float(p_cap),
        finite_sup=float(max(finite_sup, 0.0)),
        finite_closed_at_sup=bool(cap_binds),
        infinite_from=None if infinite_from is None else float(infinite_from),
        gap_note="; ".join(notes),
    )
