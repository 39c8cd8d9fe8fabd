"""Exact one-step moments and asymptotic coefficient fits.

For finitely supported kernels every moment is an exact atom sum, so the
coefficients in the expansions

    mu_i(x)      = d_i + e_i / x + o(1/x)
    sigma2_i(x)  = t2_i + o(1)
    mu_ij(x)     = d_ij + o(1)
    q_ij(x)      = q_ij + gamma_ij / x + o(1/x)

are extracted by one least-squares fit of every series against [1, 1/x] on a
geometric grid. For a ``ChainModel`` on a grid past every bounded-x rule the
series are summed in one pass over its kernel tables; ``point_moments``,
which sums one state's ``distribution`` at a time, is the reference and the
fallback for grids that reach bounded x. For kernels that are exactly affine
in 1/x the fit is exact to rounding; for anything else the scaled residuals
say how credible the expansion is. Coefficients are arrays indexed by label
position: ``d[i]`` is the line of ``labels[i]`` and ``gamma[i, j]`` the move
from ``labels[i]`` to ``labels[j]``; the limiting label chain's ``Q_limit``
and ``pi`` follow the same order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .markov import (
    positive_distribution,
    require_irreducible,
    stationary_distribution,
    stochastic_matrix,
)
from .model import PROB_SUM_TOL, parse_labels, parse_number

DEFAULT_GRID = tuple(float(x) for x in np.logspace(2, 5, 7))
RESIDUAL_THRESHOLD = 1e-6
ROW_IDENTITY_TOL = 1e-8


class RegimeTag(str, enum.Enum):
    CONSTANT_DRIFT = "ConstantDrift"
    LAMPERTI = "Lamperti"
    GENERALIZED_LAMPERTI = "GeneralizedLamperti"


def frozen_array(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` as a read-only float array, which must have ``shape``."""
    array = np.array(value, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class PointMoments:
    """All lines' exact moments at one position, by label position: ``mu``
    and ``sigma2`` have shape (S,), ``mu_cross[i, j] = E[jump; next = j]`` and
    ``q[i, j] = P(next = j)`` have shape (S, S)."""

    at_x: float
    mu: np.ndarray
    sigma2: np.ndarray
    mu_cross: np.ndarray
    q: np.ndarray


def point_moments(model, x: float) -> PointMoments:
    """mu, sigma^2 and the label-resolved jump/transition sums of every line at x."""
    labels = model.labels
    n = len(labels)
    mu, sigma2 = [0.0] * n, [0.0] * n
    mu_cross = [[0.0] * n for _ in labels]
    q = [[0.0] * n for _ in labels]
    for i, label in enumerate(labels):
        for atom in model.distribution(x, label).atoms:
            j = model.label_index(atom.next_label)
            mu[i] += atom.prob * atom.jump
            sigma2[i] += atom.prob * (atom.jump * atom.jump)
            mu_cross[i][j] += atom.prob * atom.jump
            q[i][j] += atom.prob
        for name, value in (("mean", mu[i]), ("second moment", sigma2[i])):
            if not math.isfinite(value):
                raise ValueError(f"the step's {name} at ({float(x)!r}, {label!r}) is not finite")
    return PointMoments(float(x), np.array(mu), np.array(sigma2), np.array(mu_cross), np.array(q))


def _table_series(model, grid: np.ndarray) -> np.ndarray | None:
    """The fit's series, one row per grid point in the layout of
    ``fit_asymptotics``, summed from a ``ChainModel``'s kernel tables.

    From ``model._rules_top`` up no boundary rule, reset or override acts and
    every law is the closed form, so each atom's probability and increment
    are the values ``distribution`` builds, and the sums run over atom slots
    in declared order as ``point_moments``' loop does: every entry is
    bit-identical. A padded slot adds +0.0 to sums that start at +0.0.

    Returns None, so that ``point_moments`` decides and raises its own
    message, when a grid point is below ``_rules_top``, the model has no
    tables, or a check of ``IncrementDistribution`` or ``point_moments``
    could fail. The probability sum here may round differently from the
    numpy sum of 8 or more atoms, so it defers from half the tolerance up.
    """
    t = getattr(model, "_tables", None)
    if t is None or grid[0] < model._rules_top:
        return None
    xs = grid[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.broadcast_to(t.const, (len(grid), *t.const.shape))
        if t.has_inv:
            P = P + t.inv / xs
        if t.has_pow:
            # libm's pow, as _StepTables takes it, not numpy's
            xp = np.array([x**t.neg_exp for x in grid.tolist()])
            P = P + t.pow * xp[:, None, None]
        J = (xs + t.jump) - xs
        G, n, A = P.shape
        total, mu, sigma2 = np.zeros((3, G, n))
        mu_cross, q = np.zeros((2, G, n, n))
        rows = np.arange(n)
        for k in range(A):
            p, jump, nxt = P[:, :, k], J[:, :, k], t.next[:, k]
            pj = p * jump
            total += p
            mu += pj
            sigma2 += p * (jump * jump)
            mu_cross[:, rows, nxt] += pj
            q[:, rows, nxt] += p
    if (P.min() < -1e-15 or np.abs(total - 1.0).max() > PROB_SUM_TOL / 2
            or not (np.isfinite(mu).all() and np.isfinite(sigma2).all())):
        return None
    return np.concatenate([mu, sigma2, mu_cross.reshape(G, -1), q.reshape(G, -1)], axis=1)


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Fitted (or asserted) expansion coefficients of a model's kernel.

    ``d``, ``e``, ``t2``, ``pi`` have shape (S,) and ``d_cross`` (the d_ij),
    ``gamma``, ``Q_limit`` shape (S, S), indexed by label position; they are
    stored as read-only float arrays, ``Q_limit`` checked row-stochastic and
    ``pi`` strictly positive and summing to 1. Row identities are enforced at
    construction: per line, the gamma row sums to 0 and the d_ij row sums to
    d_i, both within ROW_IDENTITY_TOL; at least one t2 must be positive.
    ``refined_rates_hold`` is a user assertion about the o(x^-delta)
    refinements that no finite kernel evaluation can certify.
    """

    labels: tuple
    d: np.ndarray
    e: np.ndarray
    t2: np.ndarray
    d_cross: np.ndarray
    gamma: np.ndarray
    Q_limit: np.ndarray
    pi: np.ndarray
    fit_residuals: dict = field(default_factory=dict)
    warnings: tuple = ()
    refined_rates_hold: bool = False

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        n = len(labels)
        for name, shape in (("d", (n,)), ("e", (n,)), ("t2", (n,)),
                            ("d_cross", (n, n)), ("gamma", (n, n))):
            object.__setattr__(self, name, frozen_array(getattr(self, name), shape, name))
        object.__setattr__(self, "Q_limit", stochastic_matrix(self.Q_limit, n))
        object.__setattr__(self, "pi", positive_distribution(self.pi, n))
        if self.t2.max() <= 0.0:
            raise ValueError("at least one t2 must be positive")
        gaps = np.abs(self.gamma.sum(axis=1))
        if gaps.max() > ROW_IDENTITY_TOL:
            i = int(gaps.argmax())
            raise ValueError(f"gamma row {labels[i]!r} sums to {gaps[i]:.3e}, not 0")
        gaps = np.abs(self.d_cross.sum(axis=1) - self.d)
        if gaps.max() > ROW_IDENTITY_TOL:
            i = int(gaps.argmax())
            raise ValueError(
                f"d_ij row {labels[i]!r} does not sum to d_{labels[i]!r} (gap {gaps[i]:.3e})"
            )

    def pi_weighted_d(self) -> float:
        return float(self.pi @ self.d)

    def to_dict(self) -> dict:
        return {
            "type": "coefficients",
            "labels": list(self.labels),
            "d": self.d.tolist(),
            "e": self.e.tolist(),
            "t2": self.t2.tolist(),
            "d_cross": self.d_cross.tolist(),
            "gamma": self.gamma.tolist(),
            "Q": self.Q_limit.tolist(),
            "pi": self.pi.tolist(),
            "fit_residuals": dict(self.fit_residuals),
            "warnings": list(self.warnings),
            "refined_rates_hold": self.refined_rates_hold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AsymptoticCoefficients":
        if not isinstance(data, dict):
            raise ValueError(f"coefficients spec: expected an object, got {type(data).__name__}")
        required = {"labels", "d", "e", "t2", "d_cross", "gamma", "Q"}
        optional = {"type", "pi", "fit_residuals", "warnings", "refined_rates_hold"}
        unknown = set(data) - required - optional
        if unknown:
            raise ValueError(f"coefficients spec: unknown keys {sorted(unknown)!r}")
        missing = required - set(data)
        if missing:
            raise ValueError(f"coefficients spec: missing keys {sorted(missing)!r}")
        labels = parse_labels(data["labels"], "coefficients spec")
        n = len(labels)

        def vec(name, value):
            if not isinstance(value, list) or len(value) != n:
                raise ValueError(f"coefficients spec: {name} must be a list of {n} entries")
            return [parse_number(x, f"coefficients spec: {name}") for x in value]

        def mat(name):
            rows = data[name]
            if not isinstance(rows, list) or len(rows) != n:
                raise ValueError(f"coefficients spec: {name} must be {n}x{n}")
            return [vec(name, row) for row in rows]

        Q = stochastic_matrix(mat("Q"), n)
        require_irreducible(Q)
        if "pi" in data:
            pi = positive_distribution(vec("pi", data["pi"]), n)
            defect = float(np.max(np.abs(pi @ Q - pi)))
            if defect > 1e-8:
                raise ValueError(
                    f"coefficients spec: supplied pi is not stationary for Q "
                    f"(defect {defect:.3e})"
                )
        else:
            pi = stationary_distribution(Q)
        fit_residuals = data.get("fit_residuals", {})
        if not isinstance(fit_residuals, dict):
            raise ValueError("coefficients spec: fit_residuals must be an object")
        for name, value in fit_residuals.items():
            parse_number(value, f"coefficients spec: fit_residuals {name!r:.40}")
        warnings = data.get("warnings", [])
        if not isinstance(warnings, list) or not all(isinstance(w, str) for w in warnings):
            raise ValueError("coefficients spec: warnings must be a list of strings")
        refined = data.get("refined_rates_hold", False)
        if not isinstance(refined, bool):
            raise ValueError("coefficients spec: refined_rates_hold must be true or false")
        return cls(
            labels=labels,
            d=vec("d", data["d"]),
            e=vec("e", data["e"]),
            t2=vec("t2", data["t2"]),
            d_cross=mat("d_cross"),
            gamma=mat("gamma"),
            Q_limit=Q,
            pi=pi,
            fit_residuals=dict(fit_residuals),
            warnings=tuple(warnings),
            refined_rates_hold=refined,
        )


def fit_asymptotics(
    model,
    grid: Sequence[float] | None = None,
    residual_threshold: float = RESIDUAL_THRESHOLD,
    refined_rates_hold: bool = False,
) -> AsymptoticCoefficients:
    """Fit expansion coefficients from exact kernel moments on a position grid.

    The grid must hold at least 4 finite, positive points spanning at least
    two decades. The moment series come from the kernel tables in one pass
    when the grid lies past every bounded-x rule, and from ``point_moments``
    at each grid point otherwise; both give the same bits. Every moment
    series is fitted against [1, 1/x] in one least-squares solve; a family's
    residual is the worst over its series of max_x |series - fit| * x, the
    natural size of an o(1/x) violation.
    Residuals above ``residual_threshold`` produce warnings (the expansion
    hypothesis looks violated), never a failure.
    """
    grid = np.array(sorted(grid if grid is not None else DEFAULT_GRID), dtype=float)
    if len(grid) < 4:
        raise ValueError("grid needs at least 4 points")
    if not (np.isfinite(grid).all() and grid[0] > 0.0):
        raise ValueError("grid points must be finite and positive")
    if grid[-1] < 100.0 * grid[0]:
        raise ValueError("grid must span at least two decades")

    labels = model.labels
    n = len(labels)
    # one column per series: mu (n), sigma2 (n), mu_cross (n*n), q (n*n)
    series = _table_series(model, grid)
    if series is None:
        series = np.array([
            np.concatenate([m.mu, m.sigma2, m.mu_cross.ravel(), m.q.ravel()])
            for m in (point_moments(model, x) for x in grid)
        ])
    inv = 1.0 / grid
    design = np.column_stack([np.ones_like(grid), inv])
    beta, *_ = np.linalg.lstsq(design, series, rcond=None)
    # elementwise, not design @ beta: a matrix product may round differently
    resid = np.max(np.abs(series - (beta[0] + inv[:, None] * beta[1])) * grid[:, None], axis=0)
    cut = np.cumsum([n, n, n * n])
    residuals = {
        name: float(np.max(r))
        for name, r in zip(("mu", "sigma2", "mu_cross", "q"), np.split(resid, cut))
    }
    const, slope = np.split(beta[0], cut), np.split(beta[1], cut)
    d, e, t2 = const[0], slope[0], const[1]
    d_cross, gamma = const[2].reshape(n, n), slope[3].reshape(n, n)
    for name, values in (("d", d), ("e", e), ("t2", t2), ("d_ij", d_cross), ("gamma", gamma)):
        if not np.isfinite(values).all():
            raise ValueError(f"fitted coefficient {name} is not finite")

    warnings = [
        f"{name} fit residual {value:.3e} exceeds {residual_threshold:.1e}; "
        "the o(.) hypothesis looks violated"
        for name, value in residuals.items()
        if value > residual_threshold
    ]

    raw_q = const[3].reshape(n, n)
    if raw_q.min() < -1e-9:
        warnings.append(
            f"fitted limiting transition matrix has negative entry {raw_q.min():.3e}; clipped"
        )
    raw_q = np.clip(raw_q, 0.0, None)
    raw_q /= raw_q.sum(axis=1, keepdims=True)
    pi = stationary_distribution(raw_q)
    # t2 must not be pushed negative by rounding on exact-variance kernels
    t2 = np.where((t2 < 0.0) & (np.abs(t2) < 1e-12), 0.0, t2)

    return AsymptoticCoefficients(
        labels=labels,
        d=d,
        e=e,
        t2=t2,
        d_cross=d_cross,
        gamma=gamma,
        Q_limit=raw_q,
        pi=pi,
        fit_residuals=residuals,
        warnings=tuple(warnings),
        refined_rates_hold=refined_rates_hold,
    )


def check_regime(coeffs: AsymptoticCoefficients, tol: float = 1e-9) -> RegimeTag:
    """Route coefficients to the decision rule that applies.

    ConstantDrift when the pi-weighted mean drift is not centered; Lamperti
    when every constant drift part vanishes; GeneralizedLamperti otherwise.
    """
    if abs(coeffs.pi_weighted_d()) > tol:
        return RegimeTag.CONSTANT_DRIFT
    if (np.abs(coeffs.d) <= tol).all():
        return RegimeTag.LAMPERTI
    return RegimeTag.GENERALIZED_LAMPERTI
