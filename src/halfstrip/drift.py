"""Exact one-step moment functionals and asymptotic coefficient fits.

For finitely supported kernels every moment is an exact atom sum, so the
coefficients in the expansions

    mu_i(x)      = d_i + e_i / x + o(1/x)
    sigma2_i(x)  = t2_i + o(1)
    mu_ij(x)     = d_ij + o(1)
    q_ij(x)      = q_ij + gamma_ij / x + o(1/x)

are extracted by least squares against [1, 1/x] on a geometric grid. For
kernels that are exactly affine in 1/x the fit is exact to rounding; for
anything else the scaled residuals say how credible the expansion is.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .markov import (
    StationaryDistribution,
    StochasticMatrix,
    stationary_distribution,
)
from .model import parse_labels, parse_number

DEFAULT_GRID = tuple(float(x) for x in np.logspace(2, 5, 7))
RESIDUAL_THRESHOLD = 1e-6
ROW_IDENTITY_TOL = 1e-8


class RegimeTag(str, enum.Enum):
    CONSTANT_DRIFT = "ConstantDrift"
    LAMPERTI = "Lamperti"
    GENERALIZED_LAMPERTI = "GeneralizedLamperti"


@dataclass(frozen=True)
class LineMoments:
    """Exact moments of one line's kernel at one position."""

    at_x: float
    label: object
    mu: float
    sigma2: float
    mu_cross: dict   # next label -> E[jump; next]
    q_row: dict      # next label -> transition probability

    def __post_init__(self):
        if self.sigma2 < 0.0:
            raise ValueError("second moment cannot be negative")


@dataclass(frozen=True)
class PointMoments:
    """All lines' exact moments at one position."""

    at_x: float
    mu: dict
    sigma2: dict
    mu_cross: dict   # (i, j) -> value
    q_at: dict       # (i, j) -> value


def moment_functionals(model, x: float, label) -> LineMoments:
    """mu, sigma^2, and the label-resolved jump/transition sums at (x, label)."""
    dist = model.distribution(x, label)
    mu = 0.0
    sigma2 = 0.0
    mu_cross = {k: 0.0 for k in model.labels}
    q_row = {k: 0.0 for k in model.labels}
    for atom in dist.atoms:
        mu += atom.prob * atom.jump
        sigma2 += atom.prob * (atom.jump * atom.jump)
        mu_cross[atom.next_label] += atom.prob * atom.jump
        q_row[atom.next_label] += atom.prob
    for name, value in (("mean", mu), ("second moment", sigma2)):
        if not math.isfinite(value):
            raise ValueError(f"the step's {name} at ({float(x)!r}, {label!r}) is not finite")
    return LineMoments(float(x), label, mu, sigma2, mu_cross, q_row)


def point_moments(model, x: float) -> PointMoments:
    mu, sigma2, mu_cross, q_at = {}, {}, {}, {}
    for label in model.labels:
        lm = moment_functionals(model, x, label)
        mu[label] = lm.mu
        sigma2[label] = lm.sigma2
        for j in model.labels:
            mu_cross[(label, j)] = lm.mu_cross[j]
            q_at[(label, j)] = lm.q_row[j]
    return PointMoments(float(x), mu, sigma2, mu_cross, q_at)


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Fitted (or asserted) expansion coefficients of a model's kernel.

    Row identities are enforced at construction: per line, the gamma row sums
    to 0 and the d_ij row sums to d_i, both within ROW_IDENTITY_TOL; at least
    one t2 must be positive. ``refined_rates_hold`` is a user assertion about
    the o(x^-delta) refinements that no finite kernel evaluation can certify.
    """

    labels: tuple
    d: dict
    e: dict
    t2: dict
    d_cross: dict    # (i, j) -> value
    gamma: dict      # (i, j) -> value
    Q_limit: StochasticMatrix
    pi: StationaryDistribution
    fit_residuals: dict = field(default_factory=dict)
    warnings: tuple = ()
    refined_rates_hold: bool = False
    t2_slopes: dict | None = None
    d_cross_slopes: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if max(self.t2[k] for k in self.labels) <= 0.0:
            raise ValueError("at least one t2 must be positive")
        for i in self.labels:
            gap = abs(sum(self.gamma[(i, j)] for j in self.labels))
            if gap > ROW_IDENTITY_TOL:
                raise ValueError(f"gamma row {i!r} sums to {gap:.3e}, not 0")
            gap = abs(sum(self.d_cross[(i, j)] for j in self.labels) - self.d[i])
            if gap > ROW_IDENTITY_TOL:
                raise ValueError(f"d_ij row {i!r} does not sum to d_{i!r} (gap {gap:.3e})")

    def pi_weighted_d(self) -> float:
        return self.pi.mean([self.d[k] for k in self.labels])

    def to_dict(self) -> dict:
        n = self.labels
        return {
            "type": "coefficients",
            "labels": list(n),
            "d": [self.d[k] for k in n],
            "e": [self.e[k] for k in n],
            "t2": [self.t2[k] for k in n],
            "d_cross": [[self.d_cross[(i, j)] for j in n] for i in n],
            "gamma": [[self.gamma[(i, j)] for j in n] for i in n],
            "Q": self.Q_limit.entries.tolist(),
            "pi": self.pi.weights.tolist(),
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

        def pairs(name):
            m = mat(name)
            return {(i, j): m[a][b] for a, i in enumerate(labels) for b, j in enumerate(labels)}

        Q = StochasticMatrix(labels, mat("Q"))
        if "pi" in data:
            pi = StationaryDistribution(labels, vec("pi", data["pi"]))
            defect = float(np.max(np.abs(pi.weights @ Q.entries - pi.weights)))
            if defect > 1e-8:
                raise ValueError(
                    f"coefficients spec: supplied pi is not stationary for Q "
                    f"(defect {defect:.3e})"
                )
        else:
            pi = stationary_distribution(Q)
        fit_residuals = data.get("fit_residuals", {})
        warnings = data.get("warnings", [])
        if not isinstance(fit_residuals, dict) or not isinstance(warnings, list):
            raise ValueError("coefficients spec: fit_residuals must be an object, warnings a list")
        return cls(
            labels=labels,
            d=dict(zip(labels, vec("d", data["d"]))),
            e=dict(zip(labels, vec("e", data["e"]))),
            t2=dict(zip(labels, vec("t2", data["t2"]))),
            d_cross=pairs("d_cross"),
            gamma=pairs("gamma"),
            Q_limit=Q,
            pi=pi,
            fit_residuals=dict(fit_residuals),
            warnings=tuple(warnings),
            refined_rates_hold=bool(data.get("refined_rates_hold", False)),
        )


def _affine_fit(grid: np.ndarray, series: np.ndarray):
    """Least-squares fit of series(x) against [1, 1/x].

    Returns (intercept, slope, scaled_residual) with the residual being
    max_x |series - fit| * x, the natural size of an o(1/x) violation.
    """
    design = np.column_stack([np.ones_like(grid), 1.0 / grid])
    beta, *_ = np.linalg.lstsq(design, series, rcond=None)
    resid = float(np.max(np.abs(series - design @ beta) * grid))
    return float(beta[0]), float(beta[1]), resid


def fit_asymptotics(
    model,
    grid: Sequence[float] | None = None,
    residual_threshold: float = RESIDUAL_THRESHOLD,
    refined_rates_hold: bool = False,
) -> AsymptoticCoefficients:
    """Fit expansion coefficients from exact kernel moments on a position grid.

    The grid must contain at least 4 points spanning at least two decades.
    Fit residuals above ``residual_threshold`` produce warnings (the expansion
    hypothesis looks violated), never a failure.
    """
    grid = np.array(sorted(grid if grid is not None else DEFAULT_GRID), dtype=float)
    if len(grid) < 4:
        raise ValueError("grid needs at least 4 points")
    if grid[-1] < 100.0 * grid[0]:
        raise ValueError("grid must span at least two decades")

    labels = model.labels
    moments = [point_moments(model, x) for x in grid]

    d, e, t2, t2_slope = {}, {}, {}, {}
    d_cross, d_cross_slope, gamma, q_lim = {}, {}, {}, {}
    residuals = {"mu": 0.0, "sigma2": 0.0, "mu_cross": 0.0, "q": 0.0}
    for i in labels:
        di, ei, r = _affine_fit(grid, np.array([m.mu[i] for m in moments]))
        d[i], e[i] = di, ei
        residuals["mu"] = max(residuals["mu"], r)
        ti, si, r = _affine_fit(grid, np.array([m.sigma2[i] for m in moments]))
        t2[i], t2_slope[i] = ti, si
        residuals["sigma2"] = max(residuals["sigma2"], r)
        for j in labels:
            dij, sij, r = _affine_fit(grid, np.array([m.mu_cross[(i, j)] for m in moments]))
            d_cross[(i, j)], d_cross_slope[(i, j)] = dij, sij
            residuals["mu_cross"] = max(residuals["mu_cross"], r)
            qij, gij, r = _affine_fit(grid, np.array([m.q_at[(i, j)] for m in moments]))
            q_lim[(i, j)], gamma[(i, j)] = qij, gij
            residuals["q"] = max(residuals["q"], r)
    for name, values in (("d", d), ("e", e), ("t2", t2), ("d_ij", d_cross), ("gamma", gamma)):
        for key, value in values.items():
            if not math.isfinite(value):
                raise ValueError(f"fitted coefficient {name}[{key!r}] is not finite")

    warnings = [
        f"{name} fit residual {value:.3e} exceeds {residual_threshold:.1e}; "
        "the o(.) hypothesis looks violated"
        for name, value in residuals.items()
        if value > residual_threshold
    ]

    raw_q = np.array([[q_lim[(i, j)] for j in labels] for i in labels])
    if raw_q.min() < -1e-9:
        warnings.append(
            f"fitted limiting transition matrix has negative entry {raw_q.min():.3e}; clipped"
        )
    raw_q = np.clip(raw_q, 0.0, None)
    raw_q /= raw_q.sum(axis=1, keepdims=True)
    Q_limit = StochasticMatrix(labels, raw_q)
    pi = stationary_distribution(Q_limit)
    gamma = {k: float(v) for k, v in gamma.items()}
    # t2 must not be pushed negative by rounding on exact-variance kernels
    t2 = {k: max(v, 0.0) if abs(v) < 1e-12 else v for k, v in t2.items()}

    return AsymptoticCoefficients(
        labels=labels,
        d=d,
        e=e,
        t2=t2,
        d_cross=d_cross,
        gamma=gamma,
        Q_limit=Q_limit,
        pi=pi,
        fit_residuals={k: float(v) for k, v in residuals.items()},
        warnings=tuple(warnings),
        refined_rates_hold=refined_rates_hold,
        t2_slopes=t2_slope,
        d_cross_slopes=d_cross_slope,
    )


def check_regime(coeffs: AsymptoticCoefficients, tol: float = 1e-9) -> RegimeTag:
    """Route coefficients to the decision rule that applies.

    ConstantDrift when the pi-weighted mean drift is not centered; Lamperti
    when every constant drift part vanishes; GeneralizedLamperti otherwise.
    """
    if abs(coeffs.pi_weighted_d()) > tol:
        return RegimeTag.CONSTANT_DRIFT
    if all(abs(coeffs.d[k]) <= tol for k in coeffs.labels):
        return RegimeTag.LAMPERTI
    return RegimeTag.GENERALIZED_LAMPERTI
