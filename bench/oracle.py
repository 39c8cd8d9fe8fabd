"""Answers for the built-in correlated random walk (CRW) computed apart from
the program: closed forms for ``analyze`` and an exact survival curve for the
passage time.

Nothing here imports ``halfstrip``; the kernel is restated from its
documented definition. From ``(x, i)`` at or above the formula floor the walk
steps ``+1`` with probability ``base_i + c_i/(2x)``, where ``base_{+1} = q``
and ``base_{-1} = 1 - q``, and ``-1`` otherwise; the new label is the jump.
Below the floor the uncorrected ``(q, 1 - q)`` kernel applies.
"""

from __future__ import annotations

import math

import numpy as np

PROB_BAND = (0.01, 0.99)


def crw_closed_form(q: float, c_plus: float, c_minus: float) -> dict:
    """Verdict, ``U``, ``V`` and ``theta*`` of the CRW, exact for any remainder term."""
    U = (c_plus + c_minus) / (2.0 * (1.0 - q))
    V = q / (1.0 - q)
    if U > V:
        verdict = "Transient"
    elif U < -V:
        verdict = "PositiveRecurrent"
    elif abs(U) < V:
        verdict = "NullRecurrent"
    else:
        verdict = "BoundaryNullRecurrent"
    return {"verdict": verdict, "U": U, "V": V, "theta_star": (V - U) / (2.0 * V)}


def _crw_floor(q: float, c_plus: float, c_minus: float) -> int:
    """Smallest integer x >= 1 from which all four step probabilities stay in
    ``PROB_BAND``. With no remainder term each probability is monotone in x
    and tends to q or 1 - q, so checking x itself is enough."""
    lo, hi = PROB_BAND
    if not lo <= q <= hi or not lo <= 1.0 - q <= hi:
        raise ValueError("q is outside the probability band")
    x = 1
    while True:
        probs = (q + c_plus / (2 * x), 1 - q - c_plus / (2 * x),
                 1 - q + c_minus / (2 * x), q - c_minus / (2 * x))
        if all(lo <= p <= hi for p in probs):
            return x
        x += 1


class CrwSurvival:
    """Exact ``P(tau > t)`` for ``tau = min{n : X_n <= level}`` of the CRW
    with no remainder term, from an integer start state.

    The sub-probability mass of the chain killed at ``X <= level`` is pushed
    forward on the lattice ``{level+1, ..., x_max} x {+1, -1}``. Mass that
    steps above ``x_max`` leaves the lattice; its fate is unknown, so it is
    carried as ``escaped``, and the true survival lies in
    ``[alive, alive + escaped]``. ``x_max`` defaults to ``start + t_max``,
    where nothing can escape, capped at ``start + 12 sqrt(t_max)``.
    """

    def __init__(self, q: float, c_plus: float, c_minus: float, start: int, label: int,
                 level: int, t_max: int, x_max: int | None = None):
        if label not in (1, -1):
            raise ValueError("label must be +1 or -1")
        if not level < start:
            raise ValueError("start must lie above the level")
        floor = _crw_floor(q, c_plus, c_minus)
        if x_max is None:
            x_max = start + min(t_max, 12 * math.isqrt(t_max) + 12)
        lo = level + 1
        x = np.arange(lo, x_max + 1, dtype=float)
        above = x >= floor
        # probability of stepping +1 from each lattice point, per label
        up_p = np.where(above, q + c_plus / (2 * x), q)
        up_m = np.where(above, 1 - q + c_minus / (2 * x), 1 - q)
        m_p = np.zeros(len(x))
        m_m = np.zeros(len(x))
        (m_p if label == 1 else m_m)[start - lo] = 1.0
        alive = np.empty(t_max + 1)
        escaped = np.empty(t_max + 1)
        alive[0], escaped[0] = 1.0, 0.0
        gone = 0.0
        for t in range(1, t_max + 1):
            up = m_p * up_p + m_m * up_m
            down = (m_p + m_m) - up
            gone += up[-1]
            m_p = np.empty_like(up)
            m_p[0] = 0.0
            m_p[1:] = up[:-1]
            m_m = np.empty_like(down)
            m_m[-1] = 0.0
            m_m[:-1] = down[1:]  # down[0] drops to the level: absorbed
            alive[t] = m_p.sum() + m_m.sum()
            escaped[t] = gone
        self.alive = alive
        self.escaped = escaped
        self.t_max = t_max

    def survival(self, t: int) -> tuple:
        """``(P(tau > t) lower bound, width of the escape band)``."""
        if not 0 <= t <= self.t_max:
            raise ValueError(f"t={t} is outside [0, {self.t_max}]")
        return float(self.alive[t]), float(self.escaped[t])


def binomial_z(fraction: float, n: int, p_lo: float, p_hi: float) -> float:
    """Signed distance, in binomial standard deviations, of an observed
    fraction of ``n`` draws from the interval ``[p_lo, p_hi]`` known to hold
    the true probability; 0 inside the interval."""
    sd = math.sqrt(max(p_lo * (1.0 - p_lo), 1.0 / n**2) / n)
    if fraction < p_lo:
        return (fraction - p_lo) / sd
    if fraction > p_hi:
        return (fraction - p_hi) / sd
    return 0.0
