"""Monte Carlo engine: trajectories, passage-time samples, recurrence
diagnostics, and tail-exponent estimation.

Reproducibility contract
------------------------
Every trajectory owns a private RNG stream derived from the master seed and
its index by a counter scheme: stream(k) = PCG64(SeedSequence(master_seed,
spawn_key=(domain, k))). A trajectory consumes exactly one uniform per step
(deterministic steps included), in stream order, so its output is a pure
function of (model, start, level, cap, master_seed, index). Batched stepping
and worker counts only change scheduling and how many pre-drawn uniforms are
discarded -- never any output byte.

Censoring
---------
A passage sample whose trajectory has not dropped to the level within ``cap``
steps is right-censored: its observed time is the cap and it enters survival
estimates as a censored observation, never as an event.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import State

DEFAULT_BLOCK = 2048
DEFAULT_BATCH = 4096
SCALAR_TAIL = 16
_DOMAIN_PASSAGE = 0
_DOMAIN_HORIZON = 1
_DOMAIN_TRAJECTORY = 2
_DOMAIN_PROBE = 3


class EstimationError(ValueError):
    """Not enough usable samples for the requested estimate."""


def _stream(master_seed: int, domain: int, index: int) -> np.random.Generator:
    entropy = int(master_seed) % (2**64)
    seq = np.random.SeedSequence(entropy, spawn_key=(domain, index))
    return np.random.Generator(np.random.PCG64(seq))


def _refill(buffer: np.ndarray, gens: list) -> None:
    for row, gen in enumerate(gens):
        gen.random(out=buffer[row])


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    positions: np.ndarray
    label_indices: np.ndarray
    labels: tuple
    seed: int
    steps: int

    def __len__(self) -> int:
        return self.steps + 1

    def state(self, n: int) -> State:
        return State(float(self.positions[n]), self.labels[int(self.label_indices[n])])

    @property
    def states(self) -> list:
        return [self.state(n) for n in range(len(self))]


def simulate(model, start: State, horizon: int, seed: int) -> Trajectory:
    """Sample one trajectory of ``horizon`` steps, bit-reproducible from the seed."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    li = model.label_index(start.label)
    pos = float(start.position)
    if not (math.isfinite(pos) and pos >= 0.0):
        raise ValueError(f"start position must be finite and >= 0, got {pos!r}")
    positions = np.empty(horizon + 1)
    label_idx = np.empty(horizon + 1, dtype=np.int64)
    positions[0] = pos
    label_idx[0] = li
    if horizon:
        gen = _stream(seed, _DOMAIN_TRAJECTORY, 0)
        step = model.step_scalar
        x, cur_li = pos, li
        block = DEFAULT_BLOCK
        buf = gen.random(block).tolist()
        cursor = 0
        for t in range(1, horizon + 1):
            if cursor == block:
                buf = gen.random(block).tolist()
                cursor = 0
            x, cur_li = step(x, cur_li, buf[cursor])
            cursor += 1
            positions[t] = x
            label_idx[t] = cur_li
    positions.flags.writeable = False
    label_idx.flags.writeable = False
    return Trajectory(positions, label_idx, model.labels, int(seed), int(horizon))


def step_frequencies(model, state: State, n_draws: int, seed: int) -> dict:
    """Empirical law of a single step from a fixed state over n independent draws.

    Returns {(jump, next_label): count}; the draws use one dedicated stream.
    """
    li = model.label_index(state.label)
    gen = _stream(seed, _DOMAIN_PROBE, 0)
    u = gen.random(n_draws)
    x = np.full(n_draws, float(state.position))
    lab = np.full(n_draws, li, dtype=np.int64)
    nx, nl = model.step_batch(x, lab, u)
    jumps = nx - float(state.position)
    counts = {}
    for j, l in zip(jumps, nl):
        key = (float(j), model.labels[int(l)])
        counts[key] = counts.get(key, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# passage times
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PassageSample:
    """One sampled passage time tau = min{n >= 0 : X_n <= level}.

    ``tau`` is None when the trajectory was censored at ``cap`` steps;
    ``steps`` is the number of steps actually simulated (tau, or cap when
    censored).
    """

    tau: int | None
    censored: bool
    cap: int
    start: State
    level: float
    steps: int


def _finish_scalar(model, x, li, level, cap, steps, gen, row_tail, block):
    """Run one trajectory to absorption or cap with the scalar step lane,
    continuing mid-block exactly where the vector lane stopped."""
    step = model.step_scalar
    data = row_tail
    cursor = 0
    n_data = len(data)
    while steps < cap:
        if cursor == n_data:
            data = gen.random(block).tolist()
            n_data = block
            cursor = 0
        x, li = step(x, li, data[cursor])
        cursor += 1
        steps += 1
        if x <= level:
            return steps
    return -1


def _passage_chunk(model, start_pos, start_li, level, cap, master_seed, index0, count, block):
    taus = np.full(count, -1, dtype=np.int64)
    if start_pos <= level:
        taus[:] = 0
        return taus
    gens = [_stream(master_seed, _DOMAIN_PASSAGE, index0 + k) for k in range(count)]
    x = np.full(count, float(start_pos))
    lab = np.full(count, start_li, dtype=np.int64)
    orig = np.arange(count)
    done = np.zeros(count, dtype=bool)
    buf = np.empty((count, block))
    _refill(buf, gens)
    cursor = 0
    steps = 0

    def scalar_tail():
        # few survivors: per-trajectory scalar loops beat batch overhead
        for row in range(len(orig)):
            if not done[row]:
                taus[orig[row]] = _finish_scalar(
                    model, float(x[row]), int(lab[row]), level, cap, steps,
                    gens[row], buf[row, cursor:].tolist(), block,
                )

    if count <= SCALAR_TAIL:
        scalar_tail()
        return taus
    while steps < cap:
        if cursor == block:
            _refill(buf, gens)
            cursor = 0
        u = buf[:, cursor]
        cursor += 1
        x, lab = model.step_batch(x, lab, u)
        steps += 1
        # finished rows sit at +inf, so a plain comparison finds first hits
        newly = x <= level
        if newly.any():
            taus[orig[newly]] = steps
            done = done | newly
            x[newly] = np.inf
            n_done = int(done.sum())
            if n_done == len(orig):
                break
            if len(orig) - n_done <= SCALAR_TAIL:
                scalar_tail()
                break
            # compact once at least half the resident rows are retired
            if n_done * 2 >= len(orig) and len(orig) >= 64:
                keep = ~done
                x, lab, orig, done = x[keep], lab[keep], orig[keep], done[keep]
                buf = np.ascontiguousarray(buf[keep])
                gens = [g for g, k in zip(gens, keep) if k]
    return taus


def _passage_worker(args):
    return _passage_chunk(*args)


def sample_passage_times(
    model,
    start: State,
    level: float,
    cap: int,
    n: int,
    master_seed: int,
    workers: int = 1,
) -> list:
    """n independent passage-time samples from per-trajectory streams.

    The trajectories are stepped in chunks of at most DEFAULT_BATCH, split
    evenly over ``workers`` processes. Output is identical for any
    ``workers``; it only trades memory and processes against speed.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    li = model.label_index(start.label)
    pos = float(start.position)
    if not (math.isfinite(pos) and pos >= 0.0):
        raise ValueError(f"start position must be finite and >= 0, got {pos!r}")
    level = float(level)
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level!r}")

    size = max(1, min(DEFAULT_BATCH, math.ceil(n / max(workers, 1))))
    args = [(model, pos, li, level, cap, master_seed, i0, min(size, n - i0), DEFAULT_BLOCK)
            for i0 in range(0, n, size)]
    if workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk_taus = list(pool.map(_passage_worker, args))
    else:
        chunk_taus = [_passage_chunk(*a) for a in args]

    samples = []
    for tau in (t for chunk in chunk_taus for t in chunk.tolist()):
        censored = tau < 0
        samples.append(
            PassageSample(
                tau=None if censored else tau,
                censored=censored,
                cap=int(cap),
                start=State(pos, start.label),
                level=level,
                steps=int(cap) if censored else tau,
            )
        )
    return samples


def write_samples_csv(samples: Sequence[PassageSample], stream) -> None:
    """CSV with header tau,censored,steps; tau is blank for censored rows."""
    stream.write("tau,censored,steps\n")
    for s in samples:
        tau_txt = "" if s.censored else str(s.tau)
        stream.write(f"{tau_txt},{int(s.censored)},{s.steps}\n")


# ---------------------------------------------------------------------------
# moments and tail estimation
# ---------------------------------------------------------------------------

def empirical_moment(samples: Sequence[PassageSample], s: float):
    """(mean of min(tau, cap)^s, lower_bound_flag).

    Censored samples contribute cap^s, so with any censoring the estimate is
    a lower bound for E[tau^s] and the flag is set.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if not samples:
        raise EstimationError("no samples")
    steps = np.array([smp.steps for smp in samples], dtype=float)
    censored = any(smp.censored for smp in samples)
    return float(np.mean(steps**s)), censored


def _km_curve(times: np.ndarray, events: np.ndarray):
    """Kaplan-Meier survival curve; censored observations leave the risk set
    without contributing an event. Returns (event_times, survival_at_them)."""
    order = np.argsort(times, kind="stable")
    times = times[order]
    events = events[order]
    uniq, starts = np.unique(times, return_index=True)
    n = len(times)
    surv = []
    s = 1.0
    for t, i0 in zip(uniq, starts):
        i1 = np.searchsorted(times, t, side="right")
        d = int(events[i0:i1].sum())
        at_risk = n - i0
        if d:
            s *= 1.0 - d / at_risk
        surv.append((float(t), s, d))
    ev = [(t, s) for t, s, d in surv if d > 0]
    return np.array([t for t, _ in ev]), np.array([s for _, s in ev])


@dataclass(frozen=True)
class TailEstimate:
    exponent: float
    stderr: float
    n_samples: int
    n_uncensored: int
    censored_fraction: float
    method: str
    power_law_ok: bool
    note: str
    params: dict = field(default_factory=dict)


def tail_exponent(
    samples: Sequence[PassageSample],
    method: str = "survival-regression",
    window: tuple = (0.5, 0.99),
    min_uncensored: int = 1000,
    hill_k: int | None = None,
) -> TailEstimate:
    """Estimate the polynomial decay exponent of P(tau > t).

    ``survival-regression`` fits the log-log slope of the Kaplan-Meier
    survival curve over the central quantile window (default [0.5, 0.99], so
    survival values in [0.01, 0.5]); censored samples shrink the risk set
    without contributing events. ``hill`` is the classical order-statistics
    cross-check on the uncensored observations.
    """
    n = len(samples)
    uncensored = [smp for smp in samples if not smp.censored]
    if len(uncensored) < min_uncensored:
        raise EstimationError(
            f"need at least {min_uncensored} uncensored samples, got {len(uncensored)}"
        )
    censored_fraction = 1.0 - len(uncensored) / n

    if method == "hill":
        xs = np.sort(np.array([float(smp.tau) for smp in uncensored]))[::-1]
        xs = xs[xs > 0]
        k = hill_k if hill_k is not None else max(10, len(xs) // 20)
        if k + 1 > len(xs):
            raise EstimationError(f"hill order k={k} too large for {len(xs)} positive samples")
        threshold = xs[k]
        logs = np.log(xs[:k] / threshold)
        alpha = 1.0 / float(np.mean(logs))
        if alpha <= 0:
            raise EstimationError("hill estimate is non-positive; no polynomial tail")
        note = "" if censored_fraction == 0 else (
            "censored samples excluded; the estimate is biased toward lighter tails"
        )
        return TailEstimate(
            exponent=alpha,
            stderr=alpha / math.sqrt(k),
            n_samples=n,
            n_uncensored=len(uncensored),
            censored_fraction=censored_fraction,
            method="hill",
            power_law_ok=True,
            note=note,
            params={"k": int(k)},
        )

    if method != "survival-regression":
        raise ValueError(f"unknown method {method!r}")

    times = np.array([float(smp.steps) for smp in samples])
    events = np.array([not smp.censored for smp in samples], dtype=bool)
    ev_t, ev_s = _km_curve(times, events)
    lo_s, hi_s = 1.0 - window[1], 1.0 - window[0]
    keep = (ev_s >= lo_s) & (ev_s <= hi_s) & (ev_t > 0) & (ev_s > 0)
    if keep.sum() < 10:
        raise EstimationError(
            f"only {int(keep.sum())} survival points inside the window; cannot fit"
        )
    lt = np.log(ev_t[keep])
    ls = np.log(ev_s[keep])
    design = np.column_stack([np.ones_like(lt), lt])
    beta, *_ = np.linalg.lstsq(design, ls, rcond=None)
    slope = float(beta[1])
    resid = ls - design @ beta
    dof = max(len(lt) - 2, 1)
    denom = float(np.sum((lt - lt.mean()) ** 2))
    stderr = math.sqrt(float(resid @ resid) / dof / denom) if denom > 0 else math.inf
    if slope >= 0:
        raise EstimationError("survival curve does not decay; no polynomial tail")

    # curvature probe: a genuine power law has the same slope on both window halves
    mid = np.searchsorted(lt, np.median(lt))
    power_law_ok = True
    curvature = 0.0
    if 3 <= mid <= len(lt) - 3:
        s1 = np.polyfit(lt[:mid], ls[:mid], 1)[0]
        s2 = np.polyfit(lt[mid:], ls[mid:], 1)[0]
        curvature = abs(s2 - s1) / max(abs(slope), 1e-12)
        power_law_ok = curvature <= 0.35
    note = "" if power_law_ok else (
        f"log-log slope drifts across the window (curvature {curvature:.2f}); "
        "the tail does not look like a power law"
    )
    return TailEstimate(
        exponent=-slope,
        stderr=stderr,
        n_samples=n,
        n_uncensored=len(uncensored),
        censored_fraction=censored_fraction,
        method="survival-regression",
        power_law_ok=power_law_ok,
        note=note,
        params={"window": list(window), "points": int(keep.sum()), "curvature": curvature},
    )


# ---------------------------------------------------------------------------
# recurrence diagnostics
# ---------------------------------------------------------------------------

_DIAGNOSTIC_RULE = (
    "escaping if the censored fraction at the full cap exceeds 0.5; otherwise "
    "returning-with-stable-mean if mean(min(tau, cap)) / mean(min(tau, cap/2)) "
    "is at most 1.1; otherwise returning-with-diverging-mean"
)


@dataclass(frozen=True)
class DiagnosticReport:
    """The diagnostic's statistics and call; ``samples`` holds the passage
    samples they were computed from, for further estimates on the same draws."""

    start: State
    level: float
    cap: int
    horizon: int
    n_passage: int
    n_paths: int
    censored_fraction: float
    return_fraction_by_cap: dict
    mean_return_by_cap: dict
    mean_return_ratio: float
    median_x: dict            # horizon -> median position
    median_x_ratio: float
    median_xsq_ratio: float
    empirical_call: str
    rule: str = _DIAGNOSTIC_RULE
    samples: tuple = field(default=(), compare=False, repr=False)


def _horizon_chunk(model, start_pos, start_li, snapshots, master_seed, index0, count):
    block = DEFAULT_BLOCK
    gens = [_stream(master_seed, _DOMAIN_HORIZON, index0 + k) for k in range(count)]
    x = np.full(count, float(start_pos))
    lab = np.full(count, start_li, dtype=np.int64)
    buf = np.empty((count, block))
    _refill(buf, gens)
    cursor = 0
    wanted = set(int(t) for t in snapshots)
    snaps = {}
    for t in range(1, max(wanted) + 1):
        if cursor == block:
            _refill(buf, gens)
            cursor = 0
        x, lab = model.step_batch(x, lab, buf[:, cursor])
        cursor += 1
        if t in wanted:
            snaps[t] = x.copy()
    return snaps


def recurrence_diagnostic(
    model,
    start: State,
    level: float,
    cap: int = 200_000,
    horizon: int = 100_000,
    n_passage: int = 2000,
    n_paths: int = 400,
    master_seed: int = 0,
    workers: int = 1,
) -> DiagnosticReport:
    """Empirical recurrence probe: return statistics across nested caps plus
    position growth across a doubled horizon, with a documented three-way call.
    """
    samples = sample_passage_times(
        model, start, level, cap, n_passage, master_seed, workers=workers
    )
    steps = np.array([smp.steps for smp in samples], dtype=float)
    taus = np.array([-1 if smp.censored else smp.tau for smp in samples], dtype=np.int64)
    censored_fraction = float(np.mean(taus < 0))
    caps = [max(cap // 4, 1), max(cap // 2, 1), cap]
    return_fraction = {c: float(np.mean((taus >= 0) & (taus <= c))) for c in caps}
    mean_return = {c: float(np.mean(np.minimum(steps, c))) for c in caps}
    ratio = mean_return[cap] / mean_return[max(cap // 2, 1)]

    li = model.label_index(start.label)
    snaps = _horizon_chunk(
        model, float(start.position), li, (horizon, 2 * horizon), master_seed, 0, n_paths
    )
    med = {t: float(np.median(v)) for t, v in snaps.items()}
    med_sq = {t: float(np.median(v**2)) for t, v in snaps.items()}
    median_x_ratio = med[2 * horizon] / max(med[horizon], 1e-300)
    median_xsq_ratio = med_sq[2 * horizon] / max(med_sq[horizon], 1e-300)

    if censored_fraction > 0.5:
        call = "escaping"
    elif ratio <= 1.1:
        call = "returning-with-stable-mean"
    else:
        call = "returning-with-diverging-mean"

    return DiagnosticReport(
        start=State(float(start.position), start.label),
        level=float(level),
        cap=int(cap),
        horizon=int(horizon),
        n_passage=int(n_passage),
        n_paths=int(n_paths),
        censored_fraction=censored_fraction,
        return_fraction_by_cap=return_fraction,
        mean_return_by_cap=mean_return,
        mean_return_ratio=float(ratio),
        median_x=med,
        median_x_ratio=float(median_x_ratio),
        median_xsq_ratio=float(median_xsq_ratio),
        empirical_call=call,
        samples=tuple(samples),
    )
