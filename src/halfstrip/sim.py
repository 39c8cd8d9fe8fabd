"""Monte Carlo engine: passage-time samples, horizon snapshots, recurrence
diagnostics, and tail-exponent estimation.

Reproducibility contract
------------------------
Every trajectory owns a private RNG stream derived from the master seed and
its index by a counter scheme: stream(k) = PCG64(SeedSequence(master_seed,
spawn_key=(domain, k))). There are two domains: ``_DOMAIN_PASSAGE`` for
passage times and ``_DOMAIN_HORIZON`` for the positions after fixed step
counts (``_horizon_chunk``). One loop, ``_passage_chunk``, steps both. It
runs one contiguous range of indices through a resident batch of at most
DEFAULT_BATCH rows: each refill drops the rows that have finished and admits
the next trajectories of the range in their place. It computes the seed words
of the admitted streams at once (``_seed_words``, numpy's SeedSequence hash
vectorised over k) and hands them to PCG64, so the streams are exactly those
of the scheme. A trajectory consumes exactly one uniform per step
(deterministic steps included), in stream order, so its output is a pure
function of (model, start, level, cap, master_seed, index). Uniforms are
pre-drawn per trajectory in blocks. The block starts at 16 uniforms per row
and doubles at each refill after a block in which at most half the rows
finished (otherwise it keeps its width), but never past DEFAULT_BLOCK, never
past the oldest row's cap, and never past BLOCK_UNIFORMS uniforms for the
whole batch (unless 16 per row exceed that budget). Each row of the block is
padded to an odd number of 64-byte cache lines, so the column that one step
reads does not fall on a handful of cache sets. The loop keeps a lower bound
of the least position and passes it to ``step_batch``, where it gates the
bounded-x rules (two-atom lines without ``pow`` terms then take its short
core). No step lowers a position by more than the model's descent, so after
each step the loop lowers the bound by that much and reduces the positions
only once the bound no longer clears the level and the bounded-x rules; a
first hit is therefore still found at its step. Block sizes, batched
stepping, resident rows and worker counts only change scheduling and how many
pre-drawn uniforms are discarded -- never any output byte.

Censoring
---------
A trajectory that has not dropped to the level within ``cap`` steps is
right-censored: ``PassageTimes`` stores -1 for its tau, its observed time is
the cap, and it enters survival estimates as a censored observation, never as
an event.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import State

DEFAULT_BLOCK = 2048
DEFAULT_BATCH = 4096  # resident rows per worker; each holds an RNG stream (about 1 kB)
BLOCK_UNIFORMS = 2**20  # uniforms drawn per block (8 MB), unless 16 per row exceed it; row padding aside
_FIRST_BLOCK = 16
SCALAR_TAIL = 16
_DOMAIN_PASSAGE = 0
_DOMAIN_HORIZON = 1


class EstimationError(ValueError):
    """Not enough usable samples for the requested estimate."""


def _stream(master_seed: int, domain: int, index: int) -> np.random.Generator:
    entropy = int(master_seed) % (2**64)
    seq = np.random.SeedSequence(entropy, spawn_key=(domain, index))
    return np.random.Generator(np.random.PCG64(seq))


# numpy's SeedSequence hash (bit_generator.pyx), on uint32 words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple:
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const
    return value ^ (value >> 16), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def _seed_words(master_seed: int, domain: int, index0: int, count: int) -> np.ndarray:
    """``SeedSequence(master_seed % 2**64, spawn_key=(domain, k))
    .generate_state(4, np.uint64)`` for k = index0 .. index0 + count - 1, as a
    ``(count, 4)`` uint64 array: the same uint32 hash, one array lane per k."""
    if index0 < 0 or index0 + count > 2**32:
        # a larger k takes two words in the spawn key, which this layout omits
        raise ValueError(
            f"stream indices must lie in [0, 2**32), got {index0}..{index0 + count - 1}")
    entropy = int(master_seed) % (2**64)
    # run entropy zero-padded to the pool size (as with any spawn key), then the key
    words = [entropy & _MASK32, entropy >> 32, 0, 0, domain]
    assembled = [np.full(count, w, dtype=np.uint32) for w in words]
    assembled.append(np.arange(index0, index0 + count, dtype=np.int64).astype(np.uint32))

    # mix_entropy with a pool of 4
    const = _INIT_A
    pool = []
    for word in assembled[:4]:
        value, const = _hashmix(word, const, _MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in assembled[4:]:
        for dst in range(4):
            value, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)

    # generate_state(8 uint32 words), read as 4 little-endian uint64 words
    const = _INIT_B
    state = []
    for i in range(8):
        value, const = _hashmix(pool[i % 4], const, _MULT_B)
        state.append(value.astype(np.uint64))
    return np.stack([state[i] | (state[i + 1] << np.uint64(32)) for i in range(0, 8, 2)],
                    axis=1)


def _streams(master_seed: int, domain: int, index0: int, count: int) -> list:
    """``[_stream(master_seed, domain, k) for k in range(index0, index0 + count)]``,
    with the seed words computed in bulk."""

    # defined per call: a module-level subclass would import numpy.random at import
    class SeedWords(np.random.bit_generator.ISeedSequence):
        """A seed sequence whose PCG64 state words are already computed."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds exactly the 4 uint64 words that PCG64 asks for")
            return self.words

    return [np.random.Generator(np.random.PCG64(SeedWords(w)))
            for w in _seed_words(master_seed, domain, index0, count)]


def _refill(buffer: np.ndarray, gens: list) -> None:
    for row, gen in enumerate(gens):
        gen.random(out=buffer[row])


# ---------------------------------------------------------------------------
# passage times
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PassageTimes:
    """Sampled passage times tau = min{n >= 0 : X_n <= level}, one per
    trajectory in index order.

    ``tau`` is a read-only int64 array holding -1 where the trajectory was
    censored at ``cap`` steps; any value below -1 or above ``cap`` is refused
    with ValueError. ``censored`` and ``steps`` (the steps actually
    simulated: tau, or cap when censored) are derived from it, so the -1
    format is read here and nowhere else.
    """

    tau: np.ndarray
    cap: int

    def __post_init__(self):
        tau = np.array(self.tau, dtype=np.int64)
        if tau.size and (tau.min() < -1 or tau.max() > self.cap):
            raise ValueError(
                f"tau must lie in [-1, cap = {self.cap}], got {tau.min()} .. {tau.max()}")
        tau.flags.writeable = False
        object.__setattr__(self, "tau", tau)

    def __len__(self) -> int:
        return len(self.tau)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PassageTimes) and self.cap == other.cap
                and np.array_equal(self.tau, other.tau))

    @property
    def censored(self) -> np.ndarray:
        return self.tau < 0

    @property
    def steps(self) -> np.ndarray:
        return np.where(self.tau < 0, self.cap, self.tau)


def _finish_scalar(model, x, li, level, cap, steps, gen, row_tail, width, block):
    """Run one trajectory to absorption or cap with the scalar step lane,
    continuing mid-block exactly where the vector lane stopped; the next block
    keeps doubling from that lane's ``width`` up to ``block`` and the cap."""
    step = model.step_scalar
    data = row_tail
    cursor = 0
    n_data = len(data)
    while steps < cap:
        if cursor == n_data:
            width = min(2 * width, block, cap - steps)
            data = gen.random(width).tolist()
            n_data = width
            cursor = 0
        x, li = step(x, li, data[cursor])
        cursor += 1
        steps += 1
        if x <= level:
            return steps
    return -1


def _passage_chunk(model, start_pos, start_li, level, cap, master_seed, index0, count, block,
                   domain=_DOMAIN_PASSAGE, snaps=None):
    """Passage times of trajectories index0 .. index0 + count - 1 of ``domain``.

    The range streams through one resident batch of at most DEFAULT_BATCH rows.
    Each refill drops the rows that finished or reached the cap and admits the
    next trajectories in their place, each born at the current step, so a row's
    tau is its age (steps since its birth) at its first hit. Once the range is
    fully admitted and at most SCALAR_TAIL rows are left, they finish in the
    scalar lane.

    ``snaps``, a dict keyed by step counts, receives the positions of all rows
    after each of those steps. It is for the horizon lane, where every row is
    admitted at step 0 and none is absorbed, so such a chunk never hands rows
    to the scalar tail.
    """
    taus = np.full(count, -1, dtype=np.int64)
    if start_pos <= level:
        taus[:] = 0
        return taus
    resident, tail = (DEFAULT_BATCH, SCALAR_TAIL) if snaps is None else (count, 0)
    gens = []
    x = np.empty(0)
    lab = np.empty(0, dtype=np.int64)
    orig = np.empty(0, dtype=np.int64)
    born = np.empty(0, dtype=np.int64)
    done = np.empty(0, dtype=bool)
    # the loop starts on a used-up block (cursor == width), so its first refill
    # admits the first rows
    width = cursor = _FIRST_BLOCK // 2
    buf = store = np.empty(0)
    steps = admitted = 0
    # xmin is a lower bound of the live rows' least position; below ceiling it
    # may hide a hit or open a bounded-x rule's row-wise gate in step_batch
    descent, ceiling = model._descent, max(level, model._rules_top)
    while True:
        if cursor == width:
            # a block in which more than half the rows hit was too wide for them
            # (they sat out its rest at +inf): the next one is no wider
            grow = 2 * np.count_nonzero(done) <= len(done)
            # drop the finished rows and the censored ones (age at the cap) here,
            # where the block is redrawn anyway, and admit new rows in their place
            keep = ~done & (steps - born < cap)
            if not keep.all():
                x, lab, orig, born = x[keep], lab[keep], orig[keep], born[keep]
                gens = [g for g, k in zip(gens, keep) if k]
            new = min(resident - len(orig), count - admitted)
            if new:
                gens += _streams(master_seed, domain, index0 + admitted, new)
                x = np.concatenate([x, np.full(new, float(start_pos))])
                lab = np.concatenate([lab, np.full(new, start_li, dtype=np.int64)])
                orig = np.concatenate([orig, np.arange(admitted, admitted + new)])
                born = np.concatenate([born, np.full(new, steps)])
                admitted += new
            rows = len(orig)
            done = np.zeros(rows, dtype=bool)
            if admitted == count and rows <= tail:
                buf, cursor = np.empty((rows, 0)), 0  # the tail draws its own uniforms
                break
            # born ascends, so row 0 is the oldest: no row is stepped past the cap
            width = min(2 * width if grow else width, block,
                        max(_FIRST_BLOCK, BLOCK_UNIFORMS // rows), cap - (steps - int(born[0])))
            # rows an odd number of 64-byte lines apart: a power-of-two stride
            # would map each step's column onto a handful of cache sets
            stride = 8 * (-(-width // 8) | 1)
            if store.size < rows * stride:
                # free the old block (u and buf are views of it) before allocating
                # a larger one; a smaller block reuses it, as freeing and
                # reallocating 8 MB at each change of shape can leave the heap
                # holding two
                u = buf = store = None
                store = np.empty(rows * stride)
            buf = store[:rows * stride].reshape(rows, stride)[:, :width]
            _refill(buf, gens)
            cursor = 0
            xmin = float(np.fmin.reduce(x))  # exact again once rows left and joined
        u = buf[:, cursor]
        cursor += 1
        x, lab = model.step_batch(x, lab, u, xmin)
        steps += 1
        if snaps is not None and steps in snaps:
            snaps[steps] = x.copy()
        # no row fell by more than descent (float rounding is monotone), so the
        # lowered bound still holds, and the positions are reduced only once it
        # no longer clears the level and the rules: every first hit is still
        # found at its step. Finished rows sit at +inf until the next refill
        # drops them, so a plain comparison finds first hits, and the bound is
        # taken again over the live rows once they are parked
        xmin -= descent
        if xmin <= ceiling:
            xmin = float(np.fmin.reduce(x))
            if xmin <= level:
                newly = x <= level
                taus[orig[newly]] = steps - born[newly]
                done |= newly
                x[newly] = np.inf
                live = len(orig) - np.count_nonzero(done)
                if admitted == count and live <= tail:
                    break
                if not live:
                    cursor = width  # admit the next rows now
                xmin = float(np.fmin.reduce(x))
    # few survivors: per-trajectory scalar loops beat batch overhead
    for row in np.flatnonzero(~done).tolist():
        taus[orig[row]] = _finish_scalar(model, float(x[row]), int(lab[row]), level, cap,
                                         steps - int(born[row]), gens[row],
                                         buf[row, cursor:].tolist(), width, block)
    return taus


def _passage_worker(args):
    return _passage_chunk(*args)


def _horizon_chunk(model, start_pos, start_li, snapshots, master_seed, index0, count):
    """Positions of horizon trajectories index0 .. index0 + count - 1 after each
    step count in ``snapshots``, as {steps: array}: the passage loop with a
    level that no position reaches."""
    snaps = dict.fromkeys(int(t) for t in snapshots)
    _passage_chunk(model, start_pos, start_li, -math.inf, max(snaps), master_seed, index0,
                   count, DEFAULT_BLOCK, _DOMAIN_HORIZON, snaps)
    return snaps


def sample_passage_times(
    model,
    start: State,
    level: float,
    cap: int,
    n: int,
    master_seed: int,
    workers: int = 1,
) -> PassageTimes:
    """n independent passage times from per-trajectory streams.

    Each of ``workers`` processes steps one contiguous range of
    ``ceil(n / workers)`` trajectories, with at most DEFAULT_BATCH of them
    resident at once; no more processes start than there are ranges or
    CPUs. Output is identical for any ``workers``; it only trades memory and
    processes against speed.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    li = model.label_index(start.label)
    pos = float(start.position)
    if not (math.isfinite(pos) and pos >= 0.0):
        raise ValueError(f"start position must be finite and >= 0, got {pos!r}")
    level = float(level)
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level!r}")

    workers = min(workers, os.cpu_count() or 1)
    size = max(1, math.ceil(n / workers))
    args = [(model, pos, li, level, cap, master_seed, i0, min(size, n - i0), DEFAULT_BLOCK)
            for i0 in range(0, n, size)]
    if workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(args))) as pool:
            chunk_taus = list(pool.map(_passage_worker, args))
    else:
        chunk_taus = [_passage_chunk(*a) for a in args]
    return PassageTimes(np.concatenate(chunk_taus) if chunk_taus else np.empty(0, np.int64), cap)


def write_samples_csv(times: PassageTimes, stream) -> None:
    """CSV with header tau,censored,steps; tau is blank for censored rows."""
    stream.write("tau,censored,steps\n")
    stream.writelines(
        f"{'' if c else t},{int(c)},{s}\n"
        for t, c, s in zip(times.tau.tolist(), times.censored.tolist(), times.steps.tolist())
    )


# ---------------------------------------------------------------------------
# moments and tail estimation
# ---------------------------------------------------------------------------

def empirical_moment(times: PassageTimes, s: float):
    """(mean of min(tau, cap)^s, lower_bound_flag).

    Censored samples contribute cap^s, so with any censoring the estimate is
    a lower bound for E[tau^s] and the flag is set.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if not len(times):
        raise EstimationError("no samples")
    return float(np.mean(times.steps.astype(float) ** s)), bool(times.censored.any())


def _km_curve(times: np.ndarray, events: np.ndarray):
    """Kaplan-Meier survival curve; censored observations leave the risk set
    without contributing an event. Returns (event_times, survival_at_them)."""
    order = np.argsort(times, kind="stable")
    times, events = times[order], events[order]
    uniq, starts = np.unique(times, return_index=True)
    deaths = np.add.reduceat(events.astype(np.int64), starts)
    hit = deaths > 0
    # one factor per event time, multiplied in time order (cumprod is sequential)
    surv = np.cumprod(1.0 - deaths[hit] / (len(times) - starts[hit]))
    return uniq[hit], surv


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
    times: PassageTimes,
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
    n = len(times)
    if not n:
        raise EstimationError("no samples")
    events = ~times.censored
    n_uncensored = int(events.sum())
    if n_uncensored < min_uncensored:
        raise EstimationError(
            f"need at least {min_uncensored} uncensored samples, got {n_uncensored}"
        )
    censored_fraction = 1.0 - n_uncensored / n

    if method == "hill":
        xs = np.sort(times.tau[events].astype(float))[::-1]
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
            n_uncensored=n_uncensored,
            censored_fraction=censored_fraction,
            method="hill",
            power_law_ok=True,
            note=note,
            params={"k": int(k)},
        )

    if method != "survival-regression":
        raise ValueError(f"unknown method {method!r}")

    ev_t, ev_s = _km_curve(times.steps.astype(float), events)
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
        n_uncensored=n_uncensored,
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
    times they were computed from, for further estimates on the same draws."""

    start: State
    level: float
    cap: int
    n_passage: int
    censored_fraction: float
    return_fraction_by_cap: dict
    mean_return_by_cap: dict
    mean_return_ratio: float
    empirical_call: str
    rule: str = _DIAGNOSTIC_RULE
    samples: PassageTimes | None = field(default=None, compare=False, repr=False)


def recurrence_diagnostic(
    model,
    start: State,
    level: float,
    cap: int = 200_000,
    n_passage: int = 2000,
    master_seed: int = 0,
    workers: int = 1,
) -> DiagnosticReport:
    """Empirical recurrence probe: return statistics across nested caps, with a
    documented three-way call.
    """
    if n_passage < 1:
        raise ValueError(f"n_passage must be >= 1, got {n_passage}")
    times = sample_passage_times(
        model, start, level, cap, n_passage, master_seed, workers=workers
    )
    steps = times.steps.astype(float)
    censored = times.censored
    censored_fraction = float(np.mean(censored))
    caps = [max(cap // 4, 1), max(cap // 2, 1), cap]
    return_fraction = {c: float(np.mean(~censored & (times.tau <= c))) for c in caps}
    mean_return = {c: float(np.mean(np.minimum(steps, c))) for c in caps}
    ratio = mean_return[cap] / mean_return[max(cap // 2, 1)]

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
        n_passage=int(n_passage),
        censored_fraction=censored_fraction,
        return_fraction_by_cap=return_fraction,
        mean_return_by_cap=mean_return,
        mean_return_ratio=float(ratio),
        empirical_call=call,
        samples=times,
    )
