import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import halfstrip.sim as sim
from halfstrip import (
    EstimationError,
    PassageTimes,
    State,
    empirical_moment,
    make_crw,
    make_tabular,
    recurrence_diagnostic,
    sample_passage_times,
    tail_exponent,
    write_samples_csv,
)

CRW = make_crw(0.6, 0.2, 0.2)

REFLECTED = make_tabular({
    "type": "tabular",
    "labels": [0],
    "boundary": "clip",
    "lines": {"0": [
        {"jump": 1, "next": 0, "prob": 0.5},
        {"jump": -1, "next": 0, "prob": 0.5},
    ]},
})


# rows from (30, 0) pass an override state at (7, 1), the floor 5 and the
# reset trigger 4 (line 0 at x < 4) on their way down to level 1
SWITCHING = make_tabular({
    "type": "tabular",
    "labels": [0, 1],
    "floor": 5.0,
    "boundary": {"rule": "reset", "jump": 1, "label": 1},
    "lines": {
        "0": [{"jump": 1, "next": 0, "prob": {"const": 0.45, "inv_x": 0.3}},
              {"jump": -4, "next": 1, "prob": {"const": 0.55, "inv_x": -0.3}}],
        "1": [{"jump": 2, "next": 0, "prob": {"const": 0.5, "inv_x": -0.4}},
              {"jump": -1, "next": 0, "prob": {"const": 0.5, "inv_x": 0.4}}],
    },
    "states": [{"x": 7.0, "label": 1, "atoms": [{"jump": 3, "next": 0, "prob": 1.0}]}],
})


TRANSIENT = make_crw(0.6, 1.5, 1.5)  # almost every row reaches the cap


def _walk(boundary, up, down, p_up, states=()):
    """A one-label walk with jumps ``up`` and ``down``."""
    return make_tabular({
        "type": "tabular",
        "labels": [0],
        "boundary": boundary,
        "lines": {"0": [{"jump": up, "next": 0, "prob": p_up},
                        {"jump": down, "next": 0, "prob": 1.0 - p_up}]},
        "states": list(states),
    })


INEXACT = _walk("clip", 0.7, -0.3, 0.3)
DEEP_OVERRIDE = _walk({"rule": "reset", "jump": 2, "label": 0}, 1, -1, 0.5, [
    {"x": 6.0, "label": 0, "atoms": [{"jump": -5, "next": 0, "prob": 1.0}]}])
STEEP_CLIP = _walk("clip", 1.5, -1.5, 0.5)
STEEP_REFLECT = _walk("reflect", 1.5, -1.5, 0.5)


def synthetic_samples(values, cap=10**9):
    return PassageTimes(np.asarray(values, dtype=np.int64), cap)


def replayed_tau(seed, k, cap, model=CRW, start=State(30.0, 1), level=5.0):
    """tau = min{n : X_n <= level} of trajectory k of ``model`` from ``start``
    (CRW from (30, 1) down to 5 by default), replayed alone one uniform per
    step from its own stream through ``step_scalar``; -1 when it does not hit
    within ``cap`` steps."""
    u = sim._stream(seed, sim._DOMAIN_PASSAGE, k).random(cap)
    x, li = start.position, model.label_index(start.label)
    for t in range(cap):
        x, li = model.step_scalar(x, li, float(u[t]))
        if x <= level:
            return t + 1
    return -1


def peak_bytes(run):
    """The most memory that ``run()`` held at once, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands in for the process pool and starts no process: records each
    pool's ``max_workers`` and each range's (first index, count), and steps
    the ranges in this process."""
    record = SimpleNamespace(max_workers=[], chunks=[])

    class InlineExecutor:
        def __init__(self, max_workers):
            record.max_workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            args = list(args)
            record.chunks.extend((a[6], a[7]) for a in args)
            return map(fn, args)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", InlineExecutor)
    return record


class TestPassageSampling:
    def test_already_below_level(self):
        samples = sample_passage_times(CRW, State(5.0, 1), 10.0, cap=100, n=7, master_seed=1)
        assert samples.tau.tolist() == [0] * 7 and not samples.censored.any()

    def test_reproducible_across_everything(self, monkeypatch):
        base = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=20_000, n=300, master_seed=9)
        for workers, constants in (
            (2, {}),
            (1, {"DEFAULT_BLOCK": 256}),
            (1, {"DEFAULT_BLOCK": 16}),
            (1, {"DEFAULT_BATCH": 64}),
            (2, {"DEFAULT_BLOCK": 512, "DEFAULT_BATCH": 37}),
            (1, {"BLOCK_UNIFORMS": 64}),    # every block at the 16-uniform floor
            (1, {"BLOCK_UNIFORMS": 1000}),  # odd widths (1000 // rows) once few rows are left
            (2, {"BLOCK_UNIFORMS": 1000, "DEFAULT_BATCH": 37}),
            # fewer resident rows than trajectories: rows are admitted as others finish
            (1, {"DEFAULT_BATCH": 8, "SCALAR_TAIL": 0}),
            (1, {"DEFAULT_BATCH": 8, "BLOCK_UNIFORMS": 64}),
            (1, {"DEFAULT_BATCH": 37, "SCALAR_TAIL": 0}),
            (2, {"DEFAULT_BATCH": 37, "BLOCK_UNIFORMS": 64}),
        ):
            with monkeypatch.context() as patch:
                for name, value in constants.items():
                    patch.setattr(sim, name, value)
                other = sample_passage_times(
                    CRW, State(30.0, 1), 5.0, cap=20_000, n=300, master_seed=9, workers=workers
                )
            assert other == base

    def test_two_workers_split_a_small_n(self, monkeypatch, inline_pool):
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)  # a 1-CPU host would not split
        serial = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=20_000, n=300, master_seed=9)
        split = sample_passage_times(
            CRW, State(30.0, 1), 5.0, cap=20_000, n=300, master_seed=9, workers=2
        )
        assert inline_pool.max_workers == [2]
        assert inline_pool.chunks == [(0, 150), (150, 150)]
        assert split == serial

    def test_processes_bounded_by_chunks_and_cpus(self, monkeypatch, inline_pool):
        serial = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=2000, n=3, master_seed=9)
        for cpus, workers, n, expected in (
            (64, 1000, 3, [3]),     # one process per range of one
            (4, 1000, 300, [4]),    # one per CPU
            (1, 1000, 300, []),     # one CPU: no pool at all
            (None, 8, 300, []),     # CPU count unknown: taken as 1
            (8, 2, 300, [2]),
        ):
            inline_pool.max_workers.clear()
            monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
            times = sample_passage_times(
                CRW, State(30.0, 1), 5.0, cap=2000, n=n, master_seed=9, workers=workers
            )
            assert inline_pool.max_workers == expected, (cpus, workers, n)
            assert len(times) == n
            if n == 3:
                assert times == serial
        with pytest.raises(ValueError, match="workers"):
            sample_passage_times(CRW, State(30.0, 1), 5.0, cap=2000, n=3, master_seed=9,
                                 workers=0)

    def test_deterministic_kernel_ignores_seed(self):
        conveyor = make_tabular({
            "type": "tabular",
            "labels": [0],
            "boundary": "clip",
            "lines": {"0": [{"jump": -3, "next": 0, "prob": 1.0}]},
        })
        start, level, step = 50.0, 10.0, 3
        for n in (5, 40):  # the scalar tail alone, and the batch lane
            for seed in (1, 999):
                times = sample_passage_times(conveyor, State(start, 0), level, cap=100, n=n,
                                             master_seed=seed)
                assert times.tau.tolist() == [math.ceil((start - level) / step)] * n

    def test_scalar_tail_matches_vector(self, monkeypatch):
        ref = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=50_000, n=40, master_seed=4)
        monkeypatch.setattr(sim, "SCALAR_TAIL", 0)
        vec = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=50_000, n=40, master_seed=4)
        assert vec == ref

    def test_tau_definition_on_replayed_streams(self):
        # tau = min{n : X_n <= level}: replay each trajectory one uniform per
        # step from its own stream and find its first hit independently
        cap = 50_000
        samples = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=cap, n=25, master_seed=2)
        for k, tau in enumerate(samples.tau.tolist()):
            assert tau == replayed_tau(2, k, cap)

    def test_admitted_rows_censor_at_their_own_cap(self, monkeypatch):
        # 16 resident rows for 300 trajectories: rows admitted at different
        # steps reach the cap at different steps, and each tau and censoring
        # must match its trajectory replayed alone from its own stream
        monkeypatch.setattr(sim, "DEFAULT_BATCH", 16)
        cap, resident = 300, 16
        samples = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=cap, n=300, master_seed=6)
        for k, tau in enumerate(samples.tau.tolist()):
            assert tau == replayed_tau(6, k, cap), k
        # censored rows among the first batch (born at step 0) and among rows
        # admitted later, and hits in both
        for part in (samples.tau[:resident], samples.tau[resident:]):
            assert (part == -1).any() and (part > 0).any()

    def test_rows_crossing_bounded_rules_match_replayed_streams(self, monkeypatch):
        # SWITCHING's rows step by the constant law below the floor, reset and
        # leave an override state on their way down, so one range steps some
        # batches in step_batch's two-atom core and the rest on the general path
        monkeypatch.setattr(sim, "DEFAULT_BATCH", 16)
        step_batch = type(SWITCHING).step_batch
        paths = {"core": 0, "general": 0}

        def counting(self, x, lab, u, xmin=None):
            paths["core" if xmin >= self._core_from else "general"] += 1
            return step_batch(self, x, lab, u, xmin)

        monkeypatch.setattr(type(SWITCHING), "step_batch", counting)
        cap, start = 400, State(30.0, 0)
        samples = sample_passage_times(SWITCHING, start, 1.0, cap=cap, n=200, master_seed=5)
        assert paths["core"] > 0 and paths["general"] > 0
        for k, tau in enumerate(samples.tau.tolist()):
            assert tau == replayed_tau(5, k, cap, SWITCHING, start, 1.0), k

    @pytest.mark.parametrize("model, start, level", [
        # transient CRW: from 50 the rows are admitted in waves as the last ones
        # are censored; from 12 many hit at once, and rows are admitted beside
        # survivors that have climbed past the start
        pytest.param(TRANSIENT, State(50.0, 1), 10.0, id="50.0"),
        pytest.param(TRANSIENT, State(12.0, 1), 10.0, id="12.0"),
        # jumps of +0.7 and -0.3: rounding builds up in the positions and in
        # the lowered bound alike
        pytest.param(INEXACT, State(8.0, 0), 1.0, id="inexact-jumps"),
        # an override atom falls by 5, further than any line's jump
        pytest.param(DEEP_OVERRIDE, State(12.0, 0), 0.5, id="override-descent"),
        # rows at 1 land at -0.5 and are clipped to 0 or reflected to 0.5
        pytest.param(STEEP_CLIP, State(10.0, 0), 0.0, id="clip"),
        pytest.param(STEEP_REFLECT, State(10.0, 0), 0.5, id="reflect"),
    ])
    def test_step_bound_never_exceeds_the_least_position(self, monkeypatch, model, start,
                                                          level):
        # the loop hands step_batch a lower bound of the least position: the
        # last reduction lowered by the model's descent once per step, and
        # reduced again at each refill and whenever it reaches the level or the
        # bounded-x rules; a bound above it would skip a rule that some row
        # needs or a hit
        monkeypatch.setattr(sim, "DEFAULT_BATCH", 24)
        step_batch = type(CRW).step_batch
        gaps = []

        def counting(self, x, lab, u, xmin=None):
            gaps.append(np.fmin.reduce(x) - xmin)
            return step_batch(self, x, lab, u, xmin)

        monkeypatch.setattr(type(CRW), "step_batch", counting)
        n, cap = 4 * sim.DEFAULT_BATCH, 600
        samples = sample_passage_times(model, start, level, cap=cap, n=n, master_seed=1)
        assert len(gaps) > cap and min(gaps) == 0.0
        for k, tau in enumerate(samples.tau.tolist()):
            assert tau == replayed_tau(1, k, cap, model, start, level), k

    @pytest.mark.parametrize("model, start", [
        # the reflected walk down to 0 (criterion 5's shape): every live row
        # sits at 1 or above, where the walk's two-atom core applies
        pytest.param(REFLECTED, State(20.0, 0), id="reflected-walk"),
        # the override state at 6 puts the core 6 above the level: a bound
        # lowered by the descent of 5 can land between them
        pytest.param(DEEP_OVERRIDE, State(12.0, 0), id="override-descent"),
    ])
    def test_bound_clears_the_rules_whenever_every_live_row_does(self, monkeypatch, model,
                                                                   start):
        # the bound is reduced again once the rows that hit are parked at
        # +inf, and whenever it would open a bounded-x rule's row-wise gate, so
        # a batch whose live rows are all past the rules takes the core
        monkeypatch.setattr(sim, "DEFAULT_BATCH", 64)
        step_batch = type(REFLECTED).step_batch
        calls = {"live past the rules": 0, "core": 0}

        def counting(self, x, lab, u, xmin=None):
            if np.fmin.reduce(x) >= self._core_from:
                calls["live past the rules"] += 1
                calls["core"] += xmin >= self._core_from
            return step_batch(self, x, lab, u, xmin)

        monkeypatch.setattr(type(REFLECTED), "step_batch", counting)
        samples = sample_passage_times(model, start, 0.0, cap=3000, n=300, master_seed=4)
        assert (samples.tau > 0).sum() > 100
        assert calls["live past the rules"] > 1000
        assert calls["core"] == calls["live past the rules"]

    @pytest.mark.parametrize("name, value", [("DEFAULT_BLOCK", 16), ("DEFAULT_BLOCK", 2048),
                                             ("BLOCK_UNIFORMS", 1000)])
    def test_block_rows_are_padded_to_an_odd_number_of_cache_lines(self, monkeypatch, name,
                                                                     value):
        # a row stride of a power of two maps each step's column of the block
        # onto a few cache sets; each row takes the fewest 64-byte lines that
        # hold it, plus one if that number is even, and is filled in place
        monkeypatch.setattr(sim, name, value)
        refill = sim._refill
        widths = set()

        def recording(buffer, gens):
            rows, width = buffer.shape
            assert rows == len(gens)
            assert all(buffer[row].flags.c_contiguous for row in range(rows))
            stride = buffer.strides[0]
            assert stride % 64 == 0 and (stride // 64) % 2 == 1
            assert stride - 128 < 8 * width <= stride
            widths.add(width)
            refill(buffer, gens)

        monkeypatch.setattr(sim, "_refill", recording)
        sample_passage_times(CRW, State(30.0, 1), 5.0, cap=20_000, n=40, master_seed=9)
        if name == "DEFAULT_BLOCK":
            assert max(widths) == value
        else:
            assert any(width % 8 for width in widths)

    def test_resident_rows_stay_within_default_batch(self, monkeypatch):
        monkeypatch.setattr(sim, "DEFAULT_BATCH", 24)
        step_batch = type(CRW).step_batch
        widths = []

        def counting(self, x, lab, u, xmin=None):
            widths.append(len(x))
            return step_batch(self, x, lab, u, xmin)

        monkeypatch.setattr(type(CRW), "step_batch", counting)
        sample_passage_times(CRW, State(30.0, 1), 5.0, cap=5000, n=5 * 24, master_seed=3)
        assert max(widths) == 24

    def test_admitting_rows_keeps_memory_at_one_resident_batch(self):
        # a range of 4x DEFAULT_BATCH trajectories holds one resident batch's
        # streams (about 1 kB each) and block, not the whole range's streams:
        # a 16384-row batch would hold 13 MB of streams beside its block
        model = make_crw(0.6, 1.5, 1.5)  # transient: almost every row reaches the cap
        rows = sim.DEFAULT_BATCH
        streams_bytes = peak_bytes(lambda: sim._streams(1, sim._DOMAIN_PASSAGE, 0, rows))
        peak = peak_bytes(lambda: sim._passage_chunk(
            model, 50.0, model.label_index(1), 10.0, 600, 1, 0, 4 * rows, sim.DEFAULT_BLOCK))
        assert peak < 1.3 * (sim.BLOCK_UNIFORMS * 8 + streams_bytes)

    def test_wider_block_replaces_the_old_one(self):
        # the old block and its column view are freed before the wider block
        # is allocated, so peak memory stays near the widest block alone; 512
        # rows of 2048 uniforms fit in the chunk budget, so the block still
        # grows to DEFAULT_BLOCK here
        model = make_crw(0.6, 1.5, 1.5)  # transient: almost every row reaches the cap
        rows, block = 512, 2048
        assert sim.DEFAULT_BLOCK == block  # the block the horizon lane grows to
        for run in (
            lambda: sim._passage_chunk(model, 50.0, model.label_index(1), 10.0, 2100, 1, 0,
                                       rows, block),
            lambda: sim._horizon_chunk(model, 50.0, model.label_index(1), (1000, 2100), 1, 0,
                                       rows),
        ):
            assert peak_bytes(run) < 1.3 * rows * block * 8

    def test_block_stays_within_the_uniform_budget(self):
        # 4096 rows of DEFAULT_BLOCK uniforms would take 64 MB; beside its
        # block, a chunk holds only its rows' streams (about 1 kB each)
        model = make_crw(0.6, 1.5, 1.5)  # transient: almost every row reaches the cap
        rows = 4096
        assert rows * sim.DEFAULT_BLOCK > 4 * sim.BLOCK_UNIFORMS
        streams_bytes = peak_bytes(lambda: sim._streams(1, sim._DOMAIN_PASSAGE, 0, rows))
        for run in (
            lambda: sim._passage_chunk(model, 50.0, model.label_index(1), 10.0, 2100, 1, 0,
                                       rows, sim.DEFAULT_BLOCK),
            lambda: sim._horizon_chunk(model, 50.0, model.label_index(1), (1000, 2100), 1, 0,
                                       rows),
        ):
            assert peak_bytes(run) < 1.3 * sim.BLOCK_UNIFORMS * 8 + streams_bytes

    def test_finished_rows_leave_at_the_next_refill(self, monkeypatch):
        # a row that finishes is stepped at +inf at most until its block is
        # used up: at most 15 more steps in 16-uniform blocks
        monkeypatch.setattr(sim, "DEFAULT_BLOCK", 16)
        step_batch = type(CRW).step_batch
        parked = []

        def counting(self, x, lab, u, xmin=None):
            parked.append(int(np.count_nonzero(x == np.inf)))
            return step_batch(self, x, lab, u, xmin)

        monkeypatch.setattr(type(CRW), "step_batch", counting)
        times = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=20_000, n=300, master_seed=9)
        finished = int(np.count_nonzero(~times.censored))
        assert finished > 100 and sum(parked) > 0
        assert sum(parked) <= 15 * finished

    def test_block_widens_only_while_most_rows_outlive_it(self, monkeypatch):
        # a range of short walks keeps admitting rows that finish within a few
        # steps: the block stays narrow, so finished rows are stepped at +inf
        # fewer times than live ones; long-lived rows still widen it to the
        # uniform budget
        step_batch, refill = type(CRW).step_batch, sim._refill
        stepped = {"parked": 0, "live": 0}
        widths = []

        def counting(self, x, lab, u, xmin=None):
            parked = int(np.count_nonzero(x == np.inf))
            stepped["parked"] += parked
            stepped["live"] += len(x) - parked
            return step_batch(self, x, lab, u, xmin)

        def recording(buffer, gens):
            widths.append(buffer.shape[1])
            refill(buffer, gens)

        monkeypatch.setattr(type(CRW), "step_batch", counting)
        monkeypatch.setattr(sim, "_refill", recording)
        n = 4 * sim.DEFAULT_BATCH
        sample_passage_times(make_crw(0.6, -1.0, -1.0), State(12.0, 1), 10.0, cap=10_000, n=n,
                             master_seed=1)
        assert 0 < stepped["parked"] < stepped["live"]
        widths.clear()
        sample_passage_times(make_crw(0.6, 1.5, 1.5), State(50.0, 1), 10.0, cap=600, n=n,
                             master_seed=1)
        assert max(widths) == sim.BLOCK_UNIFORMS // sim.DEFAULT_BATCH

    def test_censoring_flags(self):
        samples = sample_passage_times(CRW, State(200.0, 1), 1.0, cap=50, n=20, master_seed=3)
        assert samples.tau.tolist() == [-1] * 20
        assert samples.censored.all() and samples.steps.tolist() == [50] * 20


class TestHorizonSnapshots:
    STEPS = (1, 15, 16, 17, 700, 2500)

    @pytest.mark.parametrize("count", [5, 40])  # at most SCALAR_TAIL rows, and more
    def test_snapshots_equal_replayed_streams(self, monkeypatch, count):
        # replay each row one uniform per step from its own horizon stream
        model, index0, seed = make_crw(0.6, 1.5, 1.5), 3, 8
        li = model.label_index(1)
        want = {t: np.empty(count) for t in self.STEPS}
        for row in range(count):
            u = sim._stream(seed, sim._DOMAIN_HORIZON, index0 + row).random(max(self.STEPS))
            x, lab = 50.0, li
            for t in range(1, max(self.STEPS) + 1):
                x, lab = model.step_scalar(x, lab, float(u[t - 1]))
                if t in want:
                    want[t][row] = x
        for name, value in (("DEFAULT_BLOCK", 16), ("DEFAULT_BLOCK", 2048),
                            ("BLOCK_UNIFORMS", 64), ("BLOCK_UNIFORMS", 1000)):
            with monkeypatch.context() as patch:
                patch.setattr(sim, name, value)
                got = sim._horizon_chunk(model, 50.0, li, self.STEPS, seed, index0, count)
            assert sorted(got) == sorted(self.STEPS)
            for t in self.STEPS:
                assert got[t].tobytes() == want[t].tobytes(), (name, value, t)


class TestPassageTimes:
    def test_censored_and_steps_follow_from_tau_and_cap(self):
        times = PassageTimes([0, 7, -1, 3], cap=10)
        assert times.tau.dtype == np.int64 and not times.tau.flags.writeable
        assert times.censored.tolist() == [False, False, True, False]
        assert times.steps.tolist() == [0, 7, 10, 3]
        with pytest.raises(ValueError):
            times.tau[0] = 5

    @pytest.mark.parametrize("tau", [[-2], [0, 11], [3, -1, -5]])
    def test_refuses_tau_outside_minus_one_to_cap(self, tau):
        with pytest.raises(ValueError, match="tau must lie in"):
            PassageTimes(tau, cap=10)
        PassageTimes([-1, 0, 10], cap=10)  # the bounds themselves are valid

    def test_copies_its_input(self):
        tau = np.array([1, -1, 4])
        times = PassageTimes(tau, cap=5)
        tau[0] = 99
        assert tau.flags.writeable and times.tau.tolist() == [1, -1, 4]

    def test_equality_compares_tau_and_cap(self):
        a = PassageTimes([1, -1], cap=5)
        assert a == PassageTimes(np.array([1, -1]), cap=5)
        assert a != PassageTimes([1, -1], cap=6)
        assert a != PassageTimes([1, 2], cap=5)
        assert a != PassageTimes([1, -1, 2], cap=5)

    def test_empty_sample(self):
        times = sample_passage_times(CRW, State(30.0, 1), 5.0, cap=100, n=0, master_seed=1,
                                     workers=2)
        assert len(times) == 0 and times.tau.dtype == np.int64 and times.cap == 100
        buf = io.StringIO()
        write_samples_csv(times, buf)
        assert buf.getvalue() == "tau,censored,steps\n"


class TestBulkSeeding:
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -5, 2**64 + 5)
    INDICES = (0, 1, 4095, 4096, 2**32 - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_and_draws_match_seed_sequence(self, seed):
        for domain in range(4):
            for k in self.INDICES:
                ref = np.random.SeedSequence(seed % 2**64, spawn_key=(domain, k))
                assert np.array_equal(sim._seed_words(seed, domain, k, 1)[0],
                                      ref.generate_state(4, np.uint64))
                (gen,) = sim._streams(seed, domain, k, 1)
                assert np.array_equal(gen.random(3000),
                                      sim._stream(seed, domain, k).random(3000))

    def test_words_of_a_chunk_are_those_of_each_index(self):
        words = sim._seed_words(7, 0, 4090, 12)
        for row, k in enumerate(range(4090, 4102)):
            ref = np.random.SeedSequence(7, spawn_key=(0, k)).generate_state(4, np.uint64)
            assert np.array_equal(words[row], ref)

    def test_index_beyond_one_spawn_word_is_refused(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            sim._streams(0, 0, 2**32 - 1, 2)
        with pytest.raises(ValueError):
            sim._streams(0, 0, 2**32, 1)


class TestEmpiricalMoment:
    def test_zeroth_moment_is_one(self):
        samples = synthetic_samples([1, 5, 9])
        est, flag = empirical_moment(samples, 0.0)
        assert est == 1.0 and not flag

    def test_lower_bound_flag(self):
        samples = synthetic_samples([4, 4, -1], cap=10)
        est, flag = empirical_moment(samples, 1.0)
        assert flag
        assert est == pytest.approx((4 + 4 + 10) / 3)


class TestTailExponent:
    def test_pareto_synthetic(self, rng):
        # P(tau > t) = t^(-0.5): inverse-CDF draws
        u = rng.random(20_000)
        taus = np.ceil(u ** (-2.0)).astype(int)
        est = tail_exponent(synthetic_samples(taus))
        assert est.power_law_ok
        assert abs(est.exponent - 0.5) < 0.05

    def test_hill_cross_check(self, rng):
        u = rng.random(20_000)
        taus = np.ceil(u ** (-1.25)).astype(int)   # exponent 0.8
        est = tail_exponent(synthetic_samples(taus), method="hill")
        assert est.method == "hill"
        assert abs(est.exponent - 0.8) < 0.1

    def test_geometric_flagged_as_non_power_law(self, rng):
        taus = rng.geometric(0.001, size=20_000)
        est = tail_exponent(synthetic_samples(taus))
        assert not est.power_law_ok
        assert "power law" in est.note

    def test_needs_uncensored_mass(self):
        with pytest.raises(EstimationError):
            tail_exponent(synthetic_samples([3, 4, 5]))

    def test_km_curve_equals_the_loop_reference(self, rng):
        def km_loop(times, events):
            order = np.argsort(times, kind="stable")
            times, events = times[order], events[order]
            ev_t, ev_s, s = [], [], 1.0
            for i0, t in enumerate(times):
                if i0 and times[i0 - 1] == t:
                    continue
                d = int(events[i0:np.searchsorted(times, t, side="right")].sum())
                if d:
                    s *= 1.0 - d / (len(times) - i0)
                    ev_t.append(float(t))
                    ev_s.append(s)
            return np.array(ev_t), np.array(ev_s)

        for n in (1, 2, 50, 3000):
            times = np.ceil(rng.random(n) ** -1.5)
            events = times <= 40.0  # ties and censored times both occur
            times = np.minimum(times, 40.0)
            for ev in (events, np.zeros(n, dtype=bool)):
                got, want = sim._km_curve(times, ev), km_loop(times, ev)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("method", ["survival-regression", "hill"])
    def test_empty_sample_is_an_estimation_error(self, method):
        with pytest.raises(EstimationError, match="no samples"):
            tail_exponent(synthetic_samples([]), method=method, min_uncensored=0)

    def test_censored_enter_survival_as_censored(self, rng):
        u = rng.random(30_000)
        taus = np.ceil(u ** (-2.0)).astype(int)
        cap = 2000
        censored = synthetic_samples(np.where(taus <= cap, taus, -1), cap=cap)
        est = tail_exponent(censored, window=(0.5, 0.995))
        assert est.censored_fraction > 0.01
        assert abs(est.exponent - 0.5) < 0.06


class TestRecurrenceDiagnostic:
    def test_positive_recurrent_call(self):
        model = make_crw(0.6, -1.0, -1.0)
        rep = recurrence_diagnostic(
            model, State(50.0, 1), 10.0,
            cap=20_000, n_passage=400, master_seed=1,
        )
        assert rep.empirical_call == "returning-with-stable-mean"
        # return times have a polynomial tail with exponent 4/3 here, so a
        # percent-level censored fraction at this small cap is expected
        assert rep.censored_fraction < 0.03
        assert 0.9 <= rep.mean_return_ratio <= 1.1

    def test_transient_call(self):
        model = make_crw(0.6, 1.5, 1.5)
        rep = recurrence_diagnostic(
            model, State(50.0, 1), 10.0,
            cap=20_000, n_passage=400, master_seed=1,
        )
        assert rep.empirical_call == "escaping"
        assert rep.censored_fraction > 0.5

    def test_refuses_an_empty_sample(self):
        # with no passage times every statistic would be NaN
        with pytest.raises(ValueError, match="n_passage"):
            recurrence_diagnostic(CRW, State(50.0, 1), 10.0, cap=100, n_passage=0)

    def test_null_recurrent_call(self):
        rep = recurrence_diagnostic(
            CRW, State(50.0, 1), 10.0,
            cap=40_000, n_passage=500, master_seed=1,
        )
        assert rep.empirical_call == "returning-with-diverging-mean"
        assert rep.mean_return_ratio > 1.1


class TestCsv:
    def test_format_and_blank_tau_for_censored(self):
        samples = synthetic_samples([3, -1], cap=9)
        buf = io.StringIO()
        write_samples_csv(samples, buf)
        assert buf.getvalue() == "tau,censored,steps\n3,0,3\n,1,9\n"
