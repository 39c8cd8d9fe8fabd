"""The traced run: wrappers, installed from the benchmark's files, around the
public functions of each ``halfstrip`` layer and around numpy's public
``SeedSequence``, ``PCG64`` and ``Generator`` constructors.

A wrapper records calls and time per span and subtracts the time of the
spans it encloses to give self time. Wrappers replace every reference to a
wrapped function in the ``halfstrip`` modules (``cli`` imports names from
the layers below it), and are removed on exit, so the untraced run executes
the program exactly as shipped.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs, under the span name "<module>.<attribute>"
FUNCTIONS = (
    ("cli", "main"),
    ("model", "model_from_spec"), ("model", "validate_model"),
    ("sim", "sample_passage_times"), ("sim", "recurrence_diagnostic"),
    ("sim", "tail_exponent"), ("sim", "write_samples_csv"),
    ("drift", "fit_asymptotics"), ("drift", "point_moments"),
    ("classify", "transform_generalized"), ("classify", "classify_generalized"),
    ("classify", "moment_threshold"),
    ("markov", "solve_poisson"), ("markov", "stationary_distribution"),
    ("lyapunov", "verify_drift_estimate"),
)
# ShiftedChainModel delegates to these, so each row-step is counted once
METHODS = ("distribution", "step_batch", "step_scalar")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._child = []  # time spent in enclosed spans, one slot per open span

    def wrap(self, name, fn, count=None):
        """``fn`` under span ``name``; ``count(tracer, args, kwargs)`` runs first."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if count is not None:
                count(self, args, kwargs)
            self._child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = self._child.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if self._child:
                    self._child[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper


def _count_rows(tracer, args, kwargs):
    x = args[1]
    tracer.counts["rows"] += len(x)
    # rows that already hit the level sit at +inf until the chunk compacts
    tracer.counts["live_rows"] += int(np.count_nonzero(x != np.inf))


def _count_uniforms(tracer, args, kwargs):
    out = kwargs.get("out")
    size = args[1] if len(args) > 1 else kwargs.get("size")  # args[0] is the generator
    tracer.counts["uniforms"] += out.size if out is not None else int(np.prod(size or 1))


def _traced_generator(tracer):
    class TracedGenerator(np.random.Generator):
        random = tracer.wrap("rng.draw", np.random.Generator.random, _count_uniforms)

    return TracedGenerator


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    import halfstrip.model as model

    modules = [m for name, m in sys.modules.items() if name.startswith("halfstrip")]
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for mod_name, attr in FUNCTIONS:
        orig = getattr(sys.modules[f"halfstrip.{mod_name}"], attr)
        new = tracer.wrap(f"{mod_name}.{attr}", orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    replace(mod, key, new)
    for attr in METHODS:
        count = _count_rows if attr == "step_batch" else None
        replace(model.ChainModel, attr,
                tracer.wrap(f"model.{attr}", model.ChainModel.__dict__[attr], count))
    generator = _traced_generator(tracer)
    for attr, new in (("SeedSequence", tracer.wrap("rng.seed", np.random.SeedSequence)),
                      ("PCG64", tracer.wrap("rng.bitgen", np.random.PCG64)),
                      ("Generator", tracer.wrap("rng.generator", generator))):
        replace(np.random, attr, new)
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer_metrics(tr: Tracer) -> dict:
    """The per-layer metrics, as ``name -> (value, unit)``."""
    c, s, own = tr.calls, tr.total, tr.self_time
    rows, live = tr.counts["rows"], tr.counts["live_rows"]
    stepped = live + c["model.step_scalar"]
    return {
        "cli.main.calls": (c["cli.main"], "count"),
        "cli.self_s": (own["cli.main"], "s"),
        "model.model_from_spec.s": (s["model.model_from_spec"], "s"),
        "model.distribution.calls": (c["model.distribution"], "count"),
        "model.step_batch.calls": (c["model.step_batch"], "count"),
        "model.step_batch.rows": (rows, "count"),
        "model.step_batch.live_rows": (live, "count"),
        "model.step_batch.ns_per_row": (_ratio(s["model.step_batch"] * 1e9, rows), "ns"),
        "model.step_batch.us_per_call": (
            _ratio(s["model.step_batch"] * 1e6, c["model.step_batch"]), "us"),
        "model.step_scalar.calls": (c["model.step_scalar"], "count"),
        "model.step_scalar.ns_per_step": (
            _ratio(s["model.step_scalar"] * 1e9, c["model.step_scalar"]), "ns"),
        "model.validate_model.s": (s["model.validate_model"], "s"),
        "sim.sample_passage_times.calls": (c["sim.sample_passage_times"], "count"),
        "sim.recurrence_diagnostic.s": (s["sim.recurrence_diagnostic"], "s"),
        # passage sampling outside the stepping and RNG spans it encloses
        "sim.passage.self_s": (own["sim.sample_passage_times"], "s"),
        "sim.rng.streams": (c["rng.generator"], "count"),
        "sim.rng.setup_s": (s["rng.seed"] + s["rng.bitgen"] + s["rng.generator"], "s"),
        "sim.rng.uniforms_drawn": (tr.counts["uniforms"], "count"),
        "sim.rng.draw_s": (s["rng.draw"], "s"),
        "sim.uniform_use_ratio": (_ratio(stepped, tr.counts["uniforms"]), "ratio"),
        "sim.live_row_ratio": (_ratio(live, rows), "ratio"),
        "sim.tail_exponent.s": (s["sim.tail_exponent"], "s"),
        "sim.write_samples_csv.s": (s["sim.write_samples_csv"], "s"),
        "drift.fit_asymptotics.calls": (c["drift.fit_asymptotics"], "count"),
        "drift.fit_asymptotics.s": (s["drift.fit_asymptotics"], "s"),
        "drift.point_moments.calls": (c["drift.point_moments"], "count"),
        "classify.transform_generalized.calls": (c["classify.transform_generalized"], "count"),
        "classify.classify_generalized.s": (s["classify.classify_generalized"], "s"),
        "classify.moment_threshold.calls": (c["classify.moment_threshold"], "count"),
        "markov.solve_poisson.calls": (c["markov.solve_poisson"], "count"),
        "markov.solve_poisson.s": (s["markov.solve_poisson"], "s"),
        "markov.stationary_distribution.calls": (c["markov.stationary_distribution"], "count"),
        "lyapunov.verify_drift_estimate.s": (s["lyapunov.verify_drift_estimate"], "s"),
    }
