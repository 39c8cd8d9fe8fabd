"""The one-step law and both stepping lanes are one kernel.

For random tabular models (clip, reflect and reset boundaries, ``inv_x`` and
``pow`` terms, an override state) and adversarial positions and uniforms,
``step_scalar``, ``step_batch`` (on one row, inside a mixed batch, and inside
a batch with retired ``+inf`` rows and a strided column of uniforms) and the
atom that ``distribution`` puts at ``u`` agree bit for bit. ``step_batch``
skips the rules that act only at bounded ``x`` when its least position is past
them, and steps two-atom lines without ``pow`` terms in a short core; wide
batches with and without rows at those rules agree with ``step_scalar`` row by
row, whether ``step_batch`` reduces the batch itself or is given its least
position or ``-inf`` as the lower bound. The shifted view's law is the base
law with every jump moved by the offset difference.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfstrip import ShiftedChainModel, make_tabular, model_from_spec

# at x = 21.799996820181047 numpy's vectorised power and libm's pow() differ
# in the last bit of x^(-1.1), so the first atom's probability does too
POW_REPRO = {
    "type": "tabular", "labels": [0], "delta": 0.1,
    "lines": {"0": [
        {"jump": 1, "next": 0, "prob": {"const": 0.5, "pow": 0.2}},
        {"jump": -1, "next": 0, "prob": {"const": 0.5, "pow": -0.2}},
    ]},
}


def bits(value) -> bytes:
    return struct.pack("<d", float(value))


def uniforms_at_atoms(dist) -> list:
    """Each cumulative probability of the law and the float just below it."""
    out, cum = [], 0.0
    for atom in dist.atoms:
        cum += atom.prob
        out += [cum, math.nextafter(cum, 0.0)]
    return out


def atom_at(dist, u):
    cum = 0.0
    for atom in dist.atoms:
        cum += atom.prob
        if u < cum:
            return atom
    return dist.atoms[-1]


def check_lanes(model, positions, extra_uniforms=()):
    rows = []
    for x in positions:
        for li, label in enumerate(model.labels):
            dist = model.distribution(x, label)
            for u in uniforms_at_atoms(dist) + list(extra_uniforms):
                rows.append((x, li, u, atom_at(dist, u)))
    xs = np.array([r[0] for r in rows])
    labs = np.array([r[1] for r in rows], dtype=np.int64)
    us = np.array([r[2] for r in rows])
    # the least position given as no bound, exactly and as -inf: any lower
    # bound gives the same bytes
    mixed = [model.step_batch(xs, labs, us, bound)
             for bound in (None, np.fmin.reduce(xs), -math.inf)]
    # as the sampler steps: u is a strided column of a 2-D block, and rows
    # retired at +inf sit between live ones
    block = np.zeros((2 * len(rows), 4))
    block[::2, 2] = us
    block[1::2, 2] = us[::-1]
    strided_x, strided_lab = model.step_batch(
        np.stack([xs, np.full(len(rows), np.inf)], axis=1).ravel(), np.repeat(labs, 2),
        block[:, 2])
    assert (strided_x[1::2] == np.inf).all()
    for k, (x, li, u, atom) in enumerate(rows):
        sx, sl = model.step_scalar(x, li, u)
        where = (x, li, u)
        for bound in (None, x, -math.inf):
            bx, bl = model.step_batch(np.array([x]), np.array([li]), np.array([u]), bound)
            assert bits(sx) == bits(bx[0]) and sl == bl[0], (where, bound)
        for mixed_x, mixed_lab in mixed:
            assert bits(sx) == bits(mixed_x[k]) and sl == mixed_lab[k], where
        assert bits(sx) == bits(strided_x[2 * k]) and sl == strided_lab[2 * k], where
        assert bits(sx - x) == bits(atom.jump), where
        assert model.labels[sl] == atom.next_label, where


def test_pow_repro():
    check_lanes(make_tabular(POW_REPRO), [21.799996820181047, 5.0, 1e3])


def _gate_spec(boundary):
    """Two labels, three and two atoms, ``inv_x`` and ``pow`` terms, floor 20,
    trigger 3 and one override state at (40, label 1)."""
    return {
        "type": "tabular", "labels": [0, 1], "delta": 0.5, "floor": 20.0,
        "boundary": boundary,
        "lines": {
            "0": [{"jump": 2, "next": 1, "prob": {"const": 0.3, "inv_x": 0.5, "pow": 0.2}},
                  {"jump": -1, "next": 0, "prob": {"const": 0.5, "inv_x": -0.2}},
                  {"jump": -3, "next": 1, "prob": {"const": 0.2, "inv_x": -0.3, "pow": -0.2}}],
            "1": [{"jump": 1, "next": 0, "prob": {"const": 0.6, "inv_x": 0.4}},
                  {"jump": -2, "next": 1, "prob": {"const": 0.4, "inv_x": -0.4}}],
        },
        "states": [{"x": 40.0, "label": 1, "atoms": [
            {"jump": 1, "next": 0, "prob": 0.5}, {"jump": -1, "next": 1, "prob": 0.5}]}],
    }


def _two_atom_spec(boundary, floor, override_x):
    """Two labels of two atoms each with ``inv_x`` terms and no ``pow`` term,
    trigger 6 and one override state at (``override_x``, label 1). With floor
    2, rows in [2, 6) step by the formula but can land below 0."""
    return {
        "type": "tabular", "labels": [0, 1], "floor": floor, "boundary": boundary,
        "lines": {
            "0": [{"jump": 3, "next": 1, "prob": {"const": 0.4, "inv_x": 0.5}},
                  {"jump": -6, "next": 0, "prob": {"const": 0.6, "inv_x": -0.5}}],
            "1": [{"jump": 1, "next": 0, "prob": {"const": 0.7, "inv_x": -0.3}},
                  {"jump": -2, "next": 1, "prob": {"const": 0.3, "inv_x": 0.3}}],
        },
        "states": [{"x": override_x, "label": 1, "atoms": [
            {"jump": 2, "next": 0, "prob": 0.5}, {"jump": -1, "next": 1, "prob": 0.5}]}],
    }


GATE_MODELS = {
    "clip": _gate_spec("clip"),
    "reflect": _gate_spec("reflect"),
    "reset": _gate_spec({"rule": "reset", "jump": 2, "label": 0}),
    "crw": {"type": "crw", "q": 0.6, "c_plus": 0.2, "c_minus": -0.3, "amp": 0.1},
    # the short core's traffic: two atoms per line, no pow term
    "two-atom-clip": _two_atom_spec("clip", 2.0, 1.0),
    "two-atom-reflect": _two_atom_spec("reflect", 2.0, 1.0),
    "two-atom-reset": _two_atom_spec({"rule": "reset", "jump": 1, "label": 1}, 10.0, 1.0),
    "two-atom-override": _two_atom_spec("clip", 2.0, 30.0),
    "two-atom-crw": {"type": "crw", "q": 0.6, "c_plus": 0.2, "c_minus": -0.3},
}


def check_batch_rows(model, xs, labs, us):
    # the floor clamp keeps x = 0 rows from dividing by zero, even where they
    # reset; the least position given as no bound, exactly and as -inf
    with np.errstate(all="raise"):
        stepped = [model.step_batch(xs, labs, us, bound)
                   for bound in (None, np.fmin.reduce(xs), -math.inf)]
    for k, (x, li, u) in enumerate(zip(xs.tolist(), labs.tolist(), us.tolist())):
        sx, sl = model.step_scalar(x, li, u)
        for bx, bl in stepped:
            assert bits(sx) == bits(bx[k]) and sl == bl[k], (x, li, u)


@pytest.mark.parametrize("name", sorted(GATE_MODELS))
def test_batch_gates_agree_with_scalar_lane(name):
    model = model_from_spec(GATE_MODELS[name])
    t = model._tables
    bound = max([model.formula_floor, t.trigger_top] + [pos for pos, _ in model.overrides])
    rng = np.random.default_rng(11)
    n = 300
    # every row past the floor, the reset trigger and every override state
    xs = np.concatenate([bound + 0.5 + rng.integers(0, 60, n // 2),
                         bound + rng.uniform(0.25, 1e6, n - n // 2)])
    labs = rng.integers(0, len(model.labels), n)
    us = rng.random(n)
    assert xs.min() > bound
    check_batch_rows(model, xs, labs, us)
    # and uniforms at every atom's cumulative probability, past every bound
    check_lanes(model, [bound + 0.5, bound + 17.25, 1e6])

    # one row below the floor, where u = const[0] picks atom 1 by the constant
    # law and atom 0 by the formula; one at 0, below the reset trigger; one on
    # an override state, where u = 0.75 picks its second atom
    low = [(model.formula_floor - 0.5, 0, t.const_list[0][0]), (0.0, 0, us[10])]
    low += [(pos, li, 0.75) for pos, li in model.overrides]
    for k, (x, li, u) in enumerate(low):
        xs[7 * k + 3], labs[7 * k + 3], us[7 * k + 3] = x, li, u
    check_batch_rows(model, xs, labs, us)

    # the gates one by one, each batch past the other two bounds: rows past
    # the floor but some below the trigger (where clip and reflect move
    # landings that go below 0, and reset acts), rows past the trigger but some
    # below the floor, and rows past both but some on an override state
    floor, trigger = model.formula_floor, t.trigger_top
    for lo, hi, on_overrides in ((floor, trigger, False), (trigger, floor, False),
                                 (max(floor, trigger), -math.inf, True)):
        xs = lo + rng.uniform(0.0, bound + 2.0 - lo, n)
        xs[:4] = np.linspace(lo, max(lo, hi), 4, endpoint=False)
        for k, (pos, li) in enumerate(model.overrides if on_overrides else ()):
            xs[4 + k], labs[4 + k], us[4 + k] = pos, li, 0.75
        check_batch_rows(model, xs, labs, us)


@pytest.mark.parametrize("name", sorted(GATE_MODELS))
def test_empty_batch(name):
    model = model_from_spec(GATE_MODELS[name])
    x, lab = model.step_batch(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))
    assert x.shape == lab.shape == (0,)
    assert x.dtype == np.float64 and lab.dtype == np.int64


def _centered(values):
    mean = sum(values) / len(values)
    return [v - mean for v in values]


@st.composite
def tabular_models(draw):
    n = draw(st.integers(1, 3))
    labels = list(range(n))
    use_inv, use_pow = draw(st.booleans()), draw(st.booleans())
    lines = {}
    for li in labels:
        count = draw(st.integers(1, 4))
        weights = draw(st.lists(st.integers(1, 5), min_size=count, max_size=count))
        coeff = st.floats(-0.1, 0.1)
        invs = _centered(draw(st.lists(coeff, min_size=count, max_size=count)))
        pows = _centered(draw(st.lists(coeff, min_size=count, max_size=count)))
        atoms = []
        for k in range(count):
            prob = {"const": weights[k] / sum(weights)}
            if use_inv:
                prob["inv_x"] = invs[k]
            if use_pow:
                prob["pow"] = pows[k]
            # the first atom of each line moves to the next label: all reachable
            nxt = (li + 1) % n if k == 0 else draw(st.sampled_from(labels))
            atoms.append({"jump": draw(st.integers(-6, 6)) / 2, "next": nxt, "prob": prob})
        lines[str(li)] = atoms
    boundary = draw(st.sampled_from(["clip", "reflect", "reset"]))
    if boundary == "reset":
        boundary = {"rule": "reset", "jump": draw(st.integers(0, 3)),
                    "label": draw(st.sampled_from(labels))}
    override_x = draw(st.integers(0, 40)) / 4
    weights = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    override = {
        "x": override_x, "label": draw(st.sampled_from(labels)),
        "atoms": [{"jump": draw(st.integers(0, 3)), "next": draw(st.sampled_from(labels)),
                   "prob": w / sum(weights)} for w in weights],
    }
    # |inv_x| and |pow| terms stay below 0.022 from x = 16 on, under the
    # smallest constant part 0.05, so every probability stays in [0, 1]
    spec = {
        "type": "tabular", "labels": labels, "lines": lines, "boundary": boundary,
        "delta": draw(st.floats(0.1, 2.0)), "floor": draw(st.floats(16.0, 40.0)),
        "states": [override],
    }
    return make_tabular(spec), override_x


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(model_and_override=tabular_models(), data=st.data())
def test_lanes_agree_on_random_models(model_and_override, data):
    model, override_x = model_and_override
    floor = model.formula_floor
    triggers = [-float(line.jumps.min()) for line in model.lines]
    positions = [0.0, floor, math.nextafter(floor, 0.0), override_x, 1e3, 1e6]
    positions += [t for trig in triggers for t in (trig, math.nextafter(trig, 0.0)) if t >= 0]
    positions += data.draw(st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3))
    uniforms = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                  min_size=2, max_size=2))
    check_lanes(model, positions, uniforms)

    offsets = np.array([data.draw(st.integers(0, 12)) / 4 for _ in model.labels])
    shifted = ShiftedChainModel(model, offsets)
    off = dict(zip(model.labels, offsets.tolist()))
    for x in positions:
        for label in model.labels:
            y = x + off[label]
            want = [
                (bits(a.jump + off[a.next_label] - off[label]), a.next_label, bits(a.prob))
                for a in model.distribution(y - off[label], label).atoms
            ]
            got = [(bits(a.jump), a.next_label, bits(a.prob))
                   for a in shifted.distribution(y, label).atoms]
            assert got == want, (x, label)
