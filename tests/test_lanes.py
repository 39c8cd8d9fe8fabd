"""The one-step law and both stepping lanes are one kernel.

For random tabular models (clip, reflect and reset boundaries, ``inv_x`` and
``pow`` terms, an override state) and adversarial positions and uniforms,
``step_scalar``, ``step_batch`` (on one row and inside a mixed batch) and the
atom that ``distribution`` puts at ``u`` agree bit for bit. The shifted view's
law is the base law with every jump moved by the offset difference.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from halfstrip import make_tabular, shift_model

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
    mixed_x, mixed_lab = model.step_batch(xs, labs, us)
    for k, (x, li, u, atom) in enumerate(rows):
        sx, sl = model.step_scalar(x, li, u)
        bx, bl = model.step_batch(np.array([x]), np.array([li]), np.array([u]))
        where = (x, li, u)
        assert bits(sx) == bits(bx[0]) == bits(mixed_x[k]), where
        assert sl == bl[0] == mixed_lab[k], where
        assert bits(sx - x) == bits(atom.jump), where
        assert model.labels[sl] == atom.next_label, where


def test_pow_repro():
    check_lanes(make_tabular(POW_REPRO), [21.799996820181047, 5.0, 1e3])


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

    offsets = {k: data.draw(st.integers(0, 12)) / 4 for k in model.labels}
    shifted = shift_model(model, offsets)
    for x in positions:
        for label in model.labels:
            y = x + offsets[label]
            want = [
                (bits(a.jump + offsets[a.next_label] - offsets[label]), a.next_label, bits(a.prob))
                for a in model.distribution(y - offsets[label], label).atoms
            ]
            got = [(bits(a.jump), a.next_label, bits(a.prob))
                   for a in shifted.distribution(y, label).atoms]
            assert got == want, (x, label)
