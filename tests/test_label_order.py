"""The coefficient arrays are indexed by label position, so reordering a
spec's labels must permute every array and change nothing else. Labels such
as the CRW's (1, -1) make a label-keyed read of a position array (``d[-1]``)
silently pick the wrong line; these tests catch that."""

import itertools

import numpy as np
import pytest

from halfstrip import (
    AsymptoticCoefficients,
    classify_generalized,
    fit_asymptotics,
    make_tabular,
    moment_threshold,
)

THREE_LABELS = {
    "type": "tabular",
    "boundary": {"rule": "reset", "jump": 1, "label": "a"},
    "lines": {
        "a": [{"jump": 1, "next": "a", "prob": {"const": 0.3, "inv_x": 0.2}},
              {"jump": -1, "next": "a", "prob": 0.1},
              {"jump": 1, "next": "b", "prob": {"const": 0.2, "inv_x": -0.1}},
              {"jump": -1, "next": "b", "prob": 0.1},
              {"jump": 1, "next": "c", "prob": 0.1},
              {"jump": -1, "next": "c", "prob": {"const": 0.2, "inv_x": -0.1}}],
        "b": [{"jump": 1, "next": "a", "prob": 0.1},
              {"jump": -1, "next": "a", "prob": {"const": 0.2, "inv_x": 0.1}},
              {"jump": 1, "next": "b", "prob": {"const": 0.1, "inv_x": 0.1}},
              {"jump": -1, "next": "b", "prob": 0.3},
              {"jump": 2, "next": "c", "prob": {"const": 0.1, "inv_x": -0.2}},
              {"jump": -1, "next": "c", "prob": 0.2}],
        "c": [{"jump": 1, "next": "a", "prob": {"const": 0.2, "inv_x": 0.1}},
              {"jump": -2, "next": "a", "prob": 0.1},
              {"jump": 1, "next": "b", "prob": 0.2},
              {"jump": -1, "next": "b", "prob": {"const": 0.1, "inv_x": -0.1}},
              {"jump": 1, "next": "c", "prob": 0.2},
              {"jump": -1, "next": "c", "prob": 0.2}],
    },
}


def tabular_crw(q, c_plus, c_minus):
    """The CRW as a tabular spec: from (x, i) keep direction i with
    probability q + i c_i / (2x)."""
    lines = {}
    for i, c in ((1, c_plus), (-1, c_minus)):
        lines[str(i)] = [
            {"jump": i, "next": i, "prob": {"const": q, "inv_x": i * c / 2}},
            {"jump": -i, "next": -i, "prob": {"const": 1 - q, "inv_x": -i * c / 2}},
        ]
    return {"type": "tabular", "lines": lines}


def analyse(spec, labels):
    co = fit_asymptotics(make_tabular({**spec, "labels": list(labels)}))
    cls = classify_generalized(co, refined=True, tol=1e-4)
    return co, cls, moment_threshold(cls.U, cls.V)


CASES = [(THREE_LABELS, order) for order in itertools.permutations("abc")] + [
    (tabular_crw(0.6, 0.3, 0.1), (1, -1)),
    (tabular_crw(0.6, 0.3, 0.1), (-1, 1)),
]


@pytest.mark.parametrize("spec,labels", CASES, ids=[str(list(o)) for _, o in CASES])
def test_reordered_labels_permute_the_arrays(spec, labels):
    ref_co, ref_cls, ref_mom = analyse(spec, sorted(labels, key=str))
    co, cls, mom = analyse(spec, labels)
    p = [ref_co.labels.index(k) for k in co.labels]
    pp = np.ix_(p, p)
    for name, index in (("d", p), ("e", p), ("t2", p), ("d_cross", pp), ("gamma", pp)):
        np.testing.assert_allclose(getattr(co, name), getattr(ref_co, name)[index],
                                   rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(co.Q_limit, ref_co.Q_limit[pp], rtol=0, atol=1e-12)
    np.testing.assert_allclose(co.pi, ref_co.pi[p], rtol=0, atol=1e-12)
    _, a, _ = cls.transform
    _, ref_a, _ = ref_cls.transform
    np.testing.assert_allclose(a, ref_a[p], rtol=0, atol=1e-12)
    assert cls.verdict is ref_cls.verdict
    assert cls.U == pytest.approx(ref_cls.U, abs=1e-12)
    assert cls.V == pytest.approx(ref_cls.V, abs=1e-12)
    assert mom.theta_star == pytest.approx(ref_mom.theta_star, abs=1e-12)


@pytest.mark.parametrize("spec,labels", CASES, ids=[str(list(o)) for _, o in CASES])
def test_json_round_trip_is_bit_for_bit(spec, labels):
    co, _, _ = analyse(spec, labels)
    back = AsymptoticCoefficients.from_dict(co.to_dict())
    assert back.labels == co.labels
    for name in ("d", "e", "t2", "d_cross", "gamma"):
        assert np.array_equal(getattr(back, name), getattr(co, name)), name
    assert np.array_equal(back.Q_limit, co.Q_limit)
    assert np.array_equal(back.pi, co.pi)
