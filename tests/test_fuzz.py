"""Fuzz ``halfstrip analyze`` with mutated specs: every run must end in a
report that is strict JSON (exit 0) or a one-line error (exit 2), never an
uncaught exception."""

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from halfstrip.cli import main

CRW = {"type": "crw", "q": 0.6, "c_plus": 0.2, "c_minus": 0.2, "delta": 0.5, "amp": 0.1}
TABULAR = {
    "type": "tabular",
    "labels": [0, "b"],
    "boundary": {"rule": "reset", "jump": 1, "label": 0},
    "delta": 1.0,
    "lines": {
        "0": [
            {"jump": 1, "next": 0, "prob": {"const": 0.5, "inv_x": 0.2}},
            {"jump": -1, "next": "b", "prob": {"const": 0.5, "inv_x": -0.2}},
        ],
        "b": [
            {"jump": -1, "next": "b", "prob": 0.5},
            {"jump": 1, "next": 0, "prob": 0.5},
        ],
    },
    "states": [{"x": 0, "label": "b", "atoms": [{"jump": 1, "next": 0, "prob": 1}]}],
}
COEFFICIENTS = {
    "type": "coefficients",
    "labels": [1, -1],
    "d": [0.2, -0.2],
    "e": [0.2, 0.2],
    "t2": [1.0, 1.0],
    "d_cross": [[0.6, -0.4], [0.4, -0.6]],
    "gamma": [[0.1, -0.1], [0.1, -0.1]],
    "Q": [[0.6, 0.4], [0.4, 0.6]],
    "pi": [0.5, 0.5],
    "fit_residuals": {"mu": 1e-12, "q": 0.0},
    "warnings": ["asserted by hand"],
    "refined_rates_hold": False,
}

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.one_of(st.none(), st.integers(-2, 2), st.floats(-2, 2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 1), max_size=2),
    st.lists(st.lists(st.integers(0, 1), max_size=2), max_size=2),
)

# finite, but their squares or fourth powers overflow a float
HUGE = st.sampled_from((1e80, 1e160, 1.5e308))


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutate(spec, data):
    path = data.draw(st.sampled_from(list(_paths(spec))))
    op = data.draw(st.sampled_from(("replace", "drop", "add-key", "wrap", "huge-jump")))
    if op == "huge-jump":
        jumps = [p for p in _paths(spec) if p and p[-1] == "jump"]
        path = data.draw(st.sampled_from(jumps or [path]))
    if not path:
        return data.draw(JUNK) if op == "replace" else [spec]
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "replace":
        parent[key] = data.draw(JUNK)
    elif op == "huge-jump":
        parent[key] = data.draw(HUGE)
    elif op == "drop":
        del parent[key]
    elif op == "wrap":
        parent[key] = [parent[key]]
    elif isinstance(parent, dict):
        parent["surprise"] = data.draw(JUNK)
    else:
        parent.append(data.draw(JUNK))
    return spec


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from((CRW, TABULAR, COEFFICIENTS)), n_mutations=st.integers(1, 3),
       data=st.data())
def test_analyze_survives_mutated_specs(tmp_path, capsys, base, n_mutations, data):
    spec = copy.deepcopy(base)
    for _ in range(n_mutations):
        spec = _mutate(spec, data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    capsys.readouterr()
    code = main(["analyze", "--model", str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        cls = json.loads(out, parse_constant=_refuse)["classification"]
        assert math.isfinite(cls["U"]) and math.isfinite(cls["V"])


def _refuse(token):
    raise AssertionError(f"the report holds {token}, which is not JSON")
