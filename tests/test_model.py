import warnings

import numpy as np
import pytest

from halfstrip import (
    ChainModel,
    ModelSpecError,
    ShiftedChainModel,
    make_crw,
    make_tabular,
    model_from_spec,
    validate_model,
)
from halfstrip.model import _FLOOR_BAND, _FLOOR_SCAN_LIMIT, LineLaw, _range_ok, _scan_floor

GRID = (10.0, 1e2, 1e3, 1e4, 1e5)

REFLECTED_WALK = {
    "type": "tabular",
    "labels": [0],
    "boundary": "clip",
    "lines": {"0": [
        {"jump": 1, "next": 0, "prob": 0.5},
        {"jump": -1, "next": 0, "prob": 0.5},
    ]},
    "description": "reflected symmetric walk",
}


def crw_as_tabular(q, c_plus, c_minus, floor):
    lines = {}
    for key, i, c in (("1", 1, c_plus), ("-1", -1, c_minus)):
        lines[key] = [
            {"jump": 1, "next": 1, "prob": {"const": q if i == 1 else 1 - q, "inv_x": i * c / 2 if i == 1 else -i * c / 2}},
            {"jump": -1, "next": -1, "prob": {"const": 1 - q if i == 1 else q, "inv_x": -i * c / 2 if i == 1 else i * c / 2}},
        ]
    return {
        "type": "tabular",
        "labels": [1, -1],
        "boundary": {"rule": "reset", "jump": 1, "label": 1},
        "floor": floor,
        "lines": lines,
    }


class TestMakeCrw:
    def test_atoms_at_reference_state(self):
        # q + i c_i / (2x) at (10, +1): 0.6 + 0.2/20 = 0.61
        m = make_crw(0.6, 0.2, 0.2, delta=1.0, correction_amplitude=0.0)
        atoms = m.distribution(10.0, 1).atoms
        assert [(a.jump, a.next_label) for a in atoms] == [(1.0, 1), (-1.0, -1)]
        assert atoms[0].prob == pytest.approx(0.61, abs=1e-15)
        assert atoms[1].prob == pytest.approx(0.39, abs=1e-15)

    def test_no_correction_is_plain_persistence(self):
        m = make_crw(0.5, 0.0, 0.0)
        for x in GRID:
            for lab in (1, -1):
                probs = [a.prob for a in m.distribution(x, lab).atoms]
                assert probs == pytest.approx([0.5, 0.5], abs=0)

    def test_jump_equals_next_label(self):
        m = make_crw(0.7, 0.3, -0.1)
        for x in GRID:
            for lab in (1, -1):
                for a in m.distribution(x, lab).atoms:
                    assert a.jump == a.next_label

    def test_deterministic_construction(self):
        m1 = make_crw(0.6, 0.2, 0.2)
        m2 = make_crw(0.6, 0.2, 0.2)
        for x in GRID:
            for lab in (1, -1):
                assert m1.distribution(x, lab).atoms == m2.distribution(x, lab).atoms

    def test_boundary_reset(self):
        m = make_crw(0.6, 0.2, 0.2)
        for x in (0.0, 0.25, 0.999):
            for lab in (1, -1):
                atoms = m.distribution(x, lab).atoms
                assert atoms == ((1.0, 1, 1.0),)

    def test_below_floor_uses_uncorrected_kernel(self):
        m = make_crw(0.6, 1.5, 1.5)
        assert m.formula_floor == 2.0
        probs = [a.prob for a in m.distribution(1.0, 1).atoms]
        assert probs == [0.6, 0.4]

    def test_floor_is_minimal(self):
        m = make_crw(0.6, 1.5, 1.5)
        # at x = 1 the corrected probability 0.6 + 0.75 leaves [0.01, 0.99]
        assert 0.6 + 0.75 / 1.0 > 0.99
        assert 0.6 + 0.75 / 2.0 <= 0.99

    def test_critical_point_beyond_float_range_is_skipped(self):
        # p = c + b/x + g x^(-1-delta) has its interior critical point near
        # x = 1e400 here; computing it overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = make_crw(0.6, -1e-6, -1e-6, delta=0.01, correction_amplitude=0.1)
        assert m.formula_floor == 1.0

    def test_rejects_bad_q(self):
        for q in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ModelSpecError):
                make_crw(q, 0.1, 0.1)

    def test_rejects_bad_delta(self):
        with pytest.raises(ModelSpecError):
            make_crw(0.6, 0.1, 0.1, delta=0.0)

    def test_amp_keeps_rows_stochastic(self):
        m = make_crw(0.6, 0.2, -0.4, delta=0.5, correction_amplitude=0.8)
        for x in GRID:
            for lab in (1, -1):
                probs = [a.prob for a in m.distribution(x, lab).atoms]
                assert sum(probs) == pytest.approx(1.0, abs=1e-12)
                assert min(probs) >= 0.0


def bisect_floor(rows, delta):
    """The least integer floor by plain bisection over [1, _FLOOR_SCAN_LIMIT],
    or None past it: the reference for ``_scan_floor``'s galloping search."""
    lo, hi = _FLOOR_BAND

    def ok(x):
        return all(_range_ok(c, b, g, delta, float(x), lo, hi) for c, b, g in rows)

    if ok(1):
        return 1
    if not ok(_FLOOR_SCAN_LIMIT):
        return None
    low, high = 1, _FLOOR_SCAN_LIMIT
    while high - low > 1:
        mid = (low + high) // 2
        if ok(mid):
            high = mid
        else:
            low = mid
    return high


def scan_or_none(rows, delta):
    try:
        return _scan_floor(rows, delta)
    except ModelSpecError as exc:
        assert "too extreme" in str(exc)
        return None


class TestScanFloor:
    @pytest.mark.parametrize("target", [
        1, 2, 3, 9, 1000, 2**20, 2**20 + 1, _FLOOR_SCAN_LIMIT // 2 + 1,
        _FLOOR_SCAN_LIMIT - 1, _FLOOR_SCAN_LIMIT, _FLOOR_SCAN_LIMIT + 1, 3 * _FLOOR_SCAN_LIMIT,
    ])
    def test_matches_bisection(self, target):
        # p = 0.5 +- 0.49 target / x stays inside [0.01, 0.99] from about x = target on
        b = 0.49 * target
        rows = [(0.5, b, 0.0), (0.5, -b, 0.0)]
        want = bisect_floor(rows, 1.0)
        assert scan_or_none(rows, 1.0) == want
        if target <= _FLOOR_SCAN_LIMIT - 1:
            assert abs(want - target) <= 1
        if target > _FLOOR_SCAN_LIMIT + 1:  # too extreme
            assert want is None

    def test_matches_bisection_on_random_rows(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 5))
            rows = [(float(rng.uniform(0.02, 0.98)),
                     float(rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 7)),
                     float(rng.choice([-1, 0, 1]) * 10 ** rng.uniform(-3, 7)))
                    for _ in range(k)]
            delta = float(rng.uniform(0.05, 2.0))
            assert scan_or_none(rows, delta) == bisect_floor(rows, delta), (rows, delta)


class TestGridInvariants:
    @pytest.mark.parametrize(
        "model",
        [
            make_crw(0.6, 0.2, 0.2),
            make_crw(0.3, -1.0, 0.5, delta=0.5, correction_amplitude=0.5),
            make_tabular(REFLECTED_WALK),
        ],
        ids=["crw", "crw-amp", "reflected"],
    )
    def test_stochastic_and_nonnegative_on_grid(self, model):
        for x in GRID:
            for lab in model.labels:
                dist = model.distribution(x, lab)
                assert sum(a.prob for a in dist.atoms) == pytest.approx(1.0, abs=1e-12)
                for a in dist.atoms:
                    assert x + a.jump >= 0.0


class TestMakeTabular:
    def test_reflected_walk(self):
        m = make_tabular(REFLECTED_WALK)
        assert m.labels == (0,)
        assert m.formula_floor == 0.0
        atoms = m.distribution(0.0, 0).atoms
        # the down atom is clipped to land at 0
        assert atoms[0] == (1.0, 0, 0.5)
        assert atoms[1] == (0.0, 0, 0.5)

    def test_bad_probability_sum_rejected(self):
        bad = {
            "type": "tabular",
            "labels": [0],
            "lines": {"0": [
                {"jump": 1, "next": 0, "prob": 0.5},
                {"jump": -1, "next": 0, "prob": 0.4},
            ]},
        }
        with pytest.raises(ModelSpecError, match="sum"):
            make_tabular(bad)

    def test_tiny_deviation_renormalized(self):
        spec = {
            "type": "tabular",
            "labels": [0],
            "lines": {"0": [
                {"jump": 1, "next": 0, "prob": 0.5 + 2e-10},
                {"jump": -1, "next": 0, "prob": 0.5},
            ]},
        }
        m = make_tabular(spec)
        assert sum(a.prob for a in m.distribution(5.0, 0).atoms) == pytest.approx(1.0, abs=1e-15)

    def test_matches_crw_atom_for_atom(self):
        q, c = 0.6, 0.2
        crw = make_crw(q, c, c)
        tab = make_tabular(crw_as_tabular(q, c, c, crw.formula_floor))
        for x in (10.0, 100.0, 1000.0):
            for lab in (1, -1):
                assert tab.distribution(x, lab).atoms == crw.distribution(x, lab).atoms

    def test_unreachable_label_rejected(self):
        bad = {
            "type": "tabular",
            "labels": [0, 1],
            "lines": {
                "0": [{"jump": 1, "next": 0, "prob": 1.0}],
                "1": [{"jump": 1, "next": 0, "prob": 1.0}],
            },
        }
        with pytest.raises(ModelSpecError, match="unreachable"):
            make_tabular(bad)

    def test_unknown_keys_rejected(self):
        bad = dict(REFLECTED_WALK)
        bad["extra"] = 1
        with pytest.raises(ModelSpecError, match="unknown keys"):
            make_tabular(bad)

    def test_override_states(self):
        spec = dict(REFLECTED_WALK)
        spec = {**REFLECTED_WALK, "states": [
            {"x": 0.0, "label": 0, "atoms": [{"jump": 2, "next": 0, "prob": 1.0}]}
        ]}
        m = make_tabular(spec)
        assert m.distribution(0.0, 0).atoms == ((2.0, 0, 1.0),)
        assert m.distribution(1.0, 0).atoms[0].prob == 0.5

    def test_reflect_boundary(self):
        spec = {**REFLECTED_WALK, "boundary": "reflect"}
        m = make_tabular(spec)
        atoms = m.distribution(0.5, 0).atoms
        assert atoms[1] == (-0.0, 0, 0.5) or atoms[1].jump == 0.0

    def test_model_from_spec_dispatch(self):
        m = model_from_spec({"type": "crw", "q": 0.6, "c_plus": 0.2, "c_minus": 0.2})
        assert m.labels == (1, -1)
        with pytest.raises(ModelSpecError, match="unknown model type"):
            model_from_spec({"type": "nope"})
        with pytest.raises(ModelSpecError, match="unknown keys"):
            model_from_spec({"type": "crw", "q": 0.6, "zap": 1})


class TestValidate:
    def test_crw_report(self):
        m = make_crw(0.6, 0.2, 0.2)
        rep = validate_model(m, p=4.0)
        assert rep.ok and rep.stochastic_ok and rep.landings_ok
        assert rep.irreducible
        assert np.allclose(rep.q_limit, [[0.6, 0.4], [0.4, 0.6]], atol=1e-9)
        assert not rep.q_limit.flags.writeable
        assert rep.cp_witness == pytest.approx(1.0, abs=1e-12)

    def test_reducible_limit_flagged(self):
        spec = {
            "type": "tabular",
            "labels": [0, 1],
            "lines": {
                "0": [{"jump": 1, "next": 0, "prob": 0.5}, {"jump": -1, "next": 0, "prob": 0.5}],
                "1": [{"jump": 1, "next": 1, "prob": 0.5}, {"jump": -1, "next": 1, "prob": 0.5}],
            },
            "boundary": "clip",
        }
        rep = validate_model(make_tabular(spec))
        assert not rep.irreducible
        assert not rep.ok

    def test_broken_kernel_flagged_not_raised(self):
        # hand-built line whose probabilities sum to 1.2: validation reports,
        # construction of distributions fails, nothing raises out of validate
        line = LineLaw(
            jumps=np.array([1.0, -1.0]),
            next_idx=np.array([0, 0]),
            p_const=np.array([0.7, 0.5]),
            p_inv=np.zeros(2),
            p_pow=np.zeros(2),
            delta=1.0,
        )
        broken = ChainModel((0,), (line,), 0.0, "clip", description="broken")
        rep = validate_model(broken)
        assert not rep.stochastic_ok
        assert not rep.ok
        assert rep.failures


class TestShiftedModel:
    def test_distribution_translates_jumps(self):
        m = make_crw(0.6, 0.2, 0.2)
        s = ShiftedChainModel(m, [0.5, 0.0])  # labels (1, -1)
        base = m.distribution(10.0, 1)
        shifted = s.distribution(10.5, 1)
        # jump to label +1 stays 1; jump to label -1 gains -0.5
        assert shifted.atoms[0].jump == 1.0
        assert shifted.atoms[1].jump == -1.5
        assert [a.prob for a in shifted.atoms] == [a.prob for a in base.atoms]

    def test_rejects_position_below_offset(self):
        s = ShiftedChainModel(make_crw(0.6, 0.2, 0.2), [0.5, 0.0])
        with pytest.raises(ValueError):
            s.distribution(0.2, 1)

    def test_rejects_negative_offsets(self):
        with pytest.raises(ValueError):
            ShiftedChainModel(make_crw(0.6, 0.2, 0.2), [-0.5, 0.0])

    def test_rejects_one_offset_too_many(self):
        with pytest.raises(ValueError, match="one offset per label"):
            ShiftedChainModel(make_crw(0.6, 0.2, 0.2), [0.5, 0.0, 0.0])
