"""Half-strip chain models.

A model lives on R+ x S for a finite ordered label set S. Each label ("line")
carries a finitely supported one-step law: a list of atoms (jump, next label)
whose probabilities follow the closed form

    p(x) = const + inv_x / x + pow * x^(-1-delta)        for x >= floor,

with the constant parts alone as the law below the floor, an explicit
boundary rule so that no step ever lands below 0, and optional per-state
override atoms for exceptional positions. The exact one-step laws, the
scalar step lane and the batch step lane all read the same tables and the
same override atoms, so there is exactly one definition of every kernel;
the lanes agree bit for bit, ``pow`` terms included.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .markov import is_irreducible, stochastic_matrix

PROB_SUM_TOL = 1e-12
RENORM_TOL = 1e-9
DEFAULT_VALIDATION_GRID = (10.0, 1e2, 1e3, 1e4, 1e5)
_FLOOR_BAND = (0.01, 0.99)
_FLOOR_SCAN_LIMIT = 10_000_000

Label = int | str


class ModelSpecError(ValueError):
    """Malformed or inconsistent model specification."""


class State(NamedTuple):
    position: float
    label: Label


class Atom(NamedTuple):
    jump: float
    next_label: Label
    prob: float


@dataclass(frozen=True)
class IncrementDistribution:
    """Finitely supported one-step law at a single state."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple(Atom(float(j), n, float(p)) for j, n, p in self.atoms)
        if not atoms:
            raise ValueError("atom list must be non-empty")
        probs = np.array([a.prob for a in atoms])
        if probs.min() < -1e-15:
            raise ValueError(f"negative atom probability {probs.min()!r}")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"atom probabilities sum to {probs.sum()!r}")
        object.__setattr__(self, "atoms", atoms)


def _freeze(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LineLaw:
    """One label's kernel: atoms plus closed-form probability coefficients.
    Below the floor the constant parts alone are the law."""

    jumps: np.ndarray      # (A,) raw jumps, in declared atom order
    next_idx: np.ndarray   # (A,) label indices
    p_const: np.ndarray    # (A,)
    p_inv: np.ndarray      # (A,) coefficient of 1/x
    p_pow: np.ndarray      # (A,) coefficient of x^(-1-delta)
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "jumps", _freeze(self.jumps))
        idx = np.array(self.next_idx, dtype=np.int64)
        idx.flags.writeable = False
        object.__setattr__(self, "next_idx", idx)
        for name in ("p_const", "p_inv", "p_pow"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def n_atoms(self) -> int:
        return len(self.jumps)


class _StepTables:
    """Every line's kernel coefficients: the one definition of a step's law.

    :meth:`pick` evaluates one state's atom probabilities in declared order
    and stops at the atom a uniform picks, for the scalar lane; :meth:`probs`
    runs it to the end and lists them all, for ``distribution``. :meth:`choose`
    evaluates the same expression, in the same order, per row of a batch. All
    take ``x^(-1-delta)`` from libm (Python float ``**``), never from numpy's
    vectorised ``power``, whose last bit can differ. Atom slots are padded to
    a common width A; padded slots carry probability 0 and the per-line atom
    count clips the inverse-CDF choice, so they are never selected.
    """

    def __init__(self, lines, floor):
        S = len(lines)
        A = max(line.n_atoms for line in lines)
        self.floor = float(floor)
        self.safe_floor = max(float(floor), 1e-300)
        self.const = np.zeros((S, A))
        self.inv = np.zeros((S, A))
        self.pow = np.zeros((S, A))
        self.jump = np.zeros((S, A))
        self.next = np.zeros((S, A), dtype=np.int64)
        counts = np.array([line.n_atoms for line in lines])
        for li, line in enumerate(lines):
            a = line.n_atoms
            self.const[li, :a] = line.p_const
            self.inv[li, :a] = line.p_inv
            self.pow[li, :a] = line.p_pow
            self.jump[li, :a] = line.jumps
            self.next[li, :a] = line.next_idx
            self.next[li, a:] = line.next_idx[a - 1]
        self.trigger = np.array([-float(line.jumps.min()) for line in lines])
        self.has_inv = bool(self.inv.any())
        self.has_pow = bool(self.pow.any())
        if self.has_pow and len({float(line.delta) for line in lines}) != 1:
            raise ValueError("all lines must share one power-correction exponent")
        self.neg_exp = -1.0 - float(lines[0].delta)
        self.width = A
        self.uniform_two = A == 2 and bool((counts == 2).all())
        self.last = np.arange(S) * A + counts - 1  # flat index of each line's last atom
        self.varying = self.has_inv or self.has_pow
        # for the two-atom core of step_batch: each line's first-atom
        # coefficients, and flat views that a flat atom index reads
        self.const0 = self.const[:, 0].copy()
        self.inv0 = self.inv[:, 0].copy()
        self.jump_flat = self.jump.ravel()
        self.next_flat = self.next.ravel()
        # plain-python rows, one per line and unpadded, for single states
        self.const_list = [line.p_const.tolist() for line in lines]
        self.inv_list = [line.p_inv.tolist() for line in lines]
        self.pow_list = [line.p_pow.tolist() for line in lines]
        self.jump_list = [line.jumps.tolist() for line in lines]
        self.next_list = [line.next_idx.tolist() for line in lines]
        self.trigger_list = self.trigger.tolist()
        self.trigger_top = max(self.trigger_list)

    def probs(self, x: float, li: int) -> list:
        """Line ``li``'s atom probabilities at ``x``, in declared atom order."""
        out = []
        self.pick(x, li, math.inf, out)
        return out

    def pick(self, x: float, li: int, u: float, out: list | None = None) -> int:
        """The atom of line ``li`` that ``u`` picks at ``x`` by inverse CDF: the
        first whose cumulative probability exceeds ``u``, else the last. The
        probabilities computed on the way are appended to ``out`` when given;
        the scalar lane passes none, so no list is built per step."""
        consts = self.const_list[li]
        invs = pows = None
        if self.varying and x >= self.floor:
            xs = x if x > self.safe_floor else self.safe_floor
            if self.has_inv:
                invs = self.inv_list[li]
            if self.has_pow:
                pows = self.pow_list[li]
                xp = xs**self.neg_exp
        cum = 0.0
        for k, p in enumerate(consts):
            if invs is not None:
                p = p + invs[k] / xs
            if pows is not None:
                p = p + pows[k] * xp
            if out is not None:
                out.append(p)
            cum += p
            if u < cum:
                return k
        return k

    def choose(self, x, lab, u, xmin):
        """Vectorized inverse-CDF atom choice, one uniform per row. Returns the
        flat index ``lab * A + atom`` of each row's atom, which ``take`` reads
        from any of the ``(S, A)`` tables.

        ``xmin`` is the batch's least position, NaN rows ignored. The floor
        clamp and the below-floor law act only at bounded ``x``: each is an
        identity on every row when ``xmin`` sits at or above its bound, and is
        then skipped. When ``xmin`` is below the floor, some row is too, so the
        below-floor law is applied exactly when a row-wise test would apply it.
        """
        below = None
        if self.varying:
            xs = x if xmin >= self.safe_floor else np.maximum(x, self.safe_floor)
            if self.has_pow:
                xp = np.array([v**self.neg_exp for v in xs.tolist()])
            if xmin < self.floor:
                below = x < self.floor
        base = lab * self.width
        if self.uniform_two:
            # two atoms per line: only the first atom's probability is needed
            p0 = const0 = self.const.take(base)
            if self.varying:
                if self.has_inv:
                    p0 = p0 + self.inv.take(base) / xs
                if self.has_pow:
                    p0 = p0 + self.pow.take(base) * xp
            if below is not None:
                p0 = np.where(below, const0, p0)
            return base + (u >= p0)
        P = self.const.take(lab, axis=0)
        if self.varying:
            if self.has_inv:
                P = P + self.inv.take(lab, axis=0) / xs[:, None]
            if self.has_pow:
                P = P + self.pow.take(lab, axis=0) * xp[:, None]
        if below is not None:
            P[below] = self.const[lab[below]]
        np.cumsum(P, axis=1, out=P)
        choice = (u[:, None] >= P).sum(axis=1)
        return np.minimum(base + choice, self.last.take(lab))


@dataclass(frozen=True)
class ChainModel:
    """Immutable half-strip chain with closed-form finitely supported kernels.

    ``boundary`` is one of:

    - ``"clip"``: a jump that would land below 0 lands at 0 instead;
    - ``"reflect"``: it lands at |x + jump|;
    - ``"reset"``: at any position where some atom would land below 0, the
      whole step is replaced by the deterministic ``reset`` atom.

    ``overrides`` maps exact states (position, label index) to explicit
    atoms (jump, next label index, probability), bypassing both the closed
    form and the reset rule.
    """

    labels: tuple
    lines: tuple
    formula_floor: float
    boundary: str
    reset: tuple | None = None            # (jump, label_index) for "reset"
    overrides: dict = field(default_factory=dict)
    description: str = ""

    def __post_init__(self):
        if self.boundary not in ("clip", "reflect", "reset"):
            raise ModelSpecError(f"unknown boundary rule {self.boundary!r}")
        if self.boundary == "reset":
            if self.reset is None:
                raise ModelSpecError("boundary 'reset' requires a reset atom")
            if self.reset[0] < 0:
                raise ModelSpecError("reset jump must be non-negative")
        if len(self.lines) != len(self.labels):
            raise ModelSpecError("one line law per label is required")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "_tables", _StepTables(self.lines, self.formula_floor))
        override_top = max((pos for pos, _ in self.overrides), default=-math.inf)
        object.__setattr__(self, "_override_top", override_top)
        # the least position from which no bounded-x rule acts on a row: at or
        # past the floor, every landing at or above 0 (so clip, reflect and
        # reset are identities) and above every override state; lines of two
        # atoms without pow terms step from there in step_batch's core
        t = self._tables
        rules_top = max(t.safe_floor, t.trigger_top, math.nextafter(override_top, math.inf))
        object.__setattr__(self, "_rules_top", rules_top)
        object.__setattr__(self, "_core_from",
                           rules_top if t.uniform_two and not t.has_pow else None)
        # no step lowers a position by more than this: clip, reflect and the
        # reset jump (>= 0) land at or above x + jump, where a line's or an
        # override's jump is at least -descent (trigger_top is -min line jump)
        override_drops = (-jump for atoms in self.overrides.values() for jump, _, _ in atoms)
        object.__setattr__(self, "_descent", max(0.0, t.trigger_top, *override_drops))

    def label_index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None

    def distribution(self, x: float, label) -> IncrementDistribution:
        """Boundary-adjusted one-step law at (x, label). Raises on invalid states."""
        li = self.label_index(label)
        x = float(x)
        if not math.isfinite(x) or x < 0.0:
            raise ValueError(f"invalid position {x!r}")
        atoms = self.overrides.get((x, li))
        if atoms is None:
            t = self._tables
            if self.boundary == "reset" and x < t.trigger_list[li]:
                atoms = ((*self.reset, 1.0),)
            else:
                atoms = zip(t.jump_list[li], t.next_list[li], t.probs(x, li))
        # each atom's jump is the increment of the step that lands there
        return IncrementDistribution(tuple(
            Atom(self._land(x, j) - x, self.labels[n], p) for j, n, p in atoms
        ))

    def _land(self, x: float, jump: float) -> float:
        """The boundary rule for one landing, as :meth:`step_batch` applies it per
        row and :meth:`step_scalar` inline."""
        landing = x + jump
        if self.boundary == "clip":
            return landing if landing > 0.0 else 0.0
        if self.boundary == "reflect":
            return abs(landing)
        return landing

    def _override_step(self, x: float, li: int, u: float):
        """The step from an override state, for both lanes: the first atom
        whose cumulative probability exceeds ``u``, else the last."""
        cum = 0.0
        for jump, nxt, p in self.overrides[(x, li)]:
            cum += p
            if u < cum:
                break
        return self._land(x, jump), nxt

    def step_batch(self, x: np.ndarray, lab: np.ndarray, u: np.ndarray,
                   xmin: float | None = None):
        """One synchronous step for a batch of states, consuming one uniform each.

        Every step consumes exactly one uniform, including deterministic
        (single-atom or reset) steps; this keeps stream consumption a pure
        function of the trajectory and makes batching irrelevant to output.

        ``xmin`` is a lower bound of the batch's least position (NaN rows
        aside), such as a caller's own reduction of ``x``; without it the batch
        is reduced here. Any lower bound gives the same bytes: it only gates
        the rules that act at bounded ``x``, and a gate that opens applies its
        rule row by row. When it puts every row past those rules and every line
        has two atoms and no ``pow`` term, a short core steps the batch.
        """
        t = self._tables
        # the rules that act only at bounded x (floor, reset trigger, override
        # states) are skipped when the least position puts every row past them;
        # fmin ignores NaN rows, which no such rule changes either
        if xmin is None:
            xmin = np.fmin.reduce(x, initial=math.inf)
        core_from = self._core_from
        if core_from is not None and xmin >= core_from:
            # choose's two-atom branch and step_scalar's arithmetic, with every
            # bounded-x rule an identity: only the first atom's probability is
            # needed, and no landing needs a boundary rule
            p0 = t.const0[lab]
            if t.has_inv:
                p0 += t.inv0[lab] / x
            atom = lab + lab
            atom += u >= p0
            return t.jump_flat[atom] + x, t.next_flat[atom]
        atom = t.choose(x, lab, u, xmin)
        jump = t.jump.take(atom)
        nxt = t.next.take(atom)
        if self.boundary == "reset" and xmin < t.trigger_top:
            resetting = x < t.trigger.take(lab)
            if np.logical_or.reduce(resetting):
                jump = np.where(resetting, self.reset[0], jump)
                nxt = np.where(resetting, self.reset[1], nxt)
        landing = x + jump
        if self.boundary == "clip":
            np.maximum(landing, 0.0, out=landing)
        elif self.boundary == "reflect":
            np.abs(landing, out=landing)
        if xmin <= self._override_top:
            for pos, li in self.overrides:
                for row in np.flatnonzero((x == pos) & (lab == li)):
                    landing[row], nxt[row] = self._override_step(pos, li, float(u[row]))
        return landing, nxt

    def step_scalar(self, x: float, li: int, u: float):
        """Scalar twin of :meth:`step_batch` for one row: same tables, same
        arithmetic in the same order, so a trajectory stepped here is
        bit-identical to one stepped in a batch."""
        if self.overrides and (x, li) in self.overrides:
            return self._override_step(x, li, u)
        t = self._tables
        if self.boundary == "reset" and x < t.trigger_list[li]:
            return x + self.reset[0], self.reset[1]
        k = t.pick(x, li, u)
        # _land's boundary rule, inline: one call less per step
        landing = x + t.jump_list[li][k]
        if self.boundary == "clip":
            landing = landing if landing > 0.0 else 0.0
        elif self.boundary == "reflect":
            landing = abs(landing)
        return landing, t.next_list[li][k]


@dataclass(frozen=True)
class ShiftedChainModel:
    """View of a base model under the per-label translation x -> x + offset[label],
    with ``offsets`` a non-negative array by label position.

    The shifted chain at (y, i) behaves as the base chain at (y - offset_i, i)
    with every jump adjusted by offset_next - offset_current, so trajectories
    correspond one-to-one and all landing positions stay >= 0 when offsets do.
    Only its one-step laws are needed (exact drift checks), so it has no
    stepping lanes.
    """

    base: ChainModel
    offsets: np.ndarray
    description: str = ""

    def __post_init__(self):
        off = np.array(self.offsets, dtype=float)
        if off.shape != (len(self.base.labels),):
            raise ValueError("one offset per label is required")
        if off.min() < 0.0:
            raise ValueError("offsets must be non-negative")
        off.flags.writeable = False
        object.__setattr__(self, "offsets", off)
        if not self.description:
            object.__setattr__(
                self, "description", f"{self.base.description} [shifted by {off.tolist()}]"
            )

    @property
    def labels(self) -> tuple:
        return self.base.labels

    def label_index(self, label) -> int:
        return self.base.label_index(label)

    def distribution(self, x: float, label) -> IncrementDistribution:
        li = self.label_index(label)
        x0 = float(x) - self.offsets[li]
        if x0 < -1e-12:
            raise ValueError(f"position {x!r} is below this line's offset {self.offsets[li]!r}")
        base_dist = self.base.distribution(max(x0, 0.0), label)
        atoms = tuple(
            Atom(
                a.jump + self.offsets[self.label_index(a.next_label)] - self.offsets[li],
                a.next_label,
                a.prob,
            )
            for a in base_dist.atoms
        )
        return IncrementDistribution(atoms)


# --------------------------------------------------------------------------
# closed-form [0,1]-range checking for p(x) = c + b/x + g x^(-1-delta)
# --------------------------------------------------------------------------

def _prob_extremes(c, b, g, delta, x_from):
    """Candidate extreme values of p over [x_from, infinity)."""
    values = [c + b / x_from + g * x_from ** (-1.0 - delta), c]
    # interior critical point: p'(x) = 0 at x* = (-g(1+delta)/b)^(1/delta).
    # One beyond e^709 (about the largest float) is not computed: p there is c.
    if b != 0.0 and g != 0.0 and (g * b) < 0.0:
        base = -float(g) * (1.0 + delta) / float(b)
        if base > 0.0 and math.log(base) / delta < 709.0:
            x_star = base ** (1.0 / delta)
            if x_star > x_from:
                values.append(c + b / x_star + g * x_star ** (-1.0 - delta))
    return min(values), max(values)


def _range_ok(c, b, g, delta, x_from, lo, hi) -> bool:
    vmin, vmax = _prob_extremes(c, b, g, delta, x_from)
    return vmin >= lo and vmax <= hi


def _scan_floor(coeff_rows, delta, band=_FLOOR_BAND) -> int:
    """Smallest integer x such that every atom probability stays inside
    ``band`` on [x, infinity).

    The predicate is monotone in x (validity on [x, inf) implies validity on
    [x+1, inf)), so a search that gallops over 1, 2, 4, ... up to
    _FLOOR_SCAN_LIMIT and then bisects the last step is exact. Floors are
    mostly small, so galloping takes a few tests where bisecting the whole
    range would take about 25.
    """
    lo, hi = band

    def ok(x: int) -> bool:
        return all(_range_ok(c, b, g, delta, float(x), lo, hi) for c, b, g in coeff_rows)

    low, high = 0, 1  # positions start at 1, so ok(0) counts as False
    while not ok(high):
        if high == _FLOOR_SCAN_LIMIT:
            raise ModelSpecError(
                "no position floor keeps all kernel probabilities inside "
                f"[{lo}, {hi}]; the parameters are too extreme"
            )
        low, high = high, min(2 * high, _FLOOR_SCAN_LIMIT)
    # ok(low) is False, ok(high) is True
    while high - low > 1:
        mid = (low + high) // 2
        if ok(mid):
            high = mid
        else:
            low = mid
    return high


# --------------------------------------------------------------------------
# built-in family: correlated random walk on S = {+1, -1}
# --------------------------------------------------------------------------

def make_crw(
    q: float,
    c_plus: float = 0.0,
    c_minus: float = 0.0,
    delta: float = 1.0,
    correction_amplitude: float = 0.0,
    description: str | None = None,
) -> ChainModel:
    """Correlated random walk: jump always equals the next label.

    From (x, i) with x at or above the floor, the walk continues in direction
    j = i with probability q + i*c_i/(2x) + j*amp*x^(-1-delta) and reverses
    otherwise; below the floor the uncorrected (q, 1-q) kernel applies, and a
    step that would exit R+ is replaced by the deterministic (+1, +1) step.
    The floor is the smallest integer at which all four corrected
    probabilities stay inside [0.01, 0.99] from there on.
    """
    if not 0.0 < q < 1.0:
        raise ModelSpecError(f"q must lie in (0,1), got {q!r}")
    if delta <= 0.0:
        raise ModelSpecError(f"delta must be positive, got {delta!r}")
    amp = float(correction_amplitude)
    labels = (1, -1)
    coeff_rows = []
    lines = []
    for i, c_i in ((1, float(c_plus)), (-1, float(c_minus))):
        # atom order: (jump +1 -> label +1), (jump -1 -> label -1)
        const = np.array([q, 1.0 - q]) if i == 1 else np.array([1.0 - q, q])
        inv = np.array([c_i / 2.0, -c_i / 2.0])
        pw = np.array([amp, -amp])
        coeff_rows.extend((const[a], inv[a], pw[a]) for a in range(2))
        lines.append(
            LineLaw(
                jumps=np.array([1.0, -1.0]),
                next_idx=np.array([0, 1]),
                p_const=const,
                p_inv=inv,
                p_pow=pw,
                delta=float(delta),
            )
        )
    floor = _scan_floor(coeff_rows, float(delta))
    if description is None:
        description = (
            f"crw(q={q}, c_plus={c_plus}, c_minus={c_minus}, "
            f"delta={delta}, amp={amp})"
        )
    return ChainModel(
        labels=labels,
        lines=tuple(lines),
        formula_floor=float(floor),
        boundary="reset",
        reset=(1.0, 0),
        description=description,
    )


# --------------------------------------------------------------------------
# generic tabular models
# --------------------------------------------------------------------------

def parse_number(value, where: str) -> float:
    """A finite JSON number as a float.

    Raises ModelSpecError for anything else -- null, booleans, strings, lists,
    objects, NaN, infinities and integers too large for a float -- so no
    malformed number reaches a kernel or a verdict.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelSpecError(f"{where}: expected a number, got {value!r:.40}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ModelSpecError(f"{where}: expected a finite number, got {x!r}")
    return x


def parse_labels(value, where: str) -> tuple:
    """A non-empty list of distinct integer or string labels, as a tuple."""
    if not isinstance(value, (list, tuple)) or not value or any(
        isinstance(k, bool) or not isinstance(k, (int, str)) for k in value
    ):
        raise ModelSpecError(f"{where}: labels must be a non-empty list of integers or strings")
    if len(set(value)) != len(value):
        raise ModelSpecError(f"{where}: labels must not repeat")
    return tuple(value)


def _check_keys(obj: dict, required: set, optional: set, where: str):
    if not isinstance(obj, dict):
        raise ModelSpecError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise ModelSpecError(f"{where}: unknown keys {sorted(unknown)!r}")
    missing = required - keys
    if missing:
        raise ModelSpecError(f"{where}: missing keys {sorted(missing)!r}")


def _parse_prob(p, where: str):
    if not isinstance(p, dict):
        return parse_number(p, where), 0.0, 0.0
    _check_keys(p, {"const"}, {"inv_x", "pow"}, where)
    return tuple(parse_number(p.get(key, 0.0), f"{where} {key}") for key in ("const", "inv_x", "pow"))


def _check_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ModelSpecError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def make_tabular(spec: dict) -> ChainModel:
    """Build a validated model from a tabular description.

    Expected shape (JSON-compatible; unknown keys rejected)::

        {"type": "tabular",            # optional when called directly
         "labels": [...],
         "lines": {"<label>": [{"jump": j, "next": l, "prob": p}, ...], ...},
         "boundary": "clip" | "reflect"
                   | {"rule": "reset", "jump": j, "label": l},   # default clip
         "floor": number,              # optional; computed when omitted
         "delta": number,              # exponent for "pow" terms, default 1.0
         "states": [{"x": x, "label": l,
                     "atoms": [{"jump": j, "next": l, "prob": p}, ...]}, ...],
         "description": "..."}

    Atom probabilities are numbers or {"const", "inv_x", "pow"} objects; per
    line the raw sums must be within 1e-9 of (1, 0, 0) and are renormalized.
    """
    _check_keys(
        spec,
        {"labels", "lines"},
        {"type", "boundary", "floor", "delta", "states", "description"},
        "tabular spec",
    )
    if spec.get("type", "tabular") != "tabular":
        raise ModelSpecError(f"not a tabular spec: type={spec.get('type')!r}")
    labels = parse_labels(spec["labels"], "tabular spec")
    delta = parse_number(spec.get("delta", 1.0), "delta")
    if delta <= 0.0:
        raise ModelSpecError("delta must be positive")

    lines_spec = spec["lines"]
    if not isinstance(lines_spec, dict) or set(lines_spec) != {str(k) for k in labels}:
        raise ModelSpecError(
            f"lines must be keyed by exactly the labels {sorted(str(k) for k in labels)!r}"
        )

    reachable = set()
    lines = []
    nontrivial = False
    for li, label in enumerate(labels):
        atoms = _check_list(lines_spec[str(label)], f"line {label!r}")
        if not atoms:
            raise ModelSpecError(f"line {label!r} has no atoms")
        jumps, next_idx, consts, invs, pows = [], [], [], [], []
        for k, atom in enumerate(atoms):
            where = f"line {label!r} atom {k}"
            _check_keys(atom, {"jump", "next", "prob"}, set(), where)
            if atom["next"] not in labels:
                raise ModelSpecError(f"{where}: next label {atom['next']!r} not in labels")
            c, b, g = _parse_prob(atom["prob"], where)
            jumps.append(parse_number(atom["jump"], f"{where} jump"))
            next_idx.append(labels.index(atom["next"]))
            consts.append(c)
            invs.append(b)
            pows.append(g)
            reachable.add(atom["next"])
        s_const, s_inv, s_pow = sum(consts), sum(invs), sum(pows)
        if abs(s_const - 1.0) >= RENORM_TOL or abs(s_inv) >= RENORM_TOL or abs(s_pow) >= RENORM_TOL:
            raise ModelSpecError(
                f"line {label!r}: probabilities sum to {s_const!r} + {s_inv!r}/x "
                f"+ {s_pow!r}*x^(-1-delta); must be 1 within {RENORM_TOL}"
            )
        consts = np.array(consts) / s_const
        invs = np.array(invs) / s_const
        pows = np.array(pows) / s_const
        if consts.min() < 0.0 or consts.max() > 1.0:
            raise ModelSpecError(
                f"line {label!r}: constant parts must be probabilities "
                "(they are the kernel below the floor)"
            )
        if invs.any() or pows.any():
            nontrivial = True
        lines.append(
            LineLaw(
                jumps=np.array(jumps),
                next_idx=np.array(next_idx),
                p_const=consts,
                p_inv=invs,
                p_pow=pows,
                delta=delta,
            )
        )

    unreachable = set(labels) - reachable
    if unreachable:
        raise ModelSpecError(f"labels {sorted(map(str, unreachable))!r} are unreachable")

    boundary_spec = spec.get("boundary", "clip")
    reset = None
    if isinstance(boundary_spec, dict):
        _check_keys(boundary_spec, {"rule", "jump", "label"}, set(), "boundary")
        if boundary_spec["rule"] != "reset":
            raise ModelSpecError(f"unknown boundary rule {boundary_spec['rule']!r}")
        if boundary_spec["label"] not in labels:
            raise ModelSpecError("reset label must be one of the model labels")
        boundary = "reset"
        reset = (parse_number(boundary_spec["jump"], "boundary jump"),
                 labels.index(boundary_spec["label"]))
    elif boundary_spec in ("clip", "reflect"):
        boundary = boundary_spec
    else:
        raise ModelSpecError(f"unknown boundary rule {boundary_spec!r}")

    if "floor" in spec:
        floor = parse_number(spec["floor"], "floor")
        if floor < 0.0:
            raise ModelSpecError("floor must be non-negative")
        for line in lines:
            for a in range(line.n_atoms):
                if not _range_ok(
                    line.p_const[a], line.p_inv[a], line.p_pow[a], delta,
                    max(floor, 1e-12), 0.0, 1.0,
                ):
                    raise ModelSpecError(
                        f"an atom probability leaves [0,1] somewhere above the floor {floor!r}"
                    )
    elif not nontrivial:
        floor = 0.0
    else:
        rows = [
            (line.p_const[a], line.p_inv[a], line.p_pow[a])
            for line in lines
            for a in range(line.n_atoms)
        ]
        floor = float(_scan_floor(rows, delta))

    overrides = {}
    for k, entry in enumerate(_check_list(spec.get("states", []), "states")):
        where = f"states[{k}]"
        _check_keys(entry, {"x", "label", "atoms"}, set(), where)
        if entry["label"] not in labels:
            raise ModelSpecError(f"{where}: unknown label {entry['label']!r}")
        pos = parse_number(entry["x"], f"{where} x")
        if pos < 0.0:
            raise ModelSpecError(f"{where}: negative position")
        raw = []
        for j, atom in enumerate(_check_list(entry["atoms"], f"{where} atoms")):
            aw = f"{where} atom {j}"
            _check_keys(atom, {"jump", "next", "prob"}, set(), aw)
            if atom["next"] not in labels:
                raise ModelSpecError(f"{aw}: unknown next label")
            jump = parse_number(atom["jump"], f"{aw} jump")
            prob = parse_number(atom["prob"], f"{aw} prob")
            if pos + jump < 0.0:
                raise ModelSpecError(f"{aw}: lands below 0")
            raw.append((jump, atom["next"], prob))
        total = sum(p for _, _, p in raw)
        if abs(total - 1.0) >= RENORM_TOL:
            raise ModelSpecError(f"{where}: probabilities sum to {total!r}")
        overrides[(pos, labels.index(entry["label"]))] = tuple(
            (j, labels.index(n), p / total) for j, n, p in raw
        )

    return ChainModel(
        labels=labels,
        lines=tuple(lines),
        formula_floor=floor,
        boundary=boundary,
        reset=reset,
        overrides=overrides,
        description=str(spec.get("description", "tabular model")),
    )


def model_from_spec(spec: dict):
    """Dispatch a parsed JSON model spec to the right factory."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ModelSpecError("model spec must be an object with a 'type' key")
    kind = spec["type"]
    if kind == "crw":
        _check_keys(
            spec, {"type", "q"},
            {"c_plus", "c_minus", "delta", "amp", "description"},
            "crw spec",
        )
        return make_crw(
            q=parse_number(spec["q"], "crw spec q"),
            c_plus=parse_number(spec.get("c_plus", 0.0), "crw spec c_plus"),
            c_minus=parse_number(spec.get("c_minus", 0.0), "crw spec c_minus"),
            delta=parse_number(spec.get("delta", 1.0), "crw spec delta"),
            correction_amplitude=parse_number(spec.get("amp", 0.0), "crw spec amp"),
            description=spec.get("description"),
        )
    if kind == "tabular":
        return make_tabular(spec)
    raise ModelSpecError(f"unknown model type {kind!r}")


# --------------------------------------------------------------------------
# model validation report
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    grid: tuple
    stochastic_ok: bool
    max_prob_sum_defect: float
    landings_ok: bool
    min_landing: float
    q_limit: np.ndarray | None   # (S, S), by label position
    irreducible: bool
    p: float
    cp_witness: float
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.stochastic_ok and self.landings_ok and self.irreducible


def validate_model(model, grid: Sequence[float] | None = None, p: float = 4.0) -> ValidationReport:
    """Check stochasticity and landings on a sample grid, estimate the limiting
    label-transition matrix and its irreducibility, and report an empirical
    moment-bound witness max over grid states of E[|jump|^p].

    Never raises for bad kernels; problems land in the pass/fail flags.
    """
    grid = tuple(float(x) for x in (grid if grid is not None else DEFAULT_VALIDATION_GRID))
    failures = []
    max_defect = 0.0
    min_landing = math.inf
    cp_witness = 0.0
    n = len(model.labels)
    q_at = {}
    for x in grid:
        q_at[x] = np.zeros((n, n))
        for li, label in enumerate(model.labels):
            try:
                dist = model.distribution(x, label)
            except (ValueError, KeyError) as exc:
                failures.append(f"state ({x}, {label!r}): {exc}")
                max_defect = math.inf
                continue
            probs = np.array([a.prob for a in dist.atoms])
            defect = abs(float(probs.sum()) - 1.0)
            max_defect = max(max_defect, defect)
            if defect > PROB_SUM_TOL:
                failures.append(
                    f"state ({x}, {label!r}): probabilities sum defect {defect:.3e}"
                )
            landings = np.array([x + a.jump for a in dist.atoms])
            min_landing = min(min_landing, float(landings.min()))
            if landings.min() < 0.0:
                failures.append(f"state ({x}, {label!r}): landing below 0")
            with np.errstate(over="ignore"):
                witness = float(sum(a.prob * np.abs(a.jump) ** p for a in dist.atoms))
            if not math.isfinite(witness):
                failures.append(f"state ({x}, {label!r}): E[|jump|^{p:g}] is not finite")
            cp_witness = max(cp_witness, witness)
            for a in dist.atoms:
                q_at[x][li, model.label_index(a.next_label)] += a.prob

    stochastic_ok = max_defect <= PROB_SUM_TOL
    landings_ok = math.isfinite(min_landing) and min_landing >= 0.0

    q_limit = None
    irreducible = False
    if len(grid) >= 2 and stochastic_ok:
        x1, x2 = sorted(grid)[-2:]
        # two-point extrapolation of q(x) = q_inf + gamma/x; exact when affine
        raw = (x2 * q_at[x2] - x1 * q_at[x1]) / (x2 - x1)
        raw = np.clip(raw, 0.0, 1.0)
        sums = raw.sum(axis=1)
        if sums.min() > 0.5:
            try:
                q_limit = stochastic_matrix(raw / sums[:, None], n)
                irreducible = is_irreducible(q_limit, support_tol=1e-9)
            except ValueError as exc:
                failures.append(f"limiting matrix: {exc}")
        else:
            failures.append("limiting matrix row degenerates to 0")
    if q_limit is not None and not irreducible:
        failures.append("limiting label-transition matrix is reducible")

    return ValidationReport(
        grid=grid,
        stochastic_ok=stochastic_ok,
        max_prob_sum_defect=float(max_defect),
        landings_ok=landings_ok,
        min_landing=float(min_landing) if math.isfinite(min_landing) else math.nan,
        q_limit=q_limit,
        irreducible=irreducible,
        p=float(p),
        cp_witness=float(cp_witness),
        failures=tuple(failures),
    )
