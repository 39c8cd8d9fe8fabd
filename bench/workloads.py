"""The benchmark's workloads: inputs made from the seed, the fixed unit of
``halfstrip.cli.main`` calls that a run repeats, and the checks of its
outputs against ``oracle``.

Every call runs with ``--threads 1`` (see README.md for why). The seed picks
the program's ``--seed`` and jitters the analysis grid; it never changes how
many calls a unit makes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracle import CrwSurvival, binomial_z, crw_closed_form

# |z| above this at any survival point means the engine is wrong, not unlucky:
# a run makes at most 7 such comparisons, so a hundred runs make under a thousand,
# and at a two-sided p of 5.7e-7 each a false alarm has odds under 1e-3.
Z_LIMIT = 5.0
# analyze-grid: worst |reported - closed form| on the grid is ~1e-13
CLOSED_FORM_TOL = 1e-9
GRID_JITTER = 0.002

# Remainder cells ``(q, c, delta, amp)``. The closed forms above do not depend
# on the remainder term, but ``drift.fit_asymptotics`` fits ``[1, 1/x]`` and
# soaks ``amp x^(-1-delta)`` into ``e``, so every one of these reports a wrong
# ``U`` (and the first a wrong verdict). They are fixed, not seeded, and count
# as failed operations until the program reads coefficients exactly.
REMAINDER_CELLS = (
    (0.6, 0.55, 0.5, 0.3), (0.6, 0.55, 0.5, -0.3), (0.6, -0.55, 0.5, 0.3),
    (0.6, 0.0, 0.5, 0.3), (0.4, 0.2, 0.5, 0.2), (0.4, -0.8, 0.5, 0.2),
    (0.5, 0.3, 0.8, 0.25), (0.5, 1.0, 0.8, -0.25), (0.7, 0.5, 1.0, 0.3),
    (0.7, -1.2, 1.0, 0.3), (0.3, 0.1, 0.3, 0.1), (0.8, 0.9, 0.5, 0.4),
)


@dataclass
class Outcome:
    """What the checks found in one unit's outputs."""

    failed: int        # calls whose output is wrong for a known, named fault
    problems: list     # anything else wrong: the run is not correct
    ops: float         # operations behind ops_per_s


@dataclass
class Workload:
    name: str
    specs: dict                 # spec file name -> spec object
    argvs: list                 # one argv per cli.main call
    outputs: list               # files the unit writes, compared byte for byte
    check: Callable             # (workdir, stdout) -> Outcome
    ops_are_steps: bool = False  # ops is the CSV's steps total, which the trace must match


def _program_seed(name: str, seed: int) -> int:
    return random.Random(f"{name}:{seed}").randrange(2**31)


def _crw(q, c, delta=1.0, amp=0.0) -> dict:
    return {"type": "crw", "q": q, "c_plus": c, "c_minus": c, "delta": delta, "amp": amp}


def _off(got: float, want: float) -> bool:
    return not abs(got - want) <= CLOSED_FORM_TOL * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# analyze-grid
# ---------------------------------------------------------------------------

def _grid_cells(seed: int) -> list:
    """The 21 x 21 CRW phase diagram less the four |c| = q cells, each point
    jittered by at most GRID_JITTER: the nearest cell to the |U| = V boundary
    stays 0.006 away, far outside the 1e-4 decision band."""
    rng = random.Random(f"analyze-grid:{seed}")
    cells = []
    for a in range(21):
        for b in range(21):
            q, c = 0.1 + 0.04 * a, -1.5 + 0.15 * b
            if abs(abs(c) - q) < 1e-9:
                continue
            cells.append((round(q + rng.uniform(-GRID_JITTER, GRID_JITTER), 6),
                          round(c + rng.uniform(-GRID_JITTER, GRID_JITTER), 6)))
    return cells


def check_analysis(report: dict, spec: dict) -> list:
    """Differences between one ``analyze`` report and the closed forms."""
    want = crw_closed_form(spec["q"], spec["c_plus"], spec["c_minus"])
    cls = report["classification"]
    got = {"verdict": cls["verdict"], "U": cls["U"], "V": cls["V"],
           "theta_star": (report.get("moments") or {}).get("theta_star")}
    bad = []
    if got["verdict"] != want["verdict"]:
        bad.append(f"verdict {got['verdict']} != {want['verdict']}")
    for key in ("U", "V", "theta_star"):
        if not isinstance(got[key], (int, float)) or _off(got[key], want[key]):
            bad.append(f"{key} {got[key]!r} != {want[key]!r}")
    return bad


def analyze_grid(seed: int) -> Workload:
    specs = {}
    for k, (q, c) in enumerate(_grid_cells(seed)):
        specs[f"grid{k:03d}.json"] = _crw(q, c)
    n_grid = len(specs)
    for k, (q, c, delta, amp) in enumerate(REMAINDER_CELLS):
        specs[f"rem{k:02d}.json"] = _crw(q, c, delta, amp)
    outputs = [name.replace(".json", ".out.json") for name in specs]
    argvs = [["analyze", "--model", s, "--out", o] for s, o in zip(specs, outputs)]

    def check(workdir: Path, stdout: str) -> Outcome:
        failed, problems = 0, []
        for k, (spec_name, out) in enumerate(zip(specs, outputs)):
            bad = check_analysis(json.loads((workdir / out).read_text()), specs[spec_name])
            if bad and k >= n_grid:
                failed += 1
            elif bad:
                problems.append(f"{spec_name}: {'; '.join(bad)}")
        return Outcome(failed, problems, float(len(argvs)))

    return Workload("analyze-grid", specs, argvs, outputs, check)


# ---------------------------------------------------------------------------
# simulate-return and simulate-dense
# ---------------------------------------------------------------------------

def check_passage_csv(text: str, n: int, start: int, level: int, cap: int,
                      survival: CrwSurvival, times: tuple) -> tuple:
    """Check a ``tau,censored,steps`` CSV row by row and its survival curve
    against the oracle. Returns ``(problems, total steps, censored count)``."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["tau", "censored", "steps"] or len(rows) != n + 1:
        return [f"bad CSV shape: header {rows[0]}, {len(rows) - 1} rows"], 0, 0
    problems, taus, total, censored = [], [], 0, 0
    dist = start - level
    for k, (tau_txt, cens_txt, steps_txt) in enumerate(rows[1:]):
        steps = int(steps_txt)
        total += steps
        if cens_txt == "1":
            censored += 1
            taus.append(math.inf)
            ok = tau_txt == "" and steps == cap
        else:
            tau = int(tau_txt)
            taus.append(tau)
            # every jump is +-1, so tau has the parity of the distance to go
            ok = (cens_txt == "0" and steps == tau and dist <= tau <= cap
                  and (tau - dist) % 2 == 0)
        if not ok and len(problems) < 5:
            problems.append(f"row {k}: {tau_txt},{cens_txt},{steps_txt}")
    for t in times:
        p_lo, width = survival.survival(t)
        frac = sum(tau > t for tau in taus) / n
        z = binomial_z(frac, n, p_lo, p_lo + width)
        if abs(z) > Z_LIMIT:
            problems.append(f"P(tau > {t}) = {frac:.5f} vs exact {p_lo:.5f} (z={z:.1f})")
    return problems, total, censored


def _simulate(name: str, seed: int, q: float, c: float, start: int, level: int,
              cap: int, n: int, times: tuple) -> Workload:
    argv = ["simulate", "--model", "model.json", "--start", f"{start},1",
            "--level", str(level), "--cap", str(cap), "--n", str(n),
            "--seed", str(_program_seed(name, seed)), "--threads", "1",
            "--out", "tau.csv", "--summary", "summary.json"]

    def check(workdir: Path, stdout: str) -> Outcome:
        survival = CrwSurvival(q, c, c, start, 1, level, max(times))
        problems, total, censored = check_passage_csv(
            (workdir / "tau.csv").read_text(), n, start, level, cap, survival, times)
        summary = json.loads((workdir / "summary.json").read_text())
        if summary["censored_fraction"] != censored / n or summary["n"] != n:
            problems.append(f"summary disagrees with the CSV: {summary}")
        return Outcome(0, problems, float(total))

    return Workload(name, {"model.json": _crw(q, c)}, [argv],
                    ["tau.csv", "summary.json"], check, ops_are_steps=True)


def simulate_return(seed: int) -> Workload:
    """Positive-recurrent CRW: most trajectories return within a few dozen
    steps and a few long survivors finish in the scalar lane."""
    return _simulate("simulate-return", seed, q=0.6, c=-1.0, start=12, level=10,
                     cap=10_000, n=20_000, times=(2, 8, 32, 128, 512, 2048, 10_000))


def simulate_dense(seed: int) -> Workload:
    """Transient CRW: nearly every row survives to the cap, so the batch lane
    runs at full width."""
    return _simulate("simulate-dense", seed, q=0.6, c=1.5, start=50, level=10,
                     cap=5000, n=4096, times=(40, 100, 300, 1000, 5000))


# ---------------------------------------------------------------------------
# verify-null
# ---------------------------------------------------------------------------

VERIFY_CHECKS = ("model-validity", "verdict-vs-simulation", "tail-exponent",
                 "lyapunov-ratio-nu-1", "lyapunov-ratio-nu-2")


def verify_null(seed: int) -> Workload:
    """Null-recurrent CRW (U = 0.5, V = 1.5, theta* = 1/3) through the whole
    ``verify --lyapunov`` pipeline."""
    q, c, start, level, cap, n = 0.6, 0.2, 50, 10, 20_000, 1000
    argv = ["verify", "--lyapunov", "--model", "model.json", "--start", f"{start},1",
            "--level", str(level), "--cap", str(cap), "--n", str(n),
            "--seed", str(_program_seed("verify-null", seed)), "--threads", "1",
            "--report", "report.json", "--out", "ratios.csv"]

    def check(workdir: Path, stdout: str) -> Outcome:
        report = json.loads((workdir / "report.json").read_text())
        problems = []
        want = crw_closed_form(q, c, c)
        verdict = report["verdict"]
        if verdict["verdict"] != "NullRecurrent" or _off(verdict["U"], want["U"]) \
                or _off(verdict["V"], want["V"]):
            problems.append(f"verdict {verdict}")
        if report["diagnostic_call"] != "returning-with-diverging-mean":
            problems.append(f"diagnostic call {report['diagnostic_call']}")
        names = tuple(ch["name"] for ch in report["checks"])
        if names != VERIFY_CHECKS or not all(ch["passed"] for ch in report["checks"]):
            problems.append(f"checks {report['checks']}")
        if sum(line.startswith("PASS ") for line in stdout.splitlines()) != len(VERIFY_CHECKS):
            problems.append("stdout does not show every check passing")
        found = re.search(r"censored=([0-9.]+)", stdout)
        if found is None:
            problems.append("no censored fraction in the output")
        else:
            p_lo, width = CrwSurvival(q, c, c, start, 1, level, cap).survival(cap)
            # the fraction is printed to 4 decimals
            z = binomial_z(float(found.group(1)), n, p_lo - 5e-5, p_lo + width + 5e-5)
            if abs(z) > Z_LIMIT:
                problems.append(f"censored {found.group(1)} vs exact P(tau > cap) "
                                f"{p_lo:.5f} (z={z:.1f})")
        return Outcome(0, problems, float(len(report["checks"])))

    return Workload("verify-null", {"model.json": _crw(q, c)}, [argv],
                    ["report.json", "ratios.csv"], check)


WORKLOADS = {
    "analyze-grid": analyze_grid,
    "simulate-return": simulate_return,
    "simulate-dense": simulate_dense,
    "verify-null": verify_null,
}
