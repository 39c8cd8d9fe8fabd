"""Command-line entry point: analyze | fit | simulate | verify.

Verdicts and check outcomes are data: every subcommand exits 0 when it ran to
completion, whatever the verdict, and non-zero only on malformed input or
internal errors. All outputs are pure functions of (inputs, seed, version);
reports carry no timestamps.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__
from .classify import (
    ANALYTIC_TOL,
    FITTED_TOL,
    DegenerateVarianceError,
    centering_tolerance,
    classify_constant,
    classify_generalized,
    moment_threshold,
)
from .drift import (
    DEFAULT_GRID,
    AsymptoticCoefficients,
    RegimeTag,
    check_regime,
    fit_asymptotics,
)
from .lyapunov import lyapunov_spec, verify_drift_estimate
from .markov import NonCenteredError
from .model import ModelSpecError, ShiftedChainModel, State, model_from_spec, validate_model
from .sim import (
    recurrence_diagnostic,
    sample_passage_times,
    tail_exponent,
    write_samples_csv,
)

TAIL_BAND = 0.15
COEFF_MATCH_TOL = 1e-3


def _load_json(path: str) -> tuple:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}")


@contextlib.contextmanager
def _output(path: str, newline: str | None = None):
    """The one way the CLI opens a file for writing: a UTF-8 text stream over
    ``path``, written in place from offset 0 and cut to length on close.

    ``open(path, "w")`` truncates an existing file to zero before the rewrite,
    which on ext4 mounted with ``auto_da_alloc`` likely forces the file's
    writeback when it is closed (the effect is measured, not the mechanism):
    rewriting the 449 ``analyze`` reports of one benchmark ``analyze-grid``
    unit took 560 ms that way, against 408 ms written in place and about
    370-400 ms writing no file (medians of 30 in-process rounds, 2-vCPU VM).
    So the file is opened without ``O_TRUNC``, with ``open``'s mode and
    umask, and once the new bytes are written it is cut at their end; only
    regular files are cut, since ``/dev/null``, FIFOs and ttys refuse
    ``ftruncate``. Neither way is atomic: a run killed between the write and
    the cut can leave the old file's tail after a shorter new output, where
    one killed under ``O_TRUNC`` leaves a truncated prefix. A completed run's
    bytes are the same either way.

    An ``OSError`` becomes ``ValueError("cannot write PATH: REASON")``.
    """
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                  encoding="utf-8", newline=newline) as fh:
            yield fh
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with _output(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _nan_to_none(x):
    if x is None:
        return None
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _classification_dict(cls) -> dict:
    return {
        "verdict": cls.verdict.value,
        "U": cls.U,
        "V": cls.V,
        "margin": cls.margin,
        "regime": cls.regime.value,
        "notes": cls.notes,
    }


def _moments_dict(rep) -> dict:
    return {
        "theta_star": rep.theta_star,
        "p_cap": _nan_to_none(rep.p_cap),
        "finite_range": [0.0, rep.finite_sup],
        "finite_closed_at_sup": rep.finite_closed_at_sup,
        "infinite_from": rep.infinite_from,
        "gap_note": rep.gap_note,
    }


def _parse_start(text: str, model) -> State:
    try:
        pos_txt, label_txt = text.split(",", 1)
        pos = float(pos_txt)
    except ValueError:
        raise ValueError(f"--start must look like 'X,LABEL', got {text!r}")
    if not (math.isfinite(pos) and pos >= 0.0):
        raise ValueError(f"--start position must be finite and >= 0, got {pos!r}")
    for label in model.labels:
        if str(label) == label_txt:
            return State(pos, label)
    try:
        as_int = int(label_txt)
    except ValueError:
        as_int = None
    if as_int is not None and as_int in model.labels:
        return State(pos, as_int)
    raise ValueError(f"label {label_txt!r} is not one of {list(model.labels)!r}")


def _route(coeffs, tol, refined, p_cap=math.inf):
    """coefficients -> regime -> verdict -> moments, for ``analyze`` and ``verify``.

    Returns (regime, classification, moments); moments is None in the
    constant-drift regime.
    """
    regime = check_regime(coeffs, tol=tol)
    if regime is RegimeTag.CONSTANT_DRIFT:
        return regime, classify_constant(coeffs, tol=tol), None
    cls = classify_generalized(coeffs, refined=refined, tol=tol)
    return regime, cls, moment_threshold(cls.U, cls.V, p_cap)


def _analysis_payload(spec, digest, path, tol, refined, p_cap):
    """spec -> coefficients -> ``_route`` -> JSON report."""
    if isinstance(spec, dict) and spec.get("type") == "coefficients":
        coeffs = AsymptoticCoefficients.from_dict(spec)
        kind = "coefficients"
        default_tol = ANALYTIC_TOL
        description = "user-supplied coefficients"
    else:
        model = model_from_spec(spec)
        coeffs = fit_asymptotics(model)
        kind = "model"
        default_tol = FITTED_TOL
        description = model.description
    tol = default_tol if tol is None else tol
    refined = refined or coeffs.refined_rates_hold
    regime, classification, moments = _route(coeffs, tol, refined, p_cap)
    transform = None
    if classification.transform is not None:
        _, a, residual = classification.transform
        transform = {"a": {str(k): v for k, v in zip(coeffs.labels, a.tolist())},
                     "residual": residual}

    return {
        "tool": {"name": "halfstrip", "version": __version__},
        "input": {"path": path, "sha256": digest, "kind": kind, "description": description},
        "settings": {
            "tol": tol,
            "centering_tol": centering_tolerance(tol),
            "refined_rates_hold": refined,
            "p_cap": _nan_to_none(p_cap),
            "fit_grid": list(DEFAULT_GRID) if kind == "model" else None,
        },
        "coefficients": coeffs.to_dict(),
        "regime": regime.value,
        "transform": transform,
        "classification": _classification_dict(classification),
        "moments": None if moments is None else _moments_dict(moments),
    }


def cmd_analyze(args) -> int:
    spec, digest = _load_json(args.model)
    payload = _analysis_payload(spec, digest, args.model, args.tol, args.refined, args.p_cap)
    _emit(payload, args.out)
    return 0


def cmd_fit(args) -> int:
    spec, digest = _load_json(args.model)
    model = model_from_spec(spec)
    grid = DEFAULT_GRID
    if args.grid:
        grid = tuple(float(x) for x in args.grid.split(","))
    coeffs = fit_asymptotics(model, grid=grid, refined_rates_hold=args.refined)
    payload = coeffs.to_dict()
    payload["input"] = {"path": args.model, "sha256": digest, "description": model.description}
    payload["fit_grid"] = list(grid)
    _emit(payload, args.out)
    return 0


def cmd_simulate(args) -> int:
    spec, _ = _load_json(args.model)
    model = model_from_spec(spec)
    start = _parse_start(args.start, model)
    times = sample_passage_times(
        model,
        start,
        level=args.level,
        cap=args.cap,
        n=args.n,
        master_seed=args.seed,
        workers=args.threads,
    )
    if args.out:
        with _output(args.out, newline="") as fh:
            write_samples_csv(times, fh)
    else:
        write_samples_csv(times, sys.stdout)
    summary = {
        "tool": {"name": "halfstrip", "version": __version__},
        "n": args.n,
        "cap": args.cap,
        "level": args.level,
        "start": [start.position, str(start.label)],
        "seed": args.seed,
        "censored_fraction": int(times.censored.sum()) / len(times) if len(times) else None,
    }
    if args.summary:
        _emit(summary, args.summary)
    elif args.out:
        _emit(summary, None)
    return 0


def _check(name: str, passed: bool, detail: str) -> dict:
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    return {"name": name, "passed": bool(passed), "detail": detail}


def cmd_verify(args) -> int:
    for flag, value in (("--n", args.n), ("--cap", args.cap)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    spec, digest = _load_json(args.model)
    model = model_from_spec(spec)
    start = _parse_start(args.start, model) if args.start else State(50.0, model.labels[0])
    asserted = None
    if args.coefficients:
        asserted = AsymptoticCoefficients.from_dict(_load_json(args.coefficients)[0])
        if set(asserted.labels) != set(model.labels):
            raise ValueError(f"asserted labels {list(asserted.labels)!r} are not the model's")
    checks = []

    report = validate_model(model)
    checks.append(
        _check(
            "model-validity",
            report.ok,
            f"stochastic={report.stochastic_ok} landings={report.landings_ok} "
            f"irreducible={report.irreducible} (max prob-sum defect "
            f"{report.max_prob_sum_defect:.2e})",
        )
    )

    coeffs = fit_asymptotics(model)
    if asserted is not None:
        p = [asserted.labels.index(k) for k in coeffs.labels]  # the model's order
        pp = np.ix_(p, p)
        worst = max(float(np.max(np.abs(mine - fitted))) for mine, fitted in (
            (asserted.d[p], coeffs.d), (asserted.e[p], coeffs.e), (asserted.t2[p], coeffs.t2),
            (asserted.d_cross[pp], coeffs.d_cross), (asserted.gamma[pp], coeffs.gamma),
            (asserted.Q_limit[pp], coeffs.Q_limit)))
        checks.append(
            _check(
                "asserted-coefficients",
                worst <= COEFF_MATCH_TOL,
                f"max |asserted - fitted| = {worst:.3e} (tolerance {COEFF_MATCH_TOL})",
            )
        )

    tol = FITTED_TOL if args.tol is None else args.tol
    regime, classification, moments = _route(coeffs, tol, args.refined)
    theta = None if moments is None else moments.theta_star
    print(
        f"INFO analytic verdict: {classification.verdict.value} "
        f"(U={classification.U:.6g}, V={classification.V:.6g}, regime={regime.value})"
    )

    diag = recurrence_diagnostic(
        model,
        start,
        level=args.level,
        cap=args.cap,
        n_passage=args.n,
        master_seed=args.seed,
        workers=args.threads,
    )
    expected_call = {
        "Transient": "escaping",
        "PositiveRecurrent": "returning-with-stable-mean",
        "NullRecurrent": "returning-with-diverging-mean",
        "BoundaryNullRecurrent": "returning-with-diverging-mean",
    }.get(classification.verdict.value)
    if expected_call is None:
        checks.append(
            _check(
                "verdict-vs-simulation",
                True,
                f"verdict {classification.verdict.value}; no empirical expectation applies "
                f"(diagnostic said {diag.empirical_call})",
            )
        )
    else:
        checks.append(
            _check(
                "verdict-vs-simulation",
                diag.empirical_call == expected_call,
                f"analytic {classification.verdict.value} expects '{expected_call}', "
                f"diagnostic said '{diag.empirical_call}' "
                f"(censored={diag.censored_fraction:.4f}, "
                f"mean-return ratio={diag.mean_return_ratio:.3f})",
            )
        )

    if theta is not None and 0 < theta < 1 and diag.censored_fraction < 0.5:
        try:
            est = tail_exponent(diag.samples, min_uncensored=min(1000, args.n // 2))
            checks.append(
                _check(
                    "tail-exponent",
                    abs(est.exponent - theta) <= TAIL_BAND,
                    f"estimate {est.exponent:.3f} +/- {est.stderr:.3f} vs "
                    f"threshold {theta:.3f} (band {TAIL_BAND})",
                )
            )
        except Exception as exc:  # estimation can run out of samples; report it
            checks.append(_check("tail-exponent", False, f"estimation failed: {exc}"))

    lyap_rows = []
    if args.lyapunov and regime is not RegimeTag.CONSTANT_DRIFT:
        lc, a, _ = classification.transform
        target = ShiftedChainModel(model, a) if a.any() else model
        for nu in (1.0, 2.0):
            spec_l = lyapunov_spec(nu, {k: 0.0 for k in model.labels})
            ver = verify_drift_estimate(target, lc, spec_l)
            degenerate = len(ver.degenerate_labels) == len(model.labels)
            checks.append(
                _check(
                    f"lyapunov-ratio-nu-{nu:g}",
                    ver.passed or degenerate,
                    ver.notes if (ver.passed or degenerate)
                    else f"{ver.notes} (final error {ver.final_error():.3e})",
                )
            )
            for row in ver.rows:
                lyap_rows.append(
                    f"{nu:g},{row.x:g},{row.label},{row.increment!r},"
                    f"{row.leading!r},{'' if row.ratio is None else repr(row.ratio)}"
                )
        if args.out:
            with _output(args.out) as fh:
                fh.write("nu,x,label,increment,leading,ratio\n")
                fh.write("\n".join(lyap_rows) + "\n")

    failed = [c for c in checks if not c["passed"]]
    print(f"SUMMARY: {len(checks) - len(failed)}/{len(checks)} checks passed")
    if args.report:
        _emit(
            {
                "tool": {"name": "halfstrip", "version": __version__},
                "input": {"path": args.model, "sha256": digest},
                "verdict": _classification_dict(classification),
                "diagnostic_call": diag.empirical_call,
                "checks": checks,
            },
            args.report,
        )
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first :func:`main` call
    (not at import) and reused: parsing keeps no state between calls. Each
    subcommand's ``fn`` default is bound here, once, to its ``cmd_*``
    function."""
    parser = argparse.ArgumentParser(
        prog="halfstrip",
        description=(
            "Classify recurrence/transience of label-modulated random walks on a "
            "half strip and validate the verdicts by exact-kernel Monte Carlo."
        ),
    )
    parser.add_argument("--version", action="version", version=f"halfstrip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline: spec -> coefficients -> verdict -> moments")
    p.add_argument("--model", required=True, help="model or coefficients JSON file")
    p.add_argument("--tol", type=float, default=None,
                   help="boundary tolerance (default 1e-4 fitted, 1e-9 for coefficient input)")
    p.add_argument("--refined", action="store_true",
                   help="assert the refined remainder rates (enables the boundary verdict)")
    p.add_argument("--p-cap", type=float, default=math.inf, dest="p_cap",
                   help="p/2 ceiling for moment ranges when only p jump moments are bounded")
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("fit", help="fit asymptotic coefficients from a model spec")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", default=None, help="comma-separated positions (default 1e2..1e5)")
    p.add_argument("--refined", action="store_true",
                   help="record the refined-rates assertion in the output")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("simulate", help="sample passage times to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--start", required=True, help="start state as 'X,LABEL'")
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes (at most one per chunk and per CPU)")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--summary", default=None, help="write the JSON summary here")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="cross-check the analytic verdict against simulation")
    p.add_argument("--model", required=True)
    p.add_argument("--coefficients", default=None,
                   help="asserted coefficients JSON to compare against the kernel fit")
    p.add_argument("--start", default=None, help="start state as 'X,LABEL' (default 50,<first label>)")
    p.add_argument("--level", type=float, default=10.0)
    p.add_argument("--cap", type=int, default=200_000)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes (at most one per chunk and per CPU)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--refined", action="store_true")
    p.add_argument("--lyapunov", action="store_true", help="include increment-ratio checks")
    p.add_argument("--out", default=None, help="CSV path for the ratio table (--lyapunov)")
    p.add_argument("--report", default=None, help="write the JSON check report here")
    p.set_defaults(fn=cmd_verify)
    return parser


def _check_flags(args) -> None:
    """Refuse a NaN, infinite or negative tolerance, a --p-cap that is not
    positive, a non-finite --level and --threads below 1, before any of them
    can reach a verdict or an output."""
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {tol!r}")
    if not getattr(args, "p_cap", math.inf) > 0.0:
        raise ValueError(f"--p-cap must be > 0, got {args.p_cap!r}")
    if not math.isfinite(getattr(args, "level", 0.0)):
        raise ValueError(f"--level must be finite, got {args.level!r}")
    if getattr(args, "threads", 1) < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")


def _is_negative_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return text.startswith("-")


def _attach_negative_values(argv: list) -> list:
    """``--tol -1e-3`` -> ``--tol=-1e-3``: argparse recognises ``-0.5`` as a
    negative number but takes ``-1e-3`` or ``-inf`` for an option, so the
    value would never reach the checks above."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and len(flag) > 2 and "=" not in flag
                and _is_negative_number(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        _check_flags(args)
        return args.fn(args)
    except (ModelSpecError, NonCenteredError, DegenerateVarianceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
