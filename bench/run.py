"""Benchmark of halfstrip's ``analyze``, ``simulate`` and ``verify``.

Run from the root of a source checkout:

    python3 bench/run.py --workload simulate-return --seed 1 --seconds 20 --trace 0

The run imports ``halfstrip`` from ``src/`` (setup), runs the workload's unit
of ``cli.main`` calls once to warm up, then repeats it for ``--seconds`` and
reports the median repeat. With ``--trace 1`` it then runs the unit once
more under the wrappers of ``layers.py`` and reports per-layer metrics in
place of the end-to-end ones. The outputs are checked against ``oracle.py``.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. See README.md for the workloads and what each metric should move.
"""

import os
import time


def _process_age() -> float:
    """Seconds since this process started, to the kernel's clock tick (Linux);
    0 where ``/proc`` cannot tell."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    except (OSError, ValueError, IndexError):
        return 0.0
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


# setup_s counts from the process's start, interpreter start-up included
T_START = time.perf_counter() - _process_age()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import ``halfstrip`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "halfstrip" / "__init__.py").is_file():
        raise SystemExit(f"error: no halfstrip sources under {src}")
    sys.path.insert(0, str(src))
    import halfstrip.cli

    if Path(halfstrip.cli.__file__).resolve().parent != src / "halfstrip":
        raise SystemExit(f"error: imported halfstrip from {halfstrip.cli.__file__}")
    return halfstrip.cli


def run_unit(cli, wl):
    """One unit of work: every argv through ``cli.main``, timed as a whole.
    Returns ``(seconds, stdout, exit codes)``."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        codes = [cli.main(list(argv)) for argv in wl.argvs]
        dt = time.perf_counter() - t0
    return dt, sink.getvalue(), codes


def _snapshot(wl, stdout):
    return [Path(name).read_bytes() for name in wl.outputs] + [stdout.encode()]


def main(argv=None):
    args = _parse_args(argv)
    from workloads import WORKLOADS

    cli = _import_program()
    wl = WORKLOADS[args.workload](args.seed)
    workdir = BENCH_DIR / f".work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        os.chdir(workdir)
        return _run(cli, wl, args, workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def _run(cli, wl, args, workdir):
    from halfstrip.model import model_from_spec
    from workloads import Outcome

    for name, spec in wl.specs.items():
        Path(name).write_text(json.dumps(spec))
        model_from_spec(spec)
    setup_s = time.perf_counter() - T_START

    problems = []
    units = 0

    def unit():
        nonlocal units
        units += 1
        dt, stdout, codes = run_unit(cli, wl)
        if any(codes):
            problems.append(f"exit codes {sorted(set(codes))}")
        return dt, stdout

    _, stdout = unit()  # warm-up; its outputs are the ones checked
    # read before the repeats, whose count varies, can move the allocator's high-water mark
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        outcome = wl.check(workdir, stdout)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        outcome = Outcome(0, [f"unreadable output: {exc!r}"], 0.0)
    problems += outcome.problems
    reference = _snapshot(wl, stdout)

    walls = []
    t_end = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < t_end:
        dt, stdout = unit()
        walls.append(dt)
    if _snapshot(wl, stdout) != reference:
        problems.append("a repeat's outputs differ from the warm-up's")
    wall_s = statistics.median(walls)

    if args.trace:
        import layers

        tracer = layers.Tracer()
        with layers.installed(tracer):
            traced_s, stdout = unit()
        if _snapshot(wl, stdout) != reference:
            problems.append("the traced run's outputs differ from the untraced run's")
        if wl.ops_are_steps:
            stepped = tracer.counts["live_rows"] + tracer.calls["model.step_scalar"]
            if stepped != outcome.ops:
                problems.append(f"trace counted {stepped} steps, the CSV {outcome.ops:.0f}")
        metrics = layers.per_layer_metrics(tracer)
        metrics["trace.overhead_s"] = (traced_s - wall_s, "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ops_per_s": (outcome.ops / wall_s, "1/s"),
        }

    for line in problems:
        print(f"check: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(walls)} repeats, wall_s "
          + " ".join(f"{w:.4f}" for w in walls), file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": units * len(wl.argvs),
        "failed": units * outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
