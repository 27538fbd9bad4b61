"""Benchmark for dualpairs: one workload per process, run through the shipped CLI.

Usage, from the repository root:

    python3 bench/run.py --workload verify --seed 7 --seconds 20 --trace 0

A run repeats whole rounds of the workload (a fixed list of CLI invocations,
see ``workloads.py``) until ``--seconds`` have passed, then checks every
artifact.  Round 0 is a warm-up, left out of the medians; its artifacts get
the independent checks of ``checks.py``, and every later round must
reproduce them byte for byte.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics, medians over the rounds
after the warm-up: ``wall_s`` per round, ``setup_s`` (a fresh interpreter
importing the package and building the workload, median of several) and
``peak_rss_mb``.  ``--trace 1`` alternates traced and plain rounds after the
warm-up and reports the per-layer metrics of ``tracer.py`` (medians over
traced rounds) plus the tracing overhead; the spans of the last traced
round go to ``spans.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_TRIALS = 5

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from checks import CheckError, has_nonfinite  # noqa: E402

_PROBE = (
    "import sys, pathlib; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.prepare(sys.argv[3], int(sys.argv[4]), pathlib.Path(sys.argv[5]))"
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_seconds(src: Path, workload: str, seed: int, directory: Path) -> float:
    """Interpreter start, ``import dualpairs`` and building the workload, in a fresh process."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _PROBE, str(HERE), str(src), workload, str(seed), str(directory)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _invoke(cli, argv):
    """Run the CLI in-process with its output discarded; returns the exit code or the crash."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            return f"{type(exc).__name__}: {exc}"


def _digest(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def _status(op, code, path: Path) -> str:
    """``ok`` or ``failed: <why>`` from the exit code alone (plus NaN for the fault)."""
    if op.diverges:
        if code == workloads.EXIT_NUMERIC:
            return "ok"
        if code == 0 and path.is_file() and has_nonfinite(path):
            return "failed: exit 0 with non-finite values in the CSV"
        return f"failed: exit {code!r} on a diverging input"
    return "ok" if code == 0 else f"failed: exit {code!r}"


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "dualpairs" / "__init__.py").is_file():
        print("bench: src/dualpairs not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    out = root / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    ops = workloads.prepare(args.workload, args.seed, out / "setup")
    from dualpairs import cli

    setup = []
    if not args.trace:
        setup = [_setup_seconds(src, args.workload, args.seed, out / "setup")
                 for _ in range(SETUP_TRIALS)]

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    walls = {False: [], True: []}
    layer_rounds = []
    statuses = []  # one list per round
    digests0 = []
    wrong = []
    began = time.perf_counter()
    k = 0
    # Round 0 warms the process (first-touch allocations, lazy imports) and
    # writes the artifacts that get checked; it is timed but not in a median.
    while k < 2 + args.trace or time.perf_counter() - began < args.seconds:
        traced = bool(args.trace) and k % 2 == 1
        directory = out / f"round{k}"
        directory.mkdir(parents=True)
        commands = [op.command(directory) for op in ops]
        codes = []
        if traced:
            tracer.reset()
            tracer.install()
        try:
            start = time.perf_counter()
            for command in commands:
                codes.append(_invoke(cli, command))
            wall = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        if k == 0:
            warm_up = wall
        else:
            walls[traced].append(wall)
        if traced:
            if not layer_rounds:
                diagnostics_peak_mb = tracer.diagnostics_peak_mb()
            layer_rounds.append(layer_metrics(tracer.spans, tracer.counts, diagnostics_peak_mb))
        paths = [directory / op.out for op in ops]
        statuses.append([_status(op, code, path) for op, code, path in zip(ops, codes, paths)])
        if k == 0:
            digests0 = [_digest(path) for path in paths]
        else:
            for op, path, first, status in zip(ops, paths, digests0, statuses[-1]):
                if status == "ok" and not op.diverges and _digest(path) != first:
                    wrong.append(f"round {k}: {op.out} differs from round 0")
            shutil.rmtree(directory)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op, status in zip(ops, statuses[0]):
        if status == "ok" and op.check is not None:
            try:
                op.check(out / "round0" / op.out)
            except CheckError as exc:
                wrong.append(f"{op.out}: {exc}")

    attempted = sum(len(s) for s in statuses)
    failed = sum(1 for s in statuses for status in s if status != "ok")
    print(f"workload {args.workload} seed {args.seed}: {k} rounds, artifacts in {out}")
    for op, status, digest in zip(ops, statuses[0], digests0):
        print(f"  dualpairs {' '.join(op.argv)}: {status}; sha256 {digest}")
    for line in wrong:
        print(f"  WRONG {line}")

    if args.trace:
        metrics = {name: statistics.median_low(r[name] for r in layer_rounds)
                   for name in layer_rounds[0]}
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        _write_spans(out / "spans.csv", tracer.spans)
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
    units = _units()
    print(f"  warm-up round wall (s): {warm_up:.3f}")
    for traced, values in walls.items():
        if values:
            label = "traced" if traced else "plain"
            print(f"  {label} round walls (s): {' '.join(f'{v:.3f}' for v in values)}")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def _units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _write_spans(path: Path, spans) -> None:
    with open(path, "w") as handle:
        handle.write("id,parent,name,start_ns,end_ns\n")
        for i, (name, start, end, parent) in enumerate(spans):
            handle.write(f"{i},{parent},{name},{start},{end}\n")


if __name__ == "__main__":
    sys.exit(main())
