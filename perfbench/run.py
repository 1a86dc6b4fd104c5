"""Benchmark driver for juoan2: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload roundtrip-n128 --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the library is imported from
`src/` next to this directory, never from an installed copy.  The loop is
closed with one client and a single thread.  With `--trace 0` it runs
whole rounds of the workload for `--seconds`, timing a fixed reference
computation between units, and reports the end-to-end metrics with each
unit's times scaled by the reference times beside it to the baseline
machine's speed (see `reference.py`).  With `--trace 1` it runs half that
time untraced, replays exactly the same units with a span around every
layer call, checks that both passes produced the same outputs, and reports
per-layer metrics.
Human-readable figures go to the lines before the last; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import reference
import spans
from workloads import END_TO_END, PASS, PER_LAYER, WORKLOADS, WRONG, import_library, layer_metrics, layer_patches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 9  # set-ups timed in each run; setup_s is the median
MAX_LOGGED_FAILURES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_pass(workload, seconds=None, units=None, calibration=None):
    """Run units in order, whole rounds within `seconds`, or exactly `units` units.

    With `seconds`, a round is not started if the mean round so far says it
    would end past the limit; the first round always runs.  With a
    `calibration`, the reference computation is timed before each unit and
    after the last; the wall time returned leaves it out.
    Returns (outputs, verdict counts, wall seconds).  A unit that raises
    counts as WRONG and the run goes on.
    """
    outputs = []
    verdicts = Counter()
    start = time.perf_counter()
    i = 0
    while True:
        if units is not None:
            if i >= units:
                break
        elif i and i % workload.round_units == 0:
            elapsed = time.perf_counter() - start
            if elapsed * (i + workload.round_units) / i > seconds:
                break
        if calibration is not None:
            calibration.between(workload.samples)
        try:
            verdict, output = workload.run_unit(i)
        except Exception as exc:
            verdict, output = WRONG, ("error", type(exc).__name__, str(exc))
            if verdicts[WRONG] < MAX_LOGGED_FAILURES:
                traceback.print_exc()
        verdicts[verdict] += 1
        if verdict != PASS and verdicts[verdict] <= MAX_LOGGED_FAILURES:
            print(f"{workload.name}: unit {i}: {verdict}: {output!r}", file=sys.stderr)
        outputs.append(output)
        i += 1
    if calibration is not None:
        calibration.between(workload.samples)
        return outputs, verdicts, sum(calibration.walls)
    return outputs, verdicts, time.perf_counter() - start


def write_spans(tracer, workload, seed):
    """Keep the traced pass's spans beside the benchmark for later inspection."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-spans.json"
    rows = [[s.name, s.start, s.end, s.parent, s.attrs] for s in tracer.spans]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "attrs"], "spans": rows}))
    return path


def main(argv=None) -> int:
    if not (SRC / "juoan2" / "__init__.py").is_file():
        print(f"perfbench: no juoan2 sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    setup = reference.Calibration()
    for _ in range(SETUP_REPS):
        setup.between()
        lib = import_library()
        workload = WORKLOADS[args.workload](lib, args.seed)
    setup.between()
    if SRC not in Path(lib.keygen.__file__).resolve().parents:
        print(f"perfbench: juoan2 was imported from {lib.keygen.__file__}, not {SRC}", file=sys.stderr)
        return 2

    with spans.patched(workload.capture()):
        if not args.trace:
            calibration = reference.Calibration()
            outputs, verdicts, wall = run_pass(workload, seconds=args.seconds, calibration=calibration)
            attempted = len(outputs)
            raw = workload.end_to_end(wall, attempted)
            workload.samples.update(calibration.scaled_samples(workload.samples))
            scaled_wall = sum(calibration.scaled_walls())
            metrics = {
                "setup_s": statistics.median(setup.scaled_walls()),
                **workload.end_to_end(scaled_wall, attempted),
            }
            units = {name: unit for name, unit, _ in END_TO_END}
            rows = [
                ("raw setup_s", statistics.median(setup.walls), f"s (median of {len(setup.walls)})"),
                *((f"raw {name}", value, units[name]) for name, value in raw.items()),
                ("reference_ms_p50", statistics.median(calibration.reference_ms), "ms"),
                *workload.report(scaled_wall, attempted),
            ]
            mismatched = 0
            correct = True
        else:
            plain, verdicts, wall_plain = run_pass(workload, seconds=args.seconds / 2)
            workload.reset()
            tracer = spans.Tracer()
            with spans.patched(layer_patches(lib, tracer)):
                root = tracer.open("bench")
                traced, traced_verdicts, wall_traced = run_pass(workload, units=len(plain))
                tracer.close(root)
            overhead = wall_traced - wall_plain
            mismatched = sum(a != b for a, b in zip(plain, traced))
            unaccounted = wall_traced - sum(spans.self_times(tracer.spans))
            attempted = 2 * len(plain)
            verdicts += traced_verdicts
            metrics = layer_metrics(tracer, len(plain), overhead)
            units = {name: unit for name, unit, _ in PER_LAYER}
            rows = [
                ("traced units", len(plain), "count"),
                ("untraced wall", wall_plain, "s"),
                ("traced wall", wall_traced, "s"),
                ("outputs differing between passes", mismatched, "count"),
                ("traced wall minus summed self times", unaccounted, "s"),
            ]
            print(f"spans written to {write_spans(tracer, args.workload, args.seed).relative_to(ROOT)}")
            correct = abs(unaccounted) <= abs(overhead)
    failed = min(attempted, attempted - verdicts[PASS] + mismatched)
    correct = correct and verdicts[WRONG] == 0 and mismatched == 0
    rows.append(("fail_ratio", failed / attempted, f"of {attempted} attempted, {verdicts[WRONG]} wrong"))

    for name, value, unit in rows:
        print(f"{args.workload:15} {name:36} {value:14.6g} {unit}")
    for name, value in metrics.items():
        print(f"{args.workload:15} {name:36} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
