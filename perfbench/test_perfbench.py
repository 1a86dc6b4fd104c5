"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import reference
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def test_self_time_subtracts_children_on_a_hand_built_tree():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("b", 5.0, 9.0, 0),
        span("c", 6.0, 7.0, 2),
        span("a", 4.0, 5.0, 0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx([2.0, 3.0, 3.0, 1.0, 1.0])
    assert sum(own) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [span("root", 0.0, 10.0), span("x", 2.0, 6.0, 0), span("y", 4.0, 12.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_generator_spans_time_only_the_resumptions():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    closed = []

    def producer():
        try:
            for item in range(3):
                clock.now += 2.0  # work done inside the generator
                yield item
        finally:
            closed.append(True)

    traced = spans.span_generator(tracer, "tree", producer)
    root = tracer.open("consumer")
    got = []
    for item in traced():
        clock.now += 5.0  # work done by the consumer between items
        got.append(item)
    tracer.close(root)

    assert got == [0, 1, 2]
    own = spans.self_times(tracer.spans)
    tree = [t for s, t in zip(tracer.spans, own) if s.name == "tree"]
    assert sum(tree) == pytest.approx(6.0)
    assert own[root] == pytest.approx(15.0)
    assert len(tree) == 4  # three items and the resumption that finds the end
    assert tracer.counters["tree.calls"] == 1
    assert tracer.counters["tree.items"] == 3
    assert closed == [True]


def test_abandoned_generator_is_closed_and_leaves_no_span_open():
    tracer = spans.Tracer(FakeClock())
    closed = []

    def producer():
        try:
            yield from range(10)
        finally:
            closed.append(True)

    gen = spans.span_generator(tracer, "tree", producer)()
    assert next(gen) == 0
    gen.close()
    assert closed == [True]
    assert all(s.end is not None for s in tracer.spans)
    assert tracer.open("next") == len(tracer.spans) - 1  # stack is empty again
    assert tracer.spans[-1].parent is None


def test_span_call_records_errors_and_attributes():
    tracer = spans.Tracer(FakeClock())

    def fails():
        raise ValueError("no")

    wrapped = spans.span_call(tracer, "f", fails, lambda a, k, r, e: {"error": type(e).__name__})
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.spans[0].attrs == {"error": "ValueError"}
    assert tracer.spans[0].end is not None


def test_patched_restores_on_exception():
    class Module:
        f = staticmethod(len)

    with pytest.raises(RuntimeError):
        with spans.patched([(Module, "f", abs)]):
            assert Module.f is abs
            raise RuntimeError
    assert Module.f is len


def test_calibration_scales_each_unit_by_the_references_beside_it(monkeypatch):
    clock = FakeClock()
    # each reference is run twice, untimed then timed: 1 ms, 4 ms and 1 ms timed
    durations = iter([9.0, 1.0, 9.0, 4.0, 9.0, 1.0])

    def computation():
        clock.now += next(durations) / 1e3

    monkeypatch.setattr(reference, "clock", clock)
    monkeypatch.setattr(reference, "reference", computation)
    monkeypatch.setattr(reference, "REFERENCE_MS", 1.0)
    samples = {"a": []}
    calibration = reference.Calibration()
    for unit in ({"a": 10.0}, {"a": 20.0, "b": 30.0}):
        calibration.between(samples)
        for name, ms in unit.items():
            samples.setdefault(name, []).append(ms)
            clock.now += ms / 1e3
    calibration.between(samples)

    assert calibration.reference_ms == pytest.approx([1.0, 4.0, 1.0])
    assert calibration.factors() == pytest.approx([0.5, 0.5])
    assert calibration.walls == pytest.approx([0.010, 0.050])
    assert calibration.scaled_walls() == pytest.approx([0.005, 0.025])
    scaled = calibration.scaled_samples(samples)
    assert scaled["a"] == pytest.approx([5.0, 10.0])
    assert scaled["b"] == pytest.approx([15.0])
    assert samples == {"a": [10.0, 20.0], "b": [30.0]}  # the raw samples are left as they were


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    pct, value = workloads.tail(samples)
    assert pct == 90
    assert sum(s > value for s in samples) == 10
    assert workloads.tail([3.0, 1.0, 2.0, 4.0]) == (50, 2.5)


def test_wrappers_are_restored_after_a_traced_pass():
    lib = workloads.import_library()
    tracer = spans.Tracer()
    replacements = workloads.layer_patches(lib, tracer)
    before = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    wl = workloads.Forgery(lib, seed=3)
    with spans.patched(replacements):
        root = tracer.open("bench")
        _, verdicts, _ = run.run_pass(wl, units=4)
        tracer.close(root)
    assert verdicts == {workloads.PASS: 4}
    assert all(getattr(module, attr) is original for module, attr, original in before)
    names = {s.name for s in tracer.spans}
    assert {"bench", "decrypt.retry", "decrypt.tree", "decrypt.reencrypt"} <= names


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_regenerates_identical_inputs(name):
    lib = workloads.import_library()
    cls = workloads.WORKLOADS[name]
    assert cls(lib, seed=11).pool == cls(lib, seed=11).pool
    assert cls(lib, seed=11).pool != cls(lib, seed=12).pool


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "forgery-n16", "--seed", "5", "--seconds", "0.2", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in workloads.PER_LAYER]


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "forgery-n16", "--seed", "5", "--seconds", "0.3", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 2
    assert list(result["metrics"]) == [name for name, _, _ in workloads.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "attack", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_the_metrics_the_driver_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == workloads.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
