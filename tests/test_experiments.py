"""Experiment harness: planted instances, trial runners, CSV output."""

import csv
import io
from random import Random

from juoan2.cryptanalysis import (
    CSV_COLUMNS,
    ExperimentRow,
    planted_ssp_instance,
    run_assp_attack_trial,
    run_planted_ssp_trial,
    write_experiment_csv,
)


def test_planted_instance_is_solvable():
    weights, x, S, M = planted_ssp_instance(20, 40, Random(0))
    assert len(weights) == 20
    assert any(x)
    assert sum(b * w for b, w in zip(x, weights)) % M == S
    assert all(1 <= w < M for w in weights)


def reference_planted_instance(n, bits, rng):
    """planted_ssp_instance with its draws as stdlib randint calls."""
    M = 1 << bits
    weights = tuple(rng.randint(1, M - 1) for _ in range(n))
    while True:
        x = tuple(rng.randint(0, 1) for _ in range(n))
        if any(x):
            break
    return weights, x, sum(b * w for b, w in zip(x, weights)) % M, M


def test_planted_instance_matches_the_randint_draws():
    # n = 1 and 2 redraw an all-zero x often; bits = 1 draws every weight below 1
    for n, bits in ((1, 1), (2, 3), (20, 40), (24, 64)):
        for seed in range(20):
            rng, ref = Random(seed), Random(seed)
            assert planted_ssp_instance(n, bits, rng) == reference_planted_instance(n, bits, ref)
            assert rng.getstate() == ref.getstate()


def test_planted_trial_recovers_low_density():
    row = run_planted_ssp_trial(20, 40, Random(1))
    assert row.attack_outcome == "recovered"
    assert row.n == 20
    # Density is measured from the actual max weight, so it hovers near 0.5.
    assert 0.48 < row.density < 0.53


def test_assp_trial_reports_outcome():
    row = run_assp_attack_trial(4, Random(1), max_wraps=2)
    assert row.attack_outcome in ("recovered", "failed")
    assert row.n == 6
    assert row.wall_time_ms > 0


def test_csv_format():
    rows = [
        ExperimentRow(20, 40.0, 0.5, "recovered", 12.5),
        ExperimentRow(24, 48.0, 1.65, "failed", 4300.0),
    ]
    out = io.StringIO()
    write_experiment_csv(rows, out)
    parsed = list(csv.reader(io.StringIO(out.getvalue())))
    assert parsed[0] == list(CSV_COLUMNS)
    assert parsed[1] == ["20", "40.0000", "0.5000", "recovered", "12.50"]
    assert len(parsed) == 3
