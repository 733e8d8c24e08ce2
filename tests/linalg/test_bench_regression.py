"""Benchmark-regression gate on the committed pressure-shift artifact.

``benchmarks/out/BENCH_pressure_shift.json`` is (re)generated by::

    python benchmarks/harness.py --bench pressure_shift --json

and committed.  These tests fail whenever a regenerated artifact shows the
pressure-shift path no longer paying for itself at the scale production
runs it, or silently losing parity with exact factorizations.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ARTIFACT = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "out"
    / "BENCH_pressure_shift.json"
)

#: Differential parity bound mirrored from the tests/linalg property suite.
PARITY_RTOL = 1e-10


@pytest.fixture(scope="module")
def artifact():
    assert ARTIFACT.is_file(), (
        f"missing {ARTIFACT}; regenerate with "
        f"'python benchmarks/harness.py --bench pressure_shift --json'"
    )
    with ARTIFACT.open() as fh:
        return json.load(fh)


def test_artifact_identifies_itself(artifact):
    assert artifact["benchmark"] == "pressure_shift"
    assert artifact["config"]["n_nodes"] > 0


def test_pressure_shift_beats_exact_refactorization(artifact):
    sweep = artifact["pressure_sweep"]
    assert sweep["incremental"]["p50_ms"] < sweep["exact"]["p50_ms"]


def test_recorded_parity_is_within_bounds(artifact):
    assert artifact["pressure_sweep"]["parity_max_err"] <= PARITY_RTOL
