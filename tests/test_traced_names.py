"""The benchmark's tracer wraps package functions and methods by name
(``perfbench/spans.py``). Installing and restoring it here makes a
deleted or renamed traced name fail the test suite, not a benchmark run."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.spans import Tracer  # noqa: E402


def test_benchmark_tracer_finds_and_restores_every_traced_name():
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        restored = tracer.restore()
    assert restored
