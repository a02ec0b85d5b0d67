"""Shared fixtures for the benchmark harness.

Each benchmark file regenerates one table/figure row group of the paper
(see DESIGN.md §2 for the experiment index).  Benchmarks are executed with

    pytest benchmarks/ --benchmark-only

and print a measured-vs-paper comparison table in addition to the
pytest-benchmark timing statistics.  Simulation sizes are chosen so the
whole harness completes in a few minutes of pure-Python time; the *shape*
(growth exponents, protocol ordering) is what is being reproduced, not the
paper's absolute step counts.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.runtime.plan import ENGINES  # noqa: E402


def pytest_addoption(parser):
    """``--engine`` switches every benchmark between execution engines.

    The choices are :data:`repro.runtime.plan.ENGINES`: ``auto`` (default)
    uses the compiled engine where possible; ``reference`` forces the
    pure-Python interpreter (the escape hatch for semantic comparisons).
    The ``REPRO_ENGINE`` environment variable provides the default so CI
    matrices can set it without editing commands.  Measured *values* are
    identical across engines for a fixed seed — only the wall-clock
    differs.
    """
    parser.addoption(
        "--engine",
        action="store",
        default=os.environ.get("REPRO_ENGINE", "auto"),
        choices=ENGINES,
        help="execution engine for all benchmarks (default: auto)",
    )


@pytest.fixture
def engine(request):
    """The engine selected via ``--engine`` / ``REPRO_ENGINE``."""
    return request.config.getoption("--engine")


@pytest.fixture
def report(capsys):
    """Print a report section even under pytest's output capture."""

    def _print(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _print
