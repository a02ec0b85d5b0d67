"""Tests for statistical estimators."""

from __future__ import annotations

import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    bootstrap_mean_interval,
    empirical_tail_probability,
    geometric_mean,
    ratio_to_bound,
    summarize_samples,
)


class TestSummaries:
    def test_basic_statistics(self):
        stats = summarize_samples([1.0, 2.0, 3.0, 4.0])
        assert stats.n_samples == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0

    def test_single_sample(self):
        stats = summarize_samples([5.0])
        assert stats.std == 0.0
        assert stats.ci_low == stats.ci_high == 5.0

    def test_confidence_interval_contains_mean(self):
        stats = summarize_samples(list(range(100)))
        assert stats.ci_low <= stats.mean <= stats.ci_high

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            summarize_samples([])

    def test_as_dict_keys(self):
        stats = summarize_samples([1.0, 2.0])
        d = stats.as_dict()
        for key in ("n_samples", "mean", "std", "ci_low", "ci_high", "median"):
            assert key in d


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_order_statistics_match_numpy(samples):
    """Median, q90, minimum and maximum equal NumPy's, bit for bit."""
    data = np.asarray(samples, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # std of huge values
        stats = summarize_samples(samples)
    assert _bits(stats.median) == _bits(float(np.median(data)))
    assert _bits(stats.q90) == _bits(float(np.quantile(data, 0.9)))
    assert _bits(stats.minimum) == _bits(float(np.min(data)))
    assert _bits(stats.maximum) == _bits(float(np.max(data)))


class TestOrderStatistics:
    """``summarize_samples`` sorts once instead of calling ``np.median``
    and ``np.quantile``; the results may not move by one bit.  Samples
    never mix ``-0.0`` with ``+0.0``: a sort and NumPy's partition may
    order those two equal keys differently, which can flip the sign of
    a zero q90."""

    def test_one_sample(self):
        for value in (7.25, -0.0, 0.0, -1e300, 5e-324):
            _assert_order_statistics_match_numpy([value])
        stats = summarize_samples([7.25])
        assert stats.median == stats.q90 == stats.minimum == stats.maximum == 7.25

    def test_two_samples(self):
        for samples in ([1.0, 2.0], [2.0, 1.0], [-0.0, -0.0], [0.0, 0.0], [1e300, -1e300]):
            _assert_order_statistics_match_numpy(samples)
        stats = summarize_samples([3.0, 1.0])
        assert stats.median == 2.0 and stats.q90 == 2.8

    def test_six_samples_put_q90_exactly_halfway(self):
        """At n = 6 the virtual index ``5 * 0.9`` is exactly 4.5: NumPy
        takes ``b - (b - a) * 0.5`` there, which is 5.95 on this sample;
        ``a + (b - a) * 0.5`` would be 5.950000000000001."""
        samples = [9.8, 0.5, 2.1, 0.0, 1.4, 0.7]
        assert (len(samples) - 1) * 0.9 == 4.5
        _assert_order_statistics_match_numpy(samples)
        assert summarize_samples(samples).q90 == 5.95
        for zeros in ([-0.0] * 6, [0.0] * 6, [-0.0, -0.0, 1.0, -1.0, -0.0, -0.0]):
            _assert_order_statistics_match_numpy(zeros)


def test_torus_million_scenario_leaves_numpy_ma_unimported():
    """A cold run of the ``torus-million`` scenario (at n = 4096) never
    imports ``numpy.ma``.  On NumPy >= 2.3 ``np.quantile`` reaches it
    through ``np.unique``, at about 12 ms per fresh process."""
    script = (
        "import sys\n"
        "from repro.orchestration import get_scenario, run_scenario\n"
        "scenario = get_scenario('torus-million').with_overrides(sizes=(4096,))\n"
        "result = run_scenario(scenario, cache=False)\n"
        "assert result.executed_units == 1, result.executed_units\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        # ``x + 0.0`` turns -0.0 into +0.0 and leaves every other float.
        st.floats(min_value=-1e300, max_value=1e300).map(lambda x: x + 0.0),
        min_size=1,
        max_size=200,
    )
)
def test_order_statistics_bit_equal_numpy(samples):
    _assert_order_statistics_match_numpy(samples)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([-0.0, 0.0]).flatmap(
        lambda zero: st.lists(
            st.sampled_from([zero, 1.0, -2.5, 1e300, -1e300, 5e-324]), min_size=1, max_size=200
        )
    )
)
def test_order_statistics_bit_equal_numpy_with_duplicates(samples):
    _assert_order_statistics_match_numpy(samples)


class TestTailAndRatios:
    def test_empirical_tail_probability(self):
        assert empirical_tail_probability([1, 2, 3, 4], 3) == pytest.approx(0.5)
        assert empirical_tail_probability([1, 2], 10) == 0.0

    def test_empty_tail_rejected(self):
        with pytest.raises(ValueError):
            empirical_tail_probability([], 1)

    def test_ratio_to_bound(self):
        assert ratio_to_bound(50, 100) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            ratio_to_bound(1, 0)

    def test_geometric_mean(self):
        assert geometric_mean([1, 4, 16]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([1, -1])
        with pytest.raises(ValueError):
            geometric_mean([])


class TestBootstrap:
    def test_interval_brackets_mean_of_symmetric_sample(self):
        data = list(np.random.default_rng(0).normal(10, 1, size=200))
        low, high = bootstrap_mean_interval(data, n_resamples=500, seed=1)
        assert low <= 10.2 and high >= 9.8
        assert low < high

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            bootstrap_mean_interval([1.0, 2.0], confidence=1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_mean_interval([])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
def test_summary_invariants(samples):
    stats = summarize_samples(samples)
    # Allow a tiny tolerance: averaging values of very different magnitudes
    # can push the floating-point mean marginally outside [min, max].
    spread = max(abs(stats.minimum), abs(stats.maximum), 1.0)
    tolerance = 1e-9 * spread
    assert stats.minimum <= stats.median <= stats.maximum
    assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance
    assert stats.n_samples == len(samples)
