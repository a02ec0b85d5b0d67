"""Statistical estimators used by the experiment harness.

The paper's claims are about expected values and with-high-probability
bounds of random stabilization/broadcast times.  The harness repeats each
measurement several times and needs: sample means with confidence
intervals, quantiles, and helpers for comparing measured values against
analytic bounds (the "paper-vs-measured" columns of EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class SummaryStatistics:
    """Summary of a sample of repeated measurements.

    Attributes
    ----------
    n_samples:
        Number of repetitions.
    mean, std:
        Sample mean and (unbiased) standard deviation.
    ci_low, ci_high:
        A normal-approximation 95% confidence interval for the mean.
    median, minimum, maximum, q90:
        Robust location/scale descriptors.
    """

    n_samples: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    median: float
    minimum: float
    maximum: float
    q90: float

    def as_dict(self) -> dict:
        """Plain-dict view for report rendering."""
        return {
            "n_samples": self.n_samples,
            "mean": self.mean,
            "std": self.std,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "median": self.median,
            "min": self.minimum,
            "max": self.maximum,
            "q90": self.q90,
        }


def summarize_samples(samples: Sequence[float]) -> SummaryStatistics:
    """Compute :class:`SummaryStatistics` for a non-empty sample.

    The median and q90 come from one sort, with NumPy's own arithmetic,
    so they equal ``np.median`` and ``np.quantile(data, 0.9)`` bit for
    bit (only a sample mixing ``-0.0`` and ``+0.0`` can see the sign of
    a zero q90 differ: a sort and NumPy's partition may order those two
    equal keys differently).  Those two are not called: on NumPy >= 2.3
    ``np.quantile`` reaches ``np.unique``, which imports ``numpy.ma``
    (about 12 ms in a fresh process).
    """
    data = np.asarray(list(samples), dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot summarise an empty sample")
    n = int(data.size)
    mean = float(data.mean())
    std = float(data.std(ddof=1)) if n > 1 else 0.0
    half_width = 1.96 * std / math.sqrt(n) if n > 1 else 0.0
    ordered = np.sort(data)
    return SummaryStatistics(
        n_samples=n,
        mean=mean,
        std=std,
        ci_low=mean - half_width,
        ci_high=mean + half_width,
        # np.median's own step: the mean of the middle one or two values.
        median=float(ordered[(n - 1) // 2 : n // 2 + 1].mean()),
        minimum=float(data.min()),
        maximum=float(data.max()),
        q90=_sorted_quantile(ordered, 0.9),
    )


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(ordered, q)`` of sorted data, bit for bit.

    NumPy's default "linear" method: the virtual index ``(n - 1) * q``
    splits into ``i + g``, and the value between ``a = ordered[i]`` and
    ``b = ordered[i + 1]`` is ``a + (b - a) * g``, or, from ``g >= 0.5``
    on, ``b - (b - a) * (1 - g)``.  An index at the last value returns it.
    """
    position = (ordered.size - 1) * q
    i = math.floor(position)
    if i >= ordered.size - 1:
        return float(ordered[-1])
    a, b = float(ordered[i]), float(ordered[i + 1])
    g = position - i
    if g >= 0.5:
        return b - (b - a) * (1 - g)
    return a + (b - a) * g


def empirical_tail_probability(samples: Sequence[float], threshold: float) -> float:
    """Fraction of samples ``>= threshold`` — for checking w.h.p. claims."""
    data = np.asarray(list(samples), dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot compute a tail probability of an empty sample")
    return float((data >= threshold).mean())


def ratio_to_bound(measured: float, bound: float) -> float:
    """``measured / bound`` — <= 1 means the bound holds with slack."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return measured / bound


def geometric_mean(samples: Iterable[float]) -> float:
    """Geometric mean of positive samples (used for ratio aggregation)."""
    data = np.asarray(list(samples), dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot take the geometric mean of an empty sample")
    if (data <= 0).any():
        raise ValueError("geometric mean requires positive samples")
    return float(np.exp(np.log(data).mean()))


def bootstrap_mean_interval(
    samples: Sequence[float],
    n_resamples: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple:
    """Bootstrap confidence interval for the mean (non-normal samples).

    Stabilization times are heavy-tailed on low-conductance graphs, so the
    harness uses the bootstrap interval when sample sizes are small.
    """
    data = np.asarray(list(samples), dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, data.size, size=(n_resamples, data.size))
    means = data[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return float(np.quantile(means, alpha)), float(np.quantile(means, 1.0 - alpha))
