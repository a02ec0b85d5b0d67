"""The stochastic scheduler for time-varying topologies.

:class:`DynamicScheduler` is the dynamic-topology twin of
:class:`repro.core.scheduler.RandomScheduler`: in every step it samples
an ordered pair ``(u, v)`` uniformly among the ``2·m_k`` ordered pairs of
the **currently active** epoch graph (a uniform edge of that graph plus a
uniform orientation).

Both schedulers are shells over the same
:class:`repro.runtime.source.InteractionSource`, so the seeded-stream
contract — refills happen only on an empty buffer, with the same
two-call ``integers(0, m) / integers(0, 2)`` draw order and the
refill size single-sourced in :data:`repro.runtime.source.REFILL_SIZE` —
is defined once.  The only dynamic addition (also implemented in the
shared source) is that a refill is **capped at the current epoch
boundary**: a pre-sample buffer never crosses an epoch switch, so every
draw is made against the edge table it will be applied to.  For a
single-epoch schedule no cap ever applies, so the stream — and therefore
every downstream seeded result — is bit-identical to
``RandomScheduler(graph, rng=seed)`` on the same seed.

The per-replica engine and the reference interpreter
(:mod:`repro.runtime.execute`) read the same stream from a bare
:class:`~repro.runtime.source.InteractionSource` over the schedule, so a
run never imports this module.  The v6 epoch stack draws the same
stream in C: it caps each refill at the epoch boundary in the same way
and swaps in the next epoch's tables there, so dynamic runs stay
bit-identical across all three executors.
"""

from __future__ import annotations

from ..core.scheduler import Scheduler
from ..graphs.graph import Graph
from ..graphs.random_graphs import RngLike
from ..runtime.source import InteractionSource
from .schedule import TopologySchedule


class DynamicScheduler(InteractionSource, Scheduler):
    """Uniform stochastic scheduler over a :class:`TopologySchedule`.

    Parameters
    ----------
    schedule:
        The time-varying topology to sample from.
    rng:
        Seed or :class:`numpy.random.Generator` for reproducibility.
    """

    def __init__(self, schedule: TopologySchedule, rng: RngLike = None) -> None:
        super().__init__(schedule, rng=rng)

    @property
    def schedule(self) -> TopologySchedule:
        """The topology schedule being sampled."""
        assert self._schedule is not None
        return self._schedule

    @property
    def graph(self) -> Graph:
        """The epoch graph the *next* interaction will be drawn from."""
        return self.active_graph
