"""Differential tests of the in-kernel RNG against the NumPy reference.

Kernel v6 reimplements, in C, every layer this package draws seeded
streams from, starting at a seed :mod:`repro.core.seeds` has derived:
NumPy's ``SeedSequence`` entropy pooling, the PCG64 bit generator
(including its buffered 32-bit half-word), ``Generator.integers``'s
bounded sampling, and the scheduler-dialect refills of
:class:`repro.runtime.source.InteractionSource`.  These tests pin each
layer bit for bit: raw 64-bit words, bounded draws across chunk
boundaries, decoded pair indices over randomized ``(seed, m, length)``
triples including epoch-boundary caps at ``REFILL_SIZE``, refills that
reject half-words or start on a buffered one (whole state rows compared),
and the analytics kernels' stop-at-finish contract.  Row compaction of
the v6 stack is pinned end to end in ``tests/test_runtime_plan.py``.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.core.seeds import derive_seed
from repro.engine.native import (
    RNG_STATE_WORDS,
    get_broadcast_epoch_kernel,
    get_influence_epoch_kernel,
    get_rng_kernels,
)
from repro.graphs import clique, cycle
from repro.runtime.pairs import directed_tables, encode_oriented
from repro.runtime.source import REFILL_SIZE, InteractionSource, kernel_rng_rows

MASTER_SEED = 20260728 + 6  # PR-6 case stream, disjoint from the other suites

KERNELS = get_rng_kernels()

pytestmark = pytest.mark.skipif(KERNELS is None, reason="kernel v6 unavailable")


def _ptr(array: np.ndarray):
    return array.ctypes.data


def pack_generator_state(generator: np.random.Generator, out: np.ndarray) -> None:
    """The kernel RNG row that continues a PCG64-backed Generator exactly.

    The row layout mirrors numpy's ``PCG64().state`` dict — state hi/lo,
    inc hi/lo, ``has_uint32``, ``uinteger`` — so a row compares word for
    word with the reference Generator's state, buffered 32-bit half-word
    included.
    """
    state = generator.bit_generator.state
    assert state["bit_generator"] == "PCG64"
    inner = state["state"]
    mask = (1 << 64) - 1
    out[0] = (inner["state"] >> 64) & mask
    out[1] = inner["state"] & mask
    out[2] = (inner["inc"] >> 64) & mask
    out[3] = inner["inc"] & mask
    out[4] = int(state["has_uint32"])
    out[5] = int(state["uinteger"])
    out[6] = 0
    out[7] = 0


def _init_state(seed: int) -> np.ndarray:
    state = np.zeros((1, RNG_STATE_WORDS), dtype=np.uint64)
    seeds = np.array([seed], dtype=np.uint64)
    KERNELS["pcg64_init"](_ptr(seeds), 1, _ptr(state))
    return state


def _rng_cases():
    """24 randomized (seed, m, chunk lengths) triples.

    Chunk patterns straddle the ``REFILL_SIZE`` pre-sample boundary —
    reads just below, exactly at, and above one refill — so the
    minimum-driven refill sizing is exercised, not just the steady state.
    """
    cases = []
    chunk_patterns = [
        [1, 2, 3, 5],
        [7, 1, 19],
        [REFILL_SIZE - 1, 3],
        [REFILL_SIZE, 2],
        [REFILL_SIZE + 17, 5],
        [13, REFILL_SIZE - 2, 13, 64],
    ]
    for index in range(24):
        seed = derive_seed(MASTER_SEED, "kernel-rng", index)
        m = (3, 4, 5, 17, 100, 601, 2048, 5000)[index % 8]
        cases.append((seed, m, chunk_patterns[index % len(chunk_patterns)]))
    return cases


@pytest.mark.parametrize("seed", [0, 1, 3, 2**31, 2**32 - 1, 2**63 - 1, 2**64 - 1])
def test_raw_words_match_pcg64(seed):
    """The in-kernel seeding + raw stream equals numpy's PCG64 exactly."""
    state = _init_state(seed)
    out = np.zeros(128, dtype=np.uint64)
    KERNELS["pcg64_raw"](_ptr(state), out.shape[0], _ptr(out))
    reference = np.random.PCG64(seed).random_raw(out.shape[0])
    assert (out == reference).all(), f"raw stream diverges for seed {seed}"


@pytest.mark.parametrize(
    "bound",
    [1, 2, 3, 17, 1000, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**63],
)
def test_bounded_draws_match_generator_integers(bound):
    """Lemire bounded sampling, including the buffered 32-bit fast path.

    Draws are consumed in uneven chunks so the half-word buffer must
    survive across kernel calls exactly as it does across numpy calls.
    """
    seed = derive_seed(MASTER_SEED, "bounded", bound)
    state = _init_state(seed)
    chunks = (5, 1, 37, 12, 101)
    pieces = []
    for count in chunks:
        out = np.zeros(count, dtype=np.int64)
        KERNELS["bounded_fill"](_ptr(state), bound, count, _ptr(out))
        pieces.append(out)
    generator = np.random.Generator(np.random.PCG64(seed))
    reference = np.concatenate(
        [generator.integers(0, bound, size=count, dtype=np.int64) for count in chunks]
    )
    assert (np.concatenate(pieces) == reference).all(), f"bound {bound} diverges"


@pytest.mark.parametrize(
    "case", _rng_cases(), ids=lambda c: f"s{c[0] % 100000}-m{c[1]}-{len(c[2])}chunks"
)
def test_source_stream_matches_interaction_source(case):
    """The in-kernel scheduler dialect ≡ InteractionSource, chunk by chunk.

    Covers the two-call refill draw order (edges then orientations), the
    ``max(batch, minimum)`` refill sizing, and the encoded ``[0, 2m)``
    pair-index space, for every chunking of the read sequence.
    """
    seed, m, chunks = case
    graph = cycle(m)
    assert graph.n_edges == m
    state = _init_state(seed)
    source_state = np.zeros(3, dtype=np.int64)
    buffer = np.zeros(max(REFILL_SIZE, max(chunks)), dtype=np.int64)
    pieces = []
    for count in chunks:
        out = np.zeros(count, dtype=np.int64)
        KERNELS["source_fill"](
            _ptr(state), _ptr(source_state), _ptr(buffer), m, REFILL_SIZE, count, _ptr(out)
        )
        pieces.append(out)
    kernel_stream = np.concatenate(pieces)
    reference_source = InteractionSource(graph, np.random.default_rng(seed))
    reference = np.concatenate([reference_source.next_pair_indices(c) for c in chunks])
    assert (kernel_stream == reference).all(), (
        f"pair-index stream diverges for seed {seed}, m={m}, chunks={chunks}"
    )
    assert (kernel_stream >= 0).all() and (kernel_stream < 2 * m).all()
    assert int(source_state[2]) == sum(chunks) == reference_source.steps_emitted


#: Edge counts the refill sees (no graph is built: the kernel only reads
#: ``m``).  1 draws no edge; 288 is a 12x12 torus; at 3 * 2^30 Lemire
#: rejects a quarter of all half-words and at 2^31 + 1 about half; 2^32 - 1
#: is the top of the half-word path, 2^32 numpy's full-range 32-bit draw
#: and 2^32 + 1 its 64-bit path.
REFILL_EDGE_COUNTS = (1, 2, 3, 288, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1)
#: Odd refill sizes leave a half-word buffered between the two calls of a
#: refill and between refills.
REFILL_CHUNKS = (REFILL_SIZE + 17, 5, 3, REFILL_SIZE - 1, 2 * REFILL_SIZE + 1)


def _reference_source_fill(generator: np.random.Generator, m: int, chunks) -> np.ndarray:
    """``InteractionSource``'s reads of ``chunks`` on ``m`` edges, without a graph.

    A refill happens on an empty buffer and makes ``_refill``'s two
    ``integers`` calls for ``max(REFILL_SIZE, draws still needed)``
    draws, encoded with :func:`encode_oriented`.
    """
    buffer = np.empty(0, dtype=np.int64)
    cursor = 0
    pieces = []
    for count in chunks:
        needed = count
        while needed:
            if cursor == buffer.shape[0]:
                size = max(REFILL_SIZE, needed)
                edges = generator.integers(0, m, size=size)
                orientations = generator.integers(0, 2, size=size)
                buffer = encode_oriented(edges, orientations, m)
                cursor = 0
            take = min(buffer.shape[0] - cursor, needed)
            pieces.append(buffer[cursor : cursor + take])
            cursor += take
            needed -= take
    return np.concatenate(pieces)


@pytest.mark.parametrize("carried", [False, True], ids=["fresh", "carried-half"])
@pytest.mark.parametrize("m", REFILL_EDGE_COUNTS)
def test_source_fill_rejections_and_carried_half_words(m, carried):
    """Refills that reject half-words or start on a buffered one ≡ NumPy.

    The kernel takes both halves of each PCG64 word, and hands a half left
    over between the edge and orientation calls, or between refills, on
    as numpy's ``next32`` does.  The stream starts either fresh or after
    one ``integers(0, 2**31)``, which leaves a half-word buffered, and
    after the last chunk the whole state row must equal the reference
    Generator's, ``uinteger`` included.
    """
    generator = np.random.default_rng(derive_seed(MASTER_SEED, "refill-halves", m))
    if carried:
        generator.integers(0, 2**31)
    assert generator.bit_generator.state["has_uint32"] == int(carried)
    row = np.zeros(RNG_STATE_WORDS, dtype=np.uint64)
    pack_generator_state(generator, row)
    source_state = np.zeros(3, dtype=np.int64)
    buffer = np.zeros(max(REFILL_CHUNKS), dtype=np.int64)
    pieces = []
    for count in REFILL_CHUNKS:
        out = np.zeros(count, dtype=np.int64)
        KERNELS["source_fill"](
            _ptr(row), _ptr(source_state), _ptr(buffer), m, REFILL_SIZE, count, _ptr(out)
        )
        pieces.append(out)
    reference = _reference_source_fill(generator, m, REFILL_CHUNKS)
    assert (np.concatenate(pieces) == reference).all(), f"stream diverges for m={m}"
    expected = np.zeros(RNG_STATE_WORDS, dtype=np.uint64)
    pack_generator_state(generator, expected)
    assert row.tolist() == expected.tolist(), f"state row diverges for m={m}"


def _bounded_state(seed: int, bound: int, count: int) -> np.ndarray:
    """The RNG row of ``seed`` after ``count`` ``bounded_fill`` draws."""
    state = _init_state(seed)
    out = np.zeros(max(count, 1), dtype=np.int64)
    KERNELS["bounded_fill"](_ptr(state), bound, count, _ptr(out))
    return state[0]


def _epoch_call(process, graph, rows, block, ready):
    """One analytics epoch call; rows in ``ready`` start one merge from done.

    Epidemic rows in ``ready`` start with every node but one informed;
    influence rows in ``ready`` start with every node full but two.  The
    other rows start from scratch, which ``block`` is too short to finish.
    """
    n = graph.n_nodes
    du, dv = directed_tables(graph)
    nrep = rows.shape[0]
    finish = np.full(nrep, -1, dtype=np.int64)
    bound = 2 * graph.n_edges
    if process == "broadcast":
        informed = np.zeros((nrep, n), dtype=np.uint8)
        informed[:, 0] = 1
        informed[ready, :-1] = 1
        counts = informed.sum(axis=1).astype(np.int64)
        get_broadcast_epoch_kernel()(
            _ptr(informed), _ptr(rows), _ptr(du), _ptr(dv), bound, nrep, block, n,
            None, _ptr(counts), _ptr(finish), 2,
        )
    else:
        full = np.array([(1 << n) - 1], dtype=np.uint64)
        bits = np.zeros((nrep, n, 1), dtype=np.uint64)
        bits[:, np.arange(n), 0] = np.uint64(1) << np.arange(n).astype(np.uint64)
        flags = np.zeros((nrep, n), dtype=np.uint8)
        bits[ready, 2:, 0] = full[0]
        bits[ready, 0, 0] = full[0] ^ np.uint64(2)
        bits[ready, 1, 0] = np.uint64(2)
        flags[ready, 2:] = 1
        counts = flags.sum(axis=1).astype(np.int64)
        get_influence_epoch_kernel()(
            _ptr(bits), _ptr(rows), _ptr(du), _ptr(dv), bound, nrep, block, n, 1,
            _ptr(full), _ptr(flags), _ptr(counts), _ptr(finish), 2,
        )
    return finish


@pytest.mark.parametrize("process", ["broadcast", "influence"])
def test_epoch_rows_stop_drawing_at_finish(process):
    """A row finishing at step ``f`` has drawn exactly ``f`` values.

    ``repro_broadcast_epoch`` / ``repro_influence_epoch`` stop a row's
    draws at its finishing step (a caller holding the stream completes
    the block itself); an unfinished row draws the whole block.  Each row
    must equal ``bounded_fill`` of the same seed advanced by that count.
    """
    graph = clique(8) if process == "broadcast" else cycle(8)
    seeds = [derive_seed(MASTER_SEED, "stop-at-finish", process, r) for r in range(8)]
    ready = np.array([r % 2 == 0 for r in range(len(seeds))])
    rows = kernel_rng_rows(seeds)
    block = 6
    finish = _epoch_call(process, graph, rows, block, ready)
    assert (finish[~ready] == -1).all()
    assert ((finish >= 1) & (finish < block)).any(), "no row finished mid-block"
    for r, seed in enumerate(seeds):
        drawn = int(finish[r]) if finish[r] >= 0 else block
        expected = _bounded_state(seed, 2 * graph.n_edges, drawn)
        assert (rows[r] == expected).all(), f"row {r} drew past its finish"
