"""Optional C kernel for the compiled engine.

One shared object holds every native entry point:

* ``repro_run_epoch``, the v6 epoch runner, which advances a whole stack
  of protocol replicas with their seeded pair streams drawn in C;
* the analytics epidemics ``repro_broadcast_epoch`` and
  ``repro_influence_epoch``;
* the RNG primitives behind them (``repro_pcg64_init``,
  ``repro_pcg64_raw``, ``repro_bounded_fill``, ``repro_source_fill``),
  which start from seeds :mod:`repro.core.seeds` has already derived in
  Python and handed over as ``uint64`` words;
* one block function fed pre-drawn pairs from Python, the shard-worker
  pool's ``repro_run_shard_block``;
* the graph layer's ``repro_edge_pass``, one pass over a graph's edges
  that orients and checks them, fills its endpoint buffer and degrees,
  and counts its components with a union-find (behind every
  :class:`repro.graphs.graph.Graph` build and
  :meth:`~repro.graphs.graph.Graph.is_connected`), and
  ``repro_eccentricities``, one queue BFS per node over the graph's CSR
  rows (behind :meth:`~repro.graphs.graph.Graph.eccentricities`).

On machines with
a system C compiler the source below is compiled once, the shared object
is cached under ``src/repro/engine/_build/`` (named by a digest of the
source text and compiler flags) and driven through :mod:`ctypes`.  The
kernel executes the *same* table entries as the scalar loop of
:class:`~repro.engine.stepper.CompiledRun`.

Everything degrades gracefully: no compiler, a failed build, or
``REPRO_DISABLE_NATIVE=1`` simply means every getter here (for example
:func:`get_run_epoch_kernel`) returns ``None``, plans run on the
per-replica engine's scalar loop, graph builds take their
NumPy twin (connectivity by a BFS), and eccentricities their NumPy
matrix or per-source BFS forms.  The epoch runner stops a
row at the first table miss, so filling a table entry stays in Python;
a table set never moves or grows, so the row resumes on the same
``dpack``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from typing import Sequence, Tuple

#: Compiler flags of every kernel build (``REPRO_KERNEL_CFLAGS`` appends).
_CFLAGS = ("-O2", "-shared", "-fPIC")

#: The v5 function set: shard-local runs, fed pre-drawn pairs from
#: Python as ``int64`` node ids (the graph layer's are ``int32``; the
#: caller widens at the call).
_KERNEL_SOURCE_V5 = r"""
#include <stdint.h>

/* A shard-local run: applies interactions [0, nsteps) sequentially
 * against the packed table and one shard's contiguous code block, with
 * an explicit per-draw global step number.
 *
 * Packed entry layout (see repro/engine/compiler.py):
 *   entry = ((na * k + nb) << 4) | ((dl + 2) << 1) | chg,  -1 == missing.
 *
 * The sharded executor reorders commuting draws (all of one shard's
 * local interactions between two boundary events run back to back), so
 * a run's draws are not consecutive in the global stream; steps[i] is
 * draw i's true global step, and last-change bookkeeping records it
 * directly.  Callers pass *last_change_io = 0 and fold the result in
 * with max() — within a run steps[] is increasing, so the kernel's
 * final value is the run's last output change (or 0).
 *
 * Returns the number of interactions applied; a return value < nsteps
 * means entry (iu[ret], iv[ret]) is missing and must be filled by the
 * caller before resuming at offset ret (the v5 miss-resume discipline).
 */
int64_t repro_run_shard_block(int64_t *codes,
                              const int64_t *iu,
                              const int64_t *iv,
                              const int64_t *steps,
                              int64_t nsteps,
                              const int32_t *dpack,
                              int64_t k,
                              int32_t kshift,
                              uint8_t *seen,
                              int64_t *last_change_io,
                              int64_t *leaders_io)
{
    const int64_t kmask = k - 1;
    int64_t last = *last_change_io;
    int64_t leaders = *leaders_io;
    int64_t i;
    for (i = 0; i < nsteps; i++) {
        int64_t u = iu[i];
        int64_t v = iv[i];
        int64_t a = codes[u];
        int64_t b = codes[v];
        int32_t pk = dpack[a * k + b];
        int64_t val, na, nb;
        if (pk < 0)
            break;
        val = (int64_t)(pk >> 4);
        na = val >> kshift;
        nb = val & kmask;
        codes[u] = na;
        codes[v] = nb;
        seen[na] = 1;
        seen[nb] = 1;
        if (pk & 1)
            last = steps[i];
        leaders += ((pk >> 1) & 7) - 2;
    }
    *last_change_io = last;
    *leaders_io = leaders;
    return i;
}
"""

#: Kernel v6: the seeded pair streams move *inside* the kernel.  The C
#: code below is a bit-exact reimplementation of the exact NumPy stack
#: this package draws from — ``SeedSequence`` entropy pooling, the PCG64
#: (XSL-RR 128/64) bit generator including its buffered 32-bit half-word,
#: and ``Generator.integers``'s Lemire bounded sampling — plus the
#: scheduler dialect of :class:`repro.runtime.source.InteractionSource`
#: (refills of ``max(batch, minimum)`` edge draws followed by orientation
#: draws).  Seeds arrive already derived (:mod:`repro.core.seeds` folds
#: them in Python), one ``uint64`` per stream.
#: Every stream produced here is bit-identical to the NumPy draws; the
#: differential contract lives in ``tests/test_kernel_rng.py`` and the
#: golden fixtures.  Every kernel call runs its replica rows in order on
#: the calling thread; parallelism comes from processes.
_KERNEL_SOURCE_V6 = r"""
#include <string.h>

typedef unsigned __int128 repro_u128;

#define REPRO_RNG_WORDS 8

/* An epoch-runner row block: REPRO_ROW_WORDS int64 words per replica
 * (mirrored in repro.engine.native).  Words [0, REPRO_RNG_WORDS) are the
 * PCG64 state row; then the stream's cursor, fill and position; then the
 * row's step count, last output change, leader count, stop status and
 * code-log length (identifier rule). */
#define REPRO_ROW_WORDS 16
#define REPRO_ROW_CURSOR 8
#define REPRO_ROW_FILL 9
#define REPRO_ROW_POSITION 10
#define REPRO_ROW_STEPS 11
#define REPRO_ROW_LAST_CHANGE 12
#define REPRO_ROW_LEADERS 13
#define REPRO_ROW_STATUS 14
#define REPRO_ROW_LOG_LEN 15

/* Epoch-runner row statuses (mirrored in repro.runtime.execute). */
#define REPRO_EPOCH_BUDGET 0
#define REPRO_EPOCH_BOUNDARY 1
#define REPRO_EPOCH_MISS 2
#define REPRO_EPOCH_LOG 3
#define REPRO_EPOCH_SWITCH 4

/* Epoch-runner transition rules (mirrored in repro.engine.native). */
#define REPRO_RULE_TABLE 0
#define REPRO_RULE_IDENTIFIER 1

/* A table-rule code (mirrored in repro.engine.native as TABLE_CODE_DTYPE):
 * every table code is below DEFAULT_MAX_STATES, so it fits two bytes.  The
 * identifier rule's codes id << 3 | sub are int64. */
typedef uint16_t repro_table_code;

/* ---- numpy SeedSequence (pool 4, entropy <= 2 uint32 words) ------ */

static void repro_seedseq_state(uint64_t seed, uint64_t out[4])
{
    uint32_t pool[4];
    uint32_t entropy[2];
    int nent = (seed >> 32) ? 2 : 1;
    uint32_t hash_const = 0x43b0d7e5u;
    int i, src, dst, w;
    entropy[0] = (uint32_t)seed;
    entropy[1] = (uint32_t)(seed >> 32);
    for (i = 0; i < 4; i++) {
        uint32_t value = (i < nent) ? entropy[i] : 0u;
        value ^= hash_const;
        hash_const *= 0x931e8875u;
        value *= hash_const;
        value ^= value >> 16;
        pool[i] = value;
    }
    for (src = 0; src < 4; src++) {
        for (dst = 0; dst < 4; dst++) {
            uint32_t value, result;
            if (src == dst)
                continue;
            value = pool[src];
            value ^= hash_const;
            hash_const *= 0x931e8875u;
            value *= hash_const;
            value ^= value >> 16;
            result = pool[dst] * 0xca01f9ddu - value * 0x4973f715u;
            result ^= result >> 16;
            pool[dst] = result;
        }
    }
    hash_const = 0x8b51f9ddu;
    src = 0;
    for (w = 0; w < 4; w++) {
        uint32_t half[2];
        for (i = 0; i < 2; i++) {
            uint32_t value = pool[src % 4];
            src++;
            value ^= hash_const;
            hash_const *= 0x58f38dedu;
            value *= hash_const;
            value ^= value >> 16;
            half[i] = value;
        }
        out[w] = (uint64_t)half[0] | ((uint64_t)half[1] << 32);
    }
}

/* ---- PCG64 (numpy's pcg_setseq_128_xsl_rr_64) -------------------- */

typedef struct {
    repro_u128 state;
    repro_u128 inc;
    uint32_t buf;
    uint32_t has;
} repro_pcg64;

#define REPRO_PCG_MULT \
    (((repro_u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

/* State rows are REPRO_RNG_WORDS uint64 each:
 * [state_hi, state_lo, inc_hi, inc_lo, has_uint32, uinteger, 0, 0] —
 * exactly the fields of numpy's PCG64 .state dict, so Python can export
 * a live Generator into a row and import it back bit for bit. */
static void repro_pcg64_load(const uint64_t *w, repro_pcg64 *p)
{
    p->state = ((repro_u128)w[0] << 64) | w[1];
    p->inc = ((repro_u128)w[2] << 64) | w[3];
    p->has = (uint32_t)w[4];
    p->buf = (uint32_t)w[5];
}

static void repro_pcg64_store(const repro_pcg64 *p, uint64_t *w)
{
    w[0] = (uint64_t)(p->state >> 64);
    w[1] = (uint64_t)p->state;
    w[2] = (uint64_t)(p->inc >> 64);
    w[3] = (uint64_t)p->inc;
    w[4] = p->has;
    w[5] = p->buf;
}

/* The three draw helpers are forced inline: a caller's generator then
 * lives in registers for its whole loop instead of round-tripping its
 * 128-bit state through memory on every draw. */
static inline __attribute__((always_inline)) uint64_t repro_pcg64_next64(repro_pcg64 *p)
{
    uint64_t hi, lo, x;
    unsigned rot;
    p->state = p->state * REPRO_PCG_MULT + p->inc;
    hi = (uint64_t)(p->state >> 64);
    lo = (uint64_t)p->state;
    x = hi ^ lo;
    rot = (unsigned)(p->state >> 122);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

static inline __attribute__((always_inline)) uint32_t repro_pcg64_next32(repro_pcg64 *p)
{
    uint64_t v;
    if (p->has) {
        p->has = 0;
        return p->buf;
    }
    v = repro_pcg64_next64(p);
    p->buf = (uint32_t)(v >> 32);
    p->has = 1;
    return (uint32_t)v;
}

/* Seed one PCG64 state row through SeedSequence(seed).generate_state(4):
 * words [0,1] form the 128-bit initial state, [2,3] the stream. */
static void repro_pcg64_seed(uint64_t seed, uint64_t *row)
{
    uint64_t w[4];
    repro_pcg64 p;
    repro_u128 initstate, initseq;
    repro_seedseq_state(seed, w);
    initstate = ((repro_u128)w[0] << 64) | w[1];
    initseq = ((repro_u128)w[2] << 64) | w[3];
    p.inc = (initseq << 1) | 1;
    p.state = p.inc; /* = 0 * MULT + inc: the first srandom step */
    p.state += initstate;
    p.state = p.state * REPRO_PCG_MULT + p.inc;
    p.has = 0;
    p.buf = 0;
    repro_pcg64_store(&p, row);
}

/* One seeded PCG64 state row per replica. */
void repro_pcg64_init(const uint64_t *seeds, int64_t nrep, uint64_t *rng_state)
{
    int64_t r;
    for (r = 0; r < nrep; r++)
        repro_pcg64_seed(seeds[r], rng_state + r * REPRO_RNG_WORDS);
}

/* Raw 64-bit outputs (differential tests against PCG64.random_raw). */
void repro_pcg64_raw(uint64_t *rng_state, int64_t count, uint64_t *out)
{
    repro_pcg64 p;
    int64_t i;
    repro_pcg64_load(rng_state, &p);
    for (i = 0; i < count; i++)
        out[i] = repro_pcg64_next64(&p);
    repro_pcg64_store(&p, rng_state);
}

/* Generator.integers(0, rng + 1) — Lemire's bounded sampling with the
 * buffered 32-bit fast path, exactly as in numpy's distributions.c. */
static inline __attribute__((always_inline)) uint64_t repro_bounded64(repro_pcg64 *p,
                                                                      uint64_t rng)
{
    if (rng == 0)
        return 0;
    if (rng <= 0xFFFFFFFFULL) {
        uint32_t rng_excl, leftover;
        uint64_t m;
        if (rng == 0xFFFFFFFFULL)
            return repro_pcg64_next32(p);
        rng_excl = (uint32_t)rng + 1;
        m = (uint64_t)repro_pcg64_next32(p) * rng_excl;
        leftover = (uint32_t)m;
        if (leftover < rng_excl) {
            uint32_t threshold = ((uint32_t)(0xFFFFFFFFu - (uint32_t)rng)) % rng_excl;
            while (leftover < threshold) {
                m = (uint64_t)repro_pcg64_next32(p) * rng_excl;
                leftover = (uint32_t)m;
            }
        }
        return m >> 32;
    }
    if (rng == 0xFFFFFFFFFFFFFFFFULL)
        return repro_pcg64_next64(p);
    {
        uint64_t rng_excl = rng + 1;
        repro_u128 m = (repro_u128)repro_pcg64_next64(p) * rng_excl;
        uint64_t leftover = (uint64_t)m;
        if (leftover < rng_excl) {
            uint64_t threshold = (0xFFFFFFFFFFFFFFFFULL - rng) % rng_excl;
            while (leftover < threshold) {
                m = (repro_u128)repro_pcg64_next64(p) * rng_excl;
                leftover = (uint64_t)m;
            }
        }
        return (uint64_t)(m >> 64);
    }
}

/* integers(0, bound, size=count) into int64 (the directed dialect). */
void repro_bounded_fill(uint64_t *rng_state, uint64_t bound, int64_t count,
                        int64_t *out)
{
    repro_pcg64 p;
    int64_t i;
    uint64_t rng = bound - 1;
    repro_pcg64_load(rng_state, &p);
    for (i = 0; i < count; i++)
        out[i] = (int64_t)repro_bounded64(&p, rng);
    repro_pcg64_store(&p, rng_state);
}

/* ---- The scheduler dialect (InteractionSource._refill in C) ------ */

/* One refill: size = max(batch, minimum), capped at limit (the draws
 * left before the topology's next epoch boundary); all edge draws
 * first, then all orientation draws (the two-call order is part of the
 * seeded-stream definition); encoded as
 * index = edge + (1 - orientation) * m.
 *
 * For 2 <= m < 2^32 both calls run on 32-bit half-words, and the loops
 * below take them exactly as next32 hands them out, with the generator
 * in locals: each LCG advance yields its low half, then its high half.
 * An edge half is Lemire's draw over [0, m), rejected (and the next half
 * tried, as numpy retries) when the low word of half * m falls below
 * (2^32 - m) mod m; an orientation half is integers(0, 2), its top bit,
 * never rejected.  A half buffered on entry is the first edge half; an
 * edge phase ending on a low half hands its high half to the first
 * orientation; an orientation phase ending on a low half leaves its high
 * half buffered.  buf is always the high half of the last word drawn, as
 * numpy's uinteger is, so the state row equals PCG64().state word for
 * word.  m == 1 draws no edge, and m >= 2^32 takes numpy's full-range
 * and 64-bit paths: both keep the per-draw loops.  Callers refill only
 * when a draw is due, so size >= 1. */
static int64_t repro_source_refill(repro_pcg64 *p, int64_t *buffer,
                                   int64_t batch, int64_t minimum, int64_t limit,
                                   int64_t m)
{
    int64_t size = batch > minimum ? batch : minimum;
    repro_pcg64 g;
    uint32_t m32, threshold;
    uint64_t word, prod;
    int64_t i;
    if (size > limit)
        size = limit;
    if (m < 2 || m > 0xFFFFFFFFLL) {
        uint64_t erng = (uint64_t)m - 1;
        for (i = 0; i < size; i++)
            buffer[i] = (int64_t)repro_bounded64(p, erng);
        for (i = 0; i < size; i++) {
            int64_t orient = (int64_t)repro_bounded64(p, 1);
            buffer[i] += (1 - orient) * m;
        }
        return size;
    }
    g = *p;
    m32 = (uint32_t)m;
    threshold = (0u - m32) % m32;
    /* Edge draws: integers(0, m) per slot. */
    i = 0;
    if (g.has) {
        g.has = 0;
        prod = (uint64_t)g.buf * m32;
        if ((uint32_t)prod >= threshold)
            buffer[i++] = (int64_t)(prod >> 32);
    }
    while (i < size) {
        word = repro_pcg64_next64(&g);
        g.buf = (uint32_t)(word >> 32);
        prod = (uint64_t)(uint32_t)word * m32;
        if ((uint32_t)prod >= threshold)
            buffer[i++] = (int64_t)(prod >> 32);
        if (i == size) {
            g.has = 1;
            break;
        }
        prod = (uint64_t)g.buf * m32;
        if ((uint32_t)prod >= threshold)
            buffer[i++] = (int64_t)(prod >> 32);
    }
    /* Orientation draws: integers(0, 2) per slot. */
    i = 0;
    if (g.has) {
        g.has = 0;
        buffer[i++] += (1 - (int64_t)(g.buf >> 31)) * m;
    }
    for (; i + 1 < size; i += 2) {
        word = repro_pcg64_next64(&g);
        buffer[i] += (1 - (int64_t)((uint32_t)word >> 31)) * m;
        buffer[i + 1] += (1 - (int64_t)(word >> 63)) * m;
        g.buf = (uint32_t)(word >> 32);
    }
    if (i < size) {
        word = repro_pcg64_next64(&g);
        g.buf = (uint32_t)(word >> 32);
        g.has = 1;
        buffer[i] += (1 - (int64_t)((uint32_t)word >> 31)) * m;
    }
    *p = g;
    return size;
}

/* next_pair_indices(count) in C.  src_state is [cursor, fill, position];
 * buffer must hold max(batch, count) entries.  Bit-identical to the
 * Python InteractionSource on a static topology for any chunking. */
void repro_source_fill(uint64_t *rng_state, int64_t *src_state,
                       int64_t *buffer, int64_t m, int64_t batch,
                       int64_t count, int64_t *out)
{
    repro_pcg64 p;
    int64_t cursor = src_state[0];
    int64_t fill = src_state[1];
    int64_t position = src_state[2];
    int64_t filled = 0;
    repro_pcg64_load(rng_state, &p);
    while (filled < count) {
        int64_t available = fill - cursor;
        int64_t take;
        if (available == 0) {
            fill = repro_source_refill(&p, buffer, batch, count - filled, INT64_MAX, m);
            cursor = 0;
            available = fill;
        }
        take = available < count - filled ? available : count - filled;
        memcpy(out + filled, buffer + cursor, (size_t)take * sizeof(int64_t));
        cursor += take;
        filled += take;
        position += take;
    }
    repro_pcg64_store(&p, rng_state);
    src_state[0] = cursor;
    src_state[1] = fill;
    src_state[2] = position;
}

/* ---- The v6 epoch runner ----------------------------------------- */

/* Theorem 21 (repro.protocols.identifier) on codes id << 3 | sub, where
 * sub indexes ALL_TOKEN_STATES.  Rule (1) extends an identifier below the
 * threshold 2^k with the role bit (a candidate once it reaches 2^k); rule
 * (2) adopts the partner's larger, fully generated *pre-interaction*
 * identifier (as a follower); rule (3) runs the token step when both
 * sides end in one instance.  tab holds the token semantics, built in
 * Python from token_transition and output: [0, 64) the token step,
 * entry sa << 3 | sb = nsa << 3 | nsb; [64, 72) the leader flag per sub;
 * 72 / 73 the subs of init(candidate) / init(follower).  Returns the
 * flag bits of a packed table entry, ((leader delta + 2) << 1) | output
 * changed, from the old and new subs. */
#define REPRO_ID_LEADER 64
#define REPRO_ID_CANDIDATE 72
#define REPRO_ID_FOLLOWER 73

static inline int32_t repro_identifier_pair(int64_t a, int64_t b,
                                            const int32_t *tab, int64_t threshold,
                                            int64_t *na, int64_t *nb)
{
    const int32_t *lead = tab + REPRO_ID_LEADER;
    const int64_t pre_a = a >> 3;
    const int64_t pre_b = b >> 3;
    int64_t ida = pre_a, idb = pre_b;
    int32_t sa = (int32_t)(a & 7), sb = (int32_t)(b & 7);
    int32_t dl, chg;
    if (ida < threshold) {
        ida = 2 * ida;
        if (ida >= threshold)
            sa = tab[REPRO_ID_CANDIDATE];
    }
    if (idb < threshold) {
        idb = 2 * idb + 1;
        if (idb >= threshold)
            sb = tab[REPRO_ID_CANDIDATE];
    }
    if (ida < pre_b && pre_b >= threshold) {
        ida = pre_b;
        sa = tab[REPRO_ID_FOLLOWER];
    }
    if (idb < pre_a && pre_a >= threshold) {
        idb = pre_a;
        sb = tab[REPRO_ID_FOLLOWER];
    }
    if (ida == idb && ida >= threshold) {
        int32_t tok = tab[(sa << 3) | sb];
        sa = tok >> 3;
        sb = tok & 7;
    }
    *na = (ida << 3) | sa;
    *nb = (idb << 3) | sb;
    dl = lead[sa] - lead[a & 7] + lead[sb] - lead[b & 7];
    chg = lead[sa] != lead[a & 7] || lead[sb] != lead[b & 7];
    return ((dl + 2) << 1) | chg;
}

/* Whether every node holds the same identifier >= threshold.  With one
 * leader, this is the identifier certificate's other necessary
 * condition, so a boundary failing either cannot certify. */
static int repro_identifier_agreed(const int64_t *codes, int64_t n, int64_t threshold)
{
    const int64_t id = codes[0] >> 3;
    int64_t i;
    if (id < threshold)
        return 0;
    for (i = 1; i < n; i++)
        if ((codes[i] >> 3) != id)
            return 0;
    return 1;
}

/* The arguments of one repro_run_epoch call, bundled for its row loop. */
typedef struct {
    void *codes;
    int64_t *rows;
    const uint64_t *seeds;
    int64_t *buffers;
    int64_t buf_cap;
    const int32_t *du;
    const int32_t *dv;
    int64_t m;
    int64_t epoch_end;
    int64_t n;
    const int32_t *dpack;
    int64_t k;
    int32_t kshift;
    uint8_t *seen;
    int64_t *log;
    int64_t log_cap;
    int64_t batch;
    int64_t check_interval;
    int64_t max_steps;
    int32_t precheck;
} repro_epoch_job;

/* Advance replica r until its next stop event: a certificate-cadence
 * boundary that needs a Python certificate check (BOUNDARY), a missing
 * transition-table entry (MISS; buffer[cursor] holds the undecoded pair
 * index, nothing consumed), a full written-code log (LOG; likewise
 * nothing consumed), the topology epoch's end (SWITCH: the row's next
 * draw belongs to the next epoch, whose tables the caller swaps in), or
 * the step budget (BUDGET).  du/dv/m are the active epoch's directed
 * tables (int32 node ids, read from the graph's endpoint buffer) and
 * edge count; epoch_end is that epoch's exclusive end in draws
 * (INT64_MAX on a static topology), and every refill is capped there,
 * as InteractionSource._refill caps it.  With precheck set,
 * boundaries where the kernel-maintained leader count is != 1 (for the
 * identifier rule, also where the identifiers differ or lie below 2^k)
 * are skipped — the certificate cannot hold there — so whole stretches
 * of the measurement run in one call.  Stream consumption (refill sizes
 * and draw order) is bit-identical to the Python InteractionSource read
 * in min(check_interval, remaining) blocks, as the single-run engine
 * does.  The row's stream state and counters live in its row block; with
 * seeds set (the stack's first call), the row's PCG64 words are seeded
 * from seeds[r] first.
 *
 * rule is a compile-time constant at each call site, so the table rule
 * (repro_table_code codes, dpack lookups, the dense seen bitmap) and the
 * identifier rule (int64 codes; k is the threshold 2^bits, dpack its
 * table; each written code is appended to the row's log) each get their
 * own loop. */
static inline __attribute__((always_inline)) void repro_run_epoch_row(
    const repro_epoch_job *job, int64_t r, const int32_t rule)
{
    repro_table_code *tcodes
        = rule == REPRO_RULE_TABLE ? (repro_table_code *)job->codes + r * job->n : 0;
    int64_t *codes = rule == REPRO_RULE_TABLE ? 0 : (int64_t *)job->codes + r * job->n;
    int64_t *row = job->rows + r * REPRO_ROW_WORDS;
    uint64_t *rngw = (uint64_t *)row;
    int64_t *buffer = job->buffers + r * job->buf_cap;
    const int32_t *du = job->du;
    const int32_t *dv = job->dv;
    const int64_t m = job->m;
    const int32_t *dpack = job->dpack;
    const int64_t k = job->k;
    const int32_t kshift = job->kshift;
    const int64_t kmask = k - 1;
    uint8_t *seen = rule == REPRO_RULE_TABLE ? job->seen + r * k : 0;
    int64_t *log = rule == REPRO_RULE_TABLE ? 0 : job->log + r * job->log_cap;
    const int64_t log_cap = job->log_cap;
    const int64_t batch = job->batch;
    const int64_t check_interval = job->check_interval;
    const int64_t max_steps = job->max_steps;
    const int32_t precheck = job->precheck;
    int64_t *status = row + REPRO_ROW_STATUS;
    repro_pcg64 p;
    int64_t cursor = row[REPRO_ROW_CURSOR];
    int64_t fill = row[REPRO_ROW_FILL];
    int64_t position = row[REPRO_ROW_POSITION];
    int64_t step = row[REPRO_ROW_STEPS];
    int64_t last = row[REPRO_ROW_LAST_CHANGE];
    int64_t lead = row[REPRO_ROW_LEADERS];
    int64_t nlog = rule == REPRO_RULE_TABLE ? 0 : row[REPRO_ROW_LOG_LEN];
    if (job->seeds)
        repro_pcg64_seed(job->seeds[r], rngw);
    repro_pcg64_load(rngw, &p);
    while (step < max_steps) {
        int64_t block_end = (step / check_interval + 1) * check_interval;
        if (block_end > max_steps)
            block_end = max_steps;
        while (step < block_end) {
            int64_t idx, u, v, a, b, na, nb;
            int32_t pk;
            if (cursor >= fill) {
                if (position >= job->epoch_end) {
                    *status = REPRO_EPOCH_SWITCH;
                    goto done;
                }
                fill = repro_source_refill(&p, buffer, batch, block_end - step,
                                           job->epoch_end - position, m);
                cursor = 0;
            }
            idx = buffer[cursor];
            u = du[idx];
            v = dv[idx];
            a = rule == REPRO_RULE_TABLE ? tcodes[u] : codes[u];
            b = rule == REPRO_RULE_TABLE ? tcodes[v] : codes[v];
            if (rule == REPRO_RULE_TABLE) {
                int64_t val;
                pk = dpack[a * k + b];
                if (pk < 0) {
                    *status = REPRO_EPOCH_MISS;
                    goto done;
                }
                val = (int64_t)(pk >> 4);
                na = val >> kshift;
                nb = val & kmask;
            } else {
                if (nlog > log_cap - 2) {
                    *status = REPRO_EPOCH_LOG;
                    goto done;
                }
                pk = repro_identifier_pair(a, b, dpack, k, &na, &nb);
            }
            cursor++;
            position++;
            if (rule == REPRO_RULE_TABLE) {
                tcodes[u] = (repro_table_code)na;
                tcodes[v] = (repro_table_code)nb;
                seen[na] = 1;
                seen[nb] = 1;
            } else {
                codes[u] = na;
                codes[v] = nb;
                if (na != a)
                    log[nlog++] = na;
                if (nb != b)
                    log[nlog++] = nb;
            }
            step++;
            if (pk & 1)
                last = step;
            lead += ((pk >> 1) & 7) - 2;
        }
        if (!precheck
            || (lead == 1
                && (rule == REPRO_RULE_TABLE
                    || repro_identifier_agreed(codes, job->n, k)))) {
            *status = REPRO_EPOCH_BOUNDARY;
            goto done;
        }
    }
    *status = REPRO_EPOCH_BUDGET;
done:
    repro_pcg64_store(&p, rngw);
    row[REPRO_ROW_CURSOR] = cursor;
    row[REPRO_ROW_FILL] = fill;
    row[REPRO_ROW_POSITION] = position;
    row[REPRO_ROW_STEPS] = step;
    row[REPRO_ROW_LAST_CHANGE] = last;
    row[REPRO_ROW_LEADERS] = lead;
    if (rule != REPRO_RULE_TABLE)
        row[REPRO_ROW_LOG_LEN] = nlog;
}

/* One specialised row loop per rule, each compiled on its own. */
static __attribute__((noinline)) void repro_run_epoch_row_table(
    const repro_epoch_job *job, int64_t r)
{
    repro_run_epoch_row(job, r, REPRO_RULE_TABLE);
}

static __attribute__((noinline)) void repro_run_epoch_row_identifier(
    const repro_epoch_job *job, int64_t r)
{
    repro_run_epoch_row(job, r, REPRO_RULE_IDENTIFIER);
}

/* codes is the (nrep x n) code block and rows the (nrep x
 * REPRO_ROW_WORDS) row block.  seeds (nrep) seeds every row's PCG64 words
 * before it runs: the caller passes it on a stack's first call, on zeroed
 * rows, and NULL on every later call.  Table rule: codes are
 * repro_table_code and seen is the (nrep x k) code bitmap; log is unused.
 * Identifier rule: codes are int64, log is (nrep x log_cap) and each
 * row's REPRO_ROW_LOG_LEN word counts its entries (the caller empties it
 * after LOG); seen is unused.  All rows share one topology epoch: a row
 * that stopped at SWITCH stops there again, drawing nothing, until the
 * caller passes the next epoch's tables. */
void repro_run_epoch(void *codes, int64_t *rows, const uint64_t *seeds,
                     int64_t *buffers, int64_t buf_cap,
                     const int32_t *du, const int32_t *dv, int64_t m,
                     int64_t epoch_end, int64_t nrep, int64_t n,
                     int32_t rule, const int32_t *dpack, int64_t k, int32_t kshift,
                     uint8_t *seen, int64_t *log, int64_t log_cap,
                     int64_t batch, int64_t check_interval, int64_t max_steps,
                     int32_t precheck)
{
    const repro_epoch_job job = {
        codes, rows, seeds, buffers, buf_cap, du, dv, m, epoch_end, n,
        dpack, k, kshift, seen, log, log_cap, batch, check_interval, max_steps, precheck,
    };
    int64_t r;
    for (r = 0; r < nrep; r++) {
        if (rule == REPRO_RULE_IDENTIFIER)
            repro_run_epoch_row_identifier(&job, r);
        else
            repro_run_epoch_row_table(&job, r);
    }
}

/* ---- Analytics epochs: in-kernel directed-dialect streams -------- */

/* One lockstep block of the single-source epidemic with draws generated
 * in-kernel (integers(0, bound) per step, the directed dialect), decoded
 * through the graph's int32 directed tables du/dv.  Row r
 * starts from informed row r, counts[r] informed nodes and stopmask row r
 * (NULL: finish when all n nodes are informed; else when a newly informed
 * node has its stop bit set — distance-k propagation).  finish[r] gets
 * the 1-based offset of the finishing step, or -1.  A row stops drawing
 * at its finishing step, so its RNG row has advanced by exactly
 * finish[r] draws (the whole block when unfinished); a caller that holds
 * the stream completes the block itself. */
void repro_broadcast_epoch(uint8_t *informed, uint64_t *rng_state,
                           const int32_t *du, const int32_t *dv,
                           uint64_t bound, int64_t nrep, int64_t block,
                           int64_t n, const uint8_t *stopmask,
                           int64_t *counts, int64_t *finish)
{
    const uint64_t rng = bound - 1;
    int64_t r;
    for (r = 0; r < nrep; r++) {
        uint8_t *inf = informed + r * n;
        const uint8_t *stop = stopmask ? stopmask + r * n : 0;
        repro_pcg64 p;
        int64_t count = counts[r];
        int64_t fin = -1;
        int64_t i;
        repro_pcg64_load(rng_state + r * REPRO_RNG_WORDS, &p);
        for (i = 0; i < block && fin < 0; i++) {
            int64_t idx = (int64_t)repro_bounded64(&p, rng);
            int64_t u = du[idx];
            int64_t v = dv[idx];
            uint8_t a = inf[u];
            uint8_t b = inf[v];
            if (a != b) {
                int64_t fresh = a ? v : u;
                inf[u] = 1;
                inf[v] = 1;
                count++;
                if (stop ? stop[fresh] : (count == n))
                    fin = i + 1;
            }
        }
        repro_pcg64_store(&p, rng_state + r * REPRO_RNG_WORDS);
        counts[r] = count;
        finish[r] = fin;
    }
}

/* All-pairs influence block with in-kernel draws.  bits is (nrep x n x w)
 * packed uint64 influencer bitsets (word j of node u holds sources
 * 64j..64j+63); full is the w-word mask with the low n bits set;
 * full_flags (nrep x n) caches which nodes already hold it, so the word
 * compare runs only on merges that can improve.  A row finishes when all
 * n nodes are full (counts[r] == n); finish[] and the stop-at-finish RNG
 * contract are as in repro_broadcast_epoch. */
void repro_influence_epoch(uint64_t *bits, uint64_t *rng_state,
                           const int32_t *du, const int32_t *dv,
                           uint64_t bound, int64_t nrep, int64_t block,
                           int64_t n, int64_t w, const uint64_t *full,
                           uint8_t *full_flags, int64_t *counts,
                           int64_t *finish)
{
    const uint64_t rng = bound - 1;
    int64_t r;
    for (r = 0; r < nrep; r++) {
        uint64_t *rb = bits + r * n * w;
        uint8_t *flags = full_flags + r * n;
        repro_pcg64 p;
        int64_t count = counts[r];
        int64_t fin = -1;
        int64_t i;
        repro_pcg64_load(rng_state + r * REPRO_RNG_WORDS, &p);
        for (i = 0; i < block && fin < 0; i++) {
            int64_t idx = (int64_t)repro_bounded64(&p, rng);
            int64_t u, v, j;
            uint8_t fu, fv;
            uint64_t *pu, *pv;
            int alleq;
            u = du[idx];
            v = dv[idx];
            fu = flags[u];
            fv = flags[v];
            if (fu && fv)
                continue;
            pu = rb + u * w;
            pv = rb + v * w;
            alleq = 1;
            for (j = 0; j < w; j++) {
                uint64_t merged = pu[j] | pv[j];
                pu[j] = merged;
                pv[j] = merged;
                if (merged != full[j])
                    alleq = 0;
            }
            if (alleq) {
                count += (fu == 0) + (fv == 0);
                flags[u] = 1;
                flags[v] = 1;
                if (count == n)
                    fin = i + 1;
            }
        }
        repro_pcg64_store(&p, rng_state + r * REPRO_RNG_WORDS);
        counts[r] = count;
        finish[r] = fin;
    }
}
"""

#: The graph layer's one pass over a graph's edges (every build's
#: validation, endpoint buffer, degrees and connectivity check) and its
#: all-sources BFS (every node's eccentricity).
_KERNEL_SOURCE_GRAPH = r"""
/* One pass over the m undirected edges (eu[i], ev[i]) of a graph on
 * nodes [0, n), in input order.  Node ids are int32 (n <= 2^31 - 1);
 * each end is widened before it is compared or used.  Edge i is oriented
 * to (lo, hi), and, when out is given, written to out[i], out[m + i] and
 * out[2m + i]: out is the graph's 3m-word endpoint buffer [lo | hi | lo].
 * eu and ev may be its first two thirds, because each edge is read before
 * its slots are written.  The pass stops at the first edge with an end
 * outside [0, n), before anything is indexed with it, and returns that
 * edge's index; otherwise it returns m.  degrees (n words, zeroed by the
 * caller, or NULL) counts both ends of every edge; parent (n words of
 * scratch, or NULL) runs a union-find with path halving, each union
 * linking the larger root under the smaller.
 *
 * info[0]: the node of the first self-loop, or -1;
 * info[1]: 1 when every (lo, hi) strictly follows the one before it,
 *          lexicographically (the edges then hold no duplicate), else 0;
 * info[2]: the number of connected components (n without parent). */
int64_t repro_edge_pass(const int32_t *eu,
                        const int32_t *ev,
                        int64_t m,
                        int64_t n,
                        int32_t *out,
                        int32_t *degrees,
                        int32_t *parent,
                        int64_t *info)
{
    int64_t self_loop = -1, increasing = 1, components = n;
    int64_t prev_lo = -1, prev_hi = -1;
    int64_t i;
    if (parent)
        for (i = 0; i < n; i++)
            parent[i] = (int32_t)i;
    for (i = 0; i < m; i++) {
        int64_t a = eu[i];
        int64_t b = ev[i];
        int64_t lo = a < b ? a : b;
        int64_t hi = a < b ? b : a;
        if (lo < 0 || hi >= n)
            break;
        if (out) {
            out[i] = (int32_t)lo;
            out[m + i] = (int32_t)hi;
            out[2 * m + i] = (int32_t)lo;
        }
        if (lo == hi && self_loop < 0)
            self_loop = lo;
        if (lo < prev_lo || (lo == prev_lo && hi <= prev_hi))
            increasing = 0;
        prev_lo = lo;
        prev_hi = hi;
        if (degrees) {
            degrees[lo]++;
            degrees[hi]++;
        }
        if (parent) {
            while (parent[lo] != lo) {
                parent[lo] = parent[parent[lo]];
                lo = parent[lo];
            }
            while (parent[hi] != hi) {
                parent[hi] = parent[parent[hi]];
                hi = parent[hi];
            }
            if (lo == hi)
                continue;
            if (lo < hi)
                parent[hi] = (int32_t)lo;
            else
                parent[lo] = (int32_t)hi;
            components--;
        }
    }
    info[0] = self_loop;
    info[1] = increasing;
    info[2] = components;
    return i;
}

/* The eccentricity of every node of a graph on nodes [0, n), given as
 * compressed sparse rows: the neighbours of v are indices[indptr[v]]
 * up to indices[indptr[v + 1] - 1] (int32 node ids; int64 offsets).  One
 * queue BFS per source, which stops scanning rows once all n nodes are
 * queued (on a dense graph, after a row or two).  The queue holds nodes
 * in order of distance, so ecc[s] is the distance of the last node
 * queued: the largest finite distance from s (0 for an isolated node).
 * dist and queue are n words of scratch: dist is -1 for every node
 * between two sources, because each BFS resets exactly the nodes it
 * reached. */
void repro_eccentricities(const int64_t *indptr,
                          const int32_t *indices,
                          int64_t n,
                          int64_t *dist,
                          int32_t *queue,
                          int64_t *ecc)
{
    int64_t s, k;
    for (s = 0; s < n; s++)
        dist[s] = -1;
    for (s = 0; s < n; s++) {
        int64_t head = 0, tail = 1;
        dist[s] = 0;
        queue[0] = (int32_t)s;
        while (head < tail && tail < n) {
            int64_t u = queue[head++];
            int64_t next = dist[u] + 1;
            for (k = indptr[u]; k < indptr[u + 1]; k++) {
                int64_t w = indices[k];
                if (dist[w] < 0) {
                    dist[w] = next;
                    queue[tail++] = (int32_t)w;
                }
            }
        }
        ecc[s] = dist[queue[tail - 1]];
        for (k = 0; k < tail; k++)
            dist[queue[k]] = -1;
    }
}
"""

#: The whole translation unit of the one kernel build.
_KERNEL_SOURCE = _KERNEL_SOURCE_V5 + _KERNEL_SOURCE_V6 + _KERNEL_SOURCE_GRAPH

_UNSET = object()
_cached_kernel = _UNSET

#: uint64 words per replica in a PCG64 state row (the fields of numpy's
#: ``PCG64().state`` dict: state hi/lo, inc hi/lo, has_uint32, uinteger,
#: plus two words of padding).
RNG_STATE_WORDS = 8
#: int64 words per replica in a ``repro_run_epoch`` row block (mirrors
#: REPRO_ROW_WORDS): the PCG64 state row in words ``[0, RNG_STATE_WORDS)``,
#: then one word per name below.  ``ROW_STATUS`` holds the row's stop
#: status and ``ROW_LOG_LEN`` its code-log length (identifier rule).
STACK_ROW_WORDS = 16
ROW_CURSOR, ROW_FILL, ROW_POSITION = 8, 9, 10
ROW_STEPS, ROW_LAST_CHANGE, ROW_LEADERS, ROW_STATUS, ROW_LOG_LEN = 11, 12, 13, 14, 15
#: ``repro_run_epoch`` transition rules (mirror REPRO_RULE_*): packed
#: table lookups (:class:`repro.engine.compiler.CompiledProtocol`), or
#: Theorem 21 computed arithmetically on codes ``id << 3 | sub``
#: (:meth:`repro.protocols.identifier.IdentifierLeaderElection.kernel_rule`).
RULE_TABLE, RULE_IDENTIFIER = 0, 1
#: The dtype of a table-rule code on the v6 stack (mirrors
#: ``repro_table_code``): every table code is below
#: :data:`repro.engine.compiler.DEFAULT_MAX_STATES`, which checks that it
#: fits.  The identifier rule's codes are ``int64``.
TABLE_CODE_DTYPE = "uint16"
#: ``repro_run_epoch``'s ``epoch_end`` on a static topology (INT64_MAX:
#: no refill is capped and no row stops to switch epochs).
NO_EPOCH_END = (1 << 63) - 1


def data_address(array) -> int:
    """The address of a NumPy array's data, for a kernel argument.

    ``ctypes.c_char.from_buffer`` reads it through the buffer protocol
    for about a third of what ``array.ctypes.data`` costs (which builds a
    ctypes helper object per lookup).  It accepts only writable,
    C-contiguous, non-empty arrays; anything else takes
    ``array.ctypes.data``.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):
        return array.ctypes.data


def _build_directory() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_build")
    os.makedirs(path, exist_ok=True)
    return path


def _extra_cflags():
    """Extra compiler flags from ``REPRO_KERNEL_CFLAGS`` (sanitizer builds)."""
    return os.environ.get("REPRO_KERNEL_CFLAGS", "").split()


def _build_paths(build_dir: str, source: str, flags: Sequence[str]) -> Tuple[str, str]:
    """The ``(.c, .so)`` paths of one build, named by a digest of its inputs.

    Any edit to the embedded source or to the flags gives new file
    names, so a stale shared object in the build cache is never loaded.
    """
    digest = hashlib.sha256("\0".join([source, *flags]).encode("utf-8")).hexdigest()[:16]
    stem = os.path.join(build_dir, f"_kernel_{digest}")
    return stem + ".c", stem + ".so"


def _compile_kernel():
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    flags = [*_CFLAGS, *_extra_cflags()]
    # One build: a host that cannot compile the full source (it needs
    # 128-bit arithmetic) gets no kernel and runs the Python fallbacks.
    src_path, so_path = _build_paths(_build_directory(), _KERNEL_SOURCE, flags)
    if not os.path.exists(so_path):
        tmp = f".tmp{os.getpid()}"
        with open(src_path + tmp, "w", encoding="utf-8") as handle:
            handle.write(_KERNEL_SOURCE)
        os.replace(src_path + tmp, src_path)
        subprocess.run(
            [compiler, *flags, "-o", so_path + tmp, src_path],
            check=True,
            capture_output=True,
            timeout=180,
        )
        os.replace(so_path + tmp, so_path)
    return _bind_kernels(ctypes.CDLL(so_path))


def _bind_v6(library):
    """ctypes signatures for the v6 (in-kernel RNG) entry points."""
    pcg64_init = library.repro_pcg64_init
    pcg64_init.restype = None
    pcg64_init.argtypes = [
        ctypes.c_void_p,  # seeds (nrep)
        ctypes.c_int64,  # nrep
        ctypes.c_void_p,  # rng_state (nrep x RNG_STATE_WORDS)
    ]
    pcg64_raw = library.repro_pcg64_raw
    pcg64_raw.restype = None
    pcg64_raw.argtypes = [
        ctypes.c_void_p,  # rng_state (one row)
        ctypes.c_int64,  # count
        ctypes.c_void_p,  # out (count)
    ]
    bounded_fill = library.repro_bounded_fill
    bounded_fill.restype = None
    bounded_fill.argtypes = [
        ctypes.c_void_p,  # rng_state (one row)
        ctypes.c_uint64,  # bound
        ctypes.c_int64,  # count
        ctypes.c_void_p,  # out (count)
    ]
    source_fill = library.repro_source_fill
    source_fill.restype = None
    source_fill.argtypes = [
        ctypes.c_void_p,  # rng_state (one row)
        ctypes.c_void_p,  # src_state (one row)
        ctypes.c_void_p,  # buffer (>= max(batch, count))
        ctypes.c_int64,  # m
        ctypes.c_int64,  # batch
        ctypes.c_int64,  # count
        ctypes.c_void_p,  # out (count)
    ]
    run_epoch = library.repro_run_epoch
    run_epoch.restype = None
    run_epoch.argtypes = [
        ctypes.c_void_p,  # codes (nrep x n; TABLE_CODE_DTYPE, or int64 for RULE_IDENTIFIER)
        ctypes.c_void_p,  # rows (nrep x STACK_ROW_WORDS)
        ctypes.c_void_p,  # seeds (nrep; the stack's first call) or None
        ctypes.c_void_p,  # buffers (nrep x buf_cap)
        ctypes.c_int64,  # buf_cap
        ctypes.c_void_p,  # du (2m int32)
        ctypes.c_void_p,  # dv (2m int32)
        ctypes.c_int64,  # m (the active epoch's edge count)
        ctypes.c_int64,  # epoch_end (the active epoch's end; NO_EPOCH_END if none)
        ctypes.c_int64,  # nrep
        ctypes.c_int64,  # n
        ctypes.c_int32,  # rule (RULE_TABLE / RULE_IDENTIFIER)
        ctypes.c_void_p,  # dpack (table rule) or the identifier rule's table
        ctypes.c_int64,  # k (table stride) or the identifier threshold 2^bits
        ctypes.c_int32,  # kshift
        ctypes.c_void_p,  # seen (nrep x k; table rule)
        ctypes.c_void_p,  # log (nrep x log_cap; identifier rule)
        ctypes.c_int64,  # log_cap
        ctypes.c_int64,  # batch
        ctypes.c_int64,  # check_interval
        ctypes.c_int64,  # max_steps
        ctypes.c_int32,  # precheck
    ]
    broadcast_epoch = library.repro_broadcast_epoch
    broadcast_epoch.restype = None
    broadcast_epoch.argtypes = [
        ctypes.c_void_p,  # informed (nrep x n)
        ctypes.c_void_p,  # rng_state (nrep x RNG_STATE_WORDS)
        ctypes.c_void_p,  # du (2m int32)
        ctypes.c_void_p,  # dv (2m int32)
        ctypes.c_uint64,  # bound (2m)
        ctypes.c_int64,  # nrep
        ctypes.c_int64,  # block
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # stopmask (nrep x n) or None
        ctypes.c_void_p,  # counts (nrep)
        ctypes.c_void_p,  # finish (nrep)
    ]
    influence_epoch = library.repro_influence_epoch
    influence_epoch.restype = None
    influence_epoch.argtypes = [
        ctypes.c_void_p,  # bits (nrep x n x w)
        ctypes.c_void_p,  # rng_state (nrep x RNG_STATE_WORDS)
        ctypes.c_void_p,  # du (2m int32)
        ctypes.c_void_p,  # dv (2m int32)
        ctypes.c_uint64,  # bound (2m)
        ctypes.c_int64,  # nrep
        ctypes.c_int64,  # block
        ctypes.c_int64,  # n
        ctypes.c_int64,  # w
        ctypes.c_void_p,  # full (w)
        ctypes.c_void_p,  # full_flags (nrep x n)
        ctypes.c_void_p,  # counts (nrep)
        ctypes.c_void_p,  # finish (nrep)
    ]
    return {
        "pcg64_init": pcg64_init,
        "pcg64_raw": pcg64_raw,
        "bounded_fill": bounded_fill,
        "source_fill": source_fill,
        "run_epoch": run_epoch,
        "broadcast_epoch": broadcast_epoch,
        "influence_epoch": influence_epoch,
    }


#: The v6 RNG/stream primitives :func:`get_rng_kernels` hands out.
_RNG_KERNEL_NAMES = (
    "pcg64_init",
    "pcg64_raw",
    "bounded_fill",
    "source_fill",
)


def _bind_kernels(library):
    run_shard_block = library.repro_run_shard_block
    run_shard_block.restype = ctypes.c_int64
    run_shard_block.argtypes = [
        ctypes.c_void_p,  # codes (one shard's contiguous block)
        ctypes.c_void_p,  # iu (shard-local initiator indices)
        ctypes.c_void_p,  # iv (shard-local responder indices)
        ctypes.c_void_p,  # steps (per-draw global step numbers)
        ctypes.c_int64,  # nsteps
        ctypes.c_void_p,  # dpack
        ctypes.c_int64,  # k
        ctypes.c_int32,  # kshift
        ctypes.c_void_p,  # seen
        ctypes.POINTER(ctypes.c_int64),  # last_change_io
        ctypes.POINTER(ctypes.c_int64),  # leaders_io
    ]
    edge_pass = library.repro_edge_pass
    edge_pass.restype = ctypes.c_int64
    edge_pass.argtypes = [
        ctypes.c_void_p,  # eu (m int32)
        ctypes.c_void_p,  # ev (m int32)
        ctypes.c_int64,  # m
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # out (3m int32) or None
        ctypes.c_void_p,  # degrees (n int32; zeroed) or None
        ctypes.c_void_p,  # parent (n int32; scratch) or None
        ctypes.c_void_p,  # info (3)
    ]
    eccentricities = library.repro_eccentricities
    eccentricities.restype = None
    eccentricities.argtypes = [
        ctypes.c_void_p,  # indptr (n + 1)
        ctypes.c_void_p,  # indices (2m int32)
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # dist (n; scratch)
        ctypes.c_void_p,  # queue (n int32; scratch)
        ctypes.c_void_p,  # ecc (n)
    ]
    kernels = {
        "run_shard_block": run_shard_block,
        "edge_pass": edge_pass,
        "eccentricities": eccentricities,
        **_bind_v6(library),
    }
    kernels["rng"] = {name: kernels[name] for name in _RNG_KERNEL_NAMES}
    return kernels


def _kernels():
    global _cached_kernel
    if _cached_kernel is not _UNSET:
        return _cached_kernel
    if os.environ.get("REPRO_DISABLE_NATIVE"):
        _cached_kernel = None
        return None
    try:
        _cached_kernel = _compile_kernel()
    except Exception:
        _cached_kernel = None
    return _cached_kernel


def get_run_shard_kernel():
    """The shard-local block-run entry point (explicit step array), or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["run_shard_block"]


def get_run_epoch_kernel():
    """The v6 whole-epoch protocol kernel (in-kernel streams), or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["run_epoch"]


def get_broadcast_epoch_kernel():
    """The v6 epidemic kernel with in-kernel draws, or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["broadcast_epoch"]


def get_influence_epoch_kernel():
    """The v6 all-pairs influence kernel with in-kernel draws, or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["influence_epoch"]


def get_edge_pass_kernel():
    """The graph layer's one pass over an edge list (orientation, checks,
    endpoint buffer, degrees, union-find), or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["edge_pass"]


def get_eccentricity_kernel():
    """The graph layer's all-sources BFS over a graph's CSR rows (every
    node's eccentricity in one call), or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["eccentricities"]


def get_rng_kernels():
    """The v6 RNG/stream primitives for the differential tests, or ``None``.

    Keys: ``pcg64_init``, ``pcg64_raw``, ``bounded_fill``,
    ``source_fill``.  One dict per kernel build, shared by every caller.
    """
    kernels = _kernels()
    return None if kernels is None else kernels["rng"]


def reset_kernel_cache() -> None:
    """Forget the cached kernel handle (tests toggling the env vars)."""
    global _cached_kernel
    _cached_kernel = _UNSET
