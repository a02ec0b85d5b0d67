"""Unit tests for the protocol compiler (repro.engine.compiler)."""

from __future__ import annotations

import os
import re
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import FOLLOWER, LEADER, PopulationProtocol
from repro.engine.compiler import (
    DEFAULT_MAX_STATES,
    CompiledProtocol,
    ProtocolCompilationError,
    clear_compilation_cache,
    compilation_worthwhile,
    compile_protocol,
    get_compiled,
)
from repro.protocols import (
    ALL_STAR_STATES,
    ALL_TOKEN_STATES,
    StarLeaderElection,
    TokenLeaderElection,
)


class CountingProtocol(PopulationProtocol):
    """Unbounded counter protocol used to exercise table growth."""

    name = "counting"

    def initial_state(self, input_symbol=None):
        return 0

    def transition(self, initiator, responder):
        return initiator + 1, responder

    def output(self, state):
        return LEADER if state == 0 else FOLLOWER


class TestCompiledProtocol:
    def test_token_states_enumerated_eagerly(self):
        compiled = compile_protocol(TokenLeaderElection())
        assert compiled.n_states == len(ALL_TOKEN_STATES)
        # Eager pair fill for tiny protocols: tables are complete up front.
        assert compiled.tables_complete
        assert compiled.filled_pairs == len(ALL_TOKEN_STATES) ** 2

    def test_packed_entries_roundtrip(self):
        protocol = TokenLeaderElection()
        compiled = compile_protocol(protocol)
        stride = compiled.stride
        for a, state_a in enumerate(compiled.states):
            for b, state_b in enumerate(compiled.states):
                packed = int(compiled.dpack[a * stride + b])
                assert packed >= 0
                successors = packed >> 4
                na, nb = successors >> compiled.kshift, successors & (stride - 1)
                expected = protocol.transition(state_a, state_b)
                assert compiled.states[na] == expected[0]
                assert compiled.states[nb] == expected[1]
                # Flag bits: output change and leader delta.
                chg = packed & 1
                delta = ((packed >> 1) & 7) - 2
                out = protocol.output
                assert chg == int(
                    out(expected[0]) != out(state_a) or out(expected[1]) != out(state_b)
                )
                leaders_before = sum(out(s) == LEADER for s in (state_a, state_b))
                leaders_after = sum(out(s) == LEADER for s in expected)
                assert delta == leaders_after - leaders_before

    def test_scalar_entries_match_tables(self):
        protocol = StarLeaderElection()
        compiled = compile_protocol(protocol)
        for a in range(compiled.n_states):
            for b in range(compiled.n_states):
                entry = compiled.scalar_entry(a, b)
                expected = protocol.transition(compiled.states[a], compiled.states[b])
                if entry is None:
                    # Exact no-op: successors equal inputs, no output change.
                    assert expected == (compiled.states[a], compiled.states[b])
                else:
                    na, nb, _dl, _chg = entry
                    assert compiled.states[na] == expected[0]
                    assert compiled.states[nb] == expected[1]

    def test_growth_preserves_entries(self):
        compiled = compile_protocol(CountingProtocol(), max_states=512)
        code = compiled.code_for(0)
        # Force discovery past the initial stride of 64 through the miss
        # path both executors share.
        for _ in range(130):
            code = compiled.scalar_entry(code, code)[0]
        assert compiled.n_states > 64
        assert compiled.stride >= 128
        # Every entry filled before a growth survived the repack of the
        # packed table (the one the v6 kernel reads).
        stride = compiled.stride
        for value in range(compiled.n_states - 1):
            code = compiled.code_for(value)
            packed = int(compiled.dpack[code * stride + code])
            assert packed >= 0
            successors = packed >> 4
            assert compiled.states[successors >> compiled.kshift] == value + 1
            assert successors & (stride - 1) == code

    def test_state_explosion_raises(self):
        compiled = compile_protocol(CountingProtocol(), max_states=32)
        with pytest.raises(ProtocolCompilationError):
            for value in range(40):
                compiled.code_for(value)

    def test_non_memoisable_protocol_rejected(self):
        class RandomisedProtocol(CountingProtocol):
            cacheable_transitions = False

        with pytest.raises(ProtocolCompilationError):
            compile_protocol(RandomisedProtocol())

    def test_max_states_capped_at_packing_limit(self):
        compiled = compile_protocol(TokenLeaderElection(), max_states=10**9)
        assert compiled.max_states <= 8192


def _encode_by_code_for(compiled, states):
    """Reference encoder: one ``code_for`` call per element."""
    return np.fromiter((compiled.code_for(s) for s in states), dtype=np.int64)


def _registry(compiled):
    return (
        compiled.states,
        compiled.index,
        compiled.out_codes,
        compiled.is_leader_list,
        compiled.stride,
        compiled._leader_np.tolist(),
    )


class TestEncode:
    """``encode`` is byte-identical to a per-element ``code_for`` loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        states=st.lists(st.integers(min_value=0, max_value=90), max_size=80),
        known=st.lists(st.integers(min_value=0, max_value=90), max_size=5),
        max_states=st.integers(min_value=1, max_value=100),
    )
    def test_matches_per_element_loop(self, states, known, max_states):
        """Same codes, same registration order, same error and prefix."""
        fast = compile_protocol(CountingProtocol(), max_states=max_states)
        slow = compile_protocol(CountingProtocol(), max_states=max_states)
        for compiled in (fast, slow):
            for state in known[:max_states]:
                compiled.code_for(state)
        try:
            expected = _encode_by_code_for(slow, states)
        except ProtocolCompilationError as error:
            with pytest.raises(ProtocolCompilationError, match=re.escape(str(error))):
                fast.encode(states)
        else:
            codes = fast.encode(states)
            assert codes.dtype == np.int64
            assert codes.tolist() == expected.tolist()
        assert _registry(fast) == _registry(slow)

    def test_generator_input(self):
        states = [4, 1, 4, 0, 1, 9, 4]
        fast = compile_protocol(CountingProtocol())
        slow = compile_protocol(CountingProtocol())
        codes = fast.encode(state for state in states)
        assert codes.tolist() == _encode_by_code_for(slow, states).tolist() == [0, 1, 0, 2, 1, 3, 0]
        assert fast.states == slow.states == [4, 1, 0, 9]

    def test_overflow_keeps_first_seen_prefix(self):
        compiled = compile_protocol(CountingProtocol(), max_states=3)
        with pytest.raises(ProtocolCompilationError, match="max_states=3"):
            compiled.encode([7, 5, 7, 2, 5, 8, 1])
        assert compiled.states == [7, 5, 2]


class TestCompilationCache:
    def setup_method(self):
        clear_compilation_cache()

    def test_equal_compile_keys_share_tables(self):
        first = get_compiled(TokenLeaderElection())
        second = get_compiled(TokenLeaderElection())
        assert first is second

    def test_keyless_protocols_cached_per_instance(self):
        protocol = CountingProtocol()
        assert protocol.compile_key() is None
        first = get_compiled(protocol)
        assert get_compiled(protocol) is first
        assert get_compiled(CountingProtocol()) is not first

    def test_compilation_worthwhile_heuristic(self):
        from repro.protocols import IdentifierLeaderElection

        assert compilation_worthwhile(TokenLeaderElection())
        assert compilation_worthwhile(StarLeaderElection())
        # Full-width identifier protocol: huge universe, no enumeration.
        assert not compilation_worthwhile(IdentifierLeaderElection(100))
        # Narrow identifier instances enumerate their states.
        assert compilation_worthwhile(IdentifierLeaderElection(100, identifier_bits=4))
        # Without an enumeration the declared size meets the one table
        # bound: k = 8 fits it, k = 9 does not.
        fits, exceeds = (IdentifierLeaderElection(100, identifier_bits=k) for k in (8, 9))
        assert fits.state_space_size() <= DEFAULT_MAX_STATES < exceeds.state_space_size()
        assert compilation_worthwhile(fits)
        assert not compilation_worthwhile(exceeds)

    def test_worthwhile_answer_is_kept_per_key_until_the_cache_is_cleared(self, monkeypatch):
        """Equal keys enumerate once; keyless protocols every call."""
        from repro.protocols import FastLeaderElection
        from repro.protocols.clocks import ClockParameters

        enumerated = []
        real = FastLeaderElection.enumerate_states

        def counted(self):
            enumerated.append(self.compile_key())
            return real(self)

        monkeypatch.setattr(FastLeaderElection, "enumerate_states", counted)
        clear_compilation_cache()
        parameters = ClockParameters(streak_length=3, phase_length=2, max_level=5)
        for _ in range(3):
            assert compilation_worthwhile(FastLeaderElection(parameters))
        assert len(enumerated) == 1
        clear_compilation_cache()
        assert compilation_worthwhile(FastLeaderElection(parameters))
        assert len(enumerated) == 2

        keyless = []
        monkeypatch.setattr(
            CountingProtocol, "enumerate_states", lambda self: keyless.append(1)
        )
        for _ in range(2):
            compilation_worthwhile(CountingProtocol())
        assert len(keyless) == 2


class TestProtocolHooks:
    def test_enumerate_states_hooks(self):
        from repro.propagation import broadcast_time_estimate
        from repro.graphs.families import clique
        from repro.protocols import FastLeaderElection, IdentifierLeaderElection

        assert tuple(TokenLeaderElection().enumerate_states()) == ALL_TOKEN_STATES
        assert tuple(StarLeaderElection().enumerate_states()) == ALL_STAR_STATES
        assert IdentifierLeaderElection(100).enumerate_states() is None
        graph = clique(16)
        broadcast = broadcast_time_estimate(graph, repetitions=2, rng=0).value
        fast = FastLeaderElection.practical_for_graph(graph, max(broadcast, 1.0))
        states = fast.enumerate_states()
        assert states is not None
        assert fast.initial_state(None) in set(states)
        assert len(set(states)) == len(list(states))


class TestKernelBuildCache:
    def test_build_paths_follow_source_and_flags(self):
        from repro.engine.native import _CFLAGS, _build_paths

        flags = list(_CFLAGS)
        base = _build_paths("cache", "int f(void) { return 1; }\n", flags)
        edited = _build_paths("cache", "int f(void) { return 2; }\n", flags)
        sanitized = _build_paths("cache", "int f(void) { return 1; }\n", flags + ["-g"])
        assert base == _build_paths("cache", "int f(void) { return 1; }\n", flags)
        assert edited[0] != base[0] and edited[1] != base[1]
        assert sanitized[1] != base[1]
        assert base[0].endswith(".c") and base[1].endswith(".so")


_COMPILER = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


@pytest.mark.skipif(
    bool(os.environ.get("REPRO_DISABLE_NATIVE")) or _COMPILER is None,
    reason="native kernel disabled or no C compiler on PATH",
)
def test_kernel_builds_warning_free_where_a_compiler_is_present(tmp_path):
    """With a C compiler on PATH the kernel must build, and build clean.

    A failed build is not an error at run time: every getter returns
    ``None`` and plans take the slower fallback, so every kernel test
    skips.  This test is the one that fails, with the compiler's message.
    """
    from repro.engine import native

    if native.get_run_epoch_kernel() is None:
        try:
            native._compile_kernel()
        except subprocess.CalledProcessError as error:
            pytest.fail(f"kernel build failed:\n{error.stderr.decode(errors='replace')}")
        pytest.fail("kernel unavailable although a C compiler is on PATH")
    source = tmp_path / "kernel.c"
    source.write_text(native._KERNEL_SOURCE, encoding="utf-8")
    check = subprocess.run(
        [_COMPILER, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(source)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert check.returncode == 0, f"kernel source has warnings:\n{check.stderr}"
