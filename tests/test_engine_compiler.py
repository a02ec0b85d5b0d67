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
    get_compiled,
)
from repro.protocols import (
    ALL_STAR_STATES,
    ALL_TOKEN_STATES,
    StarLeaderElection,
    TokenLeaderElection,
)


class CountingProtocol(PopulationProtocol):
    """A counter enumerating its first ``states`` values.

    Each interaction raises the initiator by one, so every run climbs
    out of the enumeration: the tables' successors outside it raise.
    """

    name = "counting"

    def __init__(self, states: int = 200) -> None:
        self.states = states

    def initial_state(self, input_symbol=None):
        return 0

    def transition(self, initiator, responder):
        return initiator + 1, responder

    def output(self, state):
        return LEADER if state == 0 else FOLLOWER

    def enumerate_states(self):
        return tuple(range(self.states))


def _outside_message(state, states=200):
    return (
        f"counting: state {state} is not among its {states} enumerated states; "
        "use the reference engine"
    )


class TestCompiledProtocol:
    def test_token_states_enumerated_eagerly(self):
        compiled = CompiledProtocol(TokenLeaderElection())
        assert compiled.n_states == len(ALL_TOKEN_STATES)
        assert compiled.states == list(ALL_TOKEN_STATES)
        # Eager pair fill for tiny protocols: tables are complete up front.
        assert compiled.tables_complete
        assert compiled.filled_pairs == len(ALL_TOKEN_STATES) ** 2

    def test_packed_entries_roundtrip(self):
        protocol = TokenLeaderElection()
        compiled = CompiledProtocol(protocol)
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
        compiled = CompiledProtocol(protocol)
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

    @pytest.mark.parametrize("states", [1, 63, 64, 65, 128, 129, 1000])
    def test_stride_is_fixed_by_the_enumeration(self, states):
        """The stride is the smallest power of two >= max(64, states),
        laid out once: every array is sized by it when the tables are
        built."""
        compiled = CompiledProtocol(_SaturatingCounting(states))
        stride = 64
        while stride < states:
            stride *= 2
        assert compiled.stride == stride and compiled.kshift == stride.bit_length() - 1
        assert compiled.dpack.shape == (stride * stride,)
        assert compiled._leader_np.shape == (stride,)
        assert compiled.states == list(range(states))
        assert compiled.index == {state: state for state in range(states)}

    def test_bundled_strides_follow_their_enumerations(self):
        """Every bundled protocol that reaches tables is laid out at the
        smallest power of two >= max(64, its enumerated states), and its
        codes are its enumeration in order."""
        from repro.protocols import FastLeaderElection, IdentifierLeaderElection
        from repro.protocols.clocks import ClockParameters

        protocols = [TokenLeaderElection(), StarLeaderElection()]
        protocols += [IdentifierLeaderElection(100, identifier_bits=k) for k in range(1, 8)]
        protocols += [
            FastLeaderElection(ClockParameters(streak_length=s, phase_length=2, max_level=level))
            for s in (2, 5)
            for level in (5, 14, 20)
        ]
        strides = set()
        for protocol in protocols:
            enumerated = list(protocol.enumerate_states())
            compiled = CompiledProtocol(protocol)
            expected = 1 << max(6, (len(enumerated) - 1).bit_length())
            assert compiled.stride == expected, protocol.describe()
            assert compiled.states == enumerated
            strides.add(expected)
        assert strides == {64, 128, 256, 512, 1024, 2048}

    def test_lazy_fill_keeps_the_layout(self):
        """Entries filled lazily, through the miss path both executors
        share, pack successor codes at the one stride; no fill moves an
        array or registers a code."""
        compiled = CompiledProtocol(CountingProtocol(130))
        assert compiled.filled_pairs == 0 and not compiled.tables_complete
        dpack, stride = compiled.dpack, compiled.stride
        assert stride == 256
        code = compiled.code_for(0)
        for _ in range(129):
            code = compiled.scalar_entry(code, code)[0]
        assert code == 129 and compiled.filled_pairs == 129
        assert compiled.dpack is dpack and compiled.stride == stride
        assert compiled.n_states == 130
        for value in range(129):
            packed = int(compiled.dpack[value * stride + value])
            assert packed >= 0
            successors = packed >> 4
            assert compiled.states[successors >> compiled.kshift] == value + 1
            assert successors & (stride - 1) == value

    def test_state_explosion_raises(self):
        """A successor outside the enumeration raises, naming the protocol
        and the state, and leaves the tables as they were."""
        compiled = CompiledProtocol(CountingProtocol(200))
        compiled.scalar_entry(198, 5)
        with pytest.raises(ProtocolCompilationError) as raised:
            compiled.scalar_entry(199, 5)
        assert str(raised.value) == _outside_message(200)
        assert compiled.filled_pairs == 1 and compiled.dpack[199 * 256 + 5] == -1
        assert compiled.n_states == 200 and 200 not in compiled.index

    def test_eager_tables_raise_while_they_are_built(self):
        with pytest.raises(ProtocolCompilationError, match=re.escape(_outside_message(8, 8))):
            CompiledProtocol(CountingProtocol(8))

    def test_non_memoisable_protocol_rejected(self):
        class RandomisedProtocol(CountingProtocol):
            cacheable_transitions = False

        with pytest.raises(ProtocolCompilationError):
            CompiledProtocol(RandomisedProtocol())

    def test_protocols_without_a_fitting_enumeration_rejected(self):
        """Tables take only an enumeration within the bound."""
        with pytest.raises(ProtocolCompilationError, match="no state enumeration"):
            CompiledProtocol(_NotEnumerated())
        with pytest.raises(ProtocolCompilationError, match="exceed the table bound 4096"):
            CompiledProtocol(CountingProtocol(DEFAULT_MAX_STATES + 1))


class _NotEnumerated(CountingProtocol):
    def enumerate_states(self):
        return None


class _SaturatingCounting(CountingProtocol):
    """The counter stopping at its top enumerated state."""

    def transition(self, initiator, responder):
        return min(initiator + 1, self.states - 1), responder


def _encode_by_code_for(compiled, states):
    """Reference encoder: one ``code_for`` call per element."""
    return np.fromiter((compiled.code_for(s) for s in states), dtype=np.int64)


def _registry(compiled):
    return (
        compiled.states,
        compiled.index,
        compiled.outputs,
        compiled.is_leader_list,
        compiled.stride,
        compiled._leader_np.tolist(),
    )


class TestEncode:
    """``encode`` is byte-identical to a per-element ``code_for`` loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        states=st.lists(st.integers(min_value=0, max_value=160), max_size=80),
        # Above 64 states the counter's tables fill lazily, so they build.
        enumerated=st.integers(min_value=65, max_value=160),
    )
    def test_matches_per_element_loop(self, states, enumerated):
        """Same codes, or the same error on the same first state outside
        the enumeration; neither registers anything."""
        fast = CompiledProtocol(CountingProtocol(enumerated))
        slow = CompiledProtocol(CountingProtocol(enumerated))
        before = _registry(fast)
        try:
            expected = _encode_by_code_for(slow, states)
        except ProtocolCompilationError as error:
            with pytest.raises(ProtocolCompilationError, match=re.escape(str(error))):
                fast.encode(states)
        else:
            codes = fast.encode(states)
            assert codes.dtype == np.int64
            assert codes.tolist() == expected.tolist()
        assert _registry(fast) == _registry(slow) == before

    def test_generator_input(self):
        states = [4, 1, 4, 0, 1, 9, 4]
        fast = CompiledProtocol(CountingProtocol())
        slow = CompiledProtocol(CountingProtocol())
        codes = fast.encode(state for state in states)
        assert codes.tolist() == _encode_by_code_for(slow, states).tolist() == states

    def test_first_state_outside_the_enumeration_is_named(self):
        compiled = CompiledProtocol(CountingProtocol())
        with pytest.raises(ProtocolCompilationError) as raised:
            compiled.encode([7, 5, 7, 250, 5, 300, 1])
        assert str(raised.value) == _outside_message(250)
        assert compiled.states == list(range(200))


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
        # Narrow identifier instances enumerate their states: k = 7 fits
        # the one table bound.  From k = 8 there is no enumeration, so a
        # declared size within the bound is not enough.
        assert compilation_worthwhile(IdentifierLeaderElection(100, identifier_bits=4))
        fits, declared = (IdentifierLeaderElection(100, identifier_bits=k) for k in (7, 8))
        assert len(fits.enumerate_states()) <= DEFAULT_MAX_STATES
        assert compilation_worthwhile(fits)
        assert declared.enumerate_states() is None
        assert declared.state_space_size() <= DEFAULT_MAX_STATES
        assert not compilation_worthwhile(declared)

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
