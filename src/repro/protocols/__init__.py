"""Leader-election protocols reproduced from the paper (Sections 4–5)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "clocks": (
            "ClockParameters",
            "expected_interactions_for_streaks",
            "expected_interactions_per_tick",
            "expected_steps_per_tick",
            "simulate_interactions_until_tick",
            "simulate_steps_until_ticks",
            "streak_update",
        ),
        "fast": (
            "BACKUP",
            "FAST",
            "FastLeaderElection",
        ),
        "identifier": (
            "IdentifierLeaderElection",
            "default_identifier_bits",
        ),
        "star": (
            "ALL_STAR_STATES",
            "StarLeaderElection",
        ),
        "tokens": (
            "ALL_TOKEN_STATES",
            "BLACK",
            "CANDIDATE",
            "FOLLOWER_ROLE",
            "NO_TOKEN",
            "TokenLeaderElection",
            "WHITE",
            "count_tokens",
            "token_initial_state",
            "token_states_stable",
            "token_transition",
        ),
    },
)
