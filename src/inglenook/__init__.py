"""Solver toolkit for inglenook shunting puzzles.

Exact feasibility decisions, constructive solutions with enforced move
bounds, provably optimal search, and exact diameter studies at desk scale.
"""

from .model import (
    PULL,
    PUSH,
    CardsSpec,
    CardsState,
    FormatError,
    IllegalMoveError,
    InglenookError,
    InternalCheckError,
    InvalidPositionError,
    InvalidSpecError,
    InvalidStateError,
    LabelTable,
    Position,
    PuzzleSpec,
    ShuntMove,
    apply_move,
    cards_spec,
    count_positions,
    count_states,
    format_position,
    from_cards,
    is_convertible,
    parse_position,
    parse_spec_text,
    replay,
    to_cards,
    validate_position,
    validate_state,
)
from .feasibility import (
    FeasibilityVerdict,
    UnsolvableError,
    cards_connected,
    immovable_bottom,
    inglenook_solvable,
    max_wagons,
)
from .constructive import (
    CardMove,
    SolutionTrace,
    UnsatisfiablePatternError,
    apply_card_move,
    cards_move_bound,
    inglenook_move_bound,
    replay_cards,
    solve_cards,
    solve_inglenook,
    solve_to_pattern,
)
from .search import (
    BudgetExceededError,
    CensusReport,
    DisconnectedGraphError,
    GoalPattern,
    SearchReport,
    TrackRule,
    WorstCaseReport,
    cards_component_census,
    cards_diameter,
    cards_distance,
    matching_codes,
    optimal_solve,
    ordering_displacement,
    parse_pattern,
    reversal_distance,
    worst_case_moves,
)

__all__ = [name for name in dir() if not name.startswith("_")]
