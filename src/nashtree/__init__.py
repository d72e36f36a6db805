"""Exact equilibrium solving for two-player complete-information game trees.

The library computes, for every subtree, the exact set of payoff vectors
attainable by some subgame perfect equilibrium (including stochastic
ones), selects the best equilibrium at the root under several optimality
criteria, and extracts a strategy achieving it. All arithmetic is exact.
"""

from .gametree import (
    EquilibriumCheck,
    GameTree,
    GtreeParseError,
    MissingStrategyError,
    PayoffVector,
    Strategy,
    binarize,
    check_strategy,
    evaluate,
    is_equilibrium,
    parse_game_tree,
    parse_strategy,
    serialize_game_tree,
    serialize_strategy,
    tree_sizes,
    unfold,
    validate,
)
from .ups import (
    EmptySetError,
    GridMismatchError,
    PayoffGrid,
    Ups,
    build_grid,
    contains,
    is_empty,
    is_single_point,
    merge,
    merge_deterministic,
    merge_ldet,
    merge_random,
    min_point,
    saturate,
    serialize_ups,
    singleton_ups,
    union,
    ups_from_flags,
)
from .solver import (
    CRITERIA,
    AlgebraInconsistencyError,
    Extraction,
    SetMap,
    SolveResult,
    SolveStats,
    TargetNotInUpsError,
    any_nash,
    best_deterministic_nash,
    best_nash,
    compute_det_ups_all,
    compute_ups_all,
    criterion_value,
    extract,
    extract_strategy,
    select_optimal,
)
from .oracle import (
    OracleReport,
    brute_contains,
    brute_merge,
    cross_validate,
    enumerate_pure_spe,
    random_tree,
    sample_ups_points,
)
from .ohoh import (
    Card,
    Deal,
    OhohConfig,
    build_dag,
    build_tree,
    card_token,
    deal,
    legal_cards,
    parse_card,
    parse_deal,
    score,
    serialize_deal,
    trick_winner,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    HandRecord,
    report_to_json,
    run_experiment,
    solve_hand,
)

__version__ = "0.1.0"
