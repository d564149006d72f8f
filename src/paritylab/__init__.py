"""Instrumented laboratory for the recursive parity-game solver.

Games are immutable arenas solved over bitmask position sets.  The
package provides the recursive solver with optional memoization,
component splitting and dominion preprocessing, generators for two
worst-case game families, structural verification of the subgame tree
those families force, brute-force oracles, PGSolver-format I/O and a
benchmark CLI.
"""

from .core import (
    EmptyGame,
    GameError,
    NotAGame,
    OutOfSubgame,
    ParityGame,
    Player,
    PositionSet,
    Regions,
    Subgame,
    attractor,
    max_priority,
    predecessor,
    remove,
)
from .families import (
    BadIndex,
    FamilyIndex,
    FamilyLabel,
    check_core_extension,
    gen_core,
    gen_random,
    gen_scc,
)
from .report import Report, ReportItem
from .solver import (
    CallLimitExceeded,
    SolveStats,
    SolverConfig,
    default_dominion_bound,
    find_dominion,
    is_dominion,
    left_step,
    right_step,
    scc_split,
    solve,
)
from .analyzer import (
    InducedTree,
    NotCoreExtension,
    TooLarge,
    TreeLabel,
    build_induced_tree,
    min_core_dominion,
    oracle_solve,
    verify_algorithm_correspondence,
    verify_distinctness,
    verify_single_scc,
    verify_tree_invariants,
)
from .harness import (
    BenchRecord,
    NotLeftTotal,
    ParseError,
    VARIANTS,
    main,
    parse_pgsolver,
    run_bench,
    write_csv,
    write_pgsolver,
)

__version__ = "0.1.0"

__all__ = [
    "GameError",
    "EmptyGame",
    "NotAGame",
    "OutOfSubgame",
    "ParityGame",
    "Player",
    "PositionSet",
    "Regions",
    "Subgame",
    "attractor",
    "max_priority",
    "predecessor",
    "remove",
    "BadIndex",
    "FamilyIndex",
    "FamilyLabel",
    "check_core_extension",
    "gen_core",
    "gen_random",
    "gen_scc",
    "Report",
    "ReportItem",
    "CallLimitExceeded",
    "SolveStats",
    "SolverConfig",
    "default_dominion_bound",
    "find_dominion",
    "is_dominion",
    "left_step",
    "right_step",
    "scc_split",
    "solve",
    "InducedTree",
    "NotCoreExtension",
    "TooLarge",
    "TreeLabel",
    "build_induced_tree",
    "min_core_dominion",
    "oracle_solve",
    "verify_algorithm_correspondence",
    "verify_distinctness",
    "verify_single_scc",
    "verify_tree_invariants",
    "BenchRecord",
    "NotLeftTotal",
    "ParseError",
    "VARIANTS",
    "main",
    "parse_pgsolver",
    "run_bench",
    "write_csv",
    "write_pgsolver",
    "__version__",
]
