"""Exact reconstructions of scribal reckoning, graded by modern oracles.

The package computes the way the old problem texts do: exact rationals
only, fractional values written as sums of distinct unit fractions, areas
and slopes by the recorded rules. Each approximate rule is paired with an
exact counterpart so its error is a theorem, not a rounding artifact.
"""

from .arith import (
    ADDITIVE,
    DEFAULT_POLICY,
    GREEDY,
    MULTIPLICATIVE,
    SHORTEST_SEARCH,
    SPLITTING,
    TABLE_POLICY,
    BoundsExceededError,
    DecompositionPolicy,
    DuplationResult,
    TableEntry,
    decompose,
    divide_loaves,
    duplation_multiply,
    render_table,
    resolve_duplicates,
    sequem_complete,
    table_2_over_n,
)
from .corpus import (
    CorpusProblem,
    ReplayVerdict,
    error_summary,
    load_corpus,
    load_corpus_file,
    load_starter_corpus,
    render_report,
    replay,
    replay_all,
)
from .equations import (
    FalsePositionTrace,
    GeometricLadder,
    HauProblem,
    arithmetic_shares,
    geometric_ladder,
    solve_hau,
    solve_hau_false_position,
)
from .geometry import (
    ErrorReport,
    SideQuad,
    circle_area_egyptian,
    edfu_area,
    edfu_area_via_diagonal_split,
    edfu_error_report,
    exact_polygon_area,
    gerbert_isoceles_area,
    granary_volume,
    implied_pi_error,
    is_right_triangle,
    pi_comparison_set,
    random_convex_quadrilateral,
    rational_right_triangles,
    rect_area,
    seked_cotangent,
    seked_from,
    seked_to_base,
    seked_to_height,
    shadow_height,
    square_area,
    trapezoid_area,
    triangle_area,
    triangle_area_two_sides,
)
from .rational import (
    Rational,
    UnitFractionSum,
    parse_rational,
    parse_unit_fraction_sum,
)

__version__ = "0.1.0"
