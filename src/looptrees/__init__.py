"""Random looptrees: stable offspring laws, conditioned plane trees, loop
graphs with exact distances, the jump-path pseudo-metric, dual polygon
dissections, and the metric-analysis toolkit behind the experiment CLI."""

from __future__ import annotations

__version__ = "0.1.0"

from .dissection import (
    Dissection,
    dual_tree,
    from_dual,
    gh_gap_check,
    sample_boltzmann,
)
from .excursion_metric import (
    JumpPath,
    distance_from_root,
    looptree_distance,
    max_jump,
    rescale,
)
from .gw_tree import (
    LukasiewiczPath,
    OffspringLaw,
    PlaneTree,
    decode_tree,
    descent,
    encode_tree,
    sample_conditioned_tree,
    stable_offspring,
    tree_stats,
)
from .layout import looptree_layout, looptree_svg
from .looptree import (
    LoopGraph,
    build_loop,
    build_loop_prime,
    loop_distances,
    loop_prime_distance,
)
from .metric_analysis import (
    FiniteMetric,
    ball_volume_profile,
    bfs_metric,
    circle_metric,
    crt_comparator,
    dimension_estimate,
    gh_upper_bound,
    tree_metric,
)
from .stable_law import (
    StableParams,
    beta_root,
    expected_max_jump,
    levy_tail,
    sample_increment,
)

__all__ = [
    "__version__",
    "Dissection",
    "dual_tree",
    "from_dual",
    "gh_gap_check",
    "sample_boltzmann",
    "JumpPath",
    "distance_from_root",
    "looptree_distance",
    "max_jump",
    "rescale",
    "LukasiewiczPath",
    "OffspringLaw",
    "PlaneTree",
    "decode_tree",
    "descent",
    "encode_tree",
    "sample_conditioned_tree",
    "stable_offspring",
    "tree_stats",
    "looptree_layout",
    "looptree_svg",
    "LoopGraph",
    "build_loop",
    "build_loop_prime",
    "loop_distances",
    "loop_prime_distance",
    "FiniteMetric",
    "ball_volume_profile",
    "bfs_metric",
    "circle_metric",
    "crt_comparator",
    "dimension_estimate",
    "gh_upper_bound",
    "tree_metric",
    "StableParams",
    "beta_root",
    "expected_max_jump",
    "levy_tail",
    "sample_increment",
]
