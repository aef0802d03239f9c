"""Random looptrees: stable offspring laws, conditioned plane trees, loop
graphs with exact distances, the jump-path pseudo-metric, dual polygon
dissections, and the ball-volume dimension fits behind the experiment CLI.

Each module's ``__all__`` is the one list of its public names; the package
root re-exports every one of them."""

from __future__ import annotations

__version__ = "0.1.0"

from . import (
    dissection,
    excursion_metric,
    gw_tree,
    layout,
    looptree,
    metric_analysis,
    stable_law,
)
from .dissection import *
from .excursion_metric import *
from .gw_tree import *
from .layout import *
from .looptree import *
from .metric_analysis import *
from .stable_law import *

__all__ = ["__version__"] + [
    name
    for module in (dissection, excursion_metric, gw_tree, layout, looptree,
                   metric_analysis, stable_law)
    for name in module.__all__
]
