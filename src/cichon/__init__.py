"""Desk-scale combinatorics of the Cichon diagram for reduction concepts."""

from .combinatorics import (
    Family,
    FinFunc,
    RelationReport,
    Slalom,
    ThresholdReport,
    WidthProfile,
    family_report,
    hit_count,
    least_threshold,
)
from .constructions import (
    BlockSlalom,
    block_encode,
    family_dominator,
    family_slalom,
    least_avoider,
    round_robin_ioe,
    singleton_slalom,
    slalom_dominator,
    sum_evader_bound,
    weave,
)
from .diagram import (
    Contradiction,
    Cut,
    DiagramState,
    emit_dot,
    emit_json,
    enumerate_cuts,
    kb_lookup,
    kb_names,
    propagate,
)
from .posets import (
    CohenCond,
    ECond,
    FiniteTree,
    HechlerCond,
    LocCond,
    ProductCond,
    canonical_enum,
    fusion_leq,
    leq,
    splitting_nodes,
    validate,
)
from .projections import (
    lift_loc_to_d,
    lift_loc_to_e,
    proj_loc_to_d,
    proj_loc_to_e,
    reduce_e,
)

__version__ = "0.1.0"

# the public classes and functions, not the submodules the imports bind
__all__ = [name for name in dir() if not name.startswith("_") and callable(globals()[name])]
