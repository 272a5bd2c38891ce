"""Dynamic rays, cycles, tails and a refined Fatou-Shishikura census for e^z + c."""

from .addresses import InfiniteAddress, enumerate_periodic, parse_address, period_of, project, shift
from .census import CensusReport, audit, landing_search
from .cycles import Cycle, classify, find_cycles
from .exponential import (
    ESCAPED,
    MapModel,
    SingularValueHit,
    evaluate,
    fundamental_domain_of,
    inverse_branch,
    singular_values,
)
from .rays import (
    LandingResult,
    landing_point,
    singular_escape_status,
    sweep_hair,
)
from .regions import OnArcError, RayGraph, build_ray_graph, interior_fixed_point_audit
from .tails import (
    TailContext,
    choose_radius,
    make_tail_context,
    piece_diameter,
    piece_mapping_check,
    tail1_membership,
    tail_exists,
    tail_membership,
)

__version__ = "0.1.0"
