"""Desk-scale constructions and verifiers for two-color Poisson matchings."""

from .geometry import Disk, Domain, Rect, DegenerateGeometryError
from .sampling import ColoredPointSet, SampleConfig, derived_rng, sample
from .matching import Matching
from .assignment import brute_force_min, max_cardinality_min_cost, min_cost_perfect
from .arcs import ArcSpec, ArcTable
from .walks import (CrossingProfile, StepWalk, WalkInvariantError, build_walk,
                    crossing_profile, cut_time_matching, excursion_matching,
                    laminate_strips, one_color_pairing, polygonal_arcs,
                    zero_block_matching)
from .hierarchy import (BlockSystem, ChernoffParams, build_block_system, chernoff_bound,
                        chernoff_tail, run_hierarchical)
from .verify import (StatsReport, VerificationReport, box_rematch_experiment,
                     check_arc_disjointness, check_planarity, crossing_stats, estimate_eta,
                     minimality_certificate, minimality_certificate_d1)

__version__ = "0.1.0"
