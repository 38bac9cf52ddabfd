"""Expander-style codes on point-hyperplane incidence graphs of PG(d, GF(2)).

The package builds the labeled bipartite Tanner graph of a binary projective
space, attaches shortened Reed-Solomon component codes to its vertices, and
provides encoders, an iterative skip-on-failure decoder, worst-case capability
calculators, a combinatorial subgraph searcher, and a Monte Carlo harness for
random and burst error experiments.
"""

from pgcodes.galois import GF
from pgcodes.projgeom import (
    Flat,
    ProjectiveSpace,
    gaussian_coefficient,
    num_points,
    span,
)
from pgcodes.tanner import TannerGraph, build_graph
from pgcodes.rscodec import RsOutcome, RsParams, RsStatus, rs_decode, rs_encode
from pgcodes.expcode import (
    CodeSpec,
    DecodeReport,
    SideReport,
    build_parity,
    derive_generator,
    encode,
    iterative_decode,
    plant_failure_config,
)
from pgcodes.bounds import (
    BoundInputs,
    SearchResult,
    SearchStatus,
    capability_table,
    eigenvalue_size_floor,
    guaranteed_errors,
    min_common_neighbors,
    min_config_size,
    rate_lower_bound,
    search_min_config,
    sipser_contraction,
    sipser_distance_bound,
    zemor_bound,
)
from pgcodes.simlab import TrialConfig, TrialSummary, run_burst, run_interleaved, run_random

__version__ = "0.1.0"

__all__ = [
    "GF",
    "Flat",
    "ProjectiveSpace",
    "gaussian_coefficient",
    "num_points",
    "span",
    "TannerGraph",
    "build_graph",
    "RsOutcome",
    "RsParams",
    "RsStatus",
    "rs_decode",
    "rs_encode",
    "CodeSpec",
    "DecodeReport",
    "SideReport",
    "build_parity",
    "derive_generator",
    "encode",
    "iterative_decode",
    "plant_failure_config",
    "BoundInputs",
    "SearchResult",
    "SearchStatus",
    "capability_table",
    "eigenvalue_size_floor",
    "guaranteed_errors",
    "min_common_neighbors",
    "min_config_size",
    "rate_lower_bound",
    "search_min_config",
    "sipser_contraction",
    "sipser_distance_bound",
    "zemor_bound",
    "TrialConfig",
    "TrialSummary",
    "run_burst",
    "run_interleaved",
    "run_random",
]
