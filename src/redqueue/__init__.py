"""Redundancy strategies for multi-server queues: analytics, mean-field ODE,
MDS codec, and discrete-event simulation."""

from .codec import CodedJob, CodingMatrix, DecodingError, build_matrix, decode, encode
from .meanfield import (
    IntegrationError,
    MeanFieldProblem,
    VirtualTailSolution,
    ode_rhs,
    solve_virtual_tail,
    tail_exponent,
)
from .orderstats import (
    mds_leading_term,
    order_stat_tail,
    rep_batch_tail,
    rep_heuristic_tail,
    rep_single_tail,
)
from .params import SystemParams, TailCurve
from .sim import SimConfig, SimResult, ecdf_tail, run, sup_distance

__version__ = "0.1.0"

__all__ = [
    "CodedJob",
    "CodingMatrix",
    "DecodingError",
    "IntegrationError",
    "MeanFieldProblem",
    "SimConfig",
    "SimResult",
    "SystemParams",
    "TailCurve",
    "VirtualTailSolution",
    "build_matrix",
    "decode",
    "ecdf_tail",
    "encode",
    "mds_leading_term",
    "ode_rhs",
    "order_stat_tail",
    "rep_batch_tail",
    "rep_heuristic_tail",
    "rep_single_tail",
    "run",
    "solve_virtual_tail",
    "sup_distance",
    "tail_exponent",
]
