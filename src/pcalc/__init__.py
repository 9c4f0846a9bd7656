"""Workbench for two restriction-free process calculi: parsing, bounded
transition graphs, and divergence-sensitive bisimulation checking."""

from .syntax import (
    HoInput,
    HoOutput,
    InputPrefix,
    Nil,
    OutputPrefix,
    Par,
    Repl,
    Var,
    canonicalize,
    parse,
    render,
    sc_equal,
)
from .semantics import (
    Action,
    Bounds,
    build_lts,
    cache_info,
    clear_caches,
    diverges,
    step,
    union_lts,
)
from .equivalence import (
    bounded_game,
    check_pair,
    classify_tau,
    coincidence_report,
    compute_partition,
    decide,
)
from .hocore import TestFamilies, context_game, derived_replication, ho_step, ho_subst
from .evidence import Certificate, check_certificate, distinguishing_evidence

__version__ = "0.1.0"

__all__ = [
    "Action",
    "Bounds",
    "Certificate",
    "HoInput",
    "HoOutput",
    "InputPrefix",
    "Nil",
    "OutputPrefix",
    "Par",
    "Repl",
    "TestFamilies",
    "Var",
    "bounded_game",
    "build_lts",
    "cache_info",
    "canonicalize",
    "check_certificate",
    "check_pair",
    "classify_tau",
    "clear_caches",
    "coincidence_report",
    "compute_partition",
    "context_game",
    "decide",
    "derived_replication",
    "distinguishing_evidence",
    "diverges",
    "ho_step",
    "ho_subst",
    "parse",
    "render",
    "sc_equal",
    "step",
    "union_lts",
]
