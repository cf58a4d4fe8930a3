"""Static verification, certification and runtime sanitizing.

Three layers (see ``docs/analysis.md``):

* **certification** — :func:`prove_network` / :func:`prove_family` /
  :func:`prove_all` are the one static-verification path.  Five passes
  over one built system, each property owned by one of them — lint
  (description, link contracts, routing candidates), deadlock (escape
  connectivity and the channel dependency graph), reachability (dead
  ends, escape coverage, bounded delivery), the single-link fault-mask
  sweep and a bounded explicit-state model checker that adjudicates a
  CDG cycle (realize with a replayable counterexample, or refute
  exhaustively) — end in a schema-versioned :class:`Certificate`; every
  pass reads one :class:`~repro.routing.deadlock.RouteTable`;
* **runtime sanitizer** — :class:`InvariantChecker` instruments a network
  and asserts flow-control invariants while a simulation runs;
* **CLI** — ``repro prove`` prints one verdict per system (a CDG cycle
  certifies only when the model checker refutes it exhaustively) and
  exits non-zero for CI gating.
"""

from repro.routing.deadlock import MODES, ChannelDependencyGraph, RouteTable, build_cdg

from .certificate import (
    CERT_SCHEMA_VERSION,
    Certificate,
    CertificateError,
    certificate_dir,
    load_certificate,
    load_certificates,
    write_certificate,
)
from .lint import lint_network, lint_spec
from .modelcheck import (
    CounterexampleTrace,
    ModelCheckResult,
    ReplayResult,
    check_network,
    cycle_feed_pool,
    replay_counterexample,
)
from .prove import (
    DEFAULT_CHIPLETS,
    DEFAULT_NODES,
    ProveResult,
    prove_all,
    prove_family,
    prove_network,
)
from .reachability import (
    FaultSweep,
    ReachabilityAnalysis,
    analyse_reachability,
    sweep_fault_masks,
)
from .report import Finding, Report, Severity
from .sanitizer import InvariantChecker, InvariantViolation

__all__ = [
    "MODES",
    "ChannelDependencyGraph",
    "build_cdg",
    "RouteTable",
    "CERT_SCHEMA_VERSION",
    "Certificate",
    "CertificateError",
    "certificate_dir",
    "load_certificate",
    "load_certificates",
    "write_certificate",
    "lint_network",
    "lint_spec",
    "CounterexampleTrace",
    "ModelCheckResult",
    "ReplayResult",
    "check_network",
    "cycle_feed_pool",
    "replay_counterexample",
    "ProveResult",
    "prove_all",
    "prove_family",
    "prove_network",
    "FaultSweep",
    "ReachabilityAnalysis",
    "analyse_reachability",
    "sweep_fault_masks",
    "Finding",
    "Report",
    "Severity",
    "InvariantChecker",
    "InvariantViolation",
    "DEFAULT_CHIPLETS",
    "DEFAULT_NODES",
]
