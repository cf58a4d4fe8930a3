"""Static verification, certification and runtime sanitizing.

Four layers (see ``docs/analysis.md``):

* **static verification** — :func:`verify_network` / :func:`verify_family`
  run the topology/config linter, the (extended) channel-dependency-graph
  deadlock check and the routing-state livelock check over a built system
  and return a :class:`Report`; every pass reads one
  :class:`~repro.routing.deadlock.RouteTable`;
* **certification** — :func:`prove_family` / :func:`prove_all` stack the
  interface-contract checker, exhaustive reachability proofs (including
  the single-link fault-mask sweep) and a bounded explicit-state model
  checker on top, adjudicate CDG cycles (realize with a replayable
  counterexample, or refute exhaustively) and emit schema-versioned
  :class:`Certificate` artifacts;
* **runtime sanitizer** — :class:`InvariantChecker` instruments a network
  and asserts flow-control invariants while a simulation runs;
* **CLI** — ``repro prove`` runs static verification and certification
  with one verdict per system (a CDG cycle certifies only when the model
  checker refutes it exhaustively) and a non-zero exit for CI gating.
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
from .contracts import check_contracts
from .lint import lint_network, lint_spec
from .modelcheck import (
    CounterexampleTrace,
    ModelCheckResult,
    ReplayResult,
    check_network,
    cycle_feed_pool,
    replay_counterexample,
)
from .prove import ProveResult, prove_all, prove_family, prove_network
from .reachability import (
    FaultSweep,
    ReachabilityAnalysis,
    analyse_reachability,
    reachability_pass,
    sweep_fault_masks,
)
from .report import Finding, Report, Severity
from .sanitizer import InvariantChecker, InvariantViolation
from .verifier import (
    DEFAULT_CHIPLETS,
    DEFAULT_NODES,
    verify_family,
    verify_network,
)

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
    "check_contracts",
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
    "reachability_pass",
    "sweep_fault_masks",
    "Finding",
    "Report",
    "Severity",
    "InvariantChecker",
    "InvariantViolation",
    "DEFAULT_CHIPLETS",
    "DEFAULT_NODES",
    "verify_family",
    "verify_network",
]
