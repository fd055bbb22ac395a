"""ADVOCAT core: the paper's verification pipeline.

Public entry points:

* :class:`SessionSpec` — the build phase: network → colors → encoding
  (→ invariants), computed once and shared by any number of sessions.
* :class:`VerificationSession` — incremental engine: load a spec into one
  solver, answer many queries (full check, per-channel checks, witness
  enumeration, queue resizing) by assumption; with ``jobs > 1`` its
  per-case and per-size fan-outs go to a worker pool over serialized
  session snapshots.
* :class:`WorkerSession` — the one query engine under every session,
  pool worker and service hot-tier entry.
* :func:`verify` — one-shot full pipeline (colors → invariants →
  block/idle → SMT), a thin wrapper over a throwaway session.
* :func:`derive_colors` — the T-derivation (Section 3).
* :func:`generate_invariants` — cross-layer invariants (Section 4).
* :func:`encode_deadlock` — block/idle equations + deadlock assertion.
* :func:`minimal_queue_size` — Figure-4 style queue sizing on one session.
* :func:`sweep_queue_sizes` — the Figure-4 curve, sharded over workers.
* :class:`Experiment` / :class:`ScenarioSpec` — declarative topology grids
  (mesh sizes × directory positions × …) sharded across scenario workers,
  with resumable JSON results (:class:`ExperimentResult`).
* :class:`Deadline` / :class:`RetryPolicy` / :class:`FaultPlan` — the
  fault-tolerance layer (:mod:`repro.core.resilience`): wall-clock and
  conflict budgets that surface as ``TIMEOUT`` verdicts, worker-crash
  recovery with deterministic backoff, and the fault-injection harness
  behind the chaos test suite.
* :class:`VerificationService` / :class:`ServiceClient` — the
  verification-as-a-service layer (:mod:`repro.core.service`): a
  long-lived asyncio TCP server answering spec-described queries
  through three content-addressed cache tiers
  (:mod:`repro.core.cache` — hot live sessions under LRU, warm pickled
  snapshots, cold verdict store).
"""

from .cache import (
    LruSessionCache,
    SnapshotStore,
    VerdictStore,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    canonical_json,
    sha_bytes,
    stable_hash,
    verdict_sha,
)
from .colors import ColorDerivationError, ColorMap, derive_colors
from .deadlock import DeadlockCase, DeadlockEncoding, encode_deadlock
from .engine import SessionSnapshot, SessionSpec, VerificationSession
from .experiments import (
    Experiment,
    ExperimentResult,
    ScenarioResult,
    ScenarioSpec,
    register_builder,
    registered_builders,
    resolve_builder,
    run_scenario,
)
from .invariants import build_flow_rows, generate_invariants
from .parallel import (
    WorkerSession,
    default_jobs,
    discard_scenario_executor,
    nested_jobs,
    scenario_executor,
    shutdown_scenario_executors,
)
from .proof import enumerate_witnesses, verify
from .resilience import (
    Deadline,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    active_fault_plan,
    install_fault_plan,
)
from .result import DeadlockWitness, Invariant, Verdict, VerificationResult
from .service import (
    AsyncServiceClient,
    ServiceClient,
    ServiceError,
    VerificationService,
)
from .sizing import SizingResult, minimal_queue_size, sweep_queue_sizes
from .vars import VarPool, color_label

__all__ = [
    "SessionSpec",
    "SessionSnapshot",
    "VerificationSession",
    "WorkerSession",
    "Experiment",
    "ExperimentResult",
    "ScenarioSpec",
    "ScenarioResult",
    "register_builder",
    "registered_builders",
    "resolve_builder",
    "run_scenario",
    "default_jobs",
    "nested_jobs",
    "scenario_executor",
    "discard_scenario_executor",
    "shutdown_scenario_executors",
    "sweep_queue_sizes",
    "verify",
    "enumerate_witnesses",
    "derive_colors",
    "generate_invariants",
    "encode_deadlock",
    "minimal_queue_size",
    "ColorMap",
    "ColorDerivationError",
    "DeadlockCase",
    "DeadlockEncoding",
    "DeadlockWitness",
    "Invariant",
    "Verdict",
    "VerificationResult",
    "SizingResult",
    "VarPool",
    "color_label",
    "build_flow_rows",
    "Deadline",
    "RetryPolicy",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_fault_plan",
    "install_fault_plan",
    "LruSessionCache",
    "SnapshotStore",
    "VerdictStore",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "canonical_json",
    "sha_bytes",
    "stable_hash",
    "verdict_sha",
    "VerificationService",
    "ServiceClient",
    "ServiceError",
    "AsyncServiceClient",
]
