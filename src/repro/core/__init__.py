"""ADVOCAT core: the paper's verification pipeline.

Public entry points:

* :class:`SessionSpec` — the build phase: network → colors → encoding
  (→ invariants), computed once and shared by any number of sessions.
* :class:`VerificationSession` — incremental engine: load a spec into one
  solver, answer many queries (full check, per-channel checks, queue
  resizing) by assumption, and enumerate witnesses on a private copy;
  with ``jobs > 1`` its per-case and per-size fan-outs go to a worker
  pool over serialized session snapshots.
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
* :class:`Deadline` — wall-clock budgets
  (:mod:`repro.core.resilience`) that surface as ``TIMEOUT`` verdicts.
  Worker pools recover from a dead worker by rebuilding and replaying,
  at most :data:`~repro.core.parallel.POOL_ATTEMPTS` times.
* :class:`VerificationService` / :class:`ServiceClient` — the
  verification-as-a-service layer (:mod:`repro.core.server`, and the
  wire framing and clients in :mod:`repro.core.service`): a
  long-lived asyncio TCP server answering spec-described queries
  through three tiers (:mod:`repro.core.cache` — cold verdict store,
  hot live sessions under LRU restored from pickled snapshots, and
  pool builds).
"""

import importlib

#: Submodule → the names this package re-exports from it.  A name
#: resolves on first attribute access (PEP 562), so ``import repro.core``
#: loads no layer until one is used: a verifier never imports the
#: service, and a service client never imports the solver.
_EXPORTS_BY_MODULE = {
    "cache": (
        "LruSessionCache", "SnapshotStore", "VerdictStore",
        "atomic_write_bytes", "atomic_write_json", "atomic_write_text",
        "canonical_json", "sha_bytes", "stable_hash", "verdict_sha",
    ),
    "colors": ("ColorDerivationError", "ColorMap", "derive_colors"),
    "deadlock": ("DeadlockCase", "DeadlockEncoding", "encode_deadlock"),
    "engine": ("SessionSnapshot", "SessionSpec", "VerificationSession"),
    "experiments": (
        "Experiment", "ExperimentResult", "ScenarioResult", "ScenarioSpec",
        "register_builder", "registered_builders", "resolve_builder",
        "run_scenario",
    ),
    "invariants": ("build_flow_rows", "generate_invariants"),
    "parallel": ("WorkerSession", "default_jobs"),
    "proof": ("enumerate_witnesses", "verify"),
    "resilience": ("Deadline",),
    "result": ("DeadlockWitness", "Invariant", "Verdict", "VerificationResult"),
    "server": ("VerificationService",),
    "service": ("AsyncServiceClient", "ServiceClient", "ServiceError"),
    "sizing": ("SizingResult", "minimal_queue_size", "sweep_queue_sizes"),
    "vars": ("VarPool", "color_label"),
}
_EXPORTS = {
    name: module
    for module, names in _EXPORTS_BY_MODULE.items()
    for name in names
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        # An AttributeError (not KeyError) lets ``from repro.core import
        # cache`` fall back to importing the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


