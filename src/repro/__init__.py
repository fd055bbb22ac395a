"""ADVOCAT — Automated Deadlock Verification for On-chip Cache coherence
and InTerconnects (reproduction of Verbeek et al., DATE 2016).

Quickstart::

    from repro import verify
    from repro.netlib import running_example

    result = verify(running_example().network)
    assert result.deadlock_free
    for invariant in result.invariants:
        print(invariant.pretty())

See :mod:`repro.fabrics` for 2D-mesh construction, :mod:`repro.protocols`
for the MI coherence protocols of the case study, and :mod:`repro.mc` for
the explicit-state model checker that confirms deadlock candidates.

``import repro`` loads no layer: the names below resolve from
:mod:`repro.core` on first use (PEP 562), and :mod:`repro.core` in turn
imports only the submodule that defines the name asked for.
"""

import importlib

__version__ = "1.3.0"

__all__ = [
    "SessionSpec",
    "VerificationSession",
    "Experiment",
    "ExperimentResult",
    "ScenarioSpec",
    "ScenarioResult",
    "verify",
    "sweep_queue_sizes",
    "derive_colors",
    "generate_invariants",
    "encode_deadlock",
    "minimal_queue_size",
    "Invariant",
    "Verdict",
    "VerificationResult",
    "DeadlockWitness",
    "__version__",
]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(".core", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
