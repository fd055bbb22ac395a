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
"""

from .core import (
    DeadlockWitness,
    Experiment,
    ExperimentResult,
    Invariant,
    ScenarioResult,
    ScenarioSpec,
    SessionSpec,
    Verdict,
    VerificationResult,
    VerificationSession,
    derive_colors,
    encode_deadlock,
    generate_invariants,
    minimal_queue_size,
    sweep_queue_sizes,
    verify,
)

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
