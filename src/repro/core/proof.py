"""The ADVOCAT proof engine: colors → invariants → block/idle → SMT verdict.

:func:`verify` is the library's one-shot entry point.  It returns a
:class:`~repro.core.result.VerificationResult`:

* ``DEADLOCK_FREE`` — the equation system conjoined with the invariants and
  the deadlock assertion is UNSAT.  By soundness of the block/idle
  overapproximation and of the invariants, *no reachable deadlock exists*.
* ``DEADLOCK_CANDIDATE`` — a satisfying assignment exists; its queue
  occupancies and automaton states are returned as a
  :class:`~repro.core.result.DeadlockWitness`.  The candidate may be
  unreachable (a false negative); :mod:`repro.mc` can confirm small ones.

Both :func:`verify` and :func:`enumerate_witnesses` are thin wrappers over
a throwaway :class:`~repro.core.engine.VerificationSession`; callers that
issue several queries against the same network should hold a session
directly and let it reuse the encoding and every learned clause.
"""

from __future__ import annotations

from ..smt import Model
from ..xmas import Network
from .colors import ColorMap
from .engine import VerificationSession
from .result import DeadlockWitness, VerificationResult
from .vars import VarPool

__all__ = ["verify", "extract_witness", "enumerate_witnesses"]


def verify(
    network: Network,
    use_invariants: bool = True,
    rotating_precision: bool = True,
    deadline=None,
) -> VerificationResult:
    """Run the full ADVOCAT pipeline on ``network``.

    Parameters
    ----------
    network:
        A validated (or validatable) closed xMAS network.
    use_invariants:
        Generate and conjoin cross-layer invariants (Section 4).  Without
        them the check degenerates to plain block/idle detection (Section
        3) and reports many unreachable candidates.
    rotating_precision:
        Use the stronger block rule for ``rotating`` queues (see
        :mod:`repro.core.deadlock`).
    deadline:
        Optional :class:`~repro.core.resilience.Deadline` (or bare
        seconds); an expired budget yields a ``TIMEOUT`` verdict.
    """
    session = VerificationSession(network, rotating_precision=rotating_precision)
    if use_invariants:
        session.add_invariants()
    return session.verify(deadline=deadline)


def enumerate_witnesses(
    network: Network,
    limit: int = 16,
    use_invariants: bool = True,
    rotating_precision: bool = True,
):
    """Yield distinct deadlock candidates (up to ``limit``).

    Each witness differs from all previous ones in automaton states or in
    some queue-occupancy value; the generator stops when the formula
    becomes UNSAT or the limit is reached.  Useful for hunting a *reachable*
    candidate among false negatives (confirm each with
    :class:`repro.mc.Explorer`).
    """
    session = VerificationSession(network, rotating_precision=rotating_precision)
    if use_invariants:
        session.add_invariants()
    yield from session.enumerate_witnesses(limit=limit)


def extract_witness(
    network: Network,
    colors: ColorMap,
    pool: VarPool,
    model: Model,
) -> DeadlockWitness:
    """Read the deadlock configuration out of an SMT model.

    ``model`` only needs mapping access for the pool's state/occupancy
    integer variables and the block booleans — a local
    :meth:`~repro.smt.Solver.model` works, and so does a model
    reconstructed from a worker process's value payload
    (:mod:`repro.core.parallel`).
    """
    automaton_states: dict[str, str] = {}
    for automaton in network.automata():
        chosen = [
            state
            for state in automaton.states
            if model[pool.state(automaton, state)] == 1
        ]
        automaton_states[automaton.name] = chosen[0] if chosen else "?"

    queue_contents: dict[str, dict] = {}
    for queue in network.queues():
        contents = {}
        for color in colors.of(network.channel_of(queue.i)):
            count = model[pool.occupancy(queue, color)]
            if count:
                contents[color] = int(count)
        queue_contents[queue.name] = contents

    blocked = []
    for queue in network.queues():
        out_channel = network.channel_of(queue.o)
        for color in colors.of(out_channel):
            if (
                model[pool.occupancy(queue, color)] >= 1
                and model[pool.block(out_channel, color)]
            ):
                blocked.append(f"{queue.name} head {color!r}")
    for source in network.sources():
        out_channel = network.channel_of(source.o)
        for color in source.colors:
            if model[pool.block(out_channel, color)]:
                blocked.append(f"source {source.name} {color!r}")

    return DeadlockWitness(
        automaton_states=automaton_states,
        queue_contents=queue_contents,
        blocked_channels=blocked,
    )
