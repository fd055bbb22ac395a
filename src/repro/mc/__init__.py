"""Explicit-state model checking — the reproduction's UPPAAL substitute.

* :class:`Executable` — executable xMAS semantics (endpoint-to-endpoint
  atomic packet moves, rotating-queue stalls).
* :class:`Explorer` — BFS reachability, deadlock detection, SMT-witness
  confirmation with counterexample traces.
* :func:`check_handshake_composition` — the paper's bus-abstraction
  baseline: protocol automata composed by synchronous rendezvous.
"""

from .executable import Executable, Step
from .explorer import ExplorationResult, Explorer
from .handshake import HandshakeResult, check_handshake_composition
from .state import ExecState, StateSpace

__all__ = [
    "Executable",
    "Explorer",
    "ExplorationResult",
    "ExecState",
    "StateSpace",
    "Step",
    "HandshakeResult",
    "check_handshake_composition",
]
