"""Shared variable pool for the deadlock and invariant encodings.

Both encoders must talk about the *same* queue occupancies ``#q.d`` and
automaton state indicators ``A.s``; the pool hands out one canonical
:class:`~repro.smt.terms.IntVar` / BoolVar per structured key and offers
stable, human-readable names so invariants print the way the paper writes
them (``qE.getX(c)``, ``d.MI(c)``, …).
"""

from __future__ import annotations

from typing import Hashable

from ..smt import IntVar, Term, boolvar, intvar
from ..xmas import Automaton, Channel, Queue, Sink

__all__ = ["VarPool", "color_label"]

Color = Hashable


def color_label(color: Color) -> str:
    """A compact, deterministic label for a packet color."""
    if isinstance(color, str):
        return color
    label = getattr(color, "label", None)
    if label is not None:
        return label() if callable(label) else str(label)
    return repr(color)


class VarPool:
    """Canonical variables keyed by network structure."""

    def __init__(self) -> None:
        self._occupancy: dict[tuple[str, Color], IntVar] = {}
        self._state: dict[tuple[str, str], IntVar] = {}
        self._block: dict[tuple[str, Color], Term] = {}
        self._idle: dict[tuple[str, Color], Term] = {}
        self._dead: dict[str, Term] = {}
        self._dead_sink: dict[str, Term] = {}
        self._color_names: set[str] = set()

    def _claim(self, name: str) -> str:
        """Hand ``name`` to one (primitive, color) key only.

        Two colors can print alike (``Message`` src ``(1, 11)`` and
        ``(11, 1)`` both read ``111``), and boolvars are interned by
        name: a second key would silently share the first one's variable.
        """
        if name in self._color_names:
            raise ValueError(f"two different colors are both named {name!r}")
        self._color_names.add(name)
        return name

    # -- integer-valued ------------------------------------------------
    def occupancy(self, queue: Queue, color: Color) -> IntVar:
        """``#q.d`` — number of ``color`` packets stored in ``queue``."""
        key = (queue.name, color)
        var = self._occupancy.get(key)
        if var is None:
            var = intvar(self._claim(f"#{queue.name}.{color_label(color)}"))
            self._occupancy[key] = var
        return var

    def state(self, automaton: Automaton, state: str) -> IntVar:
        """``A.s`` — 1 iff ``automaton`` is in ``state`` (0/1 integer)."""
        key = (automaton.name, state)
        var = self._state.get(key)
        if var is None:
            var = intvar(automaton.state_var_name(state))
            self._state[key] = var
        return var

    # -- boolean-valued ------------------------------------------------
    def block(self, channel: Channel, color: Color) -> Term:
        """``Block(c, d)`` — channel permanently refuses ``color``."""
        key = (channel.name, color)
        var = self._block.get(key)
        if var is None:
            var = boolvar(self._claim(f"blk[{channel.name}:{color_label(color)}]"))
            self._block[key] = var
        return var

    def idle(self, channel: Channel, color: Color) -> Term:
        """``Idle(c, d)`` — channel permanently stops offering ``color``."""
        key = (channel.name, color)
        var = self._idle.get(key)
        if var is None:
            var = boolvar(self._claim(f"idl[{channel.name}:{color_label(color)}]"))
            self._idle[key] = var
        return var

    def dead(self, automaton: Automaton) -> Term:
        """``dead(A)`` — the automaton can make no transition, ever."""
        var = self._dead.get(automaton.name)
        if var is None:
            var = boolvar(f"dead[{automaton.name}]")
            self._dead[automaton.name] = var
        return var

    def dead_sink_choice(self, sink: Sink) -> Term:
        """Free variable: a non-fair sink may choose to be dead."""
        var = self._dead_sink.get(sink.name)
        if var is None:
            var = boolvar(f"sinkdead[{sink.name}]")
            self._dead_sink[sink.name] = var
        return var

    # -- inventory -----------------------------------------------------
    def occupancy_items(self) -> list[tuple[tuple[str, Color], IntVar]]:
        return list(self._occupancy.items())

    def state_items(self) -> list[tuple[tuple[str, str], IntVar]]:
        return list(self._state.items())
