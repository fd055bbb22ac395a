"""The network container: primitives wired by channels."""

from __future__ import annotations

import itertools
from typing import Iterator

from .automaton import Automaton
from .channel import Channel, Port
from .primitives import Primitive, Queue, Sink, Source

__all__ = ["Network"]


class Network:
    """A closed xMAS network.

    Primitives are registered by (unique) name; channels connect an output
    port to an input port.  :meth:`validate` checks the structural rules
    that every analysis relies on.
    """

    def __init__(self, name: str = "network"):
        self.name = name
        self.primitives: dict[str, Primitive] = {}
        self.channels: list[Channel] = []
        self._channel_names = itertools.count()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, primitive: Primitive) -> Primitive:
        if primitive.name in self.primitives:
            raise ValueError(f"duplicate primitive name {primitive.name!r}")
        self.primitives[primitive.name] = primitive
        return primitive

    def connect(self, initiator: Port, target: Port, name: str | None = None) -> Channel:
        for port in (initiator, target):
            if port.owner.name not in self.primitives:
                raise ValueError(
                    f"port {port.qualified_name} belongs to a primitive "
                    "not registered in this network"
                )
            if self.primitives[port.owner.name] is not port.owner:
                raise ValueError(
                    f"port {port.qualified_name} belongs to a foreign primitive "
                    "with a clashing name"
                )
        if name is None:
            name = f"ch{next(self._channel_names)}"
        channel = Channel(name, initiator, target)
        self.channels.append(channel)
        return channel

    # ------------------------------------------------------------------
    # Access helpers
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Primitive:
        return self.primitives[name]

    def __contains__(self, name: str) -> bool:
        return name in self.primitives

    def queues(self) -> list[Queue]:
        return [p for p in self.primitives.values() if isinstance(p, Queue)]

    def sources(self) -> list[Source]:
        return [p for p in self.primitives.values() if isinstance(p, Source)]

    def sinks(self) -> list[Sink]:
        return [p for p in self.primitives.values() if isinstance(p, Sink)]

    def automata(self) -> list[Automaton]:
        return [p for p in self.primitives.values() if isinstance(p, Automaton)]

    def iter_ports(self) -> Iterator[Port]:
        for primitive in self.primitives.values():
            yield from primitive.ports.values()

    def channel_of(self, port: Port) -> Channel:
        if port.channel is None:
            raise ValueError(f"port {port.qualified_name} is unconnected")
        return port.channel

    def stats(self) -> dict[str, int]:
        """Model-size counters (the paper reports primitives/automata/queues)."""
        return {
            "primitives": len(self.primitives),
            "channels": len(self.channels),
            "queues": len(self.queues()),
            "automata": len(self.automata()),
            "sources": len(self.sources()),
            "sinks": len(self.sinks()),
        }

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ValueError` on any structural defect."""
        problems: list[str] = []
        seen_channels: set[str] = set()
        for channel in self.channels:
            if channel.name in seen_channels:
                problems.append(f"duplicate channel name {channel.name!r}")
            seen_channels.add(channel.name)
        channels = set(self.channels)  # channels hash by identity
        for port in self.iter_ports():
            channel = port.channel
            if channel is None:
                problems.append(f"unconnected port {port.qualified_name}")
            elif channel not in channels:
                problems.append(
                    f"port {port.qualified_name} wired to a foreign channel"
                )
        for automaton in self.automata():
            if not automaton.transitions:
                problems.append(f"automaton {automaton.name} has no transitions")
            unreachable = set(automaton.states) - self._reachable_states(automaton)
            if unreachable:
                problems.append(
                    f"automaton {automaton.name}: unreachable states "
                    f"{sorted(unreachable)}"
                )
        if problems:
            raise ValueError(
                f"network {self.name!r} failed validation:\n  " + "\n  ".join(problems)
            )

    @staticmethod
    def _reachable_states(automaton: Automaton) -> set[str]:
        reached = {automaton.initial}
        frontier = [automaton.initial]
        while frontier:
            state = frontier.pop()
            for t in automaton.transitions_from(state):
                if t.target not in reached:
                    reached.add(t.target)
                    frontier.append(t.target)
        return reached
