"""Channels and ports.

An xMAS channel carries three signals — ``irdy`` (initiator ready), ``trdy``
(target ready) and ``data`` — between an initiator output port and a target
input port.  At this structural level a channel is just the wiring record;
signal semantics live in the analyses (:mod:`repro.core`) and the executable
model (:mod:`repro.mc`).
"""

from __future__ import annotations

import enum
import weakref
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .primitives import Primitive

__all__ = ["Direction", "Port", "Channel"]


class Direction(enum.Enum):
    IN = "in"
    OUT = "out"


class Port:
    """One directed connection point of a primitive.

    A port refers to its owner and its channel weakly: the primitive
    holds its ports and the network holds its channels, which hold their
    ports, so a dropped network is freed by reference counting alone,
    without waiting for the cyclic collector.
    """

    __slots__ = ("_owner", "name", "direction", "_channel")

    def __init__(self, owner: "Primitive", name: str, direction: Direction):
        self._owner = weakref.ref(owner)
        self.name = name
        self.direction = direction
        self._channel: weakref.ref[Channel] | None = None

    @property
    def owner(self) -> "Primitive":
        return self._owner()

    @property
    def channel(self) -> "Channel | None":
        ref = self._channel
        return None if ref is None else ref()

    @property
    def qualified_name(self) -> str:
        return f"{self.owner.name}.{self.name}"

    def __repr__(self) -> str:
        return f"Port({self.qualified_name}, {self.direction.value})"


class Channel:
    """A point-to-point link from an output port to an input port."""

    __slots__ = ("name", "initiator", "target", "__weakref__")

    def __init__(self, name: str, initiator: Port, target: Port):
        if initiator.direction is not Direction.OUT:
            raise ValueError(
                f"channel {name}: initiator {initiator.qualified_name} is not an output"
            )
        if target.direction is not Direction.IN:
            raise ValueError(
                f"channel {name}: target {target.qualified_name} is not an input"
            )
        for port in (initiator, target):
            if port.channel is not None:
                raise ValueError(
                    f"port {port.qualified_name} is already connected "
                    f"to channel {port.channel.name}"
                )
        self.name = name
        self.initiator = initiator
        self.target = target
        initiator._channel = target._channel = weakref.ref(self)

    def __repr__(self) -> str:
        return (
            f"Channel({self.name}: {self.initiator.qualified_name} -> "
            f"{self.target.qualified_name})"
        )
