"""Cross-layer invariant generation (Section 4).

Implements the Chatterjee–Kishinevsky flow method extended with the paper's
four automaton equation families:

1. ``Σ_s A.s = 1`` — an automaton is in exactly one state;
2. per state ``s``: ``Σ_{t into s} κ_t = Σ_{t out of s} κ_t + A.s − (s = s₀)``;
3. per ~-equivalence class ``I`` of (in-channel, color) tuples:
   ``Σ_{(i,d)∈I} λ_i^d = Σ_{t ∈ T(I)} κ_t``  (Equation 2 of the paper);
4. dually for out-channel classes, partitioned by shared producing
   transitions.

Together with the per-primitive flow-conservation rows (queue, function,
fork, join, switch, merge), these form a sparse rational matrix over

    λ-columns (transfer counts per channel/color),
    κ-columns (firing counts per automaton transition),
    #q.d-columns (queue occupancies), A.s-columns (state indicators),
    and one affine constant column.

Gaussian elimination sweeps the λ- and κ-columns away
(:func:`repro.linalg.eliminate_columns`); every surviving row is a linear
invariant over occupancies and state indicators that holds in *every
reachable configuration* — the cross-layer invariants that rule out
unreachable deadlock candidates.
"""

from __future__ import annotations

import itertools
from typing import Hashable

from ..linalg import SparseVector, eliminate_columns
from ..xmas import (
    Automaton,
    Channel,
    Fork,
    Function,
    Join,
    Merge,
    Network,
    Queue,
    Sink,
    Source,
    Switch,
)
from .colors import ColorMap
from .result import Invariant
from .vars import VarPool

__all__ = [
    "generate_invariants",
    "build_flow_rows",
    "FlowColumns",
]

Color = Hashable


class FlowColumns:
    """Column registry for the flow matrix."""

    CONST = 0

    def __init__(self) -> None:
        self._next = itertools.count(1)
        self._lam: dict[tuple[str, Color], int] = {}
        self._kappa: dict[tuple[str, str], int] = {}
        self._occ: dict[tuple[str, Color], int] = {}
        self._state: dict[tuple[str, str], int] = {}

    def lam(self, channel: Channel, color: Color) -> int:
        return self._lam.setdefault((channel.name, color), next(self._next))

    def kappa(self, automaton: Automaton, transition_name: str) -> int:
        return self._kappa.setdefault(
            (automaton.name, transition_name), next(self._next)
        )

    def occ(self, queue: Queue, color: Color) -> int:
        return self._occ.setdefault((queue.name, color), next(self._next))

    def state(self, automaton: Automaton, state: str) -> int:
        return self._state.setdefault((automaton.name, state), next(self._next))

    def eliminable(self) -> frozenset[int]:
        """λ and κ columns — swept away by Gaussian elimination."""
        return frozenset(self._lam.values()) | frozenset(self._kappa.values())

    def occ_items(self) -> dict[int, tuple[str, Color]]:
        return {col: key for key, col in self._occ.items()}

    def state_items(self) -> dict[int, tuple[str, str]]:
        return {col: key for key, col in self._state.items()}


# ---------------------------------------------------------------------------
# Row construction
# ---------------------------------------------------------------------------


def build_flow_rows(
    network: Network, colors: ColorMap
) -> tuple[list[SparseVector], FlowColumns]:
    """All flow-conservation and automaton rows (each row reads "… = 0")."""
    cols = FlowColumns()
    rows: list[SparseVector] = []
    for primitive in network.primitives.values():
        if isinstance(primitive, Queue):
            _queue_rows(network, colors, cols, primitive, rows)
        elif isinstance(primitive, Function):
            _function_rows(network, colors, cols, primitive, rows)
        elif isinstance(primitive, Fork):
            _fork_rows(network, colors, cols, primitive, rows)
        elif isinstance(primitive, Join):
            _join_rows(network, colors, cols, primitive, rows)
        elif isinstance(primitive, Switch):
            _switch_rows(network, colors, cols, primitive, rows)
        elif isinstance(primitive, Merge):
            _merge_rows(network, colors, cols, primitive, rows)
        elif isinstance(primitive, Automaton):
            _automaton_rows(network, colors, cols, primitive, rows)
        elif isinstance(primitive, (Source, Sink)):
            pass  # sources/sinks impose no conservation law
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"no flow rows for {type(primitive).__name__}")
    return rows, cols


def _queue_rows(network, colors, cols, queue: Queue, rows) -> None:
    in_channel = network.channel_of(queue.i)
    out_channel = network.channel_of(queue.o)
    for color in colors.of(in_channel):
        # λ_in − λ_out − #q.d = 0 (queues start empty).
        rows.append(
            SparseVector(
                {
                    cols.lam(in_channel, color): 1,
                    cols.lam(out_channel, color): -1,
                    cols.occ(queue, color): -1,
                }
            )
        )


def _function_rows(network, colors, cols, function: Function, rows) -> None:
    in_channel = network.channel_of(function.i)
    out_channel = network.channel_of(function.o)
    by_output: dict[Color, list[Color]] = {}
    for color in colors.of(in_channel):
        by_output.setdefault(function.fn(color), []).append(color)
    for out_color, preimages in by_output.items():
        entries = {cols.lam(out_channel, out_color): 1}
        for color in preimages:
            entries[cols.lam(in_channel, color)] = -1
        rows.append(SparseVector(entries))


def _fork_rows(network, colors, cols, fork: Fork, rows) -> None:
    in_channel = network.channel_of(fork.i)
    for out_port, transform in ((fork.a, fork.fn_a), (fork.b, fork.fn_b)):
        out_channel = network.channel_of(out_port)
        by_output: dict[Color, list[Color]] = {}
        for color in colors.of(in_channel):
            by_output.setdefault(transform(color), []).append(color)
        for out_color, preimages in by_output.items():
            entries = {cols.lam(out_channel, out_color): 1}
            for color in preimages:
                entries[cols.lam(in_channel, color)] = -1
            rows.append(SparseVector(entries))


def _join_rows(network, colors, cols, join: Join, rows) -> None:
    chan_a = network.channel_of(join.a)
    chan_b = network.channel_of(join.b)
    chan_o = network.channel_of(join.o)
    total_o = {cols.lam(chan_o, d): 1 for d in colors.of(chan_o)}
    for in_channel in (chan_a, chan_b):
        entries = dict(total_o)
        for color in colors.of(in_channel):
            entries[cols.lam(in_channel, color)] = (
                entries.get(cols.lam(in_channel, color), 0) - 1
            )
        rows.append(SparseVector(entries))


def _switch_rows(network, colors, cols, switch: Switch, rows) -> None:
    in_channel = network.channel_of(switch.i)
    for color in colors.of(in_channel):
        out_channel = network.channel_of(switch.outs[switch.route(color)])
        rows.append(
            SparseVector(
                {
                    cols.lam(in_channel, color): 1,
                    cols.lam(out_channel, color): -1,
                }
            )
        )


def _merge_rows(network, colors, cols, merge: Merge, rows) -> None:
    out_channel = network.channel_of(merge.o)
    for color in colors.of(out_channel):
        entries = {cols.lam(out_channel, color): 1}
        for port in merge.ins:
            in_channel = network.channel_of(port)
            if color in colors.of(in_channel):
                entries[cols.lam(in_channel, color)] = -1
        rows.append(SparseVector(entries))


# ---------------------------------------------------------------------------
# Automaton rows — the paper's contribution (Equations 1 and 2 + duals)
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict = {}

    def find(self, item):
        parent = self._parent.setdefault(item, item)
        if parent is item or parent == item:
            return parent
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def classes(self) -> dict:
        groups: dict = {}
        for item in list(self._parent):
            groups.setdefault(self.find(item), []).append(item)
        return groups


def _automaton_rows(network, colors, cols, automaton: Automaton, rows) -> None:
    # (Family 1)  Σ_s A.s − 1 = 0
    entries = {cols.state(automaton, s): 1 for s in automaton.states}
    entries[FlowColumns.CONST] = -1
    rows.append(SparseVector(entries))

    # (Family 2)  per state s: Σ_in κ − Σ_out κ − A.s + (s = s₀) = 0
    for state in automaton.states:
        entries = {}

        def bump(column: int, delta: int) -> None:
            entries[column] = entries.get(column, 0) + delta

        for t in automaton.transitions_into(state):
            bump(cols.kappa(automaton, t.name), +1)
        for t in automaton.transitions_from(state):
            bump(cols.kappa(automaton, t.name), -1)
        bump(cols.state(automaton, state), -1)
        if state == automaton.initial:
            bump(FlowColumns.CONST, +1)
        rows.append(SparseVector(entries))

    # (Family 3)  in-channel classes: Σ_{(i,d)∈I} λ = Σ_{t∈T(I)} κ
    in_uf = _UnionFind()
    acceptors: dict[tuple[str, Color], list] = {}
    for port in automaton.in_ports():
        in_channel = network.channel_of(port)
        for color in colors.of(in_channel):
            tuple_key = (port.name, color)
            accepting = [
                t
                for t in automaton.transitions_on_port(port.name)
                if t.accepts(color)
            ]
            if not accepting:
                # Never consumed: λ_{i,d} = 0 is itself an invariant row.
                rows.append(SparseVector({cols.lam(in_channel, color): 1}))
                continue
            acceptors[tuple_key] = accepting
            in_uf.find(tuple_key)
            for t in accepting:
                in_uf.union(tuple_key, ("transition", t.name))
    for members in in_uf.classes().values():
        tuple_members = [m for m in members if m[0] != "transition"]
        if not tuple_members:
            continue
        entries = {}
        transitions: set[str] = set()
        for port_name, color in tuple_members:
            in_channel = network.channel_of(automaton.port(port_name))
            entries[cols.lam(in_channel, color)] = 1
            transitions.update(t.name for t in acceptors[(port_name, color)])
        for name in transitions:
            entries[cols.kappa(automaton, name)] = (
                entries.get(cols.kappa(automaton, name), 0) - 1
            )
        rows.append(SparseVector(entries))

    # (Family 4)  out-channel classes, partitioned by producing transitions.
    out_uf = _UnionFind()
    producers: dict[tuple[str, Color], set[str]] = {}
    produced_tuples: dict[str, set[tuple[str, Color]]] = {}
    for t in automaton.transitions:
        if t.out_port is None:
            continue
        in_channel = network.channel_of(automaton.port(t.in_port))
        outputs = {
            t.output(d)
            for d in colors.of(in_channel)
            if t.accepts(d)
        }
        outputs.discard(None)
        tuples = {(port, color) for port, color in outputs}  # type: ignore[misc]
        if not tuples:
            continue
        produced_tuples[t.name] = tuples
        for tup in tuples:
            producers.setdefault(tup, set()).add(t.name)
            out_uf.find(tup)
            out_uf.union(tup, ("transition", t.name))
    for port in automaton.out_ports():
        out_channel = network.channel_of(port)
        for color in colors.of(out_channel):
            if (port.name, color) not in producers:
                rows.append(SparseVector({cols.lam(out_channel, color): 1}))
    for members in out_uf.classes().values():
        tuple_members = [m for m in members if m[0] != "transition"]
        if not tuple_members:
            continue
        entries = {}
        transitions = set()
        for port_name, color in tuple_members:
            out_channel = network.channel_of(automaton.port(port_name))
            entries[cols.lam(out_channel, color)] = 1
            transitions.update(producers[(port_name, color)])
        for name in transitions:
            entries[cols.kappa(automaton, name)] = (
                entries.get(cols.kappa(automaton, name), 0) - 1
            )
        rows.append(SparseVector(entries))


# ---------------------------------------------------------------------------
# Elimination and invariant extraction
# ---------------------------------------------------------------------------


def generate_invariants(
    network: Network, colors: ColorMap, pool: VarPool
) -> list[Invariant]:
    """Derive the cross-layer invariants of ``network``.

    Returns one :class:`Invariant` per surviving row of the eliminated flow
    matrix, expressed over the pool's ``#q.d`` and ``A.s`` variables.
    """
    rows, cols = build_flow_rows(network, colors)
    survivors = eliminate_columns(rows, cols.eliminable())

    occ_lookup = cols.occ_items()
    state_lookup = cols.state_items()
    queue_by_name = {q.name: q for q in network.queues()}
    automaton_by_name = {a.name: a for a in network.automata()}

    invariants = []
    for row in survivors:
        row = row.normalized_integer()
        coeffs = {}
        constant = 0
        for column, coeff in row:
            if column == FlowColumns.CONST:
                constant = coeff
            elif column in occ_lookup:
                queue_name, color = occ_lookup[column]
                coeffs[pool.occupancy(queue_by_name[queue_name], color)] = coeff
            elif column in state_lookup:
                automaton_name, state = state_lookup[column]
                coeffs[pool.state(automaton_by_name[automaton_name], state)] = coeff
            else:  # pragma: no cover - eliminated columns cannot survive
                raise AssertionError("eliminable column survived elimination")
        invariants.append(Invariant(coeffs, constant))
    return invariants
