"""Deadlock detection via block/idle equations (Section 3).

For every channel ``c`` and color ``d ∈ T(c)`` two boolean variables are
introduced:

* ``Block(c, d)`` — the target of ``c`` permanently refuses packets ``d``;
* ``Idle(c, d)``  — the initiator of ``c`` permanently stops offering ``d``.

Each primitive contributes a *definition* ``(name, rhs)`` — read as the
biconditional ``name ⇔ rhs`` — for the block of its in-channels and the
idle of its out-channels (Gotmanov et al., VMCAI'11, extended to k-way
switches/merges and — the paper's contribution — to xMAS automata).  A
solver binds the whole system at once (:meth:`repro.smt.Solver.define`),
so a name that copies another costs no variable.  Cyclic definitions are
expected (the network has cycles); any satisfying assignment of the
equation system conjoined with the *deadlock assertion*

    ∃ queue q, d ∈ T(q.o):  #q.d ≥ 1 ∧ Block(q.o, d)
  ∨ ∃ fair source src, d:   Block(src.o, d)

is a deadlock *candidate*.  UNSAT means deadlock-free (sound); SAT may be a
false negative, to be ruled out by invariants (:mod:`repro.core.invariants`)
or confirmed by explicit-state search (:mod:`repro.mc`).

Queue-block refinement: the paper's queue equation requires a full queue
whose head is permanently stuck; we additionally require the stuck color to
be *present* (``#q.d' ≥ 1``), which is sound because a deadlocked head
packet occupies the queue.  For ``rotating`` queues (automaton-facing
queues that move an unconsumable head to the tail) an optional stronger
rule demands *every present* color be stuck before the queue blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

from ..smt import (
    FALSE,
    TRUE,
    IntVar,
    Term,
    boolvar,
    conj,
    disj,
    eq,
    ge,
    implies,
    le,
)
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
from .vars import VarPool, color_label

__all__ = ["DeadlockCase", "DeadlockEncoding", "encode_deadlock"]

Color = Hashable

# How queue capacities enter the encoding: by default the literal
# ``queue.size`` (the from-scratch form tests and benchmarks check
# against); ``SessionSpec`` supplies one IntVar per queue so different
# sizes can be probed by assumption alone.
Capacities = Mapping[str, IntVar]


@dataclass(frozen=True)
class DeadlockCase:
    """One disjunct of the deadlock assertion, tagged with a guard literal.

    ``guard`` is a fresh boolean variable constrained (by
    :meth:`DeadlockEncoding.guard_terms`) to imply ``term``.  Assuming a
    single guard asks the incremental engine "is *this* queue/color (or
    source/color) a deadlock candidate?" without touching the other
    disjuncts — and without invalidating any learned clause.
    """

    label: str
    kind: str  # "queue" | "source"
    subject: str  # name of the queue / source primitive
    color: Color
    term: Term
    guard: Term


@dataclass
class DeadlockEncoding:
    """The SMT encoding of "a deadlock configuration exists"."""

    # (name, rhs): the block/idle/dead equations, name ⇔ rhs.
    definitions: list[tuple[Term, Term]] = field(default_factory=list)
    domain: list[Term] = field(default_factory=list)
    assertion: Term = FALSE
    # The assertion's disjuncts with their assumption guards.
    cases: list[DeadlockCase] = field(default_factory=list)
    # Master guard: assuming it asserts "some disjunct fires".
    any_guard: Term = FALSE

    def guard_terms(self) -> list[Term]:
        """Guard wiring for assumption-based querying.

        ``guardᵢ → caseᵢ`` for every disjunct plus
        ``any_guard → ⋁ᵢ guardᵢ``.  Guards are otherwise free, so adding
        these terms never changes satisfiability of the base encoding.
        """
        wiring = [implies(case.guard, case.term) for case in self.cases]
        wiring.append(
            implies(self.any_guard, disj(*(case.guard for case in self.cases)))
        )
        return wiring

    def case_of(self, kind: str, subject: str, color: Color) -> DeadlockCase:
        for case in self.cases:
            if case.kind == kind and case.subject == subject and case.color == color:
                return case
        raise KeyError(f"no deadlock case for {kind} {subject!r} color {color!r}")


def encode_deadlock(
    network: Network,
    colors: ColorMap,
    pool: VarPool,
    rotating_precision: bool = True,
    capacities: Capacities | None = None,
) -> DeadlockEncoding:
    """Build the block/idle equation system and deadlock assertion.

    With ``capacities`` (queue name → IntVar), queue sizes enter the
    formula symbolically instead of as the networks' literal ``size``
    attributes; the caller is responsible for pinning each capacity
    variable (e.g. by assumption) before checking.
    """
    enc = DeadlockEncoding()
    _encode_domains(network, colors, pool, enc, capacities)
    for channel in network.channels:
        channel_colors = colors.of(channel)
        if not channel_colors:
            continue
        # A queue's block and an automaton's idle read the same terms for
        # every color of the channel: build them once here.
        target, initiator = channel.target.owner, channel.initiator.owner
        queue_block = produced = None
        if isinstance(target, Queue):
            queue_block = _queue_block_rhs(
                network, colors, pool, target, rotating_precision, capacities
            )
        if isinstance(initiator, Automaton):
            produced = _automaton_outputs(network, colors, initiator, channel.initiator.name)
        for color in channel_colors:
            if queue_block is None:
                block_def = _block_rhs(network, colors, pool, channel, color)
            else:
                block_def = queue_block
            if produced is None:
                idle_def = _idle_rhs(network, colors, pool, channel, color)
            else:
                # paper: (∀t,i,d. ε → φ ≠ (o,d')) ∨ dead(A)
                idle_def = pool.dead(initiator) if color in produced else TRUE
            enc.definitions.append((pool.block(channel, color), block_def))
            enc.definitions.append((pool.idle(channel, color), idle_def))
    for automaton in network.automata():
        enc.definitions.append(
            (pool.dead(automaton), _dead_rhs(network, colors, pool, automaton))
        )
    _encode_assertion(network, colors, pool, enc)
    return enc


def _capacity(queue: Queue, capacities: Capacities | None) -> IntVar | int:
    if capacities is None:
        return queue.size
    return capacities[queue.name]


# ---------------------------------------------------------------------------
# Domain constraints
# ---------------------------------------------------------------------------


def _encode_domains(
    network: Network,
    colors: ColorMap,
    pool: VarPool,
    enc: DeadlockEncoding,
    capacities: Capacities | None,
) -> None:
    for queue in network.queues():
        capacity = _capacity(queue, capacities)
        occupancies = [
            pool.occupancy(queue, color)
            for color in colors.of(network.channel_of(queue.i))
        ]
        for var in occupancies:
            enc.domain.append(ge(var, 0))
            if capacities is None:
                enc.domain.append(le(var, capacity))
            # Parametric mode: per-color ≤ cap is implied by the total row
            # below plus nonnegativity; leaving it out keeps one slack
            # column per queue instead of one per (queue, color).
        if occupancies:
            total = sum(occupancies[1:], occupancies[0] + 0)
            enc.domain.append(le(total, capacity))
    for automaton in network.automata():
        state_vars = [pool.state(automaton, s) for s in automaton.states]
        for var in state_vars:
            enc.domain.append(ge(var, 0))
            enc.domain.append(le(var, 1))
        total = sum(state_vars[1:], state_vars[0] + 0)
        enc.domain.append(eq(total, 1))


def _queue_full(
    queue: Queue,
    colors: ColorMap,
    pool: VarPool,
    network: Network,
    capacities: Capacities | None,
) -> Term:
    occupancies = [
        pool.occupancy(queue, color)
        for color in colors.of(network.channel_of(queue.i))
    ]
    if not occupancies:
        return FALSE  # a queue no color can reach is never full
    total = sum(occupancies[1:], occupancies[0] + 0)
    return eq(total, _capacity(queue, capacities))


# ---------------------------------------------------------------------------
# Block equations (defined by the channel's *target* primitive)
# ---------------------------------------------------------------------------


def _queue_block_rhs(
    network: Network,
    colors: ColorMap,
    pool: VarPool,
    queue: Queue,
    rotating_precision: bool,
    capacities: Capacities | None,
) -> Term:
    """Block of a queue's in-channel: the same term for every color."""
    out_channel = network.channel_of(queue.o)
    head_colors = colors.of(out_channel)
    full = _queue_full(queue, colors, pool, network, capacities)
    if queue.rotating and rotating_precision:
        # Rotation lets consumable heads bypass stuck ones: the queue
        # only blocks when every color actually present is stuck.
        stuck_all = conj(
            *(
                implies(
                    ge(pool.occupancy(queue, d), 1),
                    pool.block(out_channel, d),
                )
                for d in head_colors
            )
        )
        return conj(full, stuck_all)
    stuck_head = disj(
        *(
            conj(ge(pool.occupancy(queue, d), 1), pool.block(out_channel, d))
            for d in head_colors
        )
    )
    return conj(full, stuck_head)


def _block_rhs(
    network: Network,
    colors: ColorMap,
    pool: VarPool,
    channel: Channel,
    color: Color,
) -> Term:
    """Block of ``channel`` for ``color``; queue targets go through
    :func:`_queue_block_rhs`."""
    target = channel.target.owner
    port = channel.target

    if isinstance(target, Function):
        out_channel = network.channel_of(target.o)
        return pool.block(out_channel, target.fn(color))

    if isinstance(target, Sink):
        if target.fair:
            return FALSE
        return pool.dead_sink_choice(target)

    if isinstance(target, Fork):
        chan_a = network.channel_of(target.a)
        chan_b = network.channel_of(target.b)
        return disj(
            pool.block(chan_a, target.fn_a(color)),
            pool.block(chan_b, target.fn_b(color)),
        )

    if isinstance(target, Join):
        out_channel = network.channel_of(target.o)
        if port is target.a:
            partner_channel = network.channel_of(target.b)
            partner_colors = colors.of(partner_channel)
            combine = lambda mine, other: target.combine(mine, other)  # noqa: E731
        else:
            partner_channel = network.channel_of(target.a)
            partner_colors = colors.of(partner_channel)
            combine = lambda mine, other: target.combine(other, mine)  # noqa: E731
        partner_starved = conj(
            *(pool.idle(partner_channel, d) for d in partner_colors)
        )
        output_stuck = disj(
            *(pool.block(out_channel, combine(color, d)) for d in partner_colors)
        )
        return disj(partner_starved, output_stuck)

    if isinstance(target, Switch):
        index = target.route(color)
        out_channel = network.channel_of(target.outs[index])
        return pool.block(out_channel, color)

    if isinstance(target, Merge):
        # Fair arbitration: an input is permanently refused only if the
        # shared output permanently refuses the packet.
        out_channel = network.channel_of(target.o)
        return pool.block(out_channel, color)

    if isinstance(target, Automaton):
        port_name = port.name
        acceptors = [
            t for t in target.transitions_on_port(port_name) if t.accepts(color)
        ]
        if not acceptors:
            return TRUE  # paper: (∀t. ¬ε(i,d)) ∨ dead(A)
        return pool.dead(target)

    raise TypeError(f"no block equation for {type(target).__name__}")


# ---------------------------------------------------------------------------
# Idle equations (defined by the channel's *initiator* primitive)
# ---------------------------------------------------------------------------


def _automaton_outputs(
    network: Network, colors: ColorMap, automaton: Automaton, port_name: str
) -> set[Color]:
    """Every color some transition of ``automaton`` can emit on ``port_name``."""
    produced: set[Color] = set()
    for transition in automaton.transitions:
        if transition.out_port != port_name:
            continue
        in_channel = network.channel_of(automaton.port(transition.in_port))
        for d in colors.of(in_channel):
            if transition.accepts(d):
                produced.add(transition.output(d)[1])
    return produced


def _idle_rhs(
    network: Network,
    colors: ColorMap,
    pool: VarPool,
    channel: Channel,
    color: Color,
) -> Term:
    """Idle of ``channel`` for ``color``; automaton initiators go through
    :func:`_automaton_outputs`."""
    initiator = channel.initiator.owner
    port = channel.initiator

    if isinstance(initiator, Source):
        # Fair sources eventually offer every one of their colors.
        return FALSE if color in initiator.colors else TRUE

    if isinstance(initiator, Queue):
        # A queue stops offering d when it holds none and no d can *enter*
        # any more — either none is ever offered upstream, or the queue is
        # permanently full of other packets (blocked entry).  The second
        # disjunct is essential: without it, a packet stuck in front of a
        # permanently full queue would falsify the idleness of the queue
        # output and real deadlocks (e.g. Figure 3) would be missed.
        in_channel = network.channel_of(initiator.i)
        return conj(
            eq(pool.occupancy(initiator, color), 0),
            disj(
                pool.idle(in_channel, color),
                pool.block(in_channel, color),
            ),
        )

    if isinstance(initiator, Function):
        in_channel = network.channel_of(initiator.i)
        preimages = [d for d in colors.of(in_channel) if initiator.fn(d) == color]
        return conj(*(pool.idle(in_channel, d) for d in preimages))

    if isinstance(initiator, Fork):
        in_channel = network.channel_of(initiator.i)
        if port is initiator.a:
            transform, other_transform = initiator.fn_a, initiator.fn_b
            other_channel = network.channel_of(initiator.b)
        else:
            transform, other_transform = initiator.fn_b, initiator.fn_a
            other_channel = network.channel_of(initiator.a)
        preimages = [d for d in colors.of(in_channel) if transform(d) == color]
        # Each candidate packet never reaches this output iff it never
        # arrives or the synchronous copy to the sibling output is stuck.
        return conj(
            *(
                disj(
                    pool.idle(in_channel, d),
                    pool.block(other_channel, other_transform(d)),
                )
                for d in preimages
            )
        )

    if isinstance(initiator, Join):
        chan_a = network.channel_of(initiator.a)
        chan_b = network.channel_of(initiator.b)
        pairs = [
            (da, db)
            for da in colors.of(chan_a)
            for db in colors.of(chan_b)
            if initiator.combine(da, db) == color
        ]
        return conj(
            *(
                disj(pool.idle(chan_a, da), pool.idle(chan_b, db))
                for da, db in pairs
            )
        )

    if isinstance(initiator, Switch):
        in_channel = network.channel_of(initiator.i)
        if color not in colors.of(in_channel):
            return TRUE
        if initiator.outs[initiator.route(color)] is not port:
            return TRUE
        return pool.idle(in_channel, color)

    if isinstance(initiator, Merge):
        feeders = [
            network.channel_of(p)
            for p in initiator.ins
            if color in colors.of(network.channel_of(p))
        ]
        return conj(*(pool.idle(f, color) for f in feeders))

    raise TypeError(f"no idle equation for {type(initiator).__name__}")


# ---------------------------------------------------------------------------
# Automaton deadness (the paper's dead_A equation)
# ---------------------------------------------------------------------------


def _dead_rhs(
    network: Network, colors: ColorMap, pool: VarPool, automaton: Automaton
) -> Term:
    per_state = []
    for state in automaton.states:
        outgoing = automaton.transitions_from(state)
        all_dead = conj(
            *(_transition_dead(network, colors, pool, automaton, t) for t in outgoing)
        )
        per_state.append(conj(eq(pool.state(automaton, state), 1), all_dead))
    return disj(*per_state)


def _transition_dead(
    network: Network, colors: ColorMap, pool: VarPool, automaton: Automaton, transition
) -> Term:
    """dead(t): every packet that could trigger t is stuck or never comes."""
    in_channel = network.channel_of(automaton.port(transition.in_port))
    cases = []
    for color in colors.of(in_channel):
        if not transition.accepts(color):
            continue
        stuck_or_starved = pool.idle(in_channel, color)
        output = transition.output(color)
        if output is not None:
            out_port, produced = output
            out_channel = network.channel_of(automaton.port(out_port))
            stuck_or_starved = disj(
                pool.block(out_channel, produced), stuck_or_starved
            )
        cases.append(stuck_or_starved)
    return conj(*cases)  # vacuously dead if no color can ever trigger it


# ---------------------------------------------------------------------------
# Deadlock assertion
# ---------------------------------------------------------------------------


def _encode_assertion(
    network: Network, colors: ColorMap, pool: VarPool, enc: DeadlockEncoding
) -> None:
    def make_case(label: str, kind: str, subject: str, color: Color, term: Term):
        guard = boolvar(f"dl[{kind}:{subject}:{color_label(color)}]")
        enc.cases.append(
            DeadlockCase(
                label=label,
                kind=kind,
                subject=subject,
                color=color,
                term=term,
                guard=guard,
            )
        )

    for queue in network.queues():
        out_channel = network.channel_of(queue.o)
        for color in colors.of(out_channel):
            make_case(
                f"queue {queue.name} holds stuck {color!r}",
                "queue",
                queue.name,
                color,
                conj(
                    ge(pool.occupancy(queue, color), 1),
                    pool.block(out_channel, color),
                ),
            )
    for source in network.sources():
        out_channel = network.channel_of(source.o)
        for color in source.colors:
            make_case(
                f"source {source.name} permanently blocked on {color!r}",
                "source",
                source.name,
                color,
                pool.block(out_channel, color),
            )
    enc.assertion = disj(*(case.term for case in enc.cases))
    enc.any_guard = boolvar(f"dl[any:{network.name}]")
