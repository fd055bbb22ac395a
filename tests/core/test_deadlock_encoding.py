"""Unit tests for the block/idle equation compiler."""

import pytest
from literal_oracle import LiteralEncoding

from repro.core import VarPool, derive_colors, encode_deadlock, verify
from repro.core.deadlock import DeadlockEncoding
from repro.netlib import producer_consumer
from repro.protocols.messages import Message
from repro.smt import Result, ge
from repro.xmas import NetworkBuilder


def solve_encoding(network, extra=(), rotating_precision=True):
    literal = LiteralEncoding(network, rotating_precision=rotating_precision)
    solver = literal.solver(literal.encoding.assertion, *extra)
    return solver.check(), solver, literal.pool, literal.encoding


def test_producer_consumer_has_no_deadlock():
    # fair sink: nothing can ever block
    verdict, *_ = solve_encoding(producer_consumer())
    assert verdict == Result.UNSAT


def test_dead_sink_creates_candidate():
    builder = NetworkBuilder()
    src = builder.source("src", colors={"x"})
    q = builder.queue("q", 2)
    snk = builder.sink("snk", fair=False)
    builder.pipeline(src.o, q.i, q.o, snk.i)
    verdict, solver, pool, _ = solve_encoding(builder.build())
    assert verdict == Result.SAT


def test_fair_merge_does_not_block():
    builder = NetworkBuilder()
    a = builder.source("a", colors={"x"})
    b = builder.source("b", colors={"y"})
    m = builder.merge("m", 2)
    q = builder.queue("q", 1)
    snk = builder.sink("snk")
    builder.connect(a.o, m.ins[0])
    builder.connect(b.o, m.ins[1])
    builder.connect(m.o, q.i)
    builder.connect(q.o, snk.i)
    verdict, *_ = solve_encoding(builder.build())
    assert verdict == Result.UNSAT


def test_fork_with_dead_branch_blocks():
    builder = NetworkBuilder()
    src = builder.source("src", colors={"x"})
    fork = builder.fork("f")
    qa = builder.queue("qa", 1)
    qb = builder.queue("qb", 1)
    good = builder.sink("good")
    dead = builder.sink("dead", fair=False)
    builder.connect(src.o, fork.i)
    builder.connect(fork.a, qa.i)
    builder.connect(fork.b, qb.i)
    builder.connect(qa.o, good.i)
    builder.connect(qb.o, dead.i)
    verdict, *_ = solve_encoding(builder.build())
    assert verdict == Result.SAT  # qb can fill and stall the fork


def test_join_starved_partner_blocks():
    builder = NetworkBuilder()
    data = builder.source("data", colors={"d"})
    q_in = builder.queue("qi", 1)
    join = builder.join("j")
    # partner side: a queue that is never fed -> token never arrives
    orphan_src = builder.source("orphan", colors={"t"})
    orphan_sink = builder.sink("osink")
    partner_q = builder.queue("pq", 1)
    feeder = builder.switch("sw", route=lambda d: 0, n_outputs=2)
    builder.connect(orphan_src.o, feeder.i)
    builder.connect(feeder.outs[0], orphan_sink.i)  # tokens all leave here
    builder.connect(feeder.outs[1], partner_q.i)  # never reached
    out_q = builder.queue("qo", 1)
    snk = builder.sink("snk")
    builder.connect(data.o, q_in.i)
    builder.connect(q_in.o, join.a)
    builder.connect(partner_q.o, join.b)
    builder.connect(join.o, out_q.i)
    builder.connect(out_q.o, snk.i)
    verdict, *_ = solve_encoding(builder.build())
    assert verdict == Result.SAT  # data packets starve at the join


def test_domain_constraints_bound_occupancies():
    net = producer_consumer(queue_size=3)
    literal = LiteralEncoding(net)
    queue = net["q"]
    solver = literal.solver(ge(literal.pool.occupancy(queue, "pkt"), 4))  # exceeds size 3
    assert solver.check() == Result.UNSAT


def test_assertion_cases_labelled():
    net = producer_consumer()
    colors = derive_colors(net)
    encoding = encode_deadlock(net, colors, VarPool())
    assert isinstance(encoding, DeadlockEncoding)
    labels = [case.label for case in encoding.cases]
    assert any("source" in label for label in labels)
    assert any("queue" in label for label in labels)


def test_rotating_precision_is_a_refinement():
    """The stall-to-end block rule only ever removes candidates.

    For the default 2x2 protocol the invariants alone already exclude the
    configurations the refinement targets, so both precisions prove q=3;
    the refinement direction (loose free ⇒ strict free) must always hold.
    """
    from repro.protocols import abstract_mi_mesh

    network = abstract_mi_mesh(2, 2, queue_size=3).network
    strict = verify(network, rotating_precision=True)
    loose = verify(network, rotating_precision=False)
    assert strict.deadlock_free
    if loose.deadlock_free:
        assert strict.deadlock_free  # refinement direction
    # and at the deadlocking size both must report the candidate
    small = abstract_mi_mesh(2, 2, queue_size=2).network
    assert not verify(small, rotating_precision=True).deadlock_free
    assert not verify(small, rotating_precision=False).deadlock_free


def test_function_block_passes_through():
    builder = NetworkBuilder()
    src = builder.source("src", colors={1})
    fn = builder.function("f", fn=lambda d: d + 1)
    q = builder.queue("q", 1)
    snk = builder.sink("snk", fair=False)
    builder.pipeline(src.o, fn.i, fn.o, q.i, q.o, snk.i)
    verdict, *_ = solve_encoding(builder.build())
    assert verdict == Result.SAT


def test_var_pool_rejects_two_colors_with_one_name():
    # Message labels concatenate coordinates: src (1, 11) and (11, 1)
    # both print "111".  Interned by name, the two colors would share one
    # Block/Idle variable and couple their equations.
    first = Message("GetX", src=(1, 11), dst=(0, 0))
    second = Message("GetX", src=(11, 1), dst=(0, 0))
    assert first != second and first.label() == second.label()
    network = producer_consumer()
    channel = network.channels[0]
    queue = network.queues()[0]
    for make in (
        lambda pool, color: pool.block(channel, color),
        lambda pool, color: pool.idle(channel, color),
        lambda pool, color: pool.occupancy(queue, color),
    ):
        pool = VarPool()
        var = make(pool, first)
        assert make(pool, first) is var
        with pytest.raises(ValueError, match="111"):
            make(pool, second)

