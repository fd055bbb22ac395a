"""Tests for the full MI protocol (GEM5 MI_example-inspired)."""

import pytest

from repro.protocols import Message, mi_mesh
from repro.protocols.mi_gem5 import (
    DATA,
    FWD,
    GETX,
    PUTX,
    UNBLOCK,
    WBACK,
    WBNACK,
    mi_ether,
    mi_vc_assignment,
)


def test_layout_with_dma():
    inst = mi_mesh(2, 2, queue_size=2)
    assert inst.directory_node == (1, 1)
    assert inst.dma_node == (0, 0)
    assert sorted(inst.caches) == [(0, 1), (1, 0)]


def test_layout_without_dma():
    inst = mi_mesh(2, 2, queue_size=2, with_dma=False)
    assert inst.dma is None
    assert len(inst.caches) == 3


def test_cache_has_five_states():
    inst = mi_mesh(2, 2, queue_size=2)
    cache = inst.caches[(0, 1)]
    assert set(cache.states) == {"I", "IM", "M", "MI", "II"}


def test_directory_has_four_plus_n_states():
    inst = mi_mesh(3, 3, queue_size=2)
    n_caches = len(inst.caches)
    assert len(inst.directory.states) == 4 + n_caches
    assert {"I", "MB", "DR", "DW"} <= set(inst.directory.states)


def test_directory_without_dma_omits_dr_dw():
    inst = mi_mesh(2, 2, queue_size=2, with_dma=False)
    assert "DR" not in inst.directory.states
    assert "DW" not in inst.directory.states


def test_dma_states():
    inst = mi_mesh(2, 2, queue_size=2)
    assert set(inst.dma.states) == {"idle", "busy_rd", "busy_wr"}


def test_cache_to_cache_transfer_transitions():
    inst = mi_mesh(2, 2, queue_size=2)
    cache = inst.caches[(0, 1)]
    fwd = Message(FWD, src=(1, 0), dst=(0, 1))
    t = next(
        t for t in cache.transitions
        if t.origin == "M" and t.in_port == "net_in" and t.accepts(fwd)
    )
    # ownership transfers for a cache requestor
    assert t.target == "I"
    port, data = t.output(fwd)
    assert data.mtype == DATA
    assert data.dst == (1, 0)


def test_dma_fwd_does_not_transfer_ownership():
    inst = mi_mesh(2, 2, queue_size=2)
    cache = inst.caches[(0, 1)]
    dma_fwd = Message(FWD, src=inst.dma_node, dst=(0, 1))
    t = next(
        t for t in cache.transitions
        if t.origin == "M" and t.in_port == "net_in" and t.accepts(dma_fwd)
    )
    assert t.target == "M"


def test_wbnack_race_states():
    inst = mi_mesh(2, 2, queue_size=2)
    cache = inst.caches[(0, 1)]
    nack = Message(WBNACK, src=(1, 1), dst=(0, 1))
    from_mi = next(
        t for t in cache.transitions if t.origin == "MI" and t.accepts(nack)
    )
    assert from_mi.target == "II"
    from_ii = next(
        t for t in cache.transitions if t.origin == "II" and t.accepts(nack)
    )
    assert from_ii.target == "I"


def test_directory_nacks_stale_putx():
    inst = mi_mesh(2, 2, queue_size=2)
    putx = Message(PUTX, src=(0, 1), dst=(1, 1))
    nackers = [
        t for t in inst.directory.transitions
        if t.accepts(putx) and t.origin in ("MB", "M_1_0")
    ]
    assert nackers, "stale putx must be nacked in busy/foreign-owner states"
    for t in nackers:
        assert t.origin == t.target  # nack does not change directory state
        _, reply = t.output(putx)
        assert reply.mtype == WBNACK


def test_directory_dma_read_transitions():
    inst = mi_mesh(2, 2, queue_size=2)
    dma_getx = Message(GETX, src=inst.dma_node, dst=(1, 1))
    at_i = next(
        t for t in inst.directory.transitions
        if t.origin == "I" and t.accepts(dma_getx)
    )
    assert at_i.target == "DR"
    # while owned: forward, stay in M(c)
    at_m = next(
        t for t in inst.directory.transitions
        if t.origin == "M_0_1" and t.accepts(dma_getx)
    )
    assert at_m.target == "M_0_1"
    _, fwd = at_m.output(dma_getx)
    assert fwd.mtype == FWD and fwd.dst == (0, 1)


def test_dma_completions_distinct():
    inst = mi_mesh(2, 2, queue_size=2)
    dir_node = inst.directory_node
    dma = inst.dma
    dir_data = Message(DATA, src=dir_node, dst=inst.dma_node)
    owner_data = Message(DATA, src=(0, 1), dst=inst.dma_node)
    rd_done = next(
        t for t in dma.transitions if t.origin == "busy_rd" and t.accepts(dir_data)
    )
    assert rd_done.output(dir_data)[1].mtype == UNBLOCK
    silent = next(
        t for t in dma.transitions if t.origin == "busy_rd" and t.accepts(owner_data)
    )
    assert silent.output(owner_data) is None
    wback = Message(WBACK, src=dir_node, dst=inst.dma_node)
    wr_done = next(
        t for t in dma.transitions if t.origin == "busy_wr" and t.accepts(wback)
    )
    assert wr_done.output(wback)[1].mtype == DATA


def test_vc_assignment_splits_request_response():
    assert mi_vc_assignment(Message(GETX, (0, 0), (1, 1))) == 0
    assert mi_vc_assignment(Message(PUTX, (0, 0), (1, 1))) == 0
    for mtype in (FWD, DATA, UNBLOCK, WBACK, WBNACK):
        assert mi_vc_assignment(Message(mtype, (0, 0), (1, 1))) == 1


def test_ether_queue_free_and_validates():
    net = mi_ether(2, 2)
    assert not net.queues()
    net.validate()


def test_mesh_validates_with_vcs():
    inst = mi_mesh(2, 2, queue_size=1, vcs=2)
    inst.network.validate()


def test_needs_room_for_caches():
    with pytest.raises(ValueError):
        mi_mesh(2, 1, queue_size=1)  # dir + dma leave no cache nodes


def test_torus_and_ring_minimum_queue_size_is_six():
    """The full MI protocol keeps its mesh minimum (6) on the wraparound
    fabrics — the EXPERIMENTS.md topology × protocol table pins this."""
    from repro import Verdict, verify
    from repro.protocols import mi_ring, mi_torus

    for inst in (mi_torus(2, 2, queue_size=5), mi_ring(4, queue_size=5)):
        assert verify(inst.network).verdict is Verdict.DEADLOCK_CANDIDATE
    for inst in (mi_torus(2, 2, queue_size=6), mi_ring(4, queue_size=6)):
        assert verify(inst.network).verdict is Verdict.DEADLOCK_FREE
