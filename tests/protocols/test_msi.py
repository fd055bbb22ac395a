"""Tests for the directory MSI protocol: automaton shape, virtual-network
assignment, topology parameterization, and verdict determinism across
scheduler job counts and invariant modes."""

import pytest

from repro import Verdict, verify
from repro.core import Experiment, ScenarioSpec
from repro.protocols import Message, msi_mesh, msi_ring, msi_torus
from repro.protocols.msi import (
    DATA,
    GETM,
    GETS,
    MSI_VNETS,
    PUTM,
    UNBLOCK,
    WBACK,
    msi_vc_assignment,
)

CACHE_STATES = {"I", "IS", "IM", "S", "SM", "M", "MI"}


# ---------------------------------------------------------------------------
# Shape
# ---------------------------------------------------------------------------
def test_instance_layout_default_directory():
    inst = msi_mesh(2, 2, queue_size=2)
    assert inst.directory_node == (1, 1)
    assert inst.cache_nodes() == [(0, 0), (0, 1), (1, 0)]


def test_cache_automaton_states():
    inst = msi_mesh(2, 2, queue_size=2)
    for cache in inst.caches.values():
        assert set(cache.states) == CACHE_STATES
        assert cache.initial == "I"


def test_directory_is_forward_explored():
    """Every directory state is reachable from I — the worklist generator
    guarantees it, and network validation relies on it."""
    inst = msi_mesh(2, 2, queue_size=2)
    directory = inst.directory
    assert directory.initial == "I"
    reachable = {directory.initial}
    frontier = [directory.initial]
    by_origin = {}
    for t in directory.transitions:
        by_origin.setdefault(t.origin, []).append(t.target)
    while frontier:
        state = frontier.pop()
        for target in by_origin.get(state, ()):
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    assert reachable == set(directory.states)


def test_sharer_capacity_bounds_recorded_sharers():
    """No reachable ``S_<tags>`` state records more than the sharer
    capacity — past it the directory recalls a sharer instead.  The
    owner-downgrade path (``getS`` at ``M``: fwdS keeps the old owner as a
    sharer alongside the requestor) always records two, so the effective
    bound is ``max(max_sharers, 2)``."""
    for cap in (1, 2, 3):
        inst = msi_mesh(2, 2, queue_size=2, max_sharers=cap)
        shared = [s for s in inst.directory.states if s.startswith("S_")]
        assert shared, f"max_sharers={cap} lost the S states"
        bound = max(cap, 2)
        assert all(len(s.split("_")) - 1 <= bound for s in shared), (cap, shared)


def test_vnet_assignment():
    assert MSI_VNETS == 3
    node, peer = (0, 0), (1, 1)
    assert msi_vc_assignment(Message(GETS, src=node, dst=peer)) == 0
    assert msi_vc_assignment(Message(GETM, src=node, dst=peer)) == 0
    assert msi_vc_assignment(Message(DATA, src=node, dst=peer)) == 1
    assert msi_vc_assignment(Message(UNBLOCK, src=node, dst=peer)) == 1
    assert msi_vc_assignment(Message(WBACK, src=node, dst=peer)) == 1
    assert msi_vc_assignment(Message(PUTM, src=node, dst=peer)) == 2


def test_topology_variants_build_and_validate():
    assert msi_torus(2, 2, queue_size=2).network.stats()["queues"] > 0
    assert msi_ring(4, queue_size=2).network.stats()["queues"] > 0


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------
def test_mesh_minimum_queue_size_is_four():
    assert (
        verify(msi_mesh(2, 2, queue_size=3).network).verdict
        is Verdict.DEADLOCK_CANDIDATE
    )
    assert (
        verify(msi_mesh(2, 2, queue_size=4).network).verdict
        is Verdict.DEADLOCK_FREE
    )


@pytest.mark.slow
def test_torus_and_ring_minima_match_mesh():
    assert (
        verify(msi_torus(2, 2, queue_size=4).network).verdict
        is Verdict.DEADLOCK_FREE
    )
    assert (
        verify(msi_ring(4, queue_size=4).network).verdict
        is Verdict.DEADLOCK_FREE
    )


def _msi_grid(invariants: str) -> Experiment:
    return Experiment(
        f"msi-identity-{invariants}",
        [
            ScenarioSpec(
                builder="msi_mesh",
                kwargs={"width": 2, "height": 2},
                mode="sweep",
                sizes=(3, 4),
                invariants=invariants,
            )
        ],
    )


def test_verdicts_identical_across_jobs_and_invariant_modes():
    """The acceptance bar: byte-identical eager verdicts whether the grid
    runs sequentially, sharded across scenarios or across the probes of
    one scenario."""
    eager = _msi_grid("eager")
    sequential = eager.run(jobs=1)
    sharded = eager.run(jobs=2, backend="thread")
    assert sequential.verdict_bytes() == sharded.verdict_bytes()

    # Each probe on its own pool worker, the invariants baked into the
    # worker snapshot.
    probes_sharded = eager.run(jobs=1, query_jobs=2, backend="thread")
    assert probes_sharded.verdict_bytes() == sequential.verdict_bytes()
