"""Integration tests: the paper's case study end to end (E3, E5, E6, E9,
E11)."""

import pytest

from repro import Verdict, verify
from repro.core import (
    VarPool,
    derive_colors,
    generate_invariants,
    minimal_queue_size,
    sweep_queue_sizes,
    verdict_sha,
)
from repro.linalg import SparseVector, row_space_contains
from repro.mc import Explorer, check_handshake_composition
from repro.protocols import Message, abstract_mi_mesh, mi_mesh
from repro.protocols.abstract_mi import abstract_mi_ether


class TestE3Figure3:
    """2×2 mesh, abstract MI: deadlock at size 2, free at size 3."""

    def test_queue_size_2_deadlocks(self):
        result = verify(abstract_mi_mesh(2, 2, queue_size=2).network)
        assert result.verdict is Verdict.DEADLOCK_CANDIDATE

    def test_queue_size_3_deadlock_free(self):
        result = verify(abstract_mi_mesh(2, 2, queue_size=3).network)
        assert result.verdict is Verdict.DEADLOCK_FREE

    def test_minimal_size_is_3(self):
        sizing = minimal_queue_size(
            lambda q: abstract_mi_mesh(2, 2, queue_size=q).network,
            exhaustive=True,
        )
        assert sizing.minimal_size == 3

    def test_size_2_witness_is_reachable(self):
        from repro.core import enumerate_witnesses

        inst = abstract_mi_mesh(2, 2, queue_size=2)
        explorer = Explorer(inst.network)
        assert any(
            explorer.confirm_witness(
                witness.automaton_states,
                witness.queue_contents,
                max_states=400_000,
            ).found_deadlock
            for witness in enumerate_witnesses(inst.network, limit=12)
        )

    def test_size_3_exhaustively_free_in_mc(self):
        result = Explorer(
            abstract_mi_mesh(2, 2, queue_size=3).network
        ).find_deadlock(max_states=500_000)
        assert result.exhausted and not result.found_deadlock


class TestE5Invariants:
    """Section 5: invariants (3) and (4) for the 2×2 case study."""

    @pytest.fixture(scope="class")
    def generated(self):
        inst = abstract_mi_mesh(2, 2, queue_size=2)
        pool = VarPool()
        colors = derive_colors(inst.network)
        invariants = generate_invariants(inst.network, colors, pool)
        return inst, pool, invariants

    @staticmethod
    def rows(invariants):
        result = []
        for inv in invariants:
            entries = {var.uid: coeff for var, coeff in inv.coeffs}
            if inv.constant:
                entries[0] = inv.constant
            result.append(SparseVector(entries))
        return result

    def all_queue_vars(self, inst, pool, message):
        """Occupancy vars of `message` over every queue it can traverse."""
        colors = derive_colors(inst.network)
        variables = []
        for queue in inst.network.queues():
            if message in colors.of(inst.network.channel_of(queue.i)):
                variables.append(pool.occupancy(queue, message))
        return variables

    def test_equation_3_per_cache(self, generated):
        """1 = Σ #getX(c) + Σ #ack(c) + c.I + d.M(c) + d.MI(c)."""
        inst, pool, invariants = generated
        rows = self.rows(invariants)
        dir_node = inst.directory_node
        for c, cache in inst.caches.items():
            entries = {0: -1}  # constant: ... = 1
            getx = Message("getX", src=c, dst=dir_node)
            ack = Message("ack", src=dir_node, dst=c)
            for var in self.all_queue_vars(inst, pool, getx):
                entries[var.uid] = 1
            for var in self.all_queue_vars(inst, pool, ack):
                entries[var.uid] = 1
            entries[pool.state(cache, "I").uid] = 1
            entries[pool.state(inst.directory, f"M_{c[0]}_{c[1]}").uid] = 1
            entries[pool.state(inst.directory, f"MI_{c[0]}_{c[1]}").uid] = 1
            assert row_space_contains(rows, SparseVector(entries)), (
                f"paper invariant (3) for cache {c} not derivable"
            )

    def test_equation_4_per_cache(self, generated):
        """d.MI(c) = Σ #putX(c) + Σ #inv(c)."""
        inst, pool, invariants = generated
        rows = self.rows(invariants)
        dir_node = inst.directory_node
        for c in inst.caches:
            entries = {}
            putx = Message("putX", src=c, dst=dir_node)
            inv = Message("inv", src=dir_node, dst=c)
            for var in self.all_queue_vars(inst, pool, putx):
                entries[var.uid] = 1
            for var in self.all_queue_vars(inst, pool, inv):
                entries[var.uid] = 1
            entries[pool.state(inst.directory, f"MI_{c[0]}_{c[1]}").uid] = -1
            assert row_space_contains(rows, SparseVector(entries)), (
                f"paper invariant (4) for cache {c} not derivable"
            )

    def test_invariants_hold_initially(self, generated):
        inst, pool, invariants = generated
        assignment = {}
        for automaton in inst.network.automata():
            for state in automaton.states:
                assignment[pool.state(automaton, state)] = int(
                    state == automaton.initial
                )
        for invariant in invariants:
            assert invariant.evaluate(assignment)


class TestE11EagerSweep:
    """One eager sweep per mesh across its minimum, which is the cache
    count ``w*h - 1`` in this single-ejection-queue router."""

    @pytest.mark.parametrize(
        "width, sizes, rows, sha",
        [(2, (2, 3), 13, "20995419e53f85ce"), (3, (7, 8), 33, "949d57688d4c2309")],
        ids=["2x2", "3x3"],
    )
    def test_sweep_across_the_minimum_is_pinned(self, width, sizes, rows, sha):
        sizing = sweep_queue_sizes(
            lambda size: abstract_mi_mesh(width, width, queue_size=size).network,
            sizes,
            jobs=1,
            want_witness=False,
        )
        assert sizing.probes == {sizes[0]: False, sizes[1]: True}
        assert sizing.invariants_generated == rows
        assert verdict_sha(sorted(sizing.probes.items())) == sha


class TestE6VirtualChannels:
    """VCs do not resolve the deadlock but matter for sizing."""

    def test_deadlock_survives_vcs(self):
        result = verify(abstract_mi_mesh(2, 2, queue_size=2, vcs=2).network)
        assert result.verdict is Verdict.DEADLOCK_CANDIDATE

    def test_vcs_verify_at_size_3(self):
        result = verify(abstract_mi_mesh(2, 2, queue_size=3, vcs=2).network)
        assert result.verdict is Verdict.DEADLOCK_FREE


class TestE9HandshakeBaseline:
    def test_abstract_protocol_free_under_handshake(self):
        assert check_handshake_composition(abstract_mi_ether(2, 2)).deadlock_free

    def test_abstract_protocol_3x3_free_under_handshake(self):
        assert check_handshake_composition(abstract_mi_ether(3, 3)).deadlock_free


class TestE8FullMI:
    def test_full_mi_smt_finds_real_deadlock_at_q2(self):
        inst = mi_mesh(2, 2, queue_size=2)
        result = verify(inst.network)
        assert result.verdict is Verdict.DEADLOCK_CANDIDATE
        confirm = Explorer(inst.network).find_deadlock(max_states=500_000)
        assert confirm.found_deadlock

    def test_full_mi_q3_mc_ground_truth_free(self):
        result = Explorer(mi_mesh(2, 2, queue_size=3).network).find_deadlock(
            max_states=2_000_000
        )
        assert result.exhausted and not result.found_deadlock

    def test_full_mi_invariant_count_reported(self):
        result = verify(mi_mesh(2, 2, queue_size=2).network)
        # the paper reports 14 invariants in its 2x2 setting; we report our
        # basis size (layout differs: 2 caches + dma instead of 3 caches)
        assert result.stats["invariant_count"] >= 10


class TestDirectoryPlacement:
    def test_2x3_directory_positions(self):
        # minimal size must not depend on queue-irrelevant details and must
        # be computable for non-corner directories too
        sizes = {}
        for position in ((0, 0), (1, 1)):
            sizing = minimal_queue_size(
                lambda q, p=position: abstract_mi_mesh(
                    2, 2, queue_size=q, directory_node=p
                ).network
            )
            sizes[position] = sizing.minimal_size
        assert sizes[(0, 0)] == sizes[(1, 1)] == 3
