"""Tests for the abstract MI protocol (Figure 2)."""

from repro.protocols import Message, abstract_mi_mesh
from repro.protocols.abstract_mi import (
    ACK,
    GETX,
    INV,
    PUTX,
    abstract_mi_ether,
    request_response_vc,
)


def test_instance_layout_default_directory():
    inst = abstract_mi_mesh(2, 2, queue_size=2)
    assert inst.directory_node == (1, 1)
    assert sorted(inst.caches) == [(0, 0), (0, 1), (1, 0)]


def test_instance_layout_custom_directory():
    inst = abstract_mi_mesh(3, 3, queue_size=2, directory_node=(1, 1))
    assert inst.directory_node == (1, 1)
    assert len(inst.caches) == 8


def test_cache_automaton_shape():
    inst = abstract_mi_mesh(2, 2, queue_size=2)
    cache = inst.caches[(0, 0)]
    assert set(cache.states) == {"I", "M", "MI"}
    assert cache.initial == "I"
    # Figure 2a: exactly three edges in the minimal protocol.
    assert len(cache.transitions) == 3
    names = {t.name for t in cache.transitions}
    assert names == {"get!", "inv?put!", "ack?"}


def test_cache_voluntary_replacement_adds_edges():
    inst = abstract_mi_mesh(2, 2, queue_size=2, voluntary_replacement=True)
    cache = inst.caches[(0, 0)]
    names = {t.name for t in cache.transitions}
    assert "replace!" in names
    assert "staleinv@I" in names and "staleinv@MI" in names


def test_cache_voluntary_without_drops():
    inst = abstract_mi_mesh(
        2, 2, queue_size=2, voluntary_replacement=True, drop_stale_invs=False
    )
    names = {t.name for t in inst.caches[(0, 0)].transitions}
    assert "replace!" in names
    assert "staleinv@I" not in names


def test_directory_states_parameterized_per_cache():
    inst = abstract_mi_mesh(2, 2, queue_size=2)
    directory = inst.directory
    assert "I" in directory.states
    # 1 + 2 * n_caches states
    assert len(directory.states) == 1 + 2 * 3
    for c in sorted(inst.caches):
        assert f"M_{c[0]}_{c[1]}" in directory.states
        assert f"MI_{c[0]}_{c[1]}" in directory.states


def test_directory_no_dead_put_at_m_by_default():
    inst = abstract_mi_mesh(2, 2, queue_size=2)
    for t in inst.directory.transitions:
        if t.name.startswith("put?"):
            assert "@MI_" in t.name


def test_directory_accept_put_in_m_with_voluntary():
    inst = abstract_mi_mesh(2, 2, queue_size=2, voluntary_replacement=True)
    origins = {
        t.origin for t in inst.directory.transitions if t.name.startswith("put?")
    }
    assert any(o.startswith("M_") for o in origins)
    assert any(o.startswith("MI_") for o in origins)


def test_repeat_inv_adds_self_loops():
    inst = abstract_mi_mesh(2, 2, queue_size=2, repeat_inv=True)
    reinv = [t for t in inst.directory.transitions if t.name.startswith("reinv!")]
    assert len(reinv) == 3
    for t in reinv:
        assert t.origin == t.target


def test_guards_distinguish_senders():
    inst = abstract_mi_mesh(2, 2, queue_size=2)
    get_00 = Message(GETX, src=(0, 0), dst=(1, 1))
    get_01 = Message(GETX, src=(0, 1), dst=(1, 1))
    t = next(t for t in inst.directory.transitions if t.name == "get?00")
    assert t.accepts(get_00)
    assert not t.accepts(get_01)
    assert not t.accepts(Message(PUTX, src=(0, 0), dst=(1, 1)))


def test_cache_guards_by_type():
    inst = abstract_mi_mesh(2, 2, queue_size=2)
    cache = inst.caches[(0, 0)]
    inv = Message(INV, src=(1, 1), dst=(0, 0))
    ack = Message(ACK, src=(1, 1), dst=(0, 0))
    inv_t = next(t for t in cache.transitions if t.name == "inv?put!")
    ack_t = next(t for t in cache.transitions if t.name == "ack?")
    assert inv_t.accepts(inv) and not inv_t.accepts(ack)
    assert ack_t.accepts(ack) and not ack_t.accepts(inv)
    out = inv_t.output(inv)
    assert out is not None
    port, packet = out
    assert packet.mtype == PUTX
    assert packet.src == (0, 0)


def test_vc_assignment():
    assert request_response_vc(Message(GETX, (0, 0), (1, 1))) == 0
    assert request_response_vc(Message(PUTX, (0, 0), (1, 1))) == 0
    assert request_response_vc(Message(INV, (1, 1), (0, 0))) == 1
    assert request_response_vc(Message(ACK, (1, 1), (0, 0))) == 1


def test_message_labels_stable():
    m = Message(GETX, src=(0, 0), dst=(1, 1))
    assert m.label() == "getX[00->11]"
    assert m.with_vc(1).label() == "getX[00->11]@vc1"


def test_ether_network_is_queue_free():
    net = abstract_mi_ether(2, 2)
    assert not net.queues()
    assert len(net.automata()) == 4


def test_mesh_network_validates():
    inst = abstract_mi_mesh(2, 2, queue_size=1, vcs=2)
    inst.network.validate()
