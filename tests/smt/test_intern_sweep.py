"""The intern table keeps a term only while something else references it.

A sweep drops the terms nothing outside the table holds.  These tests pin
what must not change across a sweep: a rebuilt design encodes to the same
bytes, a live term keeps its identity, and no two live terms are ever
structurally equal.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SessionSpec, VerificationSession
from repro.smt import terms
from repro.smt.cnf import CnfBuilder
from repro.smt.terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolConst,
    BoolVar,
    Not,
    Or,
    boolvar,
    conj,
    disj,
    intvar,
    le,
    neg,
)


def _key_of(term):
    """The key the intern table files ``term`` under."""
    if isinstance(term, BoolConst):
        return (BoolConst, term.value)
    if isinstance(term, BoolVar):
        return (BoolVar, term.name)
    if isinstance(term, Atom):
        return (Atom, term.constraint._key)
    if isinstance(term, Not):
        return (Not, term.arg.uid)
    return (type(term), tuple(arg.uid for arg in term.args))


def _is_interned(term) -> bool:
    return terms._intern_table.get(_key_of(term)) is term


def _image(builder: str, kwargs: dict):
    session = VerificationSession(spec=SessionSpec.from_builder(builder, kwargs))
    session.add_invariants()
    snapshot = session.snapshot()
    first_case = session.encoding.cases[0].term
    image = (
        repr(snapshot.solver.clauses).encode(),
        snapshot.content_hash(),
        snapshot.case_guard_names,
    )
    session.close()
    return image, first_case.uid


def test_rebuilt_design_after_a_sweep_is_byte_identical():
    design = ("abstract_mi_torus", {"width": 2, "height": 2, "queue_size": 2})
    first, first_uid = _image(*design)
    live_before = terms.live_terms()
    second, second_uid = _image(*design)
    # The sweep dropped the first build's terms, so the rebuild minted
    # its terms afresh under new uids ...
    assert second_uid != first_uid
    assert terms.live_terms() <= live_before
    # ... and still encodes to the same clauses, hash and guard names.
    assert second == first


def test_a_dead_parent_frees_its_children_in_the_same_sweep():
    n = intvar("sweep_n")
    parent = disj(
        conj(boolvar("sweep_a"), neg(boolvar("sweep_b"))), le(n, 3), neg(le(n, 1))
    )
    nodes = [parent, *parent.args, *parent.args[0].args]
    keys = [_key_of(node) for node in nodes]
    del parent, nodes
    terms.live_terms()
    assert not any(key in terms._intern_table for key in keys)


def test_a_builder_keeps_the_terms_it_mapped():
    builder = CnfBuilder()

    def build():
        return conj(boolvar("kept_a"), disj(boolvar("kept_b"), boolvar("kept_c")))

    gate = builder.literal(build())
    uid, n_vars = build().uid, builder.n_vars
    terms.live_terms()
    # Only the builder holds the term, and the sweep kept it.
    assert build().uid == uid
    assert builder.literal(build()) == gate
    assert builder.n_vars == n_vars
    clone = builder.clone()
    del builder
    terms.live_terms()
    assert build().uid == uid
    assert clone.literal(build()) == gate
    assert clone.n_vars == n_vars


# ---------------------------------------------------------------------------
# Property: random construction mixed with forced sweeps
# ---------------------------------------------------------------------------

_N = intvar("prop_n")
_M = intvar("prop_m")

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("var"), st.integers(0, 5)),
        st.tuples(st.just("atom"), st.integers(-2, 2), st.integers(0, 2)),
        st.tuples(st.just("not"), st.integers(0, 63)),
        st.tuples(st.just("and"), st.lists(st.integers(0, 63), min_size=1, max_size=4)),
        st.tuples(st.just("or"), st.lists(st.integers(0, 63), min_size=1, max_size=4)),
        st.tuples(st.just("drop"), st.integers(0, 63)),
        st.tuples(st.just("sweep")),
    ),
    max_size=40,
)


def _shape(term):
    """A structural fingerprint built from names and constants only."""
    if isinstance(term, BoolConst):
        return ("const", term.value)
    if isinstance(term, BoolVar):
        return ("var", term.name)
    if isinstance(term, Atom):
        return ("atom", term.constraint._key)
    if isinstance(term, Not):
        return ("not", _shape(term.arg))
    return (type(term).__name__, tuple(_shape(arg) for arg in term.args))


def _subterms(roots):
    stack, seen = list(roots), {}
    while stack:
        term = stack.pop()
        if id(term) in seen:
            continue
        seen[id(term)] = term
        if isinstance(term, Not):
            stack.append(term.arg)
        elif isinstance(term, (And, Or)):
            stack.extend(term.args)
    return list(seen.values())


def _check(held):
    assert _is_interned(TRUE) and _is_interned(FALSE)
    by_shape = {}
    for term in _subterms(held):
        assert _is_interned(term), term
        assert by_shape.setdefault(_shape(term), term) is term, term


@settings(max_examples=150, deadline=None)
@given(steps=_steps)
def test_sweeps_keep_every_live_term_and_no_duplicates(steps):
    held = []

    def pick(index):
        return held[index % len(held)] if held else TRUE

    for step in steps:
        kind = step[0]
        if kind == "var":
            held.append(boolvar(f"prop_{step[1]}"))
        elif kind == "atom":
            held.append(le(_N + step[1] * _M, step[2]))
        elif kind == "not":
            held.append(neg(pick(step[1])))
        elif kind == "and":
            held.append(conj(*(pick(i) for i in step[1])))
        elif kind == "or":
            held.append(disj(*(pick(i) for i in step[1])))
        elif kind == "drop" and held:
            del held[step[1] % len(held)]
        elif kind == "sweep":
            terms.live_terms()
            _check(held)
    terms.live_terms()
    _check(held)
    # Rebuilding a held term through the smart constructors finds it.
    for term in held:
        if isinstance(term, Not):
            assert neg(term.arg) is term
        elif isinstance(term, And):
            assert conj(*term.args) is term
        elif isinstance(term, Or):
            assert disj(*term.args) is term


def test_threads_building_dropping_and_sweeping_never_duplicate_a_term():
    def work(held):
        for step in range(1000):
            a, b = boolvar(f"thread_{step % 7}"), boolvar(f"thread_{step % 5}")
            held.append(disj(conj(a, neg(b)), neg(a), le(_N, step % 3)))
            if len(held) > 8:
                del held[0]
            if step % 40 == 0:
                terms.live_terms()

    helds = [[] for _ in range(4)]
    threads = [threading.Thread(target=work, args=(held,)) for held in helds]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    terms.live_terms()
    _check([term for held in helds for term in held])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_a_fork_while_another_thread_mints_leaves_the_child_able_to_intern():
    holding, release = threading.Event(), threading.Event()

    def hold():
        with terms._mint_lock:
            holding.set()
            release.wait(10)

    holder = threading.Thread(target=hold)
    holder.start()
    holding.wait(10)
    # The fork waits for the holder, which lets go shortly.
    threading.Timer(0.2, release.set).start()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        conj(boolvar("forked_a"), boolvar("forked_b"))
        os._exit(0)
    holder.join(10)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on the intern lock")
    assert os.waitstatus_to_exitcode(status) == 0
