"""Definitions bound where the CNF is built.

``Solver.define`` substitutes each defined name by the literal of its
right-hand side before any clause names it (see
:meth:`repro.smt.cnf.CnfBuilder.define`): a copy shares the variable it
copies, names with one right-hand side share its gate, and the CNF image
the core loads carries no copy.  These tests check that the binding is
invisible from outside: models satisfy the unsubstituted ``name ⇔ rhs``
equations, atoms keep their variables, contradictory copies stay unsat,
and assumptions, cores, phase hints, imports and restored copies see
one variable per class of names.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VerificationSession
from repro.core.experiments import registered_builders, resolve_builder
from repro.smt import FALSE, TRUE, And, Atom, BoolConst, BoolVar, Not
from repro.smt.serialize import restore_solver, snapshot_solver
from repro.smt.solver import Result, Solver
from repro.smt.terms import boolvar, conj, disj, iff, intvar, le, neg
from repro.xmas import Network, Queue


def _network(name: str, size: int) -> Network:
    """``name``'s smallest design (2×2 grids, 3-node rings) at ``size``."""
    builder = resolve_builder(name)
    params = inspect.signature(builder).parameters
    kwargs = {"queue_size": size}
    if "width" in params:
        kwargs.update(width=2, height=2)
    for count in ("n_nodes", "n_stations"):
        if count in params:
            kwargs[count] = 3
    built = builder(**kwargs)
    return built if isinstance(built, Network) else built.network


def _holds(term, model, ints) -> bool:
    """``term``'s truth value under a model read by name."""
    if isinstance(term, BoolConst):
        return term.value
    if isinstance(term, BoolVar):
        return model[term.name]
    if isinstance(term, Atom):
        return term.constraint.evaluate(ints)
    if isinstance(term, Not):
        return not _holds(term.arg, model, ints)
    values = (_holds(arg, model, ints) for arg in term.args)
    return all(values) if isinstance(term, And) else any(values)


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(registered_builders()),
    size=st.integers(min_value=1, max_value=3),
    invariants=st.booleans(),
    data=st.data(),
)
def test_extended_model_satisfies_the_unsubstituted_cnf(
    name, size, invariants, data
):
    session = VerificationSession(_network(name, size))
    if invariants:
        session.add_invariants()
    solver = session.solver
    case = data.draw(st.sampled_from(session.encoding.cases))
    if solver.check([case.guard]) != Result.SAT:
        assert solver.check() == Result.SAT
    model = solver.model()
    ints = model._ints
    for defined, rhs in session.encoding.definitions:
        assert _holds(iff(defined, rhs), model, ints), defined
    # The core assigns every variable of the image and satisfies it.
    val = solver._sat._val
    for clause in solver._cnf.clauses:
        assert any(val[2 * lit if lit > 0 else -2 * lit + 1] == 1 for lit in clause)
    assert all(val[2 * var] != 0 for var in range(1, solver._cnf.n_vars + 1))


def _copy_pairs(clauses) -> list[tuple[int, int]]:
    """Every ``{a, b}`` with ``{¬a, ¬b}`` also a clause: ``a ≡ ¬b``."""
    binaries = {tuple(sorted(clause)) for clause in clauses if len(clause) == 2}
    return [
        (a, b)
        for a, b in binaries
        if abs(a) != abs(b) and tuple(sorted((-a, -b))) in binaries
    ]


@pytest.mark.parametrize("name", registered_builders())
def test_session_cnf_carries_no_copy_pair(name):
    session = VerificationSession(_network(name, 3))
    session.add_invariants()
    assert _copy_pairs(session.solver._cnf.clauses) == []
    # The same scan finds the pairs a plain iff assertion leaves.
    solver = Solver()
    solver.add(iff(boolvar("sub_c1"), boolvar("sub_c2")))
    assert len(_copy_pairs(solver._cnf.clauses)) == 2


def test_queue_block_rhs_shares_one_variable_across_colors():
    session = VerificationSession(_network("abstract_mi_mesh", 3))
    spec, names = session.spec, session.solver._cnf.var_of_boolname
    shared = 0
    for channel in spec.network.channels:
        channel_colors = spec.colors.of(channel)
        if isinstance(channel.target.owner, Queue) and len(channel_colors) > 1:
            lits = {names[spec.pool.block(channel, c).name] for c in channel_colors}
            assert len(lits) == 1, channel.name
            shared += 1
    assert shared, "the design has a multi-color queue"
    # The same holds for any two names defined by one compound term.
    a, b, c, d = (boolvar(f"sub_s{i}") for i in range(4))
    solver = Solver()
    solver.define([(a, conj(c, d)), (b, conj(c, d))])
    cnf = solver._cnf
    assert cnf.var_of_boolname["sub_s0"] == cnf.var_of_boolname["sub_s1"]
    assert cnf.n_vars == 3 and len(cnf.clauses) == 3


def test_copy_cycle_leaves_one_free_variable():
    a, b = boolvar("sub_ca"), boolvar("sub_cb")
    solver = Solver()
    solver.define([(a, b), (b, a)])
    cnf = solver._cnf
    assert cnf.var_of_boolname == {"sub_ca": 1, "sub_cb": 1}
    assert cnf.n_vars == 1 and cnf.clauses == []
    assert solver.check([a]) == Result.SAT
    assert solver.check([neg(b)]) == Result.SAT
    assert solver.check([a, neg(b)]) == Result.UNSAT


def test_constant_definitions_become_unit_clauses():
    t1, t2, f1 = boolvar("sub_t1"), boolvar("sub_t2"), boolvar("sub_f1")
    solver = Solver()
    solver.define([(t1, TRUE), (t2, TRUE), (f1, FALSE)])
    cnf = solver._cnf
    vt, vf = cnf.var_of_boolname["sub_t1"], cnf.var_of_boolname["sub_f1"]
    assert cnf.var_of_boolname["sub_t2"] == vt
    assert cnf.clauses == [[vt], [-vf]]
    assert solver.check([f1]) == Result.UNSAT
    assert solver.check([t2]) == Result.SAT


def test_define_on_a_name_that_has_a_variable_raises():
    a, b = boolvar("sub_da"), boolvar("sub_db")
    solver = Solver()
    solver.add(disj(a, b))
    with pytest.raises(ValueError, match="sub_da"):
        solver.define([(a, TRUE)])
    with pytest.raises(ValueError, match="sub_dc"):
        solver.define([(boolvar("sub_dc"), a), (boolvar("sub_dc"), b)])


def test_atom_is_the_representative():
    x = intvar("sub_x")
    a, b = boolvar("sub_a"), boolvar("sub_b")
    atom = le(x, 3)
    solver = Solver()
    solver.define([(a, atom), (b, neg(a))])
    solver.add(le(0, x))
    solver.add(le(x, 9))
    assert solver.check([b]) == Result.SAT
    atom_lit = solver._cnf.literal(atom)
    assert atom_lit in solver._cnf.atom_of_var
    assert solver._cnf.var_of_boolname["sub_a"] == atom_lit
    assert solver._cnf.var_of_boolname["sub_b"] == -atom_lit
    assert solver.model()[x] > 3
    assert solver.model()["sub_a"] is False
    assert solver.check([a]) == Result.SAT
    assert solver.model()[x] <= 3


def test_class_with_two_atoms_stays_unmerged():
    x = intvar("sub_y")
    g = boolvar("sub_g")
    solver = Solver()
    solver.define([(g, le(x, 2))])
    solver.add(iff(g, le(4, x)))  # a plain equation between two atoms
    solver.add(le(0, x))
    solver.add(le(x, 5))
    cnf = solver._cnf
    assert len(cnf.atom_of_var) == 4
    assert cnf.var_of_boolname["sub_g"] == cnf.literal(le(x, 2))
    assert solver.check() == Result.SAT
    # g ≡ x ≤ 2 ≡ x ≥ 4 is only consistent with both atoms false.
    assert solver.model()["sub_g"] is False
    assert solver.model()[x] == 3
    assert solver.check([g]) == Result.UNSAT


def test_class_holding_x_and_not_x_is_still_unsat():
    x, y, z = boolvar("sub_p"), boolvar("sub_q"), boolvar("sub_r")
    solver = Solver()
    solver.define([(x, y), (y, neg(x)), (z, x)])  # z joins the odd cycle
    assert solver.check() == Result.UNSAT
    assert solver.formula_unsat


def test_assumption_on_a_merged_guard_and_its_core_name():
    g, h, k = boolvar("sub_g1"), boolvar("sub_h1"), boolvar("sub_k1")
    solver = Solver()
    solver.define([(h, g)])  # h shares g's variable
    solver.add(disj(neg(g), k))
    names = solver._cnf.var_of_boolname
    assert names["sub_h1"] == names["sub_g1"]
    assert solver.check([h, neg(k)]) == Result.UNSAT
    assert solver.unsat_core() == [h, neg(k)]
    assert solver.check([h]) == Result.SAT
    assert solver.model()["sub_h1"] is True
    assert solver.model()["sub_g1"] is True
    assert solver.model()["sub_k1"] is True


def test_warm_import_naming_a_merged_variable():
    a, b, c = boolvar("sub_ia"), boolvar("sub_ib"), boolvar("sub_ic")
    solver = Solver()
    solver.define([(b, a)])
    solver.add(disj(a, c))
    names = solver._cnf.var_of_boolname
    va, vb, vc = (names[n] for n in ("sub_ia", "sub_ib", "sub_ic"))
    assert vb == va
    with pytest.raises(ValueError):  # the numbering check still holds
        solver.import_learned([(2, (va, solver._cnf.n_vars + 1))])
    # A learned clause (¬b ∨ c) over the same image, and the unit ¬c.
    assert solver.import_learned([(2, (-vb, vc)), (1, (-vc,))]) == 2
    assert solver.check() == Result.UNSAT


def test_fork_derives_the_same_table_and_answers():
    session = VerificationSession(_network("abstract_mi_mesh", 2))
    session.add_invariants()
    parent = session.solver
    case = session.encoding.cases[0]
    assert parent.check([case.guard]) == Result.SAT
    clone, restored = restore_solver(
        snapshot_solver(parent, include_learned=True)
    )
    assert clone._cnf.var_of_boolname == parent._cnf.var_of_boolname
    assert clone._cnf.clauses == parent._cnf.clauses
    # The copy's integer variables are fresh; read them back by uid.
    originals = {
        var
        for atom in parent._cnf.atom_of_var.values()
        for var in atom.variables()
    }
    for guard in [c.guard for c in session.encoding.cases[:6]]:
        verdict = parent.check([guard])
        assert clone.check([boolvar(guard.name)]) == verdict
        if verdict == Result.SAT:
            model = clone.model()
            ints = {var: model[restored[var.uid]] for var in originals}
            for defined, rhs in session.encoding.definitions:
                assert _holds(iff(defined, rhs), model, ints), defined
