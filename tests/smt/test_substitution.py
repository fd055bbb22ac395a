"""Equivalent-literal substitution at solver load.

The facade merges the variables that pairs of binary clauses make
equivalent before the CDCL core sees them (see the *Substitution*
section of :mod:`repro.smt.solver`).  These tests check that the merge is
invisible from outside: models extend to the unsubstituted CNF, atoms
stay representatives, contradictory classes stay unmerged, and every
path in and out of the core (assumptions, cores, phase hints, imports,
forks) goes through the table.
"""

from __future__ import annotations

import inspect
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VerificationSession
from repro.core.experiments import registered_builders, resolve_builder
from repro.smt import _sat_reference
from repro.smt.solver import Result, Solver, equivalent_literals
from repro.smt.terms import boolvar, disj, iff, intvar, le, neg
from repro.xmas import Network


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


def _extended(solver: Solver) -> dict[int, bool]:
    """The core's assignment over every CNF variable, read through the
    table; every variable the core keeps must be assigned."""
    val = solver._sat._val
    values = {}
    for var in range(1, solver._cnf.n_vars + 1):
        lit = solver._lit(var)
        value = val[2 * abs(lit)]
        assert value != 0, f"variable {abs(lit)} left unassigned"
        values[var] = (value == 1) == (lit > 0)
    return values


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
    verdict = solver.check([case.guard])
    # The first check loads the core: its profile counts the merges.
    assert solver.profile["substituted"] == sum(var > 0 for var in solver._subst)
    if verdict != Result.SAT:
        assert solver.check() == Result.SAT
    values = _extended(solver)
    for clause in solver._cnf.clauses:
        assert any(values[abs(lit)] == (lit > 0) for lit in clause), clause
    model = solver.model()
    for name_, var in solver._cnf.var_of_boolname.items():
        assert model[name_] == values[var]


def test_atom_is_the_representative():
    x = intvar("sub_x")
    a, b = boolvar("sub_a"), boolvar("sub_b")
    atom = le(x, 3)
    solver = Solver()
    solver.add(iff(a, atom))
    solver.add(iff(b, neg(a)))
    solver.add(le(0, x))
    solver.add(le(x, 9))
    assert solver.check([b]) == Result.SAT
    atom_lit = solver._cnf.literal(atom)
    assert abs(atom_lit) in solver._cnf.atom_of_var
    va = solver._cnf.var_of_boolname["sub_a"]
    vb = solver._cnf.var_of_boolname["sub_b"]
    assert solver._subst[va] == atom_lit
    assert solver._subst[vb] == -atom_lit
    assert solver.model()[x] > 3
    assert solver.model()["sub_a"] is False
    assert solver.check([a]) == Result.SAT
    assert solver.model()[x] <= 3


def test_class_with_two_atoms_stays_unmerged():
    x = intvar("sub_y")
    g = boolvar("sub_g")
    solver = Solver()
    solver.add(iff(g, le(x, 2)))
    solver.add(iff(g, le(4, x)))
    solver.add(le(0, x))
    solver.add(le(x, 5))
    assert solver.check() == Result.SAT
    assert solver._subst == {}
    assert solver.profile["substituted"] == 0
    # g ≡ x ≤ 2 ≡ x ≥ 4 is only consistent with both atoms false.
    assert solver.model()["sub_g"] is False
    assert solver.model()[x] == 3
    assert solver.check([g]) == Result.UNSAT


def test_class_holding_x_and_not_x_is_still_unsat():
    x, y, z = boolvar("sub_p"), boolvar("sub_q"), boolvar("sub_r")
    solver = Solver()
    solver.add(iff(x, y))
    solver.add(iff(y, neg(x)))
    solver.add(iff(z, x))  # z joins the contradictory class
    assert solver.check() == Result.UNSAT
    assert solver._subst == {}
    assert solver.formula_unsat


def test_assumption_on_a_merged_guard_and_its_core_name():
    g, h, k = boolvar("sub_g1"), boolvar("sub_h1"), boolvar("sub_k1")
    solver = Solver()
    solver.add(iff(g, h))  # h merges into g (the lower variable)
    solver.add(disj(neg(g), k))
    vh = solver._cnf.var_of_boolname["sub_h1"]
    assert solver.check([h, neg(k)]) == Result.UNSAT
    assert vh in solver._subst
    assert solver.unsat_core() == [h, neg(k)]
    assert solver.check([h]) == Result.SAT
    assert solver.model()["sub_h1"] is True
    assert solver.model()["sub_k1"] is True


def test_phase_hints_reach_the_representative():
    p, q = boolvar("sub_ph"), boolvar("sub_qh")
    solver = Solver()
    solver.add(iff(p, neg(q)))  # q ≡ ¬p: q merges into p
    solver.add(disj(p, boolvar("sub_free")))
    vp = solver._cnf.var_of_boolname["sub_ph"]
    assert solver.phase_hints({"sub_qh": True}) == 1
    assert solver._subst[solver._cnf.var_of_boolname["sub_qh"]] == -vp
    assert solver._sat._phase[vp] == 0  # q true ⇔ p false
    assert solver.phase_hints({"sub_qh": False}) == 1
    assert solver._sat._phase[vp] == 1


def test_warm_import_naming_a_merged_variable():
    a, b, c = boolvar("sub_ia"), boolvar("sub_ib"), boolvar("sub_ic")
    solver = Solver()
    solver.add(iff(a, b))
    solver.add(disj(a, c))
    va, vb, vc = (solver._cnf.var_of_boolname[n] for n in ("sub_ia", "sub_ib", "sub_ic"))
    with pytest.raises(ValueError):  # mapping keeps the numbering check
        solver.import_learned([(2, (va, solver._cnf.n_vars + 1))])
    # A learned clause from a solver that kept b: (¬b ∨ c) and the unit ¬c.
    assert solver.import_learned([(2, (-vb, vc)), (1, (-vc,))]) == 2
    assert solver._subst[vb] == va
    assert all(vb not in map(abs, clause) for clause in solver._sat.clauses)
    assert solver.check() == Result.UNSAT


def test_fork_derives_the_same_table_and_answers():
    session = VerificationSession(_network("abstract_mi_mesh", 2))
    session.add_invariants()
    parent = session.solver
    case = session.encoding.cases[0]
    assert parent.check([case.guard]) == Result.SAT
    clone = parent.fork()
    assert clone._subst == parent._subst
    assert clone._sat._elim == parent._sat._elim
    for guard in [c.guard for c in session.encoding.cases[:6]]:
        verdict = parent.check([guard])
        assert clone.check([guard]) == verdict
        if verdict == Result.SAT:
            values = _extended(clone)
            assert all(
                any(values[abs(lit)] == (lit > 0) for lit in clause)
                for clause in clone._cnf.clauses
            )


def test_reference_core_never_decides_an_eliminated_variable():
    core = _sat_reference.Cdcl()
    core.ensure_vars(4)
    core.add_clause([1, 2])
    core.eliminate([3, 4])
    assert core.solve() == _sat_reference.SAT
    assert core._assign[3] == 0 and core._assign[4] == 0


# ---------------------------------------------------------------------------
# Pairs suffice: Tarjan's SCC over the binary implication graph finds the
# same merges on the 2×2 designs (a tests-only oracle).
# ---------------------------------------------------------------------------


def _scc_table(clauses, atom_vars) -> dict[int, int]:
    """The substitution table from the SCCs of the implication graph."""
    graph: dict[int, list[int]] = defaultdict(list)
    for clause in clauses:
        if len(clause) == 2:
            a, b = clause
            graph[-a].append(b)
            graph[-b].append(a)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    components: list[list[int]] = []
    for root in list(graph):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, ()))))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        lit = stack.pop()
                        on_stack.discard(lit)
                        component.append(lit)
                        if lit == node:
                            break
                    components.append(component)
    table: dict[int, int] = {}
    for component in components:
        variables = {abs(lit) for lit in component}
        if len(component) < 2 or len(variables) < len(component):
            continue  # a single literal, or x and ¬x together
        atoms = [var for var in variables if var in atom_vars]
        if len(atoms) > 1:
            continue
        rep = atoms[0] if atoms else min(variables)
        rep_lit = next(lit for lit in component if abs(lit) == rep)
        for lit in component:
            if abs(lit) != rep:
                # lit ≡ rep_lit, so |lit| ≡ sign(lit) · rep_lit.
                mapped = rep_lit if lit > 0 else -rep_lit
                table[abs(lit)] = mapped
                table[-abs(lit)] = -mapped
    return table


GRIDS_2X2 = [
    name
    for name in registered_builders()
    if "width" in inspect.signature(resolve_builder(name)).parameters
]


@pytest.mark.parametrize("name", GRIDS_2X2)
def test_pair_merging_equals_scc(name):
    session = VerificationSession(_network(name, 3))
    session.add_invariants()
    cnf = session.solver._cnf
    pairs = equivalent_literals(cnf.clauses, cnf.atom_of_var)
    assert pairs, "the 2×2 designs carry block/idle copies"
    assert pairs == _scc_table(cnf.clauses, cnf.atom_of_var)
    session.verify()
    assert session.solver._subst == pairs
