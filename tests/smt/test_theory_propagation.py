"""Row-derived bound propagation through the LIA bridge.

After each consistent theory sync the CDCL core asks the bridge for the
ladder literals that single tableau rows imply (``LiaBridge.derive``),
enqueues them with a theory reason kept in a side table, and explains them
through ``LiaBridge.explain`` (see :mod:`repro.smt.lia` and
:mod:`repro.smt.sat`).  These tests pin that every explanation implies its
literal, that verdicts and models match a core that derives nothing, that
the side table is used and cut back with the trail, that the cached
reasons drop root-level literals without changing the search, and that
the root is propagated to a fixpoint before a clause-database reduction.
"""

import inspect
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VerificationSession
from repro.protocols import abstract_mi_mesh, mi_mesh
from repro.smt import Result, Solver, disj, ge, intvar, le
from repro.smt.cnf import CnfBuilder
from repro.smt.lia import LiaBridge
from repro.smt.sat import SAT, Cdcl

_SRC = Path(__file__).resolve().parents[2] / "src"

VARS = [intvar(f"r{i}") for i in range(3)]

_forms = st.tuples(
    st.tuples(*[st.integers(-2, 2) for _ in VARS]).filter(any),
    st.integers(-4, 6),
)


def _atoms(specs):
    """The box literals ``0 ≤ r ≤ 3`` and the normalised atoms of
    ``Σ c·r ≤ b`` for each spec, by SAT var."""
    cnf = CnfBuilder()
    box = [cnf.literal(term) for var in VARS for term in (ge(var, 0), le(var, 3))]
    for coeffs, bound in specs:
        cnf.literal(le(sum((c * v for c, v in zip(coeffs, VARS)), 0 * VARS[0]), bound))
    return box, list(cnf.atom_of_var.items())


def _bridge(atoms):
    bridge = LiaBridge()
    for satvar, atom in atoms:
        bridge.register_atom(satvar, atom)
    return bridge


@given(
    st.lists(_forms, min_size=2, max_size=8),
    st.lists(st.tuples(st.integers(0, 7), st.booleans()), min_size=1, max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_every_explanation_refutes_the_negated_literal(specs, steps):
    box, atoms = _atoms(specs)
    bridge = _bridge(atoms)
    asserted: list[int] = []
    picks = [(lit, True) for lit in box]
    picks += [(atoms[pick % len(atoms)][0], polarity) for pick, polarity in steps]
    for index, (satvar, polarity) in enumerate(picks):
        if satvar in asserted or -satvar in asserted:
            continue
        lit = satvar if polarity else -satvar
        if bridge.assert_index(index, lit) is not None:
            return
        asserted.append(lit)
        for implied, token in bridge.derive():
            explanation = bridge.explain(token)
            assert set(explanation) <= set(asserted)
            assert abs(implied) in bridge.atom_vars
            # The explanation with the literal negated, over the same
            # definitions, is infeasible.
            fresh = _bridge(atoms)
            conflict = None
            for position, other in enumerate([*explanation, -implied]):
                conflict = fresh.assert_index(position, other)
                if conflict is not None:
                    break
            if conflict is None:
                conflict = fresh.final_check()
            assert conflict is not None, (explanation, implied)


_clauses = st.lists(
    st.lists(
        st.tuples(
            st.tuples(*[st.integers(-2, 2) for _ in VARS]),
            st.integers(-3, 7),
            st.booleans(),
        ),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=6,
)


def _solve(clauses, derive):
    solver = Solver()
    if not derive:
        solver._bridge.derive = lambda: []
    for var in VARS:
        solver.add(ge(var, 0))
        solver.add(le(var, 3))
    for clause in clauses:
        terms = []
        for coeffs, bound, upper in clause:
            expr = sum((c * v for c, v in zip(coeffs, VARS)), 0 * VARS[0])
            terms.append(le(expr, bound) if upper else ge(expr, bound))
        solver.add(disj(*terms))
    verdict = solver.check()
    if verdict == Result.SAT:
        # Every atom's truth value in the SAT core agrees with the model.
        ints = solver.model().int_items()
        for satvar, atom in solver._cnf.atom_of_var.items():
            values = {var: ints.get(var, 0) for var, _ in atom.coeffs}
            assert solver._sat.model_value(satvar) == atom.evaluate(values), atom
    return verdict, solver


def _holds(clauses, point):
    return all(
        any(
            (sum(c * x for c, x in zip(coeffs, point)) <= bound)
            if upper
            else (sum(c * x for c, x in zip(coeffs, point)) >= bound)
            for coeffs, bound, upper in clause
        )
        for clause in clauses
    )


@given(_clauses)
@settings(max_examples=150, deadline=None)
def test_verdicts_and_models_match_a_core_that_derives_nothing(clauses):
    expected = any(_holds(clauses, point) for point in product(range(4), repeat=len(VARS)))
    with_rows, _ = _solve(clauses, derive=True)
    without, _ = _solve(clauses, derive=False)
    assert with_rows == without == (Result.SAT if expected else Result.UNSAT)


def _row_core(**knobs):
    """``s = x + y`` with atoms ``s ≤ 3``, ``x ≥ 2`` and ``y ≤ 1`` on a bare
    CDCL core: the first two bound the row so that it implies the third."""
    x, y = intvar("x"), intvar("y")
    cnf = CnfBuilder()
    lits = (cnf.literal(le(x + y, 3)), cnf.literal(ge(x, 2)), cnf.literal(le(y, 1)))
    bridge = LiaBridge()
    core = Cdcl(theory=bridge, **knobs)
    core.ensure_vars(cnf.n_vars)
    for satvar, atom in cnf.atom_of_var.items():
        for axiom in bridge.register_atom(satvar, atom):
            core.add_clause(axiom)
    return core, bridge, lits


def _implied_above_root(core):
    trail, reason = core._trail, core._reason
    return sum(
        1
        for index in range(core._root_boundary(), core._trail_len)
        if reason[trail[index] >> 1] <= -2
    )


def test_two_row_bounds_imply_the_third_cell_at_their_level():
    core, bridge, (s_le, x_ge, y_le) = _row_core()
    assert core.solve(assumptions=[s_le, x_ge]) == SAT
    var = abs(y_le)
    assert core._value(y_le) == 1
    assert core._level[var] == 2  # the level of the second assumption
    reason = core._reason[var]
    assert reason <= -2
    assert sorted(core._treasons[-2 - reason]) == sorted([s_le, x_ge])
    assert len(core._treasons) == _implied_above_root(core) >= 1
    assert bridge.profile()["implied"] >= 1
    # Retracting the assumptions cuts the side table back with the trail.
    assert core.solve() == SAT
    assert len(core._treasons) == _implied_above_root(core)


def test_root_implications_settle_before_a_reduction_at_entry():
    # A reduction due at solve() entry needs the root at fixpoint.  Here
    # the root units s <= 3 and x >= 2 make the row imply y <= 1 at the
    # root, which the clause (¬(y ≤ 1) ∨ d) must propagate before the
    # arena is compacted.
    core, bridge, (s_le, x_ge, y_le) = _row_core(reduce_base=1)
    d, e, f, g = (core.new_var() for _ in range(4))
    core.add_clause([-y_le, d])
    assert core.solve() == SAT
    core.import_learned([(3, (e, f, g))])  # one learnt clause: reduction due
    core.add_clause([s_le])
    core.add_clause([x_ge])
    states = []
    reduce_db = core.reduce_db

    def checked_reduce_db():
        states.append(
            (core._qhead, core._theory_qhead, core._trail_len, list(bridge.simplex._touched))
        )
        return reduce_db()

    core.reduce_db = checked_reduce_db
    assert core.solve() == SAT
    assert states
    for qhead, theory_qhead, trail_len, touched in states:
        assert qhead == theory_qhead == trail_len and not touched
    for lit in (y_le, d):
        assert core._value(lit) == 1 and core._level[abs(lit)] == 0
    assert core._reason[abs(y_le)] == -1  # a fact, no side-table entry
    assert core.compact() >= 0 and not core._treasons


# Runs in a child process under a pinned hash seed: the side table's
# high-water mark follows the search, and the search follows the hash
# seed and every term the process interned before (``IntVar`` hashes by
# its global uid), so in-process it would depend on which tests ran first.
_BACK_TO_BACK_SCRIPT = inspect.getsource(_implied_above_root) + """
import json
from repro.core import VerificationSession
from repro.protocols import abstract_mi_mesh
from repro.smt.sat import Cdcl

tables = []  # per solve(): the three side-table lengths, implied literals
solve = Cdcl.solve

def checked_solve(self, *args, **kwargs):
    verdict = solve(self, *args, **kwargs)
    tables.append([
        len(self._treasons),
        len(self._tcodes),
        len(self._tpos),
        _implied_above_root(self),
    ])
    return verdict

Cdcl.solve = checked_solve
session = VerificationSession(abstract_mi_mesh(2, 2, queue_size=2).network)
first = [result.verdict.value for result in session.verify_all_cases()]
rounds = len(tables)
second = [result.verdict.value for result in session.verify_all_cases()]
print(json.dumps({
    "first": first,
    "second": second,
    "rounds": rounds,
    "tables": tables,
    "profile": sorted(session.solver.profile),
}))
"""


def test_side_table_tracks_the_trail_across_back_to_back_queries():
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(_SRC))
    out = subprocess.run(
        [sys.executable, "-c", _BACK_TO_BACK_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    run = json.loads(out)
    for treasons, tcodes, tpos, implied in run["tables"]:
        assert treasons == tcodes == tpos == implied
    lengths = [table[0] for table in run["tables"]]
    rounds = run["rounds"]
    assert run["first"] == run["second"]
    assert max(lengths) > 0  # the engine's queries do use theory reasons
    assert max(lengths[rounds:]) <= max(lengths[:rounds])
    assert set(run["profile"]) >= {
        "lia_derived_rows",
        "lia_implied",
        "lia_implied_redundant",
    }


def _every_literal(self, rref):
    """A theory reason's false codes with the root-level literals kept,
    converted again on every read."""
    return [2 * lit + 1 if lit > 0 else -2 * lit for lit in self._treasons[-2 - rref]]


def _mi_mesh_search():
    session = VerificationSession(mi_mesh(2, 2, queue_size=5).network)
    session.add_invariants()
    verdict = session.verify().verdict
    core = session.solver._sat
    return verdict, dict(core.stats), core.learned_clauses(), core.profile()


def test_cached_reasons_drop_root_literals_and_keep_the_search(monkeypatch):
    reads = []
    antecedent = Cdcl._theory_antecedent

    def checked(self, rref):
        codes = antecedent(self, rref)
        assert codes is self._tcodes[-2 - rref]  # converted once, then cached
        assert all(self._level[code >> 1] for code in codes)
        reads.append(len(codes) < len(self._treasons[-2 - rref]))
        return codes

    monkeypatch.setattr(Cdcl, "_theory_antecedent", checked)
    verdict, stats, learned, profile = _mi_mesh_search()
    assert any(reads)  # some explanation did carry root-level literals
    monkeypatch.setattr(Cdcl, "_theory_antecedent", _every_literal)
    full_verdict, full_stats, full_learned, full_profile = _mi_mesh_search()
    assert (verdict, stats, learned) == (full_verdict, full_stats, full_learned)
    assert profile["propagations"] == full_profile["propagations"]
    assert profile["analyze_steps"] < full_profile["analyze_steps"]
