"""Bound axioms of the LIA bridge.

``LiaBridge.register_atom`` returns binary clauses linking each atom to its
neighbours on the same simplex column (see :mod:`repro.smt.lia`).  These
tests pin that the clauses are theory-valid (sound), that unit propagation
over them derives every bound implication between a column's atoms
(complete), that atoms registered after a ``check()`` are linked too, and
that the clauses stay out of the snapshot image.
"""

import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VerificationSession
from repro.protocols import abstract_mi_mesh
from repro.smt import Result, Solver, disj, ge, intvar, le, neg
from repro.smt.lia import LiaBridge
from repro.smt.terms import LinearAtom

X = intvar("x")
Y = intvar("y")

# The linear forms atoms range over: ±x on x's own column, and x+y, x-y
# next to their negations, which share one slack column with them.
FORMS = [
    ((X, 1),),
    ((X, -1),),
    ((X, 1), (Y, 1)),
    ((X, -1), (Y, -1)),
    ((X, 1), (Y, -1)),
    ((X, -1), (Y, 1)),
]
BOX = range(-3, 4)
# Column values wide enough that every threshold drawn below splits it.
WINDOW = range(-12, 13)


def _column(atom):
    """``(column key, orientation)``: the atom reads ``orientation·t ≤ bound``
    for the value ``t`` of its column.  Computed from the atom alone, not
    from the bridge's bookkeeping."""
    if len(atom.coeffs) == 1:
        var, coeff = atom.coeffs[0]
        return var.name, coeff
    form = tuple((v.name, c) for v, c in atom.coeffs)
    flipped = tuple((name, -c) for name, c in form)
    return min(form, flipped), 1 if form <= flipped else -1


def _holds(atom, t):
    _, orientation = _column(atom)
    return orientation * t <= atom.bound


def _unit_propagate(clauses, lit):
    fixed = {lit}
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(other in fixed for other in clause):
                continue
            free = [other for other in clause if -other not in fixed]
            assert free, f"{clause} is falsified by the single literal {lit}"
            if len(free) == 1:
                fixed.add(free[0])
                changed = True
    return fixed


def _assert_sound_and_complete(atoms, axioms):
    assert all(len(clause) == 2 for clause in axioms)
    for x, y in product(BOX, repeat=2):
        truth = {satvar: atom.evaluate({X: x, Y: y}) for satvar, atom in atoms.items()}
        for clause in axioms:
            assert any(truth[abs(lit)] == (lit > 0) for lit in clause), clause
    for satvar, atom in atoms.items():
        column = _column(atom)[0]
        for lit in (satvar, -satvar):
            allowed = [t for t in WINDOW if _holds(atom, t) == (lit > 0)]
            expected = {lit}
            for other, other_atom in atoms.items():
                if _column(other_atom)[0] != column:
                    continue
                values = {_holds(other_atom, t) for t in allowed}
                if values == {True}:
                    expected.add(other)
                elif values == {False}:
                    expected.add(-other)
            assert _unit_propagate(axioms, lit) == expected, (lit, atom)


@st.composite
def _atom_batches(draw):
    specs = draw(
        st.lists(
            st.tuples(st.integers(0, len(FORMS) - 1), st.integers(-3, 3)),
            min_size=1,
            max_size=12,
        )
    )
    return specs, draw(st.integers(0, len(specs)))


@given(_atom_batches())
@settings(max_examples=300, deadline=None)
def test_bound_axioms_are_sound_and_complete(batches):
    # Small thresholds make repeated and equal thresholds common: x <= 2
    # twice, or x <= 2 next to -x <= -3 (whose negation is x <= 2).
    specs, cut = batches
    bridge = LiaBridge()
    atoms = {}
    axioms = []
    for satvar, (form, bound) in enumerate(specs, start=1):
        atom = LinearAtom(FORMS[form], bound)
        atoms[satvar] = atom
        axioms += bridge.register_atom(satvar, atom)
        if satvar == cut:
            # The first batch's axioms are complete on their own, and the
            # second batch extends them without a rebuild.
            _assert_sound_and_complete(atoms, axioms)
    _assert_sound_and_complete(atoms, axioms)


def test_register_atom_links_opposite_bounds_once():
    bridge = LiaBridge()
    assert bridge.register_atom(1, LinearAtom(((X, 1),), 2)) == []
    # -x <= -4 is x >= 4: it refutes x <= 2.
    assert bridge.register_atom(2, LinearAtom(((X, -1),), -4)) == [[-1, -2]]
    assert bridge.register_atom(2, LinearAtom(((X, -1),), -4)) == []


# ---------------------------------------------------------------------------
# Solver-level differential: many atoms per variable, registered in batches
# ---------------------------------------------------------------------------

DOMAIN = range(0, 5)
_COEFFS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1)]

atom_specs = st.tuples(
    st.sampled_from(_COEFFS),
    st.integers(min_value=-2, max_value=6),
    st.sampled_from(["le", "ge", "not_le"]),
)
clause_specs = st.lists(atom_specs, min_size=1, max_size=3)


def _term(x, y, spec):
    (a, b), bound, kind = spec
    expr = a * x + b * y
    if kind == "le":
        return le(expr, bound), lambda p: a * p[0] + b * p[1] <= bound
    if kind == "ge":
        return ge(expr, bound), lambda p: a * p[0] + b * p[1] >= bound
    return neg(le(expr, bound)), lambda p: a * p[0] + b * p[1] > bound


def _add_clauses(solver, x, y, clauses, evaluators):
    for clause in clauses:
        terms, checks = zip(*(_term(x, y, spec) for spec in clause))
        solver.add(disj(*terms) if len(terms) > 1 else terms[0])
        evaluators.append(lambda p, checks=checks: any(ev(p) for ev in checks))


def _check_against_enumeration(solver, x, y, evaluators):
    expected = any(
        all(ev(point) for ev in evaluators) for point in product(DOMAIN, repeat=2)
    )
    verdict = solver.check()
    assert verdict == (Result.SAT if expected else Result.UNSAT)
    if verdict == Result.SAT:
        model = solver.model()
        point = (model[x], model[y])
        assert all(ev(point) for ev in evaluators)
        assert all(value in DOMAIN for value in point)


@given(st.lists(clause_specs, min_size=1, max_size=6), st.lists(clause_specs, max_size=6))
@settings(max_examples=150, deadline=None)
def test_late_atoms_match_enumeration(first, second):
    x, y = intvar("x"), intvar("y")
    solver = Solver()
    for var in (x, y):
        solver.add(ge(var, min(DOMAIN)))
        solver.add(le(var, max(DOMAIN)))
    evaluators = []
    _add_clauses(solver, x, y, first, evaluators)
    _check_against_enumeration(solver, x, y, evaluators)
    # Atoms first registered after a check() join the existing ladders.
    _add_clauses(solver, x, y, second, evaluators)
    _check_against_enumeration(solver, x, y, evaluators)


# ---------------------------------------------------------------------------
# Engine-level pins
# ---------------------------------------------------------------------------


def test_no_two_bound_conflicts_reach_the_simplex():
    # Unit propagation over the bound axioms falsifies every atom that a
    # trail bound contradicts, so no assertion meets the opposite bound of
    # its own column in the simplex.  Without the axioms this case has
    # dozens of such conflicts.
    session = VerificationSession(abstract_mi_mesh(2, 2, queue_size=2).network)
    results = session.verify_all_cases()
    assert results
    for result in results:
        assert result.stats["solver_profile"]["simplex_bound_conflicts"] == 0


# One child process per hash seed: every case of abstract-MI 2x2 with its
# invariants, once under the sparsest-column entering rule and once under
# Bland's rule from the first pivot.
_ROW_UPDATES_SCRIPT = """
import json
from collections import Counter
from repro.core import VerificationSession
from repro.protocols import abstract_mi_mesh
from repro.smt import simplex

def run():
    session = VerificationSession(abstract_mi_mesh(2, 2, queue_size=2).network)
    session.add_invariants()
    results = session.verify_all_cases()
    totals = Counter()
    for result in results:
        totals.update(result.stats["solver_profile"])
    return [result.verdict.value for result in results], totals

sparse = run()
simplex._BLAND_AFTER = 0
bland = run()
print(json.dumps({"sparse": sparse, "bland": bland}))
"""
_SRC = Path(__file__).resolve().parents[2] / "src"


def test_sparse_entering_rewrites_fewer_rows_than_bland():
    # Without the invariant rows every pivot's column has no other user,
    # so no row is rewritten under either entering rule.  The counts follow
    # the hash seed (over seeds 0-19 the per-seed ratio spans 0.52-0.80),
    # so they are taken under the fixed seeds 0-4 and the bound holds on
    # their sums.
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _ROW_UPDATES_SCRIPT],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(_SRC)),
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in range(5)
    ]
    sparse, bland = Counter(), Counter()
    try:
        for child in children:
            out, _ = child.communicate(timeout=60)
            assert child.returncode == 0
            run = json.loads(out)
            (verdicts, sparse_seed), (bland_verdicts, bland_seed) = run["sparse"], run["bland"]
            assert verdicts == bland_verdicts
            sparse.update(sparse_seed)
            bland.update(bland_seed)
    finally:
        for child in children:
            child.kill()
            child.wait()
    assert sparse["simplex_bland_pivots"] == 0
    assert bland["simplex_bland_pivots"] == bland["simplex_pivots"] > 0
    assert sparse["simplex_row_updates"] <= 0.75 * bland["simplex_row_updates"]


def test_unregistered_rational_value_is_int_zero():
    assert type(LiaBridge().rational_value(intvar("unseen"))) is int


def test_bound_axioms_stay_out_of_the_snapshot_image():
    # The service's verdict store keys on content_hash(): the axioms the
    # first check() adds to the SAT core must not reach the CNF image.
    session = VerificationSession(
        abstract_mi_mesh(2, 2, queue_size=2).network, parametric_queues=False
    )
    before = session.snapshot(include_learned=False)
    session.verify()
    after = session.snapshot(include_learned=False)
    assert after.content_hash() == before.content_hash()
    assert pickle.dumps(after.solver) == pickle.dumps(before.solver)
    # A restored solver regenerates the same axioms on its first check().
    restored = Solver.from_snapshot(after.solver)
    restored.check()
    original = session.solver
    assert (
        restored.clause_count() - restored.learned_count()
        == original.clause_count() - original.learned_count()
    )
