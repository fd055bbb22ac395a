"""Direct clausification of top-level assertions in the CNF builder.

A top-level ``And`` asserts each conjunct and a top-level ``Or`` becomes one
clause, so neither mints a Tseitin gate; nested connectives keep their
two-directional gates.  The size pins below are deterministic: they
depend on the encoding's structure, not on the hash seed (which only
reorders clauses).  The content-hash pins are per hash seed, and guard
the whole CNF image: a change that only speeds up the build must leave
them alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.cnf import CnfBuilder
from repro.smt.solver import Result, Solver
from repro.smt.terms import (
    FALSE,
    TRUE,
    boolvar,
    conj,
    disj,
    implies,
    intvar,
    le,
    neg,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def test_top_level_structure_mints_no_gate():
    a, b, c = boolvar("cnf_a"), boolvar("cnf_b"), boolvar("cnf_c")
    cnf = CnfBuilder()
    cnf.assert_term(conj(a, implies(b, c)))
    va, vb, vc = (cnf.var_of_boolname[n] for n in ("cnf_a", "cnf_b", "cnf_c"))
    assert cnf.clauses == [[va], [-vb, vc]]
    assert cnf.n_vars == 3


def test_nested_gate_keeps_both_directions():
    a, b = boolvar("cnf_a"), boolvar("cnf_b")
    solver = Solver()
    solver.add(a)
    solver.add(b)
    # Only the a∧b → gate direction can refute the assumption ¬gate.
    assert solver.check([neg(conj(a, b))]) == Result.UNSAT
    assert solver.check([conj(a, b)]) == Result.SAT


def test_guarded_false_retracts_without_poisoning():
    # A guarded FALSE is the unit clause retiring its guard; only a bare
    # FALSE makes the formula unsatisfiable.
    g = boolvar("cnf_g")
    solver = Solver()
    solver.add(boolvar("cnf_a"))
    solver.add(implies(g, FALSE))
    assert solver.check([g]) == Result.UNSAT
    assert solver.check() == Result.SAT
    assert not solver._cnf.unsatisfiable
    cnf = CnfBuilder()
    cnf.assert_term(TRUE)
    assert cnf.clauses == [] and not cnf.unsatisfiable
    cnf.assert_term(FALSE)
    assert cnf.unsatisfiable


def _formulas(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda kids: st.one_of(
            st.tuples(st.just("not"), kids),
            st.tuples(st.just("and"), st.lists(kids, min_size=1, max_size=3)),
            st.tuples(st.just("or"), st.lists(kids, min_size=1, max_size=3)),
        ),
        max_leaves=8,
    )


LEAVES = [("var", i) for i in range(4)] + [("atom", i) for i in range(2)]


def _build(spec, leaves):
    kind, arg = spec
    if kind in ("var", "atom"):
        return leaves[spec]
    if kind == "not":
        return neg(_build(arg, leaves))
    parts = [_build(child, leaves) for child in arg]
    return conj(*parts) if kind == "and" else disj(*parts)


def _evaluate(spec, truth):
    kind, arg = spec
    if kind in ("var", "atom"):
        return truth[spec]
    if kind == "not":
        return not _evaluate(arg, truth)
    values = [_evaluate(child, truth) for child in arg]
    return all(values) if kind == "and" else any(values)


@given(_formulas(LEAVES))
@settings(max_examples=150, deadline=None)
def test_check_matches_evaluation_under_every_assignment(spec):
    x, y = intvar("cnf_x"), intvar("cnf_y")
    leaves = {leaf: boolvar(f"cnf_p{leaf[1]}") for leaf in LEAVES[:4]}
    leaves[("atom", 0)] = le(x, 0)
    leaves[("atom", 1)] = le(y, 0)
    solver = Solver()
    solver.add(_build(spec, leaves))
    for values in product((False, True), repeat=len(LEAVES)):
        truth = dict(zip(LEAVES, values))
        assumptions = [
            leaves[leaf] if value else neg(leaves[leaf])
            for leaf, value in truth.items()
        ]
        expected = Result.SAT if _evaluate(spec, truth) else Result.UNSAT
        assert solver.check(assumptions) == expected


_IMAGE_SCRIPT = """
import json
from repro.core import VerificationSession
from repro.fabrics import traffic_mesh
from repro.protocols import abstract_mi_mesh, msi_mesh
from repro.smt import serialize
sizes, hashes = [], []
for network in (
    abstract_mi_mesh(2, 2, queue_size=3).network,
    msi_mesh(2, 2, queue_size=4).network,
    traffic_mesh(3, 3, queue_size=2),
):
    session = VerificationSession(network)
    session.add_invariants()
    snap = serialize.snapshot_solver(session.solver)
    sizes.append([len(snap.clauses), snap.n_vars])
    hashes.append(session.snapshot().content_hash()[:16])
print(json.dumps({"sizes": sizes, "hashes": hashes}))
"""

# abstract-MI 2x2, MSI 2x2 and traffic_mesh 3x3 with invariants.  The
# sizes hold under every hash seed; the content hashes follow the hash
# seed (see SessionSnapshot.content_hash), so each pinned seed has its own.
PINNED_SIZES = [[842, 478], [2832, 1407], [4310, 2363]]
PINNED_HASHES = {
    "0": ["36b3e10f64f1a5df", "ed8987efef1d855c", "be0db2db5027154c"],
    "1": ["16bb019a6882cfb6", "dfcabb0071d1c1f2", "e45f03381555e2d8"],
}


@pytest.mark.parametrize("seed", ["0", "1"])
def test_parametric_session_cnf_size_is_pinned(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _IMAGE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    image = json.loads(out)
    assert image["sizes"] == PINNED_SIZES
    assert image["hashes"] == PINNED_HASHES[seed]
