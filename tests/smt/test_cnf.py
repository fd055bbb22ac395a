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
import hashlib
import json
from repro.core import VerificationSession
from repro.core.experiments import ScenarioSpec, registered_builders
from repro.protocols import abstract_mi_ether, mi_ether
from repro.smt import serialize

def digest(network):
    shape = [
        network.name,
        [[name, type(p).__name__] for name, p in network.primitives.items()],
        [[c.name, c.initiator.qualified_name, c.target.qualified_name]
         for c in network.channels],
    ]
    return hashlib.sha256(json.dumps(shape).encode()).hexdigest()[:16]

designs = [
    ("abstract_mi_mesh", {"width": 2, "height": 2, "queue_size": 3}),
    ("msi_mesh", {"width": 2, "height": 2, "queue_size": 4}),
    ("traffic_mesh", {"width": 3, "height": 3, "queue_size": 2}),
]
for name in registered_builders():
    if name in ("running_example", "producer_consumer"):
        kwargs = {}
    elif name == "token_ring":
        kwargs = {"n_stations": 4}
    elif name.endswith("_ring"):
        kwargs = {"n_nodes": 4}
    else:
        kwargs = {"width": 2, "height": 2}
    designs.append((name, dict(kwargs, queue_size=2)))
sizes, hashes, networks = [], [], []
for name, kwargs in designs:
    network = ScenarioSpec(name, kwargs).build()
    session = VerificationSession(network)
    session.add_invariants()
    snap = serialize.snapshot_solver(session.solver)
    sizes.append([len(snap.clauses), snap.n_vars])
    hashes.append(session.snapshot().content_hash()[:16])
    networks.append(digest(network))
networks += [digest(abstract_mi_ether(2, 2)), digest(mi_ether(2, 2))]
print(json.dumps({"sizes": sizes, "hashes": hashes, "networks": networks}))
"""

# abstract-MI 2x2 at size 3, MSI 2x2 at size 4 and traffic_mesh 3x3 at
# size 2, then every registered builder in name order at size 2 (2x2
# meshes and tori, 4-node rings, netlib defaults, a 4-station token ring),
# all with invariants.  The sizes and the network digests (primitive
# names in order, channel names and endpoints; the two handshake ethers
# last) hold under every hash seed; the content hashes follow the hash
# seed (see SessionSnapshot.content_hash), so each pinned seed has its own.
PINNED_SIZES = [
    [842, 478], [2832, 1407], [4310, 2363],
    [842, 478], [850, 486], [866, 502],
    [1590, 848], [1626, 872], [1624, 878],
    [2832, 1407], [2871, 1440], [2922, 1491],
    [22, 14], [88, 54], [82, 48],
    [674, 382], [683, 389], [698, 406],
]
PINNED_HASHES = {
    "0": [
        "36b3e10f64f1a5df", "ed8987efef1d855c", "be0db2db5027154c",
        "dbdc25b51e3c459e", "1122935fdafe704f", "e5a98f6bc5fe05d8",
        "df34c24b76ae03fe", "9cce2cb7ef628bb0", "2ed1765686243251",
        "099a20b3ee95a1fb", "de8973d8a95d1cc1", "38d8380bb024acd2",
        "77a8781cf23b52f4", "9d246aeea23a872c", "6dec9f144b60d201",
        "f25bcff0109ade50", "b1e411e99d590fab", "1114a52734e7eaf8",
    ],
    "1": [
        "16bb019a6882cfb6", "dfcabb0071d1c1f2", "e45f03381555e2d8",
        "43b1b3a7bf8a0dce", "6e30d3774c2dcef7", "41c098b07a2d83ff",
        "6945f0795a80865f", "81fbb2bdf38b81f1", "e273a1b33754a7be",
        "de70e3ee471246d2", "d69dec13858b99d9", "1ce4ea86047f6f24",
        "77a8781cf23b52f4", "9d246aeea23a872c", "6dec9f144b60d201",
        "064221404796b4fa", "6b315b0fac62e31e", "a50c060e4c3baf56",
    ],
}
PINNED_NETWORKS = [
    "bb5682deaa283e63", "6b162e38a841f5a8", "adcfe3606c3acd56",
    "ec7a30722e8d54b9", "39f55d34c9f71758", "b31a0d79f5c68042",
    "a37e8ec21ed3546d", "04cdb85e60cb9a31", "f1eb434c9d3f8c50",
    "b5d0cf692ee12822", "a38ea91a52522b40", "78baef901af9afba",
    "75c158572537bf36", "dc68507d8021945c", "d6970e8499ded445",
    "e72c858e97288b5b", "1d7c9ccf7da16527", "3d4e84cf91182574",
    "e23aff17280e1608", "84cfbd7e6858fd4b",
]


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
    assert image["networks"] == PINNED_NETWORKS
