"""Pickle-safe snapshots of a built solver state.

The term language is hash-consed with identity-based equality (``IntVar``
equality is ``is``, interning keys use process-local ``uid`` counters, and
a term is unique only while it is alive: a swept term built again comes
back under a new ``uid``), so :class:`~repro.smt.terms.Term` objects
cannot cross a process boundary.
What *can* cross is the CNF level: by the time an encoding has been loaded
into a :class:`~repro.smt.Solver`, every assertion is integer clauses, a
``name → literal`` table for boolean variables, and a ``SAT var → linear
atom`` side table whose atoms are integer coefficient rows over named
integer variables.  :class:`SolverSnapshot` captures exactly that — plain
tuples of ints and strings, safely picklable under any multiprocessing
start method.

:func:`restore_solver` rebuilds a fully independent :class:`Solver` from a
snapshot: fresh ``IntVar`` objects are minted (one per original variable,
keyed by the original's ``uid``) and the CNF tables are repopulated so the
first ``check()`` hands everything to a fresh CDCL core and theory bridge.
The restored solver connects to snapshot state **by name**: asserting or
assuming a ``boolvar("g")`` resolves to the snapshot's SAT variable for
``g``, which is how worker processes re-use guard literals minted by the
parent (deadlock-case guards, ``cap[q==k]`` capacity pins) without ever
shipping a term.  For the same reason a snapshot keeps no term alive in
the intern table, and a sweep between snapshot and restore changes
nothing the restored solver sees.  New arithmetic over the *restored* ``IntVar`` objects
(returned in the uid map) composes with snapshot constraints exactly like
new arithmetic in the original solver would.

Learned clauses *can* travel too (``include_learned``): the CDCL core's
export is LBD-sorted ``(lbd, literals)`` tuples (at most
``LEARNED_CAP`` of them) over the same variable
numbering the CNF image preserves, so re-attaching them on the restored
side is sound — every exported clause is a resolvent of the snapshotted
formula plus LIA-valid lemmas (branch-and-bound splits, theory
conflicts).  Together with the saved phase vector this is the *warm
snapshot*: a restored worker starts with the parent's deductions and
branching preferences instead of re-deriving them on its first query.
Cold snapshots (the default for :meth:`SessionSpec.snapshot`) simply ship
empty ``learned``/``phases`` fields.  No solver setting travels: the
restored solver manages its learned clauses by the CDCL core's own
policy, as every solver does.

``SNAPSHOT_VERSION`` stays at 2 across the flat-arena CDCL rewrite: the
arena is an internal representation, and the learned export remains the
same LBD-sorted ``(lbd, literals)`` tuples, so snapshots from either core
generation restore interchangeably.  Pickles of releases whose snapshots
still carried the clause-reduction policy and the split budget restore
too: nothing reads those dropped fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import IntVar, LinearAtom

__all__ = ["SolverSnapshot", "snapshot_solver", "restore_solver"]

SNAPSHOT_VERSION = 2

#: Most learned clauses a warm snapshot carries (the lowest-LBD ones).
LEARNED_CAP = 4000


@dataclass(frozen=True)
class SolverSnapshot:
    """Plain-data image of a :class:`~repro.smt.Solver`'s asserted state.

    Every field is built from ints, strings and tuples only, so instances
    pickle under the ``spawn`` start method and can be stored or hashed
    for cache keys.  ``int_vars`` keys integer variables by the *original*
    process's ``uid`` — a stable token for callers to name variables
    across the boundary, never interpreted as a uid on the restoring side.
    """

    version: int
    n_vars: int
    clauses: tuple[tuple[int, ...], ...]
    unsatisfiable: bool
    bool_vars: tuple[tuple[str, int], ...]  # (name, literal)
    int_vars: tuple[tuple[int, str], ...]  # (original uid, name)
    atoms: tuple[tuple[int, tuple[tuple[int, int], ...], int], ...]
    # each atom: (SAT var, ((int var uid, coeff), ...), bound)
    # Warm-start payload (empty on cold snapshots): the CDCL core's
    # learned-clause export as (lbd, literals) pairs and its saved phase
    # vector (0/1 per SAT var).
    learned: tuple[tuple[int, tuple[int, ...]], ...] = ()
    phases: tuple[int, ...] = ()


def snapshot_solver(solver, include_learned: bool = False) -> SolverSnapshot:
    """Capture ``solver``'s assertions as plain data.

    ``include_learned`` additionally captures the learned-clause tail
    (LBD-sorted, at most :data:`LEARNED_CAP` clauses) and the saved phase
    vector, producing a *warm* snapshot: a solver restored from it starts
    with every deduction and branching preference the captured solver had
    accumulated.
    """
    cnf = solver._cnf
    int_vars: dict[int, str] = {}
    atoms = []
    for satvar, atom in cnf.atom_of_var.items():
        for var in atom.variables():
            int_vars.setdefault(var.uid, var.name)
        atoms.append(
            (satvar, tuple((v.uid, c) for v, c in atom.coeffs), atom.bound)
        )
    learned: tuple[tuple[int, tuple[int, ...]], ...] = ()
    phases: tuple[int, ...] = ()
    if include_learned:
        learned = solver.learned_clauses(cap=LEARNED_CAP)
        phases = tuple(int(p) for p in solver.saved_phases())
    return SolverSnapshot(
        version=SNAPSHOT_VERSION,
        n_vars=cnf.n_vars,
        clauses=tuple(tuple(clause) for clause in cnf.clauses),
        unsatisfiable=cnf.unsatisfiable,
        bool_vars=tuple(cnf.var_of_boolname.items()),
        # Sorted by original uid: restoration mints fresh IntVars in this
        # order, so their (monotone) new uids preserve the originals'
        # relative order and re-normalised atoms hash onto restored ones.
        int_vars=tuple(sorted(int_vars.items())),
        atoms=tuple(atoms),
        learned=learned,
        phases=phases,
    )


def restore_solver(snapshot: SolverSnapshot):
    """Rehydrate ``(solver, ints)`` from a :class:`SolverSnapshot`.

    ``ints`` maps each *original* integer-variable uid to the freshly
    minted :class:`IntVar` standing for it in the restored solver; use it
    to build new arithmetic (capacity pins, blocking shapes) that composes
    with the snapshot's constraints.  Boolean variables need no map — a
    restored solver resolves them by name.
    """
    from .solver import Solver

    if snapshot.version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {snapshot.version} is not supported "
            f"(expected {SNAPSHOT_VERSION})"
        )
    solver = Solver()
    cnf = solver._cnf
    cnf.n_vars = snapshot.n_vars
    cnf.clauses = [list(clause) for clause in snapshot.clauses]
    cnf.unsatisfiable = snapshot.unsatisfiable
    cnf.var_of_boolname = dict(snapshot.bool_vars)
    ints = {uid: IntVar(name) for uid, name in snapshot.int_vars}
    for satvar, coeffs, bound in snapshot.atoms:
        atom = LinearAtom(tuple((ints[uid], c) for uid, c in coeffs), bound)
        cnf.atom_of_var[satvar] = atom
        cnf.var_of_atom[atom] = satvar
    # Warm start: the export references the snapshot's variable
    # numbering, which the CNF image preserves verbatim.
    if snapshot.phases:
        solver.seed_phases(snapshot.phases)
    if snapshot.learned:
        # Demote non-binary imports below glue protection: the parent's
        # "hot" is not this worker's "hot" (shard locality); what the
        # local query mix uses re-earns activity, the rest is evictable
        # by the first reduction.
        solver.import_learned(
            snapshot.learned, demote_to=solver._sat.glue_keep + 1
        )
    return solver, ints
