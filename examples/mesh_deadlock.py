#!/usr/bin/env python3
"""The Figure-3 cross-layer deadlock: abstract MI on a 2×2 mesh.

With all queues sized 2, the composition of a deadlock-free protocol and a
deadlock-free XY mesh deadlocks: the directory waits for the owner's putX,
which cannot reach it past an ejection queue full of other caches' stalled
requests.  With queue size 3 the same system verifies deadlock-free.

One session carries the whole script: it finds the size-2
candidates, a replayed explicit-state trace *confirms* one is reachable,
and ``resize_queues(3)`` re-proves the system deadlock-free without
rebuilding the encoding.  With ``--jobs N`` the session's per-case
fan-out (``verify_all_cases``) runs on a pool of N workers over the same
encoding; the single queries and the witness enumeration stay on the
session's own solver.

Run:  python examples/mesh_deadlock.py [--jobs 4]
"""

import argparse

from repro import Verdict, VerificationSession
from repro.mc import Explorer
from repro.protocols import abstract_mi_mesh


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=1,
                        help="fan the per-case checks out to N workers")
    parser.add_argument("--stats", action="store_true",
                        help="print learned-clause lifecycle counters")
    args = parser.parse_args()

    # --- queue size 2: cross-layer deadlock --------------------------------
    inst = abstract_mi_mesh(2, 2, queue_size=2)
    print(f"2x2 mesh, queue size 2: {inst.network.stats()}")
    with VerificationSession(inst.network, jobs=args.jobs) as session:
        session.add_invariants()
        result = session.verify()
        print(f"ADVOCAT verdict: {result.verdict.value}")
        assert not result.deadlock_free
        if args.jobs > 1:
            fanned = [r.verdict for r in session.verify_all_cases()]
            local = [session.verify_case(case).verdict
                     for case in session.encoding.cases]
            stuck = fanned.count(Verdict.DEADLOCK_CANDIDATE)
            print(f"per-case fan-out on {args.jobs} workers: "
                  f"{stuck} of {len(fanned)} cases are candidates")
            assert fanned == local and stuck

        explorer = Explorer(inst.network)
        print("\nsearching for a reachable witness among SMT candidates ...")
        # No small limit: candidate order varies with hash seeding, and the
        # reachable witness must be found wherever it lands in the
        # enumeration.
        for witness in session.enumerate_witnesses(limit=10_000):
            confirmation = explorer.confirm_witness(
                witness.automaton_states, witness.queue_contents,
                max_states=400_000,
            )
            if confirmation.found_deadlock:
                print("confirmed reachable deadlock:")
                print(witness.pretty())
                print(f"\ncounterexample trace "
                      f"({len(confirmation.trace)} steps):")
                for kind, subject, detail in confirmation.trace:
                    print(f"  {kind:8s} {subject:14s} {detail}")
                break
        else:
            raise SystemExit("no SMT candidate confirmed — unexpected")

        # --- queue size 3: deadlock-free — same session, new capacities ----
        session.resize_queues(3)
        result3 = session.verify()
        print(f"\n2x2 mesh, queue size 3: {result3.verdict.value}")
        assert result3.deadlock_free
        print(f"({result3.stats['invariant_count']} invariants; "
              f"solver: {result3.stats['solver']})")

        if args.stats:
            solver_stats = result3.stats["solver"]
            print("learned-clause lifecycle (this query): "
                  + ", ".join(f"{key}={solver_stats[key]}"
                              for key in ("learned", "reductions", "reduced",
                                          "kept_glue")))
            print(f"live learned clauses in the session: "
                  f"{session.solver.learned_count()}")
            stats = session.stats()
            print(f"pool: running={stats['pool_running']}, "
                  f"recoveries={stats['recoveries']}")

    inst3 = abstract_mi_mesh(2, 2, queue_size=3)
    exploration = Explorer(inst3.network).find_deadlock(max_states=500_000)
    print(
        f"explicit-state cross-check: exhausted={exploration.exhausted}, "
        f"deadlock={exploration.found_deadlock}"
    )
    print("\nqueue size 2 deadlocks, queue size 3 is free — matches the paper.")


if __name__ == "__main__":
    main()
