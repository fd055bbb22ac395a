"""Ranked partial invariant sets: selection engine + CEGAR escalation.

The contract under test is *verdict byte-identity*: ``invariants=
"partial"`` must answer every probe exactly as eager mode does — a
deadlock-free verdict under a subset stays deadlock-free under the full
set, and a candidate is only reported once its model satisfies every
remaining row (or the full set is in force).  On top of that, the
selection ablation counters (``invariants_generated``, escalation count,
rank histogram) must aggregate correctly across shards and survive the
worker-side escalation path.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import (
    DEFAULT_RANK_BUDGET,
    Deadline,
    InvariantSelector,
    Invariant,
    ParallelVerificationSession,
    SessionSpec,
    SizingResult,
    Strengthening,
    VerificationSession,
    WorkerSession,
    encode_invariant_rows,
    invariant_features,
    rank_invariants,
    sweep_queue_sizes,
)
from repro.core import parallel as parallel_module
from repro.netlib import running_example
from repro.protocols import abstract_mi_mesh
from repro.smt import intvar


def _build(size):
    return running_example(queue_size=size).network


# ---------------------------------------------------------------------------
# Static ranking
# ---------------------------------------------------------------------------


def _invariant(names_coeffs, constant=0):
    return Invariant(
        {intvar(name): coeff for name, coeff in names_coeffs}, constant
    )


def test_invariant_features_split_channels_and_automata():
    inv = _invariant([("#q0.req", 1), ("#q1.ack", 1), ("S.s0", 1), ("S.s1", -1)])
    channels, automata, total = invariant_features(inv)
    assert (channels, automata, total) == (2, 1, 4)


def test_rank_invariants_prefers_local_rows_and_is_deterministic():
    wide = _invariant([("#a.x", 1), ("#b.x", 1), ("#c.x", 1), ("T.t0", 1)])
    narrow = _invariant([("#a.x", 1), ("S.s0", -1)])
    states_only = _invariant([("S.s0", 1), ("S.s1", 1)], -1)
    ranked = rank_invariants([wide, narrow, states_only])
    assert ranked[0] == states_only  # zero channel columns
    assert ranked[1] == narrow
    assert ranked[2] == wide
    assert rank_invariants([narrow, states_only, wide]) == ranked


def test_ranked_generation_does_not_mark_the_spec_strengthened():
    spec = SessionSpec(_build(2))
    ranked = spec.ranked_invariants()
    assert len(ranked) >= 1
    assert spec.invariants is None  # partial-mode sessions stay unstrengthened
    # ... and the full-set cache is shared, not recomputed:
    assert set(spec.generate_invariants()) == set(ranked)


# ---------------------------------------------------------------------------
# The selector: violated-only batches, overlap order, budget growth
# ---------------------------------------------------------------------------


def _rows_for_selector():
    # Three rows over uids 1..3: row0 wants v1 == 1, row1 wants v2 == 0,
    # row2 wants v1 + v3 == 1.
    a = _invariant([("sel.a", 1)], -1)
    b = _invariant([("#sel.b", 1)])
    c = _invariant([("sel.a", 1), ("#sel.c", 1)], -1)
    rows = encode_invariant_rows([a, b, c])
    uids = [entry[0][0][0] for entry in rows]
    return rows, uids


def test_selector_hands_out_only_violated_rows():
    rows, _ = _rows_for_selector()
    selector = InvariantSelector(rows, rank_budget=8)
    # Model: a = 1 (row0 satisfied), b = 2 (row1 violated), c = 0 (row2 ok).
    values = {rows[0][0][0][0]: 1, rows[1][0][0][0]: 2, rows[2][0][0][0]: 1,
              rows[2][0][1][0]: 0}
    batch = selector.next_batch(lambda uid: values.get(uid, 0))
    assert batch == [1]
    assert selector.generated == 1
    assert selector.escalations == 1
    assert not selector.exhausted


def test_selector_reports_candidate_final_when_nothing_is_violated():
    rows, _ = _rows_for_selector()
    selector = InvariantSelector(rows)
    values = {rows[0][0][0][0]: 1, rows[1][0][0][0]: 0, rows[2][0][0][0]: 1,
              rows[2][0][1][0]: 0}
    assert selector.next_batch(lambda uid: values.get(uid, 0)) == []
    assert selector.generated == 0
    assert not selector.exhausted  # nothing handed out, rows remain


def test_selector_budget_grows_geometrically_and_terminates_at_full_set():
    many = [
        _invariant([(f"#m.q{i}", 1)], -1)  # wants q_i == 1; model gives 0
        for i in range(7)
    ]
    selector = InvariantSelector(
        encode_invariant_rows(rank_invariants(many)), rank_budget=1, rank_growth=2
    )
    sizes = []
    while not selector.exhausted:
        batch = selector.next_batch(lambda uid: 0)
        if not batch:
            break
        sizes.append(len(batch))
    assert sizes == [1, 2, 4]  # 1, then 2, then the remaining 4
    assert selector.exhausted
    assert selector.generated == 7
    assert sum(selector.rank_histogram.values()) == 7


def test_selector_counters_delta():
    rows, _ = _rows_for_selector()
    selector = InvariantSelector(rows, rank_budget=8)
    before = selector.counters()
    selector.next_batch(lambda uid: 5)  # everything violated
    delta = InvariantSelector.counters_delta(selector.counters(), before)
    assert delta["invariants_generated"] == 3
    assert delta["escalations"] == 1
    assert sum(delta["rank_histogram"].values()) == 3


def test_selector_validates_schedule_knobs():
    with pytest.raises(ValueError):
        InvariantSelector((), rank_budget=0)
    with pytest.raises(ValueError):
        InvariantSelector((), rank_growth=0)
    assert InvariantSelector(()).rank_budget == DEFAULT_RANK_BUDGET


# ---------------------------------------------------------------------------
# Session-level escalation: verdicts identical, strictly fewer rows
# ---------------------------------------------------------------------------


def test_partial_sweep_matches_eager_with_fewer_rows():
    eager = sweep_queue_sizes(_build, range(1, 4), jobs=1)
    partial = sweep_queue_sizes(_build, range(1, 4), jobs=1, invariants="partial")
    assert partial.probes == eager.probes
    assert partial.minimal_size == eager.minimal_size
    assert partial.invariants_mode == "partial"
    assert partial.invariants_used
    # running_example needs 1 of its rows; eager always pays the full set.
    assert 0 < partial.invariants_generated < eager.invariants_generated
    assert sum(partial.rank_histogram.values()) == partial.invariants_generated


# The solver's search path, and with it how many refinement steps a
# partial walk takes, depends on the interpreter's hash seed (about one
# seed in ten takes a third step here), so the accounting is pinned in a
# child process with a fixed PYTHONHASHSEED.
_ACCOUNTING_SCRIPT = """
import json
from repro.core import minimal_queue_size, sweep_queue_sizes
from repro.protocols import abstract_mi_mesh

def build(size):
    return abstract_mi_mesh(2, 2, queue_size=size).network

def accounting(sizing):
    return [
        sorted(sizing.probes.items()),
        sizing.minimal_size,
        sizing.invariants_used,
        sizing.lazy_escalations,
        sizing.invariants_generated,
        sorted(sizing.rank_histogram.items()),
    ]

pinned = {}
for mode in ("eager", "lazy", "partial", "none"):
    swept = sweep_queue_sizes(build, range(1, 5), jobs=1, invariants=mode)
    try:
        searched = accounting(minimal_queue_size(build, max_size=8, invariants=mode))
    except RuntimeError as error:
        searched = str(error)
    pinned[mode] = {"sweep": accounting(swept), "search": searched}
print(json.dumps(pinned))
"""

_VERIFIED = [[1, False], [2, False], [3, True], [4, True]]


def _walk(escalations, generated, histogram):
    return [_VERIFIED, 3, True, escalations, generated, histogram]


# probes, minimal size, invariants_used, lazy_escalations,
# invariants_generated, rank_histogram: identical for the search and the
# sequential sweep, which walk the same sizes on one session.
PINNED_ACCOUNTING = {
    "eager": _walk(0, 13, []),
    "lazy": _walk(1, 13, []),
    "partial": _walk(2, 9, [[0, 4], [1, 5]]),
}


def test_sizing_accounting_is_pinned_per_mode():
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c", _ACCOUNTING_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    pinned = json.loads(child.stdout)
    for mode, walk in PINNED_ACCOUNTING.items():
        assert pinned[mode] == {"sweep": walk, "search": walk}, mode
    # Block/idle alone never proves the 2x2 mesh: the search cannot end.
    assert pinned["none"] == {
        "sweep": [[[size, False] for size in range(1, 5)], None, False, 0, 0, []],
        "search": "no deadlock-free size found up to 8; "
        "the deadlock may be size-independent",
    }


def test_conjoin_invariants_is_idempotent_per_row():
    spec = SessionSpec(_build(1))
    session = VerificationSession(spec=spec)
    ranked = spec.ranked_invariants()
    assert session.conjoin_invariants(ranked[:1]) == 1
    assert session.conjoin_invariants(ranked[:1]) == 0
    # add_invariants tops up without re-asserting the conjoined row.
    session.add_invariants()
    assert len(session.invariants) == len(ranked)


# ---------------------------------------------------------------------------
# Differential: partial ≡ lazy ≡ eager over random small grids
# ---------------------------------------------------------------------------

size_sets = st.frozensets(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=3
)


@given(
    sizes=size_sets,
    jobs=st.sampled_from([1, 2]),
    rank_budget=st.sampled_from([1, 2, None]),
)
@settings(max_examples=12, deadline=None)
def test_partial_equals_lazy_equals_eager(sizes, jobs, rank_budget):
    probe = sorted(sizes)
    eager = sweep_queue_sizes(_build, probe, jobs=1)
    lazy = sweep_queue_sizes(
        _build, probe, jobs=jobs, backend="thread", invariants="lazy"
    )
    partial = sweep_queue_sizes(
        _build,
        probe,
        jobs=jobs,
        backend="thread",
        invariants="partial",
        rank_budget=rank_budget,
    )
    assert lazy.probes == eager.probes
    assert partial.probes == eager.probes
    assert partial.minimal_size == lazy.minimal_size == eager.minimal_size
    # Partial never encodes more rows than an escalated lazy run.
    if lazy.invariants_used:
        assert partial.invariants_generated <= lazy.invariants_generated


# ---------------------------------------------------------------------------
# Shard-level aggregation (SizingResult.merge)
# ---------------------------------------------------------------------------


def test_merge_aggregates_escalation_accounting_across_shards():
    shard_a = SizingResult(
        minimal_size=None,
        probes={1: False},
        invariants_mode="partial",
        invariants_used=True,
        lazy_escalations=2,
        invariants_generated=5,
        rank_histogram={0: 4, 1: 1},
    )
    shard_b = SizingResult(
        minimal_size=3,
        probes={3: True},
        invariants_mode="partial",
        invariants_used=False,
        lazy_escalations=1,
        invariants_generated=2,
        rank_histogram={0: 2},
    )
    merged = SizingResult.merge([shard_a, shard_b])
    assert merged.minimal_size == 3
    assert merged.invariants_used  # any shard used them
    assert merged.lazy_escalations == 3
    assert merged.invariants_generated == 7
    assert merged.rank_histogram == {0: 6, 1: 1}


def test_sharded_partial_sweep_accounts_per_worker_rows():
    # Two thread-backend shards, both hitting deadlocked sizes: every
    # worker escalates locally, and the merged record sums their rows.
    sequential = sweep_queue_sizes(
        _build, range(1, 4), jobs=1, invariants="partial"
    )
    sharded = sweep_queue_sizes(
        _build, range(1, 4), jobs=2, backend="thread", invariants="partial"
    )
    assert sharded.probes == sequential.probes
    assert sharded.invariants_used
    assert sharded.invariants_generated >= sequential.invariants_generated
    assert sharded.lazy_escalations >= sequential.lazy_escalations
    # Per-probe deltas surface on the results for experiment aggregation.
    selections = [
        result.stats.get("invariant_selection")
        for result in sharded.results.values()
    ]
    assert all(sel is not None for sel in selections)
    assert sum(sel["invariants_generated"] for sel in selections) == (
        sharded.invariants_generated
    )


# ---------------------------------------------------------------------------
# Worker-side escalation (pool snapshot carries the ranked rows)
# ---------------------------------------------------------------------------


def test_forced_pool_escalation_matches_sequential_verdicts():
    network = _build(1)
    with ParallelVerificationSession(
        network, jobs=2, backend="thread", force_pool=True
    ) as session:
        shards = [
            [{"q0": 1, "q1": 1}, {"q0": 3, "q1": 3}],
            [{"q0": 2, "q1": 2}],
        ]
        sharded = session.probe_shards(
            shards, strengthening=Strengthening("partial")
        )
    flat = {1: sharded[0][0], 3: sharded[0][1], 2: sharded[1][0]}
    eager = sweep_queue_sizes(_build, range(1, 4), jobs=1)
    for size, result in flat.items():
        assert result.deadlock_free == eager.probes[size], size
        assert "invariant_selection" in result.stats


def _mesh(size):
    return abstract_mi_mesh(2, 2, queue_size=size).network


def test_lazy_pool_sweep_escalates_inside_one_pool(monkeypatch):
    # Lazy workers strengthen at their own first surviving candidate:
    # the sweep opens one pool, never a second one for the survivors.
    opened = []
    original_init = parallel_module.ParallelVerificationSession.__init__

    def counting_init(self, *args, **kwargs):
        opened.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(
        parallel_module.ParallelVerificationSession, "__init__", counting_init
    )
    lazy = sweep_queue_sizes(
        _mesh, range(1, 5), jobs=2, backend="thread", invariants="lazy"
    )
    assert len(opened) == 1
    eager = sweep_queue_sizes(_mesh, range(1, 5), jobs=2, backend="thread")
    assert lazy.probes == eager.probes
    assert lazy.invariants_used
    assert 1 <= lazy.lazy_escalations <= 2  # at most one per shard


def _partial_probe(snapshot, sizes, deadline=None):
    """One partial-mode shard probe on a fresh worker; returns the
    payload and the conflicts each inner check spent."""
    worker = WorkerSession(snapshot)
    spent = []
    check = worker.check

    def recording_check(*args, **kwargs):
        payload = check(*args, **kwargs)
        spent.append(payload[3].get("conflicts", 0))
        return payload

    worker.check = recording_check
    tail = () if deadline is None else (deadline.to_wire(),)
    job = ("shard", ((None, sizes),), True, "partial", None, None, *tail)
    (payload,) = worker.run(job)
    return payload, spent


def test_escalation_reasks_share_the_probe_conflict_budget():
    # Every re-ask of a partial probe draws on what is left of the
    # probe's budget and is charged to it, so a budget one conflict short
    # of the probe's total answers TIMEOUT.  (A check that ends SAT after
    # c conflicts needs a limit of c + 1: the solver stops at the limit
    # before its final propagation, so the full answer needs T + 1.)
    spec = SessionSpec(_mesh(2))
    snapshot = spec.snapshot(include_pending_invariants=True)
    sizes = tuple(sorted(spec.initial_sizes.items()))
    unbounded, spent = _partial_probe(snapshot, sizes)
    assert unbounded[0] == "sat" and len(spent) >= 2
    total = sum(spent)
    short, _ = _partial_probe(snapshot, sizes, Deadline(conflicts=total - 1))
    assert short[0] == "unknown"
    enough, again = _partial_probe(
        snapshot, sizes, Deadline(conflicts=total + 1)
    )
    assert enough[0] == unbounded[0]
    assert again == spent


def test_snapshot_ships_pending_rows_only_when_asked():
    spec = SessionSpec(_build(2))
    bare = spec.snapshot()
    assert bare.pending_invariant_rows == ()
    pending = spec.snapshot(include_pending_invariants=True)
    assert len(pending.pending_invariant_rows) == len(spec.ranked_invariants())
    # A session that already conjoined a row ships one fewer pending row.
    session = VerificationSession(spec=spec)
    session.conjoin_invariants(spec.ranked_invariants()[:1])
    live = session.snapshot(include_pending_invariants=True)
    assert len(live.pending_invariant_rows) == (
        len(spec.ranked_invariants()) - 1
    )
    # Plain data end to end: every coefficient is ints + bool.
    for entries, const_num, const_den in pending.pending_invariant_rows:
        assert isinstance(const_num, int) and isinstance(const_den, int)
        for uid, num, den, is_channel in entries:
            assert isinstance(uid, int)
            assert isinstance(num, int) and isinstance(den, int)
            assert isinstance(is_channel, bool)


def test_encode_rows_round_trips_fraction_coefficients():
    inv = Invariant({intvar("#frac.q"): Fraction(3, 2)}, Fraction(-1, 2))
    ((entries, const_num, const_den),) = encode_invariant_rows([inv])
    assert entries[0][1:] == (3, 2, True)
    assert (const_num, const_den) == (-1, 2)
