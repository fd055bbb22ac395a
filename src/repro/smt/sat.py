"""A CDCL SAT solver on a flat, array-packed data path.

Implements the standard modern architecture: two-watched-literal
propagation with blocker literals, first-UIP conflict analysis with clause
learning, VSIDS branching on an indexed binary heap with in-place
decrease-key, phase saving, and Luby restarts.  A theory listener can be
attached for DPLL(T) integration; it is kept in sync with the trail and may
report conflicts as lists of literals (the negation of a theory-inconsistent
set of asserted literals).

Solving is *incremental and assumption-based* (the MiniSat ``solve(assumps)``
discipline): :meth:`Cdcl.solve` accepts a sequence of assumption literals
that are decided, in order, below all regular decisions.  Clauses learned
during any call are resolvents of the clause database alone — assumption
literals enter them only negated, like decision literals — so the learned
clauses remain valid for every later call under any assumption set.  When
the instance is unsatisfiable *because of* the assumptions, ``final_core``
holds an inconsistent subset of them (the failed core); a root-level
conflict leaves the core empty and marks the solver permanently UNSAT.

The trail outlives a verdict.  After SAT (the model is read off it) and
after an assumption-caused UNSAT, :meth:`Cdcl.solve` leaves it in place;
the next call backjumps only to the first assumption that differs from
the previous call's, since level ``i + 1`` holds assumption ``i``.  A
query mix that repeats a long assumption prefix (ADVOCAT's capacity pins
under per-case guards) therefore decides and propagates that prefix once.
Callers should pass their stable assumptions first.  Whatever needs the
root still rewinds there: a due clause-database reduction at entry,
restarts, ``UNKNOWN`` slices, :meth:`add_clause`, :meth:`import_learned`,
:meth:`compact` and the phase seeders.

Learnt clauses have a managed *lifecycle* (the Glucose discipline): each
is tagged at derivation time with its LBD ("glue") — the number of
distinct decision levels among its literals — and accumulates activity
whenever it participates in a conflict derivation.  When the live learnt
count crosses a geometrically growing threshold, :meth:`Cdcl.reduce_db`
forgets the cold tail (binary and ``lbd ≤ glue_keep`` clauses are
protected preferentially, up to ``glue_cap`` of them), so long-lived
incremental sessions stay bounded.  :meth:`learned_clauses` exports the
surviving resolvents (plus root-level facts) in LBD order and
:meth:`import_learned` re-attaches such an export into another solver over
the same variable numbering — the warm-start channel used by snapshot
rehydration.

Data layout (the hot-loop rewrite)
----------------------------------

Everything the propagate/analyze/decide loop touches lives in flat,
preallocated buffers instead of per-clause Python objects:

* **Literal codes.**  Internally a literal ``±v`` is the integer code
  ``2v`` (positive) or ``2v + 1`` (negative); negation is ``code ^ 1``.
  The public API (``add_clause``, ``solve(assumptions=)``, the theory
  listener, ``learned_clauses``) still speaks signed literals — codes
  never escape this module.

* **Clause arena.**  All clauses share one flat list of ints.  A clause
  reference (*cref*) is the arena offset of its 3-word header::

      [size<<2 | learnt | protected<<1]  [lbd]  [activity slot]  lit₀ lit₁ … litₙ₋₁

  ``lbd == 0`` marks a problem clause; the activity slot indexes a
  parallel activity list.  :meth:`reduce_db` / :meth:`compact` are arena
  garbage collections: survivors are copied into a fresh arena (coldest
  tail dropped) and the watcher lists are rebuilt against the new crefs.

  The buffers are plain Python lists on purpose: CPython's ``array('i')``
  boxes every element on read/write, which measures 2–3x *slower* than
  list indexing in the hot loop — flatness (one structure, int-only
  content, no per-clause objects) is where the speedup comes from, not
  the storage type.

* **Watcher lists with blockers.**  ``_watches[code]`` is a flat
  interleaved list ``[cref, blocker, cref, blocker, …]`` of the clauses
  watching ``¬code``.  The blocker is another literal of the clause
  (usually the other watched literal); when it is already true *and
  still one of the clause's two watched slots* the clause is skipped
  with at most two arena reads — the majority case on these structured
  encodings.  The freshness check is what keeps the skip
  trajectory-faithful: a stale-but-true blocker falls through to the
  full inspection so the keep-vs-move decision matches the reference
  core exactly.  A binary clause (82% of the clauses of the 2×2
  Figure-4 designs) is marked in its two entries by storing ``~cref``,
  a negative int, in the cref slot; its blocker is always the other
  literal, so propagation settles it from the entry alone and touches
  the arena only to write the reference core's slot order on a unit or
  a conflict.  The marker adds no object: the entries hold ``~cref``
  instead of ``cref``.

* **Trail and assignment.**  The assignment is indexed *by literal
  code* (``_val[code] ∈ {1, 0, -1}``; ``_val[code ^ 1]`` mirrors the
  negation), which removes the ``abs()``/sign branch from every literal
  evaluation.  The trail, levels, reasons, saved phases and the
  conflict-analysis ``seen`` scratch are preallocated buffers grown with
  the variable count — no per-conflict allocation.

* **Lazy VSIDS heap without the fallback scan.**  ``_heap`` is a stdlib
  ``heapq`` min-heap of int keys ``var − (IEEE-754 bits of activity <<
  32)`` (:func:`_heap_key`), which order exactly like the reference
  core's ``(−activity, var)`` tuples.  ``_key[var]`` holds the current
  key, computed once per bump, so a backjump pushes a stored int
  instead of building a tuple, and the C heap compares ints instead of
  tuples of floats.  The invariant — every *unassigned* variable always
  has an entry at its current key (pushed at creation, on every bump,
  and on every backjump-unassign) — makes heap exhaustion the
  full-assignment test, so :meth:`_decide` never falls back to a linear
  scan over all variables (the old stale-heap pathology); stale and
  assigned entries are discarded lazily at pop.  The ``_incur`` flag
  skips the backjump-push when the variable's current-key entry never
  left the heap, which removes most of the duplicate-entry churn.  An
  activity rescale rebuilds the heap with one entry per unassigned
  variable, in both cores.  (An indexed binary heap with in-place
  decrease-key was tried first and *lost*: tens of thousands of
  interpreted sift steps cost more than C-level ``heappush``/``heappop``
  on duplicates.)

The rewrite is *trajectory-faithful*: decisions, propagations, learnt
clauses and models are identical to the retained reference implementation
(:mod:`repro.smt._sat_reference`), which the differential suite in
``tests/smt/test_satcore.py`` enforces.  :meth:`Cdcl.profile` exposes
hot-loop counters (watcher visits, blocker hits, analyze steps, arena GC
volume) for benchmarks and regression tests.

The solver remains deliberately self-contained (stdlib only, no numpy) so
its behaviour is easy to audit — it is part of the trusted base of the
verification results.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from struct import Struct
from typing import Callable, Iterable, Protocol, Sequence

__all__ = ["Cdcl", "TheoryListener", "SAT", "UNSAT", "UNKNOWN"]

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

_UNDEF = 0

# Arena header layout: [size<<2 | flags, lbd, activity-slot], then lits.
_HDR = 3
_LEARNT = 1
_PROTECTED = 2

_pack_double = Struct("<d").pack
_from_bytes = int.from_bytes
_VAR_MASK = (1 << 32) - 1


def _heap_key(var: int, activity: float) -> int:
    """``var``'s VSIDS heap key: ``var − (IEEE-754 bits of activity << 32)``.

    The bits of a non-negative double order like the double itself, so
    the smallest key is the highest activity, ties broken toward the
    lower variable — the order of the reference core's ``(−activity,
    var)`` tuples, for variables below 2³².  ``key & _VAR_MASK`` is
    ``var``.
    """
    return var - (_from_bytes(_pack_double(activity), "little") << 32)


class TheoryListener(Protocol):
    """Callbacks the CDCL core uses to keep a theory solver in sync.

    Listeners may additionally expose an ``atom_vars`` attribute — the set
    of SAT variables that carry theory atoms.  When present, the core only
    calls :meth:`assert_index` for literals over those variables; the
    listener must then tolerate gaps in the ``index`` sequence (undo
    bookkeeping keyed by index rather than dense per-position marks).
    """

    def assert_index(self, index: int, lit: int) -> list[int] | None:
        """Notify that trail position ``index`` holds ``lit``.

        Returns ``None`` when consistent, otherwise a conflict explanation:
        a list of asserted literals whose conjunction is theory-inconsistent.
        """

    def pop_to(self, trail_length: int) -> None:
        """Undo all assertions at trail positions ≥ ``trail_length``."""

    def final_check(self) -> list[int] | None:
        """Full-assignment check; same contract as :meth:`assert_index`."""


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    Standard formulation: find the smallest complete binary sequence of
    length ``2^seq − 1`` covering position ``i``, then recurse into the
    remainder (iteratively).
    """
    index = i - 1  # zero-based position
    size, seq = 1, 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index %= size
    return 1 << seq


def _signed(code: int) -> int:
    """Internal literal code → signed external literal."""
    return -(code >> 1) if code & 1 else code >> 1


class Cdcl:
    """Conflict-driven clause-learning SAT solver with theory hooks.

    ``reduction`` enables periodic clause-database reduction: once the
    live learnt count reaches ``reduce_base`` the cold tail of the learnt
    clauses is forgotten (the warmest ``reduce_keep`` fraction survives)
    and the threshold grows by ``reduce_growth`` (a geometric schedule).
    Binary clauses and clauses with ``lbd <= glue_keep`` are protected
    *preferentially*: they are exempt from the tail cut up to
    ``glue_cap`` of them; beyond the cap the coldest protected clauses
    (by activity) are demoted into the ordinary tail.  The cap matters on
    ADVOCAT's structured encodings, where shallow incremental searches
    tag most resolvents as glue — an unconditional exemption would keep
    the database growing linearly with session length.  Reduction is
    purely a performance policy — it never changes verdicts, only which
    redundant resolvents are retained.
    """

    def __init__(
        self,
        theory: TheoryListener | None = None,
        reduction: bool = True,
        reduce_base: int = 400,
        reduce_growth: float = 1.3,
        glue_keep: int = 2,
        glue_cap: int | None = None,
        reduce_keep: float = 0.5,
    ):
        self.theory = theory
        self.n_vars = 0
        # --- clause arena ------------------------------------------------
        self._arena: list[int] = []
        self._cla_act: list[float] = []  # indexed by header activity slot
        self._cla_inc = 1.0
        self._n_clauses = 0
        # --- watchers: interleaved [cref, blocker, ...] per literal code
        self._watches: list[list[int]] = [[], []]
        # --- assignment/trail buffers (grown with the variable count) ----
        self._val: list[int] = [0, 0]  # indexed by literal code
        self._level: list[int] = [0]  # indexed by var
        self._reason: list[int] = [-1]  # cref, -1 for decisions; by var
        self._activity: list[float] = [0.0]  # by var
        self._phase = bytearray(1)  # by var
        self._seen = bytearray(1)  # analyze scratch, by var
        self._trail: list[int] = []  # literal codes; capacity == n_vars
        self._trail_len = 0
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._theory_qhead = 0
        # --- VSIDS order: a C-heapq lazy min-heap of int keys (see
        # _heap_key); ``_key[var]`` is the variable's current key.
        # Invariant: every *unassigned* variable always has an entry at
        # its current key (pushed at creation, on every bump, and on
        # every backjump-unassign), so :meth:`_decide` never needs a
        # fallback scan; entries for assigned variables and stale
        # lower-activity duplicates are discarded lazily at pop time.
        # ``_incur[var]`` flags "an entry at the current key is in the
        # heap right now": backjump skips the push when set, which cuts
        # the dominant heappush/heappop churn (most trail entries are
        # propagations whose entry never left the heap).  Bumps set it
        # (the new key *is* the current one), pops of a current-key
        # entry clear it.  Undercounting is harmless (one duplicate
        # push); overcounting cannot happen because a bump always moves
        # the key, so at most one entry per variable carries it.
        self._heap: list[int] = []
        self._key: list[int] = [0]  # by var
        self._incur = bytearray([0])
        self._var_inc = 1.0
        self._ok = True
        self.reduction = reduction
        self.glue_keep = glue_keep
        self.glue_cap = reduce_base if glue_cap is None else glue_cap
        self.reduce_keep = reduce_keep
        self._reduce_limit = max(1, reduce_base)
        self._reduce_growth = reduce_growth
        self._learnt_live = 0
        self.final_core: list[int] = []
        self._assumed: tuple[int, ...] = ()  # the last solve()'s assumptions
        self.stats = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "reductions": 0,
            "reduced": 0,
            "kept_glue": 0,
            # Cooperative-slicing counters (the portfolio layer): budget
            # expiries, cancellation polls that fired, and import rounds
            # accepted through import_learned.  Part of the stable stat
            # key set, so the early-UNSAT zeroing contract covers them.
            "conflict_limit_hits": 0,
            "cancelled": 0,
            "imported_rounds": 0,
        }
        self._profile = {
            "propagations": 0,
            "visited_watchers": 0,
            "blocker_hits": 0,
            "analyze_steps": 0,
            "arena_gc_words": 0,
        }
        # Hot-path counters accumulate in plain ints — five dict updates
        # per _propagate call are measurable at this call rate.  They are
        # folded into ``stats``/``_profile`` at solve()/compact() exits
        # and whenever profile() is read.
        self._acc_props = 0
        self._acc_visits = 0
        self._acc_bhits = 0
        self._acc_steps = 0

    @property
    def learned_count(self) -> int:
        """Live learnt clauses currently attached (root facts excluded)."""
        return self._learnt_live

    def clause_count(self) -> int:
        """Attached clauses (problem + learnt), O(1)."""
        return self._n_clauses

    def profile(self) -> dict[str, int]:
        """Hot-loop instrumentation counters (cumulative, like ``stats``).

        ``propagations`` — trail literals dequeued by unit propagation
        (equals ``stats["propagations"]``); ``visited_watchers`` — watcher
        entries examined; ``blocker_hits`` — watcher entries skipped
        because the blocker literal was already true (no arena access);
        ``analyze_steps`` — literals inspected during first-UIP conflict
        analysis; ``arena_gc_words`` — arena words reclaimed by
        :meth:`reduce_db` compactions.
        """
        self._flush_counters()
        return dict(self._profile)

    def _flush_counters(self) -> None:
        """Fold the accumulated hot-path counters into stats/_profile."""
        props = self._acc_props
        if props or self._acc_visits or self._acc_bhits or self._acc_steps:
            self.stats["propagations"] += props
            profile = self._profile
            profile["propagations"] += props
            profile["visited_watchers"] += self._acc_visits
            profile["blocker_hits"] += self._acc_bhits
            profile["analyze_steps"] += self._acc_steps
            self._acc_props = 0
            self._acc_visits = 0
            self._acc_bhits = 0
            self._acc_steps = 0

    # ------------------------------------------------------------------
    # Compatibility views (tests and introspection; not on the hot path)
    # ------------------------------------------------------------------
    def _iter_crefs(self) -> Iterable[int]:
        arena = self._arena
        cref, end = 0, len(arena)
        while cref < end:
            yield cref
            cref += _HDR + (arena[cref] >> 2)

    def _clause_codes(self, cref: int) -> list[int]:
        base = cref + _HDR
        return self._arena[base : base + (self._arena[cref] >> 2)]

    @property
    def clauses(self) -> list[list[int]]:
        """Signed-literal view of the clause database, in attach order.

        Materialised on demand for tests and debugging; production code
        uses :meth:`clause_count` and the arena directly.
        """
        return [
            [_signed(code) for code in self._clause_codes(cref)]
            for cref in self._iter_crefs()
        ]

    @property
    def _lbd(self) -> list[int]:
        """Per-clause LBD view (0 = problem clause), in attach order."""
        arena = self._arena
        return [arena[cref + 1] for cref in self._iter_crefs()]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self.n_vars += 1
        var = self.n_vars
        self._val.append(0)
        self._val.append(0)
        self._level.append(0)
        self._reason.append(-1)
        self._activity.append(0.0)
        self._phase.append(0)
        self._seen.append(0)
        self._watches.append([])
        self._watches.append([])
        self._trail.append(0)  # capacity: one slot per variable
        self._key.append(var)  # _heap_key(var, 0.0)
        heappush(self._heap, var)
        self._incur.append(1)
        return var

    def ensure_vars(self, n: int) -> None:
        while self.n_vars < n:
            self.new_var()

    @staticmethod
    def _code(lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

    def _value(self, lit: int) -> int:
        return self._val[2 * lit if lit > 0 else -2 * lit + 1]

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a clause, rewinding to the root level first if needed."""
        self._backjump(0)
        if not self._ok:
            return
        seen: set[int] = set()
        filtered: list[int] = []
        for lit in lits:
            if lit in seen:
                continue
            if -lit in seen:
                return  # tautology
            value = self._value(lit)
            if value == 1:
                return  # already satisfied at level 0
            if value == -1:
                continue  # false at level 0: drop the literal
            seen.add(lit)
            filtered.append(lit)
        if not filtered:
            self._ok = False
            return
        if len(filtered) == 1:
            self._enqueue_code(self._code(filtered[0]), -1)
            return
        self._attach([self._code(lit) for lit in filtered])

    def _attach(self, codes: list[int], lbd: int = 0) -> int:
        """Attach a clause of literal codes; ``lbd >= 1`` marks it learnt."""
        arena = self._arena
        cref = len(arena)
        arena.append((len(codes) << 2) | (_LEARNT if lbd else 0))
        arena.append(lbd)
        arena.append(len(self._cla_act))
        self._cla_act.append(self._cla_inc if lbd else 0.0)
        arena.extend(codes)
        self._n_clauses += 1
        if lbd:
            self._learnt_live += 1
        # Watch the first two literals; the blocker is the other watch.
        ref = ~cref if len(codes) == 2 else cref
        wl = self._watches[codes[0] ^ 1]
        wl.append(ref)
        wl.append(codes[1])
        wl = self._watches[codes[1] ^ 1]
        wl.append(ref)
        wl.append(codes[0])
        return cref

    # ------------------------------------------------------------------
    # Trail manipulation
    # ------------------------------------------------------------------
    @property
    def decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue_code(self, code: int, reason: int) -> bool:
        val = self._val
        value = val[code]
        if value == 1:
            return True
        if value == -1:
            return False
        val[code] = 1
        val[code ^ 1] = -1
        var = code >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail[self._trail_len] = code
        self._trail_len += 1
        return True

    def _backjump(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        boundary = self._trail_lim[level]
        trail, val, phase = self._trail, self._val, self._phase
        key, heap, incur = self._key, self._heap, self._incur
        for index in range(boundary, self._trail_len):
            code = trail[index]
            var = code >> 1
            phase[var] = 1 - (code & 1)  # even code == positive literal
            val[code] = 0
            val[code ^ 1] = 0
            if not incur[var]:
                heappush(heap, key[var])
                incur[var] = 1
        self._trail_len = boundary
        del self._trail_lim[level:]
        if self._qhead > boundary:
            self._qhead = boundary
        if self.theory is not None:
            self.theory.pop_to(boundary)
            if self._theory_qhead > boundary:
                self._theory_qhead = boundary

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> int:
        """Unit propagation; returns the conflicting cref, or -1.

        The hot loop: every structure it touches is a flat buffer cached
        in a local.  Watcher entries are interleaved ``[cref, blocker]``
        pairs; a true blocker skips the clause without an arena access.
        A binary clause's entry holds ``~cref`` and its blocker is the
        clause's other literal, so it is settled without reading the
        arena; the arena is written only to make the reference core's
        slot swap on a unit or a conflict.
        """
        val = self._val
        arena = self._arena
        watches = self._watches
        trail = self._trail
        level = self._level
        reason = self._reason
        qhead = self._qhead
        trail_len = self._trail_len
        n_levels = len(self._trail_lim)
        start = qhead
        visits = bhits = 0
        conflict = -1
        while qhead < trail_len:
            pc = trail[qhead]
            qhead += 1
            fc = pc ^ 1  # the literal that just became false
            wl = watches[pc]
            n = len(wl)
            j = 0
            i = -2
            for i in range(0, n, 2):
                cref = wl[i]
                blocker = wl[i + 1]
                if cref < 0:
                    # Binary clause {blocker, fc}: keep the watch either way.
                    if j != i:
                        wl[j] = cref
                        wl[j + 1] = blocker
                    j += 2
                    value = val[blocker]
                    if value == 1:
                        bhits += 1
                        continue
                    cref = ~cref
                    base = cref + 3  # _HDR
                    arena[base] = blocker
                    arena[base + 1] = fc
                    if value == -1:
                        conflict = cref
                        break
                    val[blocker] = 1
                    val[blocker ^ 1] = -1
                    var = blocker >> 1
                    level[var] = n_levels
                    reason[var] = cref
                    trail[trail_len] = blocker
                    trail_len += 1
                    continue
                base = cref + 3  # _HDR
                first = arena[base]
                if val[blocker] == 1 and (
                    first == blocker or arena[base + 1] == blocker
                ):
                    # Satisfied by a still-watched blocker: skip without
                    # normalising.  (A *stale* blocker — one the clause no
                    # longer watches — falls through to the full inspection
                    # so the keep/move decision, and hence the search
                    # trajectory, stays byte-identical to the reference
                    # core.)
                    bhits += 1
                    if j != i:
                        wl[j] = cref
                        wl[j + 1] = blocker
                    j += 2
                    continue
                # Normalise: the false literal goes to slot 1.
                if first == fc:
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = fc
                if val[first] == 1:
                    if j != i:
                        wl[j] = cref
                    wl[j + 1] = first  # refresh the blocker
                    j += 2
                    continue
                end = base + (arena[cref] >> 2)
                k = base + 2
                while k < end:
                    lk = arena[k]
                    if val[lk] != -1:
                        break
                    k += 1
                if k < end:
                    # Found a non-false literal: move the watch there.
                    arena[base + 1] = lk
                    arena[k] = fc
                    target = watches[lk ^ 1]
                    target.append(cref)
                    target.append(first)
                    continue
                if j != i:
                    wl[j] = cref
                wl[j + 1] = first
                j += 2
                if val[first] == -1:
                    conflict = cref
                    break
                # Unit: enqueue ``first`` (inlined _enqueue_code).
                val[first] = 1
                val[first ^ 1] = -1
                var = first >> 1
                level[var] = n_levels
                reason[var] = cref
                trail[trail_len] = first
                trail_len += 1
            if conflict >= 0:
                visits += (i >> 1) + 1
                if j < i + 2:
                    # Keep the unexamined tail of the list (C-level copy).
                    wl[j:] = wl[i + 2 :]
                break
            visits += (i >> 1) + 1
            if j != n:
                del wl[j:]
        self._qhead = qhead
        self._trail_len = trail_len
        self._acc_props += qhead - start
        self._acc_visits += visits
        self._acc_bhits += bhits
        return conflict

    def _theory_sync(self) -> list[int] | None:
        """Feed newly assigned literals to the theory listener.

        When the listener exposes ``atom_vars`` (the set of SAT variables
        carrying theory atoms), pure-boolean trail literals are skipped
        with a set probe instead of a call per literal — on engine
        workloads ~80% of trail entries are guards and auxiliaries the
        theory would ignore anyway.
        """
        theory = self.theory
        if theory is None:
            return None
        trail = self._trail
        trail_len = self._trail_len
        index = self._theory_qhead
        if index >= trail_len:
            return None
        assert_index = theory.assert_index
        atom_vars = getattr(theory, "atom_vars", None)
        if atom_vars is not None:
            while index < trail_len:
                code = trail[index]
                index += 1
                if code >> 1 in atom_vars:
                    lit = -(code >> 1) if code & 1 else code >> 1
                    self._theory_qhead = index
                    explanation = assert_index(index - 1, lit)
                    if explanation is not None:
                        return [-lit for lit in explanation]
            self._theory_qhead = trail_len
            return None
        while index < trail_len:
            code = trail[index]
            lit = -(code >> 1) if code & 1 else code >> 1
            index += 1
            self._theory_qhead = index
            explanation = assert_index(index - 1, lit)
            if explanation is not None:
                return [-lit for lit in explanation]
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _rescale_activity(self) -> None:
        """Scale every activity by 1e-100 and rebuild the heap.

        The rebuilt heap holds exactly one entry per unassigned variable,
        at its rescaled key, as the reference core's rebuild does: a
        pre-rescale entry left in the heap would outrank every current
        key and steer the next decisions.
        """
        activity = self._activity
        key = self._key
        incur = self._incur
        val = self._val
        heap = self._heap
        heap.clear()
        for v in range(1, self.n_vars + 1):
            act = activity[v] * 1e-100
            activity[v] = act
            key[v] = _heap_key(v, act)
            if val[v << 1] == 0:
                heap.append(key[v])
                incur[v] = 1
            else:
                incur[v] = 0
        heapify(heap)
        self._var_inc *= 1e-100

    def _bump_clause(self, cref: int) -> None:
        slot = self._arena[cref + 2]
        cla_act = self._cla_act
        cla_act[slot] += self._cla_inc
        if cla_act[slot] > 1e20:
            for i, act in enumerate(cla_act):
                if act:
                    cla_act[i] = act * 1e-20
            self._cla_inc *= 1e-20

    def _compute_lbd(self, codes: Sequence[int]) -> int:
        """Distinct decision levels among ``codes`` (all assigned)."""
        level = self._level
        return max(1, len({level[code >> 1] for code in codes}))

    def _analyze(self, conflict: Sequence[int]) -> tuple[list[int], int]:
        """First-UIP analysis.  ``conflict`` codes are all false.

        Returns ``(learnt_codes, backjump_level)`` where ``learnt[0]``
        is the asserting literal's code.
        """
        current = len(self._trail_lim)
        level = self._level
        reason = self._reason
        trail = self._trail
        seen = self._seen
        arena = self._arena
        activity = self._activity
        key = self._key
        heap = self._heap
        incur = self._incur
        var_inc = self._var_inc
        learnt: list[int] = []
        marked: list[int] = []  # vars to unmark afterwards
        counter = 0
        steps = 0
        reason_lits: Iterable[int] = conflict
        index = self._trail_len - 1
        asserting = 0
        while True:
            for code in reason_lits:
                steps += 1
                var = code >> 1
                lvl = level[var]
                if seen[var] or lvl == 0:
                    continue
                seen[var] = 1
                marked.append(var)
                # Bump, with _heap_key inlined (the rescale path stays
                # out of line).
                act = activity[var] + var_inc
                activity[var] = act
                if act > 1e100:
                    self._rescale_activity()
                    var_inc = self._var_inc
                else:
                    key[var] = var - (_from_bytes(_pack_double(act), "little") << 32)
                heappush(heap, key[var])
                incur[var] = 1
                if lvl == current:
                    counter += 1
                else:
                    learnt.append(code)
            # Walk the trail backwards to the next marked literal.
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            var = p >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                asserting = p ^ 1
                break
            rref = reason[var]
            if arena[rref] & _LEARNT:
                self._bump_clause(rref)
            base = rref + _HDR
            reason_lits = [
                code for code in arena[base : base + (arena[rref] >> 2)]
                if code != p
            ]
        self._acc_steps += steps
        learnt.insert(0, asserting)
        # Conflict-clause minimisation: drop literals implied by the rest.
        learnt = self._minimise(learnt)
        for var in marked:
            seen[var] = 0
        if len(learnt) == 1:
            return learnt, 0
        # Move the highest-level literal (after the asserting one) to slot 1.
        best = max(range(1, len(learnt)), key=lambda i: level[learnt[i] >> 1])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _minimise(self, learnt: list[int]) -> list[int]:
        """Cheap local minimisation: a literal whose reason is a subset of
        the clause (plus level-0 literals) is redundant."""
        marked = {code >> 1 for code in learnt}
        level = self._level
        reason = self._reason
        arena = self._arena
        result = [learnt[0]]
        for code in learnt[1:]:
            var = code >> 1
            rref = reason[var]
            if rref == -1:
                result.append(code)
                continue
            base = rref + _HDR
            if all(
                other >> 1 in marked or level[other >> 1] == 0
                for other in arena[base : base + (arena[rref] >> 2)]
                if other >> 1 != var
            ):
                continue  # redundant
            result.append(code)
        return result

    def _analyze_final(self, false_assumption: int) -> list[int]:
        """An inconsistent subset of the assumptions (MiniSat analyzeFinal).

        Called when ``false_assumption`` evaluates false while only
        assumption decisions (and their propagations) are on the trail.
        Walks the implication graph of ``¬false_assumption`` back to the
        assumption decisions responsible; together with ``false_assumption``
        they form a conjunction inconsistent with the clause database.
        """
        core = [false_assumption]
        if self._level[abs(false_assumption)] == 0:
            return core  # refuted by the formula alone
        level = self._level
        reason = self._reason
        arena = self._arena
        trail = self._trail
        seen = {abs(false_assumption)}
        start = self._trail_lim[0] if self._trail_lim else 0
        for index in range(self._trail_len - 1, start - 1, -1):
            code = trail[index]
            var = code >> 1
            if var not in seen:
                continue
            rref = reason[var]
            if rref == -1:
                # A decision below the regular search == an assumption
                # (covers directly contradictory assumption pairs too).
                core.append(-(code >> 1) if code & 1 else code >> 1)
            else:
                base = rref + _HDR
                for other in arena[base : base + (arena[rref] >> 2)]:
                    overt = other >> 1
                    if overt != var and level[overt] > 0:
                        seen.add(overt)
        return core

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _decide(self) -> bool:
        """Branch on the hottest unassigned variable.

        Every unassigned variable is in the heap by construction
        (inserted at creation and on every backjump), so heap exhaustion
        *is* the full-assignment test — there is no fallback scan over
        the variable array.
        """
        val = self._val
        heap = self._heap
        key = self._key
        incur = self._incur
        while heap:
            entry = heappop(heap)
            var = entry & _VAR_MASK
            if entry == key[var]:
                incur[var] = 0  # the current-key entry just left the heap
            code = var << 1
            if val[code] == 0:
                self.stats["decisions"] += 1
                self._trail_lim.append(self._trail_len)
                self._enqueue_code(code if self._phase[var] else code | 1, -1)
                return True
        return False

    # ------------------------------------------------------------------
    # Learned-clause lifecycle
    # ------------------------------------------------------------------
    def _root_boundary(self) -> int:
        """Trail length of the level-0 prefix (permanent facts)."""
        return self._trail_lim[0] if self._trail_lim else self._trail_len

    def reduce_db(self) -> int:
        """Forget the cold half of the non-glue learnt clauses.

        Must be called at decision level 0 with propagation at fixpoint
        (the solver calls it right after restart/solve-entry backjumps).
        Keeps every problem clause; learnt binaries and ``lbd <=
        glue_keep`` clauses are protected up to ``glue_cap`` (beyond it
        the coldest are demoted by activity); the remaining tail is
        sorted coldest-first by (activity, then LBD as tiebreak) and only
        the warmest ``reduce_keep`` fraction survives, with
        root-satisfied learnt clauses always dropped.  Implemented as an
        arena compaction: survivors are copied into a fresh arena and the
        watcher lists are rebuilt against the remapped crefs.  Returns
        the number of clauses deleted.
        """
        assert not self._trail_lim, "reduce_db() needs the root level"
        arena = self._arena
        cla_act = self._cla_act
        val = self._val
        # Root-level assignments are permanent facts; conflict analysis
        # never walks below level 0, so their reasons can be forgotten —
        # which unlocks every clause for deletion and remapping.
        for index in range(self._trail_len):
            self._reason[self._trail[index] >> 1] = -1
        keep: list[int] = []
        candidates: list[int] = []
        protected: list[int] = []
        for cref in self._iter_crefs():
            lbd = arena[cref + 1]
            base = cref + _HDR
            end = base + (arena[cref] >> 2)
            if lbd == 0:
                keep.append(cref)
            elif any(val[arena[k]] == 1 for k in range(base, end)):
                continue  # permanently satisfied at root: dead weight
            elif end - base <= 2 or lbd <= self.glue_keep:
                arena[cref] |= _PROTECTED
                protected.append(cref)
            else:
                candidates.append(cref)
        if len(protected) > self.glue_cap:
            # Protection is a priority, not a blank cheque: on these
            # structured encodings most resolvents come out glue-tagged,
            # so the coldest protected clauses re-join the ordinary tail.
            protected.sort(key=lambda c: cla_act[arena[c + 2]], reverse=True)
            for cref in protected[self.glue_cap :]:
                arena[cref] &= ~_PROTECTED
            candidates.extend(protected[self.glue_cap :])
            del protected[self.glue_cap :]
        kept_glue = len(protected)
        keep.extend(protected)
        # Coldest first: lowest activity, ties broken toward dropping
        # high-LBD clauses.  Keep the warmest ``reduce_keep`` fraction.
        candidates.sort(key=lambda c: (cla_act[arena[c + 2]], -arena[c + 1]))
        cut = len(candidates) - int(len(candidates) * self.reduce_keep)
        keep.extend(candidates[cut:])
        keep.sort()
        deleted = self._n_clauses - len(keep)
        if deleted == 0:
            for cref in keep:
                arena[cref] &= ~_PROTECTED
            self.stats["reductions"] += 1
            self.stats["kept_glue"] += kept_glue
            self._reduce_limit = int(self._reduce_limit * self._reduce_growth) + 1
            return 0
        # --- arena compaction ---------------------------------------------
        new_arena: list[int] = []
        new_act: list[float] = []
        learnt_live = 0
        for old in keep:
            base = old + _HDR
            size = arena[old] >> 2
            lbd = arena[old + 1]
            # Watches must sit on non-false literals (false-at-root stays
            # false forever, so a clause watched there would never wake).
            # Propagation is at fixpoint, so every kept unsatisfied clause
            # has >= 2 non-false literals.  Stable partition: non-false
            # literals first, false ones after, original order preserved.
            codes = arena[base : base + size]
            live = [c for c in codes if val[c] != -1]
            dead = [c for c in codes if val[c] == -1]
            new_arena.append((size << 2) | (_LEARNT if lbd else 0))
            new_arena.append(lbd)
            new_arena.append(len(new_act))
            new_act.append(cla_act[arena[old + 2]])
            new_arena.extend(live)
            new_arena.extend(dead)
            if lbd:
                learnt_live += 1
        self._profile["arena_gc_words"] += len(arena) - len(new_arena)
        self._arena = new_arena
        self._cla_act = new_act
        self._n_clauses = len(keep)
        self._learnt_live = learnt_live
        self._watches = [[] for _ in range(2 * self.n_vars + 2)]
        watches = self._watches
        for cref in self._iter_crefs():
            base = cref + _HDR
            first, second = new_arena[base], new_arena[base + 1]
            ref = ~cref if new_arena[cref] >> 2 == 2 else cref
            wl = watches[first ^ 1]
            wl.append(ref)
            wl.append(second)
            wl = watches[second ^ 1]
            wl.append(ref)
            wl.append(first)
        self.stats["reductions"] += 1
        self.stats["reduced"] += deleted
        self.stats["kept_glue"] += kept_glue
        self._reduce_limit = int(self._reduce_limit * self._reduce_growth) + 1
        return deleted

    def _maybe_reduce(self) -> None:
        if self.reduction and self._learnt_live >= self._reduce_limit:
            self.reduce_db()

    def compact(self) -> int:
        """Force one reduction now (e.g. before idling or snapshotting).

        Brings the solver to the root level and propagation to fixpoint
        first; works even with periodic ``reduction`` disabled.  Returns
        the number of clauses deleted (0 when a root conflict makes the
        instance permanently UNSAT instead).
        """
        if not self._ok:
            return 0
        try:
            self._backjump(0)
            if self._propagate() >= 0:
                self._ok = False
                return 0
            if self.theory is not None and self._theory_sync() is not None:
                self._ok = False
                return 0
            return self.reduce_db()
        finally:
            self._flush_counters()

    def learned_clauses(
        self, cap: int | None = None, max_lbd: int | None = None
    ) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The learnt state as ``(lbd, literals)`` pairs, best-glue first.

        Root-level facts are exported as LBD-1 units ahead of the attached
        learnt clauses (sorted by LBD, then length).  Everything exported
        is a resolvent of the clause database plus theory lemmas — valid
        for any solver over the *same* formula and variable numbering, and
        independent of any assumption set (assumptions are decided above
        the root).  ``cap`` truncates the export, ``max_lbd`` filters it.
        """
        trail = self._trail
        exported: list[tuple[int, tuple[int, ...]]] = [
            (1, (_signed(trail[i]),)) for i in range(self._root_boundary())
        ]
        arena = self._arena
        learnt = sorted(
            (
                (
                    arena[cref + 1],
                    tuple(_signed(code) for code in self._clause_codes(cref)),
                )
                for cref in self._iter_crefs()
                if arena[cref + 1]
            ),
            key=lambda item: (item[0], len(item[1])),
        )
        if max_lbd is not None:
            learnt = [item for item in learnt if item[0] <= max_lbd]
        exported.extend(learnt)
        if cap is not None:
            exported = exported[:cap]
        return tuple(exported)

    def import_learned(
        self,
        clauses: Iterable[tuple[int, Sequence[int]]],
        demote_to: int | None = None,
    ) -> int:
        """Re-attach an export of :meth:`learned_clauses` (sound resolvents).

        The caller vouches that every clause is a consequence of this
        solver's formula (true of a parent solver's export over the same
        CNF image).  Clauses are filtered like :meth:`add_clause` — root-
        satisfied ones are dropped, root-false literals removed — then
        attached as learnt with their shipped LBD, so a later reduction
        treats them exactly like locally derived clauses.

        ``demote_to`` floors the stored LBD of non-binary imports: glue
        status is trajectory-local, so a rehydrated worker imports the
        parent's tail as an evictable cache (``demote_to = glue_keep+1``)
        rather than inheriting its "keep forever" promises — clauses the
        local query mix actually uses earn their keep through activity.
        Returns how many clauses were retained (units included).
        """
        self._backjump(0)
        self.stats["imported_rounds"] += 1
        imported = 0
        for lbd, lits in clauses:
            if not self._ok:
                break
            if any(abs(lit) > self.n_vars for lit in lits):
                # Importing across diverged variable numberings is unsound
                # (split atoms are minted per trajectory) — only exports
                # over this solver's own CNF image are accepted.
                raise ValueError(
                    "imported clause references a variable this solver "
                    "never minted; import only exports taken over the "
                    "same CNF image (fork at rest, snapshot/restore)"
                )
            seen: set[int] = set()
            filtered: list[int] = []
            satisfied = False
            for lit in lits:
                if lit in seen:
                    continue
                if -lit in seen:
                    satisfied = True  # tautology
                    break
                value = self._value(lit)
                if value == 1:
                    satisfied = True
                    break
                if value == -1:
                    continue
                seen.add(lit)
                filtered.append(lit)
            if satisfied:
                continue
            if not filtered:
                self._ok = False
                break
            if len(filtered) == 1:
                if not self._enqueue_code(self._code(filtered[0]), -1):
                    self._ok = False
                    break
            else:
                stored = max(1, min(int(lbd), len(filtered)))
                if demote_to is not None and len(filtered) > 2:
                    stored = max(stored, demote_to)
                self._attach(
                    [self._code(lit) for lit in filtered], lbd=stored
                )
            imported += 1
        self.stats["learned"] += imported
        return imported

    # ------------------------------------------------------------------
    # Saved phases
    # ------------------------------------------------------------------
    def phase_vector(self) -> tuple[bool, ...]:
        """The saved phase of every variable, in variable order."""
        return tuple(bool(p) for p in self._phase[1 : self.n_vars + 1])

    def seed_phases(self, phases: Sequence[bool]) -> None:
        """Overwrite saved phases from a :meth:`phase_vector` export.

        Phases only steer branching order — seeding is always sound and
        is how warm snapshots make a fresh solver search near the parent's
        (or a previous probe's) last model first.  Rewinds to the root
        first, like :meth:`set_phase`.
        """
        self._backjump(0)
        limit = min(len(phases), self.n_vars)
        for var in range(1, limit + 1):
            self._phase[var] = 1 if phases[var - 1] else 0

    def set_phase(self, var: int, phase: bool) -> None:
        """Seed one saved phase; rewinds to the root first, so that the
        next backjump cannot overwrite the seed with the trail's value."""
        self._backjump(0)
        if 1 <= var <= self.n_vars:
            self._phase[var] = 1 if phase else 0

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(
        self,
        max_conflicts: int | None = None,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> str:
        """Run search to a verdict.  Call repeatedly after adding clauses.

        ``assumptions`` are literals temporarily decided (in order) below
        every regular decision.  An UNSAT verdict caused by them leaves an
        inconsistent subset in :attr:`final_core`; a root-level conflict
        leaves the core empty and the solver permanently unsatisfiable.

        The trail persists after a SAT or assumption-UNSAT verdict, and
        the next call rewinds only to the first assumption that changed:
        the levels of the longest prefix it shares with this call's
        ``assumptions`` are kept (a due reduction rewinds to the root).
        Pass the assumptions that stay the same across calls first.

        Two cooperative bounds turn a call into a *slice* (the portfolio
        racing primitive): ``conflict_limit`` caps the conflicts spent in
        *this call* and ``should_stop`` is a zero-argument callable polled
        once per propagate cycle.  When either fires the call backjumps to
        the root and returns :data:`UNKNOWN` — no verdict, no core, and
        the solver stays fully reusable: everything learned during the
        slice is kept, so a later call (possibly after importing peer
        clauses) resumes where this one stopped.  ``conflict_limit``
        expiry bumps ``stats["conflict_limit_hits"]``; a ``should_stop``
        hit bumps ``stats["cancelled"]``.  (``max_conflicts`` is the older
        *cumulative* budget that raises :class:`BudgetExceeded` instead —
        a hard failure, not a slice boundary.)
        """
        try:
            return self._solve(
                max_conflicts, assumptions, conflict_limit, should_stop
            )
        finally:
            # Fold the int-accumulated hot-path counters into the public
            # stats/profile dicts on every exit (verdict or budget raise).
            self._flush_counters()

    def _solve(
        self,
        max_conflicts: int | None,
        assumptions: Sequence[int],
        conflict_limit: int | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> str:
        self.final_core = []
        if not self._ok:
            return UNSAT
        # Keep the levels of the longest assumption prefix shared with the
        # previous call (level i + 1 holds assumption i, an empty level if
        # it was already implied), capped by the current level.
        previous, self._assumed = self._assumed, tuple(assumptions)
        kept = 0
        limit = min(len(self._trail_lim), len(previous), len(assumptions))
        while kept < limit and previous[kept] == assumptions[kept]:
            kept += 1
        self._backjump(kept)
        conflicts_entry = self.stats["conflicts"]
        if self.reduction and self._learnt_live >= self._reduce_limit:
            # Reduce between queries: bring root propagation to fixpoint
            # first (reduce_db's precondition; clauses added since the
            # last call may still have pending root units).
            self._backjump(0)
            if self._propagate() >= 0:
                self._ok = False
                return UNSAT
            if self.theory is not None and self._theory_sync() is not None:
                self._ok = False
                return UNSAT
            self.reduce_db()
        arena = self._arena
        level = self._level
        restart_unit = 128
        restart_count = 0
        budget = _luby(restart_count + 1) * restart_unit
        conflicts_here = 0
        while True:
            # Cooperative slice bounds, polled once per propagate cycle so
            # a losing racer stops within one cycle of being beaten.  Both
            # exits leave the solver at the root with all learning kept.
            if should_stop is not None and should_stop():
                self._backjump(0)
                self.stats["cancelled"] += 1
                return UNKNOWN
            if (
                conflict_limit is not None
                and self.stats["conflicts"] - conflicts_entry >= conflict_limit
            ):
                self._backjump(0)
                self.stats["conflict_limit_hits"] += 1
                return UNKNOWN
            conflict_ref = self._propagate()
            arena = self._arena  # _propagate may follow a reduce_db swap
            if conflict_ref < 0:
                theory_conflict = self._theory_sync()
                if theory_conflict is None:
                    conflict_codes = None
                else:
                    conflict_codes = [
                        2 * lit if lit > 0 else -2 * lit + 1
                        for lit in theory_conflict
                    ]
            else:
                base = conflict_ref + _HDR
                conflict_codes = arena[
                    base : base + (arena[conflict_ref] >> 2)
                ]
                if arena[conflict_ref] & _LEARNT:
                    self._bump_clause(conflict_ref)
            if conflict_codes is not None:
                self.stats["conflicts"] += 1
                conflicts_here += 1
                if max_conflicts is not None and self.stats["conflicts"] > max_conflicts:
                    raise BudgetExceeded(self.stats["conflicts"])
                # A theory conflict may live entirely below the current level.
                top = 0
                for code in conflict_codes:
                    lvl = level[code >> 1]
                    if lvl > top:
                        top = lvl
                if top == 0:
                    self._ok = False
                    return UNSAT
                if top < len(self._trail_lim):
                    self._backjump(top)
                learnt, back_level = self._analyze(conflict_codes)
                lbd = self._compute_lbd(learnt)
                self._backjump(back_level)
                self.stats["learned"] += 1
                if len(learnt) == 1:
                    if not self._enqueue_code(learnt[0], -1):
                        self._ok = False
                        return UNSAT
                else:
                    cref = self._attach(learnt, lbd=lbd)
                    self._enqueue_code(learnt[0], cref)
                self._var_inc /= 0.95
                self._cla_inc /= 0.999
                continue
            if conflicts_here >= budget:
                self.stats["restarts"] += 1
                restart_count += 1
                budget = _luby(restart_count + 1) * restart_unit
                conflicts_here = 0
                self._backjump(0)
                self._maybe_reduce()
                arena = self._arena
                continue
            if len(self._trail_lim) < len(assumptions):
                # Re-assert the next pending assumption as a decision.
                lit = assumptions[len(self._trail_lim)]
                code = 2 * lit if lit > 0 else -2 * lit + 1
                value = self._val[code]
                if value == 1:
                    # Already implied: open an empty level so positions in
                    # ``assumptions`` keep lining up with decision levels.
                    self._trail_lim.append(self._trail_len)
                    continue
                if value == -1:
                    self.final_core = self._analyze_final(lit)
                    return UNSAT
                self.stats["decisions"] += 1
                self._trail_lim.append(self._trail_len)
                self._enqueue_code(code, -1)
                continue
            if not self._decide():
                if self.theory is not None:
                    explanation = self.theory.final_check()
                    if explanation is not None:
                        conflict_codes = [
                            2 * lit + 1 if lit > 0 else -2 * lit
                            for lit in explanation
                        ]
                        self.stats["conflicts"] += 1
                        top = 0
                        for code in conflict_codes:
                            lvl = level[code >> 1]
                            if lvl > top:
                                top = lvl
                        if top == 0:
                            self._ok = False
                            return UNSAT
                        self._backjump(top)
                        learnt, back_level = self._analyze(conflict_codes)
                        lbd = self._compute_lbd(learnt)
                        self._backjump(back_level)
                        self.stats["learned"] += 1
                        if len(learnt) == 1:
                            if not self._enqueue_code(learnt[0], -1):
                                self._ok = False
                                return UNSAT
                        else:
                            cref = self._attach(learnt, lbd=lbd)
                            self._enqueue_code(learnt[0], cref)
                        continue
                return SAT

    def model_value(self, var: int) -> bool:
        return self._val[var << 1] == 1


class BudgetExceeded(RuntimeError):
    """Raised when the conflict budget passed to :meth:`Cdcl.solve` runs out."""
