"""Experiment orchestration: shard whole ``SessionSpec`` builds across topologies.

The paper's headline experiment (Figure 4) is *grid-shaped*: it iterates
whole networks — mesh sizes × directory positions — and runs a queue-size
search on each.  :mod:`repro.core.parallel` parallelises the queries
*within* one network; this module parallelises the outer loop, treating
each topology instance as an independent verification certificate
(RealityCheck-style modular decomposition).

The pieces:

* :class:`ScenarioSpec` — a picklable description of one grid point: a
  *builder name* (resolved through the registry below, so no closures
  cross process boundaries) plus kwargs (mesh dims, directory position,
  VC count, protocol), the probe mode (boundary ``search`` or full-curve
  ``sweep``) and the invariant mode (``eager`` / ``none`` — see
  :mod:`repro.core.sizing`).
* the **builder registry** — :func:`register_builder` maps names to
  network builders; :mod:`repro.protocols` and :mod:`repro.netlib`
  register theirs on import, and :func:`resolve_builder` imports both
  lazily so a bare spec unpickled in a spawn-started worker still
  resolves.
* :func:`run_scenario` — the worker body: build the network, run the
  scenario's size search/sweep locally (reusing
  :func:`~repro.core.sizing.minimal_queue_size` /
  :func:`~repro.core.sizing.sweep_queue_sizes` with their warm-start and
  phase-seeding machinery), return a compact, picklable
  :class:`ScenarioResult` (verdict map + build/query timing split — no
  solver terms).
* :class:`Experiment` — the declarative grid and its two-level scheduler:
  scenario jobs ship *specs* (not snapshots) to one pool per run
  (:func:`~repro.core.parallel.start_pool`), each worker builds its own
  ``SessionSpec`` and answers its scenario end-to-end; each scenario may
  shard its own sweep over ``query_jobs`` query workers.
* :class:`ExperimentResult` — deterministic grid-ordered aggregation with
  JSON (de)serialization: ``save``/``load`` checkpoints make runs
  *resumable* — ``Experiment.run(resume=path)`` skips every grid point
  whose key is already answered.

``tests/core/test_experiments.py`` pins the Figure-4 directory grid's
verdicts, sequential and sharded; ``EXPERIMENTS.md`` maps each paper
figure to its driver.
"""

from __future__ import annotations

import inspect
import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..xmas import Network
from .cache import atomic_write_json
from .engine import eager_invariants
from .parallel import POOL_ATTEMPTS, default_jobs, start_pool
from .resilience import Deadline
from .sizing import SizingResult, minimal_queue_size, sweep_queue_sizes


__all__ = [
    "Experiment",
    "ExperimentResult",
    "ScenarioResult",
    "ScenarioSpec",
    "builder_catalog",
    "register_builder",
    "registered_builders",
    "resolve_builder",
    "run_scenario",
]

SCENARIO_MODES = ("search", "sweep")

# ---------------------------------------------------------------------------
# Builder registry: names → network builders.  Specs pickle the *name*, so
# they stay plain data; the builder itself never crosses a process boundary.
# ---------------------------------------------------------------------------

_BUILDERS: dict[str, Callable[..., Any]] = {}
# Registration-time grouping for discovery (builder_catalog, the service's
# stats/cases ops): "abstract_mi", "mi", "msi", "fabric", "netlib", ...
_FAMILIES: dict[str, str] = {}
_DEFAULTS_LOADED = False


def _check_builder_signature(name: str, fn: Callable[..., Any]) -> None:
    """Reject builders a :class:`ScenarioSpec` could never call.

    Specs carry kwargs only (sorted name/value pairs), so every spec
    parameter must be addressable by keyword: positional-only parameters
    and ``*args`` catch-alls are registration-time errors rather than
    grid-run-time surprises.  Non-introspectable callables (C builtins)
    pass through — the spec will fail loudly at build time instead.
    """
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return
    for param in signature.parameters.values():
        if param.kind is inspect.Parameter.POSITIONAL_ONLY:
            raise TypeError(
                f"builder {name!r} has positional-only parameter "
                f"{param.name!r}; ScenarioSpec passes kwargs only"
            )
        if param.kind is inspect.Parameter.VAR_POSITIONAL:
            raise TypeError(
                f"builder {name!r} takes *{param.name}; ScenarioSpec "
                "passes kwargs only"
            )


def register_builder(
    name: str,
    builder: Callable[..., Any] | None = None,
    *,
    family: str = "misc",
):
    """Register ``builder`` under ``name`` (usable as a decorator).

    A builder takes keyword arguments (one of which is the scenario's
    size parameter, by default ``queue_size``) and returns a
    :class:`~repro.xmas.Network` — or an instance object with a
    ``.network`` attribute, which :meth:`ScenarioSpec.build` unwraps.
    The signature is validated at registration: every parameter must be
    keyword-addressable (see :func:`_check_builder_signature`).
    Re-registering a name with a different callable is an error (grids
    rely on names being stable across processes).

    ``family`` groups related builders for discovery — the experiment
    service's ``stats``/``cases`` ops and :func:`builder_catalog` report
    it, so a client can enumerate e.g. every ``"msi"`` case study.

    Note on start methods: under ``fork`` (the Linux default) workers
    inherit every registration made before the pool started, and each
    :meth:`Experiment.run` starts its own pool.  Under
    ``spawn``, workers re-import only the stock modules, so custom
    builders must be registered at import time of an importable module.
    """

    def _register(fn: Callable[..., Any]):
        existing = _BUILDERS.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"builder {name!r} is already registered")
        if existing is None:
            _check_builder_signature(name, fn)
            _BUILDERS[name] = fn
            _FAMILIES[name] = family
        return fn

    if builder is not None:
        return _register(builder)
    return _register


def _ensure_default_builders() -> None:
    """Import the modules that self-register the stock builders.

    Spawn-started workers unpickle bare :class:`ScenarioSpec`\\ s without
    the parent's import history; resolving lazily here makes a spec
    self-contained.  The flag is only latched after both imports succeed,
    so a failed import resurfaces on the next resolution instead of
    poisoning the registry with an empty "known builders" list.
    """
    global _DEFAULTS_LOADED
    if _DEFAULTS_LOADED:
        return
    from .. import netlib, protocols  # noqa: F401 — imported for side effect

    _DEFAULTS_LOADED = True


def resolve_builder(name: str) -> Callable[..., Any]:
    """The builder registered under ``name`` (loading stock builders)."""
    _ensure_default_builders()
    try:
        return _BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS)) or "<none>"
        raise KeyError(
            f"no network builder registered as {name!r} (known: {known})"
        ) from None


def registered_builders() -> list[str]:
    """Sorted names of every registered builder."""
    _ensure_default_builders()
    return sorted(_BUILDERS)


def builder_catalog() -> dict[str, dict[str, Any]]:
    """Discovery view of the registry: ``{name: {family, params}}``.

    ``params`` lists the builder's keyword parameters in declaration
    order (empty for non-introspectable callables), so a client can see
    which axes a grid over that builder may legally span.
    """
    _ensure_default_builders()
    catalog: dict[str, dict[str, Any]] = {}
    for name in sorted(_BUILDERS):
        fn = _BUILDERS[name]
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        catalog[name] = {
            "family": _FAMILIES.get(name, "misc"),
            "params": params,
        }
    return catalog


def _freeze(value: Any) -> Any:
    """Canonicalise a kwargs value into hashable, picklable plain data.

    Mapping *values* are rejected rather than frozen: a dict flattened to
    sorted pairs could not be told apart from a genuine tuple when
    :meth:`ScenarioSpec.build` hands the kwargs back to the builder, so
    it would silently arrive in the wrong shape.  Builders needing a
    mapping argument should take flat kwargs or be registered behind a
    wrapper that reassembles it.
    """
    if isinstance(value, Mapping):
        raise TypeError(
            "ScenarioSpec kwargs values may not be mappings (they cannot "
            "be passed back to the builder unambiguously); register a "
            "wrapper builder that reassembles the mapping instead"
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(v) for v in value))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"ScenarioSpec kwargs must be plain data, got {type(value).__name__}"
    )


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Scenario: one grid point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One grid point: builder name + kwargs + probe and invariant modes.

    Plain data end to end — safe to pickle under any multiprocessing
    start method (including ``spawn``) and to hash/compare for grid
    deduplication and resume keys.

    Parameters
    ----------
    builder:
        Registry name (see :func:`register_builder`).
    kwargs:
        Builder keyword arguments *except* the size parameter; mappings
        and sequences are canonicalised to sorted tuples.
    mode:
        ``"search"`` — climb to the minimal deadlock-free size, one
        size at a time up to 16, and bisect the last gap
        (:func:`~repro.core.sizing.minimal_queue_size`); ``"sweep"`` —
        probe every size in :attr:`sizes`
        (:func:`~repro.core.sizing.sweep_queue_sizes`).
    sizes:
        The sweep's explicit size list (``mode="sweep"`` only).
    low, max_size:
        Search bounds (``mode="search"`` only).
    size_param:
        The builder kwarg the probed size is passed as.
    invariants:
        ``"eager"`` or ``"none"`` — see :mod:`repro.core.sizing`.
    query_jobs:
        Inner query-level worker count for this scenario's sweep;
        ``None`` defers to the scheduler's ``query_jobs``.
    label:
        Display label; defaults to a rendering of builder + kwargs.
    """

    builder: str
    kwargs: tuple[tuple[str, Any], ...] = ()
    mode: str = "search"
    sizes: tuple[int, ...] = ()
    low: int = 1
    max_size: int = 512
    size_param: str = "queue_size"
    invariants: str = "eager"
    query_jobs: int | None = None
    label: str | None = None

    def __post_init__(self):
        if self.mode not in SCENARIO_MODES:
            raise ValueError(
                f"mode must be one of {SCENARIO_MODES}, got {self.mode!r}"
            )
        eager_invariants(self.invariants)  # rejects an unknown mode
        raw = self.kwargs
        if isinstance(raw, Mapping):
            pairs = raw.items()
        else:
            pairs = tuple(raw)
        object.__setattr__(
            self,
            "kwargs",
            tuple(sorted((str(k), _freeze(v)) for k, v in pairs)),
        )
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if self.mode == "sweep" and not self.sizes:
            raise ValueError("mode='sweep' needs a non-empty sizes list")
        if self.query_jobs is not None and self.query_jobs < 1:
            raise ValueError(
                f"query_jobs must be >= 1, got {self.query_jobs}"
            )

    # ------------------------------------------------------------------
    def key(self) -> str:
        """Canonical identity of this grid point (resume / dedup key).

        Scheduling hints (``query_jobs``, ``label``) are excluded: they
        do not change the scenario's verdicts.
        """
        payload = {
            "builder": self.builder,
            "kwargs": {k: _jsonable(v) for k, v in self.kwargs},
            "mode": self.mode,
            "sizes": list(self.sizes),
            "low": self.low,
            "max_size": self.max_size,
            "size_param": self.size_param,
            "invariants": self.invariants,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def display_label(self) -> str:
        if self.label is not None:
            return self.label
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.kwargs)
        return f"{self.builder}({rendered})"

    # ------------------------------------------------------------------
    def build(self, size: int | None = None) -> Network:
        """Construct this scenario's network (at ``size``, if given)."""
        builder = resolve_builder(self.builder)
        kwargs = dict(self.kwargs)
        if size is not None:
            kwargs[self.size_param] = size
        built = builder(**kwargs)
        if not isinstance(built, Network):
            built = getattr(built, "network", built)
        return built

    def build_callable(self) -> Callable[[int], Network]:
        """The ``build(size)`` callable the sizing functions consume."""
        return lambda size: self.build(size)

    def session_spec(self, size: int | None = None):
        """Open the build phase this spec *describes*
        (:class:`~repro.core.engine.SessionSpec`) without going through a
        size search — the engine hook for one-off queries on a grid point.
        """
        from .engine import SessionSpec

        return SessionSpec(self.build(size))


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    """Compact, picklable outcome of one scenario.

    Carries verdicts and counters only — no solver terms, witnesses or
    :class:`~repro.core.result.VerificationResult` objects — so it
    travels cheaply from worker processes and serialises to JSON.
    """

    key: str
    label: str
    minimal_size: int | None
    probes: dict[int, bool]
    build_seconds: float
    query_seconds: float
    total_seconds: float
    invariants_mode: str
    invariants_used: bool
    # Invariant rows encoded (the full set under eager mode).
    invariants_generated: int = 0
    stats: dict = field(default_factory=dict)
    # Structured failure record (None on success): set when a scenario
    # failed its pool attempts and then its one inline retry without
    # producing verdicts.  A
    # failed result still occupies its grid slot — the rest of the grid
    # completes — and a resumed run retries it instead of reusing it.
    failure: dict | None = None

    @classmethod
    def failed(
        cls,
        spec: ScenarioSpec,
        error: BaseException,
        attempts: int = 0,
        total_seconds: float = 0.0,
    ) -> "ScenarioResult":
        """A placeholder result for a scenario that could not be answered."""
        return cls(
            key=spec.key(),
            label=spec.display_label,
            minimal_size=None,
            probes={},
            build_seconds=0.0,
            query_seconds=0.0,
            total_seconds=round(total_seconds, 6),
            invariants_mode=spec.invariants,
            invariants_used=False,
            failure={
                "type": type(error).__name__,
                "message": str(error),
                "attempts": int(attempts),
            },
        )

    @classmethod
    def from_sizing(
        cls,
        spec: ScenarioSpec,
        sizing: SizingResult,
        total_seconds: float,
    ) -> "ScenarioResult":
        solver_totals: dict[str, int] = {}
        network_stats: dict = {}
        for result in sizing.results.values():
            if not network_stats:
                network_stats = dict(result.stats.get("network", {}))
            for key, value in result.stats.get("solver", {}).items():
                if isinstance(value, (int, float)):
                    solver_totals[key] = solver_totals.get(key, 0) + value
        return cls(
            key=spec.key(),
            label=spec.display_label,
            minimal_size=sizing.minimal_size,
            probes=dict(sorted(sizing.probes.items())),
            build_seconds=round(sizing.build_seconds, 6),
            query_seconds=round(sizing.query_seconds, 6),
            total_seconds=round(total_seconds, 6),
            invariants_mode=sizing.invariants_mode,
            invariants_used=sizing.invariants_used,
            invariants_generated=sizing.invariants_generated,
            stats={"network": network_stats, "solver_totals": solver_totals},
        )

    def to_json(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["probes"] = {str(size): free for size, free in self.probes.items()}
        return data

    @classmethod
    def from_json(cls, data: Mapping) -> "ScenarioResult":
        payload = dict(data)
        payload["probes"] = {
            int(size): bool(free) for size, free in payload["probes"].items()
        }
        # Checkpoints written while the lazy and partial invariant modes
        # or the strategy portfolio existed carry their records; they
        # have no field now.
        for retired in (
            "lazy_escalations", "rank_histogram", "rank_budget", "rank_growth",
            "strategy_wins", "portfolio_races",
        ):
            payload.pop(retired, None)
        return cls(**payload)


@dataclass
class ExperimentResult:
    """Grid-ordered aggregation of scenario results.

    ``scenarios`` follows the experiment's deterministic grid order no
    matter which worker finished first.  ``computed`` / ``reused`` count
    this *run*'s work: a fully resumed run reports ``computed == 0``.

    The resilience counters record how bumpy the run was: ``retries`` —
    pool rebuilds after a worker crash plus per-scenario inline
    re-attempts; ``failures`` — scenarios whose inline retry failed too
    and landed as :meth:`ScenarioResult.failed` placeholders.  Both
    survive JSON checkpoints (and default to zero when loading a
    pre-resilience checkpoint).
    """

    name: str
    scenarios: list[ScenarioResult] = field(default_factory=list)
    computed: int = 0
    reused: int = 0
    failures: int = 0
    retries: int = 0

    def by_key(self) -> dict[str, ScenarioResult]:
        return {result.key: result for result in self.scenarios}

    @property
    def build_seconds(self) -> float:
        return sum(result.build_seconds for result in self.scenarios)

    @property
    def query_seconds(self) -> float:
        return sum(result.query_seconds for result in self.scenarios)

    def pretty(self) -> str:
        lines = [f"experiment {self.name!r}: {len(self.scenarios)} scenarios"]
        for result in self.scenarios:
            probed = ", ".join(
                f"{size}:{'free' if free else 'dl'}"
                for size, free in sorted(result.probes.items())
            )
            lines.append(
                f"  {result.label}: minimal={result.minimal_size} "
                f"({probed}) build {result.build_seconds:.2f}s / "
                f"query {result.query_seconds:.2f}s"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "name": self.name,
            "computed": self.computed,
            "reused": self.reused,
            "failures": self.failures,
            "retries": self.retries,
            "scenarios": [result.to_json() for result in self.scenarios],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "ExperimentResult":
        return cls(
            name=data["name"],
            scenarios=[
                ScenarioResult.from_json(entry)
                for entry in data.get("scenarios", [])
            ],
            computed=int(data.get("computed", 0)),
            reused=int(data.get("reused", 0)),
            failures=int(data.get("failures", 0)),
            retries=int(data.get("retries", 0)),
        )

    def save(self, path: str | Path) -> None:
        """Checkpoint atomically (temp file in the same directory, then
        ``os.replace``): a crash mid-write leaves either the previous
        checkpoint or the new one, never a torn resume file."""
        atomic_write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentResult":
        return cls.from_json(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# The worker body
# ---------------------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec,
    query_jobs: int | None = None,
    backend: str = "process",
    portfolio: bool = False,
    deadline=None,
) -> ScenarioResult:
    """Build and answer one scenario end to end (the worker body).

    The builder is resolved by name, the network is built *in this
    process*, and the scenario's size search/sweep runs locally on its
    own sessions — nothing but the spec comes in and nothing but the
    compact result goes out.  ``query_jobs`` is the scheduler's
    per-scenario query worker count; the spec's own
    :attr:`ScenarioSpec.query_jobs` overrides it.  ``portfolio`` must be
    ``False``: the strategy portfolio was deleted, and ``True`` raises
    ``ValueError``.
    ``deadline`` bounds every probe
    (:class:`~repro.core.resilience.Deadline` or wire tuple — it crosses
    the scenario-pool boundary as plain data); sizes the budget could not
    answer land as ``TIMEOUT`` probes, never hangs.
    """
    if portfolio:
        raise ValueError(
            "the strategy portfolio was deleted (it never beat "
            "sequential eager); pass portfolio=False"
        )
    start = perf_counter()
    deadline = Deadline.coerce(deadline)
    inner = spec.query_jobs if spec.query_jobs is not None else (query_jobs or 1)
    build = spec.build_callable()
    if spec.mode == "search":
        sizing = minimal_queue_size(
            build,
            low=spec.low,
            max_size=spec.max_size,
            invariants=spec.invariants,
            deadline=deadline,
        )
    else:
        sizing = sweep_queue_sizes(
            build,
            spec.sizes,
            jobs=inner,
            backend=backend,
            invariants=spec.invariants,
            deadline=deadline,
        )
    return ScenarioResult.from_sizing(spec, sizing, perf_counter() - start)


# ---------------------------------------------------------------------------
# The experiment grid and its two-level scheduler
# ---------------------------------------------------------------------------


class Experiment:
    """A declarative grid of :class:`ScenarioSpec`\\ s and its scheduler.

    Construct directly from an explicit scenario list, or expand a
    cartesian grid with :meth:`grid`.  Scenario keys must be unique —
    they are the resume identity.
    """

    def __init__(self, name: str, scenarios: Iterable[ScenarioSpec]):
        self.name = name
        self.scenarios = list(scenarios)
        seen: set[str] = set()
        for spec in self.scenarios:
            key = spec.key()
            if key in seen:
                raise ValueError(f"duplicate scenario in grid: {key}")
            seen.add(key)

    @classmethod
    def grid(
        cls,
        name: str,
        builder: str,
        axes: Mapping[str, Sequence] | None = None,
        base: Mapping[str, Any] | None = None,
        mode: str = "search",
        sizes: Sequence[int] = (),
        low: int = 1,
        max_size: int = 512,
        size_param: str = "queue_size",
        invariants: str = "eager",
        query_jobs: int | None = None,
    ) -> "Experiment":
        """Expand ``axes`` (kwarg name → values) into a cartesian grid.

        Expansion order is deterministic: axes vary right-to-left in the
        given axis order (``itertools.product`` order), so the grid — and
        every result list over it — is stable across runs and machines.
        """
        axes = dict(axes or {})
        base = dict(base or {})
        names = list(axes)
        scenarios = []
        for combo in itertools.product(*(axes[axis] for axis in names)):
            kwargs = dict(base)
            kwargs.update(zip(names, combo))
            scenarios.append(
                ScenarioSpec(
                    builder=builder,
                    kwargs=kwargs,
                    mode=mode,
                    sizes=tuple(sizes),
                    low=low,
                    max_size=max_size,
                    size_param=size_param,
                    invariants=invariants,
                    query_jobs=query_jobs,
                )
            )
        return cls(name, scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: int | None = None,
        query_jobs: int | None = None,
        backend: str = "process",
        resume: "ExperimentResult | str | Path | None" = None,
        save_path: str | Path | None = None,
        progress: Callable[[ScenarioResult], None] | None = None,
        deadline=None,
    ) -> ExperimentResult:
        """Answer every grid point; returns grid-ordered results.

        Parameters
        ----------
        jobs:
            Scenario-level worker count (outer shards).  Defaults to
            :func:`~repro.core.parallel.default_jobs` capped at the
            pending grid size; ``1`` runs the outer loop inline — no
            pool, identical verdicts.
        query_jobs:
            Inner per-scenario query worker count.  Defaults to ``1`` —
            each scenario answers its sweep sequentially, so results
            are identical on every machine.  ``jobs × query_jobs``
            workers may run at once.
        backend:
            ``"process"`` (real parallelism) or ``"thread"`` (GIL-bound;
            differential tests).
        resume:
            A prior :class:`ExperimentResult` (or a path to one saved
            with :meth:`ExperimentResult.save`); grid points whose key it
            already answers are *not rebuilt* and are carried over.  A
            path that does not exist yet is an empty resume set — the
            documented ``--save X --resume X`` idiom works even when the
            first run died before its first checkpoint.
        save_path:
            Checkpoint the partial result here after every completed
            scenario (and the final result at the end) — crash-resumable.
        progress:
            Callback invoked with each newly computed
            :class:`ScenarioResult` as it lands (worker completion
            order).
        deadline:
            Optional :class:`~repro.core.resilience.Deadline` bounding
            every probe; budget-exhausted probes land as ``TIMEOUT``
            verdicts with their stats retained.

        A scenario that crashes its worker is resubmitted to a rebuilt
        pool up to :data:`~repro.core.parallel.POOL_ATTEMPTS` times,
        then *quarantined*: re-run inline once, and if that also fails
        recorded as a structured :attr:`ScenarioResult.failure` — the
        rest of the grid always completes.
        """
        if backend not in ("process", "thread"):
            raise ValueError(f"unknown backend {backend!r}")
        # Fail fast on unresolvable builders: a worker-side KeyError
        # would surface as an opaque pool failure mid-run.
        for spec in self.scenarios:
            resolve_builder(spec.builder)
        deadline = Deadline.coerce(deadline)
        completed: dict[str, ScenarioResult] = {}
        if resume is not None:
            if not isinstance(resume, ExperimentResult):
                if Path(resume).exists():
                    resume = ExperimentResult.load(resume)
                else:
                    resume = ExperimentResult(name=self.name)
            completed = resume.by_key()
            # Failure placeholders are never *reused*: a resumed run gets
            # a fresh shot at the scenarios the previous run quarantined.
            completed = {
                key: result
                for key, result in completed.items()
                if result.failure is None
            }

        grid_keys = [spec.key() for spec in self.scenarios]
        pending = [
            spec for spec in self.scenarios if spec.key() not in completed
        ]
        # Reusing a completed key is sound: keys pin every
        # verdict-relevant field, the invariants mode included.
        reused = sum(1 for key in grid_keys if key in completed)
        if jobs is None:
            jobs = min(default_jobs(), max(1, len(pending)))
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        jobs = min(jobs, len(pending)) if pending else 1
        inner = 1 if query_jobs is None else query_jobs
        if inner < 1:
            raise ValueError(f"query_jobs must be >= 1, got {inner}")

        results_by_key = {
            key: completed[key] for key in grid_keys if key in completed
        }
        computed = 0
        failures = 0
        retries = 0

        def checkpoint() -> None:
            if save_path is None:
                return
            partial = ExperimentResult(
                name=self.name,
                scenarios=[
                    results_by_key[key]
                    for key in grid_keys
                    if key in results_by_key
                ],
                computed=computed,
                reused=reused,
                failures=failures,
                retries=retries,
            )
            partial.save(save_path)

        def land(result: ScenarioResult) -> None:
            nonlocal computed
            results_by_key[result.key] = result
            computed += 1
            checkpoint()
            if progress is not None:
                progress(result)

        def run_quarantined(spec: ScenarioSpec, attempts: int) -> ScenarioResult:
            """A scenario that exhausted its pool attempts (or whose
            worker answered with an exception) is re-run inline once; if
            that fails too it lands as a structured failure placeholder,
            so the rest of the grid still completes."""
            nonlocal failures, retries
            start = perf_counter()
            retries += 1
            try:
                return run_scenario(
                    spec, query_jobs=inner, backend=backend, deadline=deadline
                )
            except Exception as error:
                failures += 1
                return ScenarioResult.failed(
                    spec,
                    error,
                    attempts=attempts,
                    total_seconds=perf_counter() - start,
                )

        if pending:
            if jobs == 1:
                for spec in pending:
                    try:
                        land(
                            run_scenario(
                                spec,
                                query_jobs=inner,
                                backend=backend,
                                deadline=deadline,
                            )
                        )
                    except Exception:
                        land(run_quarantined(spec, attempts=1))
            else:
                from concurrent.futures import BrokenExecutor, as_completed

                # Fault-tolerant pool scheduling.  Every spec carries an
                # attempt count; a BrokenExecutor (worker crash) shuts
                # the poisoned pool down and resubmits whatever has not
                # landed yet to a fresh one.  A spec that burns through
                # ``POOL_ATTEMPTS`` pool rounds without landing — the
                # crash-the-worker-every-time case — is
                # quarantined onto one inline retry instead of poisoning
                # pool after pool.
                attempts = {spec.key(): 0 for spec in pending}
                remaining = list(pending)
                wire = None if deadline is None else deadline.to_wire()
                while remaining:
                    pooled = []
                    for spec in remaining:
                        if attempts[spec.key()] >= POOL_ATTEMPTS:
                            land(
                                run_quarantined(
                                    spec, attempts=attempts[spec.key()]
                                )
                            )
                        else:
                            pooled.append(spec)
                    remaining = []
                    if not pooled:
                        break
                    # One pool per round, and a round after the first only
                    # follows a crash: one pool per run, replaced when it
                    # breaks and shut down when the round leaves.
                    with start_pool(jobs, backend) as executor:
                        # The deadline crosses the pool boundary as its
                        # wire tuple: worker clocks are not comparable
                        # with ours.
                        future_spec = {}
                        for spec in pooled:
                            attempts[spec.key()] += 1
                            future = executor.submit(
                                run_scenario,
                                spec,
                                inner,
                                backend,
                                deadline=wire,
                            )
                            future_spec[future] = spec
                        try:
                            for future in as_completed(future_spec):
                                spec = future_spec[future]
                                try:
                                    land(future.result())
                                except BrokenExecutor:
                                    raise
                                except Exception:
                                    # The worker answered with an
                                    # exception (a builder bug): the pool
                                    # is intact; quarantine just this spec.
                                    land(
                                        run_quarantined(
                                            spec, attempts=attempts[spec.key()]
                                        )
                                    )
                        except BrokenExecutor:
                            # A dead worker poisons the pool permanently;
                            # rerun everything that has not landed on a
                            # fresh pool (the checkpoint, if any, already
                            # holds what did land).
                            retries += 1
                            remaining = [
                                spec
                                for spec in future_spec.values()
                                if spec.key() not in results_by_key
                            ]
                        finally:
                            for future in future_spec:
                                future.cancel()

        result = ExperimentResult(
            name=self.name,
            scenarios=[results_by_key[key] for key in grid_keys],
            computed=computed,
            reused=reused,
            failures=failures,
            retries=retries,
        )
        if save_path is not None:
            result.save(save_path)
        return result
