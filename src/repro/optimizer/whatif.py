"""The what-if call interface: budget metering and the what-if cache.

:class:`WhatIfOptimizer` is what every enumeration algorithm talks to. It
mirrors the AutoAdmin "what-if" API [Chaudhuri & Narasayya, SIGMOD'98]:

* :meth:`whatif_cost` — one *counted* optimizer invocation for a
  (query, configuration) pair, unless the pair was already evaluated (the
  cache makes repeats free, as in real tuners);
* :meth:`derived_cost` — the free upper-bound approximation of Section 3.1,
  delegated to :class:`~repro.optimizer.derivation.CostDerivation`;
* a :class:`~repro.budget.policy.BudgetPolicy` (FCFS over a
  :class:`~repro.budget.meter.BudgetMeter` by default) that every *counted*
  call is authorised through, and a call log that records the layout of the
  budget allocation matrix actually realised by a tuning run. Budget
  accounting itself lives in :mod:`repro.budget`; the optimizer only asks
  the policy ``admits``/``charge`` questions and reports committed calls to
  the session event stream when one is attached.

Two layers make the simulated optimizer fast without touching paper
semantics:

* **Relevant-index cache normalization** — every cache key is collapsed to
  ``C ∩ relevant(q)`` (see
  :func:`~repro.optimizer.prepared.index_is_relevant`), so configurations
  differing only in indexes the query cannot use share one cache entry, one
  counted call, and one derivation record. A call is counted iff the
  *normalized* key is uncached; costs are bit-identical because irrelevant
  indexes contribute no plan options. Disable with ``normalize_cache=False``
  to reproduce whole-key caching.
* **One batch-commit loop** — :meth:`whatif_cost` (a batch of one),
  :meth:`whatif_prefetch`, and :meth:`whatif_workload_costs` all charge,
  cache, and log through :meth:`WhatIfOptimizer._commit_batch`: uncached
  (query, key) pairs are taken in waves, priced, granted or denied by the
  policy in issue order, and only then committed, so budget accounting and
  the call-log layout are identical for every job count.

Two further layers speed up pricing itself, again without touching
semantics:

* **Concurrent pricing** (``pricing_jobs > 1``) — waves grow to bounded
  batches that the executor (:mod:`repro.backend.concurrent`) prices on
  worker threads *ahead of* their budget decisions; workers only compute
  costs, and the loop's serial ``try_charge`` and commit sequence is the
  same as at one job, so grants, denials, stats, and the event stream are
  bit-identical to serial execution. At one job a wave is a single pair,
  priced only after the policy admits it.
* **Cost journals** (:mod:`repro.backend.cache`) — ``whatif_cache``
  keeps a shard file per backend fingerprint that remembers priced pairs
  across sessions, ``trace_path`` records every resolved cost of a
  session, and ``replay`` serves a recorded session's costs and nothing
  else. A journaled cost replaces the pricing *work* of a call, never its
  budget charge, cache commit, log entry, or event, so warm and replayed
  runs stay bit-identical to the run that priced them.

Cheap counters (:class:`WhatIfStats`) expose cache hits/misses, calls saved
by normalization, and cumulative cost-model wall time so perf regressions
stay visible in eval reports, the CLI, and the throughput benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from time import perf_counter

from repro.budget.events import EventLog
from repro.budget.meter import BudgetMeter
from repro.budget.policy import BudgetPolicy, FCFSPolicy
from repro.catalog import Index
from repro.config import ReproConfig
from repro.exceptions import TraceError, TuningError
from repro.optimizer.cost_model import CostModel
from repro.optimizer.derivation import CostDerivation
from repro.optimizer.prepared import PreparedQuery
from repro.workload.analysis import bind_query
from repro.workload.query import Query, Workload

#: Canonical immutable representation of a configuration.
ConfigKey = frozenset


def config_key(configuration) -> frozenset[Index]:
    """Normalise any iterable of indexes into a hashable configuration key."""
    return frozenset(configuration)


def sequential_sum(values):
    """Add ``values`` left to right, one at a time.

    Cost totals feed rewards, comparisons and golden pins, so they must not
    depend on the interpreter: since Python 3.12 ``sum()`` of floats is
    compensated and can differ in the last bits from this plain running
    sum, which is what ``sum()`` computed before.
    """
    total = 0
    for value in values:
        total += value
    return total


@dataclass(frozen=True, slots=True)
class WhatIfCall:
    """One counted what-if call, in issue order (a layout entry, Def. 1)."""

    ordinal: int
    qid: str
    configuration: frozenset[Index]
    cost: float


@dataclass(slots=True)
class WhatIfStats:
    """Hot-path counters for one :class:`WhatIfOptimizer`.

    Attributes:
        cache_hits: Free lookups answered from the what-if cache.
        cache_misses: Counted calls (each priced the cost model once).
        normalized_hits: Free lookups that were free *because* relevant-set
            normalization collapsed the key — calls the whole-key cache
            would have counted.
        cost_evaluations: Cost-model pricings, counted and uncounted
            (ground-truth evaluation included).
        cost_seconds: Cumulative wall-clock spent inside
            :meth:`CostModel.cost` (for concurrent waves: the wave wall time).
        batch_calls: Batched pricing passes issued.
        batched_pairs: Uncached pairs priced by those passes.
        replayed: Pricings served from a recorded trace instead of the
            cost model (always 0 outside replay).
        speculative_priced: Pairs resolved (priced or recalled) by the
            concurrent executor *ahead of* their budget decision (always 0
            at one pricing job).
        speculation_wasted: Speculatively priced pairs later denied by the
            budget policy (or cut by a batch limit) and discarded — work
            spent, but never charged or committed.
        persistent_hits: Pricings served from the persistent cross-session
            cache instead of the cost model / DBMS (always 0 when
            ``whatif_cache`` is off).
    """

    cache_hits: int = 0
    cache_misses: int = 0
    normalized_hits: int = 0
    cost_evaluations: int = 0
    cost_seconds: float = 0.0
    batch_calls: int = 0
    batched_pairs: int = 0
    replayed: int = 0
    speculative_priced: int = 0
    speculation_wasted: int = 0
    persistent_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups answered for free (0 when idle)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Scalar view for reports and JSON export."""
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "normalized_hits": self.normalized_hits,
            "cost_evaluations": self.cost_evaluations,
            "cost_seconds": self.cost_seconds,
            "batch_calls": self.batch_calls,
            "batched_pairs": self.batched_pairs,
            "replayed": self.replayed,
            "speculative_priced": self.speculative_priced,
            "speculation_wasted": self.speculation_wasted,
            "persistent_hits": self.persistent_hits,
        }


class WhatIfOptimizer:
    """Budget-metered, cached what-if costing for one workload.

    Args:
        workload: The workload being tuned.
        budget: Budget ``B`` on counted what-if calls (``None`` = unlimited).
        cost_model: Optional pre-built cost model (defaults to a fresh
            :class:`~repro.optimizer.cost_model.CostModel` over the
            workload's schema).
        normalize_cache: Collapse cache keys to the query's relevant index
            subset (default on; ``None`` defers to ``config``).
        pricing_jobs: Concurrent pricing workers for the batch-commit
            loop (``None`` defers to ``config``; 1 prices each pair only
            after its budget decision). Never affects results.
        whatif_cache: Persistent cross-session cache directory (``None``
            defers to ``config``; unset disables; ignored by replay, whose
            trace is its cache). Never affects results.
        trace_path: Trace file. Records every cost the session resolves
            (written on :meth:`close`), or, with ``replay``, is the only
            source of costs. Never affects results.
        replay: Serve costs from the trace at ``trace_path`` alone: a
            pair it lacks raises
            :class:`~repro.exceptions.TraceMissError`. Cache normalization
            is taken from the trace, and a trace recorded against another
            workload is refused with :class:`~repro.exceptions.TraceError`.
            ``monotonic`` and :attr:`separate_truth` are those of the
            backend that recorded it. Pricing is serial (a replayed
            pricing is a dict lookup).
        config: Engine knobs; defaults to
            :meth:`~repro.config.ReproConfig.from_env` so the
            ``REPRO_NORMALIZE_CACHE`` / ``REPRO_PRICING_JOBS`` environment
            knobs apply to any run that does not pass an explicit config.
        policy: Budget policy authorising counted calls. Defaults to
            :class:`~repro.budget.policy.FCFSPolicy` over ``budget`` (the
            pre-session discipline, bit-identical to a bare meter).
            Mutually exclusive with ``budget``.
        events: Optional session event stream; committed counted calls are
            reported as ``whatif_call`` events.
    """

    #: Whether :meth:`true_cost` prices apart from the search costs (the
    #: noisy backend scores on clean costs). Such ground-truth costs are
    #: memoised apart from the what-if cache and journaled under
    #: :data:`~repro.backend.cache.TRUTH_TAG`-prefixed query ids.
    separate_truth = False

    def __init__(
        self,
        workload: Workload,
        budget: int | None = None,
        cost_model: CostModel | None = None,
        *,
        normalize_cache: bool | None = None,
        pricing_jobs: int | None = None,
        whatif_cache: str | Path | None = None,
        trace_path: str | Path | None = None,
        replay: bool = False,
        config: ReproConfig | None = None,
        policy: BudgetPolicy | None = None,
        events: EventLog | None = None,
    ):
        base = config or ReproConfig.from_env()
        self._workload = workload
        self._model = cost_model or CostModel(workload.schema)
        if policy is not None and budget is not None:
            raise TuningError(
                "pass either budget or policy to WhatIfOptimizer, not both "
                "(the policy owns the meter)"
            )
        self._policy = policy if policy is not None else FCFSPolicy(BudgetMeter(budget))
        self._events = events
        if events is not None and policy is None:
            self._policy.attach(events)
        self._trace_path = Path(trace_path) if trace_path else None
        self._trace = None
        if replay:
            normalize_cache = self._open_replay(normalize_cache)
            pricing_jobs = 1
        self._replaying = replay
        self._normalize = (
            base.normalize_cache if normalize_cache is None else normalize_cache
        )
        self._pricing_jobs = (
            base.pricing_jobs if pricing_jobs is None else pricing_jobs
        )
        if self._pricing_jobs < 1:
            raise TuningError(
                f"pricing_jobs must be at least 1, got {self._pricing_jobs}"
            )
        if replay:
            self._whatif_cache = None
        else:
            self._whatif_cache = (
                base.whatif_cache if whatif_cache is None else whatif_cache
            )
        self._pcache = None
        self._journaled = not replay and (
            self._whatif_cache is not None or self._trace_path is not None
        )
        self._pricing_executor = None
        self._prepared: dict[str, PreparedQuery] = {}
        self._cache: dict[tuple[str, frozenset[Index]], float] = {}
        self._true_costs: dict[tuple[str, frozenset[Index]], float] = {}
        self._derivation = CostDerivation()
        self._log: list[WhatIfCall] = []
        self._empty_costs: dict[str, float] = {}
        self._stats = WhatIfStats()
        self._cost_observers: list = []

    # ------------------------------------------------------------------ #
    # bookkeeping accessors
    # ------------------------------------------------------------------ #

    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def meter(self) -> BudgetMeter:
        """The global budget meter (owned by the active policy)."""
        return self._policy.meter

    @property
    def policy(self) -> BudgetPolicy:
        """The budget policy admitting counted calls."""
        return self._policy

    @policy.setter
    def policy(self, policy: BudgetPolicy) -> None:
        """Swap the active policy (used by scoped session allowances)."""
        self._policy = policy

    @property
    def events(self) -> EventLog | None:
        """The session event stream, if one is attached."""
        return self._events

    def attach_events(self, events: EventLog | None) -> None:
        """Connect the session event stream to the optimizer and policy."""
        self._events = events
        self._policy.attach(events)

    @property
    def calls_used(self) -> int:
        """Counted what-if calls issued so far."""
        return self._policy.spent

    @property
    def call_log(self) -> list[WhatIfCall]:
        """The realised layout: counted calls in issue order."""
        return list(self._log)

    @property
    def derivation(self) -> CostDerivation:
        return self._derivation

    @property
    def stats(self) -> WhatIfStats:
        """Live hot-path counters (cache hits/misses, wall time, …)."""
        return self._stats

    @property
    def normalize_cache(self) -> bool:
        """Whether relevant-index cache normalization is active."""
        return self._normalize

    @property
    def cost_model(self) -> CostModel:
        """The underlying analytic cost model (query prep + raw pricing)."""
        return self._model

    def add_cost_observer(self, observer) -> None:
        """Register ``observer(qid, configuration, cost)`` on every pricing.

        Observers see each *fresh* cost-model output — counted what-if
        calls, the free empty-configuration costs, and uncounted
        ground-truth evaluations — keyed by the normalized configuration.
        Cached lookups are not re-reported. This is the hook the opt-in
        :class:`~repro.lint.sanitizers.MonotonicityChecker` installs on; an
        observer that raises aborts the costing operation.
        """
        self._cost_observers.append(observer)

    @property
    def cost_observers(self) -> tuple:
        """The registered cost observers (read-only view)."""
        return tuple(self._cost_observers)

    def _notify_cost(self, qid: str, key: frozenset[Index], cost: float) -> None:
        for observer in self._cost_observers:
            observer(qid, key, cost)

    def prepared(self, query: Query) -> PreparedQuery:
        """The prepared form of ``query`` (bound and cached on first use)."""
        cached = self._prepared.get(query.qid)
        if cached is None:
            bound = bind_query(self._workload.schema, query.statement, query.qid)
            cached = self._model.prepare(bound)
            self._prepared[query.qid] = cached
        return cached

    @property
    def pricing_jobs(self) -> int:
        """Concurrent pricing workers (1 = serial path)."""
        return self._pricing_jobs

    @property
    def whatif_cache(self) -> str | Path | None:
        """The persistent-cache directory selection, if any."""
        return self._whatif_cache

    @property
    def trace(self):
        """The record or replay journal, or ``None``.

        A recording journal opens with the session's first pricing; after
        :meth:`close` its ``path`` holds ``len(trace)`` cost lines.
        """
        return self._trace

    def close(self) -> None:
        """Flush the cost journals and shut down the pricing executor.

        Safe to call repeatedly; the optimizer stays usable afterwards
        (the executor reopens lazily on the next pricing), so evaluation
        helpers may keep costing after a session is closed.
        """
        if self._pricing_executor is not None:
            self._pricing_executor.shutdown()
            self._pricing_executor = None
        if self._pcache is not None:
            self._pcache.flush()
        if self._trace is not None:
            self._trace.flush()

    # ------------------------------------------------------------------ #
    # key normalization and pricing helpers
    # ------------------------------------------------------------------ #

    def _norm_key(
        self, prepared: PreparedQuery, key: frozenset[Index]
    ) -> frozenset[Index]:
        """``key ∩ relevant(q)`` under normalization, else ``key`` unchanged.

        Returns the *same object* when nothing is dropped, so callers can
        detect collapses with an identity check.
        """
        if self._normalize and key:
            return prepared.relevant_subset(key)
        return key

    def _evaluate(self, prepared: PreparedQuery, key: frozenset[Index]) -> float:
        """One raw cost evaluation — the per-pair cost-backend seam.

        Every fresh pricing (counted calls, free empty-configuration costs,
        uncounted ground-truth evaluations) funnels through
        :meth:`_price_shard`, which calls this once per pair; subclasses in
        :mod:`repro.backend` override it to perturb the analytic cost model
        (:class:`~repro.backend.noisy.NoisyBackend`) without touching
        caching, normalization, or budget accounting.
        """
        return self._model.cost(prepared, key)

    # ------------------------------------------------------------------ #
    # cost journals: persistent cache, record, replay
    # ------------------------------------------------------------------ #

    def cache_identity(self) -> dict:
        """Identity facts keying the persistent cache and heading a trace.

        Two sessions sharing a shard file must be guaranteed to price every
        (qid, normalized key) pair to the same float; the fingerprint hashes
        everything that guarantee depends on. Subclasses extend the mapping
        with whatever else their pricing reads (noise seed, DSN/server
        identity) so any change lands in a fresh shard file.
        """
        from repro.backend.cache import workload_fingerprint

        return {
            "backend": getattr(type(self), "name", "analytic"),
            "workload": workload_fingerprint(self._workload),
            "normalize_cache": self._normalize,
        }

    def _open_replay(self, normalize_cache: bool | None) -> bool:
        """Open the trace strictly and adopt the recording backend's traits.

        Returns the normalization the trace was recorded with.
        """
        from repro.backend.cache import REPLAY, PersistentWhatIfCache, workload_fingerprint
        from repro.backend.factory import BACKENDS

        if self._trace_path is None:
            raise TuningError("replay needs a trace path")
        self._trace = PersistentWhatIfCache(self._trace_path, mode=REPLAY)
        recorded = self._trace.identity
        if recorded.get("workload") != workload_fingerprint(self._workload):
            raise TraceError(
                f"trace {self._trace_path} was recorded against another "
                f"workload than {self._workload.name!r} ({len(self._workload)} "
                "queries): the workload fingerprints differ"
            )
        adopted = bool(recorded.get("normalize_cache"))
        if normalize_cache is not None and normalize_cache != adopted:
            raise TraceError(
                f"trace {self._trace_path} was recorded with "
                f"normalize_cache={adopted}; cannot replay with "
                f"normalize_cache={normalize_cache}"
            )
        # Replayed noisy or postgres costs break Assumption 1 as the
        # recorded ones did, and a noisy recording's ground truth is clean.
        recorder = BACKENDS.get(recorded.get("backend"))
        self.monotonic = bool(getattr(recorder, "monotonic", False))
        self.separate_truth = bool(getattr(recorder, "separate_truth", False))
        return adopted

    def _journals(self):
        """The ``(cache, record)`` journals, opened on first use (or ``None``)."""
        if self._pcache is None and self._trace is None:
            from repro.backend.cache import RECORD, PersistentWhatIfCache

            identity = self.cache_identity()
            if self._whatif_cache is not None:
                self._pcache = PersistentWhatIfCache(self._whatif_cache, identity)
            if self._trace_path is not None:
                self._trace = PersistentWhatIfCache(
                    self._trace_path, identity, mode=RECORD
                )
        return self._pcache, self._trace

    def _price(self, prepared: PreparedQuery, key: frozenset[Index]) -> float:
        """One instrumented cost evaluation (journal aware)."""
        (cost,) = self._resolve([(prepared.qid, prepared, key)])
        self._stats.cost_evaluations += 1
        return cost

    def _commit_call(self, qid: str, key: frozenset[Index], cost: float) -> None:
        """Record one counted call: cache, derivation store, and layout log."""
        self._stats.cache_misses += 1
        self._cache[(qid, key)] = cost
        self._derivation.record(qid, key, cost)
        self._log.append(
            WhatIfCall(ordinal=len(self._log) + 1, qid=qid, configuration=key, cost=cost)
        )
        if self._cost_observers:
            self._notify_cost(qid, key, cost)
        if self._events is not None:
            self._events.emit(
                "whatif_call",
                calls_used=self._policy.spent,
                qid=qid,
                size=len(key),
                cost=cost,
            )

    # ------------------------------------------------------------------ #
    # costing
    # ------------------------------------------------------------------ #

    def empty_cost(self, query: Query) -> float:
        """``c(q, ∅)`` — free: tuners always know the current cost.

        Real tuners obtain the existing-configuration cost once as part of
        workload analysis; following the paper we do not charge it against
        the enumeration budget.
        """
        cost = self._empty_costs.get(query.qid)
        if cost is None:
            cost = self._price(self.prepared(query), frozenset())
            self._empty_costs[query.qid] = cost
            self._derivation.record(query.qid, frozenset(), cost)
            if self._cost_observers:
                self._notify_cost(query.qid, frozenset(), cost)
        return cost

    def empty_workload_cost(self) -> float:
        """``cost(W, ∅)`` summed over the workload (weighted)."""
        return sequential_sum(q.weight * self.empty_cost(q) for q in self._workload)

    def is_cached(self, query: Query, configuration) -> bool:
        """Whether ``whatif_cost`` for this pair would be free."""
        key = config_key(configuration)
        if not key:
            return True
        norm = self._norm_key(self.prepared(query), key)
        return not norm or (query.qid, norm) in self._cache

    def whatif_cost(self, query: Query, configuration) -> float:
        """``c(q, C)`` via a counted what-if call (cached pairs are free).

        The call is counted iff the *normalized* key is uncached. It is a
        batch of one through the batch-commit loop: the pair is priced once
        the policy admits it and charged only after a successful costing, so
        a cost-model failure never leaks a budget unit.

        Raises:
            BudgetExhaustedError: If the pair is uncached and the budget
                policy denies the call.
        """
        key = config_key(configuration)
        if not key:
            return self.empty_cost(query)
        prepared = self.prepared(query)
        norm = self._norm_key(prepared, key)
        if not norm:
            # Every index was irrelevant: the plan is the empty-config plan.
            self._stats.cache_hits += 1
            self._stats.normalized_hits += 1
            return self.empty_cost(query)
        cached = self._cache.get((query.qid, norm))
        if cached is not None:
            self._stats.cache_hits += 1
            if norm is not key:
                self._stats.normalized_hits += 1
            return cached
        if not self._commit_batch([(query.qid, prepared, norm)]):
            self._policy.check(query.qid)
        return self._cache[(query.qid, norm)]

    def trial_cost(
        self, query: Query, base_cost: float, trial: frozenset[Index], extra: Index
    ) -> float:
        """FCFS cost of ``C ∪ {extra}`` given ``base_cost = cost(q, C)``.

        The greedy hot path: while the policy admits the query this is a
        counted what-if call; afterwards it derives incrementally — only
        observations containing ``extra`` can improve on ``base_cost``.
        """
        if self._policy.admits(query.qid):
            # Invariant: admits() is pure and guarantees the immediately
            # following charge succeeds, so whatif_cost cannot raise here —
            # cached pairs return before the policy is touched. The denied
            # regime is handled explicitly below, so no try/except or
            # post-hoc cache re-check is needed.
            return self.whatif_cost(query, trial)
        norm = self._norm_key(self.prepared(query), trial)
        if not norm:
            return self.empty_cost(query)
        cached = self._cache.get((query.qid, norm))
        if cached is not None:
            self._stats.cache_hits += 1
            if norm is not trial:
                self._stats.normalized_hits += 1
            return cached
        return self._derivation.derived_cost_with_extra(
            query.qid, base_cost, trial, extra
        )

    # ------------------------------------------------------------------ #
    # batched costing
    # ------------------------------------------------------------------ #

    def whatif_prefetch(self, pairs, *, limit: int | None = None) -> int:
        """Price and commit uncached (query, configuration) pairs in bulk.

        Pairs are normalized and deduplicated *in issue order*, then run
        through the batch-commit loop (:meth:`_commit_batch`): each
        surviving pair is granted or denied by the budget policy's
        :meth:`~repro.budget.policy.BudgetPolicy.try_charge` in issue order
        (denied pairs are skipped and left uncached), and granted pairs are
        committed to the cache, derivation store, and call log in that
        order. Under FCFS the granted set is exactly the budget-sized
        prefix, so the result is bit-identical to issuing
        :meth:`whatif_cost` sequentially for the same pairs, for every
        ``pricing_jobs``.

        Unlike :meth:`whatif_cost` this never raises on exhaustion: it
        prices what fits and leaves the rest uncached.

        Args:
            pairs: Iterable of ``(query, configuration)``.
            limit: Optional extra cap on counted calls (scoped allowances
                use this to enforce local slices).

        Returns:
            Number of counted calls issued.
        """
        granted = self._commit_batch(self._uncached(pairs), limit)
        if granted:
            self._stats.batch_calls += 1
            self._stats.batched_pairs += granted
        return granted

    def _uncached(self, pairs):
        """Lazily yield ``(qid, prepared, key)`` for each new uncached pair.

        Keys are normalized; empty or fully-irrelevant configurations, cached
        pairs, and repeats within ``pairs`` are dropped, in issue order.
        """
        seen: set[tuple[str, frozenset[Index]]] = set()
        for query, configuration in pairs:
            key = config_key(configuration)
            if not key:
                continue
            prepared = self.prepared(query)
            norm = self._norm_key(prepared, key)
            if not norm:
                continue
            cache_key = (query.qid, norm)
            if cache_key in self._cache or cache_key in seen:
                continue
            seen.add(cache_key)
            yield query.qid, prepared, norm

    def _commit_batch(self, pending, limit: int | None = None) -> int:
        """Charge and commit uncached pairs in issue order: the pricing loop.

        Every counted call goes through here. ``pending`` yields
        ``(qid, prepared, key)`` triples (normalized, uncached, distinct).
        At one pricing job each pair is priced only once the policy
        ``admits`` it, so nothing is priced or recalled ahead of its budget
        decision; with more jobs, waves of pairs are resolved ahead
        (:meth:`_speculate`). The ``try_charge`` decisions run in issue
        order, and cache / derivation / log / ``whatif_call`` commits follow
        all of them, so grants, denials, and the event stream do not depend
        on the job count. Pairs resolved ahead but denied, or cut by
        ``limit``, are discarded as ``speculation_wasted`` — never charged
        or cached.

        A pricing failure leaves its pair uncharged; the pairs granted
        before it are still committed, so every charged unit is logged.

        Returns:
            Number of counted calls committed.
        """
        if limit is not None and limit <= 0:
            return 0
        executor = self._executor()
        if executor.jobs == 1:
            stream = zip(pending, repeat(None))
        else:
            stream = self._speculate(iter(pending), executor.wave_size)
        policy, stats = self._policy, self._stats
        granted: list[tuple[str, frozenset[Index], float]] = []
        ahead_before = stats.speculative_priced
        used_ahead = 0
        try:
            for (qid, prepared, norm), ahead in stream:
                cost = ahead
                if cost is None and policy.admits(qid):
                    cost = self._price(prepared, norm)
                if not policy.try_charge(qid):
                    continue
                if ahead is not None:
                    stats.cost_evaluations += 1
                    used_ahead += 1
                granted.append((qid, norm, cost))
                if limit is not None and len(granted) >= limit:
                    break
        finally:
            stats.speculation_wasted += (
                stats.speculative_priced - ahead_before - used_ahead
            )
            for qid, norm, cost in granted:
                self._commit_call(qid, norm, cost)
        return len(granted)

    def _speculate(self, pending, wave_size: int):
        """Yield ``(triple, cost)``, resolving waves ahead of their decisions.

        Triples are taken in waves of up to ``wave_size``, and each wave is
        resolved concurrently (:meth:`_resolve`) before its first decision.
        A wave of one pair has nothing to overlap, and an exhausted policy
        will grant nothing, so those get ``None`` and are left to the
        commit loop.
        """
        while wave := list(islice(pending, wave_size)):
            if len(wave) == 1 or self._policy.exhausted:
                yield from zip(wave, repeat(None))
            else:
                self._stats.speculative_priced += len(wave)
                yield from zip(wave, self._resolve(wave), strict=True)

    def _resolve(self, wave) -> list[float]:
        """Recall, replay or price each ``(qid, prepared, key)`` of ``wave``.

        The only code that touches the cost journals, always on the calling
        thread. Replay answers from the trace alone. Otherwise the
        persistent cache answers what it holds, the misses go through
        :meth:`_price_shard`, fanned out by the pricing executor (inline at
        one job), and every resolved cost is put into the cache and the
        record journal. Only costs are computed here — budget charges and
        commits belong to :meth:`_commit_batch`.
        """
        if self._replaying:
            from repro.backend.cache import canonical_key

            self._stats.replayed += len(wave)
            return [self._trace.get(qid, canonical_key(norm)) for qid, _, norm in wave]
        if not self._journaled:
            return self._price_wave(wave)
        from repro.backend.cache import canonical_key

        cache, record = self._journals()
        keys = [canonical_key(norm) for _, _, norm in wave]
        costs = [
            None if cache is None else cache.get(qid, key)
            for (qid, _, _), key in zip(wave, keys)
        ]
        misses = [position for position, cost in enumerate(costs) if cost is None]
        self._stats.persistent_hits += len(wave) - len(misses)
        if misses:
            fresh = self._price_wave([wave[position] for position in misses])
            for position, cost in zip(misses, fresh, strict=True):
                costs[position] = cost
                if cache is not None:
                    cache.put(wave[position][0], keys[position], cost)
        if record is not None:
            for (qid, _, _), key, cost in zip(wave, keys, costs):
                record.put(qid, key, cost)
        return costs

    def _price_wave(self, wave) -> list[float]:
        """Price every pair of ``wave`` through the executor, timed."""
        start = perf_counter()
        costs = self._executor().map_shards(self._price_shard, wave)
        self._stats.cost_seconds += perf_counter() - start
        return costs

    def _price_shard(
        self, shard: list[tuple[str, PreparedQuery, frozenset[Index]]]
    ) -> list[float]:
        """Price one contiguous shard of pairs (executor worker entry).

        May run on a worker thread: implementations must only *compute* —
        no stats, cache, policy, or event mutation belongs here; the
        commit loop owns all bookkeeping. The postgres backend overrides
        this to price its shard over one pooled connection, the noisy one
        to price ground-truth pairs (``qid`` other than ``prepared.qid``)
        clean.
        """
        return [self._evaluate(prepared, norm) for _, prepared, norm in shard]

    def _executor(self):
        """The pricing executor (created on first use)."""
        if self._pricing_executor is None:
            from repro.backend.concurrent import PricingExecutor

            self._pricing_executor = PricingExecutor(self._pricing_jobs)
        return self._pricing_executor

    def whatif_workload_costs(
        self, configurations, *, on_exhausted: str = "raise"
    ) -> list[float]:
        """``[c(W, C) for C in configurations]`` with batched pricing.

        Uncached pairs are priced in one pass (issue order: queries in
        workload order within each configuration, configurations in given
        order) and committed deterministically, so the call-log layout
        matches a sequential :meth:`whatif_workload_cost` loop exactly.

        Args:
            configurations: Iterable of configurations.
            on_exhausted: ``"raise"`` mirrors the sequential loop — commit
                the calls the budget admits, then raise at the first pair
                that does not fit; ``"derived"`` substitutes the derived
                cost for pairs past the budget (FCFS) and always returns.

        Raises:
            BudgetExhaustedError: In ``"raise"`` mode when the budget cannot
                cover every uncached pair.
        """
        if on_exhausted not in ("raise", "derived"):
            raise TuningError(f"unknown on_exhausted mode {on_exhausted!r}")
        keys = [config_key(c) for c in configurations]
        queries = list(self._workload)
        self.whatif_prefetch((q, key) for key in keys for q in queries)

        totals: list[float] = []
        for key in keys:
            total = 0.0
            for query in queries:
                if not key:
                    total += query.weight * self.empty_cost(query)
                    continue
                norm = self._norm_key(self.prepared(query), key)
                if not norm:
                    self._stats.cache_hits += 1
                    self._stats.normalized_hits += 1
                    total += query.weight * self.empty_cost(query)
                    continue
                cached = self._cache.get((query.qid, norm))
                if cached is not None:
                    self._stats.cache_hits += 1
                    if norm is not key:
                        self._stats.normalized_hits += 1
                    total += query.weight * cached
                    continue
                # Uncached past the budget: the prefetch priced everything
                # the policy admitted, so this pair did not fit.
                if on_exhausted == "raise":
                    self._policy.check(query.qid)
                total += query.weight * self._derivation.derived_cost(
                    query.qid, norm, self.empty_cost(query)
                )
            totals.append(total)
        return totals

    def whatif_workload_cost(self, configuration) -> float:
        """``c(W, C)``: one counted call per query (cached pairs free)."""
        return self.whatif_workload_costs([configuration])[0]

    # ------------------------------------------------------------------ #
    # derived (free) costing
    # ------------------------------------------------------------------ #

    def derived_cost(self, query: Query, configuration) -> float:
        """``d(q, C)`` per Equation 1 — free, uses only known what-if costs.

        Needs no key normalization: every recorded key is either ``∅`` or
        a committed (already normalized) call key, so with normalization on
        each lies inside ``relevant(q)`` and is a subset of ``C`` exactly
        when it is a subset of ``C ∩ relevant(q)``.
        """
        key = config_key(configuration)
        return self._derivation.derived_cost(query.qid, key, self.empty_cost(query))

    def derived_query_costs(self, configuration) -> list[float]:
        """Per-query *weighted* derived costs, in workload order (one pass).

        The batched form of :meth:`derived_cost` used by episode evaluation
        hot loops: the configuration's bitmask is computed once for every
        query.
        """
        key = config_key(configuration)
        derivation = self._derivation
        mask = derivation.mask(key)
        return [
            query.weight
            * derivation.derived_cost(query.qid, key, self.empty_cost(query), mask)
            for query in self._workload
        ]

    def derived_workload_cost(self, configuration) -> float:
        """``d(W, C)`` summed over the workload (weighted)."""
        return sequential_sum(self.derived_query_costs(configuration))

    # ------------------------------------------------------------------ #
    # evaluation-only access
    # ------------------------------------------------------------------ #

    def true_cost(self, query: Query, configuration) -> float:
        """Uncounted ground-truth cost — for *evaluation only*, never search.

        The paper measures final improvements "in terms of the actual
        what-if cost" (Section 7); this is that measurement hook. Under
        :attr:`separate_truth` the cost comes from its own memo and journal
        lines, never from the what-if cache, and is not reported to cost
        observers (they watch the costs the search saw).
        """
        key = config_key(configuration)
        if not key:
            return self.empty_cost(query)
        prepared = self.prepared(query)
        norm = self._norm_key(prepared, key)
        if not norm:
            return self.empty_cost(query)
        if self.separate_truth:
            return self._true_price(prepared, norm)
        cached = self._cache.get((query.qid, norm))
        if cached is not None:
            return cached
        cost = self._price(prepared, norm)
        if self._cost_observers:
            self._notify_cost(query.qid, norm, cost)
        return cost

    def _true_price(self, prepared: PreparedQuery, norm: frozenset[Index]) -> float:
        """A separately priced ground-truth cost, memoised and journaled."""
        from repro.backend.cache import TRUTH_TAG

        cost = self._true_costs.get((prepared.qid, norm))
        if cost is None:
            (cost,) = self._resolve([(TRUTH_TAG + prepared.qid, prepared, norm)])
            self._stats.cost_evaluations += 1
            self._true_costs[(prepared.qid, norm)] = cost
        return cost

    def explain(self, query: Query, configuration):
        """The plan behind a what-if cost (uncounted).

        Real what-if calls return the hypothetical plan alongside its cost;
        tuners that featurize on plan structure (e.g. the DBA-bandits
        baseline attributing rewards to the indexes a plan used) read it
        from here after paying for the call via :meth:`whatif_cost`.
        Irrelevant indexes never appear in plans, so normalization leaves
        the returned plan unchanged.
        """
        key = config_key(configuration)
        norm = self._norm_key(self.prepared(query), key) if key else key
        return self._model.explain(self.prepared(query), norm)

    def true_workload_cost(self, configuration) -> float:
        """Uncounted ground-truth workload cost (evaluation only)."""
        key = config_key(configuration)
        return sequential_sum(q.weight * self.true_cost(q, key) for q in self._workload)
