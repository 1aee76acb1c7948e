"""Scatter-gather query routing: the shared router core and the sharded router.

:class:`ScatterGatherRouter` is the one scatter-gather core behind both
scale-out modes.  It duck-types the :class:`~repro.server.service.
QueryService` serving surface (``submit``, ``submit_many``, ``stats``,
``uptime_seconds``, ``swap_datasets``, context manager), so
:func:`repro.server.http.make_server` serves a router and a plain service
interchangeably:

* a request is parsed, resolved and admission-gated once at the router,
  answered from the router's result cache when possible, and otherwise
  *scattered* -- in parallel -- to every shard that owns data (the routing
  rule; feature reach was already resolved at partition time by the
  ``MINDIST <= max_radius`` replication rule);
* the per-shard top-k partials are *gathered* through
  :func:`~repro.model.result.merge_top_k` -- the same merge, with the same
  ``(-score, oid)`` tie order, the engine uses for per-cell lists -- which
  is associative, so the merged result equals a single unsharded engine's
  (see :meth:`~repro.sharding.partition.ShardingPlan.grid_aligned` for the
  exact tie contract);
* hot swaps (``POST /datasets``) pause the router's
  :class:`~repro.server.quiesce.QuiesceGate` (in-flight scatter requests
  drain, new ones queue at the gate), repartition, hand the new plan to
  every slice and invalidate the router's result cache by bumping the
  router dataset version.

A mode supplies how one slice is asked, how a swap or write reaches the
slices, and its stats subtree.  :class:`ShardRouter` (``repro serve
--shards N``) asks one in-process :class:`QueryService` per shard, each
over the shard's slice but gridding over the *full* dataset extent, so
every shard engine's query grid is cell-for-cell the unsharded engine's;
:class:`~repro.cluster.router.ClusterRouter` (``--cluster N``) asks node
processes over HTTP.  The sharded router also **rebalances**
(``POST /rebalance``, or the background controller when
``--rebalance-threshold`` is set): it recomputes a skew-aware
:class:`~repro.sharding.layout.ShardLayout` from the live data histogram,
materializes the current base+delta state in bulk-swap order and applies
it through the same quiesce path -- the dataset content is unchanged, so
answers stay bit-for-bit identical across the layout change, and freshly
populated shards re-seed their planner calibrators from the shared
snapshot (the PR-7 ``calibration_seed_path`` rule) instead of starting
cold.

``benchmarks/bench_sharding.py --check`` gates result identity, 4-shard
throughput and loss-free hot swaps under load;
``benchmarks/bench_rebalance.py --check`` gates the skew layout's p99 win
on clustered data plus loss-free rebalancing under load.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.engine import (
    ALGORITHM_CHOICES,
    EngineConfig,
    validate_algorithm_combination,
)
from repro.exceptions import InvalidQueryError, OverloadError
from repro.index.delta import DatasetDelta, materialize
from repro.model.objects import DataObject, FeatureObject
from repro.model.result import QueryResult, ScoredObject, merge_top_k
from repro.planner.core import resolve_planner_mode
from repro.planner.persistence import scoped_calibration_path
from repro.server.admission import AdmissionController
from repro.server.cache import ResultCache
from repro.server.metrics import LatencyHistogram
from repro.server.protocol import ParsedRequest, parse_query_spec, result_payload
from repro.server.quiesce import QuiesceGate
from repro.server.service import (
    QueryService,
    ServiceConfig,
    resolve_request_defaults,
)
from repro.sharding.layout import LAYOUT_CHOICES
from repro.sharding.partition import (
    ShardingPlan,
    partition_datasets,
    route_objects,
)
from repro.spatial.geometry import BoundingBox

#: ``(shard id, response payload)`` of every slice that answered.
SliceResponses = List[Tuple[int, Dict[str, object]]]

#: A disabled controller (every hook is a no-op).  Router batches are
#: served through it: like ``QueryService.submit_many``, a batch is a
#: trusted all-or-nothing bulk surface that admission must not shed.
_NO_ADMISSION = AdmissionController()


@dataclass
class ShardingConfig:
    """Router-level knobs of one :class:`ShardRouter`.

    Attributes:
        shards: Number of shards (>= 1).
        max_radius: Largest query radius the shards answer exactly; the
            feature replication radius of the partitioner.  ``None``
            replicates every feature to every shard and accepts any radius.
        layout: Initial shard layout kind: ``"uniform"`` (the historical
            most-square extent split) or ``"skew"`` (count-balancing kd
            split over the data histogram; see
            :mod:`repro.sharding.layout`).
        layout_resolution: Skew layout-grid cells per axis.  ``None``
            follows the served default query grid size, which keeps the
            default grid layout-aligned (the score-tie contract).
        rebalance_threshold: Per-shard p99 imbalance ratio (slowest shard
            p99 over the median shard p99, measured over the controller's
            observation window) above which the background controller
            triggers a skew rebalance.  ``None`` disables the controller;
            :meth:`ShardRouter.rebalance` stays available either way.
        rebalance_interval_seconds: Controller sampling period.
        rebalance_min_requests: Minimum scatter requests observed across
            the window before an imbalance verdict is trusted (a handful
            of requests make a meaningless p99).
    """

    shards: int = 2
    max_radius: Optional[float] = None
    layout: str = "uniform"
    layout_resolution: Optional[int] = None
    rebalance_threshold: Optional[float] = None
    rebalance_interval_seconds: float = 2.0
    rebalance_min_requests: int = 50


@dataclass
class _RouterCounters:
    """Mutable request accounting (guarded by the router lock).

    One set for both modes; each mode's :meth:`ScatterGatherRouter.stats`
    reports the counters it uses.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cache_hits: int = 0
    swaps: int = 0
    write_batches: int = 0
    rebalances: int = 0
    failovers: int = 0
    degraded_responses: int = 0
    resyncs: int = 0


class ScatterGatherRouter:
    """The scatter-gather core shared by the sharded and cluster routers.

    Subclasses implement the mode-specific parts:

    * ``_query_slice(shard_id, spec)`` -- one slice's response payload for
      a resolved spec, or None when no replica of the slice answered (a
      degraded answer);
    * ``_install_slices(plan, data_objects, feature_objects)`` -- hand a
      new plan to the slices (runs with the gate paused);
    * ``_cache_version()`` -- the composite result-cache version (dataset
      snapshot + write stream);
    * ``dataset_info()``, ``_response_stats(missing)`` (the mode's keys
      in one response's stats subtree) and ``_mode_stats(counters)`` (the
      mode's part of :meth:`stats`);
    * optionally the lifecycle hooks :meth:`_start_slices`,
      :meth:`_stop_background` and :meth:`_close_slices`.
    """

    #: Key of the mode's subtree in response stats and :meth:`stats`.
    mode = ""
    #: Mode-specific counters reported under ``stats()["requests"]``.
    _request_counters: Tuple[str, ...] = ()

    def __init__(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        shards: int,
        max_radius: Optional[float],
        engine_config: Optional[EngineConfig],
        service_config: Optional[ServiceConfig],
        layout: str = "uniform",
        layout_resolution: Optional[int] = None,
    ) -> None:
        """Partition the dataset and set up the shared serving state.

        Raises:
            ValueError: for a non-positive shard count.
            InvalidQueryError: for a negative ``max_radius``.
            JobConfigurationError: for an invalid planner mode.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._engine_config = engine_config or EngineConfig()
        self._service_config = service_config or ServiceConfig()
        #: Validation follows the slices' planner mode: ``"auto"`` is
        #: rejected up front when the planner is off.
        self._planner_mode = resolve_planner_mode(self._engine_config.planner_mode)
        self._num_shards = shards
        self._max_radius = max_radius
        self._layout_kind = layout
        self._layout_resolution = layout_resolution
        self._plan = partition_datasets(
            data_objects,
            feature_objects,
            shards,
            max_radius=max_radius,
            layout=layout,
            layout_resolution=layout_resolution,
        )
        self._defaults = resolve_request_defaults(
            self._plan.extent, self._engine_config.grid_size, self._service_config
        )
        self._cache = ResultCache(self._service_config.result_cache_capacity)
        #: Admission happens once, at the router: the slices run with
        #: admission disabled, so a request admitted here can never be
        #: half-shed by one slice of its scatter.  Same 429 contract as an
        #: unsharded service.
        self._admission = AdmissionController(
            queue_depth=self._service_config.admission_queue_depth,
            default_deadline_ms=self._service_config.default_deadline_ms,
        )
        self._latency = LatencyHistogram()
        self._counters = _RouterCounters()
        self._dataset_version = 0
        self._lock = threading.Lock()
        #: Serializes hot swaps, rebalances, writes and resyncs.
        self._swap_lock = threading.Lock()
        #: Requests scatter inside the gate; swaps and cluster write pushes
        #: pause it, shutdown closes it.
        self._gate = QuiesceGate()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._started = False
        self._started_monotonic: Optional[float] = None

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> "ScatterGatherRouter":
        """Start the scatter pool and the slices (idempotent)."""
        with self._lock:
            if self._started or self._gate.closed:
                return self
            self._started = True
            self._started_monotonic = time.monotonic()
        self._pool = ThreadPoolExecutor(
            max_workers=min(64, self._num_shards * 8),
            thread_name_prefix=f"repro-{self.mode}-scatter",
        )
        self._start_slices()
        return self

    def shutdown(self) -> None:
        """Drain in-flight requests, then tear everything down (idempotent).

        A request that passed the submission check races shutdown; tearing
        the scatter pool down under it would fail an accepted request (the
        close-while-serving race class).  Instead the gate closes first --
        accepted requests complete, requests that reach the gate afterwards
        are rejected cleanly -- then background threads stop, and only then
        are the pool and the slices stopped (serialized against a
        concurrent :meth:`swap_datasets` via the swap lock).
        """
        if not self._gate.close():
            return
        self._stop_background()
        with self._swap_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            self._close_slices()

    def __enter__(self) -> "ScatterGatherRouter":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has been called."""
        return self._gate.closed

    def uptime_seconds(self) -> float:
        """Seconds since :meth:`start` (0.0 before it); lock-free."""
        started = self._started_monotonic
        return time.monotonic() - started if started is not None else 0.0

    def _require_serving(self) -> None:
        """Raise unless the router is started and not shut down."""
        if not self._started:
            raise RuntimeError("the query service is not started")
        if self._gate.closed:
            raise RuntimeError("the query service is shut down")

    def _start_slices(self) -> None:
        """Bring the slices up (called once by :meth:`start`)."""

    def _stop_background(self) -> None:
        """Stop the mode's background thread (before the pool stops)."""

    def _close_slices(self) -> None:
        """Tear the slices down (under the swap lock, after the pool)."""

    # ------------------------------------------------------------------ #
    # serving

    def submit(self, spec: Mapping[str, object]) -> Dict[str, object]:
        """Serve one request object; returns its response payload.

        Identical request/response contract to :meth:`QueryService.submit`;
        see :mod:`repro.server.protocol`.  Additionally rejects queries
        whose radius exceeds the configured ``max_radius`` (the shards'
        feature replication cannot answer them exactly).

        Raises:
            InvalidQueryError: for an invalid request or an over-radius one.
            OverloadError: when admission control sheds the request.
            RuntimeError: when the router is not started or already shut
                down.
        """
        return self._serve(self._parse(spec), self._admission)

    def submit_many(
        self, specs: Sequence[Mapping[str, object]]
    ) -> List[Dict[str, object]]:
        """Serve a batch of request objects; responses in input order.

        All requests are validated up front (the whole batch is rejected if
        any is invalid, mirroring ``QueryService.submit_many``), then served
        concurrently on a batch-local thread pool so their scatter-gather
        round-trips overlap -- the pool is distinct from the scatter pool
        (batch tasks block on scatter tasks, never the reverse, so the two
        levels cannot deadlock each other).  Like
        ``QueryService.submit_many`` the batch bypasses admission control:
        shedding individual requests out of an all-or-nothing batch would
        break its contract.
        """
        parsed_list = [self._parse(spec) for spec in specs]
        serve = functools.partial(self._serve, admission=_NO_ADMISSION)
        if len(parsed_list) <= 1:
            return [serve(parsed) for parsed in parsed_list]
        with ThreadPoolExecutor(
            max_workers=min(len(parsed_list), 8),
            thread_name_prefix=f"repro-{self.mode}-batch",
        ) as pool:
            return list(pool.map(serve, parsed_list))

    def _parse(self, spec: Mapping[str, object]) -> ParsedRequest:
        parsed = parse_query_spec(spec, self._defaults, ALGORITHM_CHOICES)
        validate_algorithm_combination(
            parsed.item.algorithm,
            parsed.item.score_mode,
            planner_mode=self._planner_mode,
        )
        radius = parsed.item.query.radius
        if self._max_radius is not None and radius > self._max_radius:
            raise InvalidQueryError(
                f"query radius {radius} exceeds the shard replication "
                f"radius (max_radius={self._max_radius}); features beyond "
                "it were not replicated across shard boundaries, so the "
                f"{self.mode} router cannot answer this query exactly"
            )
        return parsed

    def _serve(
        self, parsed: ParsedRequest, admission: AdmissionController
    ) -> Dict[str, object]:
        started = time.monotonic()
        self._require_serving()
        with self._lock:
            self._counters.submitted += 1
        deadline = admission.resolve_deadline(parsed.deadline_ms)
        admission.on_arrival(deadline)
        admission.acquire()
        try:
            response = self._serve_admitted(parsed, deadline)
        except BaseException as exc:
            # An OverloadError past admission is the gate's queue-expiry
            # check (the request was admitted, then its deadline passed
            # while waiting at a swap-paused gate) or a 429 relayed from a
            # node that runs its own admission.  Either way the client sees
            # a 429, so it lands in the shed bucket.
            admission.release(
                "expired" if isinstance(exc, OverloadError) else "failed"
            )
            with self._lock:
                self._counters.failed += 1
            raise
        latency = time.monotonic() - started
        admission.release("completed", latency)
        self._latency.record(latency)
        with self._lock:
            self._counters.completed += 1
        return response

    def _serve_admitted(
        self, parsed: ParsedRequest, deadline: Optional[float]
    ) -> Dict[str, object]:
        """Gate entry + scatter-gather for one admitted request."""
        with self._gate.entered():
            # A swap may have held the gate long enough to blow the
            # request's budget; shedding it here (explicit 429) instead of
            # serving a too-late answer is what "quiesce under overload
            # loses nothing" means -- every request still gets a definite
            # outcome.
            if self._admission.expired_in_queue(deadline):
                raise self._admission.queue_expiry_error()
            return self._serve_gated(parsed)

    def _serve_gated(self, parsed: ParsedRequest) -> Dict[str, object]:
        """Cache probe + scatter-gather; runs inside the quiesce gate."""
        key = parsed.canonical_key(self._cache_version())
        if self._cache.enabled:
            payload = self._cache.get(key)
            if payload is not None:
                payload["cached"] = True
                if not parsed.include_stats:
                    payload.pop("stats", None)
                with self._lock:
                    self._counters.cache_hits += 1
                return payload

        answered, missing = self._scatter(parsed)
        full = self._gather(parsed, answered, missing)
        if not missing:
            # A degraded (partial) answer must never be served to a later
            # healthy request from the cache.
            self._cache.put(key, full)
        response = dict(full)
        if not parsed.include_stats:
            response.pop("stats", None)
        return response

    def _scatter(
        self, parsed: ParsedRequest
    ) -> Tuple[SliceResponses, List[int]]:
        """Fan out to every data-bearing shard; returns (answered, missing).

        The scattered spec is fully resolved (every field explicit), so the
        slices' own defaults can never reinterpret it, and it always asks
        for stats: the router caches the stats-bearing merged payload (the
        same trick ``QueryService`` uses) and strips on answer.  Every
        slice gets the same spec object.
        """
        item = parsed.item
        spec: Dict[str, object] = {
            "keywords": sorted(item.query.keywords),
            "k": item.query.k,
            "radius": item.query.radius,
            "algorithm": item.algorithm,
            "grid_size": item.grid_size,
            "score_mode": item.score_mode,
            "stats": True,
        }
        targets = [
            shard.shard_id for shard in self._plan.shards if not shard.is_empty
        ]
        if len(targets) == 1:
            outcomes = [self._query_slice(targets[0], spec)]
        else:
            assert self._pool is not None  # started before any request is gated
            futures = [
                self._pool.submit(self._query_slice, shard_id, spec)
                for shard_id in targets
            ]
            outcomes = [future.result() for future in futures]
        answered: SliceResponses = []
        missing: List[int] = []
        for shard_id, response in zip(targets, outcomes):
            if response is None:
                missing.append(shard_id)
            else:
                answered.append((shard_id, response))
        return answered, missing

    def _gather(
        self,
        parsed: ParsedRequest,
        answered: SliceResponses,
        missing: List[int],
    ) -> Dict[str, object]:
        """Merge per-shard partials into the stats-bearing response payload.

        When shards are missing the payload is still returned from the
        shards that answered, explicitly marked ``"degraded": true`` with
        ``"shards_answered"`` / ``"shards_missing"`` listed.
        """
        partials: List[List[ScoredObject]] = [
            [
                ScoredObject(
                    DataObject(oid=entry["oid"], x=entry["x"], y=entry["y"]),
                    entry["score"],
                )
                for entry in response["results"]
            ]
            for _, response in answered
        ]
        entries = merge_top_k(partials, parsed.item.query.k)
        stats = self._aggregate_stats(parsed, answered, missing)
        stats_parsed = ParsedRequest(item=parsed.item, include_stats=True)
        payload = result_payload(stats_parsed, QueryResult(entries, stats=stats))
        if missing:
            payload["degraded"] = True
            payload["shards_answered"] = sorted(
                shard_id for shard_id, _ in answered
            )
            payload["shards_missing"] = sorted(missing)
            with self._lock:
                self._counters.degraded_responses += 1
        return payload

    def _aggregate_stats(
        self,
        parsed: ParsedRequest,
        answered: SliceResponses,
        missing: List[int],
    ) -> Dict[str, object]:
        """Router-level stats tree: sums of shard work, makespan of shard time.

        ``simulated_seconds`` is the *maximum* over shards -- they execute
        in parallel, so the simulated sharded job time is the slowest
        shard's -- while the work counters are sums.  Per-shard planner
        decisions are surfaced under ``<mode>.planned_algorithms``; the
        top-level ``planned_algorithm`` is set only when every queried
        shard chose the same one.
        """
        stats: Dict[str, object] = {
            "algorithm": parsed.item.algorithm,
            "grid_size": parsed.item.grid_size,
        }
        summed = (
            "shuffled_records",
            "features_pruned",
            "features_examined",
            "score_computations",
        )
        totals: Dict[str, float] = dict.fromkeys(summed, 0)
        makespan = 0.0
        planned: Dict[str, str] = {}
        for shard_id, response in answered:
            shard_stats = response.get("stats", {})
            for name in summed:
                if name in shard_stats:
                    totals[name] += shard_stats[name]
            makespan = max(makespan, shard_stats.get("simulated_seconds", 0.0))
            if "planned_algorithm" in response:
                planned[str(shard_id)] = response["planned_algorithm"]
            if "backend" in shard_stats and "backend" not in stats:
                stats["backend"] = shard_stats["backend"]
                stats["workers"] = shard_stats.get("workers")
        stats.update(totals)
        stats["simulated_seconds"] = makespan
        stats[self.mode] = {
            "shards_queried": len(answered),
            **self._response_stats(sorted(missing)),
            "planned_algorithms": planned or None,
        }
        if planned and len(set(planned.values())) == 1:
            stats["planned_algorithm"] = next(iter(planned.values()))
        return stats

    # ------------------------------------------------------------------ #
    # datasets

    def swap_datasets(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
    ) -> Dict[str, object]:
        """Hot-swap the dataset across every slice; returns new snapshot info.

        The two-level quiesce protocol:

        1. the router gate pauses: in-flight scatter-gather requests drain
           (each sees one consistent slice generation), new requests queue
           at the gate instead of failing;
        2. the new dataset is repartitioned over its new extent and handed
           to every slice (shard services swap under their own quiesce;
           cluster nodes receive the full snapshot with a new epoch);
        3. the router dataset version is bumped -- every cached result
           becomes unreachable -- defaults re-derive from the new extent,
           and the gate reopens.

        No request is lost: requests queued at the gate are served from the
        new snapshot once the gate reopens.
        """
        with self._swap_lock:
            self._install_locked(
                data_objects, feature_objects, self._layout_kind
            )
            with self._lock:
                self._counters.swaps += 1
        return self.dataset_info()

    def _install_locked(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        layout: str,
        extent: Optional[BoundingBox] = None,
    ) -> ShardingPlan:
        """Repartition + apply a dataset under the paused gate.

        The shared tail of hot swaps and rebalances; the caller must hold
        ``_swap_lock``.  Pauses the gate (in-flight scatter-gathers drain),
        hands the new plan to the slices, bumps the router dataset version
        -- every cached result becomes unreachable -- re-derives the
        defaults and reopens the gate.
        """
        with self._gate.paused():
            plan = partition_datasets(
                data_objects,
                feature_objects,
                self._num_shards,
                max_radius=self._max_radius,
                extent=extent,
                layout=layout,
                layout_resolution=self._layout_resolution,
            )
            self._install_slices(plan, data_objects, feature_objects)
            self._plan = plan
            self._layout_kind = plan.stats.kind
            self._dataset_version += 1
            self._cache.invalidate()
            self._defaults = resolve_request_defaults(
                plan.extent,
                self._engine_config.grid_size,
                self._service_config,
            )
        return plan

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def admission(self) -> AdmissionController:
        """The router-level admission controller (slices run without one)."""
        return self._admission

    @property
    def plan(self) -> ShardingPlan:
        """The current sharding plan (replaced wholesale by hot swaps)."""
        return self._plan

    def stats(self) -> Dict[str, object]:
        """Aggregate router statistics (the ``GET /stats`` payload).

        The head mirrors the :meth:`QueryService.stats` shape where the
        concepts coincide (requests, latency, admission, result cache);
        the mode adds its own subtree and the rest (:meth:`_mode_stats`).
        """
        with self._lock:
            counters = dataclasses.replace(self._counters)
        return {
            "uptime_seconds": self.uptime_seconds(),
            "started": self._started,
            "closed": self.closed,
            "requests": {
                "submitted": counters.submitted,
                "completed": counters.completed,
                "failed": counters.failed,
                "result_cache_hits": counters.cache_hits,
                **{
                    name: getattr(counters, name)
                    for name in self._request_counters
                },
            },
            "latency": self._latency.snapshot(),
            "admission": self._admission.snapshot(),
            "result_cache": {
                "capacity": self._cache.capacity,
                "size": len(self._cache),
                **self._cache.stats.as_dict(),
            },
            **self._mode_stats(counters),
        }


class ShardRouter(ScatterGatherRouter):
    """Scatter-gather front-end over one :class:`QueryService` per shard."""

    mode = "sharding"

    def __init__(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        engine_config: Optional[EngineConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        sharding: Optional[ShardingConfig] = None,
    ) -> None:
        """Partition the dataset and build (but do not start) shard services.

        Per-shard :class:`ServiceConfig` adjustments: the shard services run
        with their result caches disabled (responses are cached once, at the
        router, keyed by the router dataset version) and, when a
        ``calibration_path`` is configured, each shard persists its own
        calibration under ``<path>.shard<i>`` (shards see different data, so
        their calibration states legitimately differ).  A shard whose scoped
        snapshot does not exist yet is *seeded* from the global snapshot at
        the base path (or an explicit ``calibration_seed_path``), so a
        re-sharded or freshly added shard plans from fleet-wide estimates
        instead of paying the cold-start warm-up again.

        Raises:
            ValueError: for a non-positive shard count or engine pool.
            InvalidQueryError: for a negative ``max_radius``.
            JobConfigurationError: for invalid engine configuration.
        """
        self.sharding = sharding or ShardingConfig()
        if self.sharding.layout not in LAYOUT_CHOICES:
            raise ValueError(
                f"unknown layout {self.sharding.layout!r}; "
                f"expected one of {LAYOUT_CHOICES}"
            )
        engine_config = engine_config or EngineConfig()
        service_config = service_config or ServiceConfig()
        super().__init__(
            data_objects,
            feature_objects,
            self.sharding.shards,
            self.sharding.max_radius,
            engine_config,
            service_config,
            layout=self.sharding.layout,
            # Skew layouts snap to this grid; following the served default
            # query grid keeps the default grid layout-aligned.
            layout_resolution=(
                self.sharding.layout_resolution
                or service_config.default_grid_size
                or engine_config.grid_size
            ),
        )
        #: The base snapshot behind the shards, in storage order; together
        #: with the delta mirror this is what a rebalance materializes to
        #: rebuild the full current dataset in bulk-swap order.
        self._base_data = list(data_objects)
        self._base_features = list(feature_objects)
        # One service per *configured* shard, even when a degenerate
        # layout produced fewer: a later swap or rebalance may grow the
        # plan back, and extra services idle over empty slices until then
        # (the scatter path only targets plan shards).
        self._services: List[QueryService] = [
            QueryService(
                *self._shard_slice(self._plan, shard_id),
                engine_config=self._engine_config,
                config=self._shard_service_config(shard_id),
                extent=self._plan.extent,
            )
            for shard_id in range(self.sharding.shards)
        ]
        self._num_features = len(feature_objects)
        #: Router-level mirror of the incremental write stream.  It is the
        #: single atomic validator of a write batch (duplicate oids,
        #: extent) *before* anything is pushed to a shard -- a batch that
        #: would fail on shard 2 after succeeding on shard 1 must be
        #: rejected whole, up front -- and its snapshot version is the
        #: write component of the router's result-cache keys.
        self._delta = DatasetDelta()
        self._base_data_oids = {obj.oid for obj in data_objects}
        self._base_feature_oids = {obj.oid for obj in feature_objects}
        #: Background imbalance watcher (started only with a threshold).
        self._rebalance_stop = threading.Event()
        self._rebalance_thread: Optional[threading.Thread] = None
        self._last_rebalance_unix: Optional[float] = None
        self._last_observed_imbalance: Optional[float] = None

    @staticmethod
    def _shard_slice(
        plan: ShardingPlan, shard_id: int
    ) -> Tuple[List[DataObject], List[FeatureObject]]:
        """``shard_id``'s slice of ``plan`` (empty past the plan's end)."""
        if shard_id < len(plan.shards):
            shard = plan.shards[shard_id]
            return shard.data_objects, shard.feature_objects
        return [], []

    def _shard_service_config(self, shard_id: int) -> ServiceConfig:
        # Shards disable their result caches (the router caches merged
        # responses) and their admission control (the router admission-
        # gates the front; a shard shedding one leg of a scatter would
        # tear the merged answer).
        config = dataclasses.replace(
            self._service_config,
            result_cache_capacity=0,
            admission_queue_depth=0,
            default_deadline_ms=None,
        )
        if config.calibration_path:
            config = dataclasses.replace(
                config,
                calibration_path=scoped_calibration_path(
                    config.calibration_path, f"shard{shard_id}"
                ),
                calibration_seed_path=(
                    config.calibration_seed_path or config.calibration_path
                ),
            )
        return config

    # ------------------------------------------------------------------ #
    # the sharded mode's slices

    def _start_slices(self) -> None:
        for service in self._services:
            service.start()
        if self.sharding.rebalance_threshold is not None:
            self._rebalance_thread = threading.Thread(
                target=self._run_rebalance_controller,
                name="repro-rebalance",
                daemon=True,
            )
            self._rebalance_thread.start()

    def _stop_background(self) -> None:
        self._rebalance_stop.set()
        if self._rebalance_thread is not None:
            self._rebalance_thread.join()

    def _close_slices(self) -> None:
        for service in self._services:
            service.shutdown()

    def _query_slice(
        self, shard_id: int, spec: Mapping[str, object]
    ) -> Optional[Dict[str, object]]:
        return self._services[shard_id].submit(spec)

    def _cache_version(self) -> Tuple[int, int]:
        # Incremental writes bump only the delta component (the shard
        # engines' base snapshots stay valid), making every cached merged
        # result unreachable the moment a write lands.
        return (self._dataset_version, self._delta.snapshot().version)

    def _response_stats(self, missing: List[int]) -> Dict[str, object]:
        return {"dataset_version": self._dataset_version}

    def _install_slices(
        self,
        plan: ShardingPlan,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
    ) -> None:
        # Every shard service swaps, services past a shorter plan get
        # empty slices at the new extent.
        for shard_id, service in enumerate(self._services):
            shard_data, shard_features = self._shard_slice(plan, shard_id)
            service.swap_datasets(shard_data, shard_features, extent=plan.extent)
        self._base_data = list(data_objects)
        self._base_features = list(feature_objects)
        self._num_features = len(feature_objects)
        # The write mirror was relative to the old base: new base oid
        # sets, empty delta (the reset still bumps its version).
        self._base_data_oids = {obj.oid for obj in data_objects}
        self._base_feature_oids = {obj.oid for obj in feature_objects}
        self._delta.reset()

    # ------------------------------------------------------------------ #
    # rebalancing (see docs/sharding.md)

    def rebalance(self, layout: str = "skew") -> Dict[str, object]:
        """Re-derive the shard layout from the live data distribution.

        The current dataset -- base snapshot plus delta overlay -- is
        materialized in bulk-swap order (the identity contract's storage
        order), a fresh ``layout`` (skew by default) is derived from its
        per-cell histogram, and the result is applied through the same
        quiesce path as a hot swap, with the extent pinned so the query
        grids never drift.  The dataset *content* is unchanged, so every
        answer after the rebalance is bit-for-bit the answer before it;
        only the per-shard work distribution moves.  Shards whose planner
        calibrator is still cold afterwards are re-seeded from the
        configured calibration seed snapshot.

        Returns:
            A summary of the new layout: kind, shard count, per-shard data
            share, imbalance ratio and which shards were re-seeded.

        Raises:
            ValueError: for an unknown layout kind.
            RuntimeError: when the router is not started or shut down.
        """
        if layout not in LAYOUT_CHOICES:
            raise ValueError(
                f"unknown layout {layout!r}; expected one of {LAYOUT_CHOICES}"
            )
        self._require_serving()
        with self._swap_lock:
            data_objects, feature_objects = materialize(
                self._base_data, self._base_features, self._delta.snapshot()
            )
            plan = self._install_locked(
                data_objects, feature_objects, layout, extent=self._plan.extent
            )
            seeded = [
                shard_id
                for shard_id, service in enumerate(self._services)
                if service.seed_calibration_if_cold()
            ]
            with self._lock:
                self._counters.rebalances += 1
            self._last_rebalance_unix = time.time()
        counts = [len(shard.data_objects) for shard in plan.shards]
        return {
            "layout": plan.stats.kind,
            "shards": plan.stats.num_shards,
            "empty_shards": plan.stats.empty_shards,
            "data_share": self._data_share(counts),
            "imbalance": self._imbalance(counts),
            "seeded_shards": seeded,
            "dataset": self.dataset_info(),
        }

    @staticmethod
    def _data_share(counts: Sequence[int]) -> List[float]:
        total = sum(counts)
        if not total:
            return [0.0 for _ in counts]
        return [count / total for count in counts]

    @staticmethod
    def _imbalance(counts: Sequence[int]) -> float:
        """Max-over-mean data-count ratio (1.0 = perfectly balanced)."""
        total = sum(counts)
        if not counts or not total:
            return 1.0
        return max(counts) / (total / len(counts))

    # -- the background controller ------------------------------------- #

    def _run_rebalance_controller(self) -> None:
        """Watch per-shard p99 latencies; rebalance on sustained imbalance.

        Every interval the controller snapshots each data-bearing shard's
        latency histogram buckets and computes the *windowed* p99 -- the
        p99 of only the requests served since the previous sample, from
        bucket-count deltas (the histograms themselves are cumulative).
        When the slowest shard's windowed p99 exceeds the median shard's
        by the configured threshold (and the window saw enough requests to
        mean anything), it triggers :meth:`rebalance` and restarts its
        observation window.
        """
        interval = self.sharding.rebalance_interval_seconds
        previous: Optional[List[Dict[object, int]]] = None
        while not self._rebalance_stop.wait(interval):
            try:
                current = self._shard_bucket_counts()
                if previous is not None and self._should_rebalance(
                    previous, current
                ):
                    self.rebalance()
                    current = None  # fresh window over the new layout
                previous = current
            except RuntimeError:
                return  # raced shutdown
            except Exception:  # pragma: no cover - keep watching
                previous = None

    def _shard_bucket_counts(self) -> List[Dict[object, int]]:
        """Cumulative latency bucket counts per data-bearing shard."""
        shard_ids = [
            shard.shard_id for shard in self._plan.shards if not shard.is_empty
        ]
        return [
            {
                bucket["le_ms"]: bucket["count"]
                for bucket in self._services[shard_id].stats()["latency"][
                    "buckets"
                ]
            }
            for shard_id in shard_ids
        ]

    def _should_rebalance(
        self,
        previous: List[Dict[object, int]],
        current: List[Dict[object, int]],
    ) -> bool:
        if len(previous) != len(current):
            return False  # the shard set changed under the window
        windows = [
            self._windowed_p99(before, after)
            for before, after in zip(previous, current)
        ]
        total = sum(count for count, _ in windows)
        p99s = sorted(p99 for count, p99 in windows if count and p99 is not None)
        if total < self.sharding.rebalance_min_requests or len(p99s) < 2:
            self._last_observed_imbalance = None
            return False
        # Lower median: for an even shard count the upper-middle element
        # can *be* the slowest shard (2 shards: median == max, ratio
        # pegged at 1.0), which would blind the controller entirely.
        median = p99s[(len(p99s) - 1) // 2]
        imbalance = p99s[-1] / median if median > 0 else 1.0
        self._last_observed_imbalance = imbalance
        threshold = self.sharding.rebalance_threshold
        return threshold is not None and imbalance >= threshold

    @staticmethod
    def _windowed_p99(
        before: Dict[object, int], after: Dict[object, int]
    ) -> Tuple[int, Optional[float]]:
        """(request count, p99 ms) of one window from bucket-count deltas."""

        def bound(le_ms: object) -> float:
            return float("inf") if le_ms == "inf" else float(le_ms)

        deltas = [
            (bound(le_ms), after[le_ms] - before.get(le_ms, 0))
            for le_ms in sorted(after, key=bound)
        ]
        count = sum(delta for _, delta in deltas)
        if count <= 0:
            return (0, None)
        rank = 0.99 * count
        seen = 0
        largest_finite = 0.0
        for le_ms, delta in deltas:
            if le_ms != float("inf"):
                largest_finite = le_ms
            seen += delta
            if seen >= rank:
                # The overflow bucket has no upper bound; report past the
                # last finite one so it still dominates any finite p99.
                return (count, le_ms if le_ms != float("inf")
                        else largest_finite * 2.0)
        return (count, largest_finite * 2.0)  # pragma: no cover - defensive

    def dataset_info(self) -> Dict[str, object]:
        """Version and sizes of the current (full) dataset snapshot."""
        return {
            "version": self._dataset_version,
            "data_objects": self._plan.stats.num_data,
            "feature_objects": self._num_features,
        }

    # ------------------------------------------------------------------ #
    # incremental ingest (write routing; see docs/ingest.md)

    def apply_objects(
        self,
        append_data: Sequence[DataObject] = (),
        append_features: Sequence[FeatureObject] = (),
        delete_data_oids: Sequence[str] = (),
        delete_feature_oids: Sequence[str] = (),
    ) -> Dict[str, object]:
        """Route one incremental write batch to the owning shards.

        The batch is first validated -- and versioned -- atomically against
        the router's write mirror (so a batch that any shard would reject is
        rejected whole, before any shard sees it), then routed by the same
        rules :func:`~repro.sharding.partition.partition_datasets` applied
        at build time: a data append goes to the one shard whose cell
        contains it, a feature append is replicated to every shard within
        ``max_radius`` of it (all shards when ``max_radius`` is None),
        and deletes are broadcast (shard deltas are idempotent, so
        non-owners simply ignore them).  Writes serialize against hot swaps
        and compactions on the swap lock but never quiesce reads.

        Returns:
            The applied counts plus the router delta's size summary.

        Raises:
            DatasetUpdateError: for an invalid batch (no shard is touched).
            RuntimeError: when the router is not started or shut down.
        """
        self._require_serving()
        with self._swap_lock:
            counts = self._delta.apply(
                append_data=list(append_data),
                append_features=list(append_features),
                delete_data_oids=delete_data_oids,
                delete_feature_oids=delete_feature_oids,
                base_data_oids=self._base_data_oids,
                base_feature_oids=self._base_feature_oids,
                extent=self._plan.extent,
            )
            sub_data, sub_features = route_objects(
                self._plan.layout, self._max_radius, append_data, append_features
            )
            deletes = bool(delete_data_oids) or bool(delete_feature_oids)
            for service, shard_data, shard_features in zip(
                self._services, sub_data, sub_features
            ):
                if shard_data or shard_features or deletes:
                    service.apply_objects(
                        append_data=shard_data,
                        append_features=shard_features,
                        delete_data_oids=delete_data_oids,
                        delete_feature_oids=delete_feature_oids,
                    )
            with self._lock:
                self._counters.write_batches += 1
        return {**counts, "delta": self._delta.snapshot().counts()}

    def compact(self) -> Dict[str, object]:
        """Fold every shard's delta into its base snapshot now.

        Each shard compacts independently under its own write lock and
        quiesce (the shard extent stays pinned to the full-dataset extent,
        so grids never drift).  Compaction changes no result, so the
        router's cache and write mirror are left untouched -- the mirror
        keeps validating against the same live oid set either way.
        """
        shards = [service.compact() for service in self._services]
        return {
            "compacted": any(info["compacted"] for info in shards),
            "folded_ops": sum(info["folded_ops"] for info in shards),
            "shards": [
                {"shard": shard_id, "compacted": info["compacted"],
                 "folded_ops": info["folded_ops"]}
                for shard_id, info in enumerate(shards)
            ],
        }

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def services(self) -> List[QueryService]:
        """The per-shard query services, in shard-id order."""
        return self._services

    def _mode_stats(self, counters: _RouterCounters) -> Dict[str, object]:
        """The ``sharding`` subtree, dataset, ingest and defaults, plus one
        slim per-shard entry -- including each shard's own latency
        histogram -- under ``"shards"``.
        """
        plan_stats = self._plan.stats
        shard_data_counts = [
            len(shard.data_objects) for shard in self._plan.shards
        ]
        shard_trees: List[Dict[str, object]] = []
        for shard, service in zip(self._plan.shards, self._services):
            shard_stats = service.stats()
            shard_trees.append({
                "shard": shard.shard_id,
                "box": [shard.box.min_x, shard.box.min_y,
                        shard.box.max_x, shard.box.max_y],
                "data_objects": len(shard.data_objects),
                "feature_objects": len(shard.feature_objects),
                "requests": shard_stats["requests"],
                "latency": shard_stats["latency"],
                "batching": {
                    "batches": shard_stats["batching"]["batches"],
                    "mean_batch": shard_stats["batching"]["mean_batch"],
                },
                "index_cache": shard_stats["index_cache"],
                "ingest": {
                    "delta": shard_stats["ingest"]["delta"],
                    "compactions": shard_stats["ingest"]["compactions"],
                },
            })
        return {
            "sharding": {
                "shards": plan_stats.num_shards,
                "layout": list(plan_stats.layout),
                "layout_kind": plan_stats.kind,
                "max_radius": self.sharding.max_radius,
                "active_shards": plan_stats.num_shards - plan_stats.empty_shards,
                "empty_shards": plan_stats.empty_shards,
                "feature_replication_factor": plan_stats.replication_factor,
                "grid_aligned_default": self._plan.grid_aligned(
                    self._defaults.grid_size
                ),
                "balance": {
                    "kind": plan_stats.kind,
                    "data_share": self._data_share(shard_data_counts),
                    "imbalance": self._imbalance(shard_data_counts),
                    "rebalances": counters.rebalances,
                    "last_rebalance_unix": self._last_rebalance_unix,
                    "controller": {
                        "enabled": (
                            self.sharding.rebalance_threshold is not None
                        ),
                        "threshold": self.sharding.rebalance_threshold,
                        "interval_seconds": (
                            self.sharding.rebalance_interval_seconds
                        ),
                        "min_requests": self.sharding.rebalance_min_requests,
                        "last_observed_imbalance": (
                            self._last_observed_imbalance
                        ),
                    },
                },
            },
            "dataset": {**self.dataset_info(), "swaps": counters.swaps},
            "ingest": {
                "delta": self._delta.snapshot().counts(),
                "cumulative": dict(vars(self._delta.counters)),
                "write_batches": counters.write_batches,
                "compact_threshold": self._service_config.compact_threshold,
            },
            "defaults": vars(self._defaults),
            "shards": shard_trees,
        }


__all__ = ["ScatterGatherRouter", "ShardRouter", "ShardingConfig"]
