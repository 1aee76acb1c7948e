"""Scatter-gather over process-isolated shard nodes, with failover.

:class:`ClusterRouter` is the cluster-mode counterpart of
:class:`~repro.sharding.router.ShardRouter`: both subclass the one
scatter-gather core, :class:`~repro.sharding.router.ScatterGatherRouter`
(request handling, admission, result cache, fan-out, merge, quiesce gate),
so :func:`repro.server.http.make_server` serves it unchanged -- but where
the shard router asks N in-process services, this router speaks the existing
JSON-over-HTTP protocol to N *node endpoints*, each a
:class:`~repro.cluster.node.ShardNodeService` in its own OS process
(``repro serve --cluster N``).  What that buys over ``--shards``:

* **no single-process ceiling** -- every shard has its own interpreter
  (its own GIL) and its own crash domain;
* **liveness tracking** -- a heartbeat thread probes every node's
  ``GET /heartbeat`` on a fixed cadence; consecutive misses or a liveness
  timeout mark a node dead, one success re-admits it
  (:mod:`repro.cluster.membership`);
* **failover** -- each scattered sub-request carries a deadline and one
  retry: when the primary replica of a shard fails (connection refused,
  reset, timeout, 5xx), the request is retried on the next live replica of
  the *same extent slice*.  Replicas exist because ``--replication R``
  runs R node processes per shard, each slicing the same snapshot with the
  same Lemma-1 :func:`~repro.sharding.partition.partition_datasets` call,
  so any replica's answer is bit-for-bit any other's;
* **degraded mode** -- when a shard has no live replica at all, the
  response is still returned from the shards that answered, explicitly
  marked ``"degraded": true`` with ``"shards_answered"`` /
  ``"shards_missing"`` listed (and never cached);
* **cluster-wide hot swap** -- ``POST /datasets`` quiesces the router
  gate, pushes the full new snapshot to every node (each repartitions and
  slices locally), bumps the router dataset version/epoch and invalidates
  the result cache.  Nodes that were unreachable during the swap keep
  reporting their old epoch and are excluded from routing until the
  heartbeat loop resynchronises them.

``benchmarks/bench_cluster.py --check`` gates healthy-fleet bit-for-bit
identity against the unsharded oracle and zero lost/wrong responses while
a node is SIGKILLed under load with replication >= 2.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.membership import (
    ClusterMembership,
    MembershipConfig,
)
from repro.cluster.node import BOOT_EPOCH
from repro.cluster.transport import (
    NodeTransportError,
    get_json,
    post_json,
)
from repro.core.engine import EngineConfig
from repro.exceptions import InvalidQueryError
from repro.index.delta import DatasetDelta, materialize
from repro.model.objects import DataObject, FeatureObject
# Unused here: the gather merges in repro.sharding.router.  The benchmark
# tracer still patches this module's name (spqbench/spans.py:177).
from repro.model.result import merge_top_k  # noqa: F401
from repro.server.service import ServiceConfig
from repro.sharding.partition import ShardingPlan, route_objects
from repro.sharding.router import ScatterGatherRouter, _RouterCounters


@dataclass(frozen=True)
class NodeSpec:
    """One node endpoint the router should route to.

    Attributes:
        url: Base URL (``http://host:port``) of a running shard node.
        shard_index: The shard slice that node serves.
    """

    url: str
    shard_index: int


@dataclass
class ClusterConfig:
    """Router-level knobs of one :class:`ClusterRouter`.

    Attributes:
        shards: Shard count of the cluster partitioning (>= 1); must match
            what every node was booted with.
        max_radius: Feature replication radius of the partitioning (None =
            unbounded); over-radius queries are rejected, as in sharded
            mode.
        heartbeat_interval: Seconds between fleet heartbeat rounds
            (0 disables the background thread; probes can still be driven
            explicitly via :meth:`ClusterRouter.probe_now`).
        liveness_timeout: Silence (seconds) after which a node is dead.
        max_misses: Consecutive failures after which a node is dead.
        node_deadline: Per-sub-request socket deadline (seconds).
        retries: Extra attempts per shard after the primary fails (the
            "one retry" contract; each attempt goes to the next live
            replica).
        initial_epoch: Dataset epoch the fleet booted with.
    """

    shards: int = 2
    max_radius: Optional[float] = None
    heartbeat_interval: float = 2.0
    liveness_timeout: float = 6.0
    max_misses: int = 3
    node_deadline: float = 10.0
    retries: int = 1
    initial_epoch: str = BOOT_EPOCH


class ClusterRouter(ScatterGatherRouter):
    """HTTP scatter-gather front-end over process-isolated shard nodes."""

    mode = "cluster"
    _request_counters = ("failovers", "degraded_responses")

    def __init__(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        nodes: Sequence[NodeSpec],
        cluster: Optional[ClusterConfig] = None,
        engine_config: Optional[EngineConfig] = None,
        service_config: Optional[ServiceConfig] = None,
    ) -> None:
        """Register the fleet and derive request defaults from the dataset.

        The router holds the full current snapshot (it needs it to resync
        stale nodes and to repartition on swaps) but runs no engine of its
        own -- all query work happens on the nodes.

        Args:
            data_objects: The full object dataset the fleet booted with.
            feature_objects: The full feature dataset.
            nodes: One spec per node endpoint; every shard index in
                ``[0, shards)`` should appear at least once (a shard with
                no node can only ever be answered in degraded mode).
            cluster: Cluster knobs (defaults to :class:`ClusterConfig`).
            engine_config: Used to resolve request defaults (grid size)
                and to validate requests (planner mode) identically to
                the nodes.
            service_config: Used for request defaults, admission and the
                router result-cache capacity.

        Raises:
            ValueError: for an empty fleet, a bad shard count, or a node
                spec outside ``[0, shards)``.
            InvalidQueryError: for a negative ``max_radius``.
        """
        self.cluster = cluster or ClusterConfig()
        # Nodes slice locally with the uniform layout (see docs/cluster.md).
        super().__init__(
            data_objects,
            feature_objects,
            self.cluster.shards,
            self.cluster.max_radius,
            engine_config,
            service_config,
        )
        if not nodes:
            raise ValueError("a cluster router needs at least one node")
        for spec in nodes:
            if not 0 <= spec.shard_index < self.cluster.shards:
                raise ValueError(
                    f"node {spec.url!r} serves shard {spec.shard_index}, "
                    f"outside [0, {self.cluster.shards})"
                )
        if self.cluster.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.cluster.retries}")
        self._current_data: List[DataObject] = list(data_objects)
        self._current_features: List[FeatureObject] = list(feature_objects)
        self._membership = ClusterMembership(
            MembershipConfig(
                max_misses=self.cluster.max_misses,
                liveness_timeout=self.cluster.liveness_timeout,
            )
        )
        for spec in nodes:
            self._membership.register(
                spec.url, spec.shard_index, dataset_epoch=self.cluster.initial_epoch
            )
        self._epoch = self.cluster.initial_epoch
        #: Monotonic write-batch counter; with the dataset version it forms
        #: the composite cache version, so a cached response can never
        #: outlive the write that changed its answer.
        self._write_version = 0
        self._heartbeat_stop = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # lifecycle

    def _start_slices(self) -> None:
        # A synchronous first round: node identities and epochs are known
        # before the first request is routed.
        self.probe_now()
        if self.cluster.heartbeat_interval > 0:
            self._heartbeat_thread = threading.Thread(
                target=self._run_heartbeats,
                name="repro-cluster-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()

    def _stop_background(self) -> None:
        # The node processes are *not* owned by the router (``repro serve
        # --cluster`` owns the subprocesses it spawned; remote nodes are
        # somebody else's); shutting the router down leaves them serving.
        self._heartbeat_stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join()

    # ------------------------------------------------------------------ #
    # heartbeats / membership

    def _run_heartbeats(self) -> None:
        interval = self.cluster.heartbeat_interval
        while not self._heartbeat_stop.wait(interval):
            try:
                self.probe_now()
            except Exception:  # noqa: BLE001 - the loop must survive
                # A probe round never raises by construction; this is the
                # belt-and-braces keeping liveness tracking alive anyway.
                pass

    def probe_now(self) -> Dict[str, str]:
        """One full heartbeat round; returns ``{url: state}`` afterwards.

        Probes every registered node, applies the liveness timeout, and
        resynchronises stale-epoch nodes (alive nodes whose last reported
        dataset epoch is not the router's current one -- they were dead
        through a swap, or restarted from their boot file).  Called by the
        heartbeat thread on its cadence, and directly by tests/operators
        for a deterministic round.
        """
        for url in self._membership.urls():
            self._probe_node(url)
        self._membership.sweep()
        self._resync_stale_nodes()
        return {
            row["url"]: row["state"] for row in self._membership.snapshot()
        }

    def _probe_node(self, url: str) -> None:
        try:
            payload = get_json(
                f"{url}/heartbeat", timeout=self.cluster.node_deadline
            )
        except NodeTransportError:
            self._membership.mark_failure(url)
            return
        self._membership.mark_success(
            url,
            node_id=str(payload.get("node_id")),
            dataset_epoch=str(payload.get("dataset_epoch")),
            dataset_version=payload.get("dataset_version"),
        )

    def _resync_stale_nodes(self) -> None:
        """Push the current snapshot to alive nodes reporting an old epoch."""
        stale = self._membership.stale_nodes(self._epoch)
        if not stale:
            return
        with self._swap_lock:
            # Re-check under the lock: a concurrent swap may have moved the
            # epoch (and will resync against the new one itself).
            stale = self._membership.stale_nodes(self._epoch)
            if not stale:
                return
            payload = self._dataset_payload(self._epoch)
            for url in stale:
                if self._push(url, "datasets", payload):
                    with self._lock:
                        self._counters.resyncs += 1

    def _dataset_payload(self, epoch: str) -> Dict[str, object]:
        """The inline ``POST /datasets`` body for the current full snapshot."""
        return {
            "epoch": epoch,
            "data_objects": [
                {"oid": obj.oid, "x": obj.x, "y": obj.y}
                for obj in self._current_data
            ],
            "feature_objects": [
                _feature_entry(obj) for obj in self._current_features
            ],
        }

    def _push(self, url: str, endpoint: str, payload: Dict[str, object]) -> bool:
        """POST a snapshot or write slice to one node; True on success."""
        try:
            post_json(
                f"{url}/{endpoint}", payload, timeout=self.cluster.node_deadline
            )
        except NodeTransportError:
            self._membership.mark_failure(url)
            return False
        except InvalidQueryError:
            # A node that rejects the push (4xx) is misconfigured or
            # diverged from the router's snapshot, not merely unreachable;
            # its stale epoch keeps it out of routing until the heartbeat
            # loop resyncs it with a full snapshot.
            return False
        self._membership.mark_success(url, dataset_epoch=payload["epoch"])
        return True

    def _live_nodes(self) -> List[str]:
        """Every registered node not marked dead (the push targets)."""
        return [
            url
            for url in self._membership.urls()
            if self._membership.status_of(url).state != "dead"
        ]

    @property
    def membership(self) -> ClusterMembership:
        """The live membership registry (shared with the heartbeat loop)."""
        return self._membership

    @property
    def dataset_epoch(self) -> str:
        """The epoch tag of the snapshot the fleet should be serving."""
        return self._epoch

    # ------------------------------------------------------------------ #
    # serving

    def _query_slice(
        self, shard_index: int, spec: Mapping[str, object]
    ) -> Optional[Dict[str, object]]:
        """One shard's sub-request: deadline per attempt, failover retries.

        Tries the shard's routing-eligible replicas in replica-rank order,
        at most ``1 + retries`` attempts.  A transport failure (refused,
        reset, timeout, 5xx) demotes the node in the membership and moves
        on; an application-level 400 is raised to the caller unchanged (a
        replica would reject it identically).  Returns None when no
        eligible replica answered -- the degraded case.
        """
        candidates = self._membership.candidates(shard_index, self._epoch)
        attempts = candidates[: 1 + self.cluster.retries]
        failed: List[str] = []
        for url in attempts:
            try:
                response = post_json(
                    f"{url}/query", spec, timeout=self.cluster.node_deadline
                )
            except NodeTransportError:
                self._membership.mark_failure(url)
                failed.append(url)
                continue
            self._membership.mark_success(url)
            if failed:
                for loser in failed:
                    self._membership.record_failover(loser)
                with self._lock:
                    self._counters.failovers += 1
            return response
        return None

    def _cache_version(self) -> Tuple[int, int]:
        return (self._dataset_version, self._write_version)

    def _response_stats(self, missing: List[int]) -> Dict[str, object]:
        return {
            "shards_missing": missing,
            "degraded": bool(missing),
            "dataset_version": self._dataset_version,
            "dataset_epoch": self._epoch,
        }

    # ------------------------------------------------------------------ #
    # datasets

    def _install_slices(
        self,
        plan: ShardingPlan,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
    ) -> None:
        """Push the full new snapshot with a fresh epoch to every live node.

        Each node repartitions deterministically and swaps its slice under
        its own quiesce gate.  A node the push could not reach keeps its
        old epoch: it is excluded from routing (its shard's other replicas
        answer, or the shard goes degraded) until the heartbeat loop
        resynchronises it.
        """
        epoch = f"v{self._dataset_version + 1}"
        self._current_data = list(data_objects)
        self._current_features = list(feature_objects)
        payload = self._dataset_payload(epoch)
        for url in self._live_nodes():
            self._push(url, "datasets", payload)
        self._epoch = epoch

    def dataset_info(self) -> Dict[str, object]:
        """Version, epoch and sizes of the current (full) dataset snapshot."""
        return {
            "version": self._dataset_version,
            "dataset_epoch": self._epoch,
            "data_objects": len(self._current_data),
            "feature_objects": len(self._current_features),
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
        """Route one incremental write batch to the whole fleet.

        The batch is validated atomically against the router's full
        snapshot first (a batch any node would reject is rejected whole,
        before any node sees it), folded into the router's own copy (the
        resync source of truth), then routed by the same rules
        :func:`~repro.sharding.partition.partition_datasets` applies at
        build time (:func:`~repro.sharding.partition.route_objects`): a
        data append goes to the nodes of the one shard whose cell contains
        it, a feature append is replicated to every shard within
        ``max_radius`` (all shards when unbounded), deletes are broadcast
        (node deltas are idempotent).  Every write batch mints a fresh
        cluster epoch and is pushed to **every** non-dead node -- nodes the
        batch routes nothing to get a pure epoch bump -- so the whole fleet
        moves epochs together.  A node the push cannot reach keeps its old
        epoch, drops out of routing, and is resynchronised with a full
        snapshot by the heartbeat loop, exactly like a node that slept
        through a hot swap.

        Unlike single-process delta writes (which never block readers),
        a cluster write briefly quiesces the scatter gate: per-node applies
        are not atomic across the fleet, and routing reads concurrently
        would let one response mix pre- and post-write shard answers.  The
        node-local deltas still make each push tiny next to a snapshot
        push, which is where the incremental win lives.

        Returns:
            The applied counts plus the new epoch and write version.

        Raises:
            DatasetUpdateError: for an invalid batch (no node is touched,
                serving is not paused).
            RuntimeError: when the router is not started or shut down.
        """
        self._require_serving()
        append_data = list(append_data)
        append_features = list(append_features)
        delete_data_oids = list(delete_data_oids)
        delete_feature_oids = list(delete_feature_oids)
        with self._swap_lock:
            # Validate before quiescing: a rejected batch must not pause
            # serving.  The throwaway delta applies the exact same
            # deletes-first / duplicate-oid / extent rules a node would.
            probe = DatasetDelta()
            counts = probe.apply(
                append_data=append_data,
                append_features=append_features,
                delete_data_oids=delete_data_oids,
                delete_feature_oids=delete_feature_oids,
                base_data_oids={obj.oid for obj in self._current_data},
                base_feature_oids={obj.oid for obj in self._current_features},
                extent=self._plan.extent,
            )
            counts.pop("delta_version", None)
            with self._gate.paused():
                self._current_data, self._current_features = materialize(
                    self._current_data, self._current_features,
                    probe.snapshot(),
                )
                self._write_version += 1
                epoch = f"v{self._dataset_version}w{self._write_version}"
                sub_data, sub_features = route_objects(
                    self._plan.layout, self._max_radius,
                    append_data, append_features,
                )
                for url in self._live_nodes():
                    shard = self._membership.status_of(url).shard_index
                    self._push(url, "objects", _objects_payload(
                        sub_data[shard], sub_features[shard],
                        delete_data_oids, delete_feature_oids, epoch,
                    ))
                self._epoch = epoch
                with self._lock:
                    self._counters.write_batches += 1
        return {
            **counts,
            "dataset_epoch": epoch,
            "write_version": self._write_version,
        }

    # ------------------------------------------------------------------ #
    # introspection

    def _mode_stats(self, counters: _RouterCounters) -> Dict[str, object]:
        """The ``cluster`` subtree, ingest, dataset and defaults.

        Local-only by design: the tree is built from the router's own
        counters and the membership registry -- no node round-trips, so
        ``/stats`` stays cheap and answers even with the fleet down.
        Per-node counter trees live on the nodes' own ``GET /stats``.
        """
        plan_stats = self._plan.stats
        return {
            "cluster": {
                "shards": plan_stats.num_shards,
                "layout": list(plan_stats.layout),
                "max_radius": self.cluster.max_radius,
                "nodes": self._membership.snapshot(),
                "alive_nodes": self._membership.alive_count(),
                "dataset_epoch": self._epoch,
                "heartbeat_interval_seconds": self.cluster.heartbeat_interval,
                "liveness_timeout_seconds": self.cluster.liveness_timeout,
                "max_misses": self.cluster.max_misses,
                "node_deadline_seconds": self.cluster.node_deadline,
                "retries": self.cluster.retries,
                "resyncs": counters.resyncs,
                "feature_replication_factor": plan_stats.replication_factor,
                "grid_aligned_default": self._plan.grid_aligned(
                    self._defaults.grid_size
                ),
            },
            "ingest": {
                "write_batches": counters.write_batches,
                "write_version": self._write_version,
            },
            "dataset": {**self.dataset_info(), "swaps": counters.swaps},
            "defaults": vars(self._defaults),
        }


def _feature_entry(obj: FeatureObject) -> Dict[str, object]:
    """One feature object as a JSON body entry."""
    return {
        "oid": obj.oid,
        "x": obj.x,
        "y": obj.y,
        "keywords": sorted(obj.keywords),
    }


def _objects_payload(
    append_data: Sequence[DataObject],
    append_features: Sequence[FeatureObject],
    delete_data_oids: Sequence[str],
    delete_feature_oids: Sequence[str],
    epoch: str,
) -> Dict[str, object]:
    """The ``POST /objects`` body for one shard's slice of a write batch.

    An all-empty slice still produces a valid body -- just the epoch tag
    -- which the node HTTP handler accepts as a pure epoch bump.
    """
    payload: Dict[str, object] = {"epoch": epoch}
    append: Dict[str, object] = {}
    if append_data:
        append["data_objects"] = [
            {"oid": obj.oid, "x": obj.x, "y": obj.y} for obj in append_data
        ]
    if append_features:
        append["feature_objects"] = [
            _feature_entry(obj) for obj in append_features
        ]
    if append:
        payload["append"] = append
    delete: Dict[str, object] = {}
    if delete_data_oids:
        delete["data_oids"] = list(delete_data_oids)
    if delete_feature_oids:
        delete["feature_oids"] = list(delete_feature_oids)
    if delete:
        payload["delete"] = delete
    return payload


__all__ = ["ClusterConfig", "ClusterRouter", "NodeSpec"]
