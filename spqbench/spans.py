"""Span tracing for the traced run: patches around public layer functions.

The recorder wraps public functions of each layer (no file under ``src/``
changes).  A span records its name, start, end, parent span (the innermost
enclosing span on the same thread) and the request id current on that
thread.  Spans stay in memory and are written out when the traced process
ends.  Work a layer hands to another thread (micro-batch dispatch, shard
scatter) is linked afterwards through the objects both sides see: the
``BatchQuery`` items of a micro-batch and the scatter spec of a read.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from spqbench.common import mean, median

AttrFn = Callable[[tuple, dict, object], Dict[str, object]]


class Span:
    """One timed call of a patched function."""

    __slots__ = ("sid", "parent", "rid", "name", "start", "end", "attrs")

    def __init__(self, sid: int, parent: Optional[int], rid: Optional[int],
                 name: str, start: float, end: float = 0.0,
                 attrs: Optional[Dict[str, object]] = None) -> None:
        self.sid, self.parent, self.rid, self.name = sid, parent, rid, name
        self.start, self.end = start, end
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "Span":
        return cls(**raw)


class Recorder:
    """Collects spans from patched functions; ``enabled`` gates recording."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []
        # Objects whose id() a span recorded; kept alive so ids stay unique.
        self._pinned: List[object] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_request(self) -> int:
        """Start a new request id on this thread (front-door spans call it)."""
        rid = next(self._rids)
        self._local.rid = rid
        return rid

    def pin(self, obj: object) -> int:
        """``id(obj)``, keeping ``obj`` alive for the life of the recorder."""
        self._pinned.append(obj)
        return id(obj)

    def wrap(self, owner: object, attr: str, name: str,
             attrs: Optional[AttrFn] = None, front_door: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            stack = recorder._stack()
            if front_door and not stack:
                recorder.new_request()
            span = Span(next(recorder._ids), stack[-1].sid if stack else None,
                        getattr(recorder._local, "rid", None), name,
                        time.perf_counter())
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched function."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str, extra: Mapping[str, object]) -> None:
        """Write the spans (one JSON object a line) plus a trailing extras line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
            handle.write(json.dumps({"extra": dict(extra)}) + "\n")


def load_dump(path: str) -> Tuple[List[Span], Dict[str, object]]:
    """Read a :meth:`Recorder.dump` file back."""
    spans: List[Span] = []
    extra: Dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            raw = json.loads(line)
            if "extra" in raw:
                extra = raw["extra"]
            else:
                spans.append(Span.from_dict(raw))
    return spans, extra


# --------------------------------------------------------------------- #
# patch installation


def _counter_attrs(args, kwargs, result) -> Dict[str, object]:
    """Work counts of one MapReduce job run (``LocalJobRunner.run``)."""
    counters = result.counters
    return {
        "shuffled": counters.get("shuffle", "records"),
        "scores": counters.get("work", "score_computations"),
        "reduce_in": counters.get("reduce", "input_records"),
        "reduce_consumed": counters.get("reduce", "consumed_records"),
        "skipped": counters.get("reduce", "tasks_skipped"),
        "reducers": result.num_reduce_tasks,
    }


def install(recorder: Recorder) -> None:
    """Patch the public functions of every traced layer."""
    import repro.cluster.router as cluster_router
    import repro.core.engine as engine_module
    import repro.sharding.router as sharding_router
    from repro.execution.base import ExecutionBackend
    from repro.index.dataset_index import DatasetIndex
    from repro.mapreduce.runtime import LocalJobRunner
    from repro.planner.core import QueryPlanner
    from repro.server.batching import MicroBatcher, PendingRequest
    from repro.server.http import _ServiceRequestHandler as handler
    from repro.server.service import QueryService

    wrap = recorder.wrap
    pin = recorder.pin

    wrap(LocalJobRunner, "run", "mapreduce.run", _counter_attrs)
    for backend in ExecutionBackend.__subclasses__():
        for attr in ("run_map_tasks", "run_reduce_tasks"):
            if attr in vars(backend):
                wrap(backend, attr, f"mapreduce.{attr}")
    for module in (engine_module, sharding_router, cluster_router):
        wrap(module, "merge_top_k", "model.merge_top_k")
    wrap(DatasetIndex, "__init__", "index.build")
    wrap(DatasetIndex, "prepare", "index.prepare",
         lambda a, k, r: {"candidates": r.num_candidates})
    wrap(DatasetIndex, "data_shuffle", "index.data_shuffle")
    wrap(DatasetIndex, "filtered_data_shuffle", "index.data_shuffle")
    wrap(QueryService, "apply_objects", "index.delta.apply")
    wrap(QueryService, "compact", "index.delta.compact",
         lambda a, k, r: {"compacted": bool(r.get("compacted"))})
    for attr in ("collect", "decide", "observe"):
        wrap(QueryPlanner, attr, f"planner.{attr}")
    wrap(engine_module.SPQEngine, "execute_many", "core.engine.execute_many",
         lambda a, k, r: {"queries": len(r), "items": [pin(q) for q in a[1]]})
    wrap(MicroBatcher, "submit", "server.batching.submit")
    wrap(PendingRequest, "wait", "server.batching.wait",
         lambda a, k, r: {"item": id(a[0].payload.parsed.item)})
    wrap(QueryService, "submit", "server.service.submit",
         lambda a, k, r: {"spec": pin(a[1])})
    wrap(handler, "do_POST", "server.http.post", front_door=True)
    wrap(handler, "do_GET", "server.http.get", front_door=True)
    wrap(sharding_router.ShardRouter, "submit", "sharding.submit")
    wrap(sharding_router.ShardRouter, "apply_objects", "sharding.apply")
    wrap(cluster_router.ClusterRouter, "submit", "cluster.submit")
    wrap(cluster_router, "post_json", "cluster.node_call",
         lambda a, k, r: {"spec": pin(a[1]), "query": a[0].endswith("/query")})


# --------------------------------------------------------------------- #
# analysis


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration - covered(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


def group_under(groups: Sequence[Tuple[float, float, object]],
                parents: Sequence[Span]) -> Dict[int, object]:
    """Match each (start, end, value) group to the enclosing parent span.

    Scatter work runs on pool threads, so thread stacks cannot link it to
    the request that caused it.  Each group goes to the latest-starting
    unmatched parent whose interval contains it; with at most ``nproc``
    requests in flight this is unambiguous in all but exact overlaps.
    """
    taken: Dict[int, object] = {}
    for start, end, value in sorted(groups, key=lambda g: g[0]):
        best = None
        for parent in parents:
            if parent.sid in taken or parent.start > start or parent.end < end:
                continue
            if best is None or parent.start > best.start:
                best = parent
        if best is not None:
            taken[best.sid] = value
    return taken


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def layer_metrics(spans: Sequence[Span], server_stats: Mapping[str, object],
                  node_stats: Sequence[Mapping[str, object]],
                  pool: Mapping[str, int]) -> Dict[str, float]:
    """Per-layer figures from the spans and the servers' own ``/stats``."""
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    own = self_times(spans)

    def dur(name: str) -> float:
        return mean(_ms(s.duration) for s in by_name[name])

    def self_ms(name: str) -> float:
        return mean(_ms(own[s.sid]) for s in by_name[name])

    m: Dict[str, float] = {}
    runs = by_name["mapreduce.run"]
    m["mapreduce.map_ms"] = dur("mapreduce.run_map_tasks")
    m["mapreduce.reduce_ms"] = dur("mapreduce.run_reduce_tasks")
    m["mapreduce.shuffle_ms"] = max(0.0, dur("mapreduce.run") - m["mapreduce.map_ms"]
                                    - m["mapreduce.reduce_ms"]) if runs else 0.0
    totals = defaultdict(float)
    for span in runs:
        for key, value in span.attrs.items():
            totals[key] += value
    queries = len(runs)
    m["mapreduce.shuffled_records_per_query"] = totals["shuffled"] / queries if queries else 0.0
    m["mapreduce.score_computations_per_query"] = totals["scores"] / queries if queries else 0.0
    m["mapreduce.reduce_consumed_ratio"] = (
        totals["reduce_consumed"] / totals["reduce_in"] if totals["reduce_in"] else 0.0)
    m["mapreduce.reduce_tasks_skipped_ratio"] = (
        totals["skipped"] / totals["reducers"] if totals["reducers"] else 0.0)

    m["model.merge_top_k_ms"] = dur("model.merge_top_k")

    m["index.build_ms"] = dur("index.build")
    m["index.builds"] = float(len(by_name["index.build"]))
    m["index.prepare_ms"] = dur("index.prepare")
    m["index.data_shuffle_ms"] = dur("index.data_shuffle")
    m["index.candidates_per_query"] = mean(s.attrs["candidates"] for s in by_name["index.prepare"])
    m["index.cache_hit_ratio"] = _index_hit_ratio(server_stats, node_stats)

    m["index.delta.apply_ms"] = dur("index.delta.apply")
    m["index.delta.compact_ms"] = mean(
        _ms(s.duration) for s in by_name["index.delta.compact"] if s.attrs.get("compacted"))
    m["index.delta.compactions"] = float(sum(
        1 for s in by_name["index.delta.compact"] if s.attrs.get("compacted")))
    m["index.delta.ops_end"] = float(_delta_ops(server_stats))

    for step in ("collect", "decide", "observe"):
        m[f"planner.{step}_ms"] = dur(f"planner.{step}")

    calls = by_name["core.engine.execute_many"]
    m["core.engine.execute_many_ms"] = dur("core.engine.execute_many")
    m["core.engine.self_ms"] = self_ms("core.engine.execute_many")
    m["core.engine.queries_per_call"] = mean(s.attrs["queries"] for s in calls)

    engine_span_of_item: Dict[int, Span] = {}
    for span in calls:
        for item in span.attrs["items"]:
            engine_span_of_item[item] = span
    waits = [
        _ms(s.duration - engine_span_of_item[s.attrs["item"]].duration)
        for s in by_name["server.batching.wait"] if s.attrs.get("item") in engine_span_of_item
    ]
    m["server.batching.wait_ms"] = mean(waits)
    m["server.batching.batch_size_mean"] = _batch_size(server_stats)
    cache = server_stats.get("result_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    m["server.cache.hit_ratio"] = cache.get("hits", 0) / lookups if lookups else 0.0

    m["server.service.submit_ms"] = dur("server.service.submit")
    m["server.service.self_ms"] = self_ms("server.service.submit")
    posts = by_name["server.http.post"]
    m["server.http.self_ms"] = self_ms("server.http.post")
    m["server.http.requests"] = float(len(posts))

    routers = by_name["sharding.submit"]
    shard_groups: Dict[int, List[Span]] = defaultdict(list)
    if routers:
        for span in by_name["server.service.submit"]:
            shard_groups[span.attrs["spec"]].append(span)
    m.update(_scatter_metrics("sharding", routers, list(shard_groups.values())))
    m["sharding.shard_submit_ms"] = dur("server.service.submit") if routers else 0.0
    reads = sum(1 for group in shard_groups.values() if group)
    m["sharding.candidates_per_read"] = (
        sum(s.attrs["candidates"] for s in by_name["index.prepare"]) / reads if reads else 0.0)
    m["sharding.apply_ms"] = dur("sharding.apply")

    node_groups: Dict[int, List[Span]] = defaultdict(list)
    node_calls = [s for s in by_name["cluster.node_call"] if s.attrs.get("query")]
    for span in node_calls:
        node_groups[span.attrs["spec"]].append(span)
    m.update(_scatter_metrics("cluster", by_name["cluster.submit"], list(node_groups.values())))
    m["cluster.node_call_ms"] = mean(_ms(s.duration) for s in node_calls)
    m["cluster.node_service_p50_ms"] = mean(
        (stats.get("latency") or {}).get("p50_ms") or 0.0 for stats in node_stats)
    m["cluster.conn_reuse_ratio"] = (
        pool.get("reused", 0) / pool["requests"] if pool.get("requests") else 0.0)
    m["cluster.failovers"] = float(
        server_stats.get("requests", {}).get("failovers", 0) if node_stats else 0)
    return m


def _scatter_metrics(layer: str, routers: Sequence[Span],
                     groups: Sequence[Sequence[Span]]) -> Dict[str, float]:
    """submit_ms, self_ms (submit - slowest part) and straggler ratio."""
    matched = group_under(
        [(min(s.start for s in g), max(s.end for s in g), g) for g in groups if g], routers)
    selfs, stragglers = [], []
    for router in routers:
        group = matched.get(router.sid)
        if group is None:
            continue
        slowest = max(s.duration for s in group)
        selfs.append(_ms(router.duration - slowest))
        typical = median(s.duration for s in group)
        if typical > 0:
            stragglers.append(slowest / typical)
    out = {
        f"{layer}.submit_ms": mean(_ms(s.duration) for s in routers),
        f"{layer}.self_ms": mean(selfs),
    }
    if layer == "sharding":
        out["sharding.straggler_ratio"] = mean(stragglers)
    return out


def _index_hit_ratio(server_stats: Mapping[str, object],
                     node_stats: Sequence[Mapping[str, object]]) -> float:
    trees = [server_stats.get("index_cache")] + [
        shard.get("index_cache") for shard in server_stats.get("shards", [])
    ] + [stats.get("index_cache") for stats in node_stats]
    hits = sum(t.get("hits", 0) for t in trees if t)
    misses = sum(t.get("misses", 0) for t in trees if t)
    return hits / (hits + misses) if hits + misses else 0.0


def _delta_ops(server_stats: Mapping[str, object]) -> int:
    trees = [shard.get("ingest", {}).get("delta") for shard in server_stats.get("shards", [])]
    if not trees:
        trees = [server_stats.get("ingest", {}).get("delta")]
    return sum(
        value for tree in trees if tree for key, value in tree.items() if key != "version"
    )


def _batch_size(server_stats: Mapping[str, object]) -> float:
    batching = server_stats.get("batching")
    if batching:
        return float(batching.get("mean_batch", 0.0))
    shards = [s["batching"]["mean_batch"] for s in server_stats.get("shards", [])
              if s.get("batching", {}).get("batches")]
    return mean(shards)
