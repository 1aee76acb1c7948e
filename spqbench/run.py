"""Benchmark entry point: one workload, one run, one JSON result line.

Usage::

    python3 spqbench/run.py --workload serve-zipf --seed 1 --seconds 22 --trace 0

Run from the root of a checkout of this repository (the package is imported
from ``src/``; nothing needs installing).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs the same workload with the span
patches installed and prints the per-layer metrics instead.  The last line
of standard output is the result object; the lines before it are a
human-readable report with the answer check, the failure breakdown and
the machine metadata.  See ``spqbench/CATALOGUE.md`` for every metric.
"""

import argparse
import json
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "throughput_qps": "q/s",
    "cpu_ms_per_op": "ms",
    "server_rss_mb": "MB",
    "sim_s_per_query": "s",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "mapreduce.map_ms": "ms",
    "mapreduce.reduce_ms": "ms",
    "mapreduce.shuffle_ms": "ms",
    "mapreduce.shuffled_records_per_query": "count",
    "mapreduce.score_computations_per_query": "count",
    "mapreduce.reduce_consumed_ratio": "ratio",
    "mapreduce.reduce_tasks_skipped_ratio": "ratio",
    "model.merge_top_k_ms": "ms",
    "index.build_ms": "ms",
    "index.builds": "count",
    "index.prepare_ms": "ms",
    "index.data_shuffle_ms": "ms",
    "index.candidates_per_query": "count",
    "index.cache_hit_ratio": "ratio",
    "index.delta.apply_ms": "ms",
    "index.delta.compact_ms": "ms",
    "index.delta.compactions": "count",
    "index.delta.ops_end": "count",
    "planner.collect_ms": "ms",
    "planner.decide_ms": "ms",
    "planner.observe_ms": "ms",
    "core.engine.execute_many_ms": "ms",
    "core.engine.self_ms": "ms",
    "core.engine.queries_per_call": "count",
    "server.batching.wait_ms": "ms",
    "server.batching.batch_size_mean": "count",
    "server.cache.hit_ratio": "ratio",
    "server.service.submit_ms": "ms",
    "server.service.self_ms": "ms",
    "server.http.self_ms": "ms",
    "server.http.requests": "count",
    "sharding.submit_ms": "ms",
    "sharding.shard_submit_ms": "ms",
    "sharding.self_ms": "ms",
    "sharding.straggler_ratio": "ratio",
    "sharding.candidates_per_read": "count",
    "sharding.apply_ms": "ms",
    "cluster.submit_ms": "ms",
    "cluster.node_call_ms": "ms",
    "cluster.self_ms": "ms",
    "cluster.node_service_p50_ms": "ms",
    "cluster.conn_reuse_ratio": "ratio",
    "cluster.failovers": "count",
    "traffic.lag_p90_ms": "ms",
    "traffic.conn_opened_per_op": "ratio",
    "trace.overhead_share": "ratio",
    "trace.blocking_path_share": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-batch", "serve-zipf", "sharded-ingest", "cluster-read"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    # Import the package under test from this checkout, never the script dir.
    sys.path[:1] = [os.path.join(ROOT, "src"), ROOT]
    from spqbench import common, workloads

    # SIGTERM unwinds through the workload's cleanup, which stops its servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(ROOT, ".spqbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    started = time.perf_counter()
    try:
        result = workloads.run(args.workload, ROOT, work, args.seed, args.seconds,
                               bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = result.ledger.summary()
    metrics, extra = workloads.summarize(result)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "data_seed": workloads.DATA_SEED,
        "fixed_seed": workloads.FIXED_SEED,
        "records": workloads.OBJECTS,
        "grid": workloads.GRID, "k": workloads.K, "radius": workloads.RADIUS,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        **common.machine_metadata(ROOT),
        **extra,
        "ledger": ledger,
        "leaked_pids": result.leaked,
        **result.info,
    }
    print("report " + json.dumps(report))
    for name, unit in END_TO_END.items():
        print(f"  {name:<18} {metrics[name]:>12.4f} {unit}")
    # Not gated: p90 needs 100 timed reads, and few runs hold many writes.
    for name, count in (("read_p90_ms", "reads_timed"), ("write_p50_ms", "writes_timed")):
        value = report[name]
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:<18} {shown:>12} ms  ({report[count]} samples)")
    print(f"  answer check: {ledger['ok']} ok, {ledger['failed_by_kind']['wrong']} wrong")
    print(f"  failed_share: {ledger['failed_share']:.4f} ({ledger['failed_by_kind']})")
    correct = ledger["failed_by_kind"]["wrong"] == 0 and not result.leaked
    if args.trace:
        out = {name: {"value": float(result.layers.get(name, 0.0)), "unit": unit}
               for name, unit in PER_LAYER.items()}
    else:
        out = {name: {"value": float(metrics[name]), "unit": unit}
               for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": ledger["attempted"],
                      "failed": ledger["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
